"""Concurrent corruption recovery on the shared disk-cache tier.

Two services share one disk directory, as servers sharing one
``--cache-dir`` do.  When both race a torn entry at the same moment,
each must detect the corruption independently, quarantine it
(best-effort: losing the ``os.replace`` race is fine), and recompute —
landing on bit-identical answers, because the engine is deterministic.
Also covers the drain path's :meth:`ResultCache.flush`, which persists
memory-tier entries the disk tier has not seen yet, and two services
writing one key at once.
"""

from __future__ import annotations

import builtins
import os
import threading

from tests.conftest import build_net
from repro.core.config import MerlinConfig
from repro.instrument import names as metric
from repro.resilience.faults import FaultPlan, FaultSpec, use_fault_plan
from repro.service import OptimizationService, ResultCache
from repro.service import cache as cache_mod
from repro.service.cache import QUARANTINE_DIR
from repro.tech.technology import default_technology

TECH = default_technology()
CFG = MerlinConfig.test_preset()


def _service(disk):
    return OptimizationService(tech=TECH, config=CFG, workers=1,
                               cache=ResultCache(disk_dir=disk))


def _tear_the_single_entry(disk):
    (entry,) = [f for f in os.listdir(disk) if f.endswith(".json")]
    path = os.path.join(disk, entry)
    with open(path, encoding="utf-8") as handle:
        blob = handle.read()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(blob[: len(blob) // 2])  # torn mid-write
    return entry


def test_two_shards_racing_a_torn_entry_both_recover_identically(tmp_path):
    disk = str(tmp_path / "cache")
    net = build_net(3, seed=60)
    with _service(disk) as seeder:
        cold = seeder.optimize(net)
    assert cold.ok
    entry = _tear_the_single_entry(disk)

    # Two independent services: own memory tiers (both empty), shared disk
    # tier holding only the torn entry.  The barrier releases the reads
    # together and a hang at the ``service.cache.read`` seam (which sits
    # *after* the file read) holds both services with the torn bytes in
    # hand — so neither can win the quarantine race before the other has
    # read, and both must detect the corruption themselves.
    services = [_service(disk), _service(disk)]
    barrier = threading.Barrier(2)
    results = [None, None]
    plan = FaultPlan(seed=9, specs=(
        FaultSpec(site="service.cache.read", kind="hang", hang_s=0.3,
                  times=2),))

    def hit(index):
        barrier.wait()
        results[index] = services[index].optimize(net)

    threads = [threading.Thread(target=hit, args=(i,)) for i in range(2)]
    try:
        with use_fault_plan(plan):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        stats = [service.stats() for service in services]
    finally:
        for service in services:
            service.close()

    # Both recomputed (neither replayed the torn bytes) and both landed
    # on the seeder's exact answer.
    for result in results:
        assert result is not None and result.ok
        assert not result.cached
        assert result.signature == cold.signature

    # Every service detected the corruption itself; the quarantine move is
    # won by exactly one (losing the race is tolerated, not an error).
    for stat in stats:
        assert stat["cache"]["corruptions"] == 1
        assert stat["counters"][metric.RESILIENCE_CACHE_CORRUPTIONS] == 1
    quarantined = sum(s["cache"]["quarantined"] for s in stats)
    assert quarantined == 1
    assert os.listdir(os.path.join(disk, QUARANTINE_DIR)) == [entry]

    # One recompute re-wrote the entry valid: a fresh service now gets a
    # clean warm hit.
    with _service(disk) as fresh:
        warm = fresh.optimize(net)
    assert warm.cached and warm.signature == cold.signature


def test_flush_persists_memory_entries_to_the_disk_tier(tmp_path):
    disk = str(tmp_path / "cache")
    nets = [build_net(3, seed=61 + i) for i in range(2)]
    with _service(disk) as service:
        for net in nets:
            assert service.optimize(net).ok
        # Wipe the disk tier behind the cache's back: the entries now
        # live only in memory, exactly the drain-time exposure.
        for name in os.listdir(disk):
            os.unlink(os.path.join(disk, name))
        flushed = service.cache.flush()
        assert flushed == len(nets)
        assert service.stats()["counters"][
            metric.RESILIENCE_CACHE_FLUSHED] == len(nets)
        # Entries already on disk are skipped on the next flush.
        assert service.cache.flush() == 0
    on_disk = [f for f in os.listdir(disk) if f.endswith(".json")]
    assert len(on_disk) == len(nets)

    # The flushed entries are valid: a fresh service warm-hits them.
    with _service(disk) as fresh:
        for net in nets:
            assert fresh.optimize(net).cached


def test_flush_without_a_disk_tier_is_a_noop():
    cache = ResultCache()
    with OptimizationService(tech=TECH, config=CFG, workers=1,
                             cache=cache) as service:
        assert service.optimize(build_net(3, seed=63)).ok
        assert cache.flush() == 0


def test_two_shards_writing_one_key_leave_a_valid_entry(tmp_path,
                                                        monkeypatch):
    # Two services of one process (same pid) write the same key with
    # payloads of different lengths, as engine_wall_s makes them.  The
    # patched open() holds both writers until each has its temp file
    # open, then lets the long payload land before the short one: a
    # temp file shared between the writers would end up as the short
    # payload followed by the long one's tail.
    disk = str(tmp_path / "cache")
    key = "k" * 64
    payloads = {"long": {"engine_wall_s": 0.123456789, "pad": "x" * 64},
                "short": {"engine_wall_s": 0.5}}
    both_open = threading.Barrier(2)
    long_written = threading.Event()
    real_open = builtins.open

    def gated_open(file, mode="r", *args, **kwargs):
        handle = real_open(file, mode, *args, **kwargs)
        if "w" in mode:
            both_open.wait(timeout=10)
            if threading.current_thread().name == "short":
                assert long_written.wait(timeout=10)
        return handle

    monkeypatch.setattr(cache_mod, "open", gated_open, raising=False)
    failures = []

    def write(name):
        try:
            ResultCache(disk_dir=disk).put(key, payloads[name])
        except Exception as exc:  # surfaced below, not lost in a thread
            failures.append(exc)
        finally:
            if name == "long":
                long_written.set()

    threads = [threading.Thread(target=write, args=(name,), name=name)
               for name in payloads]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    monkeypatch.undo()
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []

    reader = ResultCache(disk_dir=disk)
    assert reader.get(key) == payloads["short"]
    assert reader.stats()["corruptions"] == 0
    assert os.listdir(disk) == [f"{key}.json"]  # no stray temp files
