"""Timings in reference seconds: wall time rescaled by the speed of the
host, sampled all through the run.

The shared 2-vCPU VMs the benchmark was sized on change speed all the
time.  A fixed pure-Python loop took anywhere from half to three times
its usual time, and the CPU time it was charged moved with the wall
time, so the host was slower, not busy elsewhere.  Sub-second noise
averages out over a run; the slow part does not.  Over two minutes the
loop's mean in 5-second windows went from 12.7 to 26.0 ms, the same on
both vCPUs (correlation 0.94), and the wall time of ten-run sets of
35-second runs spread (quartile distance over median) up to 0.31.

So while a timed phase runs, a :class:`Sampler` interrupts it every
:data:`INTERVAL_S` seconds of wall time with :func:`probe`, a fixed loop
of the engine's kind of work (dict, float and loop churn) that belongs
to the benchmark and never changes with the program, and the phase is
reported as the time it would have taken on a host where the probe
takes :data:`REFERENCE_PROBE_S`::

    reference seconds = wall seconds * REFERENCE_PROBE_S / mean probe seconds

A slower host stretches the work and the probes alike, and that
cancels; a faster program shrinks the work and not the probes, so it
shows.  The mean, because the work's time adds up the host's seconds
per step the way a mean does (the median tracked it worse).  In those
sets reference time spread at most 0.06 on ``solve`` and ``closure``
(perfbench/README.md).  Probes must sample
the work evenly in time: probes only between ``closure`` batches, seven
clusters a closure, left its figures noisier than wall time.

:class:`Sampler` probes the process doing the work (``solve``,
``closure``); :class:`ProcessSampler` probes from a process of its own,
for ``serve``, whose server keeps its own CPU busy.
"""

from __future__ import annotations

import bisect
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Set

#: Seconds the probe takes on the reference host, about what it took on
#: the VM the benchmark was sized on while the engine ran, so that
#: reference figures read close to wall figures there.
REFERENCE_PROBE_S = 0.0017

#: Loop steps of one probe.
PROBE_STEPS = 3000

#: Wall seconds between probes (the probes take about 2% of the time).
#: Many short probes follow the host better than fewer long ones.
INTERVAL_S = 0.1

#: A latency is scaled by the probes from this long before it to this
#: long after it, when there are at least ``LOCAL_PROBES`` of them
#: (about a second's worth), else by all the phase's: the host drifts
#: within a run too, and a percentile over latencies scaled by the whole
#: run's speed mixes its fast and slow spells.
WINDOW_PAD_S = 0.5
LOCAL_PROBES = 10

#: A probe slower than this many times the phase's median was stalled
#: (the host took the CPU away, or a page fault) and counts as that
#: many times the median: a probe samples a few percent of the time, so
#: one rare stall landing in it would weigh some thirty times its share.
OUTLIER = 5.0


def probe() -> float:
    """Run the fixed probe once; return the wall seconds it took.

    It allocates no object the cyclic garbage collector tracks, so a
    collection of the program's heap never lands in it.
    """
    started = time.perf_counter()
    acc = 0.0
    table: Dict[int, float] = {}
    for i in range(PROBE_STEPS):
        key = (i * 2654435761) % 4093
        acc += table.get(key, 0.0) * 0.5 + (key % 97) * 1e-3
        table[key] = acc % 1000.0
    return time.perf_counter() - started


class Probes:
    """Probes of one timed phase, and the reference factors they give."""

    #: Share of the probes dropped from each end before the mean.
    TRIM = 0.0

    def __init__(self) -> None:
        #: perf_counter() at the start of each probe, and its seconds.
        self.starts: List[float] = []
        self.samples: List[float] = []

    def _within(self, start: float, end: Optional[float]) -> List[float]:
        lo = bisect.bisect_left(self.starts, start)
        hi = len(self.starts) if end is None \
            else bisect.bisect_left(self.starts, end)
        return self.samples[lo:hi]

    def probe_s(self, start: float, end: Optional[float] = None) -> float:
        """Seconds of the probes that started in ``[start, end)``."""
        return sum(self._within(start, end))

    def factor(self, start: Optional[float] = None,
               end: Optional[float] = None) -> float:
        """Reference seconds per wall second over the sampled phase, or
        around ``[start, end)`` (see :data:`WINDOW_PAD_S`)."""
        samples = self.samples
        if start is not None:
            inside = self._within(
                start - WINDOW_PAD_S,
                None if end is None else end + WINDOW_PAD_S)
            if len(inside) >= LOCAL_PROBES:
                samples = inside
        cap = OUTLIER * statistics.median(self.samples)
        kept = sorted(min(sample, cap) for sample in samples)
        trim = int(len(kept) * self.TRIM)
        return REFERENCE_PROBE_S / statistics.fmean(
            kept[trim:len(kept) - trim])


class Sampler(Probes):
    """Probe the host every :data:`INTERVAL_S` while in a ``with`` block.

    The probes run in a ``SIGALRM`` handler, so in the main thread,
    between two bytecodes of whatever it is doing; this process must not
    use ``SIGALRM`` otherwise.
    """

    def __init__(self, enabled: bool = True) -> None:
        super().__init__()
        #: A disabled sampler probes once, at the end of the block.
        self.enabled = enabled
        self._previous: Any = None

    def __enter__(self) -> "Sampler":
        if self.enabled:
            self._previous = signal.signal(signal.SIGALRM, self._probe)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # disabled, or shorter than one interval
            self._probe()

    def _probe(self, *_: Any) -> None:
        self.starts.append(time.perf_counter())
        self.samples.append(probe())


class ProcessSampler(Probes):
    """Probe the host every :data:`INTERVAL_S` from a process of its own
    on ``cpus`` while in a ``with`` block, for work that runs in other
    processes on other CPUs.

    A probe that had to give up its CPU to another task (a context
    switch it did not ask for) is dropped; a stall by the host is no
    context switch, so a probe it lands in is kept.  Probes on a CPU
    that idles between them start cold, and their slow tail is mostly
    the CPU waking up, so the mean is taken over the middle half
    (:attr:`TRIM`).  Probe start times are ``perf_counter()`` values,
    which Linux keeps comparable across processes.
    """

    TRIM = 0.25

    def __init__(self, cpus: Optional[Set[int]]) -> None:
        super().__init__()
        self.cpus = cpus
        self._proc: Any = None

    def __enter__(self) -> "ProcessSampler":
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdout=subprocess.PIPE, text=True)
        if self.cpus:
            os.sched_setaffinity(self._proc.pid, self.cpus)
        return self

    def __exit__(self, *exc: Any) -> None:
        self._proc.terminate()
        try:
            out, _ = self._proc.communicate(timeout=30.0)
        finally:
            if self._proc.poll() is None:
                self._proc.kill()
                self._proc.wait()
        pairs = json.loads(out) if out else []
        if not pairs and exc[0] is None:
            raise RuntimeError(f"host-speed sampler exited "
                               f"{self._proc.returncode} without probes")
        self.starts = [start for start, _ in pairs]
        self.samples = [seconds for _, seconds in pairs]


def _involuntary_switches() -> int:
    return resource.getrusage(resource.RUSAGE_THREAD).ru_nivcsw


def _sampler_main() -> None:
    """The :class:`ProcessSampler` process: probe every
    :data:`INTERVAL_S` until SIGTERM, then print
    ``[[start, seconds], ...]`` as JSON."""
    stopped: List[bool] = []
    signal.signal(signal.SIGTERM, lambda *_: stopped.append(True))
    pairs = []
    due = time.perf_counter()
    while not stopped:
        due += INTERVAL_S
        time.sleep(max(0.0, due - time.perf_counter()))
        switches = _involuntary_switches()
        start = time.perf_counter()
        seconds = probe()
        if _involuntary_switches() == switches:
            pairs.append((start, seconds))
    json.dump(pairs, sys.stdout)


if __name__ == "__main__":
    _sampler_main()
