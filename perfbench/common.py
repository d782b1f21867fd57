"""Process plumbing shared by the driver and its worker processes."""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

#: Prefix of the one-line JSON messages workers print on stdout.
MARK = "@@perfbench "
#: Fresh program starts per run; ``setup_s`` is their median.
SETUP_SPAWNS = 5


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program source, bad child...)."""


def program_env() -> Dict[str, str]:
    """Environment for processes that run the program: its ``src`` on
    the path, unbuffered output, and no fault plan inherited."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    env.pop("MERLIN_FAULTS", None)
    return env


def import_program() -> Any:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise BenchError(f"imported repro from {repro.__file__}, "
                         f"not from {SRC}")
    return repro


def emit(event: str, **fields: Any) -> None:
    """Worker side: one message to the driver."""
    sys.stdout.write(MARK + json.dumps({"event": event, **fields}) + "\n")
    sys.stdout.flush()


def peak_rss_mb_self() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_pid(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


class Drain(threading.Thread):
    """Read a child's pipe to the end in the background, so the child
    never blocks on a full pipe; keeps the tail for error messages."""

    def __init__(self, stream: Any) -> None:
        super().__init__(daemon=True)
        self.stream = stream
        self.text = ""
        self.start()

    def run(self) -> None:
        try:
            for line in self.stream:
                self.text = (self.text + line)[-4000:]
        except (OSError, ValueError):
            pass  # the pipe was closed under us once the child ended


def run_worker(args: List[str], timeout_s: float
               ) -> Tuple[float, Dict[str, Any]]:
    """Run ``worker.py args`` to the end; return (seconds from spawn to
    its ``ready`` message, its ``result`` message).  The worker is
    killed once ``timeout_s`` has passed."""
    ready: Optional[float] = None
    result: Dict[str, Any] = {}
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=str(ROOT), env=program_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    errors = Drain(proc.stderr)
    watchdog = threading.Timer(timeout_s, proc.kill)
    watchdog.start()
    try:
        assert proc.stdout is not None
        for line in proc.stdout:
            if not line.startswith(MARK):
                continue
            message = json.loads(line[len(MARK):])
            if message["event"] == "ready":
                ready = time.perf_counter() - started
            elif message["event"] == "result":
                result = message
        proc.wait()
        errors.join()
    finally:
        watchdog.cancel()
        stop(proc)
    if proc.returncode != 0 or ready is None:
        raise BenchError(f"worker {args} exited {proc.returncode}: "
                         f"{errors.text}")
    return ready, result


def stop(proc: "subprocess.Popen[Any]", grace_s: float = 10.0) -> None:
    """Terminate ``proc`` if it still runs and wait until it has ended."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for stream in (proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()
