"""Build and load the compiled deferred-curve loops (``_deferred.c``).

The deferred (``"numpy"``) kernel runs its join, buffer offer,
relocation and prune in one CPython extension module compiled from
``_deferred.c`` beside this file.  :func:`load` runs once, when
``repro`` is imported (``repro.curves`` imports the kernels):

* the artifact is named by a sha256 over the C source, the compiler
  flags and the interpreter's extension suffix, so a stale build can
  never load;
* it lives in ``__pycache__/`` beside the source, or in the user cache
  directory when that is not writable;
* a warm import is a hash, a stat and one ``dlopen``; a cold one builds
  with ``sysconfig``'s C compiler and include directory, under a lock
  file, into a temporary name that ``os.replace`` moves into place, so
  processes importing at once all load one complete file.  Nothing
  needs cleaning: a changed source, flag or interpreter is a new name.

A host without a C compiler or ``Python.h`` gets exactly one
:class:`RuntimeWarning` naming the failed command, :data:`deferred` is
None, and ``CurveConfig(backend="numpy")`` runs the ``"python"`` oracle
kernel — bit-identical and slower — as ``resolved_backend()`` reports.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.machinery
import importlib.util
import os
import subprocess
import tempfile
import warnings
from pathlib import Path
from types import ModuleType
from typing import Iterator, List, Optional, Sequence

SOURCE = Path(__file__).with_name("_deferred.c")

#: The loops must round exactly like Python's float arithmetic: no
#: fused multiply-add, and never ``-ffast-math``.
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: Seconds one compile may take before the build counts as failed.
BUILD_TIMEOUT_S = 300.0


class BuildError(RuntimeError):
    """The extension could not be built; the message names the command."""


def cache_dirs() -> List[Path]:
    """Where the artifact may live, in order of preference."""
    return [SOURCE.parent / "__pycache__",
            Path.home() / ".cache" / "repro"]


def artifact_name(source: bytes) -> str:
    """The artifact's file name: a digest of everything that shapes it.

    The suffix is the interpreter's first extension-module suffix, which
    is ``sysconfig``'s ``EXT_SUFFIX``, read without loading ``sysconfig``
    (a warm import never needs it).
    """
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    digest = hashlib.sha256(
        source + b"\0" + " ".join(FLAGS).encode() + b"\0"
        + suffix.encode()).hexdigest()
    return f"_deferred.{digest[:20]}{suffix}"


def load(compiler: Optional[str] = None,
         dirs: Optional[Sequence[Path]] = None) -> Optional[ModuleType]:
    """The compiled module, built first if no directory holds it.

    ``compiler`` overrides ``sysconfig``'s ``CC`` (split like a shell
    word list) and ``dirs`` the cache directories.  Returns None, after
    one :class:`RuntimeWarning`, when the module cannot be built or
    loaded.
    """
    dirs = cache_dirs() if dirs is None else [Path(d) for d in dirs]
    try:
        name = artifact_name(SOURCE.read_bytes())
        path = next((d / name for d in dirs if (d / name).is_file()), None)
        if path is None:
            path = _build(name, compiler, dirs)
        return _import(path)
    except (BuildError, ImportError, OSError) as exc:
        warnings.warn(
            f"the compiled curve kernel is unavailable ({exc}); "
            f"CurveConfig.backend 'numpy' runs the 'python' oracle "
            f"kernel instead: the same trees, slower", RuntimeWarning,
            stacklevel=2)
        return None


def _build(name: str, compiler: Optional[str],
           dirs: Sequence[Path]) -> Path:
    import shlex
    import sysconfig

    cc = shlex.split(compiler or sysconfig.get_config_var("CC") or "cc")
    include = sysconfig.get_paths()["include"]
    for directory in dirs:
        try:
            directory.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=".build-",
                                       suffix=".so")
        except OSError:
            continue  # not writable: try the next directory
        os.close(fd)
        try:
            with _locked(directory / f"{name}.lock"):
                target = directory / name
                if not target.is_file():  # nobody built it meanwhile
                    _compile([*cc, *FLAGS, f"-I{include}", str(SOURCE),
                              "-o", tmp, "-lm"])
                    os.chmod(tmp, 0o755)  # mkstemp made it owner-only
                    os.replace(tmp, target)
                return target
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
    raise BuildError(f"no writable cache directory among "
                     f"{[str(d) for d in dirs]}")


def _compile(command: List[str]) -> None:
    shown = " ".join(command)
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise BuildError(f"{shown!r} failed: {exc}") from exc
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise BuildError(f"{shown!r} exited {proc.returncode}: "
                         f"{' '.join(tail)}")


@contextlib.contextmanager
def _locked(path: Path) -> Iterator[None]:
    """Hold an exclusive lock file (where the platform has ``fcntl``)."""
    try:
        import fcntl
    except ImportError:  # pragma: no cover - no fcntl (Windows)
        yield
        return
    with open(path, "a") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)


def _import(path: Path) -> ModuleType:
    spec = importlib.util.spec_from_file_location(
        "repro.curves._deferred", path)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: The compiled loops, or None where they could not be built.
deferred: Optional[ModuleType] = load()
