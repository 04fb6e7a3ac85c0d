"""Independent calls side by side in forked workers: :func:`map_forked`, the
only code in the package that forks."""

from __future__ import annotations

import ctypes
import os
import pickle
import signal
import sys
import warnings
from typing import Callable, Sequence

from .errors import ParseError, TrainingError
from .textio import read_text

# OpenBLAS's thread-count setter under the names its builds export: numpy's
# bundled ILP64 build, a plain ILP64 build, a plain LP64 build
_BLAS_THREAD_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _blas_thread_setter():
    """OpenBLAS's set-num-threads function in this process, or None when no
    loaded library exports one."""
    try:
        maps = read_text("/proc/self/maps").splitlines()
    except (OSError, ParseError):
        return None
    # a mapped file's path is a line's last field ("(deleted)" when unlinked)
    paths = sorted({line.split()[-1] for line in maps if "openblas" in line.split()[-1].lower()})
    for path in paths:
        library = ctypes.CDLL(path)  # already loaded: the same handle
        for name in _BLAS_THREAD_SETTERS:
            setter = getattr(library, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return setter
    return None


def _worker(write_fd: int, set_blas_threads, fn: Callable, items: Sequence) -> None:
    """A forked worker's whole life, never returning into the caller's stack:
    one OpenBLAS thread, ``fn`` on each item until one raises, and per item
    (the result, the error or None, the warnings shown) piped back."""
    code = 1
    try:
        set_blas_threads(1)
        shown = []
        # replacing showwarning, unlike catch_warnings, keeps the inherited
        # record of what was shown; a warning goes to the current ``shown``
        warnings.showwarning = lambda message, category, filename, lineno, *_: shown.append(
            (message, category, filename, lineno))
        reports = []
        for item in items:
            shown, result, error = [], None, None
            try:
                result = fn(item)
            except Exception as exc:  # the parent raises it
                error = exc
            reports.append((result, error, shown))
            if error is not None:
                break
        payload = memoryview(pickle.dumps(reports))
        while payload:
            payload = payload[os.write(write_fd, payload):]
        code = 0
    finally:
        os._exit(code)


def _warn_again(message, category, filename: str, lineno: int) -> None:
    """Shows a worker's warning under the name and registry of the module it
    came from, so a filter that shows a warning once per location drops a
    repeat, as it does in one process."""
    for module in list(sys.modules.values()):
        if getattr(module, "__file__", None) == filename:
            registry = vars(module).setdefault("__warningregistry__", {})
            warnings.warn_explicit(message, category, filename, lineno, module.__name__,
                                   registry)
            return
    warnings.warn_explicit(message, category, filename, lineno)


def map_forked(fn: Callable, items: Sequence) -> list:
    """``[fn(item) for item in items]`` for independent calls, computed in
    forked workers, one per usable core and at most one per item.

    Worker ``w`` calls ``fn`` on items ``w, w + workers, ...`` with OpenBLAS
    pinned to one thread (at this package's shapes a second one only spins)
    and pipes back the results, which must pickle. The parent then replays
    the loop: item by item it shows the call's warnings under the
    originating module's registry, and it raises the first failing item's
    error. A worker that dies without sending its results is a
    :class:`TrainingError`; on every path, interrupts included, all workers
    are killed and reaped. The parent runs the loop itself when there is one
    item, one usable core, no ``os.fork``/``os.sched_getaffinity`` or no
    OpenBLAS thread setter."""
    items = list(items)
    workers = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        workers = min(len(items), len(os.sched_getaffinity(0)))
    set_blas_threads = _blas_thread_setter() if workers > 1 else None
    if set_blas_threads is None:
        return [fn(item) for item in items]

    reports = [None] * len(items)
    running, pipes = [], []  # pids, then the read end of each one's pipe
    try:
        for first in range(workers):
            pipes += os.pipe()
            pid = os.fork()
            if pid == 0:
                _worker(pipes[-1], set_blas_threads, fn, items[first::workers])
            running.append(pid)
            os.close(pipes.pop())  # the write end is the worker's alone
        for first, (pid, read_fd) in enumerate(zip(list(running), pipes)):
            payload = b"".join(iter(lambda: os.read(read_fd, 1 << 16), b""))
            _, status = os.waitpid(pid, 0)
            running.remove(pid)
            if status or not payload:
                raise TrainingError(
                    f"worker {pid} ended with exit status "
                    f"{os.waitstatus_to_exitcode(status)} before sending its results"
                )
            for k, report in enumerate(pickle.loads(payload)):
                reports[first + k * workers] = report
    finally:
        for pid in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for read_fd in pipes:
            os.close(read_fd)

    # a worker stops at its first error, so every item up to the first
    # failing one has a report
    results = []
    for result, error, shown in reports:
        for warning in shown:
            _warn_again(*warning)
        if error is not None:
            raise error
        results.append(result)
    return results
