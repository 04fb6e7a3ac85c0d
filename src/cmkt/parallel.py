"""Independent work side by side in forked workers, the only code in the
package that forks: :func:`map_forked` for a list of independent calls,
:func:`step_worker` for the second loss component of each training step.

Both run their workers the same way (one OpenBLAS thread, warnings kept
and replayed by the parent, length-prefixed pickles on a pipe, kill and
reap on every path), and both give what one process gives."""

from __future__ import annotations

import contextlib
import ctypes
import functools
import mmap
import os
import pickle
import signal
import struct
import sys
import warnings
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import ParseError, TrainingError
from .textio import read_text

# OpenBLAS's (get, set) thread-count functions under the names its builds
# export: numpy's bundled ILP64 build, a plain ILP64 build, a plain LP64 build
_BLAS_THREAD_FUNCTIONS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

# True in a forked worker, which already owns its core and forks no worker
_in_worker = False

# a message on a pipe: its length, then its pickle
_LENGTH = struct.Struct("<Q")


def _blas_threads():
    """OpenBLAS's ``(get, set)`` num-threads functions in this process, or
    None when no loaded library exports them."""
    try:
        maps = read_text("/proc/self/maps").splitlines()
    except (OSError, ParseError):
        return None
    # a mapped file's path is a line's last field ("(deleted)" when unlinked)
    paths = sorted({line.split()[-1] for line in maps if "openblas" in line.split()[-1].lower()})
    for path in paths:
        library = ctypes.CDLL(path)  # already loaded: the same handle
        for get_name, set_name in _BLAS_THREAD_FUNCTIONS:
            get, set_ = getattr(library, get_name, None), getattr(library, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def _worker_count(jobs: int) -> int:
    """How many workers ``jobs`` independent jobs get: one per usable core,
    at most one per job, and 1 (run in this process) inside a worker or
    where ``os.fork``/``os.sched_getaffinity`` are missing."""
    if _in_worker or not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(jobs, len(os.sched_getaffinity(0)))


def _send(fd: int, payload: bytes) -> None:
    data = memoryview(_LENGTH.pack(len(payload)) + payload)
    while data:
        data = data[os.write(fd, data):]


def _read(fd: int, size: int) -> Optional[bytes]:
    """Exactly ``size`` bytes, or None when the pipe ends first."""
    chunks, left = [], size
    while left:
        chunk = os.read(fd, min(left, 1 << 16))
        if not chunk:
            return None
        chunks.append(chunk)
        left -= len(chunk)
    return b"".join(chunks)


def _receive(fd: int):
    """The next message's object, or None when the sender is gone."""
    header = _read(fd, _LENGTH.size)
    payload = header and _read(fd, _LENGTH.unpack(header)[0])
    return None if payload is None else pickle.loads(payload)


def _call(fn: Callable, arg) -> tuple:
    """The report ``(result, error or None, warnings shown)`` of
    ``fn(arg)``. Warnings pass this process's filters and registry as usual
    but are kept instead of shown; replacing showwarning, unlike
    catch_warnings, keeps the record of what was shown before."""
    shown = []
    previous = warnings.showwarning
    warnings.showwarning = lambda message, category, filename, lineno, *_: shown.append(
        (message, category, filename, lineno))
    try:
        return fn(arg), None, shown
    except Exception as exc:  # the parent raises it
        return None, exc, shown
    finally:
        warnings.showwarning = previous


def _reply(fd: int, report: tuple, what: str) -> None:
    """Pipes a worker's report back to the parent. A result or error that
    does not pickle becomes a TrainingError naming ``what`` and the cause,
    so the parent does not take the worker for dead."""
    try:
        payload = pickle.dumps(report)
    except Exception as exc:
        sent = "error" if report[1] is not None else "result"
        payload = pickle.dumps((None, TrainingError(
            f"{what}: the worker cannot send its {sent} back: {type(exc).__name__}: {exc}"), []))
    _send(fd, payload)


def _fork(work: Callable[[], None], set_blas_threads, close: Sequence[int] = ()) -> int:
    """Forks a worker that closes the parent's ends of its pipes, pins
    OpenBLAS to one thread (at this package's shapes a second one only
    spins), runs ``work`` and exits, never returning into the caller's
    stack; returns its pid."""
    pid = os.fork()
    if pid:
        return pid
    global _in_worker
    code = 1
    try:
        _in_worker = True
        for fd in close:
            os.close(fd)
        set_blas_threads(1)
        work()
        code = 0
    finally:
        os._exit(code)


def _reap(pid: int, running: list, complete: bool = True) -> None:
    """Waits for ``pid``; a worker that failed, or ended before sending all
    it owed, is a TrainingError."""
    _, status = os.waitpid(pid, 0)
    running.remove(pid)
    if status or not complete:
        raise TrainingError(
            f"worker {pid} ended with exit status "
            f"{os.waitstatus_to_exitcode(status)} before sending its results"
        )


def _kill(running: list) -> None:
    for pid in running:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    running.clear()


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


def _show(*warning) -> None:
    """Shows a warning that already passed this process's filters."""
    warnings.showwarning(*warning)


def _replay(report: tuple, show: Callable = _warn_again):
    """What the report's call did, done again: show its warnings, then
    raise its error or return its result."""
    result, error, shown = report
    for warning in shown:
        show(*warning)
    if error is not None:
        raise error
    return result


def _serve_items(write_fd: int, fn: Callable, items: Sequence, first: int, stride: int) -> None:
    """A map worker's loop: items ``first, first + stride, ...`` until one
    fails, each one's report piped back."""
    for index in range(first, len(items), stride):
        report = _call(fn, items[index])
        _reply(write_fd, report, f"item {index}")
        if report[1] is not None:
            break


def map_forked(fn: Callable, items: Sequence) -> list:
    """``[fn(item) for item in items]`` for independent calls, computed in
    forked workers, one per usable core and at most one per item.

    Worker ``w`` calls ``fn`` on items ``w, w + workers, ...`` and pipes
    back the results, which must pickle (one that does not is a
    :class:`TrainingError` naming its item). The parent then replays the loop:
    item by item it shows the call's warnings under the originating
    module's registry, and it raises the first failing item's error. A
    worker that dies without sending its results is a
    :class:`TrainingError`; on every path, interrupts included, all workers
    are killed and reaped. The parent runs the loop itself when there is one
    item, one usable core, no ``os.fork``/``os.sched_getaffinity``, no
    OpenBLAS thread setter, or when it is itself a worker."""
    items = list(items)
    workers = _worker_count(len(items))
    blas = _blas_threads() if workers > 1 else None
    if blas is None:
        return [fn(item) for item in items]

    reports = [None] * len(items)
    running, pipes = [], []  # pids, then the read end of each one's pipe
    try:
        for first in range(workers):
            pipes += os.pipe()
            running.append(_fork(functools.partial(
                _serve_items, pipes[-1], fn, items, first, workers), blas[1], [pipes[-2]]))
            os.close(pipes.pop())  # the write end is the worker's alone
        for first, (pid, read_fd) in enumerate(zip(list(running), pipes)):
            index = first
            while (report := _receive(read_fd)) is not None:
                reports[index] = report
                index += workers
            _reap(pid, running)
    finally:
        _kill(running)
        for read_fd in pipes:
            os.close(read_fd)

    # a worker stops at its first error, so every item up to the first
    # failing one has a report
    return [_replay(report) for report in reports]


def _share(params: Sequence[dict]) -> None:
    """Moves every array of the dicts ``params`` into one shared anonymous
    mapping, bit for bit, so a worker forked afterwards reads what the
    parent writes in place."""
    arrays = [(d, name, value) for d in params for name, value in d.items()]
    offsets, size = [], 0
    for _, _, value in arrays:
        offsets.append(size)
        size += -(-value.nbytes // 64) * 64  # each array on a cache line
    mapping = mmap.mmap(-1, max(size, 1))
    for (d, name, value), offset in zip(arrays, offsets):
        shared = np.frombuffer(mapping, value.dtype, value.size, offset).reshape(value.shape)
        shared[...] = value
        d[name] = shared


def _serve_steps(read_fd: int, write_fd: int, fn: Callable) -> None:
    """The step worker's life: each request ``(what, arg)`` answered with
    the report of ``fn(arg)``, until the parent closes the pipe."""
    while (request := _receive(read_fd)) is not None:
        what, arg = request
        _reply(write_fd, _call(fn, arg), what)


@contextlib.contextmanager
def step_worker(fn: Callable, params: Sequence[dict]) -> Iterator[Optional[Callable]]:
    """A persistent forked worker that computes ``fn`` for the loop inside
    the block, over the parameter dicts ``params`` that the parent updates
    in place. The worker is a copy of the parent at the fork, process-wide
    settings such as glibc's malloc thresholds included.

    Yields ``side_by_side(mine, theirs, what)``, which sends ``theirs`` to
    the worker, computes ``fn(mine)`` in this process meanwhile, and then
    returns two thunks, the first for ``mine`` and the second for
    ``theirs``. Calling a thunk replays its call as one process would have
    made it: it shows the call's warnings, then raises the call's error or
    returns its result, which must pickle. ``what`` names the worker's call
    in an error. A worker that dies is a :class:`TrainingError`.

    For the block, the arrays of ``params`` live in one shared mapping and
    both processes run one OpenBLAS thread; on the way out the worker is
    killed and reaped, the arrays are copied back into private memory
    (the mapping goes with its last view) and the thread count is
    restored. Yields None, and changes nothing, where fewer than 2 usable
    cores, no ``os.fork`` or no OpenBLAS thread setter leave no room for a
    worker, and inside a worker, which already owns its core."""
    blas = _blas_threads() if _worker_count(2) > 1 else None
    if blas is None:
        yield None
        return
    get_blas_threads, set_blas_threads = blas
    threads = get_blas_threads()
    running, fds = [], []
    try:
        set_blas_threads(1)
        _share(params)
        request_read, request_write = os.pipe()
        reply_read, reply_write = os.pipe()
        fds += request_write, reply_read  # the parent's ends
        try:
            running.append(_fork(functools.partial(
                _serve_steps, request_read, reply_write, fn), set_blas_threads, fds))
        finally:
            # the worker's ends are the worker's alone, so its death ends both pipes
            os.close(request_read)
            os.close(reply_write)
        pid = running[0]

        def side_by_side(mine, theirs, what: str) -> tuple[Callable, Callable]:
            try:
                _send(request_write, pickle.dumps((what, theirs)))
            except BrokenPipeError:
                _reap(pid, running, complete=False)
            own = _call(fn, mine)
            report = _receive(reply_read)
            if report is None:
                _reap(pid, running, complete=False)
            return functools.partial(_replay, own, _show), functools.partial(_replay, report)

        yield side_by_side
    finally:
        _kill(running)
        for fd in fds:
            os.close(fd)
        for d in params:
            for name, value in d.items():
                d[name] = value.copy()
        set_blas_threads(threads)
