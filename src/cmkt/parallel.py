"""Independent work side by side in forked workers, the only code in the
package that forks: :func:`map_forked` for a list of independent calls,
:func:`step_worker` for the second loss component of each training step.

Every cmkt process runs OpenBLAS on one thread (:func:`pin_blas_threads`,
which the CLI, the training loop and both of these call), so the cores go
to forked workers. Both run on one worker lifecycle, :func:`_workers`
(requests answered in order, length-prefixed pickles on pipes, warnings
kept for the parent to replay, kill and reap on every path), and both
give what one process gives."""

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

# OpenBLAS's (get, set) pair once found: the loaded library does not change
# within a process
_blas = None

# a message on a pipe: its length, then its pickle
_LENGTH = struct.Struct("<Q")


def _blas_threads():
    """OpenBLAS's ``(get, set)`` num-threads functions in this process, or
    None when no loaded library that can be opened exports them."""
    global _blas
    if _blas is not None:
        return _blas
    try:
        maps = read_text("/proc/self/maps").splitlines()
    except (OSError, ParseError):
        return None
    # a mapped file's path is a line's last field ("(deleted)" when unlinked)
    paths = sorted({line.split()[-1] for line in maps if "openblas" in line.split()[-1].lower()})
    for path in paths:
        try:
            library = ctypes.CDLL(path)  # already loaded: the same handle
        except OSError:
            continue
        for get_name, set_name in _BLAS_THREAD_FUNCTIONS:
            get, set_ = getattr(library, get_name, None), getattr(library, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                _blas = get, set_
                return _blas
    return None


def pin_blas_threads() -> Optional[int]:
    """Runs OpenBLAS on one thread for the rest of the process (like the
    training loop's malloc thresholds, the setting is never undone) and
    returns the count it then reports, or None where no thread setter is
    found. Forked workers inherit the pin. At dim 32 a second thread only
    spins and holds a GEMM buffer of its own."""
    blas = _blas_threads()
    if blas is None:
        return None
    blas[1](1)
    return blas[0]()


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


def _serve(read_fd: int, write_fd: int, fn: Callable) -> None:
    """A worker's life: each request ``(what, arg)`` answered with the
    report of ``fn(arg)``, until the parent closes the pipe."""
    while (request := _receive(read_fd)) is not None:
        what, arg = request
        _reply(write_fd, _call(fn, arg), what)


@contextlib.contextmanager
def _workers(fn: Callable, count: int) -> Iterator[tuple[Callable, Callable]]:
    """Forks ``count`` workers that each :func:`_serve` ``fn``, and yields
    ``(ask, answer)``: ``ask(w, what, arg)`` queues the call ``fn(arg)``
    on worker ``w``, and ``answer(w)`` is the report of that worker's
    oldest unanswered call. A worker that dies is a TrainingError; on
    every path, interrupts included, the workers are killed and reaped.
    Each worker inherits the parent's OpenBLAS thread count, which the
    caller pins to one first."""
    global _in_worker
    running, requests, replies = [], [], []  # each worker's pid and the parent's pipe ends
    try:
        for _ in range(count):
            request_read, request_write = os.pipe()
            requests.append(request_write)
            reply_read, reply_write = os.pipe()
            replies.append(reply_read)
            try:
                pid = os.fork()
                if pid == 0:  # the worker, which never returns into the caller's stack
                    try:
                        _in_worker = True
                        for fd in requests + replies:
                            os.close(fd)
                        _serve(request_read, reply_write, fn)
                        os._exit(0)
                    finally:
                        os._exit(1)
                running.append(pid)
            finally:
                # the worker's ends are the worker's alone, so its death ends both pipes
                os.close(request_read)
                os.close(reply_write)

        def dead(w: int):
            pid = running[w]
            _, status = os.waitpid(pid, 0)
            running[w] = None
            raise TrainingError(f"worker {pid} ended with exit status "
                                f"{os.waitstatus_to_exitcode(status)} before sending its results")

        def ask(w: int, what: str, arg) -> None:
            try:
                _send(requests[w], pickle.dumps((what, arg)))
            except BrokenPipeError:
                dead(w)

        def answer(w: int) -> tuple:
            return _receive(replies[w]) or dead(w)  # a report is a non-empty tuple

        yield ask, answer
    finally:
        for pid in running:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for fd in requests + replies:
            os.close(fd)


def map_forked(fn: Callable, items: Sequence) -> list:
    """``[fn(item) for item in items]`` for independent calls, computed in
    forked workers, one per usable core and at most one per item.

    Item ``i`` goes to worker ``i % workers``, which reads it from its
    forked copy of ``items`` and pipes back the result, which must pickle
    (one that does not is a :class:`TrainingError` naming its item). A
    worker has at most two items queued, one running and one waiting, so
    it does not idle and neither pipe fills. The parent takes the answers
    in item order and replays the loop: it shows each call's warnings
    under the originating module's registry, and it raises the first
    failing item's error as soon as that item is answered. A worker that
    dies is a :class:`TrainingError`. The parent runs the loop itself when
    there is one item, one usable core, no ``os.fork``/
    ``os.sched_getaffinity``, no OpenBLAS thread setter, or when it is
    itself a worker. Each worker runs the one OpenBLAS thread the parent
    pins before forking."""
    items = list(items)
    workers = _worker_count(len(items))
    if workers == 1 or pin_blas_threads() is None:
        return [fn(item) for item in items]

    results = []
    with _workers(lambda index: fn(items[index]), workers) as (ask, answer):
        def ask_item(index: int) -> None:
            if index < len(items):
                ask(index % workers, f"item {index}", index)

        for index in range(2 * workers):
            ask_item(index)
        for index in range(len(items)):
            report = answer(index % workers)
            ask_item(index + 2 * workers)  # the next item of this worker's stride
            results.append(_replay(report))
    return results


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

    For the block, the arrays of ``params`` live in one shared mapping, and
    the worker inherits the one OpenBLAS thread the parent pins before
    forking; on the way out the worker is killed and reaped and the arrays
    are copied back into private memory (the mapping goes with its last
    view). Yields None, and shares nothing, where fewer than 2 usable
    cores, no ``os.fork`` or no OpenBLAS thread setter leave no room for a
    worker, and inside a worker, which already owns its core."""
    if _worker_count(2) == 1 or pin_blas_threads() is None:
        yield None
        return
    try:
        _share(params)
        with _workers(fn, 1) as (ask, answer):
            def side_by_side(mine, theirs, what: str) -> tuple[Callable, Callable]:
                ask(0, what, theirs)
                own = _call(fn, mine)
                return functools.partial(_replay, own, _show), functools.partial(_replay, answer(0))

            yield side_by_side
    finally:
        for d in params:
            for name, value in d.items():
                d[name] = value.copy()
