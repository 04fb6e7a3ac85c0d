"""The fork map and the step worker: results, errors, warnings, shared
parameters and process hygiene of ``map_forked`` and ``step_worker``
against the code they stand for, on cheap functions; and the one-thread
OpenBLAS pin that every process and worker runs under."""

import ctypes
import os
import signal
import time
import warnings

import numpy as np
import pytest

from cmkt import parallel
from cmkt.errors import TrainingError
from cmkt.parallel import map_forked, pin_blas_threads, step_worker

MULTI_CORE = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="the package forks workers only with two or more usable cores",
)


def one_core(monkeypatch):
    """From now on the package sees one usable core and forks no worker."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def assert_no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def shown_by(call, action):
    """(text, category, line) of each warning ``call`` shows under one
    filter action."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        call()
    return [(str(w.message), w.category, w.lineno) for w in caught]


def warn_and_square(x):
    warnings.warn("same text from the same line")
    warnings.warn(f"item {x}", RuntimeWarning)
    return x * x


def fail_at_one_and_two(x):
    warnings.warn(f"item {x}")
    if x == 1:
        time.sleep(0.2)  # the other worker fails first
    if x in (1, 2):
        raise ValueError(f"item {x} failed")
    return x


class TestBlasPin:
    def test_pin_leaves_one_thread_and_is_idempotent(self, blas_threads):
        assert pin_blas_threads() == 1
        assert pin_blas_threads() == 1
        assert blas_threads() == 1

    def test_lookup_is_kept(self, monkeypatch):
        found = parallel._blas_threads()
        monkeypatch.setattr(ctypes, "CDLL", lambda path: pytest.fail("looked up again"))
        assert parallel._blas_threads() is found

    def test_library_that_cannot_be_opened_is_no_setter(self, monkeypatch):
        def cannot_open(path):
            raise OSError(f"{path}: cannot open shared object file")

        monkeypatch.setattr(parallel, "_blas", None)
        monkeypatch.setattr(ctypes, "CDLL", cannot_open)
        assert parallel._blas_threads() is None
        assert pin_blas_threads() is None


class TestInParent:
    def test_one_item_runs_in_the_parent(self):
        assert map_forked(lambda x: (x, os.getpid()), [5]) == [(5, os.getpid())]

    def test_no_items(self):
        assert map_forked(lambda x: x, []) == []

    def test_one_core_runs_in_the_parent(self, monkeypatch):
        one_core(monkeypatch)
        assert map_forked(lambda x: (x, os.getpid()), range(3)) == [
            (x, os.getpid()) for x in range(3)]


@MULTI_CORE
class TestMapForked:
    def test_results_in_item_order_from_workers(self):
        out = map_forked(lambda x: (x * x, os.getpid()), range(7))
        assert [square for square, _ in out] == [x * x for x in range(7)]
        assert {pid for _, pid in out} - {os.getpid()}, "no item ran in a worker"
        assert_no_children_left()

    def test_first_error_in_item_order(self):
        """Item 2 (worker 0) fails before item 1 (worker 1); the parent
        raises item 1's error, after the warnings of items 0 and 1 only,
        as the loop does."""
        def outcome(run):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(ValueError) as info:
                    run()
            return str(info.value), [str(w.message) for w in caught]

        expected = ("item 1 failed", ["item 0", "item 1"])
        assert outcome(lambda: [fail_at_one_and_two(x) for x in range(4)]) == expected
        assert outcome(lambda: map_forked(fail_at_one_and_two, range(4))) == expected
        assert_no_children_left()

    def test_first_error_is_raised_without_waiting_for_later_items(self):
        """Item 1 fails at once while every other item takes a second: the
        error leaves as soon as item 0 is answered, not after either
        worker's later items."""
        def slow_but_one(x):
            if x == 1:
                raise ValueError("item 1 failed")
            time.sleep(1.0)
            return x

        started = time.monotonic()
        with pytest.raises(ValueError, match="item 1 failed"):
            map_forked(slow_but_one, range(6))
        assert time.monotonic() - started < 2.0
        assert_no_children_left()

    def test_many_large_results_in_item_order(self):
        """4,000 results of 1 KB, and as many requests, far more than a
        64 KB pipe holds, come back in item order: the parent keeps at most
        two calls queued on each worker and reads in item order, so neither
        side blocks on a full pipe that the other never reads."""
        def deadlocked(signum, frame):
            raise TimeoutError("map_forked is stuck")

        previous = signal.signal(signal.SIGALRM, deadlocked)
        signal.alarm(30)
        try:
            out = map_forked(lambda x: bytes([x % 256]) * 1024, range(4000))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert out == [bytes([x % 256]) * 1024 for x in range(4000)]
        assert_no_children_left()

    @pytest.mark.parametrize("action", ["default", "always", "module"])
    def test_warnings_match_the_loop(self, action):
        """Two workers that each show the same warning show it once under
        a once-per-location filter, as the loop does."""
        forked = shown_by(lambda: map_forked(warn_and_square, range(4)), action)
        loop = shown_by(lambda: [warn_and_square(x) for x in range(4)], action)
        assert forked == loop
        assert_no_children_left()

    def test_workers_and_parent_run_one_blas_thread(self, blas_threads):
        out = map_forked(lambda x: (blas_threads(), os.getpid()), range(4))
        assert {pid for _, pid in out} - {os.getpid()}, "no item ran in a worker"
        assert [threads for threads, _ in out] == [1] * 4
        assert blas_threads() == 1

    def test_dead_worker_raises(self):
        parent = os.getpid()

        def dying(x):
            if os.getpid() != parent:
                os._exit(7)
            return x

        with pytest.raises(TrainingError, match="worker .* exit status 7 before sending"):
            map_forked(dying, range(3))
        assert_no_children_left()

    def test_interrupt_kills_and_reaps_workers(self):
        """Ctrl-C while the parent waits: both workers, one of them still
        running its item, are killed and reaped before KeyboardInterrupt
        leaves the call."""
        parent = os.getpid()

        def stuck(x):
            if x == 1:
                time.sleep(0.2)
                os.kill(parent, signal.SIGINT)
            time.sleep(60)

        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            started = time.monotonic()
            with pytest.raises(KeyboardInterrupt):
                map_forked(stuck, range(2))
        finally:
            signal.signal(signal.SIGINT, previous)
        assert time.monotonic() - started < 30
        assert_no_children_left()

    def test_unpicklable_result_names_the_item(self):
        """A result that cannot be pickled is reported as what it is, not
        as a dead worker."""
        with pytest.raises(TrainingError, match="item 0: the worker cannot send its result "
                                                "back: .*pickle"):
            map_forked(lambda x: (lambda: x), range(2))
        assert_no_children_left()

    def test_unpicklable_error_names_the_item(self):
        def fail(x):
            raise ValueError(lambda: x)

        with pytest.raises(TrainingError, match="item 0: the worker cannot send its error back"):
            map_forked(fail, range(2))
        assert_no_children_left()


def open_step_worker(params, fn=None):
    """A step worker whose ``fn`` returns, by default, the sum of the
    parameter ``w`` it reads, the process that read it and its argument."""
    fn = fn or (lambda arg: (float(params["w"].sum()), os.getpid(), arg))
    return step_worker(fn, [params])


class TestStepWorkerInParent:
    def test_one_core_yields_none_and_shares_nothing(self, monkeypatch):
        one_core(monkeypatch)
        params = {"w": np.ones(3)}
        w = params["w"]
        with open_step_worker(params) as side_by_side:
            assert side_by_side is None
        assert params["w"] is w

    def test_inside_a_map_worker_yields_none(self):
        def opened(_):
            with open_step_worker({"w": np.ones(3)}) as side_by_side:
                return side_by_side is None

        assert map_forked(opened, range(2)) == [True, True]
        assert_no_children_left()


@MULTI_CORE
class TestStepWorker:
    def test_worker_reads_what_the_parent_writes_in_place(self):
        params = {"w": np.arange(4.0), "b": np.zeros(2)}
        with open_step_worker(params) as side_by_side:
            for step in range(50):
                mine, theirs = side_by_side("a", "b", f"step {step}")
                (own_sum, own_pid, a), (their_sum, their_pid, b) = mine(), theirs()
                assert (a, b) == ("a", "b")
                assert own_pid == os.getpid() != their_pid
                assert own_sum == their_sum == 6.0 + 4 * step
                params["w"] += 1.0  # what SGD does
        assert params["w"].tolist() == [50.0, 51.0, 52.0, 53.0]
        assert all(value.flags.owndata for value in params.values())
        assert_no_children_left()

    def test_shared_mapping_is_released(self):
        def shared_maps():
            return sum("/dev/zero" in line for line in open("/proc/self/maps"))

        before = shared_maps()
        params = {"w": np.ones(1000)}
        with open_step_worker(params):
            assert shared_maps() == before + 1
        assert shared_maps() == before

    def test_parent_stays_at_one_blas_thread(self, blas_threads):
        """The pin is process-wide and never undone: the worker inherits it,
        and the parent keeps it after the block."""
        with open_step_worker({"w": np.ones(1)}, lambda arg: blas_threads()) as side_by_side:
            assert blas_threads() == 1
            mine, theirs = side_by_side(None, None, "step 0")
            assert mine() == theirs() == 1
        assert blas_threads() == 1

    def test_errors_and_warnings_replay_in_thunk_order(self):
        def fn(arg):
            warnings.warn(f"warned by {arg}")
            if arg != "fine":
                raise ValueError(f"{arg} failed")
            return arg

        with open_step_worker({"w": np.ones(1)}, fn) as side_by_side:
            for mine_arg, theirs_arg in (("fine", "worker"), ("parent", "fine")):
                mine, theirs = side_by_side(mine_arg, theirs_arg, "step 0")
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    outcomes = []
                    for thunk in (mine, theirs):
                        try:
                            outcomes.append(thunk())
                        except ValueError as exc:
                            outcomes.append(str(exc))
                assert outcomes == [mine_arg if mine_arg == "fine" else "parent failed",
                                    theirs_arg if theirs_arg == "fine" else "worker failed"]
                assert [str(w.message) for w in caught] == [f"warned by {mine_arg}",
                                                            f"warned by {theirs_arg}"]
        assert_no_children_left()

    def test_unpicklable_result_names_the_call(self):
        with open_step_worker({"w": np.ones(1)}, lambda arg: (lambda: arg)) as side_by_side:
            _, theirs = side_by_side(1, 2, "component b at step 4")
            with pytest.raises(TrainingError, match="component b at step 4: the worker "
                                                    "cannot send its result back"):
                theirs()
        assert_no_children_left()

    def test_dead_worker_raises(self):
        parent = os.getpid()

        def dying(arg):
            if os.getpid() != parent:
                os._exit(3)
            return arg

        with pytest.raises(TrainingError, match="worker .* exit status 3 before sending"):
            with open_step_worker({"w": np.ones(1)}, dying) as side_by_side:
                side_by_side(1, 2, "step 0")
        assert_no_children_left()

    def test_interrupt_kills_and_reaps_the_worker(self):
        parent = os.getpid()

        def stuck(arg):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)

        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            with open_step_worker({"w": np.ones(1)}, stuck) as side_by_side:
                side_by_side(1, 2, "step 0")
        assert time.monotonic() - started < 30
        assert_no_children_left()
