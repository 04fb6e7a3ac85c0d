"""The fork map: results, errors, warnings and process hygiene of
``map_forked`` against the loop it stands for, on cheap functions."""

import os
import signal
import time
import warnings

import pytest

from cmkt.errors import TrainingError
from cmkt.parallel import map_forked

MULTI_CORE = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="map_forked forks workers only with two or more usable cores",
)


def one_core(monkeypatch):
    """From now on map_forked sees one usable core and forks no worker."""
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

    @pytest.mark.parametrize("action", ["default", "always", "module"])
    def test_warnings_match_the_loop(self, action):
        """Two workers that each show the same warning show it once under
        a once-per-location filter, as the loop does."""
        forked = shown_by(lambda: map_forked(warn_and_square, range(4)), action)
        loop = shown_by(lambda: [warn_and_square(x) for x in range(4)], action)
        assert forked == loop
        assert_no_children_left()

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
