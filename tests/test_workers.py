"""ordered_map: item order, first failure in item order, dead workers, cleanup."""

import contextlib
import multiprocessing
import os
import signal
import time

import pytest

from bnt import workers
from bnt.workers import WorkerDied, ordered_map


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in this thread if the body runs longer than seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def slow_early(item):
    time.sleep(0.02 * (5 - item) if item < 5 else 0.0)  # early items finish last
    return item * item, os.getpid()


def test_results_come_in_item_order_from_several_processes():
    with deadline(60):
        results = list(ordered_map(slow_early, range(8), 2))
    assert [r[0] for r in results] == [i * i for i in range(8)]
    assert len({pid for _, pid in results} - {os.getpid()}) == 2
    assert multiprocessing.active_children() == []


def test_a_closure_reaches_the_workers_without_pickling():
    offset = {"value": 7}  # captured by a nested function, which cannot be pickled
    with deadline(60):
        assert list(ordered_map(lambda x: x + offset["value"], [1, 2, 3], 3)) == [8, 9, 10]
    assert multiprocessing.active_children() == []


def fail_at_three_and_five(item):
    if item == 3:
        time.sleep(0.2)  # item 5 fails first in time
        raise ValueError("item 3")
    if item == 5:
        raise KeyError("item 5")
    return item


def test_the_first_failure_in_item_order_is_raised_after_the_earlier_results():
    got = []
    with deadline(60), pytest.raises(ValueError, match="item 3"):
        for value in ordered_map(fail_at_three_and_five, range(8), 2):
            got.append(value)
    assert got == [0, 1, 2]
    assert multiprocessing.active_children() == []


def die_at_one(item):
    if item == 1:
        os._exit(1)
    return item


def test_a_worker_that_dies_raises_worker_died_without_hanging():
    got = []
    with deadline(60), pytest.raises(WorkerDied, match="worker process died"):
        for value in ordered_map(die_at_one, range(6), 2):
            got.append(value)
    assert got in ([], [0])  # item 0 may finish before the pool sees the death
    assert multiprocessing.active_children() == []


def test_closing_early_stops_running_workers():
    results = ordered_map(lambda x: time.sleep(5.0 if x else 0.0) or x, range(6), 2)
    with deadline(60):
        assert next(results) == 0
        started = time.monotonic()
        results.close()
    assert time.monotonic() - started < 2.5  # terminated, not waited for
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("items, jobs", [([1, 2, 3], 1), ([4], 8), ([], 2)])
def test_one_worker_or_one_item_runs_in_process(monkeypatch, items, jobs):
    def no_pool(*args):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(workers, "_fork_pool", no_pool)
    assert list(ordered_map(lambda x: (x, os.getpid()), items, jobs)) == [(x, os.getpid()) for x in items]
