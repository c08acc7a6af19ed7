"""Independent jobs on several cores, results in item order.

``ordered_map(fn, items, jobs)`` yields ``fn(item)`` for each item, in
item order, from at most ``min(jobs, len(items))`` worker processes.  With
one worker or one item it calls ``fn`` in this process and imports neither
``multiprocessing`` nor ``concurrent.futures``.

Workers are forked, so ``fn`` and ``items`` reach them as memory, not as
pickles: closures work, and so do functions a profiler has wrapped.  Only
item indices, results and exceptions cross a pipe.  bnt starts no threads
of its own, so no Python lock is held across the fork.  Each worker
inherits the parent's BLAS thread setting and ignores SIGINT, so Ctrl-C
reaches the parent alone, which stops the pool.
"""

from __future__ import annotations

import os
import signal
import sys

_job = None  # (fn, items), set in each forked worker by _start_worker


class WorkerDied(RuntimeError):
    """A worker process ended without returning its result (killed, or out of memory)."""


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _start_worker(fn, items) -> None:
    global _job
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _job = (fn, items)


def _call(index: int):
    fn, items = _job
    return fn(items[index])


def _fork_pool(workers: int, fn, items):
    """A process pool of `workers` forked workers that see fn and items."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # A forked worker flushes the stdio buffers it inherited when it exits.
    sys.stdout.flush()
    sys.stderr.flush()
    return ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_start_worker, initargs=(fn, items))


def ordered_map(fn, items, jobs: int):
    """Yield fn(item) for each of items, in order, from up to `jobs` processes.

    An exception from item i is raised when iteration reaches i, after the
    results of items 0..i-1; a worker that dies raises WorkerDied.  When the
    generator ends, fails or is closed early, no worker is left running: on
    failure or early close the workers are terminated and items not yet
    started are cancelled.
    """
    items = list(items)
    workers = min(jobs, len(items))
    if workers <= 1:
        yield from map(fn, items)
        return
    from concurrent.futures.process import BrokenProcessPool

    pool = _fork_pool(workers, fn, items)
    finished = False
    try:
        for future in [pool.submit(_call, i) for i in range(len(items))]:
            try:
                result = future.result()
            except BrokenProcessPool:
                raise WorkerDied("a worker process died (killed, or out of memory)") from None
            yield result
        finished = True
    finally:
        if not finished:
            # The executor has no public way to stop a running worker (before
            # Python 3.14); it notices the exits and joins the processes.
            for process in list(pool._processes.values()):
                process.terminate()
        pool.shutdown(wait=True, cancel_futures=True)
