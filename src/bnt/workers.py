"""Work on several cores: lanes for one model pass, processes for independent runs.

``run_lanes(tasks, lanes)`` runs a training step's or a scoring pass's tasks
in up to ``lanes`` threads, at most ``lane_cap(jobs)``, that end before it returns.

``ordered_map(fn, items, jobs)`` (ablate runs, Monte Carlo blocks) yields
``fn(item)`` for each item, in item order, from at most ``min(jobs,
len(items))`` worker processes.  With one worker or one item, or when
called inside a worker, it calls ``fn`` in this process, so pools never
nest, and imports neither ``multiprocessing`` nor ``concurrent.futures``.

Workers are forked, so ``fn`` and ``items`` reach them as memory, not as
pickles: closures work, and so do functions a profiler has wrapped.  Only
item indices, results and exceptions cross a pipe.  The only threads bnt
starts, lanes, end before their pass returns, so no Python lock is held
across a fork.  Each worker sets NumPy's OpenBLAS to one thread, whatever
the environment or import order (``blas_threads``), and ignores SIGINT
(blocked from the fork until then), so Ctrl-C reaches the parent alone,
which stops the pool.
"""

from __future__ import annotations

import contextlib
import functools
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


def lane_cap(jobs: int) -> int:
    """min(jobs, usable CPUs) lanes, and one inside a pool worker."""
    return 1 if _job is not None else min(jobs, usable_cpus())


def run_lanes(tasks, lanes: int) -> None:
    """Call each of ``tasks``, here or, with ``lanes`` > 1, in that many threads
    that end before this returns and run under this thread's NumPy error state.
    A task writes only arrays of its own through whole one-thread BLAS calls
    (the caller pins BLAS once, ``blas_threads``), so no bit depends on ``lanes``."""
    if lanes <= 1:
        for task in tasks:
            task()
        return
    import contextvars
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(lanes) as pool:
        futures = [pool.submit(contextvars.copy_context().run, task) for task in tasks]
    for future in futures:
        future.result()  # the first failure in task order, once every task has ended


@functools.cache
def _openblas():
    """(get, set) of the thread count of NumPy's bundled OpenBLAS; where that
    library or its exported setter is absent, two functions that do nothing."""
    import ctypes
    import glob

    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "libscipy_openblas*")
    for lib in map(ctypes.CDLL, glob.glob(pattern)):  # the copy NumPy already loaded
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            get, set_threads = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
            get.argtypes, get.restype = [], ctypes.c_int
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            return get, set_threads
    return (lambda: None), (lambda n: None)


@contextlib.contextmanager
def blas_threads(n: int):
    """Run the body with NumPy's OpenBLAS on n threads, then restore the
    previous count; where the setter is absent, change nothing."""
    get, set_threads = _openblas()
    previous = get()
    set_threads(n)
    try:
        yield
    finally:
        set_threads(previous)


def _start_worker(fn, items) -> None:
    global _job
    _openblas()[1](1)  # one BLAS thread per worker, whatever the parent runs
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
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
    if workers <= 1 or _job is not None:
        yield from map(fn, items)
        return
    from concurrent.futures.process import BrokenProcessPool

    # The first submit forks the workers.  They start with SIGINT blocked, and
    # the parent holds a Ctrl-C until they are up, so the finally stops them.
    unblocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    pool, finished = None, False
    try:
        pool = _fork_pool(workers, fn, items)
        futures = [pool.submit(_call, i) for i in range(len(items))]
        signal.pthread_sigmask(signal.SIG_SETMASK, unblocked)
        for future in futures:
            try:
                result = future.result()
            except BrokenProcessPool:
                raise WorkerDied("a worker process died (killed, or out of memory)") from None
            yield result
        finished = True
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, unblocked)
        if pool is not None:
            if not finished:
                # The executor has no public way to stop a running worker (before
                # Python 3.14); it notices the exits and joins the processes.
                for process in list(pool._processes.values()):
                    process.terminate()
            pool.shutdown(wait=True, cancel_futures=True)
