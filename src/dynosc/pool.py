"""Ordered map over forked worker processes, one per usable core.

`verify` runs its independent measurements and `evolve` its blocks of
frames through `ordered_map`.  Results come back in job order, so the output
does not depend on the number of workers.  A `verify` job only returns its
measurements; an `evolve` job writes and hashes its frames in the run's
staging directory and returns the sha256s, and the caller moves the files
into place once every job is done.
"""

import contextlib
import os

_worker_fn = None  # the function of the running map, in a pool worker


def _init_worker(fn):
    global _worker_fn
    _worker_fn = fn


def _worker_call(job):
    return _worker_fn(job)


def _usable_cores():
    """Cores this process may run on: the pool starts one worker per core."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


@contextlib.contextmanager
def ordered_map(fn, jobs, parallel=True):
    """Iterator over fn(job) for each of the sequence jobs, in job order.

    With parallel, more than one job, more than one usable core and the fork
    start method, forked workers run fn; otherwise this is a plain map.  fn
    reaches the workers by fork, so only jobs and results are pickled.  Each
    worker takes one job at a time, the next when it is done, so jobs start
    in order.  An error in a worker is raised here, at its job's
    place, and the pool is terminated on every exit.
    """
    import multiprocessing
    cores = _usable_cores()
    if (not parallel or len(jobs) < 2 or cores < 2
            or "fork" not in multiprocessing.get_all_start_methods()):
        yield map(fn, jobs)
        return
    # fork, not spawn or forkserver: a spawned worker pays the package import
    # again, and forkserver re-imports __main__, which fails for `python -`.
    pool = multiprocessing.get_context("fork").Pool(
        min(cores, len(jobs)), _init_worker, (fn,))
    try:
        yield pool.imap(_worker_call, jobs)
    finally:
        pool.terminate()
        pool.join()
