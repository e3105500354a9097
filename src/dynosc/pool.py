"""Ordered map over forked worker processes, one per usable core.

`verify` runs its measurements and `evolve` its blocks of frames through
`ordered_map`, which returns the list of results in job order, so the
output does not depend on the number of workers.  The workers are bare
`os.fork` children, with no `multiprocessing` and no thread.  They read job
indices from one pipe and write pickled results on one each, which the
parent polls.  A worker holds only its own pipe ends, so one whose parent
is gone reads the end of the job pipe, or gets EPIPE, and exits without a
word.  Every worker is reaped before `ordered_map` returns or raises.

The workers inherit one BLAS thread: just before it forks them, the parent
caps NumPy's bundled OpenBLAS at one thread, so no worker starts a helper
thread that would spin on the core another worker needs.  The parent keeps
that cap.  OpenBLAS's fork handler shuts the parent's helper threads down,
and any later change of the count, or any multithreaded product, starts
them again, each to spin for a while; restoring the old count would cost
that on every map.  A process that never forks a pool (a serial run, or
`moments --check`) keeps OpenBLAS's own threads.
"""

import contextlib
import ctypes
import os
import pickle
import select
import signal
import struct

from numpy._core import _multiarray_umath

_SIZE = struct.Struct("<Q")        # a job index, or the size of a result
_AHEAD = 2       # jobs sent per worker ahead of the results: none waits


class WorkerDied(Exception):
    """A worker process ended before the map was done."""


def _usable_cores():
    """Cores this process may run on: the pool starts one worker per core."""
    return (len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else 1)


def _blas_threads():
    """The get and set calls of the thread count of NumPy's bundled OpenBLAS,
    which NumPy's extension module resolves; None where NumPy links another
    BLAS."""
    blas = ctypes.CDLL(_multiarray_umath.__file__)
    try:
        get = blas.scipy_openblas_get_num_threads64_
        set_ = blas.scipy_openblas_set_num_threads64_
    except AttributeError:
        return None
    get.argtypes, get.restype = (), ctypes.c_int
    set_.argtypes, set_.restype = (ctypes.c_int,), None
    return get, set_


def _one_blas_thread():
    """Cap this process's BLAS at one thread, for good; set only if the
    count is not 1 already, since each set restarts OpenBLAS's threads."""
    if (calls := _blas_threads()) is not None and calls[0]() != 1:
        calls[1](1)


def _read(fd, size):
    """size bytes from the pipe fd; None if it ends first."""
    data = b""
    while len(data) < size:
        part = os.read(fd, size - len(data))
        if not part:
            return None
        data += part
    return data


def _serve(fn, jobs, tasks, results, others):
    """A worker: close others, then write (i, ok, fn(jobs[i]) or its error)
    to results for each index i from tasks until a pipe ends; then exit with
    no traceback, atexit handler or inherited stdio buffer."""
    try:
        for fd in others:
            os.close(fd)
        while (index := _read(tasks, _SIZE.size)) is not None:
            (index,) = _SIZE.unpack(index)
            try:
                data = pickle.dumps((index, True, fn(jobs[index])))
            except Exception as exc:       # the job's error, or its pickling
                try:
                    data = pickle.dumps((index, False, exc))
                except Exception:
                    data = pickle.dumps((index, False, RuntimeError(repr(exc))))
            data = _SIZE.pack(len(data)) + data
            while data:
                data = data[os.write(results, data):]
    finally:
        os._exit(0)


def _results(jobs, feed, workers):
    """The list of the jobs' results in order, read from the workers' pipes;
    the first failing job's error, once every earlier job has returned."""
    sent = received = 0
    ready, values, poll = {}, [], select.poll()
    for fd in workers:
        poll.register(fd, select.POLLIN)
    for done in range(len(jobs)):
        while done not in ready:
            while sent < min(len(jobs), received + _AHEAD * len(workers)):
                os.write(feed, _SIZE.pack(sent))
                sent += 1
            for fd, _ in poll.poll():
                size = _read(fd, _SIZE.size)
                data = size and _read(fd, _SIZE.unpack(size)[0])
                if not data:
                    raise WorkerDied(f"worker {workers[fd]} ended unexpectedly")
                index, ok, value = pickle.loads(data)
                ready[index] = ok, value
                received += 1
        ok, value = ready.pop(done)
        if not ok:
            raise value
        values.append(value)
    return values


def ordered_map(fn, jobs):
    """The list of fn(job) for each of the sequence jobs, in job order.

    With more than one job and more than one usable core, forked workers run
    fn (which they get by fork, with the jobs), jobs starting in order;
    otherwise this is a plain map.  The error of the first failing job in
    job order is raised here once every earlier job has returned, or
    WorkerDied if a worker ends first.  The workers are killed and reaped
    before this returns or raises.  Before it forks, this process's BLAS is
    capped at one thread, which the workers inherit (see the module).
    """
    cores = _usable_cores()
    if len(jobs) < 2 or cores < 2:
        return list(map(fn, jobs))
    _one_blas_thread()
    tasks, feed = os.pipe()
    workers = {}                          # result pipe -> worker pid
    try:
        for _ in range(min(cores, len(jobs))):
            fd, results = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(fd)
                os.close(results)
                raise
            if pid == 0:
                _serve(fn, jobs, tasks, results, (feed, fd, *workers))
            os.close(results)
            workers[fd] = pid
        return _results(jobs, feed, workers)
    finally:
        for fd in (tasks, feed, *workers):
            os.close(fd)
        for pid in workers.values():
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
