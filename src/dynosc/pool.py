"""Ordered map over forked worker processes, one per usable core.

`verify` runs its measurements and `evolve` its blocks of frames through
`ordered_map`, in job order, so the output does not depend on the number of
workers.  The workers are bare `os.fork` children, with no `multiprocessing`
and no thread.  They read job indices from one pipe and write pickled
results on one each, which the parent polls.  A worker holds only its own
pipe ends, so one whose parent is gone reads the end of the job pipe, or
gets EPIPE, and exits without a word.
"""

import contextlib
import os
import pickle
import select
import signal
import struct

_SIZE = struct.Struct("<Q")        # a job index, or the size of a result
_AHEAD = 2       # jobs sent per worker ahead of the results: none waits


class WorkerDied(Exception):
    """A worker process ended before the map was done."""


def _usable_cores():
    """Cores this process may run on: the pool starts one worker per core."""
    return (len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else 1)


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
    """The results of the jobs in order, read from the workers' pipes."""
    sent = received = 0
    ready, poll = {}, select.poll()
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
        yield value


@contextlib.contextmanager
def ordered_map(fn, jobs):
    """Iterator over fn(job) for each of the sequence jobs, in job order.

    With more than one job and more than one usable core, forked workers run
    fn (which they get by fork, with the jobs), jobs starting in order;
    otherwise this is a plain map.  An error in a worker is raised here at
    its job's place, WorkerDied if a worker ends first.  The workers are
    killed and reaped on every exit.
    """
    cores = _usable_cores()
    if len(jobs) < 2 or cores < 2:
        yield map(fn, jobs)
        return
    tasks, feed = os.pipe()
    workers = {}                          # result pipe -> worker pid
    try:
        for _ in range(min(cores, len(jobs))):
            fd, results = os.pipe()
            if (pid := os.fork()) == 0:
                _serve(fn, jobs, tasks, results, (feed, fd, *workers))
            os.close(results)
            workers[fd] = pid
        yield _results(jobs, feed, workers)
    finally:
        for fd in (tasks, feed, *workers):
            os.close(fd)
        for pid in workers.values():
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
