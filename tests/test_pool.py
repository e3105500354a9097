"""The fork pool: results in job order, the first failing job's error, and
no worker left behind, whatever ends the map."""

import errno
import json
import math
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from dynosc import dft_momentum_rows, pool, uniform_grid
from dynosc.cli import main

from conftest import assert_no_child_left, run_cli

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="the worker pool needs os.fork")

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(autouse=True)
def two_workers(monkeypatch):
    """Two workers, whatever this host's affinity; and a map that hangs
    fails its test after 60 s instead of blocking the suite (a fork does not
    inherit the alarm)."""
    monkeypatch.setattr(pool, "_usable_cores", lambda: 2)

    def expire(signum, frame):
        raise TimeoutError("the map did not end within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def in_workers(fn):
    """fn, which fails if it runs in this process."""
    parent = os.getpid()

    def run(job):
        assert os.getpid() != parent, "ran in the parent"
        return fn(job)
    return run


class TwoArgs(Exception):
    """Pickles, but does not unpickle: its args hold one value, not two."""

    def __init__(self, a, b):
        super().__init__(f"{a} {b}")


def square(job):
    return job * job


def test_ordered_map_keeps_job_order_over_many_jobs():
    # 600 jobs on 2 workers come back in job order, each run in a worker.
    parent = os.getpid()
    jobs = list(range(600))
    assert pool.ordered_map(lambda j: (j * j, os.getpid() != parent),
                            jobs) == [(j * j, True) for j in jobs]
    assert_no_child_left()


def test_error_is_raised_at_its_jobs_place():
    def fails_at_5(job):
        if job == 5:
            raise ValueError(f"job 5 in process {os.getpid()}")
        time.sleep(0.01 * (job % 2))     # later jobs end before job 5's turn
        return square(job)

    with pytest.raises(ValueError, match="job 5 in process") as raised:
        pool.ordered_map(in_workers(fails_at_5), range(40))
    assert str(os.getpid()) not in str(raised.value)
    assert_no_child_left()


def test_first_failing_job_in_job_order_is_raised(tmp_path):
    # Job 6 fails first: job 2, in the other worker, fails only once job 6
    # has.  The error raised is job 2's, the first failing job in job order.
    failed = tmp_path / "job 6 failed"

    def fails(job):
        if job == 2:
            deadline = time.monotonic() + 30
            while not failed.exists():
                assert time.monotonic() < deadline, "job 6 did not run"
                time.sleep(0.001)
        if job == 6:
            failed.touch()
        if job in (2, 6):
            raise ValueError(f"job {job}")
        return job

    with pytest.raises(ValueError, match="job 2"):
        pool.ordered_map(in_workers(fails), list(range(10)))
    assert failed.exists()
    assert_no_child_left()


@pytest.mark.parametrize("result", [lambda j: (lambda: j),
                                    lambda j: threading.Lock()],
                         ids=["local-function", "lock"])
def test_unpicklable_result_is_an_error(result):
    def job(j):
        return result(j) if j == 3 else j

    with pytest.raises(Exception, match="pickle"):
        pool.ordered_map(in_workers(job), list(range(6)))
    assert_no_child_left()


def test_unpicklable_exception_is_an_error():
    def raises(job):
        if job == 2:
            raise ValueError(threading.Lock())
        return job

    with pytest.raises(RuntimeError, match="ValueError"):
        pool.ordered_map(in_workers(raises), list(range(6)))
    assert_no_child_left()


def test_exception_that_does_not_unpickle_is_an_error():
    def raises(job):
        raise TwoArgs("a", "b")

    with pytest.raises(TypeError):
        pool.ordered_map(in_workers(raises), list(range(6)))
    assert_no_child_left()


def test_dead_worker_ends_the_map():
    def dies_at_3(job):
        if job == 3:
            os.kill(os.getpid(), signal.SIGKILL)
        return job

    with pytest.raises(pool.WorkerDied):
        pool.ordered_map(in_workers(dies_at_3), list(range(20)))
    assert_no_child_left()


def test_plain_map_gives_the_same_list(monkeypatch):
    jobs = list(range(50))
    pooled = pool.ordered_map(in_workers(square), jobs)
    monkeypatch.setattr(pool, "_usable_cores", lambda: 1)
    parent = os.getpid()
    plain = pool.ordered_map(lambda j: (square(j), os.getpid()), jobs)
    assert pooled == [value for value, _ in plain] == [j * j for j in jobs]
    assert {pid for _, pid in plain} == {parent}
    assert_no_child_left()


def task_count():
    """The threads of this process."""
    return len(os.listdir("/proc/self/task"))


@pytest.fixture
def blas():
    """The get and set calls of NumPy's OpenBLAS thread count, with the
    count at 2, as it is on two cores before a pool forks; the count is
    restored after the test."""
    calls = pool._blas_threads()
    if calls is None:
        pytest.skip("NumPy links no OpenBLAS with a thread-count call")
    get, set_ = calls
    count = get()
    set_(2)
    yield get, set_
    set_(count)


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                    reason="counts threads through /proc")
def test_workers_inherit_one_blas_thread(blas):
    # Each worker reads one BLAS thread and runs the quadrature DFT's
    # matrix-vector products without starting a helper thread.
    get, _ = blas
    grid = uniform_grid(-12.0, 12.0, 1024)
    rows = np.exp(-np.add.outer(np.arange(4.0), grid) ** 2 / 2).astype(complex)

    def transform(job):
        before = task_count()
        dft_momentum_rows(grid, rows)
        return get(), before, task_count()

    assert pool.ordered_map(in_workers(transform), range(4)) == [
        (1, 1, 1)] * 4
    assert get() == 1
    assert_no_child_left()


@pytest.mark.parametrize("jobs,cores", [(1, 2), (4, 1)],
                         ids=["one-job", "one-core"])
def test_plain_map_keeps_the_blas_threads(blas, monkeypatch, jobs, cores):
    get, _ = blas
    monkeypatch.setattr(pool, "_usable_cores", lambda: cores)
    assert pool.ordered_map(square, range(jobs)) == [j * j for j in range(jobs)]
    assert get() == 2
    assert_no_child_left()


def test_blas_threads_are_set_once(blas, monkeypatch):
    # The first pooled map sets one thread; a second finds it and sets
    # nothing, since a set call restarts OpenBLAS's threads.
    get, set_ = blas
    sets = []

    def recording_set(count):
        sets.append(count)
        set_(count)

    monkeypatch.setattr(pool, "_blas_threads", lambda: (get, recording_set))
    for _ in range(2):
        assert pool.ordered_map(in_workers(square), range(4)) == [0, 1, 4, 9]
    assert sets == [1] and get() == 1
    assert_no_child_left()


def test_pool_runs_without_the_blas_symbols(monkeypatch):
    # Where NumPy links another BLAS the symbols are missing: no cap, and
    # the same results.
    monkeypatch.setattr(pool.ctypes, "CDLL", lambda path: SimpleNamespace())
    assert pool._blas_threads() is None
    assert pool.ordered_map(in_workers(square), list(range(50))) == [
        j * j for j in range(50)]
    assert_no_child_left()


@pytest.mark.slow
@pytest.mark.parametrize("argv", [
    ["verify", "--preset", "example3"],
    ["moments", "--preset", "example3", "--check"],
    *(["verify", "--preset", name]
      for name in ("schrodinger", "example1", "example2", "minuncert")),
    ["verify", "--preset", "example3", "--tau-convention", "minus_gamma"]],
    ids=["verify", "moments-check", "verify-schrodinger", "verify-example1",
         "verify-example2", "verify-minuncert", "verify-example3-minus_gamma"])
def test_fresh_process_prints_the_same_on_one_core(argv):
    # Fresh processes, with all of this process's cores and with the first
    # alone.  The pooled one caps its BLAS just before it forks, the path
    # that real workers inherit; no test in this process can take it, since
    # this process's BLAS stays capped from its first pooled map on.  A
    # scoped verify runs its three jobs on two workers, or in order on one.
    pooled, serial = (run_cli(argv, one_core=one_core)
                      for one_core in (False, True))
    assert pooled.stdout and pooled.stderr == ""
    assert ((pooled.returncode, pooled.stdout, pooled.stderr)
            == (serial.returncode, serial.stdout, serial.stderr))


# A job that SIGKILLs its own worker, run in a child process with a time
# bound, so that a map that waits for ever fails the test.
DYING = textwrap.dedent("""
    import os, signal, sys
    from dynosc import cli, pool, verification
    pool._usable_cores = lambda: 2

    def dying_map(fn, jobs):
        parent = os.getpid()

        def job(j):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return fn(j)
        return ordered_map(job, jobs)

    ordered_map = pool.ordered_map
    cli.ordered_map = verification.ordered_map = dying_map
    sys.exit(cli.main(sys.argv[1:]))
""")


def run_dying(argv):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", DYING, *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def pooled_config(tmp_path, frames):
    # Position and momentum frames on 1,024 points: a job per representation
    # and block of up to FRAME_BLOCK frames.
    path = tmp_path / f"config{frames}.json"
    path.write_text(json.dumps({
        "schema_version": 1, "n": 0,
        "params": {"mu0": 1.5, "alpha0": 0.0, "beta0": 2.0 / 3.0,
                   "gamma0": 0.0, "delta0": 1.5, "eps0": 0.0, "kappa0": 0.0},
        "grid": {"x_min": -12.0, "x_max": 12.0, "points": 1024},
        "time": {"t_start": 0.0, "t_end": 2.0 * math.pi, "frames": frames},
        "outputs": ["position_density", "momentum_density", "moments"]}))
    return str(path)


def test_dead_evolve_worker_exits_3_and_leaves_the_earlier_run(tmp_path):
    out = tmp_path / "out"
    assert main(["evolve", "--config", pooled_config(tmp_path, 2),
                 "--out", str(out)]) == 0
    earlier = {p.name: p.read_bytes() for p in out.iterdir()}
    done = run_dying(["evolve", "--config", pooled_config(tmp_path, 20),
                      "--out", str(out)])
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == "worker process ended unexpectedly\n"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == earlier


@pytest.mark.parametrize("argv", [["--preset", "example3"], []],
                         ids=["scoped", "battery"])
def test_dead_verify_worker_exits_3(argv):
    done = run_dying(["verify", *argv])
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == "worker process ended unexpectedly\n"


def failing_fork(monkeypatch, forks):
    """Make os.fork succeed forks times and then fail with EAGAIN; the list
    of the pids it forked."""
    real, pids = os.fork, []

    def fork():
        if len(pids) == forks:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        if pid := real():
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(),
                    reason="counts open descriptors through /proc")
@pytest.mark.parametrize("forks", [0, 1], ids=["first", "second"])
@pytest.mark.parametrize("argv", [["--preset", "example3"], []],
                         ids=["scoped", "battery"])
def test_failed_fork_in_verify_exits_3(monkeypatch, capsys, argv, forks):
    fds = open_fds()
    pids = failing_fork(monkeypatch, forks)
    assert main(["verify", *argv]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    reason = os.strerror(errno.EAGAIN)
    assert err == f"I/O error: [Errno {errno.EAGAIN}] {reason}\n"
    assert len(pids) == forks
    assert_no_child_left()
    assert open_fds() == fds


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(),
                    reason="counts open descriptors through /proc")
@pytest.mark.parametrize("forks", [0, 1], ids=["first", "second"])
def test_failed_fork_in_evolve_exits_3_and_leaves_the_earlier_run(
        tmp_path, monkeypatch, capsys, forks):
    out = tmp_path / "out"
    assert main(["evolve", "--config", pooled_config(tmp_path, 2),
                 "--out", str(out)]) == 0
    earlier = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    fds = open_fds()
    pids = failing_fork(monkeypatch, forks)
    assert main(["evolve", "--config", pooled_config(tmp_path, 20),
                 "--out", str(out)]) == 3
    out_text, err = capsys.readouterr()
    assert out_text == ""
    reason = os.strerror(errno.EAGAIN)
    assert err == f"I/O error: [Errno {errno.EAGAIN}] {reason}\n"
    assert len(pids) == forks
    assert_no_child_left()
    assert open_fds() == fds
    assert {p.name: p.read_bytes() for p in out.iterdir()} == earlier


def children(pid):
    path = Path(f"/proc/{pid}/task/{pid}/children")
    return [int(p) for p in path.read_text().split()] if path.exists() else []


def running(pid):
    """Whether pid is a process that has not exited (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path(f"/proc/{os.getpid()}/task").is_dir(),
                    reason="finds the workers through /proc")
def test_orphaned_workers_exit_quietly(tmp_path):
    # The parent is SIGKILLed while its workers format example3's frames:
    # the workers end within 2 s, with nothing on stderr (no BrokenPipeError
    # traceback from a worker that ends its job).  The stage stays.
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "dynosc.cli", "evolve", "--preset", "example3",
         "--out", str(out)], env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    try:
        # Both workers run, and have written frames into the stage.
        deadline = time.monotonic() + 30
        workers = []
        while len(workers) < 2 or len(list(out.glob(".evolve-*/*"))) < 32:
            assert time.monotonic() < deadline and proc.poll() is None
            time.sleep(0.01)
            workers = children(proc.pid)
        proc.kill()
        killed = time.monotonic()
        # stdout and stderr end when the last worker holding them exits.
        stdout, stderr = proc.communicate(timeout=2)
        # A worker closes its files before it turns into a zombie.
        while [pid for pid in workers if running(pid)]:
            assert time.monotonic() < killed + 2, "a worker is left"
            time.sleep(0.01)
    finally:
        proc.kill()
        proc.wait()
    assert (stdout, stderr) == ("", "")
    assert [p.name.startswith(".evolve-") for p in out.iterdir()] == [True]
