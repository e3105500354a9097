"""The fork pool: results in job order, errors at their job's place, and no
worker left behind, whatever ends the map."""

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

import pytest

from dynosc import pool
from dynosc.cli import main

from conftest import assert_no_child_left

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
    with pool.ordered_map(lambda j: (j * j, os.getpid() != parent),
                          jobs) as results:
        assert list(results) == [(j * j, True) for j in jobs]
    assert_no_child_left()


def test_error_is_raised_at_its_jobs_place():
    def fails_at_5(job):
        if job == 5:
            raise ValueError(f"job 5 in process {os.getpid()}")
        time.sleep(0.01 * (job % 2))     # later jobs end before job 5's turn
        return square(job)

    got = []
    with pytest.raises(ValueError, match="job 5 in process") as raised:
        with pool.ordered_map(in_workers(fails_at_5), range(40)) as results:
            for value in results:
                got.append(value)
    assert got == [square(j) for j in range(5)]
    assert str(os.getpid()) not in str(raised.value)
    assert_no_child_left()


@pytest.mark.parametrize("result", [lambda j: (lambda: j),
                                    lambda j: threading.Lock()],
                         ids=["local-function", "lock"])
def test_unpicklable_result_is_an_error(result):
    def job(j):
        return result(j) if j == 3 else j

    with pytest.raises(Exception, match="pickle"):
        with pool.ordered_map(in_workers(job), list(range(6))) as results:
            list(results)
    assert_no_child_left()


def test_unpicklable_exception_is_an_error():
    def raises(job):
        if job == 2:
            raise ValueError(threading.Lock())
        return job

    with pytest.raises(RuntimeError, match="ValueError"):
        with pool.ordered_map(in_workers(raises), list(range(6))) as results:
            list(results)
    assert_no_child_left()


def test_exception_that_does_not_unpickle_is_an_error():
    def raises(job):
        raise TwoArgs("a", "b")

    with pytest.raises(TypeError):
        with pool.ordered_map(in_workers(raises), list(range(6))) as results:
            list(results)
    assert_no_child_left()


def test_break_leaves_no_child():
    def slow(job):
        time.sleep(0.05)
        return job

    with pool.ordered_map(in_workers(slow), list(range(100))) as results:
        for value in results:
            if value == 3:
                break
    assert_no_child_left()


def test_dead_worker_ends_the_map():
    def dies_at_3(job):
        if job == 3:
            os.kill(os.getpid(), signal.SIGKILL)
        return job

    got = []
    with pytest.raises(pool.WorkerDied):
        with pool.ordered_map(in_workers(dies_at_3), list(range(20))) as results:
            got.extend(results)
    assert got == list(range(len(got)))
    assert_no_child_left()


def test_plain_map_gives_the_same_list(monkeypatch):
    jobs = list(range(50))
    with pool.ordered_map(in_workers(square), jobs) as results:
        pooled = list(results)
    monkeypatch.setattr(pool, "_usable_cores", lambda: 1)
    parent = os.getpid()
    with pool.ordered_map(lambda j: (square(j), os.getpid()),
                          jobs) as results:
        plain = list(results)
    assert pooled == [value for value, _ in plain] == [j * j for j in jobs]
    assert {pid for _, pid in plain} == {parent}
    assert_no_child_left()


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
