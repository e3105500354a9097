"""One measured rep of a workload, in a fresh Python process.

    python3 perfbench/worker.py --workload NAME --seed N --dir DIR
                                [--trace 0|1] [--setup-only]

Set-up imports dynosc from the checkout's `src/`, writes the seeded inputs
into DIR and creates the output directory, then prints `ready` on stdout; the
parent times set-up from process start to that line.  The rep then calls
`dynosc.cli.main` in-process once per input, capturing stdout, and writes
DIR/result.json with the calls, their wall time, the process's CPU time and
peak RSS, and the producer environment.  With --trace 1 the calls run under
the per-layer wrappers and the spans go to DIR/spans.npz.
"""

import argparse
import contextlib
import functools
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "GOTO_NUM_THREADS", "OPENBLAS_MAIN_FREE")


def import_dynosc():
    """Import dynosc from this checkout only; None if it is not there."""
    if not (SRC / "dynosc" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import dynosc
    import dynosc.cli
    if Path(dynosc.__file__).resolve().parent != (SRC / "dynosc").resolve():
        return None
    return dynosc


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment(dynosc):
    """Producer environment recorded with every result."""
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "dynosc": getattr(dynosc, "__version__", None),
        "git_commit": _git_commit(),
        "python": sys.version.split()[0],
        "python_implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def _call_main(main, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, buf.getvalue()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    dynosc = import_dynosc()
    if dynosc is None:
        print(f"worker: no dynosc package under {SRC}", file=sys.stderr)
        return 2
    rep_dir = Path(args.dir)
    calls = workloads.prepare(args.workload, args.seed, rep_dir)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    cli_main = dynosc.cli.main
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer(run_id=f"{args.workload}/{args.seed}/{os.getpid()}")
        tracer.install()
        cli_main = functools.partial(tracer.call_root, cli_main)
    results = []
    wall = 0.0
    for label, call_argv in calls:
        t0 = time.perf_counter()
        code, out = _call_main(cli_main, call_argv)
        wall += time.perf_counter() - t0
        results.append({"label": label, "argv": call_argv, "exit": code,
                        "stdout": out})
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record = {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "calls": results,
        "env": environment(dynosc),
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.save(rep_dir / "spans.npz")
        record["spans"] = str(rep_dir / "spans.npz")
    (rep_dir / "result.json").write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
