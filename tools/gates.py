"""Print the exit code and output hash of every gated command.

    python tools/gates.py

Each gated command runs in a fresh process from this checkout's `src/`,
once on every usable core and once on one core (the first core of this
process's affinity, set in the child, as `taskset -c` sets it), in a
temporary directory that holds CONFIG: example3's data with n = 3, and
outputs that include moments, so that `moments.csv` is hashed through
evolve's manifest.  Each line gives the command, then for the pooled and
the one-core run the exit code and the first 8 hex digits of the sha256 of
stdout, or of `manifest.json` for `evolve` ("--------" if the run wrote
none).  The hashes depend on the NumPy build and on its SIMD dispatch, so
the first line names the NumPy version and whether AVX512F kernels are
enabled.  Exit status 1 if a pooled run and its one-core run differ, else
0.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import __cpu_features__

SRC = Path(__file__).resolve().parent.parent / "src"

# Written out rather than built by dynosc, so that the file is the same
# whatever checkout's `src/` runs the gates.
CONFIG = "example3-n3.json"
CONFIG_DATA = {
    "schema_version": 1,
    "params": {"mu0": 1.5, "alpha0": 0.0, "beta0": 2.0 / 3.0, "gamma0": 0.0,
               "delta0": 1.5, "eps0": 0.0, "kappa0": 0.0},
    "n": 3,
    "grid": {"x_min": -12.0, "x_max": 12.0, "points": 1024},
    "time": {"t_start": 0.0, "t_end": 2.0 * math.pi, "frames": 1001},
    "outputs": ["position_density", "momentum_density", "moments"],
}

GATES = [
    ["verify"],
    ["verify", "--tau-convention", "minus_gamma"],
    ["verify", "--tau-convention", "minus_two_gamma"],
    ["verify", "--tau-convention", "minus_gamma",
     "--appendix-b-denominator", "beta0sq"],
    *(["verify", "--preset", name] for name in (
        "schrodinger", "example1", "example2", "example3", "minuncert")),
    ["moments", "--preset", "example3", "--check"],
    ["evolve", "--preset", "example1"],
    ["evolve", "--preset", "example3"],
    ["verify", "--config", CONFIG],
    ["moments", "--config", CONFIG, "--check"],
    ["evolve", "--config", CONFIG],
]


def command(argv, out):
    """The arguments of a gate's run: evolve writes into the directory out."""
    return [*argv, *(["--out", str(out)] if argv[0] == "evolve" else [])]


def run(argv, core=None):
    """Exit code and sha256[:8] of `dynosc argv` in a fresh process, on the
    one core `core` if given."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / CONFIG).write_text(json.dumps(CONFIG_DATA))
        out = Path(tmp) / "out"
        done = subprocess.run(
            [sys.executable, "-m", "dynosc.cli", *command(argv, out)],
            cwd=tmp, capture_output=True, env=env,
            preexec_fn=None if core is None
            else lambda: os.sched_setaffinity(0, {core}))
        if argv[0] == "evolve":
            manifest = out / "manifest.json"
            data = manifest.read_bytes() if manifest.exists() else None
        else:
            data = done.stdout
    digest = "--------" if data is None else hashlib.sha256(data).hexdigest()
    return done.returncode, digest[:8]


def main():
    if not hasattr(os, "sched_setaffinity"):
        sys.exit("gates.py needs os.sched_setaffinity for its one-core runs")
    core = min(os.sched_getaffinity(0))
    avx512f = "enabled" if __cpu_features__.get("AVX512F") else "not enabled"
    print(f"numpy {np.__version__}, AVX512F {avx512f}")
    width = max(len(" ".join(argv)) for argv in GATES)
    print(f"{'command':{width}} {'pooled':15}  one core")
    differ = 0
    for argv in GATES:
        pooled, one = run(argv), run(argv, core)
        differ += pooled != one
        print(f"{' '.join(argv):{width}} exit {pooled[0]} {pooled[1]} "
              f" exit {one[0]} {one[1]}{'  DIFFER' if pooled != one else ''}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
