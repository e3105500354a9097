import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dynosc import OscillatorParams
from dynosc.config import PRESET_NAMES, preset_config

SRC = Path(__file__).resolve().parents[1] / "src"

EIGHT_TIMES = [2.0 * math.pi * k / 8.0 for k in range(8)]

# Where repr changes layout or precision: zero signs, the smallest subnormal
# and normal, the switch to exponent notation below 1e-4 and from 1e16, and
# the largest finite value.
EDGE_VALUES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-05, 0.0001,
               1e16, 9999999999999998.0, 2.0, 0.1, 1.7976931348623157e308]


@pytest.fixture(scope="session")
def presets():
    return {name: preset_config(name) for name in PRESET_NAMES}


@pytest.fixture(scope="session")
def random_params():
    rng = np.random.default_rng(42)
    out = []
    for _ in range(8):
        out.append(OscillatorParams(
            mu0=float(rng.uniform(0.3, 3.0)),
            alpha0=float(rng.uniform(-1.2, 1.2)),
            beta0=float(rng.uniform(0.4, 1.8) * rng.choice([-1.0, 1.0])),
            gamma0=float(rng.uniform(-math.pi, math.pi)),
            delta0=float(rng.uniform(-2.0, 2.0)),
            eps0=float(rng.uniform(-2.0, 2.0)),
            kappa0=float(rng.uniform(-math.pi, math.pi)),
        ))
    return out


def assert_no_child_left():
    """This process has no child, running or unreaped: every worker that a
    pool forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_cli(argv, cwd=None, one_core=False):
    """`dynosc argv` in a fresh process; with one_core, on the first core of
    this process's affinity from its start, as `taskset -c` runs it."""
    if one_core:
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("needs os.sched_setaffinity")
        first = min(os.sched_getaffinity(0))
    return subprocess.run(
        [sys.executable, "-m", "dynosc.cli", *argv], cwd=cwd,
        capture_output=True, text=True, timeout=120,
        preexec_fn=(lambda: os.sched_setaffinity(0, {first})) if one_core
        else None,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))})


def texts(table, header, columns):
    """The CSV texts of `table.views` as bytes."""
    return [bytes(view) for view in table.views(header, columns)]
