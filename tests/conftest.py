import math

import numpy as np
import pytest

from dynosc import OscillatorParams
from dynosc.config import PRESET_NAMES, preset_config

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
