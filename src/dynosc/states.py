"""Wavefunctions of the six-parameter oscillator family.

A family member with quantum number n evaluates as

    psi_n(x, t) = e^{i(alpha x^2 + delta x + kappa) + i(2n+1) gamma}
                  phi_n(beta x + eps) / sqrt(mu),

with all parameters taken from the flow at time t and phi_n the normalized
Hermite function.  The squared amplitude integrates to 1/(mu0 |beta0|), a
constant of the motion; presets choose mu0 = 1/|beta0| so exported densities
are probability densities.

The invariant-frame functions drop the n-dependent phase factor
e^{i(2n+1) gamma}; the ladder operators act on those with the textbook
sqrt(n) / sqrt(n+1) coefficients.  Momentum-representation wavefunctions are
family members again, with initial data given by momentum_params.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .flows import OscillatorParams, flow, momentum_params
from .hermite import check_order, hermite_function

POSITION = "position"
MOMENTUM = "momentum"

MIN_GRID_POINTS = 16


@dataclass(frozen=True)
class StateSpec:
    """One wavefunction: initial data plus quantum number."""

    params: OscillatorParams
    n: int

    def __post_init__(self):
        if not isinstance(self.params, OscillatorParams):
            raise DomainError("params must be an OscillatorParams")
        check_order(self.n)


def check_grid(grid):
    """Raise DomainError unless grid is a 1-D, strictly increasing, uniformly
    spaced float array of at least MIN_GRID_POINTS points."""
    if grid.ndim != 1 or grid.size < MIN_GRID_POINTS:
        raise DomainError(
            f"grid must be 1-D with at least {MIN_GRID_POINTS} points")
    steps = np.diff(grid)
    if not np.all(steps > 0):
        raise DomainError("grid must be strictly increasing")
    h = steps[0]
    # The verdict of np.allclose(steps, h, rtol=1e-9, atol=1e-12 |h|):
    # |steps - h| <= atol + rtol |h| everywhere, and h finite.
    if (not math.isfinite(h)
            or np.max(np.abs(steps - h)) > 1e-12 * abs(h) + 1e-9 * abs(h)):
        raise DomainError("grid must be uniformly spaced")


def uniform_grid(x_min, x_max, points):
    """Uniform sampling grid including both endpoints, checked: DomainError
    also when float64 cannot space the points uniformly."""
    if not (x_min < x_max) or points < MIN_GRID_POINTS:
        raise DomainError(f"need x_min < x_max and at least {MIN_GRID_POINTS} points")
    # np.linspace forms x_max - x_min and would spread an overflow into NaNs.
    if not math.isfinite(float(x_max) - float(x_min)):
        raise DomainError(f"grid span [{x_min}, {x_max}] overflows float64")
    grid = np.linspace(float(x_min), float(x_max), int(points))
    check_grid(grid)
    return grid


@np.errstate(over="ignore", invalid="ignore")  # checked right after
def _assemble(spec, x, t, with_lewis_phase):
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    # An array t gets one trailing axis per axis of x: one row of x per time.
    state = flow(spec.params, t.reshape(t.shape + (1,) * x.ndim) if t.ndim else t)
    xi = state.beta * x + state.eps
    envelope = hermite_function(spec.n, xi) / np.sqrt(state.mu)
    phase = (state.alpha * x + state.delta) * x + state.kappa
    if with_lewis_phase:
        phase = phase + (2 * spec.n + 1) * state.gamma
    out = np.exp(1j * phase) * envelope
    if not np.isfinite(out).all():
        raise DomainError("amplitudes must be finite")
    return complex(out) if out.ndim == 0 else out


def eval_psi(spec, x, t):
    """psi_n(x, t) for a scalar or array x and t, of shape t.shape + x.shape."""
    return _assemble(spec, x, t, with_lewis_phase=True)


def eval_psi_invariant_frame(spec, x, t):
    """Invariant-frame function: psi_n with the phase e^{i(2n+1) gamma} removed."""
    return _assemble(spec, x, t, with_lewis_phase=False)


def eval_momentum(spec, p, t):
    """Momentum-representation wavefunction a_n(p, t)."""
    mapped = StateSpec(momentum_params(spec.params), spec.n)
    return eval_psi(mapped, p, t)
