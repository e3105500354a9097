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


def _frozen(values, dtype):
    """Read-only array of values that no caller can write through.

    A read-only array that owns its data (another frame's, or one handed over
    frozen) is kept; a caller's writable array or view is copied, so freezing
    never reaches it.
    """
    out = np.asarray(values, dtype=dtype)
    if out is values and (out.flags.writeable or not out.flags.owndata):
        out = out.copy()
    out.setflags(write=False)
    return out


def handed_over(values):
    """A fresh array frozen, so that a WaveFrame keeps it without a copy.

    Only for an array that the caller built and keeps no reference to.
    """
    out = np.asarray(values)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class WaveFrame:
    """Complex amplitude samples on a uniform grid at one time."""

    representation: str
    t: float
    grid: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.representation not in (POSITION, MOMENTUM):
            raise DomainError(
                f"representation must be {POSITION!r} or {MOMENTUM!r}")
        grid = _frozen(self.grid, float)
        amps = _frozen(self.amplitudes, complex)
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
        if amps.shape != grid.shape:
            raise DomainError("amplitudes must match the grid point for point")
        if not np.isfinite(amps).all():
            raise DomainError("amplitudes must be finite")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dx(self):
        return float(self.grid[1] - self.grid[0])

    def density(self):
        """|amplitude|^2 samples."""
        return np.abs(self.amplitudes) ** 2

    def norm(self):
        """Trapezoid L2 norm of the sampled amplitudes."""
        return float(np.sqrt(np.trapezoid(self.density(), dx=self.dx)))

    def with_amplitudes(self, amplitudes):
        """Same grid and tag, new amplitude samples."""
        return WaveFrame(self.representation, self.t, self.grid, amplitudes)


def uniform_grid(x_min, x_max, points):
    """Uniform sampling grid including both endpoints."""
    if not (x_min < x_max) or points < MIN_GRID_POINTS:
        raise DomainError(f"need x_min < x_max and at least {MIN_GRID_POINTS} points")
    return np.linspace(float(x_min), float(x_max), int(points))


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


def sample_frame(spec, representation, grid, t):
    """Evaluate psi_n or a_n pointwise on a grid and tag the result."""
    grid = np.asarray(grid, dtype=float)
    if representation == POSITION:
        amps = eval_psi(spec, grid, t)
    elif representation == MOMENTUM:
        amps = eval_momentum(spec, grid, t)
    else:
        raise DomainError(
            f"representation must be {POSITION!r} or {MOMENTUM!r}")
    return WaveFrame(representation, float(t), grid, handed_over(amps))
