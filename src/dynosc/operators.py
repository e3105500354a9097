"""Finite-difference action of the Hamiltonian, the quadratic dynamic
invariant and the time-dependent ladder operators on sampled frames.

With p = -i d/dx and the flowed parameters (alpha, beta, delta, eps) at a
fixed time, the first-order operators are

    shifted momentum   A = p - 2 alpha x - delta,
    annihilation       a(t)  = ((beta x + eps) + i A / beta) / sqrt(2),
    creation           a'(t) = ((beta x + eps) - i A / beta) / sqrt(2),

satisfying [a, a'] = 1 for every t.  The quadratic invariant

    E(t) = (A^2 / beta^2 + (beta x + eps)^2) / 2 = (a a' + a' a) / 2

has the time-independent spectrum n + 1/2 on the family, while the
Hamiltonian H = (p^2 + x^2)/2 is the special case alpha = delta = eps = 0,
beta = 1.  Derivatives use the 4th-order stencils; report norms drop the
boundary margin.

The array core (`ladder`, `invariant`, `commutator`, `rayleigh`) acts along
the last axis of an (N,) row or a (T, N) block, with the flowed parameters as
scalars or (T, 1) columns; the `apply_*` functions, `invariant_estimate` and
`commutator_check` are its one-frame calls.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .flows import flow
from .states import POSITION
from .stencils import diff1, diff2, interior, l2_norm

ANNIHILATION = "annihilation"
CREATION = "creation"
SHIFTED_MOMENTUM = "shifted_momentum"

_KINDS = (ANNIHILATION, CREATION, SHIFTED_MOMENTUM)


@dataclass(frozen=True)
class FirstOrderOperator:
    """One of the first-order operators at a fixed time."""

    kind: str
    alpha: float
    beta: float
    delta: float
    eps: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.beta == 0:
            raise DomainError("beta must be nonzero")

    @classmethod
    def at_time(cls, kind, params, t):
        st = flow(params, t)
        return cls(kind, st.alpha, st.beta, st.delta, st.eps)


@dataclass(frozen=True)
class OperatorReport:
    """Residual norm and Rayleigh-quotient estimate from one operator check."""

    residual_l2: float
    eigenvalue_estimate: float

    def __post_init__(self):
        if self.residual_l2 < 0:
            raise ValueError("residual_l2 must be non-negative")


def _require_position(frame):
    if frame.representation != POSITION:
        raise DomainError("operator expects a position-representation frame")


def ladder(kind, st, x, psi, dx):
    """Operator `kind` at the parameters of st (a FirstOrderOperator or a
    flowed ParamState) along the last axis of psi on the grid x."""
    shifted = -1j * diff1(psi, dx) - (2.0 * st.alpha * x + st.delta) * psi
    if kind == SHIFTED_MOMENTUM:
        return shifted
    if kind == ANNIHILATION:
        return ((st.beta * x + st.eps) * psi + 1j * shifted / st.beta) / math.sqrt(2.0)
    return ((st.beta * x + st.eps) * psi - 1j * shifted / st.beta) / math.sqrt(2.0)


def invariant(st, x, psi, dx):
    """E(t) psi via the shifted-momentum operator applied twice."""
    once = ladder(SHIFTED_MOMENTUM, st, x, psi, dx)
    twice = ladder(SHIFTED_MOMENTUM, st, x, once, dx)
    # float_power calls libm pow like the scalar `**`; `** 2` on an array
    # squares and can differ by 1 ulp.
    return 0.5 * (twice / np.float_power(st.beta, 2.0)
                  + (st.beta * x + st.eps) ** 2 * psi)


def commutator(st, x, psi, dx):
    """(a a' - a' a) psi along the last axis of psi."""
    lowered = ladder(ANNIHILATION, st, x, ladder(CREATION, st, x, psi, dx), dx)
    raised = ladder(CREATION, st, x, ladder(ANNIHILATION, st, x, psi, dx), dx)
    return lowered - raised


def rayleigh(psi, opsi, dx):
    """Re <psi, O psi> / <psi, psi> over the interior of each row."""
    psi, opsi = interior(psi), interior(opsi)
    num = np.trapezoid(np.conj(psi) * opsi, dx=dx)
    den = np.trapezoid(np.abs(psi) ** 2, dx=dx)
    return num.real / den.real


def apply_hamiltonian(frame):
    """H psi = (-psi_xx + x^2 psi) / 2."""
    _require_position(frame)
    x, psi = frame.grid, frame.amplitudes
    return frame.with_amplitudes(0.5 * (-diff2(psi, frame.dx) + x * x * psi))


def apply_ladder(op, frame):
    """Apply a FirstOrderOperator to a sampled frame."""
    _require_position(frame)
    return frame.with_amplitudes(
        ladder(op.kind, op, frame.grid, frame.amplitudes, frame.dx))


def apply_invariant(spec, frame, t):
    """E(t) psi on a sampled frame."""
    _require_position(frame)
    return frame.with_amplitudes(
        invariant(flow(spec.params, t), frame.grid, frame.amplitudes, frame.dx))


def invariant_estimate(spec, frame, t):
    """Rayleigh estimate of E(t) on a frame."""
    transformed = apply_invariant(spec, frame, t)
    return float(rayleigh(frame.amplitudes, transformed.amplitudes, frame.dx))


def commutator_check(t, params, test_frames):
    """Largest relative residual of (a a' - a' a) psi = psi over test frames."""
    st = flow(params, t)
    worst = 0.0
    estimate = math.nan
    for frame in test_frames:
        _require_position(frame)
        psi, dx = frame.amplitudes, frame.dx
        commuted = commutator(st, frame.grid, psi, dx)
        rel = l2_norm(interior(commuted - psi), dx) / l2_norm(interior(psi), dx)
        if rel >= worst:
            worst = rel
            estimate = float(rayleigh(psi, commuted, dx))
    return OperatorReport(worst, estimate)
