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
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .flows import flow
from .states import POSITION, handed_over
from .stencils import INTERIOR_MARGIN, diff1, diff2, interior, l2_norm

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


def apply_hamiltonian(frame):
    """H psi = (-psi_xx + x^2 psi) / 2."""
    _require_position(frame)
    x, psi = frame.grid, frame.amplitudes
    out = 0.5 * (-diff2(psi, frame.dx) + x * x * psi)
    return frame.with_amplitudes(handed_over(out))


def apply_ladder(op, frame):
    """Apply a FirstOrderOperator to a sampled frame."""
    _require_position(frame)
    x, psi = frame.grid, frame.amplitudes
    shifted = -1j * diff1(psi, frame.dx) - (2.0 * op.alpha * x + op.delta) * psi
    if op.kind == SHIFTED_MOMENTUM:
        out = shifted
    elif op.kind == ANNIHILATION:
        out = ((op.beta * x + op.eps) * psi + 1j * shifted / op.beta) / math.sqrt(2.0)
    else:
        out = ((op.beta * x + op.eps) * psi - 1j * shifted / op.beta) / math.sqrt(2.0)
    return frame.with_amplitudes(handed_over(out))


def apply_invariant(spec, frame, t):
    """E(t) psi via the shifted-momentum operator applied twice."""
    _require_position(frame)
    st = flow(spec.params, t)
    mom = FirstOrderOperator(SHIFTED_MOMENTUM, st.alpha, st.beta, st.delta, st.eps)
    twice = apply_ladder(mom, apply_ladder(mom, frame)).amplitudes
    x = frame.grid
    out = 0.5 * (twice / st.beta ** 2 + (st.beta * x + st.eps) ** 2 * frame.amplitudes)
    return frame.with_amplitudes(handed_over(out))


def rayleigh_quotient(frame, transformed, margin=INTERIOR_MARGIN):
    """Re <psi, O psi> / <psi, psi> over the interior."""
    psi = interior(frame.amplitudes, margin)
    opsi = interior(transformed.amplitudes, margin)
    num = np.trapezoid(np.conj(psi) * opsi, dx=frame.dx)
    den = np.trapezoid(np.abs(psi) ** 2, dx=frame.dx)
    return float(num.real / den.real)


def invariant_report(spec, frame, t, margin=INTERIOR_MARGIN):
    """Rayleigh estimate of E(t) on a frame plus the eigen-residual norm."""
    transformed = apply_invariant(spec, frame, t)
    estimate = rayleigh_quotient(frame, transformed, margin)
    resid = interior(transformed.amplitudes - estimate * frame.amplitudes, margin)
    rel = l2_norm(resid, frame.dx) / l2_norm(interior(frame.amplitudes, margin), frame.dx)
    return OperatorReport(rel, estimate)


def commutator_check(t, params, test_frames):
    """Largest relative residual of (a a' - a' a) psi = psi over test frames."""
    a = FirstOrderOperator.at_time(ANNIHILATION, params, t)
    adag = FirstOrderOperator.at_time(CREATION, params, t)
    worst = 0.0
    estimate = math.nan
    for frame in test_frames:
        lowered = apply_ladder(a, apply_ladder(adag, frame)).amplitudes
        raised = apply_ladder(adag, apply_ladder(a, frame)).amplitudes
        commuted = frame.with_amplitudes(handed_over(lowered - raised))
        resid = interior(commuted.amplitudes - frame.amplitudes)
        rel = l2_norm(resid, frame.dx) / l2_norm(interior(frame.amplitudes), frame.dx)
        if rel >= worst:
            worst = rel
            estimate = rayleigh_quotient(frame, commuted)
    return OperatorReport(worst, estimate)
