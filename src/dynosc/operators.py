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
beta = 1.  Derivatives use the 4th-order stencils; Rayleigh quotients drop
the boundary margin.

Every function acts along the last axis of an (N,) row or a (T, N) block of
position amplitudes, with the flowed parameters as scalars or (T, 1) columns.
"""

import math

import numpy as np

from .errors import DomainError
from .stencils import diff1, interior

ANNIHILATION = "annihilation"
CREATION = "creation"
SHIFTED_MOMENTUM = "shifted_momentum"

_KINDS = (ANNIHILATION, CREATION, SHIFTED_MOMENTUM)


def ladder(kind, st, x, psi, dx):
    """Operator `kind` at the flowed parameters st (a ParamState) along the
    last axis of psi on the grid x."""
    if kind not in _KINDS:
        raise DomainError(f"kind must be one of {_KINDS}, got {kind!r}")
    if np.any(st.beta == 0):
        raise DomainError("beta must be nonzero")
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
