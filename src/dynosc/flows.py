"""Closed-form time evolution of the six hidden oscillator parameters.

A family member is fixed by seven real initial data (mu0 > 0, alpha0,
beta0 != 0, gamma0, delta0, eps0, kappa0).  All parameters evolve through the
shared positive combination

    D(t) = beta0^4 sin^2 t + (2 alpha0 sin t + cos t)^2,

with mu ~ sqrt(D) and beta ~ 1/sqrt(D), so the product mu(t)|beta(t)| is an
exact invariant of the flow.  The phase gamma(t) is returned as a continuous
function of t: it is computed from the continuous polar angle of

    z(t) = (2 alpha0 sin t + cos t) + i beta0^2 sin t,

which winds around the origin exactly once per period.  Writing
z = e^{it} w(t), the factor w never meets the closed negative real axis
(whenever Im w = 0 one finds Re w in {1, beta0^2} > 0), so

    angle(z, continuous) = t + atan2(Im w, Re w)

holds exactly with the principal atan2 and no unwrapping state.  This gives
gamma(t + 2 pi) = gamma(t) - pi and, in the textbook special case
mu0 = beta0 = 1 with the rest zero, gamma(t) = gamma0 - t/2.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .hermite import check_order

# Denominator conventions for the momentum-representation parameter map.
# BETA0_QUARTIC (4 alpha0^2 + beta0^4) is the one consistent with the direct
# Fourier transform; BETA0_SQUARED (4 alpha0^2 + beta0^2) is retained as a
# negative control and fails the transform cross-check whenever beta0 != 1.
BETA0_QUARTIC = "beta0quart"
BETA0_SQUARED = "beta0sq"

# One element at a time: np.arctan2 can be 1 ulp off math.atan2 and move every phase.
_atan2 = np.vectorize(math.atan2, otypes=[float])


@dataclass(frozen=True)
class OscillatorParams:
    """Initial data of one family member."""

    mu0: float
    alpha0: float = 0.0
    beta0: float = 1.0
    gamma0: float = 0.0
    delta0: float = 0.0
    eps0: float = 0.0
    kappa0: float = 0.0

    def __post_init__(self):
        values = (self.mu0, self.alpha0, self.beta0, self.gamma0,
                  self.delta0, self.eps0, self.kappa0)
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
            raise ValueError("initial data must be finite real numbers")
        if self.mu0 <= 0:
            raise ValueError("mu0 must be positive")
        try:
            quartic = float(self.beta0) ** 4
        except OverflowError:
            quartic = math.inf
        if not 0.0 < quartic < math.inf:
            raise ValueError(
                "beta0 must be nonzero, with a finite nonzero fourth power")


@dataclass(frozen=True)
class ParamState:
    """The seven parameters at one time (floats) or at an array of times."""

    t: float
    mu: float
    alpha: float
    beta: float
    gamma: float
    delta: float
    eps: float
    kappa: float

    def __post_init__(self):
        if not np.all(self.mu > 0):
            raise DomainError(f"mu must stay positive, got {np.min(self.mu)}")


@dataclass(frozen=True)
class MomentSet:
    """Closed-form first and second moments of one state at one or more times."""

    mean_x: float
    mean_p: float
    var_x: float
    var_p: float
    product: float
    energy: float
    n: int

    def __post_init__(self):
        values = np.array((self.mean_x, self.mean_p, self.var_x, self.var_p,
                           self.product, self.energy))
        if not np.isfinite(values).all():
            raise DomainError("moments must be finite")
        if not (values[2:4] > 0).all():
            raise DomainError("variances must be positive")
        product = values[4].min()
        floor = (self.n + 0.5) ** 2 - 1e-9
        if product < floor:
            raise DomainError(f"uncertainty product {product} "
                              f"below floor {floor}")


def _times(t):
    """t as a float64 array, or as a NumPy scalar when t is a scalar: the
    same ufunc loops, without the cost of 0-d array arithmetic."""
    return np.asarray(t, dtype=float)[()]


def discriminant(params, t):
    """D(t) = beta0^4 sin^2 t + (2 alpha0 sin t + cos t)^2 at a scalar or array t."""
    t = _times(t)
    s, c = np.sin(t), np.cos(t)
    base = 2.0 * params.alpha0 * s + c
    d = params.beta0 ** 4 * s * s + base * base
    return float(d) if t.ndim == 0 else d


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # checked downstream
def flow(params, t):
    """All seven parameters at a scalar t (floats) or an array of times (arrays).

    At t = 0 this reproduces the initial data exactly; gamma uses the
    continuous branch described in the module docstring.
    """
    a0, b0 = params.alpha0, params.beta0
    d0, e0 = params.delta0, params.eps0
    t = _times(t)
    s, c = np.sin(t), np.cos(t)
    s2, c2 = np.sin(2.0 * t), np.cos(2.0 * t)
    base = 2.0 * a0 * s + c
    den = discriminant(params, t)
    rden = np.sqrt(den)
    re_w = c * c + b0 ** 2 * s * s + a0 * s2
    im_w = (b0 ** 2 - 1.0) * s * c - 2.0 * a0 * s * s
    fields = (
        t, params.mu0 * rden,
        (a0 * c2 + s2 * (b0 ** 4 + 4.0 * a0 ** 2 - 1.0) / 4.0) / den,
        b0 / rden,
        params.gamma0 - 0.5 * (t + _atan2(im_w, re_w)),
        (d0 * base + e0 * b0 ** 3 * s) / den,
        (e0 * base - b0 * d0 * s) / rden,
        params.kappa0
        + s * s * (e0 * b0 ** 2 * (a0 * e0 - b0 * d0) - a0 * d0 ** 2) / den
        + 0.25 * s2 * (e0 ** 2 * b0 ** 2 - d0 ** 2) / den,
    )
    return ParamState(*(map(float, fields) if t.ndim == 0 else fields))


def momentum_params(params, denominator=BETA0_QUARTIC):
    """Initial data of the momentum-representation family.

    Under the transform kernel e^{-ipx}/sqrt(2 pi) the momentum wavefunctions
    form a family of the same closed form.  Because that kernel advances the
    oscillator by a quarter period up to a constant phase (Hermite functions
    transform with eigenvalue (-i)^n), the mapped data equal the parameter
    flow evaluated at t = pi/2 with kappa shifted by +pi/4 and gamma by
    -pi/4; the gamma/kappa split is the unique one that matches every n, not
    just the Gaussian ground state.  Both phase offsets cancel for n = 0.

    The quartic denominator q = 4 alpha0^2 + beta0^4 is the flow denominator
    D(pi/2); the squared variant is kept only as a negative control.
    """
    a0, b0, d0, e0 = params.alpha0, params.beta0, params.delta0, params.eps0
    if denominator == BETA0_QUARTIC:
        q = 4.0 * a0 ** 2 + b0 ** 4
    elif denominator == BETA0_SQUARED:
        q = 4.0 * a0 ** 2 + b0 ** 2
    else:
        raise DomainError(f"unknown denominator convention {denominator!r}")
    rq = math.sqrt(q)
    # atan2 keeps the branch continuous (and odd) in alpha0; beta0^2 > 0.
    half_arccot = 0.5 * math.atan2(2.0 * a0, b0 ** 2)
    return OscillatorParams(
        mu0=params.mu0 * rq,
        alpha0=-a0 / q,
        beta0=b0 / rq,
        gamma0=params.gamma0 + half_arccot - math.pi / 4.0,
        delta0=(2.0 * a0 * d0 + b0 ** 3 * e0) / q,
        eps0=(2.0 * a0 * e0 - b0 * d0) / rq,
        kappa0=params.kappa0
        + (a0 * (b0 ** 2 * e0 ** 2 - d0 ** 2) - b0 ** 3 * d0 * e0) / q
        + math.pi / 4.0,
    )


@np.errstate(over="ignore", invalid="ignore")  # MomentSet rejects inf and nan
def classical_moments(params, n, t):
    """Closed-form <x>, <p>, variances, uncertainty product and energy.

    The means follow the classical harmonic motion (Ehrenfest), so
    (mean_x^2 + mean_p^2)/2 is conserved.  The variances depend on n only
    through the common factor n + 1/2.  Accepts a scalar t (float fields) or
    an array of times (array fields).
    """
    n = check_order(n)
    a0, b0, d0, e0 = params.alpha0, params.beta0, params.delta0, params.eps0
    t = _times(t)
    s, c = np.sin(t), np.cos(t)
    drift = 2.0 * a0 * e0 - b0 * d0
    mean_x = -(drift * s + e0 * c) / b0
    mean_p = -(drift * c - e0 * s) / b0
    qsum = 4.0 * a0 ** 2 + b0 ** 4
    osc = (qsum - 1.0) * np.cos(2.0 * t) - 4.0 * a0 * np.sin(2.0 * t)
    scale = (n + 0.5) / (2.0 * b0 ** 2)
    var_p = scale * (1.0 + qsum + osc)
    var_x = scale * (1.0 + qsum - osc)
    # float_power calls libm pow like the scalar `**`; x * x can differ by 1 ulp.
    energy = 0.5 * (np.float_power(mean_x, 2.0) + np.float_power(mean_p, 2.0))
    fields = (mean_x, mean_p, var_x, var_p, var_x * var_p, energy)
    return MomentSet(*(map(float, fields) if t.ndim == 0 else fields), n=n)


def is_minimum_uncertainty_family(params, tol):
    """True iff |4 alpha0^2 + beta0^4 - 1| <= tol (squeezed minimum-uncertainty condition)."""
    if not tol > 0:
        raise DomainError("tol must be positive")
    return abs(4.0 * params.alpha0 ** 2 + params.beta0 ** 4 - 1.0) <= tol
