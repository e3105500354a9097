"""An mpmath oracle for flow and eval_psi at extreme data.

The reference evaluates the same closed forms at 50 significant digits from
the same binary inputs, so it measures the float64 rounding of `flow` and
`eval_psi` where rounding could grow: a near-degenerate D(t), large |t| and
the order cap n = 64.  Every bound is a measured worst case times about 3;
the measured values are quoted next to each bound.
"""

import math

import numpy as np
import pytest

from dynosc import OscillatorParams, StateSpec, discriminant, eval_psi, flow

mpmath = pytest.importorskip("mpmath")

DIGITS = 50
FIELDS = ("mu", "alpha", "beta", "gamma", "delta", "eps", "kappa")
EPS = np.finfo(float).eps

# |flow - mpmath| / max(1, |mpmath|) over every field: measured 5.7e-16 on
# the times below, 1.7e-15 (kappa, beta0 = 0.05) on 40 random times within
# 1e-3 of pi/2 and 3 pi/2, and 3.2e-16 at 1e4 <= |t| <= 1e5.
FLOW_TOL = 5e-15
# max|psi - mpmath| / max|mpmath| on the grid: measured 3.2e-14 at n = 64
# and 3.1e-15 at the near-degenerate data.
PSI_N64_TOL = 1e-13
PSI_DEGENERATE_TOL = 1e-14
# At large |t| the phase (2n + 1) gamma is large, and its float64 ulp sets the
# error: measured up to 0.76 (2n + 1) |gamma| eps for n = 0 and 5.
PSI_LARGE_T_FACTOR = 2.0

GENERIC = OscillatorParams(mu0=1.3, alpha0=0.4, beta0=-0.8, gamma0=0.3,
                           delta0=0.7, eps0=-0.4, kappa0=0.2)
EXAMPLE1 = OscillatorParams(mu0=1.5, beta0=2.0 / 3.0, delta0=1.0)
HALF = math.pi / 2.0
NEAR_DEGENERATE_TIMES = [c + d for c in (HALF, 3.0 * HALF)
                         for d in (0.0, 1e-8, -1e-8, 1e-4, -1e-3)]
LARGE_TIMES = [1e4, -1e4, 12345.678, -98765.4321, 1e5]


def degenerate(beta0):
    """alpha0 = 0: D(t) = beta0^4 sin^2 t + cos^2 t falls to beta0^4 at pi/2."""
    return OscillatorParams(mu0=1.0 / abs(beta0), alpha0=0.0, beta0=beta0,
                            gamma0=0.3, delta0=0.7, eps0=-0.4, kappa0=0.2)


def mp_flow(params, t):
    """The seven parameters at time t, at DIGITS significant digits."""
    with mpmath.workdps(DIGITS):
        mu0, a0, b0, g0, d0, e0, k0 = map(mpmath.mpf, (
            params.mu0, params.alpha0, params.beta0, params.gamma0,
            params.delta0, params.eps0, params.kappa0))
        t = mpmath.mpf(t)
        s, c = mpmath.sin(t), mpmath.cos(t)
        s2, c2 = mpmath.sin(2 * t), mpmath.cos(2 * t)
        base = 2 * a0 * s + c
        den = b0 ** 4 * s ** 2 + base ** 2
        re_w = c ** 2 + b0 ** 2 * s ** 2 + a0 * s2
        im_w = (b0 ** 2 - 1) * s * c - 2 * a0 * s ** 2
        return {
            "mu": mu0 * mpmath.sqrt(den),
            "alpha": (a0 * c2 + s2 * (b0 ** 4 + 4 * a0 ** 2 - 1) / 4) / den,
            "beta": b0 / mpmath.sqrt(den),
            "gamma": g0 - (t + mpmath.atan2(im_w, re_w)) / 2,
            "delta": (d0 * base + e0 * b0 ** 3 * s) / den,
            "eps": (e0 * base - b0 * d0 * s) / mpmath.sqrt(den),
            "kappa": k0 + (s ** 2 * (e0 * b0 ** 2 * (a0 * e0 - b0 * d0)
                                     - a0 * d0 ** 2)
                           + s2 * (e0 ** 2 * b0 ** 2 - d0 ** 2) / 4) / den,
        }


def mp_psi(spec, x, t):
    """psi_n(x, t) at DIGITS significant digits, rounded to complex128."""
    state = mp_flow(spec.params, t)
    n = spec.n
    with mpmath.workdps(DIGITS):
        norm = mpmath.sqrt(2 ** n * mpmath.factorial(n) * mpmath.sqrt(mpmath.pi)
                           * state["mu"])
        out = []
        for xv in map(mpmath.mpf, x.tolist()):
            u = state["beta"] * xv + state["eps"]
            phase = ((state["alpha"] * xv + state["delta"]) * xv
                     + state["kappa"] + (2 * n + 1) * state["gamma"])
            out.append(complex(mpmath.expj(phase) * mpmath.exp(-u * u / 2)
                               * mpmath.hermite(n, u) / norm))
    return np.array(out)


def flow_error(params, times):
    """Worst |flow - mpmath| / max(1, |mpmath|), scalar and array t."""
    block = flow(params, np.array(times))
    worst = 0.0
    for k, t in enumerate(times):
        exact = mp_flow(params, t)
        one = flow(params, t)
        for name in FIELDS:
            ref = exact[name]
            for value in (getattr(one, name), getattr(block, name)[k]):
                worst = max(worst,
                            float(abs(mpmath.mpf(value) - ref) / max(1, abs(ref))))
    return worst


def psi_errors(spec, x, times):
    """max|psi - mpmath| / max|mpmath| at each time, scalar and array t."""
    block = eval_psi(spec, x, np.array(times))
    errors = []
    for row, t in zip(block, times):
        exact = mp_psi(spec, x, t)
        scale = np.max(np.abs(exact))
        errors.append(max(np.max(np.abs(got - exact)) / scale
                          for got in (row, eval_psi(spec, x, t))))
    return np.array(errors)


@pytest.mark.parametrize("beta0", [0.05, -0.05, 0.01])
def test_flow_near_degenerate_discriminant(beta0):
    params = degenerate(beta0)
    assert discriminant(params, HALF) == pytest.approx(beta0 ** 4, rel=1e-12)
    assert flow_error(params, NEAR_DEGENERATE_TIMES) < FLOW_TOL


@pytest.mark.parametrize("params", [GENERIC, EXAMPLE1])
def test_flow_at_large_times(params):
    assert flow_error(params, LARGE_TIMES) < FLOW_TOL


@pytest.mark.parametrize("params", [GENERIC, EXAMPLE1])
def test_eval_psi_at_order_cap(params):
    x = np.linspace(-12.0, 12.0, 129)
    errors = psi_errors(StateSpec(params, 64), x, [0.0, 0.7, 2.5, 4.0])
    assert np.all(errors < PSI_N64_TOL)


@pytest.mark.parametrize("n", [0, 5])
def test_eval_psi_near_degenerate_discriminant(n):
    # beta(pi/2) = 20: the state is 1/20 wide around -eps/beta = 0.7.
    x = np.linspace(-2.0, 3.0, 128)
    errors = psi_errors(StateSpec(degenerate(0.05), n), x,
                        [HALF, HALF + 1e-4, 3.0 * HALF])
    assert np.all(errors < PSI_DEGENERATE_TOL)


@pytest.mark.parametrize("n", [0, 5])
def test_eval_psi_at_large_times(n):
    x = np.linspace(-12.0, 12.0, 129)
    times = [1e4, -1e4, 12345.678]
    gamma = np.abs(flow(GENERIC, np.array(times)).gamma)
    bound = PSI_LARGE_T_FACTOR * (2 * n + 1) * gamma * EPS
    assert np.all(psi_errors(StateSpec(GENERIC, n), x, times) < bound)
