"""Hermite polynomials and L2-normalized Hermite functions.

Physicists' convention throughout: H_{-1} = 0, H_0 = 1 and

    H_{k+1}(u) = 2u H_k(u) - 2k H_{k-1}(u),

so H_1 = 2u.

The normalized Hermite functions are

    phi_n(u) = e^{-u^2/2} H_n(u) / sqrt(2^n n! sqrt(pi)),

an orthonormal basis of L2(R).  They are evaluated by the scaled recurrence

    phi_{-1} = 0,       phi_0 = pi^{-1/4} e^{-u^2/2},
    phi_{k+1} = sqrt(2/(k+1)) u phi_k - sqrt(k/(k+1)) phi_{k-1},

which carries the normalized values directly so no intermediate grows like
2^n n!; every step stays O(1) for |u| <= 40 and n <= N_MAX.
"""

import numpy as np

from .errors import CapacityError, DomainError

# Order cap: keeps the raw polynomial recurrence far from float overflow on
# the working range |u| <= 40 and bounds loop lengths everywhere.
N_MAX = 64


def check_order(n):
    """Validate a quantum number / polynomial degree against the cap."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise DomainError(f"order must be an integer, got {n!r}")
    if n < 0:
        raise DomainError(f"order must be non-negative, got {n}")
    if n > N_MAX:
        raise CapacityError(f"order {n} exceeds the cap N_MAX={N_MAX}")
    return int(n)


def _arguments(name, n, u):
    """The checked order and the argument as a float array."""
    n, u = check_order(n), np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise DomainError(f"{name}: argument must be finite")
    return n, u


def hermite(n, u):
    """H_n(u) by the three-term recurrence, from H_{-1} = 0.  Accepts
    scalars or arrays."""
    n, u = _arguments("hermite", n, u)
    h0, h1 = 0.0, np.ones_like(u)
    for k in range(n):
        h0, h1 = h1, 2.0 * u * h1 - 2.0 * k * h0
    return float(h1) if h1.ndim == 0 else h1


@np.errstate(over="ignore")  # e^{-u^2/2} is exactly 0 once u^2 overflows
def hermite_function(n, u):
    """Normalized Hermite function phi_n(u), from phi_{-1} = 0.  Accepts
    scalars or arrays."""
    n, u = _arguments("hermite_function", n, u)
    h0, h1 = 0.0, np.pi ** -0.25 * np.exp(-0.5 * u * u)
    for k in range(n):
        h0, h1 = h1, np.sqrt(2.0 / (k + 1.0)) * u * h1 - np.sqrt(k / (k + 1.0)) * h0
    return float(h1) if h1.ndim == 0 else h1
