"""Hermite polynomials and L2-normalized Hermite functions.

Physicists' convention throughout: H_0 = 1, H_1 = 2u and

    H_{k+1}(u) = 2u H_k(u) - 2k H_{k-1}(u).

The normalized Hermite functions are

    phi_n(u) = e^{-u^2/2} H_n(u) / sqrt(2^n n! sqrt(pi)),

an orthonormal basis of L2(R).  They are evaluated by the scaled recurrence

    phi_0 = pi^{-1/4} e^{-u^2/2},       phi_1 = sqrt(2) u phi_0,
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


def hermite(n, u):
    """H_n(u) by the three-term recurrence.  Accepts scalars or arrays."""
    n = check_order(n)
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise DomainError("hermite: argument must be finite")
    h0 = np.ones_like(u)
    if n == 0:
        return float(h0) if h0.ndim == 0 else h0
    h1 = 2.0 * u
    for k in range(1, n):
        h0, h1 = h1, 2.0 * u * h1 - 2.0 * k * h0
    return float(h1) if h1.ndim == 0 else h1


@np.errstate(over="ignore")  # e^{-u^2/2} is exactly 0 once u^2 overflows
def hermite_function(n, u):
    """Normalized Hermite function phi_n(u).  Accepts scalars or arrays."""
    n = check_order(n)
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise DomainError("hermite_function: argument must be finite")
    h0 = np.pi ** -0.25 * np.exp(-0.5 * u * u)
    if n == 0:
        return float(h0) if h0.ndim == 0 else h0
    h1 = np.sqrt(2.0) * u * h0
    for k in range(1, n):
        h0, h1 = h1, np.sqrt(2.0 / (k + 1.0)) * u * h1 - np.sqrt(k / (k + 1.0)) * h0
    return float(h1) if h1.ndim == 0 else h1
