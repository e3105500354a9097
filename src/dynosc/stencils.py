"""Fourth-order finite-difference stencils on uniform grids.

The stencils act along the last axis of an (N,) row or a (T, N) block.
Interior points use the 5-point central stencils; the two points at each end
fall back to one-sided 4th-order stencils so every sample stays defined (on a
block they come from matrix-vector products, which can differ from a single
row's by an ulp).
Verification norms exclude an INTERIOR_MARGIN-point band at each boundary,
which keeps one-sided edges and Gaussian-tail truncation out of the reported
residuals.
"""

import numpy as np

INTERIOR_MARGIN = 8

# One-sided 4th-order rows (Fornberg weights); offsets 0..4 / -1..3 for the
# first derivative and 0..5 / -1..4 for the second.
_F1 = np.array([-25.0 / 12.0, 4.0, -3.0, 4.0 / 3.0, -0.25])
_G1 = np.array([-0.25, -5.0 / 6.0, 1.5, -0.5, 1.0 / 12.0])
_F2 = np.array([15.0 / 4.0, -77.0 / 6.0, 107.0 / 6.0, -13.0, 61.0 / 12.0, -5.0 / 6.0])
_G2 = np.array([5.0 / 6.0, -5.0 / 4.0, -1.0 / 3.0, 7.0 / 6.0, -0.5, 1.0 / 12.0])


def diff1(values, dx):
    """First derivative along the last axis, 4th order."""
    f = np.asarray(values)
    out = np.empty_like(f)
    out[..., 2:-2] = (f[..., :-4] - 8.0 * f[..., 1:-3] + 8.0 * f[..., 3:-1]
                      - f[..., 4:]) / (12.0 * dx)
    out[..., 0] = f[..., :5] @ _F1 / dx
    out[..., 1] = f[..., :5] @ _G1 / dx
    out[..., -1] = -(f[..., :-6:-1] @ _F1) / dx
    out[..., -2] = -(f[..., :-6:-1] @ _G1) / dx
    return out


def diff2(values, dx):
    """Second derivative along the last axis, 4th order."""
    f = np.asarray(values)
    h2 = dx * dx
    out = np.empty_like(f)
    out[..., 2:-2] = (-f[..., :-4] + 16.0 * f[..., 1:-3] - 30.0 * f[..., 2:-2]
                      + 16.0 * f[..., 3:-1] - f[..., 4:]) / (12.0 * h2)
    out[..., 0] = f[..., :6] @ _F2 / h2
    out[..., 1] = f[..., :6] @ _G2 / h2
    out[..., -1] = f[..., :-7:-1] @ _F2 / h2
    out[..., -2] = f[..., :-7:-1] @ _G2 / h2
    return out


def interior(values):
    """Drop the boundary bands from the last axis of an array of samples."""
    return np.asarray(values)[..., INTERIOR_MARGIN:-INTERIOR_MARGIN]


def l2_norm(values, dx):
    """Trapezoid L2 norm of (complex) samples along the last axis."""
    norms = np.sqrt(np.trapezoid(np.abs(np.asarray(values)) ** 2, dx=dx))
    return float(norms) if norms.ndim == 0 else norms
