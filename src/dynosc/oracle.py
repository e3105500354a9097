"""Independent numerical verification oracles.

Everything here checks the closed forms by a different route than the code
that produced them: direct substitution into the evolution equation
2i psi_t + psi_xx - x^2 psi = 0, trapezoid-quadrature Fourier transforms with
the e^{-ipx}/sqrt(2 pi) kernel, Strang split-step propagation with a spectral
kinetic factor, plain quadrature moments, and the comoving-frame substitution

    psi(x, t) = e^{i(alpha x^2 + delta x + kappa)} chi(xi, tau) / sqrt(mu),
    xi = beta x + eps,

which maps the evolution equation into itself for the correct choice of the
transformed time tau(t).  Both candidate conventions tau = -gamma and
tau = -2 gamma are implemented; the residual decides between them (the
factor-two clock is the one that makes the textbook case the identity map).
Both residual oracles take a scalar t or an array of times, evaluate each
time and its two neighbours in one call, and share one kernel, `_residual`;
each time gets the bits of a call of its own.

The row oracles (`dft_momentum_rows`, `quadrature_moment_rows` and
`split_step_propagate`) take a (T, N) block of amplitude rows on one grid, or
one (N,) row, and check both before any arithmetic: the grid by `check_grid`
(1-D, uniform, increasing, 16 points or more), the rows for shape and finite
values.  The transform builds its e^{-ipx} kernel one strip of at most
KERNEL_STRIP rows at a time, in near-equal strips, and applies each strip to
every row of the block, weighting the row into one reused (N,) scratch just
before its product.  So a call holds its result, one strip (1 MiB at 1,024
points) and one row beside its input, never a weighted copy of the block, but
builds the whole kernel again: callers pass all of their rows in one call.
Every row goes through its own matrix-vector products, so a block gives the
same bits as one call per row.  Callers evaluate long runs of times with
`psi_rows`, in blocks of at most BLOCK_SAMPLES samples.
`quadrature_moment_rows` returns the mean and the variance of each row, and
`split_step_propagate` maps its rows to an array of the same shape.
"""

import math
import warnings

import numpy as np

from .errors import DomainError
from .flows import flow
from .states import check_grid, eval_psi
from .stencils import diff2, interior, l2_norm

MINUS_GAMMA = "minus_gamma"
MINUS_TWO_GAMMA = "minus_two_gamma"
_TAU_CONVENTIONS = (MINUS_GAMMA, MINUS_TWO_GAMMA)

# Boundary density above which the quadrature Fourier transform loses digits.
DFT_DECAY_THRESHOLD = 1e-12

# Rows of the quadrature kernel built and applied at a time: 1 KiB per grid
# point, a 1 MiB strip at 1,024 points that stays in a core's L2 cache while
# it meets every row.  16 to 256 rows built a 1,024-point kernel equally fast.
KERNEL_STRIP = 64

# Most samples, frames x grid points, that `psi_rows` evaluates at a time:
# 16 frames of 1,024 points, 2 of 8,192, so each complex temporary of
# `eval_psi` takes at most 256 KiB.  On 101 frames of 1,024 points, blocks of
# 8 to 128 frames took the same time; 64-frame blocks added ~4 MB to the
# peak RSS of `moments --check`, 16-frame ~1.6 MB.
BLOCK_SAMPLES = 16384

# Minimum split-step resolution: steps per unit time.
SPLIT_STEP_FLOOR = 100.0


class PrecisionWarning(UserWarning):
    """A quadrature precondition is marginal; the result may lose accuracy."""


def _residual(x, before, f, after, span):
    """L2 norm of 2i f_t + f_xx - x^2 f relative to f on the uniform grid x,
    without the boundary margin, one per row of f (a float for one row):
    f_t = (after - before) / span, f_xx the 4th-order stencil."""
    dx = float(x[1] - x[0])
    residual = 2j * ((after - before) / span) + diff2(f, dx) - x * x * f
    ref_l2 = l2_norm(interior(f), dx)
    # Zero when every sample underflowed.
    if np.any(ref_l2 == 0):
        raise DomainError("the state vanishes on the interior grid")
    return l2_norm(interior(residual), dx) / ref_l2


def schrodinger_residual(spec, grid, t, dt=1e-4):
    """Residual of 2i psi_t + psi_xx - x^2 psi on closed-form samples.

    psi_t is the 2nd-order central difference of closed-form samples at
    t +- dt; psi_xx is the 4th-order stencil.  Returns the L2 norm relative
    to psi, without the boundary margin: a float for a scalar t, one per
    time for an array of times.  The grid must pass `check_grid`.
    """
    if not dt > 0:
        raise DomainError("dt must be positive")
    x = np.asarray(grid, dtype=float)
    check_grid(x)
    t = np.asarray(t, dtype=float)
    before, psi, after = eval_psi(spec, x, np.stack((t - dt, t, t + dt)))
    return _residual(x, before, psi, after, 2.0 * dt)


def psi_rows(spec, grid, times):
    """eval_psi of spec on grid at each of times, a (T, N) block filled at
    most BLOCK_SAMPLES samples (and at least one time) at a time."""
    times = np.asarray(times, dtype=float)
    rows = np.empty((times.size, grid.size), dtype=complex)
    size = max(1, BLOCK_SAMPLES // grid.size)
    for k in range(0, times.size, size):
        rows[k:k + size] = eval_psi(spec, grid, times[k:k + size])
    return rows


def _strips(n):
    """Slices of ceil(n / KERNEL_STRIP) near-equal strips of kernel rows
    covering n rows: on a grid of 16 points or more each strip has at least
    two rows, since a 1-row product sums in another order."""
    count = -(-n // KERNEL_STRIP)
    bounds = [k * n // count for k in range(count + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _check_rows(grid, rows):
    """rows as an array: one (N,) row or a (T, N) block of finite amplitudes
    on grid, a grid that passes `check_grid`."""
    check_grid(grid)
    rows = np.asarray(rows)
    if rows.ndim not in (1, 2) or rows.shape[-1] != grid.size:
        raise DomainError("expected (N,) or (T, N) amplitude rows on the grid")
    if not np.isfinite(rows).all():
        raise DomainError("amplitudes must be finite")
    return rows


def _quadrature_transform(grid, rows):
    """Trapezoid sums of e^{-ipx} f(x) / sqrt(2 pi) at each grid value p, for
    each row f of a (T, N) amplitude block on that grid, or for one (N,) row.

    The kernel exp(-1j * outer(p, x)) is built one strip of rows at a time
    into one buffer, and each strip is applied to every row while it is
    still in cache, so the call holds one strip beside the rows, never the
    N^2 kernel.  Each row is weighted into one scratch row just before its
    product, by complex weights, so the multiply casts nothing and gives the
    bits of `weights * rows`.  One matrix-vector product per strip and row:
    a strip of two or more rows gives the bits of the same rows of the full
    `kernel @ f`, while a matrix-matrix product (zgemm) sums in another order.
    """
    dx = float(grid[1] - grid[0])
    weights = np.full(grid.size, dx, dtype=complex)
    weights[0] = weights[-1] = 0.5 * dx
    out = np.empty(rows.shape, dtype=complex)
    if not out.size:                     # no rows: no kernel to apply
        return out
    pairs = list(zip(out.reshape(-1, grid.size), rows.reshape(-1, grid.size)))
    weighted = np.empty(grid.size, dtype=complex)
    buffer = np.empty((KERNEL_STRIP, grid.size), dtype=complex)
    for strip in _strips(grid.size):
        kernel = buffer[:strip.stop - strip.start]
        np.multiply.outer(grid[strip], grid, out=kernel)
        kernel *= -1j
        np.exp(kernel, out=kernel)
        for row, values in pairs:
            np.multiply(weights, values, out=weighted)
            np.matmul(kernel, weighted, out=row[strip])
    out /= math.sqrt(2.0 * math.pi)
    if not np.isfinite(out).all():
        raise DomainError("amplitudes must be finite")
    return out


def dft_momentum_rows(grid, rows):
    """Quadrature Fourier transform to the momentum representation of each
    row of a (T, N) position-amplitude block on grid, or of one (N,) row.

    a(p) = (2 pi)^{-1/2} integral e^{-ipx} psi(x) dx by trapezoid sums.  The
    momentum grid reuses the position grid values, which covers the momentum
    support of every preset.  Insufficient boundary decay of any row
    triggers one PrecisionWarning rather than an error.
    """
    rows = _check_rows(grid, rows)
    edges = np.abs(rows[..., (0, -1)]) ** 2
    if np.max(edges, initial=0.0) > DFT_DECAY_THRESHOLD:
        warnings.warn(
            "boundary density exceeds 1e-12; momentum samples lose accuracy",
            PrecisionWarning, stacklevel=2)
    return _quadrature_transform(grid, rows)


def split_step_propagate(grid, rows, t_final, steps):
    """Strang split-step evolution of i psi_t = (-psi_xx + x^2 psi)/2.

    Kinetic half via FFT, potential pointwise.  The step floor guards the
    O(dt^2) splitting error; the grid is treated as periodic, which is
    harmless for states that decay below roundoff at the boundary.

    `rows` is one (N,) position-amplitude row on grid or a (T, N) block of
    them, evolved together; the result has the same shape.  Each row goes
    through the same FFT arithmetic as a row on its own, so a block is
    bit-identical to one call per row.
    """
    x = np.asarray(grid, dtype=float)
    psi = np.array(_check_rows(x, rows), dtype=complex)
    if not t_final > 0:
        raise DomainError("t_final must be positive")
    steps = int(steps)
    if steps < SPLIT_STEP_FLOOR * t_final:
        raise DomainError(
            f"steps={steps} below stability floor {SPLIT_STEP_FLOOR} * t_final")
    dt = t_final / steps
    k = 2.0 * math.pi * np.fft.fftfreq(x.size, d=float(x[1] - x[0]))
    half_potential = np.exp(-0.25j * dt * x * x)
    kinetic = np.exp(-0.5j * dt * k * k)
    # Imported here, after fftfreq has loaded numpy.fft, so that a process
    # that never propagates does not load it.
    from numpy.fft import _pocketfft_umath as pocketfft
    backward = 1.0 / x.size
    # One row, or a block of one, goes through as a one-dimensional row,
    # which spares each product a broadcast (~7% of a step).
    shape = psi.shape
    if psi.size == x.size:
        psi = psi.reshape(x.size)
    # Every operation reads one buffer and writes the other, with the
    # operands in the order of `psi = half_potential * psi` and
    # `psi = np.fft.ifft(kinetic * np.fft.fft(psi))`: an in-place
    # `psi *= ...` changes bits.  The transforms call the pocketfft loops
    # that np.fft.fft and ifft call, with their scale factors, 1 and 1/n,
    # over the last axis: the same bits without the wrappers' ~2.5 us of
    # argument handling on each of the two calls a step.  The
    # test_equals_out_of_place_* tests of tests/test_oracle.py::TestSplitStep
    # pin the bits.
    spare = np.empty_like(psi)
    for _ in range(steps):
        np.multiply(half_potential, psi, out=spare)
        pocketfft.fft(spare, 1.0, out=psi)
        np.multiply(kinetic, psi, out=spare)
        pocketfft.ifft(spare, backward, out=psi)
        np.multiply(half_potential, psi, out=spare)
        psi, spare = spare, psi
    return psi.reshape(shape)


def comoving_frame(spec, t, tau_convention):
    """Reconstruct chi(xi, tau) from the closed-form state at time t, a
    scalar or an array of times: the comoving grid xi = beta x + eps, the
    time tau of each time and the samples of chi, one row per time."""
    if tau_convention not in _TAU_CONVENTIONS:
        raise DomainError(f"tau convention must be one of {_TAU_CONVENTIONS}")
    xi = np.linspace(-10.0, 10.0, 2048)
    t = np.asarray(t, dtype=float)
    # The flow as a column, so that each time has its own row of x.
    st = flow(spec.params, t[..., None])
    x = (xi - st.eps) / st.beta
    strip = np.exp(-1j * ((st.alpha * x + st.delta) * x + st.kappa))
    chi = np.sqrt(st.mu) * strip * eval_psi(spec, x, t)
    factor = -1.0 if tau_convention == MINUS_GAMMA else -2.0
    return xi, factor * st.gamma[..., 0], chi.reshape(t.shape + xi.shape)


def comoving_residual(spec, t, tau_convention):
    """Residual of 2i chi_tau + chi_xi xi - xi^2 chi under one tau convention.

    chi_tau is formed by the chain rule: closed-form reconstructions at
    t +- 1e-5 divided by the tau increment of the chosen convention.
    Returns the L2 norm relative to chi, without the boundary margin: a
    float for a scalar t, one per time for an array of times.
    """
    dt = 1e-5
    t = np.asarray(t, dtype=float)
    xi, tau, chi = comoving_frame(spec, np.stack((t - dt, t, t + dt)),
                                  tau_convention)
    dtau = tau[2] - tau[0]
    if np.any(np.abs(dtau) < 1e-14):
        raise DomainError(
            "comoving clock is stationary at a sampled t; resample elsewhere")
    return _residual(xi, *chi, dtau[..., None])


def quadrature_moment_rows(grid, rows):
    """Trapezoid mean <x> and variance <x^2> - <x>^2 (or those of p) of the
    density of each row of a (T, N) amplitude block on grid, two arrays of T
    values; two scalars for one (N,) row."""
    rows = _check_rows(grid, rows)
    dx = float(grid[1] - grid[0])
    density = np.abs(rows) ** 2
    total = np.trapezoid(density, dx=dx, axis=-1)
    if not total.all():
        raise DomainError("the state vanishes on the grid")
    mean, second = (np.trapezoid(grid ** power * density, dx=dx, axis=-1)
                    / total for power in (1, 2))
    return mean, second - mean * mean
