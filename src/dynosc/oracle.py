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

The quadrature transform and moments take a (T, N) block of amplitude rows
on one grid (`dft_momentum_rows`, `quadrature_moment_rows`); `dft_momentum`,
`idft_position` and `quadrature_moment` are their one-frame calls.  The
transform builds its e^{-ipx} kernel one strip of KERNEL_STRIP rows at a time
and applies each strip to every row of the block, so a call holds one strip
(1 MiB at 1,024 points) beside the rows, but builds the whole kernel again:
callers pass all of their rows in one call.  Every row goes through its own
matrix-vector products, so a block gives the same bits as one call per frame.
Callers evaluate long runs of times with `psi_rows`, in blocks of at most
BLOCK_SAMPLES samples.  `split_step_propagate` likewise maps an (N,) row or a
(T, N) block of position amplitudes on a grid to an array of the same shape.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .flows import flow
from .states import MOMENTUM, POSITION, WaveFrame, check_grid, eval_psi
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


@dataclass(frozen=True)
class ResidualReport:
    """Relative residual norms from one substitution check."""

    l2_relative: float
    linf_relative: float
    grid_points: int
    dt: float

    def __post_init__(self):
        if self.l2_relative < 0 or self.linf_relative < 0:
            raise ValueError("residual norms must be non-negative")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        bound = self.linf_relative * math.sqrt(self.grid_points)
        if self.l2_relative > bound * (1.0 + 1e-9):
            raise ValueError("norm inequality violated: l2 > linf * sqrt(N)")


@dataclass(frozen=True, eq=False)
class ComovingFrame:
    """Samples of chi on the comoving grid xi = beta x + eps."""

    xi_grid: np.ndarray
    tau: float
    chi: np.ndarray

    def __post_init__(self):
        xi = np.asarray(self.xi_grid, dtype=float)
        chi = np.asarray(self.chi, dtype=complex)
        if xi.ndim != 1 or not np.all(np.diff(xi) > 0):
            raise DomainError("xi_grid must be 1-D and strictly increasing")
        if chi.shape != xi.shape:
            raise DomainError("chi must match xi_grid point for point")
        object.__setattr__(self, "xi_grid", xi)
        object.__setattr__(self, "chi", chi)


def _relative_norms(residual, reference, dx):
    res = interior(residual)
    ref = interior(reference)
    ref_l2 = l2_norm(ref, dx)
    # A zero L2 norm also covers a zero maximum: every sample underflowed.
    if ref_l2 == 0:
        raise DomainError("the state vanishes on the interior grid")
    l2 = l2_norm(res, dx) / ref_l2
    linf = float(np.max(np.abs(res)) / np.max(np.abs(ref)))
    return l2, linf, res.size


def schrodinger_residual(spec, grid, t, dt=1e-4):
    """Residual of 2i psi_t + psi_xx - x^2 psi on closed-form samples.

    psi_t is the 2nd-order central difference of closed-form frames at
    t +- dt; psi_xx is the 4th-order stencil.  Norms are relative to psi and
    exclude the boundary margin.
    """
    if not dt > 0:
        raise DomainError("dt must be positive")
    x = np.asarray(grid, dtype=float)
    dx = float(x[1] - x[0])
    psi, after, before = eval_psi(spec, x, (t, t + dt, t - dt))
    psi_t = (after - before) / (2.0 * dt)
    residual = 2j * psi_t + diff2(psi, dx) - x * x * psi
    l2, linf, npts = _relative_norms(residual, psi, dx)
    return ResidualReport(l2, linf, npts, dt)


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
    """Slices of KERNEL_STRIP kernel rows covering n rows; a 1-row remainder
    joins the strip before it, since a 1-row product sums in another order."""
    starts = list(range(0, n, KERNEL_STRIP))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def _quadrature_transform(grid, rows, phase):
    """Trapezoid sums of e^{phase k x} f(x) / sqrt(2 pi) onto the grid, for
    each row f of a (T, N) amplitude block on that grid, or for one (N,) row.

    The kernel exp(phase * outer(k, x)) is built one strip of rows at a time
    into one buffer, and each strip is applied to every row while it is
    still in cache, so the call holds one strip beside the rows, never the
    N^2 kernel.  One matrix-vector product per strip and row: a strip of two
    or more rows gives the bits of the same rows of the full `kernel @ f`,
    while a matrix-matrix product (zgemm) sums in another order.
    """
    dx = float(grid[1] - grid[0])
    weights = np.full(grid.size, dx)
    weights[0] = weights[-1] = 0.5 * dx
    weighted = weights * rows
    out = np.empty_like(weighted)
    pairs = list(zip(out.reshape(-1, grid.size),
                     weighted.reshape(-1, grid.size)))
    buffer = np.empty((KERNEL_STRIP + 1, grid.size), dtype=complex)
    for strip in _strips(grid.size):
        kernel = buffer[:strip.stop - strip.start]
        np.multiply.outer(grid[strip], grid, out=kernel)
        kernel *= phase
        np.exp(kernel, out=kernel)
        for row, values in pairs:
            np.matmul(kernel, values, out=row[strip])
    out /= math.sqrt(2.0 * math.pi)
    if not np.isfinite(out).all():
        raise DomainError("amplitudes must be finite")
    return out


def dft_momentum_rows(grid, rows):
    """dft_momentum of each row of a (T, N) position-amplitude block on
    grid, or of one (N,) row.

    Insufficient boundary decay of any row triggers one PrecisionWarning.
    """
    edges = np.abs(rows[..., (0, -1)]) ** 2
    if edges.max() > DFT_DECAY_THRESHOLD:
        warnings.warn(
            "boundary density exceeds 1e-12; momentum samples lose accuracy",
            PrecisionWarning, stacklevel=2)
    return _quadrature_transform(grid, rows, -1j)


def dft_momentum(frame):
    """Quadrature Fourier transform to the momentum representation.

    a(p) = (2 pi)^{-1/2} integral e^{-ipx} psi(x) dx by trapezoid sums.  The
    momentum grid reuses the position grid values, which covers the momentum
    support of every preset.  Insufficient boundary decay triggers a
    PrecisionWarning rather than an error.
    """
    if frame.representation != POSITION:
        raise DomainError("dft_momentum expects a position-representation frame")
    amps = dft_momentum_rows(frame.grid, frame.amplitudes)
    return WaveFrame(MOMENTUM, frame.t, frame.grid, amps)


def idft_position(frame):
    """Inverse transform (kernel e^{+ipx}/sqrt(2 pi)) back to position."""
    if frame.representation != MOMENTUM:
        raise DomainError("idft_position expects a momentum-representation frame")
    amps = _quadrature_transform(frame.grid, frame.amplitudes, 1j)
    return WaveFrame(POSITION, frame.t, frame.grid, amps)


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
    check_grid(x)
    psi = np.array(rows, dtype=complex, ndmin=2)
    if psi.ndim != 2 or psi.shape[-1] != x.size:
        raise DomainError("split_step_propagate expects (N,) or (T, N) "
                          "amplitude rows on the grid")
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
    # Every operation reads one buffer and writes the other, with the
    # operands in the order of `psi = half_potential * psi` and
    # `psi = np.fft.ifft(kinetic * np.fft.fft(psi))`: an in-place
    # `psi *= ...` changes bits.  One row goes through as a block of one.
    spare = np.empty_like(psi)
    for _ in range(steps):
        np.multiply(half_potential, psi, out=spare)
        np.fft.fft(spare, out=psi)
        np.multiply(kinetic, psi, out=spare)
        np.fft.ifft(spare, out=psi)
        np.multiply(half_potential, psi, out=spare)
        psi, spare = spare, psi
    return psi[0] if np.ndim(rows) == 1 else psi


def comoving_frame(spec, t, tau_convention):
    """Reconstruct chi(xi, tau) from the closed-form state at time t."""
    if tau_convention not in _TAU_CONVENTIONS:
        raise DomainError(f"tau convention must be one of {_TAU_CONVENTIONS}")
    xi = np.linspace(-10.0, 10.0, 2048)
    st = flow(spec.params, t)
    x = (xi - st.eps) / st.beta
    strip = np.exp(-1j * ((st.alpha * x + st.delta) * x + st.kappa))
    chi = math.sqrt(st.mu) * strip * eval_psi(spec, x, t)
    factor = -1.0 if tau_convention == MINUS_GAMMA else -2.0
    return ComovingFrame(xi, factor * st.gamma, chi)


def comoving_residual(spec, t, tau_convention):
    """Residual of 2i chi_tau + chi_xi xi - xi^2 chi under one tau convention.

    chi_tau is formed by the chain rule: closed-form reconstructions at
    t +- 1e-5 divided by the tau increment of the chosen convention.
    """
    dt = 1e-5
    before = comoving_frame(spec, t - dt, tau_convention)
    here = comoving_frame(spec, t, tau_convention)
    after = comoving_frame(spec, t + dt, tau_convention)
    dtau = after.tau - before.tau
    if abs(dtau) < 1e-14:
        raise DomainError(
            "comoving clock is stationary at this t; resample elsewhere")
    chi_tau = (after.chi - before.chi) / dtau
    xi = here.xi_grid
    dxi = float(xi[1] - xi[0])
    residual = 2j * chi_tau + diff2(here.chi, dxi) - xi * xi * here.chi
    l2, linf, npts = _relative_norms(residual, here.chi, dxi)
    return ResidualReport(l2, linf, npts, dt)


def quadrature_moment_rows(grid, rows):
    """Trapezoid <x> and <x^2> (or <p>, <p^2>) of the density of each row of
    a (T, N) amplitude block on grid, two arrays of T moments; two scalars
    for one (N,) row."""
    dx = float(grid[1] - grid[0])
    density = np.abs(rows) ** 2
    total = np.trapezoid(density, dx=dx, axis=-1)
    if not total.all():
        raise DomainError("the state vanishes on the grid")
    return tuple(np.trapezoid(grid ** power * density, dx=dx, axis=-1) / total
                 for power in (1, 2))


def quadrature_moment(frame, power):
    """Trapezoid <x^power> (or <p^power>) of the frame's density, power <= 2."""
    if power not in (0, 1, 2):
        raise DomainError("power must be 0, 1 or 2")
    moments = quadrature_moment_rows(frame.grid, frame.amplitudes)
    return 1.0 if power == 0 else float(moments[power - 1])
