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
`idft_position` and `quadrature_moment` are their one-frame calls.  Every
row goes through its own matrix-vector product with the cached kernel, so a
block gives the same bits as one call per frame.  Callers cut long runs of
times into blocks with `time_blocks`, so they hold the kernel plus one block
of at most BLOCK_SAMPLES samples.
"""

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .flows import flow
from .states import MOMENTUM, POSITION, WaveFrame, eval_psi, handed_over
from .stencils import diff2, interior, l2_norm

MINUS_GAMMA = "minus_gamma"
MINUS_TWO_GAMMA = "minus_two_gamma"
_TAU_CONVENTIONS = (MINUS_GAMMA, MINUS_TWO_GAMMA)

# Boundary density above which the quadrature Fourier transform loses digits.
DFT_DECAY_THRESHOLD = 1e-12

# Rows of the quadrature kernel computed at a time; 16 to 256 rows built a
# 1,024-point kernel equally fast.
KERNEL_STRIP = 64

# Most samples, frames x grid points, in one block of frames that
# `moments --check` and the momentum-map check evaluate and transform at a
# time: 16 frames of 1,024 points, 2 of 8,192.  Each complex temporary of a
# block then takes 256 KiB beside the 16 N^2-byte kernel.  On 101 frames of
# 1,024 points, blocks of 8 to 128 frames took the same time (~55 ms, warm
# kernel); 64-frame blocks added ~4 MB to the peak RSS, 16-frame ~1.6 MB.
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


@functools.lru_cache(maxsize=1)
def _kernel(phase, grid_bytes):
    """Read-only e^{phase k x} matrix, keyed on the grid values themselves.

    One entry (16 N^2 bytes for N-point grids): the DFT callers transform one
    grid after another, so only the most recent kernel is worth keeping.  On
    a miss the cache still holds the previous kernel, so the new one is built
    in place.  The matrix is symmetric, and x_j x_k == x_k x_j exactly, so
    only the upper triangle is computed, in strips of KERNEL_STRIP rows with
    the arithmetic of exp(phase * outer(k, x)), and each strip is mirrored
    below the diagonal: the same bits as the full build at about half the
    cost.
    """
    grid = np.frombuffer(grid_bytes)
    n = grid.size
    kernel = np.empty((n, n), dtype=complex)
    for i0 in range(0, n, KERNEL_STRIP):
        i1 = min(i0 + KERNEL_STRIP, n)
        upper = kernel[i0:i1, i0:]
        np.multiply.outer(grid[i0:i1], grid[i0:], out=upper)
        upper *= phase
        np.exp(upper, out=upper)
        kernel[i1:, i0:i1] = upper[:, i1 - i0:].T
    kernel.flags.writeable = False
    return kernel


def time_blocks(count, points):
    """Slices that cut `count` times into consecutive blocks, each of at most
    BLOCK_SAMPLES samples on a `points`-point grid (and at least one time)."""
    size = max(1, BLOCK_SAMPLES // points)
    return [slice(k, k + size) for k in range(0, count, size)]


def _quadrature_transform(grid, rows, phase):
    """Trapezoid sums of e^{phase k x} f(x) / sqrt(2 pi) onto the grid, for
    each row f of a (T, N) amplitude block on that grid, or for one (N,) row.

    One matrix-vector product per row: a matrix-matrix product (zgemm) sums
    in another order and changes the bits.
    """
    dx = float(grid[1] - grid[0])
    weights = np.full(grid.size, dx)
    weights[0] = weights[-1] = 0.5 * dx
    kernel = _kernel(phase, grid.tobytes())
    weighted = weights * rows
    out = np.empty_like(weighted)
    for row, values in zip(out.reshape(-1, grid.size),
                           weighted.reshape(-1, grid.size)):
        np.matmul(kernel, values, out=row)
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
    return WaveFrame(MOMENTUM, frame.t, frame.grid, handed_over(amps))


def idft_position(frame):
    """Inverse transform (kernel e^{+ipx}/sqrt(2 pi)) back to position."""
    if frame.representation != MOMENTUM:
        raise DomainError("idft_position expects a momentum-representation frame")
    amps = _quadrature_transform(frame.grid, frame.amplitudes, 1j)
    return WaveFrame(POSITION, frame.t, frame.grid, handed_over(amps))


def split_step_propagate(initial, t_final, steps):
    """Strang split-step evolution of i psi_t = (-psi_xx + x^2 psi)/2.

    Kinetic half via FFT, potential pointwise.  The step floor guards the
    O(dt^2) splitting error; the grid is treated as periodic, which is
    harmless for states that decay below roundoff at the boundary.

    `initial` is one position frame, or a sequence of position frames on one
    grid, which are stacked into rows and evolved together; the result has
    the same form.  Each row goes through the same FFT arithmetic as a frame
    on its own, so a batch is bit-identical to one call per frame.
    """
    single = isinstance(initial, WaveFrame)
    frames = [initial] if single else list(initial)
    if not frames:
        raise DomainError("split_step_propagate needs at least one frame")
    if any(f.representation != POSITION for f in frames):
        raise DomainError("split_step_propagate expects position frames")
    x = frames[0].grid
    if any(not np.array_equal(f.grid, x) for f in frames[1:]):
        raise DomainError("split_step_propagate expects frames on one grid")
    if not t_final > 0:
        raise DomainError("t_final must be positive")
    steps = int(steps)
    if steps < SPLIT_STEP_FLOOR * t_final:
        raise DomainError(
            f"steps={steps} below stability floor {SPLIT_STEP_FLOOR} * t_final")
    n = x.size
    dt = t_final / steps
    k = 2.0 * math.pi * np.fft.fftfreq(n, d=frames[0].dx)
    half_potential = np.exp(-0.25j * dt * x * x)
    kinetic = np.exp(-0.5j * dt * k * k)
    # Out-of-place products on purpose: an in-place `psi *= ...` changes bits.
    psi = np.stack([f.amplitudes for f in frames])
    for _ in range(steps):
        psi = half_potential * psi
        psi = np.fft.ifft(kinetic * np.fft.fft(psi))
        psi = half_potential * psi
    evolved = [WaveFrame(POSITION, f.t + t_final, x, row)
               for f, row in zip(frames, psi)]
    return evolved[0] if single else evolved


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
