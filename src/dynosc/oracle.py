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
"""

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .flows import flow
from .states import MOMENTUM, POSITION, WaveFrame, eval_psi, handed_over
from .stencils import INTERIOR_MARGIN, diff2, interior, l2_norm

MINUS_GAMMA = "minus_gamma"
MINUS_TWO_GAMMA = "minus_two_gamma"
_TAU_CONVENTIONS = (MINUS_GAMMA, MINUS_TWO_GAMMA)

# Boundary density above which the quadrature Fourier transform loses digits.
DFT_DECAY_THRESHOLD = 1e-12

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


def _relative_norms(residual, reference, dx, margin=INTERIOR_MARGIN):
    res = interior(residual, margin)
    ref = interior(reference, margin)
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
def _kernel(phase, out_bytes, in_bytes):
    """Read-only e^{phase k x} matrix, keyed on the grid values themselves.

    One entry (16 N^2 bytes for N-point grids): the DFT callers transform one
    grid after another, so only the most recent kernel is worth keeping.  On
    a miss the cache still holds the previous kernel, so the new one is built
    in place, with the same arithmetic as exp(phase * outer(k, x)).
    """
    out_grid, in_grid = np.frombuffer(out_bytes), np.frombuffer(in_bytes)
    kernel = np.empty((out_grid.size, in_grid.size), dtype=complex)
    np.multiply.outer(out_grid, in_grid, out=kernel)
    kernel *= phase
    np.exp(kernel, out=kernel)
    kernel.flags.writeable = False
    return kernel


def _quadrature_transform(frame, grid, phase, representation):
    """Trapezoid sums of e^{phase k x} f(x) / sqrt(2 pi) over the frame grid."""
    weights = np.full(frame.grid.size, frame.dx)
    weights[0] = weights[-1] = 0.5 * frame.dx
    kernel = _kernel(phase, grid.tobytes(), frame.grid.tobytes())
    amps = kernel @ (weights * frame.amplitudes) / math.sqrt(2.0 * math.pi)
    return WaveFrame(representation, frame.t, grid, handed_over(amps))


def dft_momentum(frame, p_grid=None):
    """Quadrature Fourier transform to the momentum representation.

    a(p) = (2 pi)^{-1/2} integral e^{-ipx} psi(x) dx by trapezoid sums.  The
    default momentum grid reuses the position grid values, which covers the
    momentum support of every preset.  Insufficient boundary decay triggers a
    PrecisionWarning rather than an error.
    """
    if frame.representation != POSITION:
        raise DomainError("dft_momentum expects a position-representation frame")
    density = frame.density()
    if max(density[0], density[-1]) > DFT_DECAY_THRESHOLD:
        warnings.warn(
            "boundary density exceeds 1e-12; momentum samples lose accuracy",
            PrecisionWarning, stacklevel=2)
    p = frame.grid if p_grid is None else np.asarray(p_grid, dtype=float)
    return _quadrature_transform(frame, p, -1j, MOMENTUM)


def idft_position(frame, x_grid=None):
    """Inverse transform (kernel e^{+ipx}/sqrt(2 pi)) back to position."""
    if frame.representation != MOMENTUM:
        raise DomainError("idft_position expects a momentum-representation frame")
    x = frame.grid if x_grid is None else np.asarray(x_grid, dtype=float)
    return _quadrature_transform(frame, x, 1j, POSITION)


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


def comoving_frame(spec, t, tau_convention, xi_grid=None):
    """Reconstruct chi(xi, tau) from the closed-form state at time t."""
    if tau_convention not in _TAU_CONVENTIONS:
        raise DomainError(f"tau convention must be one of {_TAU_CONVENTIONS}")
    if xi_grid is None:
        xi_grid = np.linspace(-10.0, 10.0, 2048)
    xi = np.asarray(xi_grid, dtype=float)
    st = flow(spec.params, t)
    x = (xi - st.eps) / st.beta
    strip = np.exp(-1j * ((st.alpha * x + st.delta) * x + st.kappa))
    chi = math.sqrt(st.mu) * strip * eval_psi(spec, x, t)
    factor = -1.0 if tau_convention == MINUS_GAMMA else -2.0
    return ComovingFrame(xi, factor * st.gamma, chi)


def comoving_residual(spec, t, tau_convention, xi_grid=None, dt=1e-5):
    """Residual of 2i chi_tau + chi_xi xi - xi^2 chi under one tau convention.

    chi_tau is formed by the chain rule: closed-form reconstructions at
    t +- dt divided by the tau increment of the chosen convention.
    """
    before = comoving_frame(spec, t - dt, tau_convention, xi_grid)
    here = comoving_frame(spec, t, tau_convention, xi_grid)
    after = comoving_frame(spec, t + dt, tau_convention, xi_grid)
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


def quadrature_moment(frame, power):
    """Trapezoid <x^power> (or <p^power>) of the frame's density, power <= 2."""
    if power not in (0, 1, 2):
        raise DomainError("power must be 0, 1 or 2")
    density = frame.density()
    total = np.trapezoid(density, dx=frame.dx)
    if power == 0:
        return 1.0
    weighted = np.trapezoid(frame.grid ** power * density, dx=frame.dx)
    return float(weighted / total)
