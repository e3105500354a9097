import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dynosc import (DomainError, MINUS_GAMMA, MINUS_TWO_GAMMA,
                    OscillatorParams, PrecisionWarning, StateSpec,
                    comoving_frame, comoving_residual, dft_momentum_rows,
                    eval_momentum, eval_psi, hermite_function,
                    quadrature_moment_rows, schrodinger_residual,
                    split_step_propagate, uniform_grid)
from dynosc import oracle
from dynosc.oracle import _quadrature_transform
from dynosc.stencils import diff1, diff2, interior, l2_norm
from dynosc.verification import RESIDUAL_GRID

from conftest import EIGHT_TIMES

SCHRODINGER = OscillatorParams(mu0=1.0, beta0=1.0)
EXAMPLE1 = OscillatorParams(mu0=1.5, beta0=2.0 / 3.0, delta0=1.0)
EXAMPLE3 = OscillatorParams(mu0=1.5, beta0=2.0 / 3.0, delta0=1.5)
MINUNCERT = OscillatorParams(mu0=0.64 ** -0.25, alpha0=0.3, beta0=0.64 ** 0.25)

GRID = uniform_grid(-8.0, 8.0, 1024)


class TestStencils:
    def test_first_derivative_exact_on_quartics(self):
        x = uniform_grid(-1.0, 1.0, 64)
        f = 3.0 * x ** 4 - 2.0 * x ** 2 + x
        want = 12.0 * x ** 3 - 4.0 * x + 1.0
        assert_allclose(diff1(f, x[1] - x[0]), want, atol=1e-11)

    def test_second_derivative_exact_on_quintics(self):
        x = uniform_grid(-1.0, 1.0, 64)
        f = x ** 5 - x ** 3 + 2.0 * x
        want = 20.0 * x ** 3 - 6.0 * x
        assert_allclose(diff2(f, x[1] - x[0]), want, atol=1e-9)


class TestSchrodingerResidual:
    def test_textbook_case(self):
        assert schrodinger_residual(StateSpec(SCHRODINGER, 0), GRID, 0.7,
                                    1e-4) < 1e-6

    def test_example1_excited_state(self):
        assert schrodinger_residual(StateSpec(EXAMPLE1, 1), GRID, 2.0,
                                    1e-4) < 1e-6

    def test_phase_corruption_is_detected(self):
        # Hybrid family: the original state up to t = 0, kappa0 shifted by
        # +0.1 for t > 0.  The stitch breaks the time derivative at t = 0 and
        # the residual must blow up there.
        dt = 1e-4
        spec = StateSpec(EXAMPLE1, 0)
        corrupted = StateSpec(
            OscillatorParams(EXAMPLE1.mu0, EXAMPLE1.alpha0, EXAMPLE1.beta0,
                             EXAMPLE1.gamma0, EXAMPLE1.delta0, EXAMPLE1.eps0,
                             EXAMPLE1.kappa0 + 0.1), 0)
        x = GRID
        dx = float(x[1] - x[0])
        psi = eval_psi(spec, x, 0.0)
        psi_t = (eval_psi(corrupted, x, dt) - eval_psi(spec, x, -dt)) / (2 * dt)
        residual = 2j * psi_t + diff2(psi, dx) - x * x * psi
        rel = l2_norm(interior(residual), dx) / l2_norm(interior(psi), dx)
        assert rel > 1e-2

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(DomainError):
            schrodinger_residual(StateSpec(SCHRODINGER, 0), GRID, 0.7, 0.0)

    def test_temporal_convergence_is_second_order(self):
        spec = StateSpec(SCHRODINGER, 2)
        grid = uniform_grid(-8.0, 8.0, 4096)
        big = schrodinger_residual(spec, grid, 0.7, 1e-2)
        small = schrodinger_residual(spec, grid, 0.7, 5e-3)
        assert 3.5 <= big / small <= 4.5

    def test_spatial_convergence_is_fourth_order(self):
        spec = StateSpec(SCHRODINGER, 2)
        coarse = schrodinger_residual(spec, uniform_grid(-8, 8, 512), 0.7,
                                      1e-6)
        fine = schrodinger_residual(spec, uniform_grid(-8, 8, 1024), 0.7,
                                    1e-6)
        assert 12.0 <= coarse / fine <= 20.0

    @pytest.mark.parametrize("grid", [
        GRID[::-1],
        np.concatenate((GRID[:512], GRID[512:] * 1.001)),
        uniform_grid(-8.0, 8.0, 16)[:15],
        np.stack((GRID, GRID))], ids=["reversed", "nonuniform", "15-point",
                                      "2-D"])
    def test_rejects_grid_that_fails_check_grid(self, grid):
        with pytest.raises(DomainError, match="grid must"):
            schrodinger_residual(StateSpec(SCHRODINGER, 0), grid, 0.7)


def bits(values):
    return np.ascontiguousarray(values, dtype=float).view(np.uint64)


class TestResidualsOverTimes:
    """Both residual oracles take an array of times and give one residual
    per time, bit for bit the residual of each time on its own."""

    @pytest.mark.parametrize("grid,dt", [
        (uniform_grid(*RESIDUAL_GRID), 1e-4),
        (uniform_grid(-12.0, 12.0, 4096), 1e-5)], ids=["pinned", "refined"])
    @pytest.mark.parametrize("n", [0, 5])
    @pytest.mark.parametrize("name", ["example1", "example3", "minuncert"])
    def test_schrodinger_equals_per_time_calls(self, presets, name, n, grid,
                                               dt):
        spec = StateSpec(presets[name].params, n)
        got = schrodinger_residual(spec, grid, EIGHT_TIMES, dt)
        want = [schrodinger_residual(spec, grid, t, dt) for t in EIGHT_TIMES]
        assert got.shape == (8,)
        assert np.array_equal(bits(got), bits(want))

    def test_schrodinger_scalar_time_is_the_written_out_formula(self):
        # The residual of one time, formed from three eval_psi rows as the
        # formula reads, without the shared kernel.
        spec, t, dt = StateSpec(EXAMPLE3, 5), 2.0, 1e-4
        dx = float(GRID[1] - GRID[0])
        psi = eval_psi(spec, GRID, t)
        psi_t = (eval_psi(spec, GRID, t + dt)
                 - eval_psi(spec, GRID, t - dt)) / (2.0 * dt)
        residual = 2j * psi_t + diff2(psi, dx) - GRID * GRID * psi
        want = l2_norm(interior(residual), dx) / l2_norm(interior(psi), dx)
        assert schrodinger_residual(spec, GRID, t, dt) == want

    @pytest.mark.parametrize("convention", [MINUS_GAMMA, MINUS_TWO_GAMMA])
    def test_comoving_equals_per_time_calls(self, presets, convention):
        times = (0.8, 2.0, 4.0)
        for cfg in presets.values():
            spec = StateSpec(cfg.params, cfg.n)
            got = comoving_residual(spec, times, convention)
            want = [comoving_residual(spec, t, convention) for t in times]
            assert got.shape == (3,)
            assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("shape", [(3,), (2, 3)])
    def test_comoving_frame_rows_equal_per_time_calls(self, presets, shape):
        times = np.linspace(0.3, 5.1, math.prod(shape)).reshape(shape)
        for cfg in presets.values():
            spec = StateSpec(cfg.params, cfg.n)
            xi, tau, chi = comoving_frame(spec, times, MINUS_TWO_GAMMA)
            assert tau.shape == shape and chi.shape == shape + xi.shape
            for k in np.ndindex(shape):
                one_xi, one_tau, one_chi = comoving_frame(
                    spec, times[k], MINUS_TWO_GAMMA)
                assert np.array_equal(one_xi, xi) and one_tau == tau[k]
                assert np.array_equal(bits(one_chi.view(float)),
                                      bits(chi[k].view(float)))

    def test_eval_psi_pairs_each_time_with_its_row_of_x(self):
        spec = StateSpec(EXAMPLE1, 3)
        times = np.array([0.3, 1.1, 2.9])
        x = np.stack([uniform_grid(-6.0 + k, 6.0 + k, 64) for k in range(3)])
        block = eval_psi(spec, x, times)
        assert block.shape == (3, 64)
        for row, grid, t in zip(block, x, times):
            assert np.array_equal(bits(row.view(float)),
                                  bits(eval_psi(spec, grid, t).view(float)))

    def test_stationary_clock_at_any_time_is_an_error(self):
        # beta0 = 1e-5 stops the comoving clock at t = 0.8, not at t = 2.0.
        spec = StateSpec(OscillatorParams(mu0=1e5, beta0=1e-5), 0)
        assert comoving_residual(spec, 2.0, MINUS_TWO_GAMMA) > 0
        for times in (0.8, (0.8, 2.0), (2.0, 0.8)):
            with pytest.raises(DomainError, match="stationary"):
                comoving_residual(spec, times, MINUS_TWO_GAMMA)

    def test_scalar_time_gives_a_float(self):
        spec = StateSpec(EXAMPLE1, 1)
        assert type(schrodinger_residual(spec, GRID, 0.7)) is float
        assert type(comoving_residual(spec, 0.8, MINUS_TWO_GAMMA)) is float


def uncached_transform(x, amplitudes, phase):
    """The quadrature on grid x with a freshly built e^{phase k x} kernel."""
    dx = float(x[1] - x[0])
    weights = np.full(x.size, dx)
    weights[0] = weights[-1] = 0.5 * dx
    kernel = np.exp(phase * np.outer(x, x))
    return kernel @ (weights * amplitudes) / math.sqrt(2.0 * math.pi)


def idft_position(x, amplitudes):
    """Inverse transform (kernel e^{+ipx}/sqrt(2 pi)) back to position: the
    conjugate of the forward transform of the conjugate amplitudes."""
    return np.conj(_quadrature_transform(x, np.conj(amplitudes)))


def norm(x, amplitudes):
    return l2_norm(amplitudes, float(x[1] - x[0]))


class TestFourier:
    def test_gaussian_self_transform(self):
        x = uniform_grid(-12.0, 12.0, 1024)
        out = dft_momentum_rows(x, hermite_function(0, x))
        assert_allclose(out, hermite_function(0, x), atol=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_hermite_eigenfunctions(self, n):
        x = uniform_grid(-12.0, 12.0, 1024)
        out = dft_momentum_rows(x, hermite_function(n, x))
        expected = (-1j) ** n * hermite_function(n, x)
        assert np.max(np.abs(out - expected)) < 1e-9

    def test_adjudicates_momentum_map(self):
        x = uniform_grid(-14.0, 14.0, 1024)
        spec = StateSpec(EXAMPLE3, 0)
        numeric = dft_momentum_rows(x, eval_psi(spec, x, 0.0))
        closed = eval_momentum(spec, x, 0.0)
        gap = norm(x, numeric - closed)
        assert gap < 1e-8

    def test_round_trip(self):
        x = uniform_grid(-12.0, 12.0, 1024)
        spec = StateSpec(EXAMPLE1, 2)
        psi = eval_psi(spec, x, 1.3)
        back = idft_position(x, dft_momentum_rows(x, psi))
        assert norm(x, back - psi) < 1e-10

    def test_parseval(self):
        x = uniform_grid(-12.0, 12.0, 1024)
        for spec in (StateSpec(EXAMPLE1, 0), StateSpec(MINUNCERT, 4)):
            psi = eval_psi(spec, x, 0.9)
            out = dft_momentum_rows(x, psi)
            assert norm(x, out) == pytest.approx(norm(x, psi), abs=1e-10)

    def test_warns_on_poor_boundary_decay(self):
        x = uniform_grid(-3.0, 3.0, 256)
        psi = eval_psi(StateSpec(SCHRODINGER, 0), x, 0.0)
        with pytest.warns(PrecisionWarning):
            dft_momentum_rows(x, psi)

    # The kernel built in strips must reproduce the quadrature with a kernel
    # built whole, bit for bit, whatever order grids and directions arrive in.
    def test_alternating_grids(self):
        spec = StateSpec(EXAMPLE3, 1)
        for a in (12.0, 14.0, 12.0):
            x = uniform_grid(-a, a, 1024)
            psi = eval_psi(spec, x, 0.4)
            assert np.all(dft_momentum_rows(x, psi)
                          == uncached_transform(x, psi, -1j))

    def test_alternating_directions(self):
        x = uniform_grid(-12.0, 12.0, 1024)
        pos = eval_psi(StateSpec(EXAMPLE1, 2), x, 1.3)
        for _ in range(2):
            mom = dft_momentum_rows(x, pos)
            assert np.all(mom == uncached_transform(x, pos, -1j))
            back = idft_position(x, mom)
            assert np.all(back == uncached_transform(x, mom, 1j))

    def test_grid_mutated_in_place(self):
        # Each call builds the kernel from the grid values it is given.
        x = uniform_grid(-12.0, 12.0, 1024)
        pos = eval_psi(StateSpec(EXAMPLE3, 0), x, 0.0)
        first = dft_momentum_rows(x, pos)
        x *= 0.5
        second = dft_momentum_rows(x, pos)
        assert np.all(second == uncached_transform(x, pos, -1j))
        assert not np.all(second == first)

    def test_empty_block_builds_no_kernel_strip(self, monkeypatch):
        # A kernel strip is built only to be applied: one row takes every
        # strip of the grid, an empty (0, N) block none.
        x = uniform_grid(-12.0, 12.0, 1024)
        built, strips = [], oracle._strips

        def counted(n):
            found = strips(n)
            built.extend(found)
            return found

        monkeypatch.setattr(oracle, "_strips", counted)
        assert dft_momentum_rows(x, np.empty((0, x.size))).shape == (0, x.size)
        assert built == []
        dft_momentum_rows(x, hermite_function(0, x))
        assert len(built) == x.size // oracle.KERNEL_STRIP

    def test_written_amplitudes_leave_the_kernel_alone(self):
        x = uniform_grid(-12.0, 12.0, 1024)
        pos = eval_psi(StateSpec(MINUNCERT, 4), x, 0.9)
        out = dft_momentum_rows(x, pos)
        # The result is the caller's own array: writing it touches nothing
        # shared.
        out[:] = 7.0
        again = dft_momentum_rows(x, pos)
        assert np.all(again == uncached_transform(x, pos, -1j))


def out_of_place_steps(x, psi, t_final, steps):
    """Strang steps through np.fft.fft and ifft, a fresh array each time."""
    dt = t_final / steps
    k = 2.0 * math.pi * np.fft.fftfreq(x.size, d=float(x[1] - x[0]))
    half_potential = np.exp(-0.25j * dt * x * x)
    kinetic = np.exp(-0.5j * dt * k * k)
    for _ in range(steps):
        psi = half_potential * psi
        psi = np.fft.ifft(kinetic * np.fft.fft(psi))
        psi = half_potential * psi
    return psi


class TestSplitStep:
    def test_ground_state_full_period(self):
        x = uniform_grid(-12.0, 12.0, 1024)
        phi0 = hermite_function(0, x)
        out = split_step_propagate(x, phi0, 2.0 * math.pi, 4096)
        assert out.shape == x.shape
        assert l2_norm(out - (-phi0), x[1] - x[0]) < 1e-6

    @pytest.mark.parametrize("params,n", [(EXAMPLE1, 0), (EXAMPLE3, 0),
                                          (MINUNCERT, 1)])
    def test_matches_closed_form(self, params, n):
        x = uniform_grid(-12.0, 12.0, 1024)
        spec = StateSpec(params, n)
        out = split_step_propagate(x, eval_psi(spec, x, 0.0), 1.0, 4096)
        want = eval_psi(spec, x, 1.0)
        assert l2_norm(out - want, x[1] - x[0]) < 1e-5

    def test_zero_frame_stays_zero(self):
        x = uniform_grid(-12.0, 12.0, 256)
        out = split_step_propagate(x, np.zeros_like(x, dtype=complex), 1.0, 128)
        assert np.all(out == 0.0)

    def test_step_floor(self):
        x = uniform_grid(-12.0, 12.0, 256)
        row = eval_psi(StateSpec(SCHRODINGER, 0), x, 0.0)
        with pytest.raises(DomainError):
            split_step_propagate(x, row, 2.0, 150)
        with pytest.raises(DomainError):
            split_step_propagate(x, row, -1.0, 4096)

    def test_batch_equals_single_frame_calls(self, presets):
        x = uniform_grid(-12.0, 12.0, 1024)
        starts = np.stack([eval_psi(StateSpec(cfg.params, cfg.n), x, 0.1 * i)
                           for i, cfg in enumerate(presets.values())])
        batch = split_step_propagate(x, starts, 1.0, 512)
        assert batch.shape == starts.shape
        for got, start in zip(batch, starts):
            want = split_step_propagate(x, start, 1.0, 512)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_equals_out_of_place_steps(self, presets):
        # Two reused buffers give the bits of fresh arrays at every step.
        x = uniform_grid(-12.0, 12.0, 1024)
        starts = np.stack([eval_psi(StateSpec(cfg.params, cfg.n), x, 0.0)
                           for cfg in presets.values()])
        steps, dt = 200, 1.0 / 200
        k = 2.0 * math.pi * np.fft.fftfreq(x.size, d=float(x[1] - x[0]))
        half_potential = np.exp(-0.25j * dt * x * x)
        kinetic = np.exp(-0.5j * dt * k * k)
        psi = starts
        for _ in range(steps):
            psi = half_potential * psi
            psi = np.fft.ifft(kinetic * np.fft.fft(psi))
            psi = half_potential * psi
        got = split_step_propagate(x, starts, 1.0, steps)
        assert np.array_equal(psi.view(np.uint64), got.view(np.uint64))

    @pytest.mark.parametrize("shape", [(1024,), (1, 1024)],
                             ids=["row", "block-of-one"])
    def test_equals_out_of_place_steps_on_one_row(self, shape):
        x = uniform_grid(-12.0, 12.0, 1024)
        start = eval_psi(StateSpec(EXAMPLE3, 2), x, 0.0).reshape(shape)
        got = split_step_propagate(x, start, 1.0, 200)
        want = out_of_place_steps(x, start, 1.0, 200)
        assert got.shape == want.shape == shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_equals_out_of_place_steps_on_1000_points(self, presets):
        # 1/1000 is not a power of two, so ifft's scale factor rounds.
        x = uniform_grid(-12.0, 12.0, 1000)
        starts = np.stack([eval_psi(StateSpec(cfg.params, cfg.n), x, 0.0)
                           for cfg in presets.values()])
        got = split_step_propagate(x, starts, 1.0, 200)
        want = out_of_place_steps(x, starts, 1.0, 200)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_leaves_its_input_alone(self):
        x = uniform_grid(-12.0, 12.0, 256)
        start = eval_psi(StateSpec(EXAMPLE1, 0), x, 0.0)
        kept = start.copy()
        split_step_propagate(x, start, 1.0, 128)
        assert np.array_equal(start.view(np.uint64), kept.view(np.uint64))

    def test_rejects_rows_off_the_grid(self):
        x = uniform_grid(-12.0, 12.0, 256)
        for rows in ([], np.zeros(255, dtype=complex),
                     np.zeros((2, 257), dtype=complex),
                     np.zeros((2, 2, 256), dtype=complex), 1.0):
            with pytest.raises(DomainError, match="amplitude rows"):
                split_step_propagate(x, rows, 1.0, 128)

    def test_criterion_makes_one_batched_call(self, monkeypatch):
        from dynosc import verification
        calls = []

        def counting(grid, rows, t_final, steps):
            calls.append(rows.shape)
            return split_step_propagate(grid, rows, t_final, steps)

        monkeypatch.setattr(verification, "split_step_propagate", counting)
        rows = verification.independent_propagation()
        assert calls == [(5, 1024)]
        assert len(rows) == 5 and all(row.passed for row in rows)


class TestComoving:
    def test_textbook_case_two_gamma_clock(self):
        assert comoving_residual(StateSpec(SCHRODINGER, 0), 0.8,
                                 MINUS_TWO_GAMMA) < 1e-6

    def test_textbook_case_half_speed_clock_fails(self):
        assert comoving_residual(StateSpec(SCHRODINGER, 0), 0.8,
                                 MINUS_GAMMA) > 0.5

    @pytest.mark.parametrize("params,n", [(EXAMPLE1, 0), (EXAMPLE1, 1),
                                          (EXAMPLE3, 0), (MINUNCERT, 2)])
    def test_general_case(self, params, n):
        spec = StateSpec(params, n)
        assert comoving_residual(spec, 0.8, MINUS_TWO_GAMMA) < 1e-6
        assert comoving_residual(spec, 0.8, MINUS_GAMMA) > 0.5

    def test_frame_reconstruction_is_static_hermite(self):
        # chi(xi, tau) = e^{-i(2n+1) tau / 2} phi_n(xi) under the winning clock.
        spec = StateSpec(EXAMPLE1, 1)
        xi, tau, chi = comoving_frame(spec, 1.1, MINUS_TWO_GAMMA)
        expected = np.exp(-1.5j * tau) * hermite_function(1, xi)
        assert_allclose(chi, expected, atol=1e-12)

    def test_rejects_unknown_convention(self):
        with pytest.raises(DomainError):
            comoving_residual(StateSpec(SCHRODINGER, 0), 0.8, "minus_three")


class TestQuadratureMoment:
    def test_ground_state_variance(self):
        x = uniform_grid(-12.0, 12.0, 2048)
        _, second = quadrature_moment_rows(x, hermite_function(0, x))
        assert second == pytest.approx(0.5, abs=1e-10)

    def test_example1_center_at_quarter_period(self):
        x = uniform_grid(-12.0, 12.0, 2048)
        psi = eval_psi(StateSpec(EXAMPLE1, 0), x, math.pi / 2)
        first, _ = quadrature_moment_rows(x, psi)
        assert first == pytest.approx(1.0, abs=1e-8)

    def test_vanishing_state_is_domain_error(self):
        # The density underflows to 0 everywhere; 0 / 0 is no moment.
        x = uniform_grid(-12.0, 12.0, 64)
        params = OscillatorParams(mu0=1.0, beta0=1.0, eps0=100.0)
        psi = eval_psi(StateSpec(params, 0), x, 0.0)
        with pytest.raises(DomainError, match="vanishes"):
            quadrature_moment_rows(x, psi)
        with pytest.raises(DomainError, match="vanishes"):
            quadrature_moment_rows(x, np.stack([hermite_function(0, x), psi]))


def split_step_rows(grid, rows):
    return split_step_propagate(grid, rows, 1.0, 128)


@pytest.mark.parametrize("transform", [dft_momentum_rows,
                                       quadrature_moment_rows,
                                       split_step_rows])
class TestRowChecks:
    """The row oracles check their grid and rows before any arithmetic, so a
    bad grid or row is a DomainError, never a NumPy error or warning."""

    def test_rejects_rows_off_the_grid(self, transform):
        x = uniform_grid(-12.0, 12.0, 1024)
        for rows in (np.zeros(10, dtype=complex),
                     np.zeros((2, 1023), dtype=complex),
                     np.zeros((2, 2, 1024), dtype=complex), 1.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError, match="amplitude rows"):
                    transform(x, rows)

    @pytest.mark.parametrize("value", [complex(math.inf, 0.0),
                                       complex(0.0, -math.inf),
                                       complex(math.nan, 0.0)])
    @pytest.mark.parametrize("at", [0, 500], ids=["boundary", "interior"])
    def test_rejects_non_finite_samples(self, transform, value, at):
        # On the boundary the sample would also trigger the decay warning.
        x = uniform_grid(-12.0, 12.0, 1024)
        rows = np.stack([hermite_function(n, x) for n in (0, 1)]).astype(
            complex)
        rows[1, at] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="amplitudes must be finite"):
                transform(x, rows)
            with pytest.raises(DomainError, match="amplitudes must be finite"):
                transform(x, rows[1])

    def test_empty_block_gives_an_empty_result(self, transform):
        x = uniform_grid(-12.0, 12.0, 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = transform(x, np.empty((0, 64), dtype=complex))
        # (0, N) rows, or the (means, variances) pair of (0,) rows.
        assert np.shape(out) in ((0, 64), (2, 0))

    @pytest.mark.parametrize("grid", [
        uniform_grid(-12.0, 12.0, 1024) ** 3 / 144.0,
        uniform_grid(-12.0, 12.0, 1024)[::-1],
        np.linspace(-12.0, 12.0, 15)],
        ids=["non-uniform", "reversed", "15-points"])
    def test_rejects_grids_that_check_grid_refuses(self, transform, grid):
        # Trapezoid sums with dx = grid[1] - grid[0] would weight such a grid
        # wrongly and return all the same.
        rows = hermite_function(0, grid).astype(complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="grid must be"):
                transform(grid, rows)
            with pytest.raises(DomainError, match="grid must be"):
                transform(grid, np.stack([rows, rows]))


class TestOracleTriangle:
    def test_propagator_and_residual_agree_on_exactness(self):
        # Two independent confirmations: the closed form has a tiny PDE
        # residual AND matches its own split-step evolution.
        x = uniform_grid(-12.0, 12.0, 1024)
        for params, n in ((EXAMPLE1, 1), (MINUNCERT, 0)):
            spec = StateSpec(params, n)
            evolved = split_step_propagate(x, eval_psi(spec, x, 0.0), 1.0, 4096)
            closed = eval_psi(spec, x, 1.0)
            assert l2_norm(evolved - closed, x[1] - x[0]) < 1e-5
            assert schrodinger_residual(spec, GRID, 1.0, 1e-4) < 1e-6
