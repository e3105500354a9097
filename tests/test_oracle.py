import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dynosc import (DomainError, MINUS_GAMMA, MINUS_TWO_GAMMA, MOMENTUM,
                    OscillatorParams, POSITION, PrecisionWarning,
                    ResidualReport, StateSpec, WaveFrame, comoving_frame,
                    comoving_residual, dft_momentum, eval_momentum, eval_psi,
                    hermite_function, idft_position, quadrature_moment,
                    sample_frame, schrodinger_residual, split_step_propagate,
                    uniform_grid)
from dynosc.stencils import diff1, diff2, interior, l2_norm

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
        report = schrodinger_residual(StateSpec(SCHRODINGER, 0), GRID, 0.7, 1e-4)
        assert report.l2_relative < 1e-6
        assert report.grid_points == 1024 - 16

    def test_example1_excited_state(self):
        report = schrodinger_residual(StateSpec(EXAMPLE1, 1), GRID, 2.0, 1e-4)
        assert report.l2_relative < 1e-6

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
        big = schrodinger_residual(spec, grid, 0.7, 1e-2).l2_relative
        small = schrodinger_residual(spec, grid, 0.7, 5e-3).l2_relative
        assert 3.5 <= big / small <= 4.5

    def test_spatial_convergence_is_fourth_order(self):
        spec = StateSpec(SCHRODINGER, 2)
        coarse = schrodinger_residual(spec, uniform_grid(-8, 8, 512), 0.7,
                                      1e-6).l2_relative
        fine = schrodinger_residual(spec, uniform_grid(-8, 8, 1024), 0.7,
                                    1e-6).l2_relative
        assert 12.0 <= coarse / fine <= 20.0


class TestResidualReport:
    def test_norm_inequality_enforced(self):
        with pytest.raises(ValueError):
            ResidualReport(l2_relative=10.0, linf_relative=0.1, grid_points=4,
                           dt=1e-4)

    def test_requires_positive_dt(self):
        with pytest.raises(ValueError):
            ResidualReport(0.0, 0.0, 4, 0.0)


def uncached_transform(frame, grid, phase):
    """The quadrature with a freshly built e^{phase k x} kernel."""
    weights = np.full(frame.grid.size, frame.dx)
    weights[0] = weights[-1] = 0.5 * frame.dx
    kernel = np.exp(phase * np.outer(grid, frame.grid))
    return kernel @ (weights * frame.amplitudes) / math.sqrt(2.0 * math.pi)


class TestFourier:
    def test_gaussian_self_transform(self):
        x = uniform_grid(-12.0, 12.0, 1024)
        frame = WaveFrame(POSITION, 0.0, x, hermite_function(0, x))
        out = dft_momentum(frame)
        assert out.representation == MOMENTUM
        assert_allclose(out.amplitudes, hermite_function(0, x), atol=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_hermite_eigenfunctions(self, n):
        x = uniform_grid(-12.0, 12.0, 1024)
        frame = WaveFrame(POSITION, 0.0, x, hermite_function(n, x))
        out = dft_momentum(frame)
        expected = (-1j) ** n * hermite_function(n, x)
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-9

    def test_adjudicates_momentum_map(self):
        x = uniform_grid(-14.0, 14.0, 1024)
        spec = StateSpec(EXAMPLE3, 0)
        numeric = dft_momentum(sample_frame(spec, POSITION, x, 0.0))
        closed = eval_momentum(spec, x, 0.0)
        gap = l2_norm(numeric.amplitudes - closed, numeric.dx)
        assert gap < 1e-8

    def test_round_trip(self):
        x = uniform_grid(-12.0, 12.0, 1024)
        spec = StateSpec(EXAMPLE1, 2)
        frame = sample_frame(spec, POSITION, x, 1.3)
        back = idft_position(dft_momentum(frame))
        assert l2_norm(back.amplitudes - frame.amplitudes, frame.dx) < 1e-10

    def test_parseval(self):
        x = uniform_grid(-12.0, 12.0, 1024)
        for spec in (StateSpec(EXAMPLE1, 0), StateSpec(MINUNCERT, 4)):
            frame = sample_frame(spec, POSITION, x, 0.9)
            out = dft_momentum(frame)
            assert out.norm() == pytest.approx(frame.norm(), abs=1e-10)

    def test_warns_on_poor_boundary_decay(self):
        x = uniform_grid(-3.0, 3.0, 256)
        frame = sample_frame(StateSpec(SCHRODINGER, 0), POSITION, x, 0.0)
        with pytest.warns(PrecisionWarning):
            dft_momentum(frame)

    def test_rejects_wrong_representation(self):
        x = uniform_grid(-12.0, 12.0, 256)
        pos = sample_frame(StateSpec(SCHRODINGER, 0), POSITION, x, 0.0)
        mom = dft_momentum(pos)
        with pytest.raises(DomainError):
            dft_momentum(mom)
        with pytest.raises(DomainError):
            idft_position(pos)

    # The kernel built in strips must reproduce the quadrature with a kernel
    # built whole, bit for bit, whatever order grids and signs arrive in.
    def test_alternating_grids(self):
        spec = StateSpec(EXAMPLE3, 1)
        frames = [sample_frame(spec, POSITION, uniform_grid(-a, a, 1024), 0.4)
                  for a in (12.0, 14.0, 12.0)]
        for frame in frames:
            out = dft_momentum(frame)
            assert np.all(out.amplitudes
                          == uncached_transform(frame, frame.grid, -1j))

    def test_alternating_directions(self):
        x = uniform_grid(-12.0, 12.0, 1024)
        pos = sample_frame(StateSpec(EXAMPLE1, 2), POSITION, x, 1.3)
        for _ in range(2):
            mom = dft_momentum(pos)
            assert np.all(mom.amplitudes == uncached_transform(pos, x, -1j))
            back = idft_position(mom)
            assert np.all(back.amplitudes == uncached_transform(mom, x, 1j))

    def test_grid_mutated_in_place(self):
        # Each call builds the kernel from the grid values it is given.
        x = uniform_grid(-12.0, 12.0, 1024)
        pos = sample_frame(StateSpec(EXAMPLE3, 0), POSITION, x, 0.0)
        first = dft_momentum(pos).amplitudes.copy()
        pos.grid.setflags(write=True)
        pos.grid[:] *= 0.5
        second = dft_momentum(pos).amplitudes
        assert np.all(second == uncached_transform(pos, pos.grid, -1j))
        assert not np.all(second == first)

    def test_written_amplitudes_leave_the_kernel_alone(self):
        x = uniform_grid(-12.0, 12.0, 1024)
        pos = sample_frame(StateSpec(MINUNCERT, 4), POSITION, x, 0.9)
        out = dft_momentum(pos)
        # The frame freezes its amplitudes, but it owns them, so they can be
        # made writable again without touching anything shared.
        out.amplitudes.setflags(write=True)
        out.amplitudes[:] = 7.0
        again = dft_momentum(pos)
        assert np.all(again.amplitudes == uncached_transform(pos, x, -1j))


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
        report = comoving_residual(StateSpec(SCHRODINGER, 0), 0.8,
                                   MINUS_TWO_GAMMA)
        assert report.l2_relative < 1e-6

    def test_textbook_case_half_speed_clock_fails(self):
        report = comoving_residual(StateSpec(SCHRODINGER, 0), 0.8, MINUS_GAMMA)
        assert report.l2_relative > 0.5

    @pytest.mark.parametrize("params,n", [(EXAMPLE1, 0), (EXAMPLE1, 1),
                                          (EXAMPLE3, 0), (MINUNCERT, 2)])
    def test_general_case(self, params, n):
        spec = StateSpec(params, n)
        assert comoving_residual(spec, 0.8, MINUS_TWO_GAMMA).l2_relative < 1e-6
        assert comoving_residual(spec, 0.8, MINUS_GAMMA).l2_relative > 0.5

    def test_frame_reconstruction_is_static_hermite(self):
        # chi(xi, tau) = e^{-i(2n+1) tau / 2} phi_n(xi) under the winning clock.
        spec = StateSpec(EXAMPLE1, 1)
        frame = comoving_frame(spec, 1.1, MINUS_TWO_GAMMA)
        expected = np.exp(-1.5j * frame.tau) * hermite_function(1, frame.xi_grid)
        assert_allclose(frame.chi, expected, atol=1e-12)

    def test_rejects_unknown_convention(self):
        with pytest.raises(DomainError):
            comoving_residual(StateSpec(SCHRODINGER, 0), 0.8, "minus_three")


class TestQuadratureMoment:
    def test_ground_state_variance(self):
        x = uniform_grid(-12.0, 12.0, 2048)
        frame = WaveFrame(POSITION, 0.0, x, hermite_function(0, x))
        assert quadrature_moment(frame, 2) == pytest.approx(0.5, abs=1e-10)

    def test_example1_center_at_quarter_period(self):
        x = uniform_grid(-12.0, 12.0, 2048)
        frame = sample_frame(StateSpec(EXAMPLE1, 0), POSITION, x, math.pi / 2)
        assert quadrature_moment(frame, 1) == pytest.approx(1.0, abs=1e-8)

    def test_zeroth_moment_is_one(self):
        x = uniform_grid(-12.0, 12.0, 256)
        frame = sample_frame(StateSpec(EXAMPLE3, 0), POSITION, x, 0.4)
        assert quadrature_moment(frame, 0) == 1.0

    def test_vanishing_state_is_domain_error(self):
        # The density underflows to 0 everywhere; 0 / 0 is no moment.
        x = uniform_grid(-12.0, 12.0, 64)
        params = OscillatorParams(mu0=1.0, beta0=1.0, eps0=100.0)
        frame = sample_frame(StateSpec(params, 0), POSITION, x, 0.0)
        for power in (0, 1, 2):
            with pytest.raises(DomainError, match="vanishes"):
                quadrature_moment(frame, power)

    def test_rejects_higher_powers(self):
        x = uniform_grid(-12.0, 12.0, 256)
        frame = sample_frame(StateSpec(EXAMPLE3, 0), POSITION, x, 0.4)
        with pytest.raises(DomainError):
            quadrature_moment(frame, 3)


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
            assert schrodinger_residual(spec, GRID, 1.0, 1e-4).l2_relative < 1e-6
