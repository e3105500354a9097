import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dynosc import (ANNIHILATION, CREATION, DomainError, FirstOrderOperator,
                    MOMENTUM, OscillatorParams, POSITION, SHIFTED_MOMENTUM,
                    StateSpec, WaveFrame, apply_hamiltonian, apply_invariant,
                    apply_ladder, commutator_check, eval_psi,
                    eval_psi_invariant_frame, flow, hermite_function,
                    sample_frame, uniform_grid)
from dynosc.operators import invariant, invariant_estimate, ladder, rayleigh
from dynosc.stencils import diff1, diff2, interior, l2_norm

SCHRODINGER = OscillatorParams(mu0=1.0, beta0=1.0)
EXAMPLE1 = OscillatorParams(mu0=1.5, beta0=2.0 / 3.0, delta0=1.0)
MINUNCERT = OscillatorParams(mu0=0.64 ** -0.25, alpha0=0.3, beta0=0.64 ** 0.25)

GRID = uniform_grid(-12.0, 12.0, 4096)
DX = float(GRID[1] - GRID[0])


def rel_gap(got, want, dx=DX, margin=8):
    return l2_norm(interior(got - want, margin), dx) / l2_norm(interior(want, margin), dx)


def gaussian_frames(span=9.0, points=1024):
    x = uniform_grid(-span, span, points)
    shapes = [np.exp(-0.5 * x * x),
              np.exp(-(x - 0.8) ** 2 / 3.0 + 0.4j * x)]
    return [WaveFrame(POSITION, 0.0, x, s) for s in shapes]


class TestHamiltonian:
    def test_ground_state_eigenvalue(self):
        frame = WaveFrame(POSITION, 0.0, GRID, hermite_function(0, GRID))
        out = apply_hamiltonian(frame)
        diff = interior(out.amplitudes - 0.5 * frame.amplitudes)
        assert np.max(np.abs(diff)) < 1e-8

    @pytest.mark.parametrize("n", range(7))
    def test_excited_eigenvalues_pointwise(self, n):
        frame = WaveFrame(POSITION, 0.0, GRID, hermite_function(n, GRID))
        out = apply_hamiltonian(frame)
        diff = interior(out.amplitudes - (n + 0.5) * frame.amplitudes)
        assert np.max(np.abs(diff)) < 1e-7

    def test_zero_frame(self):
        frame = WaveFrame(POSITION, 0.0, GRID, np.zeros_like(GRID, dtype=complex))
        assert np.all(apply_hamiltonian(frame).amplitudes == 0.0)

    def test_rejects_momentum_frame(self):
        frame = WaveFrame(MOMENTUM, 0.0, GRID, hermite_function(0, GRID))
        with pytest.raises(DomainError):
            apply_hamiltonian(frame)


class TestLadder:
    def invariant_states(self, params, t, n_max=7):
        return {n: eval_psi_invariant_frame(StateSpec(params, n), GRID, t)
                for n in range(n_max + 1)}

    @pytest.mark.parametrize("params", [SCHRODINGER, EXAMPLE1, MINUNCERT])
    def test_vacuum_annihilation(self, params):
        t = 1.0
        lower = FirstOrderOperator.at_time(ANNIHILATION, params, t)
        states = self.invariant_states(params, t, 0)
        frame = WaveFrame(POSITION, t, GRID, states[0])
        out = apply_ladder(lower, frame)
        rel = l2_norm(interior(out.amplitudes), DX) / l2_norm(interior(states[0]), DX)
        assert rel < 1e-7

    @pytest.mark.parametrize("params", [SCHRODINGER, EXAMPLE1, MINUNCERT])
    @pytest.mark.parametrize("t", [0.0, 1.7])
    def test_lowering_action(self, params, t):
        lower = FirstOrderOperator.at_time(ANNIHILATION, params, t)
        states = self.invariant_states(params, t)
        for n in range(1, 7):
            frame = WaveFrame(POSITION, t, GRID, states[n])
            got = apply_ladder(lower, frame).amplitudes
            assert rel_gap(got, math.sqrt(n) * states[n - 1]) < 1e-6

    @pytest.mark.parametrize("params", [SCHRODINGER, EXAMPLE1, MINUNCERT])
    @pytest.mark.parametrize("t", [0.0, 1.7])
    def test_raising_action(self, params, t):
        raise_ = FirstOrderOperator.at_time(CREATION, params, t)
        states = self.invariant_states(params, t)
        for n in range(0, 6):
            frame = WaveFrame(POSITION, t, GRID, states[n])
            got = apply_ladder(raise_, frame).amplitudes
            gap = l2_norm(interior(got - math.sqrt(n + 1) * states[n + 1], 8), DX)
            assert gap / l2_norm(interior(states[n], 8), DX) < 1e-6

    def test_lowering_full_solution_picks_up_lewis_phase(self):
        # a(t) psi_n = sqrt(n) e^{2 i gamma(t)} psi_{n-1}
        t = 2.2
        params = EXAMPLE1
        lower = FirstOrderOperator.at_time(ANNIHILATION, params, t)
        gamma = flow(params, t).gamma
        psi2 = eval_psi(StateSpec(params, 2), GRID, t)
        psi1 = eval_psi(StateSpec(params, 1), GRID, t)
        got = apply_ladder(lower, WaveFrame(POSITION, t, GRID, psi2)).amplitudes
        want = math.sqrt(2.0) * np.exp(2j * gamma) * psi1
        assert rel_gap(got, want) < 1e-6

    def test_shifted_momentum_kind(self):
        t = 0.9
        st = flow(EXAMPLE1, t)
        op = FirstOrderOperator(SHIFTED_MOMENTUM, st.alpha, st.beta, st.delta,
                                st.eps)
        psi = eval_psi(StateSpec(EXAMPLE1, 0), GRID, t)
        out = apply_ladder(op, WaveFrame(POSITION, t, GRID, psi)).amplitudes
        lower = apply_ladder(
            FirstOrderOperator(ANNIHILATION, st.alpha, st.beta, st.delta, st.eps),
            WaveFrame(POSITION, t, GRID, psi)).amplitudes
        raise_ = apply_ladder(
            FirstOrderOperator(CREATION, st.alpha, st.beta, st.delta, st.eps),
            WaveFrame(POSITION, t, GRID, psi)).amplitudes
        # a - a' = i sqrt(2) A / beta  =>  A = beta (a - a') / (i sqrt(2))
        recomposed = st.beta * (lower - raise_) / (1j * math.sqrt(2.0))
        assert_allclose(out, recomposed, atol=1e-10)

    def test_operator_validation(self):
        with pytest.raises(DomainError):
            FirstOrderOperator("lower", 0.0, 1.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            FirstOrderOperator(ANNIHILATION, 0.0, 0.0, 0.0, 0.0)


class TestInvariant:
    @pytest.mark.parametrize("params", [SCHRODINGER, EXAMPLE1, MINUNCERT])
    @pytest.mark.parametrize("n", [0, 2, 5])
    def test_eigenvalue_relation(self, params, n):
        t = 1.3
        spec = StateSpec(params, n)
        frame = sample_frame(spec, POSITION, GRID, t)
        out = apply_invariant(spec, frame, t)
        assert rel_gap(out.amplitudes, (n + 0.5) * frame.amplitudes) < 1e-6

    def test_matches_hamiltonian_for_textbook_data(self):
        spec = StateSpec(SCHRODINGER, 3)
        frame = sample_frame(spec, POSITION, GRID, 0.7)
        via_invariant = apply_invariant(spec, frame, 0.7).amplitudes
        via_hamiltonian = apply_hamiltonian(frame).amplitudes
        assert np.max(np.abs(interior(via_invariant - via_hamiltonian))) < 1e-8

    def test_estimate_is_time_independent(self):
        spec = StateSpec(EXAMPLE1, 4)
        estimates = []
        for t in (0.4, 2.9):
            frame = sample_frame(spec, POSITION, GRID, t)
            estimates.append(invariant_estimate(spec, frame, t))
        assert estimates[0] == pytest.approx(estimates[1], abs=1e-8)

    @pytest.mark.parametrize("params", [SCHRODINGER, EXAMPLE1, MINUNCERT])
    def test_rayleigh_spectrum(self, params):
        for n in range(7):
            spec = StateSpec(params, n)
            for t in (0.0, math.pi / 2.0):
                frame = sample_frame(spec, POSITION,
                                     uniform_grid(-12.0, 12.0, 8192), t)
                estimate = invariant_estimate(spec, frame, t)
                assert estimate == pytest.approx(n + 0.5, abs=1e-7)

    @pytest.mark.parametrize("params", [EXAMPLE1, MINUNCERT])
    def test_block_equals_frame_calls(self, params):
        # Parameters as (T, 1) columns give the bits of one frame at a time.
        spec = StateSpec(params, 3)
        times = np.array([0.0, 0.4, 2.9])
        st = flow(params, times[:, None])
        block = eval_psi(spec, GRID, times)
        applied = invariant(st, GRID, block, DX)
        lowered = ladder(ANNIHILATION, st, GRID, block, DX)
        estimates = rayleigh(block, applied, DX)
        for k, t in enumerate(times):
            frame = sample_frame(spec, POSITION, GRID, t)
            lower = FirstOrderOperator.at_time(ANNIHILATION, params, t)
            for got, want in (
                    (applied[k], apply_invariant(spec, frame, t).amplitudes),
                    (lowered[k], apply_ladder(lower, frame).amplitudes)):
                assert np.array_equal(interior(got).view(np.uint64),
                                      interior(want).view(np.uint64))
            assert estimates[k] == invariant_estimate(spec, frame, t)

    def test_weak_form_invariance_over_time(self):
        # <psi, E psi> on the evolving closed form stays n + 1/2 throughout.
        spec = StateSpec(MINUNCERT, 3)
        grid = uniform_grid(-12.0, 12.0, 8192)
        for t in np.linspace(0.0, 2.0 * math.pi, 16):
            frame = sample_frame(spec, POSITION, grid, t)
            assert abs(invariant_estimate(spec, frame, t) - 3.5) < 1e-7


class TestCommutator:
    @pytest.mark.parametrize("params,t", [(SCHRODINGER, 0.0), (EXAMPLE1, 1.0),
                                          (MINUNCERT, 2.4)])
    def test_canonical_commutation(self, params, t):
        report = commutator_check(t, params, gaussian_frames())
        assert report.residual_l2 < 1e-7
        assert report.eigenvalue_estimate == pytest.approx(1.0, abs=1e-7)

    def test_refinement_shrinks_residual(self):
        coarse = commutator_check(1.0, EXAMPLE1, gaussian_frames(9.0, 512))
        fine = commutator_check(1.0, EXAMPLE1, gaussian_frames(9.0, 1024))
        assert coarse.residual_l2 / fine.residual_l2 >= 8.0


class TestStencilOrder:
    def test_eigen_residual_fourth_order(self):
        spec = StateSpec(EXAMPLE1, 3)
        t = 0.8
        residuals = {}
        for points in (2048, 4096):
            frame = sample_frame(spec, POSITION,
                                 uniform_grid(-12.0, 12.0, points), t)
            residuals[points] = abs(invariant_estimate(spec, frame, t) - 3.5)
        ratio = residuals[2048] / residuals[4096]
        assert 12.0 <= ratio <= 20.0

    @pytest.mark.parametrize("diff", [diff1, diff2])
    def test_block_rows_equal_row_calls(self, diff):
        # Bit for bit on the interior; the one-sided edge samples of a block
        # come from matrix-vector products and lie inside the margin.
        rng = np.random.default_rng(5)
        block = rng.normal(size=(4, 3, 512, 2)).view(complex)[..., 0]
        got = interior(diff(block, DX))
        for index in np.ndindex(block.shape[:-1]):
            want = interior(diff(block[index], DX))
            assert np.array_equal(got[index].view(np.uint64),
                                  want.view(np.uint64))
