import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dynosc import (ANNIHILATION, CREATION, DomainError, OscillatorParams,
                    SHIFTED_MOMENTUM, StateSpec, commutator, eval_psi,
                    eval_psi_invariant_frame, flow, hermite_function,
                    invariant, ladder, rayleigh, uniform_grid)
from dynosc.stencils import diff1, diff2, interior, l2_norm

SCHRODINGER = OscillatorParams(mu0=1.0, beta0=1.0)
EXAMPLE1 = OscillatorParams(mu0=1.5, beta0=2.0 / 3.0, delta0=1.0)
MINUNCERT = OscillatorParams(mu0=0.64 ** -0.25, alpha0=0.3, beta0=0.64 ** 0.25)

GRID = uniform_grid(-12.0, 12.0, 4096)
DX = float(GRID[1] - GRID[0])


def rel_gap(got, want, dx=DX, margin=8):
    return l2_norm(interior(got - want, margin), dx) / l2_norm(interior(want, margin), dx)


def gaussian_rows(span=9.0, points=1024):
    """A grid and two Gaussian rows on it, one of them boosted."""
    x = uniform_grid(-span, span, points)
    return x, np.array([np.exp(-0.5 * x * x),
                        np.exp(-(x - 0.8) ** 2 / 3.0 + 0.4j * x)])


def commutator_check(t, params, x, rows):
    """Largest relative residual of (a a' - a' a) psi = psi over the rows,
    and the Rayleigh quotient of the commutator on the worst row."""
    dx = float(x[1] - x[0])
    st = flow(params, t)
    commuted = commutator(st, x, rows, dx)
    rel = (l2_norm(interior(commuted - rows), dx)
           / l2_norm(interior(rows), dx))
    worst = int(np.argmax(rel))
    return rel[worst], rayleigh(rows[worst], commuted[worst], dx)


def invariant_estimate(spec, x, t):
    """Rayleigh estimate of E(t) on the closed form of spec at time t."""
    psi = eval_psi(spec, x, t)
    dx = float(x[1] - x[0])
    applied = invariant(flow(spec.params, t), x, psi, dx)
    return float(rayleigh(psi, applied, dx))


def hamiltonian(x, psi, dx=DX):
    """H psi = (-psi_xx + x^2 psi) / 2 with the 4th-order stencil."""
    return 0.5 * (-diff2(psi, dx) + x * x * psi)


class TestHamiltonian:
    def test_ground_state_eigenvalue(self):
        psi = hermite_function(0, GRID)
        diff = interior(hamiltonian(GRID, psi) - 0.5 * psi)
        assert np.max(np.abs(diff)) < 1e-8

    @pytest.mark.parametrize("n", range(7))
    def test_excited_eigenvalues_pointwise(self, n):
        psi = hermite_function(n, GRID)
        diff = interior(hamiltonian(GRID, psi) - (n + 0.5) * psi)
        assert np.max(np.abs(diff)) < 1e-7

    def test_zero_frame(self):
        zero = np.zeros_like(GRID, dtype=complex)
        assert np.all(hamiltonian(GRID, zero) == 0.0)


class TestLadder:
    def invariant_states(self, params, t, n_max=7):
        return {n: eval_psi_invariant_frame(StateSpec(params, n), GRID, t)
                for n in range(n_max + 1)}

    @pytest.mark.parametrize("params", [SCHRODINGER, EXAMPLE1, MINUNCERT])
    def test_vacuum_annihilation(self, params):
        t = 1.0
        states = self.invariant_states(params, t, 0)
        out = ladder(ANNIHILATION, flow(params, t), GRID, states[0], DX)
        rel = l2_norm(interior(out), DX) / l2_norm(interior(states[0]), DX)
        assert rel < 1e-7

    @pytest.mark.parametrize("params", [SCHRODINGER, EXAMPLE1, MINUNCERT])
    @pytest.mark.parametrize("t", [0.0, 1.7])
    def test_lowering_action(self, params, t):
        st = flow(params, t)
        states = self.invariant_states(params, t)
        for n in range(1, 7):
            got = ladder(ANNIHILATION, st, GRID, states[n], DX)
            assert rel_gap(got, math.sqrt(n) * states[n - 1]) < 1e-6

    @pytest.mark.parametrize("params", [SCHRODINGER, EXAMPLE1, MINUNCERT])
    @pytest.mark.parametrize("t", [0.0, 1.7])
    def test_raising_action(self, params, t):
        st = flow(params, t)
        states = self.invariant_states(params, t)
        for n in range(0, 6):
            got = ladder(CREATION, st, GRID, states[n], DX)
            gap = l2_norm(interior(got - math.sqrt(n + 1) * states[n + 1], 8), DX)
            assert gap / l2_norm(interior(states[n], 8), DX) < 1e-6

    def test_lowering_full_solution_picks_up_lewis_phase(self):
        # a(t) psi_n = sqrt(n) e^{2 i gamma(t)} psi_{n-1}
        t = 2.2
        params = EXAMPLE1
        st = flow(params, t)
        gamma = st.gamma
        psi2 = eval_psi(StateSpec(params, 2), GRID, t)
        psi1 = eval_psi(StateSpec(params, 1), GRID, t)
        got = ladder(ANNIHILATION, st, GRID, psi2, DX)
        want = math.sqrt(2.0) * np.exp(2j * gamma) * psi1
        assert rel_gap(got, want) < 1e-6

    def test_shifted_momentum_kind(self):
        t = 0.9
        st = flow(EXAMPLE1, t)
        psi = eval_psi(StateSpec(EXAMPLE1, 0), GRID, t)
        out = ladder(SHIFTED_MOMENTUM, st, GRID, psi, DX)
        lower = ladder(ANNIHILATION, st, GRID, psi, DX)
        raise_ = ladder(CREATION, st, GRID, psi, DX)
        # a - a' = i sqrt(2) A / beta  =>  A = beta (a - a') / (i sqrt(2))
        recomposed = st.beta * (lower - raise_) / (1j * math.sqrt(2.0))
        assert_allclose(out, recomposed, atol=1e-10)

    def test_operator_validation(self):
        psi = hermite_function(0, GRID)
        st = flow(EXAMPLE1, 0.9)
        with pytest.raises(DomainError, match="kind"):
            ladder("lower", st, GRID, psi, DX)
        flat = dataclasses.replace(st, beta=0.0)
        for kind in (ANNIHILATION, CREATION, SHIFTED_MOMENTUM):
            with pytest.raises(DomainError, match="beta"):
                ladder(kind, flat, GRID, psi, DX)


class TestInvariant:
    @pytest.mark.parametrize("params", [SCHRODINGER, EXAMPLE1, MINUNCERT])
    @pytest.mark.parametrize("n", [0, 2, 5])
    def test_eigenvalue_relation(self, params, n):
        t = 1.3
        psi = eval_psi(StateSpec(params, n), GRID, t)
        out = invariant(flow(params, t), GRID, psi, DX)
        assert rel_gap(out, (n + 0.5) * psi) < 1e-6

    def test_matches_hamiltonian_for_textbook_data(self):
        psi = eval_psi(StateSpec(SCHRODINGER, 3), GRID, 0.7)
        via_invariant = invariant(flow(SCHRODINGER, 0.7), GRID, psi, DX)
        via_hamiltonian = hamiltonian(GRID, psi)
        assert np.max(np.abs(interior(via_invariant - via_hamiltonian))) < 1e-8

    def test_estimate_is_time_independent(self):
        spec = StateSpec(EXAMPLE1, 4)
        estimates = []
        for t in (0.4, 2.9):
            estimates.append(invariant_estimate(spec, GRID, t))
        assert estimates[0] == pytest.approx(estimates[1], abs=1e-8)

    @pytest.mark.parametrize("params", [SCHRODINGER, EXAMPLE1, MINUNCERT])
    def test_rayleigh_spectrum(self, params):
        for n in range(7):
            spec = StateSpec(params, n)
            for t in (0.0, math.pi / 2.0):
                estimate = invariant_estimate(
                    spec, uniform_grid(-12.0, 12.0, 8192), t)
                assert estimate == pytest.approx(n + 0.5, abs=1e-7)

    @pytest.mark.parametrize("params", [EXAMPLE1, MINUNCERT])
    def test_block_equals_frame_calls(self, params):
        # Parameters as (T, 1) columns give the bits of one row at a time
        # with scalar parameters.
        spec = StateSpec(params, 3)
        times = np.array([0.0, 0.4, 2.9])
        st = flow(params, times[:, None])
        block = eval_psi(spec, GRID, times)
        applied = invariant(st, GRID, block, DX)
        lowered = ladder(ANNIHILATION, st, GRID, block, DX)
        estimates = rayleigh(block, applied, DX)
        for k, t in enumerate(times):
            row, at_t = eval_psi(spec, GRID, t), flow(params, t)
            for got, want in (
                    (applied[k], invariant(at_t, GRID, row, DX)),
                    (lowered[k], ladder(ANNIHILATION, at_t, GRID, row, DX))):
                assert np.array_equal(interior(got).view(np.uint64),
                                      interior(want).view(np.uint64))
            assert estimates[k] == invariant_estimate(spec, GRID, t)

    def test_weak_form_invariance_over_time(self):
        # <psi, E psi> on the evolving closed form stays n + 1/2 throughout.
        spec = StateSpec(MINUNCERT, 3)
        grid = uniform_grid(-12.0, 12.0, 8192)
        for t in np.linspace(0.0, 2.0 * math.pi, 16):
            assert abs(invariant_estimate(spec, grid, t) - 3.5) < 1e-7


class TestCommutator:
    @pytest.mark.parametrize("params,t", [(SCHRODINGER, 0.0), (EXAMPLE1, 1.0),
                                          (MINUNCERT, 2.4)])
    def test_canonical_commutation(self, params, t):
        residual, estimate = commutator_check(t, params, *gaussian_rows())
        assert residual < 1e-7
        assert estimate == pytest.approx(1.0, abs=1e-7)

    def test_refinement_shrinks_residual(self):
        coarse, _ = commutator_check(1.0, EXAMPLE1, *gaussian_rows(9.0, 512))
        fine, _ = commutator_check(1.0, EXAMPLE1, *gaussian_rows(9.0, 1024))
        assert coarse / fine >= 8.0


class TestStencilOrder:
    def test_eigen_residual_fourth_order(self):
        spec = StateSpec(EXAMPLE1, 3)
        t = 0.8
        residuals = {}
        for points in (2048, 4096):
            grid = uniform_grid(-12.0, 12.0, points)
            residuals[points] = abs(invariant_estimate(spec, grid, t) - 3.5)
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
