import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dynosc import (DomainError, MOMENTUM, OscillatorParams, POSITION,
                    StateSpec, WaveFrame, classical_moments, dft_momentum,
                    eval_momentum, eval_psi, eval_psi_invariant_frame, flow,
                    hermite, hermite_function, quadrature_moment,
                    sample_frame, uniform_grid)
from dynosc import pool, verification
from dynosc.cli import main
from dynosc.config import preset_config

SCHRODINGER = OscillatorParams(mu0=1.0, beta0=1.0)
EXAMPLE1 = OscillatorParams(mu0=1.5, beta0=2.0 / 3.0, delta0=1.0)
EXAMPLE3 = OscillatorParams(mu0=1.5, beta0=2.0 / 3.0, delta0=1.5)
MINUNCERT = OscillatorParams(mu0=0.64 ** -0.25, alpha0=0.3, beta0=0.64 ** 0.25)

X = uniform_grid(-12.0, 12.0, 1024)
TIMES = [2.0 * math.pi * k / 8.0 for k in range(8)]


class TestEvalPsi:
    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_schrodinger_stationary_states(self, n):
        spec = StateSpec(SCHRODINGER, n)
        static = hermite_function(n, X)
        for t in (0.0, 0.9, 4.4):
            expected = static * np.exp(-1j * (n + 0.5) * t)
            assert_allclose(eval_psi(spec, X, t), expected, atol=1e-14)

    def test_initial_data_closed_form(self):
        params = OscillatorParams(mu0=0.8, alpha0=0.4, beta0=-1.2, gamma0=0.3,
                                  delta0=-0.7, eps0=0.5, kappa0=1.1)
        n = 3
        phase = np.exp(1j * (params.alpha0 * X ** 2 + params.delta0 * X
                             + params.kappa0)
                       + 1j * (2 * n + 1) * params.gamma0)
        xi = params.beta0 * X + params.eps0
        envelope = np.exp(-xi ** 2 / 2.0) * hermite(n, xi) / math.sqrt(
            2.0 ** n * math.factorial(n) * params.mu0 * math.sqrt(math.pi))
        assert_allclose(eval_psi(StateSpec(params, n), X, 0.0),
                        phase * envelope, rtol=1e-12, atol=1e-15)

    def test_example1_density_formula(self):
        spec = StateSpec(EXAMPLE1, 0)
        for t in TIMES:
            den = 97.0 + 65.0 * math.cos(2.0 * t)
            expected = np.sqrt(72.0 / (math.pi * den)) * np.exp(
                -72.0 * (X - math.sin(t)) ** 2 / den)
            assert_allclose(np.abs(eval_psi(spec, X, t)) ** 2, expected,
                            rtol=1e-11, atol=1e-15)

    def test_scalar_input(self):
        value = eval_psi(StateSpec(SCHRODINGER, 0), 0.0, 0.0)
        assert isinstance(value, complex)
        assert value == pytest.approx(math.pi ** -0.25)

    def test_continuity_across_gamma_branch_points(self):
        # Where 2 alpha0 sin t + cos t crosses zero a principal-branch gamma
        # would jump; the continuous branch keeps the state continuous in t.
        cases = [(StateSpec(MINUNCERT, 2), math.atan2(1.0, -2.0 * MINUNCERT.alpha0)),
                 (StateSpec(EXAMPLE1, 1), math.pi / 2.0),
                 (StateSpec(EXAMPLE3, 0), math.pi / 2.0)]
        for spec, t_star in cases:
            for t in (t_star - 5e-7, t_star, t_star + 5e-7):
                jump = np.max(np.abs(eval_psi(spec, X, t + 1e-6)
                                     - eval_psi(spec, X, t)))
                assert jump <= 1e-4


class TestInvariantFrame:
    def test_schrodinger_ground_state_is_static(self):
        spec = StateSpec(SCHRODINGER, 0)
        base = eval_psi_invariant_frame(spec, X, 0.0)
        for t in (0.8, 2.4, 5.9):
            assert_allclose(eval_psi_invariant_frame(spec, X, t), base,
                            atol=1e-14)

    def test_equals_psi_when_gamma0_zero_at_t0(self):
        spec = StateSpec(EXAMPLE1, 2)
        assert_allclose(eval_psi_invariant_frame(spec, X, 0.0),
                        eval_psi(spec, X, 0.0), atol=1e-15)

    def test_lewis_phase_relation_pointwise(self):
        for spec in (StateSpec(EXAMPLE1, 1), StateSpec(MINUNCERT, 3)):
            for t in (0.6, 2.1):
                gamma = flow(spec.params, t).gamma
                lhs = eval_psi(spec, X, t)
                rhs = np.exp(1j * (2 * spec.n + 1) * gamma) \
                    * eval_psi_invariant_frame(spec, X, t)
                assert_allclose(lhs, rhs, atol=1e-14)

    def test_first_excited_node_sits_at_mean(self):
        spec = StateSpec(EXAMPLE1, 1)
        for t in (0.4, 1.9, 3.3):
            center = classical_moments(EXAMPLE1, 1, t).mean_x
            assert abs(eval_psi_invariant_frame(spec, center, t)) < 1e-13


class TestNormalizationAndOrthogonality:
    @pytest.mark.parametrize("params", [SCHRODINGER, EXAMPLE1, EXAMPLE3,
                                        MINUNCERT])
    def test_norm_squared_is_inverse_mu0_beta0(self, params, random_params):
        grid = uniform_grid(-16.0, 16.0, 4096)
        expected = 1.0 / (params.mu0 * abs(params.beta0))
        for n in (0, 4, 10):
            for t in (0.0, 1.1, 4.7):
                frame = sample_frame(StateSpec(params, n), POSITION, grid, t)
                assert frame.norm() ** 2 == pytest.approx(expected, abs=1e-10)

    def test_norm_for_random_family(self, random_params):
        grid = uniform_grid(-24.0, 24.0, 6144)
        for params in random_params[:4]:
            expected = 1.0 / (params.mu0 * abs(params.beta0))
            frame = sample_frame(StateSpec(params, 6), POSITION, grid, 2.2)
            assert frame.norm() ** 2 == pytest.approx(expected, rel=1e-9)

    def test_orthogonality(self):
        grid = uniform_grid(-16.0, 16.0, 4096)
        dx = grid[1] - grid[0]
        t = 1.3
        states = [eval_psi(StateSpec(EXAMPLE1, n), grid, t) for n in range(9)]
        expected = 1.0 / (EXAMPLE1.mu0 * abs(EXAMPLE1.beta0))
        for m in range(9):
            for n in range(9):
                inner = np.trapezoid(np.conj(states[m]) * states[n], dx=dx)
                target = expected if m == n else 0.0
                assert abs(inner - target) < 1e-9


class TestMomentAgreement:
    @pytest.mark.parametrize("params,n", [(EXAMPLE1, 0), (EXAMPLE3, 1),
                                          (MINUNCERT, 2)])
    def test_quadrature_matches_closed_forms(self, params, n):
        grid = uniform_grid(-16.0, 16.0, 2048)
        for t in (0.0, 0.9, 2.6):
            m = classical_moments(params, n, t)
            pos = sample_frame(StateSpec(params, n), POSITION, grid, t)
            mom = dft_momentum(pos)
            mean_x = quadrature_moment(pos, 1)
            mean_p = quadrature_moment(mom, 1)
            var_x = quadrature_moment(pos, 2) - mean_x ** 2
            var_p = quadrature_moment(mom, 2) - mean_p ** 2
            assert mean_x == pytest.approx(m.mean_x, abs=1e-8)
            assert mean_p == pytest.approx(m.mean_p, abs=1e-8)
            assert var_x == pytest.approx(m.var_x, abs=1e-8)
            assert var_p == pytest.approx(m.var_p, abs=1e-8)


class TestMomentumRepresentation:
    def test_schrodinger_gaussian_self_transform(self):
        spec = StateSpec(SCHRODINGER, 0)
        for t in (0.0, 1.2):
            expected = math.pi ** -0.25 * np.exp(-X ** 2 / 2.0) \
                * np.exp(-1j * t / 2.0)
            assert_allclose(eval_momentum(spec, X, t), expected, atol=1e-14)

    def test_example3_momentum_width(self):
        grid = uniform_grid(-14.0, 14.0, 2048)
        spec = StateSpec(EXAMPLE3, 0)
        for t in TIMES:
            frame = sample_frame(spec, MOMENTUM, grid, t)
            mean_p = quadrature_moment(frame, 1)
            var_p = quadrature_moment(frame, 2) - mean_p ** 2
            assert var_p == pytest.approx(
                (97.0 - 65.0 * math.cos(2.0 * t)) / 144.0, abs=1e-10)

    def test_matches_transform_oracle(self):
        grid = uniform_grid(-14.0, 14.0, 1024)
        for n in (0, 1):
            spec = StateSpec(EXAMPLE3, n)
            pos = sample_frame(spec, POSITION, grid, 0.0)
            numeric = dft_momentum(pos)
            closed = eval_momentum(spec, grid, 0.0)
            gap = np.sqrt(np.trapezoid(np.abs(numeric.amplitudes - closed) ** 2,
                                       dx=pos.dx))
            assert gap < 1e-8


class TestSampleFrame:
    def test_schrodinger_frame_norm(self):
        frame = sample_frame(StateSpec(SCHRODINGER, 0), POSITION,
                             uniform_grid(-10.0, 10.0, 512), 0.0)
        assert frame.norm() == pytest.approx(1.0, abs=1e-10)

    def test_example1_peak_tracks_center(self):
        grid = uniform_grid(-12.0, 12.0, 512)
        frame = sample_frame(StateSpec(EXAMPLE1, 0), POSITION, grid,
                             math.pi / 2.0)
        peak = grid[int(np.argmax(frame.density()))]
        assert abs(peak - 1.0) <= frame.dx

    def test_example2_density_is_bimodal_with_node_at_center(self):
        grid = uniform_grid(-12.0, 12.0, 2048)
        for t in (0.7, math.pi / 2.0, 2.9):
            frame = sample_frame(StateSpec(EXAMPLE1, 1), POSITION, grid, t)
            node = math.sin(t)
            density = frame.density()
            assert abs(eval_psi(StateSpec(EXAMPLE1, 1), node, t)) < 1e-13
            left = density[grid < node - frame.dx]
            right = density[grid > node + frame.dx]
            floor = density[np.argmin(np.abs(grid - node))]
            assert left.max() > 100 * floor
            assert right.max() > 100 * floor

    def test_momentum_tag(self):
        frame = sample_frame(StateSpec(EXAMPLE3, 0), MOMENTUM, X, 0.3)
        assert frame.representation == MOMENTUM

    def test_rejects_unknown_representation(self):
        with pytest.raises(DomainError):
            sample_frame(StateSpec(SCHRODINGER, 0), "angle", X, 0.0)

    def test_rejects_bad_grids(self):
        spec = StateSpec(SCHRODINGER, 0)
        with pytest.raises(DomainError):
            sample_frame(spec, POSITION, 0.5, 0.0)
        with pytest.raises(DomainError):
            sample_frame(spec, POSITION, np.linspace(0, 1, 8), 0.0)
        with pytest.raises(DomainError):
            sample_frame(spec, POSITION, np.linspace(1, -1, 64), 0.0)
        with pytest.raises(DomainError):
            sample_frame(spec, POSITION, np.sort(np.random.default_rng(0)
                                                 .uniform(-1, 1, 64)), 0.0)


class TestWaveFrame:
    def test_grid_is_read_only(self):
        frame = sample_frame(StateSpec(SCHRODINGER, 0), POSITION, X, 0.0)
        with pytest.raises(ValueError):
            frame.grid[0] = 99.0

    def test_caller_arrays_stay_writable_and_apart(self):
        grid = uniform_grid(-12.0, 12.0, 64)
        amps = hermite_function(0, grid).astype(complex)
        frame = WaveFrame(POSITION, 0.0, grid, amps)
        derived = frame.with_amplitudes(2.0 * amps)
        assert grid.flags.writeable and amps.flags.writeable
        grid_before, amps_before = grid.copy(), amps.copy()
        grid *= 3.0
        amps[:] = 7.0
        for held in (frame, derived):
            assert not held.grid.flags.writeable
            assert not held.amplitudes.flags.writeable
            assert np.all(held.grid == grid_before)
        assert np.all(frame.amplitudes == amps_before)
        assert np.all(derived.amplitudes == 2.0 * amps_before)

    def test_workload_paths_build_no_frames(self, tmp_path, monkeypatch,
                                            capsys):
        # verify, evolve and moments run on arrays; frames are only the
        # public one-frame calls.  One core, so every job runs here.
        built = []
        init = WaveFrame.__post_init__

        def counting(frame):
            built.append(frame)
            init(frame)

        monkeypatch.setattr(WaveFrame, "__post_init__", counting)
        monkeypatch.setattr(pool, "_usable_cores", lambda: 1)
        verification.invariant_spectrum()
        verification.ladder_algebra()
        verification.independent_propagation()
        # Exit 1: its pinned-resolution n = 5 residual is a known red.
        assert main(["verify", "--preset", "example1"]) in (0, 1)
        raw = preset_config("example1").to_dict()
        raw["time"]["frames"] = 3
        raw["outputs"] = ["position_density", "momentum_density", "moments"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert main(["evolve", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 0
        assert main(["moments", "--config", str(path), "--check"]) == 0
        capsys.readouterr()
        assert built == []
        sample_frame(StateSpec(SCHRODINGER, 0), POSITION, X, 0.0)
        assert len(built) == 1

    def test_rejects_mismatched_amplitudes(self):
        with pytest.raises(DomainError):
            WaveFrame(POSITION, 0.0, X, np.zeros(10, dtype=complex))

    @pytest.mark.parametrize("value", [
        np.nan, complex(np.inf, 0.0), complex(0.0, np.nan)],
        ids=["nan", "inf_real", "nan_imag"])
    def test_rejects_nonfinite_amplitudes(self, value):
        amps = np.zeros_like(X, dtype=complex)
        amps[3] = value
        with pytest.raises(DomainError):
            WaveFrame(POSITION, 0.0, X, amps)

    @pytest.mark.parametrize("index,value", [
        (0, -np.inf), (-1, np.inf), (5, np.nan)],
        ids=["minus_inf_first", "inf_last", "nan"])
    def test_rejects_nonfinite_grids(self, index, value):
        grid = X.copy()
        grid[index] = value
        with pytest.raises(DomainError, match="grid"):
            WaveFrame(POSITION, 0.0, grid, np.zeros_like(X, dtype=complex))

    @pytest.mark.parametrize("bound", ["upper", "lower"])
    def test_uniformity_verdict_matches_allclose(self, bound):
        # Move the last grid point ulp by ulp across the tolerance of
        # np.allclose(steps, h, rtol=1e-9, atol=1e-12 |h|).
        grid = uniform_grid(-12.0, 12.0, 64)
        h = grid[1] - grid[0]
        tol = 1e-12 * abs(h) + 1e-9 * abs(h)
        edge = grid[-2] + (h + tol if bound == "upper" else h - tol)
        verdicts = set()
        for offset in range(-8, 9):
            grid[-1] = edge + offset * np.spacing(edge)
            expected = np.allclose(np.diff(grid), h, rtol=1e-9,
                                   atol=1e-12 * abs(h))
            try:
                WaveFrame(POSITION, 0.0, grid, np.zeros(64, dtype=complex))
                accepted = True
            except DomainError:
                accepted = False
            assert accepted == expected
            verdicts.add(accepted)
        assert verdicts == {True, False}

    def test_dx_and_density(self):
        frame = sample_frame(StateSpec(SCHRODINGER, 0), POSITION, X, 0.0)
        assert frame.dx == pytest.approx(24.0 / 1023.0)
        assert_allclose(frame.density(), np.abs(frame.amplitudes) ** 2)
