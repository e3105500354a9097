import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from dynosc import (BETA0_QUARTIC, BETA0_SQUARED, DomainError, MomentSet,
                    OscillatorParams, ParamState, StateSpec,
                    classical_moments, discriminant, eval_psi, flow,
                    is_minimum_uncertainty_family, momentum_params,
                    uniform_grid)
from dynosc import verification as ver

finite_params = st.builds(
    OscillatorParams,
    mu0=st.floats(min_value=0.1, max_value=5.0),
    alpha0=st.floats(min_value=-2.0, max_value=2.0),
    beta0=st.one_of(st.floats(min_value=0.2, max_value=3.0),
                    st.floats(min_value=-3.0, max_value=-0.2)),
    gamma0=st.floats(min_value=-3.0, max_value=3.0),
    delta0=st.floats(min_value=-3.0, max_value=3.0),
    eps0=st.floats(min_value=-3.0, max_value=3.0),
    kappa0=st.floats(min_value=-3.0, max_value=3.0),
)
times = st.floats(min_value=-20.0, max_value=20.0)

STATE_FIELDS = ("t", "mu", "alpha", "beta", "gamma", "delta", "eps", "kappa")
# The PDE-residual times: t and t +- dt for each of the eight sample times.
RESIDUAL_TIMES = np.concatenate([np.array(ver.EIGHT_TIMES) + d
                                 for d in (0.0, -ver.RESIDUAL_DT, ver.RESIDUAL_DT)])

SCHRODINGER = OscillatorParams(mu0=1.0, beta0=1.0)
EXAMPLE1 = OscillatorParams(mu0=1.5, beta0=2.0 / 3.0, delta0=1.0)
EXAMPLE3 = OscillatorParams(mu0=1.5, beta0=2.0 / 3.0, delta0=1.5)
MINUNCERT = OscillatorParams(mu0=0.64 ** -0.25, alpha0=0.3, beta0=0.64 ** 0.25)


def scalar_flow(params, t):
    """Reference for flow: the same closed form in scalar `math` code, one
    time per call.  Returns the ParamState fields in order."""
    a0, b0 = params.alpha0, params.beta0
    d0, e0 = params.delta0, params.eps0
    s, c = math.sin(t), math.cos(t)
    s2, c2 = math.sin(2.0 * t), math.cos(2.0 * t)
    base = 2.0 * a0 * s + c
    den = b0 ** 4 * s * s + base * base
    rden = math.sqrt(den)
    b2 = b0 ** 2
    re_w = c * c + b2 * s * s + a0 * math.sin(2.0 * t)
    im_w = (b2 - 1.0) * s * c - 2.0 * a0 * s * s
    return (
        t,
        params.mu0 * rden,
        (a0 * c2 + s2 * (b0 ** 4 + 4.0 * a0 ** 2 - 1.0) / 4.0) / den,
        b0 / rden,
        params.gamma0 - 0.5 * (t + math.atan2(im_w, re_w)),
        (d0 * base + e0 * b0 ** 3 * s) / den,
        (e0 * base - b0 * d0 * s) / rden,
        params.kappa0
        + s * s * (e0 * b0 ** 2 * (a0 * e0 - b0 * d0) - a0 * d0 ** 2) / den
        + 0.25 * s2 * (e0 ** 2 * b0 ** 2 - d0 ** 2) / den,
    )


class TestConstruction:
    def test_rejects_nonpositive_mu0(self):
        with pytest.raises(ValueError, match="mu0 must be positive"):
            OscillatorParams(mu0=0.0, beta0=1.0)

    def test_rejects_zero_beta0(self):
        with pytest.raises(ValueError, match="beta0 must be nonzero"):
            OscillatorParams(mu0=1.0, beta0=0.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            OscillatorParams(mu0=1.0, beta0=math.nan)

    def test_negative_beta0_allowed(self):
        assert OscillatorParams(mu0=1.0, beta0=-0.7).beta0 == -0.7

    @pytest.mark.parametrize("data", [
        {"mu0": -1.0}, {"mu0": 1.0, "beta0": 0.0},
        {"mu0": 1.0, "beta0": 1e100}, {"mu0": 1.0, "eps0": math.inf}])
    def test_rejections_are_domain_errors(self, data):
        # Derived parameters (momentum_params) are built outside the config
        # reader, so the class that cli.main maps to exit 2 is raised here.
        with pytest.raises(DomainError):
            OscillatorParams(**data)


# Zero signs, the smallest subnormal, a subnormal near the normal range,
# square roots of the float64 range, the largest decade, 2^53 and pi.
EXTREME_DATA = [0.0, -0.0, 5e-324, -5e-324, 1e-308, -1e-308, 1e-150, 1e150,
                -1e150, 1e308, -1e308, 2.0 ** 53, math.pi, -math.pi]
ORDINARY_DATA = [1.0, -0.7, 0.3, 2.5]


def allowed(call, *args):
    """call(*args), or None where it raises one of the two errors that
    cli.main reports as a config error (exit 2)."""
    try:
        return call(*args)
    except (DomainError, OverflowError):
        return None


def test_extreme_initial_data_raise_only_domain_or_overflow_errors():
    rng = np.random.default_rng(20261020)
    values = np.array(EXTREME_DATA + ORDINARY_DATA)
    times = np.array([0.0, 0.7, math.pi / 2.0, 4.0])
    built = 0
    for _ in range(3000):
        params = allowed(OscillatorParams, *map(float, rng.choice(values, 7)))
        if params is None:
            continue
        built += 1
        for denominator in (BETA0_QUARTIC, BETA0_SQUARED):
            allowed(momentum_params, params, denominator)
        allowed(flow, params, times)
        allowed(flow, params, 0.7)
        for n in (0, 5):
            allowed(classical_moments, params, n, times)
    # About a fifth of the draws pass the construction checks.
    assert built > 500


class TestDiscriminant:
    def test_schrodinger_is_one(self):
        assert discriminant(SCHRODINGER, 1.3) == pytest.approx(1.0, abs=1e-15)

    def test_example_value_at_quarter_period(self):
        params = OscillatorParams(mu0=1.0, beta0=2.0 / 3.0)
        assert discriminant(params, math.pi / 2) == pytest.approx(16.0 / 81.0,
                                                                  abs=1e-15)

    def test_example1_half_angle_form(self):
        for t in np.linspace(0.0, 2.0 * math.pi, 97):
            expected = (97.0 + 65.0 * math.cos(2.0 * t)) / 162.0
            assert discriminant(EXAMPLE1, t) == pytest.approx(expected, abs=1e-14)

    @given(finite_params, times)
    def test_strictly_positive(self, params, t):
        assert discriminant(params, t) > 0.0


class TestFlow:
    @given(finite_params)
    def test_identity_at_t0(self, params):
        st0 = flow(params, 0.0)
        assert st0.mu == params.mu0
        assert st0.alpha == params.alpha0
        assert st0.beta == params.beta0
        assert st0.gamma == params.gamma0
        assert st0.delta == params.delta0
        assert st0.eps == params.eps0
        assert st0.kappa == params.kappa0

    def test_schrodinger_case(self):
        for t in np.linspace(-7.0, 7.0, 41):
            s = flow(SCHRODINGER, t)
            assert_allclose([s.mu, s.alpha, s.beta, s.delta, s.eps, s.kappa],
                            [1.0, 0.0, 1.0, 0.0, 0.0, 0.0], atol=1e-15)
            assert s.gamma == pytest.approx(-t / 2.0, abs=1e-13)

    def test_example1_at_quarter_period(self):
        s = flow(EXAMPLE1, math.pi / 2.0)
        assert s.mu == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert s.alpha == pytest.approx(0.0, abs=1e-15)
        assert s.beta == pytest.approx(1.5, abs=1e-15)
        assert s.gamma == pytest.approx(-math.pi / 4.0, abs=1e-15)
        assert s.delta == pytest.approx(0.0, abs=1e-15)
        # eps(pi/2) = -beta0 delta0 / sqrt(D) = -(2/3)/(4/9) = -3/2; consistent
        # with the center <x>(pi/2) = -eps/beta = 1 checked below.
        assert s.eps == pytest.approx(-1.5, abs=1e-15)
        assert s.kappa == pytest.approx(0.0, abs=1e-15)
        m = classical_moments(EXAMPLE1, 0, math.pi / 2.0)
        assert -s.eps / s.beta == pytest.approx(m.mean_x, abs=1e-14)

    @given(finite_params, times)
    @settings(max_examples=200)
    def test_scale_invariant(self, params, t):
        s = flow(params, t)
        assert s.mu * abs(s.beta) == pytest.approx(
            params.mu0 * abs(params.beta0), rel=1e-12)

    @given(finite_params, times)
    def test_beta_keeps_sign(self, params, t):
        assert flow(params, t).beta * params.beta0 > 0.0

    @given(finite_params, st.floats(min_value=-6.0, max_value=6.0))
    @settings(max_examples=100)
    def test_periodicity(self, params, t):
        a, b = flow(params, t), flow(params, t + 2.0 * math.pi)
        scale = max(1.0, abs(a.mu), abs(a.alpha), abs(a.delta),
                    abs(a.eps), abs(a.kappa))
        for name in ("mu", "alpha", "beta", "delta", "eps", "kappa"):
            assert abs(getattr(a, name) - getattr(b, name)) <= 1e-12 * scale
        assert b.gamma - a.gamma == pytest.approx(-math.pi, abs=1e-12)


class TestGamma:
    def test_continuous_against_unwrap_oracle(self):
        # Independent oracle: principal-branch angles along a dense path,
        # glued by np.unwrap.
        for params in (EXAMPLE1, MINUNCERT,
                       OscillatorParams(mu0=1.0, alpha0=3.0, beta0=0.5),
                       OscillatorParams(mu0=1.0, alpha0=-2.0, beta0=1.4)):
            t = np.linspace(0.0, 4.0 * math.pi, 20001)
            raw = np.arctan2(params.beta0 ** 2 * np.sin(t),
                             2.0 * params.alpha0 * np.sin(t) + np.cos(t))
            unwrapped = params.gamma0 - 0.5 * np.unwrap(raw)
            ours = flow(params, t).gamma
            assert_allclose(ours, unwrapped, atol=1e-10)

    def test_no_jumps_near_branch_points(self):
        # 2 alpha0 sin t + cos t = 0 is where a principal-branch arctan flips.
        t_star = math.atan2(1.0, -2.0 * MINUNCERT.alpha0)
        for t in (t_star - 1e-7, t_star, t_star + 1e-7):
            gap = abs(flow(MINUNCERT, t + 1e-7).gamma - flow(MINUNCERT, t).gamma)
            assert gap < 1e-5

    def test_rate_is_minus_half_beta_squared(self):
        h = 1e-6
        for params in (SCHRODINGER, EXAMPLE1, MINUNCERT):
            for t in np.linspace(0.0, 2.0 * math.pi, 17):
                rate = (flow(params, t + h).gamma - flow(params, t - h).gamma) / (2 * h)
                assert rate == pytest.approx(-0.5 * flow(params, t).beta ** 2,
                                             abs=1e-9)


class TestMoments:
    @pytest.mark.parametrize("n", [0, 3])
    def test_schrodinger_moments(self, n):
        for t in np.linspace(0.0, 2.0 * math.pi, 9):
            m = classical_moments(SCHRODINGER, n, t)
            assert m.mean_x == pytest.approx(0.0, abs=1e-15)
            assert m.mean_p == pytest.approx(0.0, abs=1e-15)
            assert m.var_x == pytest.approx(n + 0.5, abs=1e-13)
            assert m.var_p == pytest.approx(n + 0.5, abs=1e-13)

    def test_example1_center_and_width(self):
        for t in np.linspace(0.0, 2.0 * math.pi, 33):
            m = classical_moments(EXAMPLE1, 0, t)
            assert m.mean_x == pytest.approx(math.sin(t), abs=1e-14)
            assert m.var_x == pytest.approx(
                (97.0 + 65.0 * math.cos(2.0 * t)) / 144.0, abs=1e-14)

    def test_example1_energy(self):
        for t in (0.0, 1.0, 4.0):
            assert classical_moments(EXAMPLE1, 0, t).energy == pytest.approx(
                0.5, abs=1e-14)

    def test_minimum_uncertainty_product(self):
        m = classical_moments(MINUNCERT, 0, math.pi / 4.0)
        assert m.product == pytest.approx(0.25, abs=1e-12)

    @given(finite_params, times, st.integers(min_value=0, max_value=6))
    @settings(max_examples=150)
    def test_mean_links_to_flow(self, params, t, n):
        s = flow(params, t)
        m = classical_moments(params, n, t)
        assert -s.eps / s.beta == pytest.approx(m.mean_x, abs=1e-10 * max(1, abs(m.mean_x)))
        assert s.delta - 2.0 * s.alpha * s.eps / s.beta == pytest.approx(
            m.mean_p, abs=1e-10 * max(1, abs(m.mean_p)))

    @given(finite_params, times, st.integers(min_value=0, max_value=6))
    @settings(max_examples=150)
    def test_variance_links_to_flow(self, params, t, n):
        s = flow(params, t)
        m = classical_moments(params, n, t)
        assert (n + 0.5) / s.beta ** 2 == pytest.approx(m.var_x, rel=1e-10)
        expected_p = (n + 0.5) * (4.0 * s.alpha ** 2 + s.beta ** 4) / s.beta ** 2
        assert expected_p == pytest.approx(m.var_p, rel=1e-10)

    @given(finite_params)
    def test_energy_closed_form_and_conservation(self, params):
        drift = 2.0 * params.alpha0 * params.eps0 - params.beta0 * params.delta0
        expected = (drift ** 2 + params.eps0 ** 2) / (2.0 * params.beta0 ** 2)
        for t in (0.0, 0.7, 3.9):
            energy = classical_moments(params, 0, t).energy
            assert energy == pytest.approx(expected, abs=1e-12 * max(1.0, expected))

    def test_ehrenfest_by_finite_differences(self):
        h = 1e-5
        for params in (EXAMPLE1, EXAMPLE3, MINUNCERT):
            for t in np.linspace(0.0, 2.0 * math.pi, 17):
                m = classical_moments(params, 0, t)
                plus = classical_moments(params, 0, t + h)
                minus = classical_moments(params, 0, t - h)
                assert (plus.mean_x - minus.mean_x) / (2 * h) == pytest.approx(
                    m.mean_p, abs=1e-8)
                assert (plus.mean_p - minus.mean_p) / (2 * h) == pytest.approx(
                    -m.mean_x, abs=1e-8)

    @pytest.mark.slow
    @pytest.mark.parametrize("n", [0, 3])
    def test_array_times_equal_scalar_calls(self, random_params, n):
        # Over the criterion-5 times (dense scan plus analytic extremizers).
        for params in random_params:
            ts = ver._product_times(params)
            scalars = [classical_moments(params, n, t) for t in ts.tolist()]
            m = classical_moments(params, n, ts)
            for name in ("mean_x", "mean_p", "var_x", "var_p", "product",
                         "energy"):
                column = [getattr(s, name) for s in scalars]
                assert all(type(v) is float for v in column)
                assert np.all(getattr(m, name) == column), name
            assert np.all(discriminant(params, ts)
                          == [discriminant(params, t) for t in ts.tolist()])

    def test_array_flow_equals_scalar_reference(self, presets, random_params):
        for params in [cfg.params for cfg in presets.values()] + random_params:
            # The criterion-5 times and the PDE-residual times.
            ts = np.concatenate((ver._product_times(params), RESIDUAL_TIMES))
            state = flow(params, ts)
            expected = np.array([scalar_flow(params, t) for t in ts.tolist()])
            for k, name in enumerate(STATE_FIELDS):
                assert np.all(getattr(state, name) == expected[:, k]), name
            for t in RESIDUAL_TIMES.tolist():
                one = flow(params, t)
                fields = tuple(getattr(one, name) for name in STATE_FIELDS)
                assert all(type(v) is float for v in fields)
                assert fields == scalar_flow(params, t)

    @pytest.mark.parametrize("n", [0, 5])
    def test_eval_psi_rows_equal_scalar_calls(self, presets, n):
        x = uniform_grid(*ver.RESIDUAL_GRID)
        for cfg in presets.values():
            spec = StateSpec(cfg.params, n)
            block = eval_psi(spec, x, RESIDUAL_TIMES)
            assert block.shape == (RESIDUAL_TIMES.size, x.size)
            for row, t in zip(block, RESIDUAL_TIMES.tolist()):
                assert np.array_equal(row, eval_psi(spec, x, t))

    @pytest.mark.parametrize("mu", [0.0, -1.0, math.nan])
    def test_array_param_state_rejects_nonpositive_mu(self, mu):
        fields = [np.ones(3) for _ in STATE_FIELDS]
        fields[1] = np.array([1.0, mu, 2.0])
        with pytest.raises(DomainError, match="mu must stay positive"):
            ParamState(*fields)

    def test_moment_set_rejects_nonfinite(self):
        with pytest.raises(DomainError, match="finite"):
            MomentSet(mean_x=math.inf, mean_p=0.0, var_x=0.5, var_p=0.5,
                      product=0.25, energy=math.inf, n=0)

    def test_moment_set_rejects_floor_violation(self):
        with pytest.raises(ValueError, match="uncertainty product"):
            MomentSet(mean_x=0.0, mean_p=0.0, var_x=0.4, var_p=0.5,
                      product=0.2, energy=0.0, n=0)


class TestMinimumUncertainty:
    def test_coherent_family(self):
        assert is_minimum_uncertainty_family(
            OscillatorParams(mu0=1.0, alpha0=0.0, beta0=1.0), 1e-12)

    def test_squeezed_family(self):
        assert is_minimum_uncertainty_family(MINUNCERT, 1e-12)

    def test_example1_is_not(self):
        assert not is_minimum_uncertainty_family(EXAMPLE1, 1e-6)

    def test_rejects_bad_tol(self):
        with pytest.raises(DomainError):
            is_minimum_uncertainty_family(SCHRODINGER, 0.0)


class TestMomentumParams:
    def test_gaussian_self_transform_shape(self):
        mapped = momentum_params(SCHRODINGER)
        assert mapped.mu0 == pytest.approx(1.0, abs=1e-15)
        assert mapped.alpha0 == pytest.approx(0.0, abs=1e-15)
        assert mapped.beta0 == pytest.approx(1.0, abs=1e-15)
        assert mapped.delta0 == pytest.approx(0.0, abs=1e-15)
        assert mapped.eps0 == pytest.approx(0.0, abs=1e-15)
        # The quarter-period phase bookkeeping splits as -pi/4 / +pi/4; the
        # n = 0 wavefunction only sees the sum, which vanishes.
        assert mapped.gamma0 + mapped.kappa0 == pytest.approx(0.0, abs=1e-15)

    def test_example3_values(self):
        mapped = momentum_params(EXAMPLE3)
        assert mapped.mu0 == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert mapped.alpha0 == pytest.approx(0.0, abs=1e-15)
        assert mapped.beta0 == pytest.approx(1.5, abs=1e-15)
        assert mapped.delta0 == pytest.approx(0.0, abs=1e-15)
        assert mapped.eps0 == pytest.approx(-9.0 / 4.0, abs=1e-14)
        assert mapped.gamma0 + mapped.kappa0 == pytest.approx(0.0, abs=1e-15)

    @given(finite_params)
    def test_preserves_norm_constant(self, params):
        mapped = momentum_params(params)
        assert mapped.mu0 * abs(mapped.beta0) == pytest.approx(
            params.mu0 * abs(params.beta0), rel=1e-12)

    @given(finite_params)
    @settings(max_examples=100)
    def test_equals_quarter_period_flow(self, params):
        s = flow(params, math.pi / 2.0)
        mapped = momentum_params(params)
        assert mapped.mu0 == pytest.approx(s.mu, rel=1e-12)
        assert mapped.alpha0 == pytest.approx(s.alpha, abs=1e-12 * max(1, abs(s.alpha)))
        assert mapped.beta0 == pytest.approx(s.beta, rel=1e-12)
        assert mapped.gamma0 == pytest.approx(s.gamma, abs=1e-12)
        assert mapped.delta0 == pytest.approx(s.delta, abs=1e-12 * max(1, abs(s.delta)))
        assert mapped.eps0 == pytest.approx(s.eps, abs=1e-12 * max(1, abs(s.eps)))
        assert mapped.kappa0 == pytest.approx(s.kappa + math.pi / 4.0, abs=1e-12)

    @given(finite_params)
    @settings(max_examples=100)
    def test_involution_is_parity(self, params):
        # Transforming twice must reflect the state: delta and eps flip sign,
        # gamma/kappa absorb the (-1)^n parity of the Hermite envelope.
        twice = momentum_params(momentum_params(params))
        assert twice.mu0 == pytest.approx(params.mu0, rel=1e-11)
        assert twice.alpha0 == pytest.approx(params.alpha0, abs=1e-11 * max(1, abs(params.alpha0)))
        assert twice.beta0 == pytest.approx(params.beta0, rel=1e-11)
        assert twice.delta0 == pytest.approx(-params.delta0, abs=1e-11 * max(1, abs(params.delta0)))
        assert twice.eps0 == pytest.approx(-params.eps0, abs=1e-11 * max(1, abs(params.eps0)))
        assert twice.gamma0 == pytest.approx(params.gamma0 - math.pi / 2.0, abs=1e-11)
        assert twice.kappa0 == pytest.approx(params.kappa0 + math.pi / 2.0, abs=1e-11)
        m0 = classical_moments(params, 0, 0.0)
        m2 = classical_moments(
            OscillatorParams(twice.mu0, twice.alpha0, twice.beta0, twice.gamma0,
                             twice.delta0, twice.eps0, twice.kappa0), 0, 0.0)
        assert m2.mean_x == pytest.approx(-m0.mean_x, abs=1e-11 * max(1, abs(m0.mean_x)))

    def test_unknown_denominator(self):
        with pytest.raises(DomainError):
            momentum_params(SCHRODINGER, denominator="no-such-convention")

    def test_squared_variant_differs_for_squeezed_data(self):
        mapped = momentum_params(EXAMPLE3, denominator=BETA0_SQUARED)
        assert mapped.beta0 == pytest.approx(1.0, abs=1e-15)
        assert mapped.beta0 != pytest.approx(momentum_params(EXAMPLE3).beta0)
