"""Acceptance battery: every verification criterion as a named check.

Each criterion function returns CheckResult rows with the measured value and
its bound; `run_acceptance` evaluates the full battery and the CLI prints one
PASS/FAIL line per row.  Tolerances are pinned here, not in the callers.

Grid choices per check (the PDE-residual grid and time step are pinned by the
acceptance contract; operator and transform grids are sized so stencil error
sits well below the tolerances):

  * PDE residual: 1024 points on [-8, 8], dt = 1e-4.
  * Operator checks: 8192 points on [-12, 12].
  * Fourier cross-checks: 1024 points on [-14, 14].
  * Propagation: 1024 points on [-12, 12], 4096 steps to t = 1.

Every check runs on a (T, N) block of samples per state, with the flowed
parameters as (T, 1) columns.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import PRESET_NAMES, preset_config
from .flows import (BETA0_QUARTIC, BETA0_SQUARED, OscillatorParams,
                    classical_moments, flow,
                    is_minimum_uncertainty_family, momentum_params)
from .operators import (ANNIHILATION, CREATION, commutator, invariant,
                        ladder, rayleigh)
from .oracle import (MINUS_GAMMA, MINUS_TWO_GAMMA, comoving_residual,
                     dft_momentum_rows, psi_rows, quadrature_moment_rows,
                     schrodinger_residual, split_step_propagate)
from .pool import ordered_map
from .states import (StateSpec, eval_psi, eval_psi_invariant_frame,
                     uniform_grid)
from .stencils import interior, l2_norm

EIGHT_TIMES = tuple(2.0 * math.pi * k / 8.0 for k in range(8))

RESIDUAL_GRID = (-8.0, 8.0, 1024)
RESIDUAL_DT = 1e-4
OPERATOR_GRID = (-12.0, 12.0, 8192)
TRANSFORM_GRID = (-14.0, 14.0, 1024)
PROPAGATION_GRID = (-12.0, 12.0, 1024)

_RNG_SEED = 20260809


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    bound: str
    passed: bool

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: measured {self.value:.6e}, requires {self.bound}"


def _below(name, value, tol):
    value = float(value)
    return CheckResult(name, value, f"< {tol:g}", value < tol)


def _above(name, value, tol):
    return CheckResult(name, float(value), f"> {tol:g}", value > tol)


def _within(name, value, lo, hi):
    return CheckResult(name, float(value), f"in [{lo:g}, {hi:g}]",
                       lo <= value <= hi)


def _presets():
    return {name: preset_config(name) for name in PRESET_NAMES}


def _random_params(count):
    rng = np.random.default_rng(_RNG_SEED)
    out = []
    for _ in range(count):
        beta0 = rng.uniform(0.4, 1.8) * rng.choice([-1.0, 1.0])
        out.append(OscillatorParams(
            mu0=rng.uniform(0.3, 3.0),
            alpha0=rng.uniform(-1.2, 1.2),
            beta0=float(beta0),
            gamma0=rng.uniform(-math.pi, math.pi),
            delta0=rng.uniform(-2.0, 2.0),
            eps0=rng.uniform(-2.0, 2.0),
            kappa0=rng.uniform(-math.pi, math.pi),
        ))
    return out


# -- criterion 1: the closed form satisfies the evolution equation ----------

def _worst_residual(spec, grid, dt=RESIDUAL_DT):
    return max(schrodinger_residual(spec, grid, t, dt) for t in EIGHT_TIMES)


def family_exactness():
    """PDE residual of the closed form, all presets, n in {0,1,2,5}."""
    grid = uniform_grid(*RESIDUAL_GRID)
    return [_below(f"pde_residual[{name}, n={n}]",
                   _worst_residual(StateSpec(cfg.params, n), grid), 1e-6)
            for name, cfg in _presets().items() for n in (0, 1, 2, 5)]


def family_exactness_refined():
    """Supplementary evidence: the same residual at refined resolution.

    The four n = 5 squeezed cases sit above the pinned-resolution bound of
    `family_exactness` purely through discretization floors: at dt = 1e-4 the
    O(dt^2) time-difference error alone reaches ~4e-6 (the momentum variance
    of those states peaks at 2.25 (n + 1/2), so d^3 psi/dt^3 is large), and a
    1024-point grid adds a spatial floor of the same size.  Refining both
    (4096 points, dt = 1e-5) drops every case below 1e-6, confirming the
    closed form itself is exact.
    """
    grid = uniform_grid(-12.0, 12.0, 4096)
    return [_below(f"pde_residual_refined[{name}, n=5]",
                   _worst_residual(StateSpec(cfg.params, 5), grid, 1e-5), 1e-6)
            for name, cfg in _presets().items()]


# -- criterion 2: invariant spectrum -----------------------------------------

def _eigenvalue_gap(params, times):
    """Worst |invariant eigenvalue estimate - (n + 1/2)| over n <= 6."""
    grid = uniform_grid(*OPERATOR_GRID)
    dx = float(grid[1] - grid[0])
    st = flow(params, np.asarray(times)[:, None])
    worst = 0.0
    for n in range(7):
        psi = eval_psi(StateSpec(params, n), grid, times)
        estimates = rayleigh(psi, invariant(st, grid, psi, dx), dx)
        worst = max(worst, float(np.max(np.abs(estimates - (n + 0.5)))))
    return worst


def invariant_spectrum():
    return [_below(f"invariant_eigenvalue[{name}]",
                   _eigenvalue_gap(cfg.params, EIGHT_TIMES), 1e-7)
            for name, cfg in _presets().items()]


# -- criterion 3: ladder algebra ---------------------------------------------

def _commutator_residual(params, times):
    """Worst relative residual of (a a' - a' a) psi = psi over three
    Gaussians, a (3, N) block, at each of the times."""
    x = uniform_grid(-9.0, 9.0, 1024)
    dx = float(x[1] - x[0])
    psi = np.stack([
        np.exp(-0.5 * x * x),
        np.exp(-(x - 0.8) ** 2 / 3.0 + 0.4j * x),
        (1.0 + 0.2 * x) * np.exp(-(x + 1.0) ** 2 / 2.5 - 0.3j * x),
    ])
    commuted = commutator(flow(params, np.asarray(times)[:, None, None]),
                          x, psi, dx)
    return float(np.max(l2_norm(interior(commuted - psi), dx)
                        / l2_norm(interior(psi), dx)))


def ladder_algebra():
    grid = uniform_grid(*OPERATOR_GRID)
    dx = float(grid[1] - grid[0])
    times = np.array(EIGHT_TIMES[::2])
    results = []
    for name, cfg in _presets().items():
        st = flow(cfg.params, times[:, None])
        states = [eval_psi_invariant_frame(StateSpec(cfg.params, n), grid, times)
                  for n in range(7)]
        norms = [l2_norm(interior(s), dx) for s in states]
        down = up = 0.0
        for n in range(1, 7):
            got = ladder(ANNIHILATION, st, grid, states[n], dx)
            gap = l2_norm(interior(got - math.sqrt(n) * states[n - 1]), dx)
            down = max(down, float(np.max(gap / norms[n])))
        for n in range(0, 6):
            got = ladder(CREATION, st, grid, states[n], dx)
            gap = l2_norm(interior(got - math.sqrt(n + 1) * states[n + 1]), dx)
            up = max(up, float(np.max(gap / norms[n])))
        results.append(_below(f"ladder_lowering[{name}]", down, 1e-6))
        results.append(_below(f"ladder_raising[{name}]", up, 1e-6))
    worst = max(_commutator_residual(cfg.params, (0.0, 1.0, 2.5))
                for cfg in _presets().values())
    results.append(_below("ladder_commutator[gaussian frames]", worst, 1e-7))
    return results


# -- criterion 4: textbook limit ---------------------------------------------

def textbook_limit():
    from .hermite import hermite_function
    cfg = preset_config("schrodinger")
    x = uniform_grid(-12.0, 12.0, 1024)
    worst_point = 0.0
    worst_var = 0.0
    times = np.array(EIGHT_TIMES)
    for n in range(7):
        block = eval_psi(StateSpec(cfg.params, n), x, times)
        expected = hermite_function(n, x) * np.exp(-1j * (n + 0.5) * times)[:, None]
        worst_point = max(worst_point, float(np.max(np.abs(block - expected))))
        m = classical_moments(cfg.params, n, EIGHT_TIMES)
        worst_var = max(worst_var, np.max(np.abs(m.var_x - (n + 0.5))),
                        np.max(np.abs(m.var_p - (n + 0.5))))
    results = [
        _below("textbook_pointwise[schrodinger, n<=6]", worst_point, 1e-12),
        _below("textbook_variances_closed_form", worst_var, 1e-12),
    ]
    # The frames n <= 4 at t = 0.9 and their momentum rows, one transform.
    pos = np.stack([eval_psi(StateSpec(cfg.params, n), x, 0.9)
                    for n in range(5)])
    worst_quad = 0.0
    for rows in (pos, dft_momentum_rows(x, pos)):
        first, second = quadrature_moment_rows(x, rows)
        # float_power calls libm pow like the scalar `**`; x * x can differ
        # by 1 ulp.
        var = second - np.float_power(first, 2.0)
        worst_quad = max(worst_quad,
                         float(np.max(np.abs(var - (np.arange(5) + 0.5)))))
    results.append(_below("textbook_variances_quadrature", worst_quad, 1e-8))
    return results


# -- criterion 5: uncertainty structure --------------------------------------

def _product_times(params):
    """Times that pin the minimum of var_x * var_p: dense scan plus extrema.

    The oscillating part of the product is B cos 2t - C sin 2t with
    B = 4 alpha0^2 + beta0^4 - 1 and C = 4 alpha0; a uniform grid of 10,000
    times alone resolves the minimum only to O((2 pi / 10,000)^2), so the
    exact extremizers 2t = atan2(-C, B) + k pi are appended to the sample.
    """
    b = 4.0 * params.alpha0 ** 2 + params.beta0 ** 4 - 1.0
    c = 4.0 * params.alpha0
    base = math.atan2(-c, b)
    return np.concatenate((2.0 * math.pi * np.arange(10000) / 10000,
                           (base + np.arange(4) * math.pi) / 2.0))


def uncertainty_structure():
    results = []
    cases = [(name, cfg.params) for name, cfg in _presets().items()]
    cases += [(f"random{i}", p) for i, p in enumerate(_random_params(6))]
    for name, params in cases:
        ts = _product_times(params)
        worst = max(abs(np.min(classical_moments(params, n, ts).product)
                        - (n + 0.5) ** 2) for n in range(5))
        results.append(_below(f"uncertainty_floor[{name}]", worst, 1e-9))
    mu_params = preset_config("minuncert").params
    product = classical_moments(mu_params, 0, math.pi / 4.0).product
    results.append(_below("minimum_uncertainty_product[minuncert, t=pi/4]",
                          abs(product - 0.25), 1e-9))
    results.append(CheckResult(
        "minimum_uncertainty_condition[minuncert]", 1.0, "is true",
        is_minimum_uncertainty_family(mu_params, 1e-12)))
    return results


# -- criterion 6: momentum representation ------------------------------------

def _momentum_transforms(params_list, times):
    """Quadrature transforms of psi_n, n <= 4, of each params at each of the
    times on the transform grid, all in one call: (P, 5, T, N)."""
    grid = uniform_grid(*TRANSFORM_GRID)
    pos = np.concatenate([psi_rows(StateSpec(params, n), grid, times)
                          for params in params_list for n in range(5)])
    return dft_momentum_rows(grid, pos).reshape(
        len(params_list), 5, len(times), grid.size)


def _momentum_gaps(numeric, params, n, times, denominator):
    """L2 gap between the transforms `numeric` of psi_n and the closed-form
    momentum state, at each of the times, on the transform grid."""
    grid = uniform_grid(*TRANSFORM_GRID)
    mapped = StateSpec(momentum_params(params, denominator), n)
    return l2_norm(numeric - psi_rows(mapped, grid, times),
                   float(grid[1] - grid[0]))


def _worst_momentum_gap(numeric, params, times, denominator):
    """Worst gap over n <= 4, given the (5, T, N) transforms of params."""
    return max(float(_momentum_gaps(numeric[n], params, n, times,
                                    denominator).max())
               for n in range(5))


def momentum_representation(denominator=BETA0_QUARTIC):
    presets = _presets()
    numeric = _momentum_transforms([cfg.params for cfg in presets.values()],
                                   EIGHT_TIMES)
    results = [_below(f"momentum_map[{name}, n<=4]",
                      _worst_momentum_gap(rows, cfg.params, EIGHT_TIMES,
                                          denominator), 1e-8)
               for (name, cfg), rows in zip(presets.items(), numeric)]
    # The control's frame (example3, n = 0, t = 0) is a row of numeric.
    example3 = list(presets).index("example3")
    control = float(_momentum_gaps(numeric[example3, 0, :1],
                                   presets["example3"].params, 0,
                                   EIGHT_TIMES[:1], BETA0_SQUARED)[0])
    results.append(_above("momentum_map_negative_control[example3, beta0sq]",
                          control, 1e-2))
    return results


# -- criterion 7: animation reproduction -------------------------------------

def animation_reproduction():
    dense = np.linspace(0.0, 2.0 * math.pi, 401)
    ex1 = preset_config("example1")
    worst_center = np.max(np.abs(
        classical_moments(ex1.params, 0, dense).mean_x - np.sin(dense)))
    # float_power calls libm pow like the scalar `**`; x * x can differ by 1 ulp.
    worst_width = np.max(np.abs(
        np.float_power(flow(ex1.params, dense).beta, 2.0)
        - 72.0 / (97.0 + 65.0 * np.cos(2.0 * dense))))
    grid = uniform_grid(ex1.grid.x_min, ex1.grid.x_max, ex1.grid.points)
    dx = float(grid[1] - grid[0])
    times = np.array((0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi))
    block = eval_psi(StateSpec(ex1.params, 0), grid, times)
    peaks = grid[np.argmax(np.abs(block) ** 2, axis=1)]
    worst_peak = np.max(np.abs(peaks - np.sin(times)))
    ex3 = preset_config("example3")
    worst_mom_var = np.max(np.abs(
        classical_moments(ex3.params, 0, dense).var_p
        - (97.0 - 65.0 * np.cos(2.0 * dense)) / 144.0))
    return [
        _below("example1_center_tracks_sin_t", worst_center, 1e-12),
        _below("example1_width_squared", worst_width, 1e-12),
        _below("example1_frame_peak_offset", worst_peak, dx),
        _below("example3_momentum_variance", worst_mom_var, 1e-10),
    ]


# -- criterion 8: classical layer --------------------------------------------

def _classical_drift(params):
    """(energy drift, Ehrenfest residual) of the n = 0 moments over one period."""
    h = 1e-5
    t = np.linspace(0.0, 2.0 * math.pi, 257)
    energy0 = classical_moments(params, 0, 0.0).energy
    m = classical_moments(params, 0, t)
    plus = classical_moments(params, 0, t + h)
    minus = classical_moments(params, 0, t - h)
    drift = np.max(np.abs(m.energy - energy0))
    ehrenfest = max(
        np.max(np.abs((plus.mean_x - minus.mean_x) / (2 * h) - m.mean_p)),
        np.max(np.abs((plus.mean_p - minus.mean_p) / (2 * h) + m.mean_x)))
    return drift, ehrenfest


def classical_layer():
    results = []
    cases = [(name, cfg.params) for name, cfg in _presets().items()]
    cases += [(f"random{i}", p) for i, p in enumerate(_random_params(3))]
    for name, params in cases:
        drift, ehrenfest = _classical_drift(params)
        results.append(_below(f"energy_constant[{name}]", drift, 1e-12))
        results.append(_below(f"ehrenfest[{name}]", ehrenfest, 1e-8))
    return results


# -- criterion 9: independent propagation ------------------------------------

def _split_step_gaps(specs):
    """L2 gap between split-step and closed form at t = 1, one per spec.

    All start states are propagated in one batched call.
    """
    grid = uniform_grid(*PROPAGATION_GRID)
    starts = np.stack([eval_psi(spec, grid, 0.0) for spec in specs])
    evolved = split_step_propagate(grid, starts, 1.0, steps=4096)
    return [l2_norm(out - eval_psi(spec, grid, 1.0), float(grid[1] - grid[0]))
            for spec, out in zip(specs, evolved)]


def independent_propagation():
    specs = {name: StateSpec(cfg.params, cfg.n)
             for name, cfg in _presets().items()}
    gaps = _split_step_gaps(specs.values())
    return [_below(f"split_step_vs_closed_form[{name}]", gap, 1e-5)
            for name, gap in zip(specs, gaps)]


# -- criterion 10: comoving-frame adjudication --------------------------------

def _worst_comoving(spec, convention, times):
    return max(comoving_residual(spec, t, convention) for t in times)


def _one_convention(worst_by_convention):
    """Conventions whose worst residual passes, and the row requiring one."""
    winners = [c for c, worst in worst_by_convention.items() if worst < 1e-6]
    return winners, CheckResult(
        "comoving_exactly_one_convention", float(len(winners)),
        "exactly 1 passing convention", len(winners) == 1)


def comoving_adjudication(tau_convention=None):
    times = (0.8, 2.0, 4.0)
    specs = {name: StateSpec(cfg.params, cfg.n)
             for name, cfg in _presets().items()}
    if tau_convention is not None:
        return [_below(f"comoving_residual[{name}, {tau_convention}]",
                       _worst_comoving(spec, tau_convention, times), 1e-6)
                for name, spec in specs.items()]
    per_convention = {c: max(_worst_comoving(spec, c, times)
                             for spec in specs.values())
                      for c in (MINUS_TWO_GAMMA, MINUS_GAMMA)}
    results = [CheckResult(f"comoving_residual[{c}, all presets]", worst,
                           "reported", True)
               for c, worst in per_convention.items()]
    winners, row = _one_convention(per_convention)
    results.append(row)
    if winners:
        results.append(CheckResult(
            f"comoving_winner[{winners[0]}]", per_convention[winners[0]],
            "< 1e-06", per_convention[winners[0]] < 1e-6))
    return results


# -- criterion 11: convergence orders ------------------------------------------

def convergence_orders():
    spec = StateSpec(preset_config("schrodinger").params, 2)
    coarse = schrodinger_residual(spec, uniform_grid(-8, 8, 512), 0.7, 1e-6)
    fine = schrodinger_residual(spec, uniform_grid(-8, 8, 1024), 0.7, 1e-6)
    spatial = coarse / fine
    grid = uniform_grid(-8, 8, 4096)
    big = schrodinger_residual(spec, grid, 0.7, 1e-2)
    small = schrodinger_residual(spec, grid, 0.7, 5e-3)
    temporal = big / small
    return [
        _within("spatial_refinement_ratio[4th order]", spatial, 12.0, 20.0),
        _within("temporal_refinement_ratio[2nd order]", temporal, 3.5, 4.5),
    ]


# The criteria in print order, each with its place in the order in which
# they go to the workers, measured on 2 cores.  Wall times run alone: 9
# 0.57-0.72 s, 2 0.48-0.60 s, 6 0.27-0.32 s, 3 0.25-0.31 s, 5 0.12-0.14 s,
# every other one under 0.09 s.  Longest first, so that no long one starts
# late, except for the two criteria that call the BLAS-backed DFT
# (matrix-vector products): after each product OpenBLAS's helper threads
# spin for a while and take the other worker's core.  4 makes its one DFT
# call (5 rows) early; 6 makes one of 200 rows, about 3,200 strip products,
# and goes last, while the other worker runs out of small jobs.  A pooled
# `verify` took 1.0-1.4 s in this order, 1.2-1.6 s with 6 and 4 last and
# 1.5-1.7 s longest first (fresh processes, interleaved).
CRITERIA = (
    ("1 family exactness", family_exactness, 5),
    ("1s family exactness at refined resolution (supplementary)",
     family_exactness_refined, 6),
    ("2 invariant spectrum", invariant_spectrum, 2),
    ("3 ladder algebra", ladder_algebra, 3),
    ("4 textbook limit", textbook_limit, 0),
    ("5 uncertainty structure", uncertainty_structure, 4),
    ("6 momentum representation", momentum_representation, 11),
    ("7 animation reproduction", animation_reproduction, 8),
    ("8 classical layer", classical_layer, 9),
    ("9 independent propagation", independent_propagation, 1),
    ("10 comoving adjudication", comoving_adjudication, 7),
    ("11 convergence orders", convergence_orders, 10),
)


def run_acceptance(denominator=BETA0_QUARTIC, tau_convention=None):
    """Evaluate the full battery; returns {criterion: [CheckResult, ...]}.

    The criteria are independent of each other and run on the worker pool
    in their send order; the result keeps the print order of CRITERIA.
    """
    args = {momentum_representation: (denominator,),
            comoving_adjudication: (tau_convention,)}
    jobs = sorted(CRITERIA, key=lambda criterion: criterion[2])
    with ordered_map(lambda job: job[1](*args.get(job[1], ())),
                     jobs) as results:
        rows = {label: found for (label, _, _), found in zip(jobs, results)}
    return {label: rows[label] for label, _, _ in CRITERIA}


def _scoped_leading_rows(config, denominator):
    """The rows of scoped_checks before its split-step row."""
    params, n = config.params, config.n
    grid = uniform_grid(*RESIDUAL_GRID)
    rows = [_below(f"pde_residual[n={nn}]",
                   _worst_residual(StateSpec(params, nn), grid), 1e-6)
            for nn in sorted({0, 1, 2, 5, n})]
    half = EIGHT_TIMES[::2]
    return rows + [
        _below("invariant_eigenvalue[n<=6]", _eigenvalue_gap(params, half), 1e-7),
        _below("ladder_commutator", _commutator_residual(params, (0.0, 1.0)),
               1e-7),
        _below("momentum_map[n<=4]",
               _worst_momentum_gap(_momentum_transforms([params], half)[0],
                                   params, half, denominator), 1e-8),
        _below("energy_constant", _classical_drift(params)[0], 1e-12),
    ]


def _scoped_split_step_rows(config, tau_convention):
    """The split-step row of scoped_checks and the rows after it."""
    params = config.params
    spec = StateSpec(params, config.n)
    (gap,) = _split_step_gaps([spec])
    rows = [_below("split_step_vs_closed_form", gap, 1e-5)]
    times = (0.8, 2.0)
    if tau_convention:
        rows.append(_below(f"comoving_residual[{tau_convention}]",
                           _worst_comoving(spec, tau_convention, times), 1e-6))
    else:
        worst = {c: _worst_comoving(spec, c, times)
                 for c in (MINUS_TWO_GAMMA, MINUS_GAMMA)}
        rows += [_below(f"comoving_residual[{MINUS_TWO_GAMMA}]",
                        worst[MINUS_TWO_GAMMA], 1e-6),
                 _one_convention(worst)[1]]
    op_grid = uniform_grid(*OPERATOR_GRID)
    norm_sq = l2_norm(eval_psi(spec, op_grid, 1.1),
                      float(op_grid[1] - op_grid[0])) ** 2
    expected = 1.0 / (params.mu0 * abs(params.beta0))
    rows.append(_below("normalization[1/(mu0 |beta0|)]",
                       abs(norm_sq - expected), 1e-10))
    return rows


def scoped_checks(config, denominator=BETA0_QUARTIC, tau_convention=None):
    """Verification battery restricted to one configured family member.

    The rows reuse the full battery's measurements on this one member, with
    n in {0, 1, 2, 5, config.n} for the PDE residual, every second of the
    eight sample times for the invariant and momentum-map checks, and the
    first two times of the commutator and comoving checks; a normalization
    row is added.  The rows go to the worker pool as two jobs, in print
    order: the rows before the split-step row, then the split-step row (the
    oracle is about 70% of the work) with the rows after it.
    """
    jobs = (functools.partial(_scoped_leading_rows, config, denominator),
            functools.partial(_scoped_split_step_rows, config, tau_convention))
    with ordered_map(lambda job: job(), jobs) as results:
        return [row for rows in results for row in rows]
