"""Acceptance battery: every verification criterion as a named check.

Each criterion function returns CheckResult rows with the measured value and
its bound; `run_acceptance` evaluates the full battery and the CLI prints one
PASS/FAIL line per row.  Tolerances are pinned here, not in the callers, and
each row kind has one builder, which `scoped_checks` calls too.

Grids, as (x_min, x_max, points), and time steps (the PDE-residual ones are
pinned by the acceptance contract; the others are sized so stencil error sits
well below the tolerances):

  * PDE residual: (-8, 8, 1024), dt = 1e-4; at refined resolution (1s):
    (-12, 12, 4096), dt = 1e-5; for the convergence orders (11):
    (-8, 8, 512) and (-8, 8, 1024) at dt = 1e-6, (-8, 8, 4096) at dt = 1e-2
    and 5e-3.
  * Operator checks: (-12, 12, 8192); the ladder commutator: (-9, 9, 1024).
  * Textbook limit (4), and propagation, 4096 steps to t = 1: (-12, 12, 1024).
  * Fourier cross-checks: (-14, 14, 1024).
  * Comoving residual (10): (-10, 10, 2048), t +- 1e-5 (`comoving_frame`).

Every check runs on a (T, N) block of samples per state, with the flowed
parameters as (T, 1) columns; the PDE and comoving residuals of all sample
times of a state come from one oracle call.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import PRESET_NAMES, preset_config
from .flows import (BETA0_QUARTIC, BETA0_SQUARED, OscillatorParams,
                    classical_moments, flow,
                    is_minimum_uncertainty_family, momentum_params)
from .hermite import hermite_function
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
# Stated apart from its rows: the winner row of criterion 10 requires it too.
_COMOVING_BOUND = 1e-6

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
    value = float(value)
    return CheckResult(name, value, f"> {tol:g}", value > tol)


def _within(name, value, lo, hi):
    return CheckResult(name, float(value), f"in [{lo:g}, {hi:g}]",
                       lo <= value <= hi)


def _name(kind, *tags):
    """kind[tag, ...] over the tags that are not None; kind if none is."""
    tags = [tag for tag in tags if tag is not None]
    return f"{kind}[{', '.join(tags)}]" if tags else kind


def _grid(spec):
    """The uniform grid of spec, (x_min, x_max, points), and its spacing."""
    grid = uniform_grid(*spec)
    return grid, float(grid[1] - grid[0])


def _presets():
    """{name: config} of the presets: the members that a criterion runs on
    by default.  The scoped battery passes {None: config}."""
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


def _cases(count):
    """(name, params) of each preset, then of `count` seeded random members."""
    return [*((name, cfg.params) for name, cfg in _presets().items()),
            *((f"random{i}", p) for i, p in enumerate(_random_params(count)))]


# -- criterion 1: the closed form satisfies the evolution equation ----------

def _pde_rows(kind, members, ns, grid, dt):
    """Worst PDE residual over the eight times, one row per member and n."""
    x = uniform_grid(*grid)
    return [_below(_name(kind, name, f"n={n}"), schrodinger_residual(
                StateSpec(cfg.params, n), x, EIGHT_TIMES, dt).max(), 1e-6)
            for name, cfg in members.items() for n in ns]


def family_exactness(members=None, ns=(0, 1, 2, 5)):
    """PDE residual of the closed form, each member, each n of ns."""
    return _pde_rows("pde_residual", members or _presets(), ns,
                     RESIDUAL_GRID, RESIDUAL_DT)


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
    return _pde_rows("pde_residual_refined", _presets(), (5,),
                     (-12.0, 12.0, 4096), 1e-5)


# -- criterion 2: invariant spectrum -----------------------------------------

def _eigenvalue_gap(params, times):
    """Worst |invariant eigenvalue estimate - (n + 1/2)| over n <= 6."""
    grid, dx = _grid(OPERATOR_GRID)
    st = flow(params, np.asarray(times)[:, None])
    worst = 0.0
    for n in range(7):
        psi = eval_psi(StateSpec(params, n), grid, times)
        estimates = rayleigh(psi, invariant(st, grid, psi, dx), dx)
        worst = max(worst, float(np.max(np.abs(estimates - (n + 0.5)))))
    return worst


def invariant_spectrum(members=None, times=EIGHT_TIMES):
    # The scoped battery's nameless member is tagged by its n instead.
    return [_below(_name("invariant_eigenvalue", name or "n<=6"),
                   _eigenvalue_gap(cfg.params, times), 1e-7)
            for name, cfg in (members or _presets()).items()]


# -- criterion 3: ladder algebra ---------------------------------------------

def _commutator_row(params_list, times, tag=None):
    """Worst relative residual of (a a' - a' a) psi = psi over three
    Gaussians, a (3, N) block, at each of the times, over params_list."""
    x, dx = _grid((-9.0, 9.0, 1024))
    psi = np.stack([
        np.exp(-0.5 * x * x),
        np.exp(-(x - 0.8) ** 2 / 3.0 + 0.4j * x),
        (1.0 + 0.2 * x) * np.exp(-(x + 1.0) ** 2 / 2.5 - 0.3j * x),
    ])
    norm = l2_norm(interior(psi), dx)
    states = [flow(p, np.asarray(times)[:, None, None]) for p in params_list]
    worst = max(float(np.max(l2_norm(interior(commutator(st, x, psi, dx)
                                              - psi), dx) / norm))
                for st in states)
    return _below(_name("ladder_commutator", tag), worst, 1e-7)


def ladder_algebra():
    grid, dx = _grid(OPERATOR_GRID)
    times = np.array(EIGHT_TIMES[::2])
    presets = _presets()
    results = []
    for name, cfg in presets.items():
        st = flow(cfg.params, times[:, None])
        states = [eval_psi_invariant_frame(StateSpec(cfg.params, n), grid, times)
                  for n in range(7)]
        norms = [l2_norm(interior(s), dx) for s in states]
        down = up = 0.0
        for n in range(1, 7):
            # a psi_n = sqrt(n) psi_{n-1} and a' psi_{n-1} = sqrt(n) psi_n.
            lowered = (ladder(ANNIHILATION, st, grid, states[n], dx)
                       - math.sqrt(n) * states[n - 1])
            raised = (ladder(CREATION, st, grid, states[n - 1], dx)
                      - math.sqrt(n) * states[n])
            down = max(down, float(np.max(
                l2_norm(interior(lowered), dx) / norms[n])))
            up = max(up, float(np.max(
                l2_norm(interior(raised), dx) / norms[n - 1])))
        results.append(_below(f"ladder_lowering[{name}]", down, 1e-6))
        results.append(_below(f"ladder_raising[{name}]", up, 1e-6))
    results.append(_commutator_row([cfg.params for cfg in presets.values()],
                                   (0.0, 1.0, 2.5), "gaussian frames"))
    return results


# -- criterion 4: textbook limit ---------------------------------------------

def textbook_limit():
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
    worst_quad = max(np.max(np.abs(quadrature_moment_rows(x, rows)[1]
                                   - (np.arange(5) + 0.5)))
                     for rows in (pos, dft_momentum_rows(x, pos)))
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
    for name, params in _cases(6):
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


def _momentum_gaps(numeric, params, times, denominator):
    """L2 gaps between the (5, T, N) transforms `numeric` of psi_n, n <= 4,
    of params and the closed-form momentum states on the transform grid: a
    (5, T) block, one per order and time."""
    grid, dx = _grid(TRANSFORM_GRID)
    mapped = momentum_params(params, denominator)
    closed = np.stack([psi_rows(StateSpec(mapped, n), grid, times)
                       for n in range(5)])
    return l2_norm(numeric - closed, dx)


def _momentum_map_rows(members, times, denominator):
    """One row per member, and the (P, 5, T, N) transforms it compares."""
    numeric = _momentum_transforms([cfg.params for cfg in members.values()],
                                   times)
    return [_below(_name("momentum_map", name, "n<=4"),
                   _momentum_gaps(rows, cfg.params, times, denominator).max(),
                   1e-8)
            for (name, cfg), rows in zip(members.items(), numeric)], numeric


def momentum_representation(denominator=BETA0_QUARTIC):
    presets = _presets()
    results, numeric = _momentum_map_rows(presets, EIGHT_TIMES, denominator)
    # The control's frame (example3, n = 0, t = 0) is a row of numeric.
    example3 = list(presets).index("example3")
    control = _momentum_gaps(numeric[example3, :, :1],
                             presets["example3"].params, EIGHT_TIMES[:1],
                             BETA0_SQUARED)[0, 0]
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
    grid, dx = _grid((ex1.grid.x_min, ex1.grid.x_max, ex1.grid.points))
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

def _classical_rows(name, params):
    """Energy drift and Ehrenfest residual of the n = 0 moments over one
    period."""
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
    return [_below(_name("energy_constant", name), drift, 1e-12),
            _below(_name("ehrenfest", name), ehrenfest, 1e-8)]


def classical_layer():
    return [row for name, params in _cases(3)
            for row in _classical_rows(name, params)]


# -- criterion 9: independent propagation ------------------------------------

def independent_propagation(members=None):
    """L2 gap between split-step and closed form at t = 1, one row per
    member; all start states are propagated in one batched call."""
    specs = {name: StateSpec(cfg.params, cfg.n)
             for name, cfg in (members or _presets()).items()}
    grid, dx = _grid(PROPAGATION_GRID)
    starts = np.stack([eval_psi(spec, grid, 0.0) for spec in specs.values()])
    evolved = split_step_propagate(grid, starts, 1.0, steps=4096)
    return [_below(_name("split_step_vs_closed_form", name),
                   l2_norm(out - eval_psi(spec, grid, 1.0), dx), 1e-5)
            for (name, spec), out in zip(specs.items(), evolved)]


# -- criterion 10: comoving-frame adjudication --------------------------------

def _comoving_rows(members, convention, times):
    """Worst comoving residual under convention, one row per member."""
    return [_below(_name("comoving_residual", name, convention),
                   comoving_residual(StateSpec(cfg.params, cfg.n), times,
                                     convention).max(), _COMOVING_BOUND)
            for name, cfg in members.items()]


def _both_conventions(members, times):
    """Each convention's rows, the conventions that pass on every member,
    and the row that requires exactly one of them."""
    rows = {c: _comoving_rows(members, c, times)
            for c in (MINUS_TWO_GAMMA, MINUS_GAMMA)}
    winners = [c for c, found in rows.items()
               if all(row.passed for row in found)]
    return rows, winners, CheckResult(
        "comoving_exactly_one_convention", float(len(winners)),
        "exactly 1 passing convention", len(winners) == 1)


def comoving_adjudication(tau_convention=None, members=None,
                          times=(0.8, 2.0, 4.0)):
    """Pinned to tau_convention: one row per member.  Otherwise each
    convention's worst residual over the members, and the one that passes."""
    members = members or _presets()
    if tau_convention is not None:
        return _comoving_rows(members, tau_convention, times)
    rows, winners, exactly_one = _both_conventions(members, times)
    worst = {c: max(row.value for row in found) for c, found in rows.items()}
    return [*(CheckResult(f"comoving_residual[{c}, all presets]", value,
                          "reported", True) for c, value in worst.items()),
            exactly_one,
            *(_below(f"comoving_winner[{c}]", worst[c], _COMOVING_BOUND)
              for c in winners[:1])]


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


# The criteria in the order in which they go to the workers: longest first,
# by their serial times on one core, so that no long one starts late.
CRITERIA = (
    ("9 independent propagation", independent_propagation),
    ("2 invariant spectrum", invariant_spectrum),
    ("6 momentum representation", momentum_representation),
    ("3 ladder algebra", ladder_algebra),
    ("5 uncertainty structure", uncertainty_structure),
    ("1 family exactness", family_exactness),
    ("1s family exactness at refined resolution (supplementary)",
     family_exactness_refined),
    ("4 textbook limit", textbook_limit),
    ("10 comoving adjudication", comoving_adjudication),
    ("8 classical layer", classical_layer),
    ("11 convergence orders", convergence_orders),
    ("7 animation reproduction", animation_reproduction),
)


def run_acceptance(denominator=BETA0_QUARTIC, tau_convention=None):
    """Evaluate the full battery; returns {criterion: [CheckResult, ...]}.

    The criteria are independent of each other and run on the worker pool
    in the order of CRITERIA; the result is in criterion order, 1s after 1.
    """
    args = {momentum_representation: (denominator,),
            comoving_adjudication: (tau_convention,)}
    results = ordered_map(lambda job: job[1](*args.get(job[1], ())), CRITERIA)
    rows = {label: found for (label, _), found in zip(CRITERIA, results)}
    return {label: rows[label] for label in sorted(
        rows, key=lambda label: (int(label.split()[0].rstrip("s")), label))}


def _scoped_leading_rows(config, denominator):
    """The rows of scoped_checks before its split-step row."""
    member = {None: config}
    half = EIGHT_TIMES[::2]
    return [*family_exactness(member, sorted({0, 1, 2, 5, config.n})),
            *invariant_spectrum(member, half),
            _commutator_row([config.params], (0.0, 1.0)),
            *_momentum_map_rows(member, half, denominator)[0],
            _classical_rows(None, config.params)[0]]


def _scoped_trailing_rows(config, tau_convention):
    """The rows of scoped_checks after its split-step row."""
    member = {None: config}
    times = (0.8, 2.0)
    if tau_convention:
        rows = comoving_adjudication(tau_convention, member, times)
    else:
        by_convention, _, exactly_one = _both_conventions(member, times)
        rows = [*by_convention[MINUS_TWO_GAMMA], exactly_one]
    params = config.params
    op_grid, dx = _grid(OPERATOR_GRID)
    norm_sq = l2_norm(eval_psi(StateSpec(params, config.n), op_grid, 1.1),
                      dx) ** 2
    expected = 1.0 / (params.mu0 * abs(params.beta0))
    rows.append(_below("normalization[1/(mu0 |beta0|)]",
                       abs(norm_sq - expected), 1e-10))
    return rows


def scoped_checks(config, denominator=BETA0_QUARTIC, tau_convention=None):
    """Verification battery restricted to one configured family member.

    The rows are the full battery's, built by the same criteria and row
    builders on this one member, with n in {0, 1, 2, 5, config.n} for the PDE
    residual, every second of the eight sample times for the invariant and
    momentum-map checks, and the first two times of the commutator and
    comoving checks; a normalization row is added.  The rows go to the
    worker pool as three jobs, in print order: the rows before the
    split-step row, `independent_propagation` on this member alone (the
    oracle, about 60% of the work), then the rows after it, which go to the
    first worker free.  On two cores the propagation runs alone.
    """
    jobs = (functools.partial(_scoped_leading_rows, config, denominator),
            functools.partial(independent_propagation, {None: config}),
            functools.partial(_scoped_trailing_rows, config, tau_convention))
    return [row for rows in ordered_map(lambda job: job(), jobs)
            for row in rows]
