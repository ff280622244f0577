"""Monte Carlo studies and verification instruments for the noisy equation.

Almost-sure long-time statements about single paths are replaced here by
finite-horizon, finite-sample surrogates: moment identities are tested at a
3-standard-error level, variances against 3-sigma chi-square bands, pathwise
monotone decay along a fixed probe schedule, and support bounds against the
explicit dominating envelope.  Every sweep derives per-path seeds from the
master seed with :func:`spmelab.noise.mix_seed`, samples the clocks in
blocks of paths with one array arithmetic, and reduces results with
compensated summation in path-index order, so the outcome is independent of
the block size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, UnsupportedInputError
from .exact import BarenblattParams, barenblatt, mass_to_b
from .noise import (
    BLOCK_VALUES,
    CoefficientPair,
    MultiplierPath,
    TimeGrid,
    _clock_blocks,
    _maybe_float,
    limit_distribution,
    locate_times,
    mix_seed,
    multiplier_path,
    read_block,
    sample_brownian,
)
from .solver import (
    FieldState,
    _super_steps,
    dense_values,
    eval_on_centers,
    evolve_together,
    interp_mass,
    lp_power_sum,
    support_radius,
)
from .timechange import DeterministicSolution

# Reference tables reach TABLE_MARGIN times the largest sampled clock value,
# with N_SNAPSHOTS geometrically spaced snapshots.
TABLE_MARGIN = 1.05
N_SNAPSHOTS = 160

# The profile checks pass when at least MIN_FRACTION of the paths decrease
# strictly; the support portrait's decay check asks for median u(T, 0) <=
# DECAY_FACTOR u(0, 0).
MIN_FRACTION = 0.95
DECAY_FACTOR = 0.1

# The order checks absorb rounding with ORDER_TOL * max(1, |value|).
ORDER_TOL = 1e-9

# Simpson nodes over the test function's support in the weak-form residual.
N_QUAD = 513


@dataclass(frozen=True, eq=False)
class McConfig:
    """Inputs shared by the Monte Carlo sweeps.

    ``initial`` carries the deterministic initial data (and its spatial grid);
    sweeps that only touch the multiplier may leave it None.  ``cfl_safety``
    is the safety factor of the reference solver runs; snapshot instants are
    chosen internally, ``N_SNAPSHOTS`` of them geometrically spaced up to the
    largest clock value realised by the sampled paths times ``TABLE_MARGIN``.
    """

    n_paths: int
    master_seed: int
    grid: TimeGrid
    coeffs: CoefficientPair
    m: float
    initial: FieldState | None = None
    cfl_safety: float = 0.4

    def __post_init__(self):
        if self.n_paths < 2:
            raise InvalidInputError("Monte Carlo sweeps need at least 2 paths")
        if not self.m > 1.0:
            raise InvalidInputError(f"the noisy equation is posed for m > 1, not {self.m}")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise InvalidInputError("cfl_safety must lie in (0, 1]")


@dataclass(frozen=True, eq=False)
class McReport:
    """Outcome of one check; ``stderr`` is the standard error its rule uses, 0.0 for none."""

    estimate: float
    stderr: float
    n: int
    target: float
    passed: bool
    rule: str
    extras: dict
    provenance: dict

    def __bool__(self):
        raise TypeError("an McReport has no truth value; read its .passed")


def sweep_paths(cfg: McConfig, reduce_path) -> list:
    """``reduce_path(clock)`` for every path, in path-index order."""
    return [
        reduce_path(multiplier_path(sample_brownian(cfg.grid, mix_seed(cfg.master_seed, i)), cfg.coeffs, cfg.m))
        for i in range(cfg.n_paths)
    ]


def _sample_stats(values) -> tuple[float, float, float]:
    """Mean, its standard error and the sample variance, by compensated sums."""
    n = len(values)
    mean = math.fsum(values) / n
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var / n), var


def _report(cfg: McConfig, estimate, stderr, target, passed, rule, extras, provenance) -> McReport:
    """The report of a check over the paths of ``cfg``."""
    return McReport(
        estimate=estimate, stderr=stderr, n=cfg.n_paths, target=target, passed=passed,
        rule=rule, extras=extras, provenance=provenance,
    )


def _provenance(cfg: McConfig, table=None, **extra) -> dict:
    info = {
        "n_paths": cfg.n_paths,
        "master_seed": cfg.master_seed,
        "grid_steps": cfg.grid.steps,
        "horizon": cfg.grid.horizon,
        "m": cfg.m,
    }
    if table is not None:
        info.update(table_cells=table.grid.cells, table_horizon=table.t_last)
    info.update(extra)
    return info


def _reference_tables(cfg: McConfig, span: float, initials: tuple) -> tuple:
    """Tables for states sharing one start time, marched together on the one snapshot schedule.

    Each table's absolute time axis starts at the states' start time, so a
    clock value s is read at that time + s.
    """
    t0 = initials[0].time
    t_end = t0 + max(span, 1e-6)
    if t0 > 0.0:
        snaps = np.geomspace(t0, t_end, N_SNAPSHOTS)[1:]
    else:
        first = max(1e-4 * t_end, 1e-6)
        snaps = np.geomspace(first, t_end, N_SNAPSHOTS)
    return evolve_together(initials, cfg.m, t_end, cfg.cfl_safety, snaps)


@dataclass(frozen=True, eq=False)
class ClockSweep:
    """Every path's clock at the probe times, and the solve it is read from.

    ``h`` and ``H`` are (n_paths, len(times)) arrays in path-index order and
    ``logh_end`` holds log h at the grid horizon per path.  ``tables`` holds
    one reference table per initial state, all on one snapshot schedule that
    covers ``TABLE_MARGIN * max_clock``; ``table_times`` is where each clock
    value is read on their absolute time axis.
    """

    h: np.ndarray
    H: np.ndarray
    logh_end: np.ndarray
    max_clock: float
    tables: tuple

    @property
    def table_times(self) -> np.ndarray:
        return self.tables[0].t_first + self.H


def _clocks(cfg: McConfig, times) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """h and H of every path at the 1-d ``times``, and log h at the horizon.

    Paths are drawn in blocks of rows and only the probe columns and the last
    log h are kept; every value has the bits of the one-path calls
    ``multiplier_path(sample_brownian(cfg.grid, mix_seed(cfg.master_seed, i)),
    cfg.coeffs, cfg.m)`` read by ``interp_h``/``interp_H``.  The times are
    checked before any path is drawn.
    """
    grid, n = cfg.grid, cfg.n_paths
    x = locate_times(grid, times)
    h, H = np.empty((n, x.size)), np.empty((n, x.size))
    logh_end = np.empty(n)

    def take(start, w, logh, h_rows, H_rows):
        block = slice(start, start + w.shape[0])
        h[block] = read_block(h_rows, grid, x)
        H[block] = read_block(H_rows, grid, x)
        logh_end[block] = logh[:, -1]

    _clock_blocks(grid, cfg.coeffs, cfg.m, cfg.master_seed, n, take)
    return h, H, logh_end


def clock_sweep(cfg: McConfig, times, initials: tuple | None = None) -> ClockSweep:
    """Sample the clock of every path at ``times``, then solve once for the largest value.

    The solve starts from ``initials`` (states sharing one start time), by
    default from ``cfg.initial`` alone.  Missing initial data and an empty
    ``times`` are rejected before any path is drawn.
    """
    initials = initials or (cfg.initial,)
    if any(st is None for st in initials):
        raise InvalidInputError("this sweep needs deterministic initial data")
    if not len(times):
        raise InvalidInputError("a clock sweep needs at least one probe time")
    h, H, logh_end = _clocks(cfg, times)
    max_clock = float(np.max(H))
    if not math.isfinite(max_clock):
        raise InvalidInputError("clock overflowed to infinity; shorten the horizon or the drift")
    tables = _reference_tables(cfg, TABLE_MARGIN * max_clock, initials)
    return ClockSweep(h=h, H=H, logh_end=logh_end, max_clock=max_clock, tables=tables)


def _mean_mass_verdict(cfg: McConfig, sweep: ClockSweep, column: int, t: float) -> tuple[list, tuple]:
    """Per-path h(t) * mass(U(H(t))) from one probe column, and the verdict on its mean.

    The verdict is the estimate, its SE, the target mass(U(0)) * exp(int_0^t g)
    and whether |estimate - target| <= max(3 SE, 1e-9 target), in the order
    :func:`_report` takes them.
    """
    per_path = (sweep.h[:, column] * interp_mass(sweep.tables[0], sweep.table_times[:, column])).tolist()
    estimate, stderr, _ = _sample_stats(per_path)
    target = cfg.initial.mass * math.exp(cfg.coeffs.integral_g(t))
    passed = abs(estimate - target) <= max(3.0 * stderr, 1e-9 * abs(target))
    return per_path, (estimate, stderr, target, passed)


def mc_mean_mass(cfg: McConfig, t: float) -> McReport:
    """Check E integral(u(t)) = mass(U(0)) * exp(int_0^t g) at 3 standard errors.

    The estimator averages h(t) times the discrete mass of the deterministic
    solution at the clock value H(t); mass conservation makes the second
    factor constant up to the solver's mass drift, so with f = 0 the check is
    exact to that drift.
    """
    sweep = clock_sweep(cfg, [t])
    per_path, verdict = _mean_mass_verdict(cfg, sweep, 0, t)
    return _report(
        cfg, *verdict, "|estimate - target| <= max(3 SE, 1e-9 target)",
        {"max_clock": sweep.max_clock, "t": t, "per_path": per_path}, _provenance(cfg, sweep.tables[0]),
    )


def mc_lp_bound(cfg: McConfig, p: float, t: float) -> McReport:
    """Check (E integral(u(t)^p))^(1/p) <= Mp * exp(int g + (p-1)/2 int f^2).

    Mp is the discrete L^p size of the initial data; the deterministic L^p
    power sum is non-increasing in time, which is what makes the bound hold
    pathwise.  The comparison allows Monte Carlo noise through a
    3-relative-standard-error inflation of the right side.
    """
    if not 1.0 <= p < math.inf:
        raise InvalidInputError(f"the bound is stated for finite p >= 1, not {p}")
    sweep = clock_sweep(cfg, [t])
    table = sweep.tables[0]
    grid = table.grid
    # One table read per block of paths, each about BLOCK_VALUES cell values.
    block = max(1, BLOCK_VALUES // grid.cells)
    hs, ss = sweep.h[:, 0].tolist(), sweep.table_times[:, 0]
    per_path = []
    for start in range(0, len(hs), block):
        rows = dense_values(table, ss[start : start + block])
        per_path += [h**p * lp_power_sum(row, grid, p) for h, row in zip(hs[start : start + block], rows)]
    mean_p, stderr_p, _ = _sample_stats(per_path)
    lhs = mean_p ** (1.0 / p)
    mp = lp_power_sum(cfg.initial.values, cfg.initial.grid, p) ** (1.0 / p)
    rhs = mp * math.exp(cfg.coeffs.integral_g(t) + 0.5 * (p - 1.0) * cfg.coeffs.integral_f2(t))
    rel_stderr = stderr_p / mean_p if mean_p > 0.0 else 0.0
    return _report(
        cfg, lhs, stderr_p, rhs, lhs <= rhs * (1.0 + 3.0 * rel_stderr), "lhs <= rhs * (1 + 3 relative SE)",
        {"p": p, "t": t, "initial_lp": mp, "max_clock": sweep.max_clock, "per_path": per_path},
        _provenance(cfg, table),
    )


def limit_law_statistics(cfg: McConfig) -> McReport:
    """Sample statistics of log h at the horizon against its limit law.

    The mean is tested at 3 standard errors against int g - 1/2 int f^2 from
    :func:`spmelab.noise.limit_distribution`; the sample variance is tested
    against the 3-sigma chi-square band around the law's variance int f^2,
    which the extras record as ``claimed_var``.
    """
    claimed_mean, claimed_var = limit_distribution(cfg.coeffs)
    cutoff = float(cfg.coeffs.breaks[-1])
    if not cfg.grid.horizon > cutoff:
        raise InvalidInputError("the horizon must pass the coefficient cutoff")
    xis = _clocks(cfg, [])[2].tolist()
    mean, stderr, sample_var = _sample_stats(xis)
    band_half = 3.0 * claimed_var * math.sqrt(2.0 / (cfg.n_paths - 1))
    band = (claimed_var - band_half, claimed_var + band_half)
    mean_ok = abs(mean - claimed_mean) <= 3.0 * stderr
    var_ok = band[0] <= sample_var <= band[1]
    return _report(
        cfg, mean, stderr, claimed_mean, bool(mean_ok and var_ok),
        "mean at 3 SE and variance in the 3-sigma chi-square band",
        {
            "sample_var": sample_var,
            "claimed_var": claimed_var,
            "var_band": band,
            "mean_ok": mean_ok,
            "var_ok": var_ok,
            "xis": xis,
        },
        _provenance(cfg),
    )


# ---------------------------------------------------------------------------
# Weak-form residual.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bump:
    """Smooth compactly supported test function with a closed-form Laplacian.

    phi(x) = exp(1 - 1/(1 - s)) with s = ((x - center)/width)^2 < 1, zero
    outside; normalised so phi(center) = 1.
    """

    center: float
    width: float

    def __post_init__(self):
        if not math.isfinite(self.center):
            raise InvalidInputError(f"bump center must be finite, not {self.center}")
        if not self.width > 0.0:
            raise InvalidInputError(f"bump width must be positive, not {self.width}")
        if not self.hi - self.lo < math.inf:
            raise InvalidInputError(f"bump width {self.width} spans more than a float holds")

    @property
    def lo(self) -> float:
        return self.center - self.width

    @property
    def hi(self) -> float:
        return self.center + self.width

    def _s(self, x):
        xi = (np.asarray(x, dtype=float) - self.center) / self.width
        return xi * xi

    def __call__(self, x):
        s = np.atleast_1d(self._s(x))
        out = np.zeros_like(s)
        inside = s < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside]))
        return _maybe_float(out.reshape(np.shape(x)))

    def laplacian(self, x):
        """Second derivative in one dimension, exact on the support."""
        s = np.atleast_1d(self._s(x))
        out = np.zeros_like(s)
        inside = s < 1.0
        si = s[inside]
        phi = np.exp(1.0 - 1.0 / (1.0 - si))
        one = 1.0 - si
        phi_s = -phi / one**2
        phi_ss = phi * (1.0 / one**4 - 2.0 / one**3)
        w2 = self.width**2
        out[inside] = phi_ss * 4.0 * si / w2 + phi_s * 2.0 / w2
        return _maybe_float(out.reshape(np.shape(x)))


def _simpson(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite Simpson rule with an odd node count n."""
    xs = np.linspace(a, b, n)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return xs, w * (b - a) / (n - 1) / 3.0


def weak_form_residual(
    base: DeterministicSolution,
    clock: MultiplierPath,
    m: float,
    phi: Bump,
    t: float,
) -> float:
    """Defect of the discrete weak formulation at time t for u = U(H, x) h on ``base`` and ``clock``.

    Computes |(u, phi)(t) - (u, phi)(0) - sum (u^m, lap phi) dt
    - sum (u, phi)(f dw + g dt)| with left-endpoint sums on the clock's own
    mesh; t snaps down to the nearest grid node.  Spatial inner products use
    a fixed Simpson rule with ``N_QUAD`` nodes over the bump's support.  The
    base is evaluated once, on a column of clock values against a row of
    positions.
    """
    if not m > 1.0:
        raise InvalidInputError(f"the noisy equation is posed for m > 1, not {m}")
    nodes = clock.grid.nodes
    if not 0.0 <= t <= clock.horizon * (1.0 + 1e-12):
        raise InvalidInputError(f"query time must lie in the clock horizon [0, {clock.horizon:g}], not {t}")
    k_end = int(np.searchsorted(nodes, t * (1.0 + 1e-12), side="right")) - 1
    k_end = max(k_end, 0)
    xs, wts = _simpson(phi.lo, phi.hi, N_QUAD)
    phiv = phi(xs) * wts
    lapv = phi.laplacian(xs) * wts
    hs = clock.h[: k_end + 1]
    Hs = clock.H[: k_end + 1]
    base_vals = np.asarray(base.evaluate(Hs[:, None], xs[None, :]), dtype=float)
    if base_vals.shape != (k_end + 1, xs.size):
        raise InvalidInputError(f"base values have shape {base_vals.shape}, not {(k_end + 1, xs.size)}")
    paired = hs * (base_vals @ phiv)
    diffused = hs**m * ((base_vals**m) @ lapv)
    dtv = np.diff(nodes[: k_end + 1])
    dw = np.diff(clock.path.w[: k_end + 1])
    f_vals, g_vals = clock.coeffs.values_on(clock.grid)
    f_vals = f_vals[:k_end]
    g_vals = g_vals[:k_end]
    drift = float(np.dot(diffused[:-1], dtv)) if k_end else 0.0
    noise_sum = float(np.dot(paired[:-1], f_vals * dw + g_vals * dtv)) if k_end else 0.0
    return abs(float(paired[-1] - paired[0]) - drift - noise_sum)


# ---------------------------------------------------------------------------
# Order, bound, and attractor experiments.
# ---------------------------------------------------------------------------

def _finite_positions(positions) -> np.ndarray:
    """``positions`` as a float array once every one is finite; called before any path is drawn."""
    xs = np.asarray(positions, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise InvalidInputError(f"probe positions must be finite, not {xs}")
    return xs


def comparison_check(
    cfg: McConfig,
    initial_low: FieldState,
    initial_high: FieldState,
    probes,
) -> McReport:
    """Whether the two transformed solutions stay ordered at every probe.

    ``initial_low <= initial_high`` pointwise is required; both evolve with
    the same scheme and ride the same clock realisation per path, so the
    transform preserves the discrete comparison principle exactly and
    ``tol = ORDER_TOL`` only absorbs rounding.  The estimate is the least
    slack high + tol max(1, |high|) - low over probes and paths.
    """
    if initial_low.grid != initial_high.grid:
        raise InvalidInputError("both initial states must share one grid")
    if initial_low.time != initial_high.time:
        raise InvalidInputError("both initial states must share one start time")
    if not np.all(initial_low.values <= initial_high.values):
        raise InvalidInputError("initial ordering violated: expected low <= high")
    xs = _finite_positions([x for _, x in probes])
    sweep = clock_sweep(cfg, [float(t) for t, _ in probes], (initial_low, initial_high))
    table_low, table_high = sweep.tables
    u_low = sweep.h * eval_on_centers(table_low, sweep.table_times, xs)
    u_high = sweep.h * eval_on_centers(table_high, sweep.table_times, xs)
    slack = float(np.min(u_high + ORDER_TOL * np.maximum(1.0, np.abs(u_high)) - u_low))
    rule = f"low <= high + tol max(1, |high|) at every probe and path, tol = {ORDER_TOL:g}"
    extras = {"max_clock": sweep.max_clock}
    return _report(cfg, slack, 0.0, 0.0, slack >= 0.0, rule, extras, _provenance(cfg, table_low))


def maximum_check(
    cfg: McConfig,
    bound: float,
    probes,
) -> McReport:
    """Whether 0 <= u(t, x) <= bound * h(t) holds at every probe.

    ``bound`` must dominate the initial data; the deterministic solution then
    never exceeds it (discrete maximum principle), so the noisy field is
    capped by bound * h exactly up to rounding, which ``tol = ORDER_TOL``
    absorbs.  The estimate is the least slack, u + tol or
    bound h + tol max(1, bound h) - u, over probes and paths.
    """
    if cfg.initial is None:
        raise InvalidInputError("maximum check needs initial data")
    if not float(np.max(cfg.initial.values)) <= bound:
        raise InvalidInputError(f"the bound must dominate the initial data, not {bound}")
    xs = _finite_positions([x for _, x in probes])
    sweep = clock_sweep(cfg, [float(t) for t, _ in probes])
    u = sweep.h * eval_on_centers(sweep.tables[0], sweep.table_times, xs)
    cap = bound * sweep.h + ORDER_TOL * np.maximum(1.0, bound * sweep.h)
    slack = min(float(np.min(u + ORDER_TOL)), float(np.min(cap - u)))
    rule = f"-tol <= u <= bound h + tol max(1, bound h) at every probe and path, bound = {bound:g}, tol = {ORDER_TOL:g}"
    extras = {"max_clock": sweep.max_clock}
    return _report(cfg, slack, 0.0, 0.0, slack >= 0.0, rule, extras, _provenance(cfg, sweep.tables[0]))


def _profile_sweep(cfg: McConfig, probe_times, x0: float) -> tuple:
    """Checked probe times, the sweep at them, and the source profile of the initial mass."""
    times = [float(t) for t in probe_times]
    if len(times) < 2 or not all(a < b for a, b in zip(times, times[1:])):
        raise InvalidInputError("probe times must be strictly increasing, at least two")
    _finite_positions(x0)
    sweep = clock_sweep(cfg, times)
    d = sweep.tables[0].grid.dim
    return times, sweep, BarenblattParams(m=cfg.m, d=d, b=mass_to_b(cfg.m, d, cfg.initial.mass))


def _decreasing_fraction(rows) -> tuple[list, float, float]:
    """Per-row strictly-decreasing flags, the passing fraction and its binomial SE."""
    passes = [all(a > b for a, b in zip(row, row[1:])) for row in rows]
    fraction = sum(passes) / len(passes)
    stderr = math.sqrt(fraction * (1.0 - fraction) / len(passes)) if 0 < fraction < 1 else 0.0
    return passes, fraction, stderr


def asymptotics_experiment(
    cfg: McConfig,
    probe_times,
    x0: float = 0.0,
) -> McReport:
    """Fraction of paths whose clock-scaled profile error strictly decreases.

    Per path the schedule over ``probe_times`` is
    H(t)**(beta d) * h(t) * |U(H(t), x0) - profile(H(t), x0; b)|: the distance
    of u(t, x0) = h(t) U(H(t), x0) to the noisy source-type profile, scaled by
    the profile's decay rate, with beta = 1 / ((m - 1) d + 2) and b matched to
    the initial mass.  With f = 0 every path shares one deterministic clock,
    so the fraction collapses to 0 or 1 and the recorded schedule is the
    deterministic decay curve itself.
    """
    times, sweep, params = _profile_sweep(cfg, probe_times, x0)
    exponent = params.beta * params.d
    centre = eval_on_centers(sweep.tables[0], sweep.table_times, x0).tolist()
    schedules = [
        [s**exponent * h * abs(u - barenblatt(params, s, x0)) for h, s, u in zip(*row)]
        for row in zip(sweep.h.tolist(), sweep.H.tolist(), centre)
    ]
    passes, fraction, stderr = _decreasing_fraction(schedules)
    return _report(
        cfg, fraction, stderr, 1.0, fraction >= MIN_FRACTION,
        f"fraction of strictly decreasing scaled-error schedules >= {MIN_FRACTION:g}",
        {
            "b": params.b,
            "probe_times": times,
            "first_schedule": schedules[0],
            "max_clock": sweep.max_clock,
            "schedules": schedules,
            "pass_flags": passes,
        },
        _provenance(cfg, sweep.tables[0]),
    )


def limit_profile_check(
    cfg: McConfig,
    probe_times,
    x0: float = 0.0,
) -> McReport:
    """Pathwise attraction to the randomly rescaled source-type profile.

    Per path the comparator is exp(xi) * profile(exp((m-1) xi) t, x0; b) with
    xi = log h at the horizon (frozen once the coefficients cut off) and b
    matched to the initial mass.  A path passes when the distance to the
    comparator strictly decreases along ``probe_times``.  The report's
    estimate is the passing fraction; the extras carry the xi statistics next
    to the mean and variance of its limit law.
    """
    claimed_mean, claimed_var = limit_distribution(cfg.coeffs)
    times, sweep, params = _profile_sweep(cfg, probe_times, x0)
    m = cfg.m
    u_paths = (sweep.h * eval_on_centers(sweep.tables[0], sweep.table_times, x0)).tolist()
    xis = sweep.logh_end.tolist()
    distances = [
        [abs(u - math.exp(xi) * barenblatt(params, math.exp((m - 1.0) * xi) * t, x0)) for t, u in zip(times, row)]
        for xi, row in zip(xis, u_paths)
    ]
    passes, fraction, stderr = _decreasing_fraction(distances)
    xi_mean, xi_stderr, xi_var = _sample_stats(xis)
    return _report(
        cfg, fraction, stderr, 1.0, fraction >= MIN_FRACTION,
        f"fraction of paths with strictly decreasing comparator distance >= {MIN_FRACTION:g}",
        {
            "xi_mean": xi_mean,
            "xi_stderr": xi_stderr,
            "xi_var": xi_var,
            "claimed_mean": claimed_mean,
            "claimed_var": claimed_var,
            "b": params.b,
            "probe_times": times,
            "pass_flags": passes,
            "xis": xis,
        },
        _provenance(cfg, sweep.tables[0]),
    )


def support_experiment(
    cfg: McConfig,
    plateau_tol: float = 0.01,
    mass_check_time: float = 2.0,
) -> dict:
    """Finite-horizon portrait of the m = 2 example with compact initial data.

    One report per check, with one provenance: ``plateau`` (median relative
    increment of H from half to full horizon), ``support_bound`` (eta_hat,
    the largest support radius reached, each path's under its envelope
    radius), ``domain`` (the field at the box edge, which must stay 0 or the
    zero-flux walls fake a support bound), ``mean_mass`` (at
    ``mass_check_time``, where a 3-SE test is still calibrated; the naive
    mean at the horizon, which has no power, is a diagnostic) and ``decay``
    (median of u(T, 0), with the medians on a time schedule in the extras).
    """
    if cfg.m != 2.0:
        raise UnsupportedInputError("the bounded-support experiment is specific to m = 2")
    if not plateau_tol >= 0.0:
        raise InvalidInputError(f"plateau tolerance must be nonnegative, not {plateau_tol}")
    horizon = cfg.grid.horizon
    if not 0.0 < mass_check_time <= horizon:
        raise InvalidInputError("mass check time must lie inside the horizon")
    half = 0.5 * horizon
    decay_times = np.array([0.25, 0.5, 0.75, 1.0]) * horizon
    # Columns: half horizon, horizon, mass check time, then the decay times.
    # H is nondecreasing, so the largest clock value is that at the horizon.
    # The one solve super-steps: no check here rests on the monotone update.
    with _super_steps():
        sweep = clock_sweep(cfg, [half, horizon, mass_check_time, *decay_times])
    H_half, H_end, h_end = sweep.H[:, 0], sweep.H[:, 1], sweep.h[:, 1]
    table = sweep.tables[0]

    # Dominating envelope: a source-type profile at unit time offset that sits
    # above the initial data; its free boundary bounds every support radius.
    m, d = cfg.m, table.grid.dim
    # Read from the b = 1 record: b_dom is 0 for a zero box, which the record rejects.
    beta = BarenblattParams(m, d, 1.0).beta
    height = float(np.max(cfg.initial.values))
    spread = support_radius(cfg.initial)
    b_dom = height ** (m - 1.0) + (m - 1.0) * beta / (2.0 * m) * spread**2
    prefactor = math.sqrt(2.0 * m * b_dom / ((m - 1.0) * beta))

    snap_radii = np.where(table.values > 0.0, np.abs(table.grid.centers), 0.0).max(axis=1)
    first_after = np.searchsorted(table.times, sweep.table_times[:, 1], side="left")
    radii = snap_radii[np.minimum(first_after, snap_radii.size - 1)]
    bounds = prefactor * (1.0 + H_end) ** beta
    last = table.values[-1]
    edges = last[-1:] if table.grid.kind == "radial" else last[[0, -1]]
    edge = float(np.max(np.abs(edges)))

    plateau = float(np.median((H_end - H_half) / H_half))

    _, verdict = _mean_mass_verdict(cfg, sweep, 2, mass_check_time)
    naive_mass = cfg.initial.mass * math.fsum(h_end) / cfg.n_paths

    center_initial = float(eval_on_centers(table, table.t_first, 0.0))
    center_by_time = sweep.h[:, 3:] * eval_on_centers(table, sweep.table_times[:, 3:], 0.0)
    decay_medians = np.median(center_by_time, axis=0)
    center_median = float(decay_medians[-1])
    decay_target = DECAY_FACTOR * center_initial

    provenance = _provenance(
        cfg, table, b_dominating=b_dom, table_steps=table.steps, table_stages=table.stages,
        table_dt_min=table.dt_min, table_dt_max=table.dt_max, table_clamped=table.clamped_total,
    )
    return {
        "plateau": _report(
            cfg, plateau, 0.0, plateau_tol, plateau <= plateau_tol,
            f"median of (H(T) - H(T/2)) / H(T/2) <= {plateau_tol:g}", {}, provenance,
        ),
        "support_bound": _report(
            cfg, float(np.max(radii)), 0.0, float(np.max(bounds)), bool(np.all(radii <= bounds)),
            "support radius <= sqrt(2 m b / ((m - 1) beta)) (1 + H(T))^beta on every path",
            {"support_radii": radii, "support_bounds": bounds}, provenance,
        ),
        "domain": _report(
            cfg, edge, 0.0, 0.0, edge == 0.0, "field at the box edge of the last snapshot == 0", {}, provenance
        ),
        "mean_mass": _report(
            cfg, *verdict, f"mean mass at t = {mass_check_time:g} within 3 SE",
            {"t": mass_check_time, "naive_mass_at_horizon": naive_mass}, provenance,
        ),
        "decay": _report(
            cfg, center_median, 0.0, decay_target, center_median <= decay_target,
            f"median u(T, 0) <= {DECAY_FACTOR:g} u(0, 0)",
            {"decay_times": decay_times, "decay_medians": decay_medians, "center_initial": center_initial},
            provenance,
        ),
    }
