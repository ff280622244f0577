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
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, UnsupportedInputError
from .exact import (
    BarenblattParams,
    barenblatt,
    mass_to_b,
    stochastic_barenblatt,
)
from .noise import (
    CoefficientPair,
    MultiplierPath,
    TimeGrid,
    brownian_block,
    interp_h,
    interp_H,
    limit_distribution,
    locate_times,
    mix_seed,
    multiplier_block,
    multiplier_path,
    read_block,
    sample_brownian,
)
from .solver import (
    FieldState,
    SchemeConfig,
    SnapshotTable,
    dense_values,
    eval_on_centers,
    evolve_together,
    interp_mass,
    lp_power_sum,
    support_radius,
)
from .timechange import StochasticFieldSample

# Reference tables reach TABLE_MARGIN times the largest sampled clock value,
# with N_SNAPSHOTS geometrically spaced snapshots.
TABLE_MARGIN = 1.05
N_SNAPSHOTS = 160

# Clock sweeps sample paths in blocks of BLOCK_VALUES // (steps + 1) rows (at
# least one), so each block array holds about BLOCK_VALUES float64 values.
BLOCK_VALUES = 65536


@dataclass(frozen=True, eq=False)
class McConfig:
    """Inputs shared by the Monte Carlo sweeps.

    ``initial`` carries the deterministic initial data (and its spatial grid);
    sweeps that only touch the multiplier may leave it None.  ``scheme``
    controls the reference solver runs; snapshot instants are chosen
    internally, ``N_SNAPSHOTS`` of them geometrically spaced up to the largest
    clock value realised by the sampled paths times ``TABLE_MARGIN``.
    """

    n_paths: int
    master_seed: int
    grid: TimeGrid
    coeffs: CoefficientPair
    m: float
    initial: FieldState | None = None
    scheme: SchemeConfig = field(default_factory=SchemeConfig)

    def __post_init__(self):
        if self.n_paths < 2:
            raise InvalidInputError("Monte Carlo sweeps need at least 2 paths")
        if self.m <= 1.0:
            raise InvalidInputError("the noisy equation is posed for m > 1")


@dataclass(frozen=True, eq=False)
class McReport:
    """Outcome of one Monte Carlo check."""

    estimate: float
    stderr: float
    n: int
    target: float
    passed: bool
    rule: str
    extras: dict
    provenance: dict


def path_clock(cfg: McConfig, index: int) -> MultiplierPath:
    """Clock realisation for one path index (pure function of the config)."""
    path = sample_brownian(cfg.grid, mix_seed(cfg.master_seed, index))
    return multiplier_path(path, cfg.coeffs, gamma=cfg.m)


def sweep_paths(cfg: McConfig, reduce_path) -> list:
    """``reduce_path(clock)`` for every path, in path-index order."""
    return [reduce_path(path_clock(cfg, i)) for i in range(cfg.n_paths)]


def _mean_and_stderr(values) -> tuple[float, float]:
    n = len(values)
    mean = math.fsum(values) / n
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var / n)


def _provenance(cfg: McConfig, **extra) -> dict:
    info = {
        "n_paths": cfg.n_paths,
        "master_seed": cfg.master_seed,
        "grid_steps": cfg.grid.steps,
        "horizon": cfg.grid.horizon,
        "m": cfg.m,
    }
    info.update(extra)
    return info


def reference_table(cfg: McConfig, span: float) -> SnapshotTable:
    """Deterministic solver table covering clock values up to ``span``.

    The table's absolute time axis starts at the initial state's own time,
    so a clock value s is read at initial.time + s.
    """
    return _reference_tables(cfg, span, (cfg.initial,))[0]


def _reference_tables(cfg: McConfig, span: float, initials: tuple) -> tuple:
    """Tables for states sharing one start time, marched together on the one snapshot schedule."""
    if any(st is None for st in initials):
        raise InvalidInputError("this sweep needs deterministic initial data")
    t0 = initials[0].time
    t_end = t0 + max(span, 1e-6)
    if t0 > 0.0:
        snaps = np.geomspace(t0, t_end, N_SNAPSHOTS)[1:]
    else:
        first = max(1e-4 * t_end, 1e-6)
        snaps = np.geomspace(first, t_end, N_SNAPSHOTS)
    scheme = SchemeConfig(cfl_safety=cfg.scheme.cfl_safety, snapshot_times=tuple(snaps))
    return evolve_together(initials, cfg.m, t_end, scheme)


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
    (:func:`path_clock` read by ``interp_h``/``interp_H``).  The times are
    checked before any path is drawn.
    """
    grid, n = cfg.grid, cfg.n_paths
    located = locate_times(grid, times)
    h, H = np.empty((n, located[0].size)), np.empty((n, located[0].size))
    logh_end = np.empty(n)
    rows = max(1, BLOCK_VALUES // (grid.steps + 1))
    for start in range(0, n, rows):
        block = slice(start, min(start + rows, n))
        seeds = [mix_seed(cfg.master_seed, i) for i in range(block.start, block.stop)]
        logh, h_rows, H_rows = multiplier_block(brownian_block(grid, seeds), grid, cfg.coeffs, cfg.m)
        h[block] = read_block(h_rows, grid, located)
        H[block] = read_block(H_rows, grid, located)
        logh_end[block] = logh[:, -1]
    return h, H, logh_end


def clock_sweep(cfg: McConfig, times, initials: tuple | None = None) -> ClockSweep:
    """Sample the clock of every path at ``times``, then solve once for the largest value.

    The solve starts from ``initials`` (states sharing one start time), by
    default from ``cfg.initial`` alone.
    """
    h, H, logh_end = _clocks(cfg, times)
    max_clock = float(np.max(H))
    if not math.isfinite(max_clock):
        raise InvalidInputError("clock overflowed to infinity; shorten the horizon or the drift")
    tables = _reference_tables(cfg, TABLE_MARGIN * max_clock, initials or (cfg.initial,))
    return ClockSweep(h=h, H=H, logh_end=logh_end, max_clock=max_clock, tables=tables)


def mc_mean_mass(cfg: McConfig, t: float) -> McReport:
    """Check E integral(u(t)) = mass(U(0)) * exp(int_0^t g) at 3 standard errors.

    The estimator averages h(t) times the discrete mass of the deterministic
    solution at the clock value H(t); mass conservation makes the second
    factor constant up to the solver's mass drift, so with f = 0 the check is
    exact to that drift.
    """
    sweep = clock_sweep(cfg, [t])
    table = sweep.tables[0]
    per_path = (sweep.h[:, 0] * interp_mass(table, sweep.table_times[:, 0])).tolist()
    estimate, stderr = _mean_and_stderr(per_path)
    target = cfg.initial.mass * math.exp(cfg.coeffs.integral_g(t))
    tolerance = max(3.0 * stderr, 1e-9 * abs(target))
    passed = abs(estimate - target) <= tolerance
    return McReport(
        estimate=estimate,
        stderr=stderr,
        n=cfg.n_paths,
        target=target,
        passed=passed,
        rule="|estimate - target| <= max(3 SE, 1e-9 target)",
        extras={"max_clock": sweep.max_clock, "t": t, "per_path": per_path},
        provenance=_provenance(cfg, table_cells=table.grid.cells, table_horizon=table.t_last),
    )


def mc_lp_bound(cfg: McConfig, p: float, t: float) -> McReport:
    """Check (E integral(u(t)^p))^(1/p) <= Mp * exp(int g + (p-1)/2 int f^2).

    Mp is the discrete L^p size of the initial data; the deterministic L^p
    power sum is non-increasing in time, which is what makes the bound hold
    pathwise.  The comparison allows Monte Carlo noise through a
    3-relative-standard-error inflation of the right side.
    """
    if p < 1.0:
        raise InvalidInputError("the bound is stated for p >= 1")
    sweep = clock_sweep(cfg, [t])
    table = sweep.tables[0]
    grid = table.grid
    per_path = [
        h**p * lp_power_sum(dense_values(table, s), grid, p)
        for h, s in zip(sweep.h[:, 0].tolist(), sweep.table_times[:, 0].tolist())
    ]
    mean_p, stderr_p = _mean_and_stderr(per_path)
    lhs = mean_p ** (1.0 / p)
    mp = lp_power_sum(cfg.initial, None, p) ** (1.0 / p)
    rhs = mp * math.exp(cfg.coeffs.integral_g(t) + 0.5 * (p - 1.0) * cfg.coeffs.integral_f2(t))
    rel_stderr = stderr_p / mean_p if mean_p > 0.0 else 0.0
    passed = lhs <= rhs * (1.0 + 3.0 * rel_stderr)
    return McReport(
        estimate=lhs,
        stderr=stderr_p,
        n=cfg.n_paths,
        target=rhs,
        passed=passed,
        rule="lhs <= rhs * (1 + 3 relative SE)",
        extras={"p": p, "t": t, "initial_lp": mp, "max_clock": sweep.max_clock, "per_path": per_path},
        provenance=_provenance(cfg, table_cells=grid.cells, table_horizon=table.t_last),
    )


def limit_law_statistics(cfg: McConfig) -> McReport:
    """Sample statistics of log h at the horizon against its limit law.

    The mean is tested at 3 standard errors against int g - 1/2 int f^2 from
    :func:`spmelab.noise.limit_distribution`; the sample variance is tested
    against the 3-sigma chi-square band around the law's variance int f^2,
    which the extras also record as ``integral_f2``.
    """
    if not cfg.coeffs.compactly_supported:
        raise UnsupportedInputError("the limit law needs compactly supported coefficients")
    cutoff = float(cfg.coeffs.breaks[-1])
    if cfg.grid.horizon <= cutoff:
        raise InvalidInputError("the horizon must pass the coefficient cutoff")
    xis = _clocks(cfg, [])[2].tolist()
    mean, stderr = _mean_and_stderr(xis)
    n = cfg.n_paths
    sample_var = math.fsum((v - mean) ** 2 for v in xis) / (n - 1)
    claimed_mean, claimed_var = limit_distribution(cfg.coeffs)
    band_half = 3.0 * claimed_var * math.sqrt(2.0 / (n - 1))
    band = (claimed_var - band_half, claimed_var + band_half)
    mean_ok = abs(mean - claimed_mean) <= 3.0 * stderr
    var_ok = band[0] <= sample_var <= band[1]
    return McReport(
        estimate=mean,
        stderr=stderr,
        n=n,
        target=claimed_mean,
        passed=bool(mean_ok and var_ok),
        rule="mean at 3 SE and variance in the 3-sigma chi-square band",
        extras={
            "sample_var": sample_var,
            "claimed_var": claimed_var,
            "var_band": band,
            "mean_ok": mean_ok,
            "var_ok": var_ok,
            "integral_f2": cfg.coeffs.integral_f2(cutoff),
            "xis": xis,
        },
        provenance=_provenance(cfg),
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
        if self.width <= 0.0:
            raise InvalidInputError("bump width must be positive")

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
        return float(out[0]) if np.ndim(x) == 0 else out.reshape(np.shape(x))

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
        return float(out[0]) if np.ndim(x) == 0 else out.reshape(np.shape(x))


def _simpson(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    if n < 3 or n % 2 == 0:
        raise InvalidInputError("Simpson rule needs an odd node count >= 3")
    xs = np.linspace(a, b, n)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return xs, w * (b - a) / (n - 1) / 3.0


def weak_form_residual(
    sample: StochasticFieldSample,
    m: float,
    phi: Bump,
    t: float,
    n_quad: int = 513,
) -> float:
    """Defect of the discrete weak formulation at time t.

    Computes |(u, phi)(t) - (u, phi)(0) - sum (u^m, lap phi) dt
    - sum (u, phi)(f dw + g dt)| with left-endpoint sums on the clock's own
    mesh; t snaps down to the nearest grid node.  Spatial inner products use
    a fixed Simpson rule over the bump's support.
    """
    clock = sample.clock
    nodes = clock.grid.nodes
    if t < 0.0 or t > clock.horizon * (1.0 + 1e-12):
        raise InvalidInputError("query time outside the clock horizon")
    k_end = int(np.searchsorted(nodes, t * (1.0 + 1e-12), side="right")) - 1
    k_end = max(k_end, 0)
    xs, wts = _simpson(phi.lo, phi.hi, n_quad)
    phiv = phi(xs) * wts
    lapv = phi.laplacian(xs) * wts
    hs = clock.h[: k_end + 1]
    Hs = clock.H[: k_end + 1]
    try:
        base_vals = np.asarray(sample.base.evaluate(Hs[:, None], xs[None, :]), dtype=float)
        if base_vals.shape != (k_end + 1, xs.size):
            raise ValueError
    except Exception:
        base_vals = np.vstack(
            [np.asarray(sample.base.evaluate(float(s), xs), dtype=float) for s in Hs]
        )
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

def comparison_check(
    cfg: McConfig,
    initial_low: FieldState,
    initial_high: FieldState,
    probes,
    tol: float = 1e-9,
) -> bool:
    """True when the two transformed solutions stay ordered at every probe.

    ``initial_low <= initial_high`` pointwise is required; both evolve with
    the same scheme and ride the same clock realisation per path, so the
    transform preserves the discrete comparison principle exactly and ``tol``
    only absorbs rounding.
    """
    if initial_low.grid is not initial_high.grid and not (
        initial_low.grid.cells == initial_high.grid.cells
        and initial_low.grid.lo == initial_high.grid.lo
        and initial_low.grid.hi == initial_high.grid.hi
    ):
        raise InvalidInputError("both initial states must share one grid")
    if initial_low.time != initial_high.time:
        raise InvalidInputError("both initial states must share one start time")
    if np.any(initial_low.values > initial_high.values):
        raise InvalidInputError("initial ordering violated: expected low <= high")
    sweep = clock_sweep(cfg, [float(t) for t, _ in probes], (initial_low, initial_high))
    table_low, table_high = sweep.tables
    for k, (_, x) in enumerate(probes):
        h, s = sweep.h[:, k], sweep.table_times[:, k]
        u_low = h * eval_on_centers(table_low, s, float(x))
        u_high = h * eval_on_centers(table_high, s, float(x))
        if np.any(u_low > u_high + tol * np.maximum(1.0, np.abs(u_high))):
            return False
    return True


def maximum_check(
    cfg: McConfig,
    bound: float,
    probes,
    tol: float = 1e-9,
) -> bool:
    """True when 0 <= u(t, x) <= bound * h(t) holds at every probe.

    ``bound`` must dominate the initial data; the deterministic solution then
    never exceeds it (discrete maximum principle), so the noisy field is
    capped by bound * h exactly up to rounding.
    """
    if cfg.initial is None:
        raise InvalidInputError("maximum check needs initial data")
    if float(np.max(cfg.initial.values)) > bound:
        raise InvalidInputError("the bound must dominate the initial data")
    sweep = clock_sweep(cfg, [float(t) for t, _ in probes])
    for k, (_, x) in enumerate(probes):
        h = sweep.h[:, k]
        u = h * eval_on_centers(sweep.tables[0], sweep.table_times[:, k], float(x))
        if np.any((u < -tol) | (u > bound * h + tol * np.maximum(1.0, bound * h))):
            return False
    return True


def asymptotic_error(
    table: SnapshotTable,
    clock: MultiplierPath,
    b: float,
    t: float,
    x=0.0,
) -> float:
    """Clock-scaled distance H(t)**(beta d) |u(t,x) - noisy source-type profile|.

    The exponent is recomputed here from (m, d) so tests can cross-check it
    against the profile parameters.
    """
    m = table.m
    d = table.grid.dim
    beta = 1.0 / ((m - 1.0) * d + 2.0)
    s = interp_H(clock, t)
    u = interp_h(clock, t) * float(eval_on_centers(table, table.t_first + s, x))
    params = BarenblattParams(m=m, d=d, b=b)
    reference = stochastic_barenblatt(params, clock, t, x)
    return s ** (beta * d) * abs(u - reference)


def asymptotics_experiment(
    cfg: McConfig,
    probe_times,
    x0: float = 0.0,
    min_fraction: float = 0.95,
) -> McReport:
    """Fraction of paths whose clock-scaled profile error strictly decreases.

    Per path the schedule is :func:`asymptotic_error` over ``probe_times``
    with b matched to the initial mass.  With f = 0 every path shares one
    deterministic clock, so the fraction collapses to 0 or 1 and the recorded
    schedule is the deterministic decay curve itself.
    """
    if cfg.initial is None:
        raise InvalidInputError("the asymptotics experiment needs initial data")
    times = [float(t) for t in probe_times]
    if len(times) < 2 or sorted(times) != times:
        raise InvalidInputError("probe times must be increasing, at least two")
    sweep = clock_sweep(cfg, times)
    table = sweep.tables[0]
    m, d = cfg.m, table.grid.dim
    beta = 1.0 / ((m - 1.0) * d + 2.0)
    b = mass_to_b(m, d, cfg.initial.mass)
    params = BarenblattParams(m=m, d=d, b=b)
    centre = eval_on_centers(table, sweep.table_times, x0).tolist()
    schedules = [
        [s ** (beta * d) * h * abs(u - barenblatt(params, s, x0)) for h, s, u in zip(*row)]
        for row in zip(sweep.h.tolist(), sweep.H.tolist(), centre)
    ]
    passes = [all(a > b_ for a, b_ in zip(e, e[1:])) for e in schedules]
    fraction = sum(passes) / len(passes)
    return McReport(
        estimate=fraction,
        stderr=math.sqrt(fraction * (1.0 - fraction) / len(passes)) if 0 < fraction < 1 else 0.0,
        n=cfg.n_paths,
        target=1.0,
        passed=fraction >= min_fraction,
        rule=f"fraction of strictly decreasing scaled-error schedules >= {min_fraction:g}",
        extras={
            "b": b,
            "probe_times": times,
            "first_schedule": schedules[0],
            "max_clock": sweep.max_clock,
            "schedules": schedules,
            "pass_flags": passes,
        },
        provenance=_provenance(cfg, table_cells=table.grid.cells, table_horizon=table.t_last),
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
    if not cfg.coeffs.compactly_supported:
        raise UnsupportedInputError("the attractor check needs compactly supported coefficients")
    if cfg.initial is None:
        raise InvalidInputError("the attractor check needs initial data")
    times = [float(t) for t in probe_times]
    if len(times) < 2 or sorted(times) != times:
        raise InvalidInputError("probe times must be increasing, at least two")
    sweep = clock_sweep(cfg, times)
    table = sweep.tables[0]
    m, d = cfg.m, table.grid.dim
    b = mass_to_b(m, d, cfg.initial.mass)
    params = BarenblattParams(m=m, d=d, b=b)
    u_paths = (sweep.h * eval_on_centers(table, sweep.table_times, x0)).tolist()
    xis = sweep.logh_end.tolist()
    passes = []
    for xi, row in zip(xis, u_paths):
        errors = [
            abs(u - math.exp(xi) * barenblatt(params, math.exp((m - 1.0) * xi) * t, x0))
            for t, u in zip(times, row)
        ]
        passes.append(all(a > b_ for a, b_ in zip(errors, errors[1:])))
    fraction = sum(passes) / len(passes)
    xi_mean, xi_stderr = _mean_and_stderr(xis)
    xi_var = math.fsum((v - xi_mean) ** 2 for v in xis) / (len(xis) - 1)
    claimed_mean, claimed_var = limit_distribution(cfg.coeffs)
    return McReport(
        estimate=fraction,
        stderr=math.sqrt(fraction * (1.0 - fraction) / len(passes)) if 0 < fraction < 1 else 0.0,
        n=cfg.n_paths,
        target=1.0,
        passed=fraction >= 0.95,
        rule="fraction of paths with strictly decreasing comparator distance >= 0.95",
        extras={
            "xi_mean": xi_mean,
            "xi_stderr": xi_stderr,
            "xi_var": xi_var,
            "claimed_mean": claimed_mean,
            "claimed_var": claimed_var,
            "b": b,
            "probe_times": times,
            "pass_flags": passes,
            "xis": xis,
        },
        provenance=_provenance(cfg, table_cells=table.grid.cells, table_horizon=table.t_last),
    )


@dataclass(frozen=True, eq=False)
class SupportReport:
    """Aggregated outcome of the bounded-support experiment.

    ``eta_hat`` is the finite-horizon stand-in for a uniform support bound:
    the largest support radius any path reached by the horizon.  The decay
    table lists the median of u(t, 0) over paths at a fixed schedule of
    times, so the flattening of the clock and the pointwise decay can be
    read side by side.
    """

    plateau_ok: bool
    plateau_median: float
    eta_hat: float
    bound_ok: bool
    domain_ok: bool
    support_radii: np.ndarray
    support_bounds: np.ndarray
    mass_report: McReport
    decay_ok: bool
    center_initial: float
    center_median: float
    decay_times: np.ndarray
    decay_medians: np.ndarray
    naive_mass_at_horizon: float
    provenance: dict


def support_experiment(
    cfg: McConfig,
    plateau_tol: float = 0.01,
    mass_check_time: float = 2.0,
    decay_factor: float = 0.1,
) -> SupportReport:
    """Finite-horizon portrait of the m = 2 example with compact initial data.

    Per path it measures the clock plateau (relative increment of H between
    half and full horizon), the largest support radius of the noisy field
    against the dominating-envelope radius, and the final center value.  The
    mean-mass identity is tested at ``mass_check_time``, where the lognormal
    multiplier still admits a calibrated 3-standard-error test at this sample
    size; the naive sample mean at the full horizon is recorded purely as a
    diagnostic because it carries no statistical power there.
    """
    if cfg.m != 2.0:
        raise UnsupportedInputError("the bounded-support experiment is specific to m = 2")
    if cfg.initial is None:
        raise InvalidInputError("the experiment needs compact initial data")
    horizon = cfg.grid.horizon
    if not 0.0 < mass_check_time <= horizon:
        raise InvalidInputError("mass check time must lie inside the horizon")
    half = 0.5 * horizon
    decay_times = np.array([0.25, 0.5, 0.75, 1.0]) * horizon
    # Columns: half horizon, horizon, mass check time, then the decay times.
    # H is nondecreasing, so the largest clock value is that at the horizon.
    sweep = clock_sweep(cfg, [half, horizon, mass_check_time, *decay_times])
    H_half, H_end, h_end = sweep.H[:, 0], sweep.H[:, 1], sweep.h[:, 1]
    table = sweep.tables[0]

    # Dominating envelope: a source-type profile at unit time offset that sits
    # above the initial data; its free boundary bounds every support radius.
    m, d = cfg.m, table.grid.dim
    beta = 1.0 / ((m - 1.0) * d + 2.0)
    height = float(np.max(cfg.initial.values))
    spread = support_radius(cfg.initial)
    b_dom = height ** (m - 1.0) + (m - 1.0) * beta / (2.0 * m) * spread**2
    prefactor = math.sqrt(2.0 * m * b_dom / ((m - 1.0) * beta))

    snap_radii = np.array([support_radius(st) for st in table.states])
    first_after = np.searchsorted(table.times, sweep.table_times[:, 1], side="left")
    radii = snap_radii[np.minimum(first_after, snap_radii.size - 1)]
    bounds = prefactor * (1.0 + H_end) ** beta
    bound_ok = bool(np.all(radii <= bounds))
    # Domain-truncation guard: compact support must never touch the box edge,
    # otherwise zero-flux walls would fake a support bound.
    last = table.states[-1].values
    domain_ok = bool(last[-1] == 0.0 and (table.grid.kind == "radial" or last[0] == 0.0))

    plateau = np.median((H_end - H_half) / H_half)
    plateau_ok = bool(plateau <= plateau_tol)

    mass0 = cfg.initial.mass
    per_path_mass = (sweep.h[:, 2] * interp_mass(table, sweep.table_times[:, 2])).tolist()
    estimate, stderr = _mean_and_stderr(per_path_mass)
    target = mass0 * math.exp(cfg.coeffs.integral_g(mass_check_time))
    mass_report = McReport(
        estimate=estimate,
        stderr=stderr,
        n=cfg.n_paths,
        target=target,
        passed=abs(estimate - target) <= max(3.0 * stderr, 1e-9 * abs(target)),
        rule=f"mean mass at t = {mass_check_time:g} within 3 SE",
        extras={"t": mass_check_time},
        provenance=_provenance(cfg),
    )

    center_initial = float(eval_on_centers(table, table.t_first, 0.0))
    center_by_time = sweep.h[:, 3:] * eval_on_centers(table, sweep.table_times[:, 3:], 0.0)
    decay_medians = np.median(center_by_time, axis=0)
    center_median = float(decay_medians[-1])
    decay_ok = bool(center_median <= decay_factor * center_initial)

    naive_mass = mass0 * math.fsum(h_end) / cfg.n_paths

    return SupportReport(
        plateau_ok=plateau_ok,
        plateau_median=float(plateau),
        eta_hat=float(np.max(radii)),
        bound_ok=bound_ok,
        domain_ok=domain_ok,
        support_radii=radii,
        support_bounds=bounds,
        mass_report=mass_report,
        decay_ok=decay_ok,
        center_initial=center_initial,
        center_median=center_median,
        decay_times=decay_times,
        decay_medians=decay_medians,
        naive_mass_at_horizon=naive_mass,
        provenance=_provenance(
            cfg,
            table_cells=table.grid.cells,
            table_horizon=table.t_last,
            b_dominating=b_dom,
        ),
    )
