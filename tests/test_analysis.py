"""Tests for the Monte Carlo sweeps, weak-form residual, and experiments."""
from __future__ import annotations

import math

import numpy as np
import pytest

from spmelab import (
    BarenblattParams,
    Bump,
    CoefficientPair,
    DeterministicSolution,
    InvalidInputError,
    McConfig,
    OutOfRangeError,
    SchemeConfig,
    SpatialGrid,
    StochasticFieldSample,
    TimeGrid,
    TimeInterval,
    UnsupportedInputError,
    asymptotic_error,
    asymptotics_experiment,
    barenblatt,
    barenblatt_state,
    box_state,
    comparison_check,
    eval_on_centers,
    evolve,
    interp_H,
    interp_h,
    interp_mass,
    limit_law_statistics,
    limit_profile_check,
    linear_pressure_base,
    lp_power_sum,
    mass_to_b,
    maximum_check,
    mc_lp_bound,
    mc_mean_mass,
    multiplier_path,
    path_clock,
    reference_table,
    sample_brownian,
    still_path,
    support_experiment,
    support_radius,
    sweep_paths,
    weak_form_residual,
)
from spmelab import analysis
from spmelab.analysis import TABLE_MARGIN

MASTER = 20260815


def line_grid(lo=-6.0, hi=6.0, cells=200) -> SpatialGrid:
    return SpatialGrid(kind="cartesian", lo=lo, hi=hi, cells=cells)


def shifted_source_base(b: float = 1.0) -> DeterministicSolution:
    p = BarenblattParams(m=2.0, d=1, b=b)
    return DeterministicSolution(
        evaluate=lambda s, x: barenblatt(p, np.asarray(s, dtype=float) + 1.0, x),
        interval=TimeInterval(lo=-1.0, hi=math.inf, lo_open=True),
        tag="source profile started one unit early",
    )


def test_mc_config_validation():
    grid = TimeGrid.uniform(1.0, 16)
    coeffs = CoefficientPair.constant(1.0, 0.0)
    with pytest.raises(InvalidInputError):
        McConfig(n_paths=1, master_seed=1, grid=grid, coeffs=coeffs, m=2.0)
    with pytest.raises(InvalidInputError):
        McConfig(n_paths=4, master_seed=1, grid=grid, coeffs=coeffs, m=1.0)


def test_path_clock_is_a_pure_function_of_the_config():
    grid = TimeGrid.uniform(1.0, 64)
    coeffs = CoefficientPair.constant(1.0, 0.0)
    a = McConfig(n_paths=4, master_seed=MASTER, grid=grid, coeffs=coeffs, m=2.0)
    b = McConfig(n_paths=4, master_seed=MASTER, grid=grid, coeffs=coeffs, m=2.0)
    assert np.array_equal(path_clock(a, 2).logh, path_clock(b, 2).logh)
    other = McConfig(n_paths=4, master_seed=MASTER + 1, grid=grid, coeffs=coeffs, m=2.0)
    assert not np.array_equal(path_clock(a, 2).logh, path_clock(other, 2).logh)
    out = sweep_paths(a, lambda c: float(c.h[-1]))
    assert len(out) == 4 and all(isinstance(v, float) for v in out)


def test_bump_shape_and_laplacian():
    phi = Bump(center=0.3, width=1.2)
    assert phi(0.3) == pytest.approx(1.0)
    assert phi(phi.lo) == 0.0 and phi(phi.hi + 0.5) == 0.0
    eps = 1e-5
    for x in (-0.4, 0.0, 0.3, 0.9, 1.3):
        fd = (phi(x + eps) - 2.0 * phi(x) + phi(x - eps)) / eps**2
        assert phi.laplacian(x) == pytest.approx(fd, abs=1e-4)
    assert phi.laplacian(phi.hi + 1.0) == 0.0
    with pytest.raises(InvalidInputError):
        Bump(center=0.0, width=0.0)


def test_weak_form_residual_first_order_in_the_mesh():
    base = shifted_source_base()
    coeffs = CoefficientPair.constant(0.0, 0.0)
    phi = Bump(center=0.5, width=2.5)
    residuals = []
    for steps in (128, 256, 512):
        clock = multiplier_path(still_path(TimeGrid.uniform(1.0, steps)), coeffs, gamma=2.0)
        residuals.append(weak_form_residual(StochasticFieldSample(base=base, clock=clock), 2.0, phi, 1.0))
    for coarse, fine in zip(residuals, residuals[1:]):
        assert 1.7 <= coarse / fine <= 2.3
    assert residuals[-1] <= 5e-4


def test_weak_form_residual_exact_for_time_affine_integrands():
    base = linear_pressure_base(2.0)
    coeffs = CoefficientPair.constant(0.0, 0.0)
    phi = Bump(center=1.0, width=0.8)
    for steps in (128, 512):
        clock = multiplier_path(still_path(TimeGrid.uniform(1.0, steps)), coeffs, gamma=2.0)
        r = weak_form_residual(StochasticFieldSample(base=base, clock=clock), 2.0, phi, 1.0)
        assert r <= 1e-8


def test_weak_form_residual_with_drift_clock_converges():
    base = linear_pressure_base(2.0)
    coeffs = CoefficientPair.constant(0.0, 0.3)
    phi = Bump(center=1.0, width=0.8)
    residuals = []
    for steps in (256, 512, 1024):
        clock = multiplier_path(still_path(TimeGrid.uniform(1.0, steps)), coeffs, gamma=2.0)
        residuals.append(weak_form_residual(StochasticFieldSample(base=base, clock=clock), 2.0, phi, 1.0))
    for coarse, fine in zip(residuals, residuals[1:]):
        assert 1.7 <= coarse / fine <= 2.3


def test_weak_form_residual_shrinks_for_noisy_clocks():
    base = shifted_source_base()
    coeffs = CoefficientPair.constant(0.5, 0.1)
    phi = Bump(center=0.5, width=2.5)
    means = []
    for steps in (256, 1024):
        vals = []
        for i in range(5):
            path = sample_brownian(TimeGrid.uniform(1.0, steps), MASTER + 7000 + i)
            clock = multiplier_path(path, coeffs, gamma=2.0)
            vals.append(weak_form_residual(StochasticFieldSample(base=base, clock=clock), 2.0, phi, 1.0))
        means.append(sum(vals) / len(vals))
    assert means[1] < means[0]
    assert means[1] <= 2e-2


def test_weak_form_residual_input_checks():
    base = shifted_source_base()
    clock = multiplier_path(still_path(TimeGrid.uniform(1.0, 32)), CoefficientPair.constant(0.0, 0.0), gamma=2.0)
    sample = StochasticFieldSample(base=base, clock=clock)
    phi = Bump(center=0.0, width=1.0)
    with pytest.raises(InvalidInputError):
        weak_form_residual(sample, 2.0, phi, -0.5)
    with pytest.raises(InvalidInputError):
        weak_form_residual(sample, 2.0, phi, 1.5)
    with pytest.raises(InvalidInputError):
        weak_form_residual(sample, 2.0, phi, 1.0, n_quad=100)


def test_reference_table_covers_the_requested_span():
    box = box_state(line_grid(), 1.0, 1.0)
    cfg = McConfig(
        n_paths=2, master_seed=MASTER, grid=TimeGrid.uniform(1.0, 32),
        coeffs=CoefficientPair.constant(0.0, 0.0), m=2.0, initial=box,
    )
    table = reference_table(cfg, 2.0)
    assert table.t_last == pytest.approx(2.0)
    assert table.t_first == 0.0
    bare = McConfig(
        n_paths=2, master_seed=MASTER, grid=TimeGrid.uniform(1.0, 32),
        coeffs=CoefficientPair.constant(0.0, 0.0), m=2.0,
    )
    with pytest.raises(InvalidInputError):
        reference_table(bare, 2.0)


def test_mc_mean_mass_is_exact_without_noise():
    box = box_state(line_grid(), 1.0, 1.0)
    cfg = McConfig(
        n_paths=3, master_seed=MASTER, grid=TimeGrid.uniform(1.0, 128),
        coeffs=CoefficientPair.constant(0.0, 1.0), m=2.0, initial=box,
    )
    rep = mc_mean_mass(cfg, 1.0)
    assert rep.target == pytest.approx(box.mass * math.e, rel=1e-12)
    assert abs(rep.estimate - rep.target) <= 1e-9 * rep.target
    assert rep.passed


def test_mc_mean_mass_with_noise_passes_at_three_standard_errors():
    box = box_state(line_grid(), 1.0, 1.0)
    cfg = McConfig(
        n_paths=400, master_seed=MASTER, grid=TimeGrid.uniform(0.5, 256),
        coeffs=CoefficientPair.constant(1.0, 0.0), m=2.0, initial=box,
    )
    rep = mc_mean_mass(cfg, 0.5)
    assert rep.target == pytest.approx(box.mass, rel=1e-12)
    assert rep.passed
    assert rep.stderr > 0.0
    assert len(rep.extras["per_path"]) == 400


def test_mc_mean_mass_is_block_size_invariant_bitwise(monkeypatch):
    box = box_state(line_grid(), 1.0, 1.0)
    cfg = McConfig(
        n_paths=100, master_seed=MASTER, grid=TimeGrid.uniform(0.5, 128),
        coeffs=CoefficientPair.constant(1.0, 0.0), m=2.0, initial=box,
    )
    whole = mc_mean_mass(cfg, 0.5)
    # 129 values per path: one row per block, then 7 rows (100 is no multiple of 7).
    for rows in (1, 7):
        monkeypatch.setattr(analysis, "BLOCK_VALUES", rows * 129)
        blocked = mc_mean_mass(cfg, 0.5)
        assert blocked.estimate == whole.estimate
        assert blocked.extras["per_path"] == whole.extras["per_path"]


def test_mc_lp_bound_holds_and_validates_p():
    box = box_state(line_grid(), 1.0, 1.0)
    cfg = McConfig(
        n_paths=200, master_seed=MASTER, grid=TimeGrid.uniform(0.5, 256),
        coeffs=CoefficientPair.constant(1.0, 0.0), m=2.0, initial=box,
    )
    rep = mc_lp_bound(cfg, 2.0, 0.5)
    assert rep.passed
    assert rep.estimate <= rep.target
    assert rep.extras["initial_lp"] == pytest.approx(box.mass ** 0.5, rel=1e-6)
    with pytest.raises(InvalidInputError):
        mc_lp_bound(cfg, 0.5, 0.5)


def test_limit_law_statistics_reports_the_variance_mismatch():
    coeffs = CoefficientPair.from_pieces([(0.0, 1.0), (1.0, 0.0)], [(0.0, 0.0)])
    cfg = McConfig(
        n_paths=2000, master_seed=MASTER, grid=TimeGrid.uniform(2.0, 256),
        coeffs=coeffs, m=2.0,
    )
    rep = limit_law_statistics(cfg)
    assert rep.extras["mean_ok"]
    assert rep.target == pytest.approx(-0.5)
    # By the Ito isometry the sample variance tracks int f^2 (here 1) within
    # its own 3-sigma chi-square fluctuation band ...
    true_var = rep.extras["integral_f2"]
    band = 3.0 * true_var * math.sqrt(2.0 / (cfg.n_paths - 1))
    assert abs(rep.extras["sample_var"] - true_var) <= band
    # ... and the report compares it with that same variance, so the check
    # passes.
    assert rep.extras["claimed_var"] == true_var == pytest.approx(1.0)
    assert rep.extras["var_ok"]
    assert rep.passed


def test_limit_law_statistics_degenerate_drift_passes():
    coeffs = CoefficientPair.from_pieces([(0.0, 0.0)], [(0.0, 0.5), (1.0, 0.0)])
    cfg = McConfig(
        n_paths=8, master_seed=MASTER, grid=TimeGrid.uniform(2.0, 64),
        coeffs=coeffs, m=2.0,
    )
    rep = limit_law_statistics(cfg)
    assert rep.estimate == pytest.approx(0.5, abs=1e-12)
    assert rep.passed


def test_limit_law_statistics_validation():
    grid = TimeGrid.uniform(2.0, 64)
    persistent = McConfig(
        n_paths=8, master_seed=MASTER, grid=grid,
        coeffs=CoefficientPair.constant(1.0, 0.0), m=2.0,
    )
    with pytest.raises(UnsupportedInputError):
        limit_law_statistics(persistent)
    cut = CoefficientPair.from_pieces([(0.0, 1.0), (3.0, 0.0)], [(0.0, 0.0)])
    short = McConfig(n_paths=8, master_seed=MASTER, grid=grid, coeffs=cut, m=2.0)
    with pytest.raises(InvalidInputError):
        limit_law_statistics(short)


def test_comparison_check_keeps_ordered_data_ordered():
    grid = line_grid()
    low = box_state(grid, 0.5, 0.8)
    high = box_state(grid, 1.0, 1.2)
    cfg = McConfig(
        n_paths=4, master_seed=MASTER, grid=TimeGrid.uniform(0.5, 64),
        coeffs=CoefficientPair.constant(1.0, 0.0), m=2.0,
    )
    probes = [(0.25, 0.0), (0.5, 0.5), (0.5, -1.0)]
    assert comparison_check(cfg, low, high, probes)
    # Identical states tie at every probe, so a negative tolerance that
    # demands a strict gap must report a violation.
    assert not comparison_check(cfg, high, high, probes, tol=-1.0)


def test_comparison_check_validation():
    grid = line_grid()
    other = line_grid(cells=100)
    cfg = McConfig(
        n_paths=2, master_seed=MASTER, grid=TimeGrid.uniform(0.5, 32),
        coeffs=CoefficientPair.constant(0.0, 0.0), m=2.0,
    )
    probes = [(0.25, 0.0)]
    with pytest.raises(InvalidInputError):
        comparison_check(cfg, box_state(grid, 1.0, 1.0), box_state(other, 1.0, 1.0), probes)
    with pytest.raises(InvalidInputError):
        comparison_check(cfg, box_state(grid, 1.0, 1.0, time=0.0), box_state(grid, 1.0, 1.0, time=0.5), probes)
    with pytest.raises(InvalidInputError):
        comparison_check(cfg, box_state(grid, 1.0, 1.0), box_state(grid, 0.5, 1.0), probes)


def test_maximum_check_caps_the_field():
    grid = line_grid()
    high = box_state(grid, 1.0, 1.2)
    cfg = McConfig(
        n_paths=4, master_seed=MASTER, grid=TimeGrid.uniform(0.5, 64),
        coeffs=CoefficientPair.constant(1.0, 0.0), m=2.0, initial=high,
    )
    probes = [(0.25, 0.0), (0.5, 0.5), (0.5, -1.0)]
    assert maximum_check(cfg, 1.0, probes)
    assert maximum_check(cfg, 5.0, probes)
    assert not maximum_check(cfg, 1.0, probes, tol=-1.0)
    with pytest.raises(InvalidInputError):
        maximum_check(cfg, 0.5, probes)
    bare = McConfig(
        n_paths=4, master_seed=MASTER, grid=TimeGrid.uniform(0.5, 64),
        coeffs=CoefficientPair.constant(1.0, 0.0), m=2.0,
    )
    with pytest.raises(InvalidInputError):
        maximum_check(bare, 1.0, probes)


def test_asymptotics_experiment_deterministic_decay():
    grid = SpatialGrid(kind="cartesian", lo=-9.0, hi=9.0, cells=240)
    cfg = McConfig(
        n_paths=2, master_seed=MASTER, grid=TimeGrid.uniform(16.0, 64),
        coeffs=CoefficientPair.constant(0.0, 0.0), m=2.0,
        initial=box_state(grid, 1.0, 1.0),
    )
    rep = asymptotics_experiment(cfg, (2.0, 4.0, 8.0, 16.0))
    assert rep.estimate == 1.0
    assert rep.passed
    schedule = rep.extras["first_schedule"]
    assert all(a > b for a, b in zip(schedule, schedule[1:]))
    with pytest.raises(InvalidInputError):
        asymptotics_experiment(cfg, (4.0, 2.0))
    with pytest.raises(InvalidInputError):
        asymptotics_experiment(cfg, (2.0,))
    bare = McConfig(
        n_paths=2, master_seed=MASTER, grid=TimeGrid.uniform(16.0, 64),
        coeffs=CoefficientPair.constant(0.0, 0.0), m=2.0,
    )
    with pytest.raises(InvalidInputError):
        asymptotics_experiment(bare, (2.0, 4.0))


def test_asymptotic_error_decreases_on_the_still_clock():
    grid = SpatialGrid(kind="cartesian", lo=-9.0, hi=9.0, cells=240)
    box = box_state(grid, 1.0, 1.0)
    table = evolve(
        box, 2.0, 8.5,
        SchemeConfig(cfl_safety=0.4, snapshot_times=tuple(np.geomspace(1e-3, 8.4, 60))),
    )
    clock = multiplier_path(
        still_path(TimeGrid.uniform(8.0, 64)), CoefficientPair.constant(0.0, 0.0), gamma=2.0
    )
    b = mass_to_b(2.0, 1, box.mass)
    errors = [asymptotic_error(table, clock, b, t) for t in (2.0, 4.0, 8.0)]
    assert all(e > 0.0 for e in errors)
    assert errors[0] > errors[1] > errors[2]


def test_limit_profile_check_mostly_attracts():
    grid = SpatialGrid(kind="cartesian", lo=-12.0, hi=12.0, cells=320)
    coeffs = CoefficientPair.from_pieces([(0.0, 1.0), (0.25, 0.0)], [(0.0, 0.0)])
    cfg = McConfig(
        n_paths=50, master_seed=MASTER, grid=TimeGrid.uniform(10.0, 400),
        coeffs=coeffs, m=2.0, initial=box_state(grid, 1.0, 1.0),
    )
    rep = limit_profile_check(cfg, (2.5, 5.0, 10.0))
    assert rep.passed
    assert rep.estimate >= 0.95
    claimed_mean = rep.extras["claimed_mean"]
    assert claimed_mean == pytest.approx(-0.125)
    assert abs(rep.extras["xi_mean"] - claimed_mean) <= 3.0 * rep.extras["xi_stderr"]
    with pytest.raises(UnsupportedInputError):
        limit_profile_check(
            McConfig(
                n_paths=4, master_seed=MASTER, grid=TimeGrid.uniform(10.0, 64),
                coeffs=CoefficientPair.constant(1.0, 0.0), m=2.0,
                initial=box_state(grid, 1.0, 1.0),
            ),
            (2.0, 4.0),
        )


def test_support_experiment_with_persistent_noise():
    m, d = 2.0, 1
    beta = 1.0 / ((m - 1.0) * d + 2.0)
    height, spread = 1.0, 1.0
    b_dom = height ** (m - 1.0) + (m - 1.0) * beta / (2.0 * m) * spread**2
    prefactor = math.sqrt(2.0 * m * b_dom / ((m - 1.0) * beta))
    grid_t = TimeGrid.uniform(30.0, 1200)
    coeffs = CoefficientPair.constant(1.0, 0.0)
    pre = McConfig(n_paths=60, master_seed=MASTER, grid=grid_t, coeffs=coeffs, m=m)
    h_max = max(sweep_paths(pre, lambda c: interp_H(c, 30.0)))
    half = prefactor * (1.0 + 1.05 * h_max) ** beta * 1.15
    cells = int(math.ceil(2.0 * half / 0.1 / 8.0)) * 8
    grid = SpatialGrid(kind="cartesian", lo=-half, hi=half, cells=cells)
    cfg = McConfig(
        n_paths=60, master_seed=MASTER, grid=grid_t, coeffs=coeffs, m=m,
        initial=box_state(grid, height, spread),
    )
    rep = support_experiment(cfg)
    assert rep.plateau_ok and rep.plateau_median <= 0.01
    assert rep.bound_ok
    assert np.all(rep.support_radii <= rep.support_bounds)
    assert rep.domain_ok
    assert rep.mass_report.passed
    assert rep.decay_ok
    assert rep.center_median <= 0.1 * rep.center_initial
    # The naive horizon-time mass average has no statistical power left; it
    # lands well below the conserved mean and is recorded as a diagnostic.
    assert rep.naive_mass_at_horizon < cfg.initial.mass


def test_support_experiment_noise_free_control_shows_no_plateau():
    grid = SpatialGrid(kind="cartesian", lo=-14.0, hi=14.0, cells=280)
    cfg = McConfig(
        n_paths=2, master_seed=MASTER, grid=TimeGrid.uniform(30.0, 600),
        coeffs=CoefficientPair.constant(0.0, 0.0), m=2.0,
        initial=box_state(grid, 1.0, 1.0),
    )
    rep = support_experiment(cfg)
    assert not rep.plateau_ok
    assert not rep.decay_ok


def test_support_experiment_validation():
    grid = line_grid()
    box = box_state(grid, 1.0, 1.0)
    tg = TimeGrid.uniform(30.0, 64)
    coeffs = CoefficientPair.constant(1.0, 0.0)
    with pytest.raises(UnsupportedInputError):
        support_experiment(McConfig(n_paths=2, master_seed=1, grid=tg, coeffs=coeffs, m=3.0, initial=box))
    with pytest.raises(InvalidInputError):
        support_experiment(McConfig(n_paths=2, master_seed=1, grid=tg, coeffs=coeffs, m=2.0))
    with pytest.raises(InvalidInputError):
        support_experiment(
            McConfig(n_paths=2, master_seed=1, grid=tg, coeffs=coeffs, m=2.0, initial=box),
            mass_check_time=40.0,
        )


# ---------------------------------------------------------------------------
# The sweeps against a scalar reference: one path, one time, one read at a
# time, with the table sized from the largest clock value read.
# ---------------------------------------------------------------------------


def scalar_reference(cfg, times):
    clocks = [path_clock(cfg, i) for i in range(cfg.n_paths)]
    span = max(interp_H(c, t) for c in clocks for t in times)
    return clocks, reference_table(cfg, TABLE_MARGIN * span)


def test_mc_mean_mass_matches_the_scalar_reference_bitwise():
    cfg = McConfig(
        n_paths=12, master_seed=MASTER, grid=TimeGrid.uniform(0.5, 64),
        coeffs=CoefficientPair.constant(1.0, 0.2), m=2.0, initial=box_state(line_grid(cells=80), 1.0, 1.0),
    )
    clocks, table = scalar_reference(cfg, [0.5])
    want = [interp_h(c, 0.5) * interp_mass(table, 0.0 + interp_H(c, 0.5)) for c in clocks]
    assert mc_mean_mass(cfg, 0.5).extras["per_path"] == want


def test_mc_lp_bound_matches_the_scalar_reference_bitwise():
    grid = line_grid(cells=96)
    initial = barenblatt_state(grid, BarenblattParams(m=2.0, d=1, b=1.0), 0.5)
    cfg = McConfig(
        n_paths=10, master_seed=MASTER, grid=TimeGrid.uniform(1.0, 64),
        coeffs=CoefficientPair.constant(0.8, 0.0), m=2.0, initial=initial,
    )
    clocks, table = scalar_reference(cfg, [1.0])
    want = [
        interp_h(c, 1.0) ** 3.0
        * lp_power_sum(eval_on_centers(table, 0.5 + interp_H(c, 1.0), grid.centers), grid, 3.0)
        for c in clocks
    ]
    assert mc_lp_bound(cfg, 3.0, 1.0).extras["per_path"] == want


def test_asymptotics_schedules_match_the_scalar_reference_bitwise():
    cfg = McConfig(
        n_paths=8, master_seed=MASTER, grid=TimeGrid.uniform(4.0, 64),
        coeffs=CoefficientPair.constant(0.3, 0.0), m=2.0, initial=box_state(line_grid(-9.0, 9.0, 120), 1.0, 1.0),
    )
    times, x0 = [1.0, 2.0, 4.0], 0.4
    clocks, table = scalar_reference(cfg, times)
    beta = 1.0 / ((2.0 - 1.0) * 1 + 2.0)
    params = BarenblattParams(m=2.0, d=1, b=mass_to_b(2.0, 1, cfg.initial.mass))
    want = [
        [
            s ** beta * h * abs(float(eval_on_centers(table, 0.0 + s, x0)) - barenblatt(params, s, x0))
            for h, s in ((interp_h(c, t), interp_H(c, t)) for t in times)
        ]
        for c in clocks
    ]
    assert asymptotics_experiment(cfg, times, x0=x0).extras["schedules"] == want


def test_support_portrait_matches_the_scalar_reference_bitwise():
    horizon = 4.0
    cfg = McConfig(
        n_paths=10, master_seed=MASTER, grid=TimeGrid.uniform(horizon, 80),
        coeffs=CoefficientPair.constant(1.0, 0.0), m=2.0, initial=box_state(line_grid(-8.0, 8.0, 160), 1.0, 1.0),
    )
    clocks, table = scalar_reference(cfg, [horizon])
    snap_radii = [support_radius(st) for st in table.states]
    radii = []
    for c in clocks:
        j = int(np.searchsorted(table.times, 0.0 + interp_H(c, horizon), side="left"))
        radii.append(snap_radii[min(j, len(snap_radii) - 1)])
    decay_times = (np.array([0.25, 0.5, 0.75, 1.0]) * horizon).tolist()
    centre = [
        [interp_h(c, t) * float(eval_on_centers(table, 0.0 + interp_H(c, t), 0.0)) for t in decay_times]
        for c in clocks
    ]
    rep = support_experiment(cfg, mass_check_time=2.0)
    assert np.array_equal(rep.support_radii, np.array(radii))
    assert np.array_equal(rep.decay_medians, np.median(np.array(centre), axis=0))


# ---------------------------------------------------------------------------
# The block clock engine against the per-path calls.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rows", [None, 1, 7])
@pytest.mark.parametrize("gamma", [2.0, 3.0])
def test_block_clocks_match_the_per_path_reference_bitwise(monkeypatch, gamma, rows):
    grid = TimeGrid.uniform(1.5, 96)
    coeffs = CoefficientPair.from_pieces(
        [(0.0, 1.2), (0.25, 0.0), (0.5, 0.7), (1.25, 0.0)], [(0.0, 0.3), (0.75, -0.5), (1.25, 0.0)]
    )
    cfg = McConfig(n_paths=30, master_seed=MASTER, grid=grid, coeffs=coeffs, m=gamma)
    slack = 1e-9 * 1.5
    times = [
        0.0, -0.5 * slack, 0.5 * slack,        # the origin and inside its slack
        0.25, grid.nodes[7], grid.nodes[95],   # on nodes, breakpoints included
        0.3, 0.123456789, 1.4999,              # between nodes
        1.5, 1.5 + 0.5 * slack, 0.5,           # the horizon, inside its slack, and back
    ]
    if rows is not None:
        monkeypatch.setattr(analysis, "BLOCK_VALUES", rows * 97)
    h, H, logh_end = analysis._clocks(cfg, times)
    clocks = [path_clock(cfg, i) for i in range(cfg.n_paths)]
    assert np.array_equal(h, np.array([interp_h(c, times) for c in clocks]))
    assert np.array_equal(H, np.array([interp_H(c, times) for c in clocks]))
    assert np.array_equal(logh_end, np.array([c.logh[-1] for c in clocks]))
    xis = limit_law_statistics(cfg).extras["xis"]
    assert xis == [float(c.logh[-1]) for c in clocks]


@pytest.mark.parametrize("times", [[0.5, 1.0 + 1e-6], [-1e-6], [2.0]])
def test_block_clocks_reject_out_of_range_times_before_drawing(monkeypatch, times):
    cfg = McConfig(n_paths=5, master_seed=MASTER, grid=TimeGrid.uniform(1.0, 16),
                   coeffs=CoefficientPair.constant(1.0, 0.0), m=2.0)
    with pytest.raises(OutOfRangeError) as per_path:
        interp_h(path_clock(cfg, 0), times)

    def no_draw(*args):
        raise AssertionError("a path was drawn before the probe times were checked")

    monkeypatch.setattr(analysis, "brownian_block", no_draw)
    with pytest.raises(OutOfRangeError) as block:
        analysis._clocks(cfg, times)
    assert str(block.value) == str(per_path.value)


@pytest.mark.parametrize("g,message", [(800.0, "overflowed to infinity"), (-800.0, "underflowed to zero")])
def test_block_clocks_fail_like_the_per_path_clock(g, message):
    cfg = McConfig(n_paths=5, master_seed=MASTER, grid=TimeGrid.uniform(1.0, 16),
                   coeffs=CoefficientPair.constant(1.0, g), m=2.0)
    with pytest.raises(InvalidInputError) as per_path:
        path_clock(cfg, 0)
    with pytest.raises(InvalidInputError) as block:
        analysis._clocks(cfg, [1.0])
    assert message in str(block.value) and str(block.value) == str(per_path.value)


def test_clock_overflow_fails_before_any_table_is_built(monkeypatch):
    # m = 3 squares h inside the clock: h stays finite while H overflows.
    cfg = McConfig(n_paths=4, master_seed=MASTER, grid=TimeGrid.uniform(1.0, 256),
                   coeffs=CoefficientPair.constant(1.0, 400.0), m=3.0,
                   initial=box_state(line_grid(cells=40), 1.0, 1.0))

    def no_table(*args):
        raise AssertionError("a table was built for an infinite clock")

    monkeypatch.setattr(analysis, "_reference_tables", no_table)
    with pytest.raises(InvalidInputError, match="clock overflowed to infinity"):
        analysis.clock_sweep(cfg, [0.951])
    h, H, _ = analysis._clocks(cfg, [0.951])
    assert np.all(np.isfinite(h)) and not np.all(np.isfinite(H))
