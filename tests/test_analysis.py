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
    FieldState,
    InvalidInputError,
    McConfig,
    OutOfRangeError,
    SpatialGrid,
    TimeGrid,
    TimeInterval,
    UnsupportedInputError,
    asymptotics_experiment,
    barenblatt,
    barenblatt_state,
    box_state,
    comparison_check,
    dense_values,
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
    sample_brownian,
    still_path,
    support_experiment,
    support_radius,
    sweep_paths,
    table_solution,
    weak_form_residual,
)
from spmelab import analysis, noise, solver
from spmelab.analysis import N_SNAPSHOTS, TABLE_MARGIN

from conftest import one_path_clock, rkl2_march

MASTER = 20260815


def line_grid(lo=-6.0, hi=6.0, cells=200) -> SpatialGrid:
    return SpatialGrid(kind="cartesian", lo=lo, hi=hi, cells=cells)


def shifted_source_base(b: float = 1.0) -> DeterministicSolution:
    p = BarenblattParams(m=2.0, d=1, b=b)
    return DeterministicSolution(
        evaluate=lambda s, x: barenblatt(p, np.asarray(s, dtype=float) + 1.0, x),
        interval=TimeInterval(lo=-1.0, hi=math.inf, lo_open=True),
    )


def test_mc_config_validation():
    grid = TimeGrid.uniform(1.0, 16)
    coeffs = CoefficientPair.constant(1.0, 0.0)
    with pytest.raises(InvalidInputError):
        McConfig(n_paths=1, master_seed=1, grid=grid, coeffs=coeffs, m=2.0)
    with pytest.raises(InvalidInputError):
        McConfig(n_paths=4, master_seed=1, grid=grid, coeffs=coeffs, m=1.0)
    for safety in (0.0, 1.5):
        with pytest.raises(InvalidInputError, match=r"cfl_safety must lie in \(0, 1\]"):
            McConfig(n_paths=4, master_seed=1, grid=grid, coeffs=coeffs, m=2.0, cfl_safety=safety)
    assert McConfig(n_paths=4, master_seed=1, grid=grid, coeffs=coeffs, m=2.0, cfl_safety=1.0).cfl_safety == 1.0


def test_clocks_are_a_pure_function_of_the_config():
    grid = TimeGrid.uniform(1.0, 64)
    coeffs = CoefficientPair.constant(1.0, 0.0)
    a = McConfig(n_paths=4, master_seed=MASTER, grid=grid, coeffs=coeffs, m=2.0)
    b = McConfig(n_paths=4, master_seed=MASTER, grid=grid, coeffs=coeffs, m=2.0)
    times = [0.3, 1.0]
    clocks_a = analysis._clocks(a, times)
    assert [x.tobytes() for x in clocks_a] == [x.tobytes() for x in analysis._clocks(b, times)]
    other = McConfig(n_paths=4, master_seed=MASTER + 1, grid=grid, coeffs=coeffs, m=2.0)
    assert all(np.all(x != y) for x, y in zip(clocks_a, analysis._clocks(other, times)))
    out = sweep_paths(a, lambda c: float(c.h[-1]))
    assert all(isinstance(v, float) for v in out) and out == clocks_a[0][:, 1].tolist()


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
        residuals.append(weak_form_residual(base, clock, 2.0, phi, 1.0))
    for coarse, fine in zip(residuals, residuals[1:]):
        assert 1.7 <= coarse / fine <= 2.3
    assert residuals[-1] <= 5e-4


def test_weak_form_residual_exact_for_time_affine_integrands():
    base = linear_pressure_base(2.0)
    coeffs = CoefficientPair.constant(0.0, 0.0)
    phi = Bump(center=1.0, width=0.8)
    for steps in (128, 512):
        clock = multiplier_path(still_path(TimeGrid.uniform(1.0, steps)), coeffs, gamma=2.0)
        r = weak_form_residual(base, clock, 2.0, phi, 1.0)
        assert r <= 1e-8


def test_weak_form_residual_with_drift_clock_converges():
    base = linear_pressure_base(2.0)
    coeffs = CoefficientPair.constant(0.0, 0.3)
    phi = Bump(center=1.0, width=0.8)
    residuals = []
    for steps in (256, 512, 1024):
        clock = multiplier_path(still_path(TimeGrid.uniform(1.0, steps)), coeffs, gamma=2.0)
        residuals.append(weak_form_residual(base, clock, 2.0, phi, 1.0))
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
            vals.append(weak_form_residual(base, clock, 2.0, phi, 1.0))
        means.append(sum(vals) / len(vals))
    assert means[1] < means[0]
    assert means[1] <= 2e-2


def test_weak_form_residual_input_checks():
    base = shifted_source_base()
    clock = multiplier_path(still_path(TimeGrid.uniform(1.0, 32)), CoefficientPair.constant(0.0, 0.0), gamma=2.0)
    phi = Bump(center=0.0, width=1.0)
    with pytest.raises(InvalidInputError):
        weak_form_residual(base, clock, 2.0, phi, -0.5)
    with pytest.raises(InvalidInputError):
        weak_form_residual(base, clock, 2.0, phi, 1.5)
    with pytest.raises(InvalidInputError, match=r"query time must lie in the clock horizon \[0, 1\], not nan"):
        weak_form_residual(base, clock, 2.0, phi, math.nan)


def test_clock_sweep_table_covers_the_largest_clock_value():
    box = box_state(line_grid(), 1.0, 1.0)
    cfg = McConfig(
        n_paths=4, master_seed=MASTER, grid=TimeGrid.uniform(1.0, 32),
        coeffs=CoefficientPair.constant(1.0, 0.0), m=2.0, initial=box,
    )
    sweep = analysis.clock_sweep(cfg, [0.5, 1.0])
    (table,) = sweep.tables
    assert sweep.max_clock == float(np.max(sweep.H)) > 0.0
    assert table.t_first == 0.0
    assert table.t_last == TABLE_MARGIN * sweep.max_clock
    bare = McConfig(
        n_paths=4, master_seed=MASTER, grid=TimeGrid.uniform(1.0, 32),
        coeffs=CoefficientPair.constant(1.0, 0.0), m=2.0,
    )
    with pytest.raises(InvalidInputError, match="needs deterministic initial data"):
        analysis.clock_sweep(bare, [1.0])


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
        monkeypatch.setattr(noise, "BLOCK_VALUES", rows * 129)
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


@pytest.mark.parametrize(
    "height,p",
    # h**p raises OverflowError; then the power sum of a tall box comes out
    # inf; then finite terms up to about 1e163 whose variance overflows.
    [(1.0, 2000.0), (10.0, 400.0), (1.0, 500.0)],
    ids=["clock_power", "power_sum", "variance"],
)
def test_mc_lp_bound_out_of_float_range_is_invalid_input(recwarn, height, p):
    cfg = McConfig(
        n_paths=50, master_seed=MASTER, grid=TimeGrid.uniform(0.5, 256),
        coeffs=CoefficientPair.constant(1.0, 0.0), m=2.0, initial=box_state(line_grid(), height, 1.0),
    )
    with pytest.raises(InvalidInputError, match=f"p = {p} and t = 0.5 leaves the float range"):
        mc_lp_bound(cfg, p, 0.5)
    assert not recwarn.list


def test_mean_mass_whose_variance_overflows_is_invalid_input(recwarn):
    # m - 1 is small, so H stays finite while h(t) grows to about e^380 and
    # the squared spread of the per-path values leaves the float range.
    cfg = McConfig(
        n_paths=4, master_seed=MASTER, grid=TimeGrid.uniform(1.0, 256),
        coeffs=CoefficientPair.constant(1.0, 400.0), m=1.01, initial=box_state(line_grid(), 1.0, 1.0),
    )
    with pytest.raises(InvalidInputError, match=r"the mean and variance of 4 per-path values up to \S+ overflow"):
        mc_mean_mass(cfg, 0.951)
    with pytest.raises(InvalidInputError, match="2 per-path values up to 1.7e[+]308 overflow"):
        analysis._sample_stats([1.7e308, 1.7e308])
    assert not recwarn.list


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
    true_var = coeffs.integral_f2(float(coeffs.breaks[-1]))
    band = 3.0 * true_var * math.sqrt(2.0 / (cfg.n_paths - 1))
    assert abs(rep.extras["sample_var"] - true_var) <= band
    # ... and the report compares it with that same variance, so the check
    # passes.
    assert rep.extras["claimed_var"] == true_var == pytest.approx(1.0)
    assert "integral_f2" not in rep.extras
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


def test_comparison_check_keeps_ordered_data_ordered(monkeypatch):
    grid = line_grid()
    low = box_state(grid, 0.5, 0.8)
    high = box_state(grid, 1.0, 1.2)
    cfg = McConfig(
        n_paths=4, master_seed=MASTER, grid=TimeGrid.uniform(0.5, 64),
        coeffs=CoefficientPair.constant(1.0, 0.0), m=2.0,
    )
    probes = [(0.25, 0.0), (0.5, 0.5), (0.5, -1.0)]
    rep = comparison_check(cfg, low, high, probes)
    assert rep.passed and rep.estimate >= 0.0
    assert (rep.stderr, rep.n, rep.target) == (0.0, 4, 0.0)
    assert rep.rule.endswith("tol = 1e-09")
    # Identical states tie at every probe, so a negative tolerance that
    # demands a strict gap of max(1, |high|) must report a violation.
    monkeypatch.setattr(analysis, "ORDER_TOL", -1.0)
    tied = comparison_check(cfg, high, high, probes)
    assert not tied.passed
    assert tied.estimate <= -1.0
    assert tied.rule.endswith("tol = -1")


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
        comparison_check(cfg, box_state(grid, 1.0, 1.0), FieldState(grid, 0.5, box_state(grid, 1.0, 1.0).values), probes)
    with pytest.raises(InvalidInputError):
        comparison_check(cfg, box_state(grid, 1.0, 1.0), box_state(grid, 0.5, 1.0), probes)


def test_comparison_check_rejects_a_mismatched_grid_before_drawing_paths(monkeypatch):
    cfg = McConfig(
        n_paths=2, master_seed=MASTER, grid=TimeGrid.uniform(0.5, 32),
        coeffs=CoefficientPair.constant(0.0, 0.0), m=2.0,
    )

    def no_draw(*args):
        raise AssertionError("drew paths before checking the grids")

    monkeypatch.setattr(analysis, "_clock_blocks", no_draw)
    plane, ball = (SpatialGrid(kind="radial", lo=0.0, hi=3.0, cells=16, dim=d) for d in (2, 3))
    segment = SpatialGrid(kind="cartesian", lo=0.0, hi=3.0, cells=16)
    for low, high in ((plane, ball), (segment, plane)):
        with pytest.raises(InvalidInputError, match="both initial states must share one grid"):
            comparison_check(cfg, box_state(low, 0.5, 1.0), box_state(high, 1.0, 1.0), [(0.25, 0.0)])


def test_maximum_check_caps_the_field(monkeypatch):
    grid = line_grid()
    high = box_state(grid, 1.0, 1.2)
    cfg = McConfig(
        n_paths=4, master_seed=MASTER, grid=TimeGrid.uniform(0.5, 64),
        coeffs=CoefficientPair.constant(1.0, 0.0), m=2.0, initial=high,
    )
    probes = [(0.25, 0.0), (0.5, 0.5), (0.5, -1.0)]
    rep = maximum_check(cfg, 1.0, probes)
    assert rep.passed and rep.estimate >= 0.0
    assert (rep.stderr, rep.n, rep.target) == (0.0, 4, 0.0)
    assert rep.rule.endswith("bound = 1, tol = 1e-09")
    loose = maximum_check(cfg, 5.0, probes)
    assert loose.passed and loose.estimate > rep.estimate
    with pytest.raises(InvalidInputError):
        maximum_check(cfg, 0.5, probes)
    monkeypatch.setattr(analysis, "ORDER_TOL", -1.0)
    tight = maximum_check(cfg, 1.0, probes)
    assert not tight.passed
    assert tight.estimate < 0.0
    assert tight.rule.endswith("tol = -1")
    bare = McConfig(
        n_paths=4, master_seed=MASTER, grid=TimeGrid.uniform(0.5, 64),
        coeffs=CoefficientPair.constant(1.0, 0.0), m=2.0,
    )
    with pytest.raises(InvalidInputError):
        maximum_check(bare, 1.0, probes)


def test_order_checks_reject_an_empty_probe_list_before_drawing_paths(monkeypatch):
    grid = line_grid()
    low, high = box_state(grid, 0.5, 0.8), box_state(grid, 1.0, 1.2)
    cfg = McConfig(
        n_paths=4, master_seed=MASTER, grid=TimeGrid.uniform(0.5, 64),
        coeffs=CoefficientPair.constant(1.0, 0.0), m=2.0, initial=high,
    )

    def no_draw(*args):
        raise AssertionError("drew paths before checking the probe list")

    monkeypatch.setattr(analysis, "_clock_blocks", no_draw)
    with pytest.raises(InvalidInputError, match="at least one probe time"):
        comparison_check(cfg, low, high, [])
    with pytest.raises(InvalidInputError, match="at least one probe time"):
        maximum_check(cfg, 1.0, [])


def test_a_report_has_no_truth_value(monkeypatch):
    grid = line_grid()
    cfg = McConfig(
        n_paths=2, master_seed=MASTER, grid=TimeGrid.uniform(0.5, 32),
        coeffs=CoefficientPair.constant(1.0, 0.0), m=2.0, initial=box_state(grid, 1.0, 1.2),
    )
    monkeypatch.setattr(analysis, "ORDER_TOL", -1.0)
    rep = maximum_check(cfg, 1.0, [(0.5, 0.0)])
    assert not rep.passed
    # A leftover truth test would read a failed check as a pass.
    with pytest.raises(TypeError, match=r"\.passed"):
        assert rep
    with pytest.raises(TypeError, match=r"\.passed"):
        bool(rep)


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


def test_asymptotics_schedule_decreases_on_the_still_clock():
    grid = SpatialGrid(kind="cartesian", lo=-9.0, hi=9.0, cells=240)
    box = box_state(grid, 1.0, 1.0)
    cfg = McConfig(
        n_paths=2, master_seed=MASTER, grid=TimeGrid.uniform(8.0, 64),
        coeffs=CoefficientPair.constant(0.0, 0.0), m=2.0, initial=box,
    )
    rep = asymptotics_experiment(cfg, (2.0, 4.0, 8.0))
    assert rep.extras["b"] == mass_to_b(2.0, 1, box.mass)
    errors = rep.extras["first_schedule"]
    assert all(e > 0.0 for e in errors)
    assert errors[0] > errors[1] > errors[2]
    # f = g = 0: every path rides the one still clock.
    assert rep.extras["schedules"] == [errors, errors]


@pytest.mark.parametrize("times", [(2.0, 2.0, 4.0, 8.0), (2.0, 4.0, 4.0), (2.0, float("nan"), 8.0)])
def test_profile_checks_reject_times_that_do_not_strictly_increase_before_drawing(monkeypatch, times):
    grid = SpatialGrid(kind="cartesian", lo=-9.0, hi=9.0, cells=240)
    cfg = McConfig(
        n_paths=2, master_seed=MASTER, grid=TimeGrid.uniform(8.0, 64),
        coeffs=CoefficientPair.from_pieces([(0.0, 0.0)], [(0.0, 0.0)]), m=2.0,
        initial=box_state(grid, 1.0, 1.0),
    )

    def no_draw(*args):
        raise AssertionError("drew paths before checking the probe times")

    monkeypatch.setattr(analysis, "_clock_blocks", no_draw)
    for check in (asymptotics_experiment, limit_profile_check):
        with pytest.raises(InvalidInputError, match="probe times must be strictly increasing"):
            check(cfg, times)


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
    h_max = float(np.max(analysis._clocks(pre, [30.0])[1]))
    half = prefactor * (1.0 + 1.05 * h_max) ** beta * 1.15
    cells = int(math.ceil(2.0 * half / 0.1 / 8.0)) * 8
    grid = SpatialGrid(kind="cartesian", lo=-half, hi=half, cells=cells)
    cfg = McConfig(
        n_paths=60, master_seed=MASTER, grid=grid_t, coeffs=coeffs, m=m,
        initial=box_state(grid, height, spread),
    )
    reps = support_experiment(cfg)
    assert list(reps) == ["plateau", "support_bound", "domain", "mean_mass", "decay"]
    assert all(rep.passed for rep in reps.values())
    plateau, bound, domain, mass, decay = reps.values()
    assert plateau.estimate <= plateau.target == 0.01
    radii, bounds = bound.extras["support_radii"], bound.extras["support_bounds"]
    assert np.all(radii <= bounds)
    assert (bound.estimate, bound.target) == (np.max(radii), np.max(bounds))
    assert (domain.estimate, domain.target) == (0.0, 0.0)
    assert decay.estimate <= decay.target == 0.1 * decay.extras["center_initial"]
    assert decay.estimate == decay.extras["decay_medians"][-1]
    assert all(rep.stderr == 0.0 for rep in (plateau, bound, domain, decay))
    assert mass.stderr > 0.0
    assert all(rep.provenance is plateau.provenance for rep in reps.values())
    spread_hat = support_radius(cfg.initial)
    assert plateau.provenance["b_dominating"] == pytest.approx(1.0 + beta / 4.0 * spread_hat**2)
    # The naive horizon-time mass average has no statistical power left; it
    # lands well below the conserved mean and is recorded as a diagnostic.
    assert mass.extras["naive_mass_at_horizon"] < cfg.initial.mass


def test_support_experiment_noise_free_control_shows_no_plateau():
    grid = SpatialGrid(kind="cartesian", lo=-14.0, hi=14.0, cells=280)
    cfg = McConfig(
        n_paths=2, master_seed=MASTER, grid=TimeGrid.uniform(30.0, 600),
        coeffs=CoefficientPair.constant(0.0, 0.0), m=2.0,
        initial=box_state(grid, 1.0, 1.0),
    )
    reps = support_experiment(cfg)
    assert not reps["plateau"].passed
    assert reps["plateau"].estimate > reps["plateau"].target
    assert not reps["decay"].passed
    assert reps["decay"].estimate > reps["decay"].target


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
    clocks = [one_path_clock(cfg, i) for i in range(cfg.n_paths)]
    span = max(interp_H(c, t) for c in clocks for t in times)
    return clocks, analysis._reference_tables(cfg, TABLE_MARGIN * span, (cfg.initial,))[0]


def sample_stats(values):
    """Mean, standard error and sample variance, written out once more."""
    mean = math.fsum(values) / len(values)
    var = math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return mean, math.sqrt(var / len(values)), var


def passing_fraction(flags):
    """Fraction of passing paths and its binomial standard error (0 at 0 and 1)."""
    fraction = sum(flags) / len(flags)
    return fraction, math.sqrt(fraction * (1.0 - fraction) / len(flags)) if 0 < fraction < 1 else 0.0


def mean_mass_verdict(cfg, clocks, table, t):
    """(estimate, SE, target, passed) of the mean-mass check at time t."""
    masses = [interp_h(c, t) * interp_mass(table, table.t_first + interp_H(c, t)) for c in clocks]
    mean, stderr, _ = sample_stats(masses)
    target = cfg.initial.mass * math.exp(cfg.coeffs.integral_g(t))
    return mean, stderr, target, abs(mean - target) <= max(3.0 * stderr, 1e-9 * abs(target))


def test_mc_mean_mass_matches_the_scalar_reference_bitwise():
    cfg = McConfig(
        n_paths=12, master_seed=MASTER, grid=TimeGrid.uniform(0.5, 64),
        coeffs=CoefficientPair.constant(1.0, 0.2), m=2.0, initial=box_state(line_grid(cells=80), 1.0, 1.0),
    )
    clocks, table = scalar_reference(cfg, [0.5])
    want = [interp_h(c, 0.5) * interp_mass(table, 0.0 + interp_H(c, 0.5)) for c in clocks]
    rep = mc_mean_mass(cfg, 0.5)
    assert rep.extras["per_path"] == want
    assert (rep.estimate, rep.stderr, rep.target, rep.passed) == mean_mass_verdict(cfg, clocks, table, 0.5)


def test_mc_lp_bound_matches_the_scalar_reference_bitwise(monkeypatch):
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
    by_path = [
        interp_h(c, 1.0) ** 3.0 * lp_power_sum(dense_values(table, 0.5 + interp_H(c, 1.0)), grid, 3.0)
        for c in clocks
    ]
    reads = []

    def counted(table, t):
        reads.append(np.shape(t))
        return dense_values(table, t)

    # One table read per block of paths, with the bits of a read per path.
    monkeypatch.setattr(analysis, "dense_values", counted)
    assert mc_lp_bound(cfg, 3.0, 1.0).extras["per_path"] == want == by_path
    assert reads == [(cfg.n_paths,)]
    reads.clear()
    monkeypatch.setattr(analysis, "BLOCK_VALUES", 4 * grid.cells + 1)
    assert mc_lp_bound(cfg, 3.0, 1.0).extras["per_path"] == want
    assert reads == [(4,), (4,), (2,)]


def test_order_checks_match_the_per_probe_reference_bitwise():
    grid = line_grid(cells=80)
    low, high = box_state(grid, 0.5, 0.8), box_state(grid, 1.0, 1.2)
    cfg = McConfig(
        n_paths=6, master_seed=MASTER, grid=TimeGrid.uniform(0.5, 64),
        coeffs=CoefficientPair.constant(1.0, 0.2), m=2.0, initial=high,
    )
    probes = [(0.25, 0.0), (0.5, 0.7), (0.5, -1.1), (0.125, 2.5)]
    clocks = [one_path_clock(cfg, i) for i in range(cfg.n_paths)]
    span = max(interp_H(c, t) for c in clocks for t, _ in probes)
    table_low, table_high = analysis._reference_tables(cfg, TABLE_MARGIN * span, (low, high))
    tol, slack_order, slack_cap = analysis.ORDER_TOL, math.inf, math.inf
    for t, x in probes:
        for c in clocks:
            h, s = interp_h(c, t), interp_H(c, t)
            u_low, u_high = h * float(eval_on_centers(table_low, s, x)), h * float(eval_on_centers(table_high, s, x))
            slack_order = min(slack_order, u_high + tol * max(1.0, abs(u_high)) - u_low)
            cap = 1.5 * h + tol * max(1.0, 1.5 * h)
            slack_cap = min(slack_cap, u_high + tol, cap - u_high)
    assert comparison_check(cfg, low, high, probes).estimate == slack_order
    assert maximum_check(cfg, 1.5, probes).estimate == slack_cap


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
    rep = asymptotics_experiment(cfg, times, x0=x0)
    assert rep.extras["schedules"] == want
    flags = [e[0] > e[1] > e[2] for e in want]
    assert rep.extras["pass_flags"] == flags
    assert (rep.estimate, rep.stderr) == passing_fraction(flags)


def test_limit_profile_check_matches_the_scalar_reference_bitwise():
    coeffs = CoefficientPair.from_pieces([(0.0, 1.0), (0.5, 0.0)], [(0.0, 0.2), (0.5, 0.0)])
    cfg = McConfig(
        n_paths=16, master_seed=MASTER, grid=TimeGrid.uniform(4.0, 64),
        coeffs=coeffs, m=2.0, initial=box_state(line_grid(-9.0, 9.0, 120), 1.0, 1.0),
    )
    times, x0 = [0.5, 1.0, 2.0], 1.0
    clocks, table = scalar_reference(cfg, times)
    params = BarenblattParams(m=2.0, d=1, b=mass_to_b(2.0, 1, cfg.initial.mass))
    xis = [float(c.logh[-1]) for c in clocks]
    flags = []
    for c, xi in zip(clocks, xis):
        e = [
            abs(
                interp_h(c, t) * float(eval_on_centers(table, 0.0 + interp_H(c, t), x0))
                - math.exp(xi) * barenblatt(params, math.exp((2.0 - 1.0) * xi) * t, x0)
            )
            for t in times
        ]
        flags.append(e[0] > e[1] > e[2])
    rep = limit_profile_check(cfg, times, x0=x0)
    assert rep.extras["pass_flags"] == flags
    assert (rep.estimate, rep.stderr) == passing_fraction(flags)
    assert 0.0 < rep.estimate < 1.0
    x = rep.extras
    assert (x["xi_mean"], x["xi_stderr"], x["xi_var"]) == sample_stats(xis)


def test_limit_law_statistics_match_the_scalar_reference_bitwise():
    coeffs = CoefficientPair.from_pieces([(0.0, 1.0), (1.0, 0.0)], [(0.0, 0.0)])
    cfg = McConfig(n_paths=50, master_seed=MASTER, grid=TimeGrid.uniform(2.0, 64), coeffs=coeffs, m=2.0)
    xis = [float(one_path_clock(cfg, i).logh[-1]) for i in range(cfg.n_paths)]
    rep = limit_law_statistics(cfg)
    assert (rep.estimate, rep.stderr, rep.extras["sample_var"]) == sample_stats(xis)


def test_support_portrait_matches_the_scalar_reference_bitwise():
    horizon = 4.0
    cfg = McConfig(
        n_paths=10, master_seed=MASTER, grid=TimeGrid.uniform(horizon, 80),
        coeffs=CoefficientPair.constant(1.0, 0.0), m=2.0, initial=box_state(line_grid(-8.0, 8.0, 160), 1.0, 1.0),
    )
    # The support portrait's one solve super-steps: its table comes from the
    # whole-box RKL2 oracle on the reference schedule, written out.
    clocks = [one_path_clock(cfg, i) for i in range(cfg.n_paths)]
    t_end = 0.0 + max(TABLE_MARGIN * max(interp_H(c, horizon) for c in clocks), 1e-6)
    snaps = np.geomspace(max(1e-4 * t_end, 1e-6), t_end, N_SNAPSHOTS)
    table, taus, stages = rkl2_march(cfg.initial, cfg.m, t_end, cfg.cfl_safety, snaps)
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
    plateaus = [
        (interp_H(c, horizon) - interp_H(c, 0.5 * horizon)) / interp_H(c, 0.5 * horizon) for c in clocks
    ]
    last = table.states[-1].values
    reps = support_experiment(cfg, mass_check_time=2.0)
    assert reps["plateau"].estimate == np.median(plateaus)
    assert np.array_equal(reps["support_bound"].extras["support_radii"], np.array(radii))
    assert reps["support_bound"].estimate == max(radii)
    assert reps["domain"].estimate == max(abs(last[0]), abs(last[-1]))
    assert reps["domain"].passed == (last[0] == 0.0 and last[-1] == 0.0)
    decay = reps["decay"]
    assert np.array_equal(decay.extras["decay_medians"], np.median(np.array(centre), axis=0))
    mass = reps["mean_mass"]
    assert (mass.estimate, mass.stderr, mass.target, mass.passed) == mean_mass_verdict(cfg, clocks, table, 2.0)
    # The provenance records the solve.
    record = [mass.provenance[f"table_{key}"] for key in ("steps", "stages", "dt_min", "dt_max", "clamped")]
    assert record == [len(taus), sum(stages), min(taus), max(taus), table.clamped_total]


def test_support_portrait_super_steps_through_the_public_march(monkeypatch):
    # The solve goes through evolve_together, so a wrapper around it (a
    # profiler's, say) sees the march; it super-steps there and nowhere after.
    marched = analysis.evolve_together
    seen = []

    def spy(*args):
        seen.append(solver._SUPER_STEP.get())
        return marched(*args)

    monkeypatch.setattr(analysis, "evolve_together", spy)
    cfg = McConfig(
        n_paths=4, master_seed=MASTER, grid=TimeGrid.uniform(1.0, 20),
        coeffs=CoefficientPair.constant(1.0, 0.0), m=2.0, initial=box_state(line_grid(-4.0, 4.0, 80), 1.0, 1.0),
    )
    reps = support_experiment(cfg, mass_check_time=0.5)
    assert seen == [True] and not solver._SUPER_STEP.get()
    assert reps["mean_mass"].provenance["table_stages"] > reps["mean_mass"].provenance["table_steps"]


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
        monkeypatch.setattr(noise, "BLOCK_VALUES", rows * 97)
    h, H, logh_end = analysis._clocks(cfg, times)
    clocks = [one_path_clock(cfg, i) for i in range(cfg.n_paths)]
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
        interp_h(one_path_clock(cfg, 0), times)

    def no_draw(*args):
        raise AssertionError("a path was drawn before the probe times were checked")

    monkeypatch.setattr(noise, "_fill_brownian", no_draw)
    with pytest.raises(OutOfRangeError) as block:
        analysis._clocks(cfg, times)
    assert str(block.value) == str(per_path.value)


@pytest.mark.parametrize("g,message", [(800.0, "overflowed to infinity"), (-800.0, "underflowed to zero")])
def test_block_clocks_fail_like_the_per_path_clock(g, message):
    cfg = McConfig(n_paths=5, master_seed=MASTER, grid=TimeGrid.uniform(1.0, 16),
                   coeffs=CoefficientPair.constant(1.0, g), m=2.0)
    with pytest.raises(InvalidInputError) as per_path:
        one_path_clock(cfg, 0)
    with pytest.raises(InvalidInputError) as block:
        analysis._clocks(cfg, [1.0])
    assert message in str(block.value) and str(block.value) == str(per_path.value)


def _no_draw(*args):
    raise AssertionError("a path was drawn before the inputs were checked")


def _small_sweep_config(**kwargs):
    coeffs = CoefficientPair.from_pieces([(0.0, 1.0), (0.5, 0.0)], [(0.0, 0.0)])
    return McConfig(n_paths=5, master_seed=MASTER, grid=TimeGrid.uniform(1.0, 16), coeffs=coeffs, m=2.0, **kwargs)


@pytest.mark.parametrize(
    "sweep",
    [
        lambda cfg: analysis._clocks(cfg, [0.5, math.nan]),
        lambda cfg: mc_mean_mass(cfg, math.nan),
        lambda cfg: mc_lp_bound(cfg, 2.0, math.nan),
        lambda cfg: comparison_check(cfg, cfg.initial, cfg.initial, [(0.5, 0.0), (math.nan, 0.0)]),
        lambda cfg: maximum_check(cfg, 1.0, [(math.nan, 0.0)]),
    ],
    ids=["clocks", "mc_mean_mass", "mc_lp_bound", "comparison_check", "maximum_check"],
)
def test_nan_probe_times_are_invalid_input_before_drawing(monkeypatch, sweep):
    cfg = _small_sweep_config(initial=box_state(line_grid(cells=40), 1.0, 1.0))
    monkeypatch.setattr(noise, "_fill_brownian", _no_draw)
    with pytest.raises(InvalidInputError, match=r"time \[(0.5 )?nan\] is not a number"):
        sweep(cfg)


@pytest.mark.parametrize(
    "sweep",
    [
        lambda cfg: mc_mean_mass(cfg, 1.0),
        lambda cfg: mc_lp_bound(cfg, 2.0, 1.0),
        lambda cfg: asymptotics_experiment(cfg, [0.5, 1.0]),
        lambda cfg: limit_profile_check(cfg, [0.5, 1.0]),
        lambda cfg: support_experiment(cfg, mass_check_time=0.5),
    ],
    ids=["mc_mean_mass", "mc_lp_bound", "asymptotics", "limit_profile", "support"],
)
def test_missing_initial_data_fails_before_any_path_is_drawn(monkeypatch, sweep):
    cfg = _small_sweep_config()
    monkeypatch.setattr(analysis, "_clock_blocks", _no_draw)
    with pytest.raises(InvalidInputError, match="this sweep needs deterministic initial data"):
        sweep(cfg)


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


def _on_affine_clock(evaluate):
    """A base reading ``evaluate`` and a drift-only clock, as the leading pair of weak_form_residual."""
    clock = multiplier_path(still_path(TimeGrid.uniform(1.0, 32)), CoefficientPair.constant(0.0, 0.3), gamma=2.0)
    return DeterministicSolution(evaluate=evaluate), clock


def _ramp(s, x):
    return 0.5 * np.maximum(np.asarray(s) + np.asarray(x, dtype=float), 0.0)


def _one_clock_value_at_a_time(evaluate):
    """A base that reads ``evaluate`` at one clock value at a time and stacks the rows."""
    return lambda s, x: np.vstack([evaluate(float(v), np.ravel(x)) for v in np.ravel(s)])


def test_weak_form_residual_evaluates_a_broadcasting_base_once():
    calls = []

    def evaluate(s, x):
        calls.append(np.shape(s))
        return _ramp(s, x)

    phi = Bump(center=1.0, width=0.8)
    residual = weak_form_residual(*_on_affine_clock(evaluate), 2.0, phi, 1.0)
    assert calls == [(33, 1)]
    per_time = weak_form_residual(*_on_affine_clock(_one_clock_value_at_a_time(_ramp)), 2.0, phi, 1.0)
    assert residual == pytest.approx(per_time, rel=1e-12, abs=1e-15)


def test_weak_form_residual_reads_a_table_base_once():
    # A table base broadcasts s against x, and array reads of a table have
    # the bits of scalar ones.
    table = evolve(box_state(line_grid(cells=64), 1.0, 1.5), 2.0, 2.0, 0.4, tuple(np.linspace(0.05, 1.95, 39)))
    base = table_solution(table)
    calls = []

    def counted(s, x):
        out = base.evaluate(s, x)
        calls.append((np.shape(s), np.shape(out)))
        return out

    phi = Bump(center=1.0, width=0.8)
    residual = weak_form_residual(*_on_affine_clock(counted), 2.0, phi, 1.0)
    assert calls == [((33, 1), (33, analysis.N_QUAD))]
    per_value = weak_form_residual(*_on_affine_clock(_one_clock_value_at_a_time(base.evaluate)), 2.0, phi, 1.0)
    assert residual > 0.0 and np.float64(residual).tobytes() == np.float64(per_value).tobytes()


@pytest.mark.parametrize(
    "evaluate, error, message",
    [
        (lambda s, x: _ramp(float(s), x), TypeError, None),
        (lambda s, x: _ramp(s, x) if s >= 0.0 else 0.0 * x, ValueError, "truth value"),
        (lambda s, x: _ramp(np.ravel(s)[0], x), InvalidInputError, r"shape \(1, 513\), not \(33, 513\)"),
    ],
    ids=["type_error", "value_error", "wrong_shape"],
)
def test_weak_form_residual_rejects_a_base_that_does_not_broadcast(evaluate, error, message):
    # A base whose one call raises propagates that error; one that returns
    # another shape than (clock values, positions) is invalid input.
    calls = []

    def counted(s, x):
        calls.append(np.ndim(s))
        return evaluate(s, x)

    with pytest.raises(error, match=message) as err:
        weak_form_residual(*_on_affine_clock(counted), 2.0, Bump(center=1.0, width=0.8), 1.0)
    assert type(err.value) is error
    assert calls == [2]


def test_weak_form_residual_propagates_other_base_errors():
    calls = []

    def evaluate(s, x):
        calls.append(np.shape(s))
        raise OutOfRangeError("clock value outside the base's window")

    with pytest.raises(OutOfRangeError, match="outside the base's window"):
        weak_form_residual(*_on_affine_clock(evaluate), 2.0, Bump(center=1.0, width=0.8), 1.0)
    assert calls == [(33, 1)]
