"""Acceptance slate: eleven end-to-end checks at fixed scales.

Every test registers one pass/fail line in the terminal summary (see
conftest.py) and then asserts.  Criterion 8 checks the terminal law of the
log multiplier, N(int g - 1/2 int f^2, int f^2); its seed, sample size and
3-sigma chi-square variance band are fixed (see README.md).
"""
from __future__ import annotations

import math
import time

import numpy as np
from conftest import barenblatt_mass_quadrature, record_criterion

from spmelab import (
    BarenblattParams,
    BlowUpError,
    Bump,
    CoefficientPair,
    DeterministicSolution,
    McConfig,
    QuadraticPressureParams,
    SpatialGrid,
    StochasticFieldSample,
    TimeGrid,
    TimeInterval,
    asymptotics_experiment,
    barenblatt,
    barenblatt_mass,
    barenblatt_solution,
    barenblatt_state,
    box_state,
    comparison_check,
    evolve,
    forward_transform,
    hitting_time,
    inverse_transform,
    limit_law_statistics,
    maximum_check,
    mc_lp_bound,
    mc_mean_mass,
    mix_seed,
    multiplier_path,
    quadratic_pressure_solution,
    sample_brownian,
    still_path,
    support_experiment,
    weak_form_residual,
)
from spmelab import analysis

MASTER = 20260815


def envelope_half_width(height: float, spread: float, m: float, d: int, h_max: float) -> float:
    """Domain half-width from the dominating self-similar envelope."""
    beta = 1.0 / ((m - 1.0) * d + 2.0)
    b_dom = height ** (m - 1.0) + (m - 1.0) * beta / (2.0 * m) * spread**2
    prefactor = math.sqrt(2.0 * m * b_dom / ((m - 1.0) * beta))
    return prefactor * (1.0 + 1.05 * h_max) ** beta * 1.15


def sized_box_config(coeffs, n_paths, horizon, steps, height=1.0, spread=1.0):
    """Two-stage setup: sweep the clocks first, then size the spatial box."""
    grid_t = TimeGrid.uniform(horizon, steps)
    pre = McConfig(n_paths=n_paths, master_seed=MASTER, grid=grid_t, coeffs=coeffs, m=2.0)
    h_max = float(np.max(analysis._clocks(pre, [horizon])[1]))
    half = envelope_half_width(height, spread, 2.0, 1, h_max)
    cells = int(math.ceil(2.0 * half / 0.1 / 8.0)) * 8
    grid_x = SpatialGrid(kind="cartesian", lo=-half, hi=half, cells=cells)
    return McConfig(
        n_paths=n_paths, master_seed=MASTER, grid=grid_t, coeffs=coeffs, m=2.0,
        initial=box_state(grid_x, height, spread),
    )


def test_criterion_01_transform_round_trip():
    started = time.perf_counter()
    p = BarenblattParams(m=2.0, d=1, b=1.0)
    base = barenblatt_solution(p)
    coeffs = CoefficientPair.constant(1.0, 0.0)
    grid = TimeGrid.uniform(1.0, 256)
    worst = 0.0
    for i in range(20):
        path = sample_brownian(grid, mix_seed(MASTER, 100 + i))
        clock = multiplier_path(path, coeffs, gamma=2.0)
        sample = StochasticFieldSample(base=base, clock=clock)
        h_end = float(clock.H[-1])
        for s in np.linspace(0.1 * h_end, 0.95 * h_end, 20):
            radius = p.support_radius(float(s))
            xs = np.linspace(-0.45 * radius, 0.45 * radius, 50)
            got = np.asarray(inverse_transform(sample, float(s), xs), dtype=float)
            want = barenblatt(p, float(s), xs)
            worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-8 and elapsed < 10.0
    line = record_criterion(
        1, ok,
        f"20 paths x 1000 probes: max relative round-trip error {worst:.2e} "
        f"(tol 1e-08), {elapsed:.1f}s of 10s",
    )
    assert ok, line


def test_criterion_02_momentum_closed_form():
    base = DeterministicSolution(
        evaluate=lambda s, x: -np.asarray(x, dtype=float) / (1.0 + np.asarray(s, dtype=float)),
        tag="self-sharpening momentum profile",
    )
    coeffs = CoefficientPair.constant(1.0, 0.0)
    grid = TimeGrid.uniform(2.0, 64)
    xs = np.array([-4.0, -2.5, -1.0, -0.25, 0.25, 1.0, 2.5, 4.0])
    worst = 0.0
    for i in range(20):
        path = sample_brownian(grid, mix_seed(MASTER, 200 + i))
        clock = multiplier_path(path, coeffs, gamma=2.0)
        # Independent route: the multiplier is exp(w(t) - t/2) in closed form
        # and the clock is its own left-endpoint time integral.
        h_direct = np.exp(path.w - 0.5 * grid.nodes)
        dt = np.diff(grid.nodes)
        H_direct = np.concatenate(([0.0], np.cumsum(h_direct[:-1] * dt)))
        for k in range(grid.nodes.size):
            t = float(grid.nodes[k])
            got = np.asarray(forward_transform(base, clock, t, xs), dtype=float)
            want = -xs * h_direct[k] / (1.0 + H_direct[k])
            worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))
    ok = worst <= 1e-10
    line = record_criterion(
        2, ok, f"transported momentum field vs direct formula: max relative error {worst:.2e} (tol 1e-10)",
    )
    assert ok, line


def test_criterion_03_source_profile_mass():
    started = time.perf_counter()
    worst = 0.0
    for m, d in ((2.0, 1), (3.0, 1), (2.0, 2), (2.0, 3)):
        for b in (0.5, 1.0, 4.0):
            p = BarenblattParams(m=m, d=d, b=b)
            closed = barenblatt_mass(p)
            quad = barenblatt_mass_quadrature(p, rel_tol=1e-8)
            worst = max(worst, abs(quad - closed) / closed)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-6 and elapsed < 5.0
    line = record_criterion(
        3, ok,
        f"closed-form vs adaptive-quadrature mass over 12 parameter sets: "
        f"max relative gap {worst:.2e} (tol 1e-06), {elapsed:.1f}s of 5s",
    )
    assert ok, line


def test_criterion_04_solver_convergence():
    started = time.perf_counter()
    p = BarenblattParams(m=2.0, d=1, b=1.0)
    errors = {}
    drift_worst = 0.0
    for cells in (100, 200, 400):
        grid = SpatialGrid(kind="cartesian", lo=-9.0, hi=9.0, cells=cells)
        table = evolve(barenblatt_state(grid, p, 1.0), 2.0, 2.0, 0.4, ())
        final = table.states[-1]
        exact = barenblatt(p, 2.0, grid.centers)
        errors[cells] = float(np.sum(np.abs(final.values - exact)) * grid.dx)
        drift_worst = max(
            drift_worst, float(np.max(np.abs(table.masses - table.masses[0])) / table.masses[0])
        )
    elapsed = time.perf_counter() - started
    order_1 = math.log2(errors[100] / errors[200])
    order_2 = math.log2(errors[200] / errors[400])
    ok = (
        errors[400] <= 1e-2
        and order_1 >= 0.8
        and order_2 >= 0.8
        and drift_worst <= 1e-10
        and elapsed < 30.0
    )
    line = record_criterion(
        4, ok,
        f"L1 errors {errors[100]:.2e}/{errors[200]:.2e}/{errors[400]:.2e} at 100/200/400 cells "
        f"(orders {order_1:.2f}, {order_2:.2f}, floor 0.8), mass drift {drift_worst:.1e} "
        f"(tol 1e-10), {elapsed:.1f}s of 30s",
    )
    assert ok, line


def test_criterion_05_mean_mass():
    started = time.perf_counter()
    grid_x = SpatialGrid(kind="cartesian", lo=-6.0, hi=6.0, cells=200)
    box = box_state(grid_x, 1.0, 1.0)
    noisy = McConfig(
        n_paths=10_000, master_seed=MASTER, grid=TimeGrid.uniform(1.0, 256),
        coeffs=CoefficientPair.constant(1.0, 0.0), m=2.0, initial=box,
    )
    rep_noisy = mc_mean_mass(noisy, 1.0)
    drift_only = McConfig(
        n_paths=2, master_seed=MASTER, grid=TimeGrid.uniform(1.0, 256),
        coeffs=CoefficientPair.constant(0.0, 1.0), m=2.0, initial=box,
    )
    rep_drift = mc_mean_mass(drift_only, 1.0)
    exact_gap = abs(rep_drift.estimate - rep_drift.target) / rep_drift.target
    elapsed = time.perf_counter() - started
    ok = rep_noisy.passed and exact_gap <= 1e-9 and elapsed < 120.0
    line = record_criterion(
        5, ok,
        f"noisy mean mass {rep_noisy.estimate:.4f} vs {rep_noisy.target:.4f} "
        f"(3 SE = {3.0 * rep_noisy.stderr:.4f}, N=10000); drift-only relative gap "
        f"{exact_gap:.1e} (tol 1e-09), {elapsed:.0f}s of 120s",
    )
    assert ok, line


def test_criterion_06_lp_bound():
    p = BarenblattParams(m=2.0, d=1, b=1.0)
    grid_x = SpatialGrid(kind="cartesian", lo=-12.0, hi=12.0, cells=240)
    cfg = McConfig(
        n_paths=10_000, master_seed=MASTER, grid=TimeGrid.uniform(1.0, 256),
        coeffs=CoefficientPair.constant(1.0, 0.0), m=2.0,
        initial=barenblatt_state(grid_x, p, 1.0),
    )
    reports = {t: mc_lp_bound(cfg, 2.0, t) for t in (0.5, 1.0)}
    ok = all(rep.passed for rep in reports.values())
    gaps = ", ".join(
        f"t={t:g}: {rep.estimate:.4f} <= {rep.target:.4f}" for t, rep in reports.items()
    )
    line = record_criterion(
        6, ok, f"quadratic-norm bound at N=10000 ({gaps}, 3-relative-SE rule)",
    )
    assert ok, line


def test_criterion_07_blow_up_timing_and_life_extension():
    p = QuadraticPressureParams(m=2.0, d=1, q=1.0)
    base = quadratic_pressure_solution(p)
    t_q = p.t_blowup
    grid = TimeGrid.uniform(0.25, 3000)
    dt = float(grid.nodes[1] - grid.nodes[0])
    still = multiplier_path(still_path(grid), CoefficientPair.constant(0.0, 0.0), gamma=2.0)
    first_fail = None
    witness = None
    for t in grid.nodes[1:]:
        try:
            forward_transform(base, still, float(t), 0.5)
        except BlowUpError as exc:
            first_fail = float(t)
            witness = exc
            break
    timing_ok = (
        first_fail is not None
        and abs(first_fail - t_q) <= dt * (1.0 + 1e-9)
        and witness.base_time == t_q
        and abs(witness.hitting_time - t_q) <= dt * (1.0 + 1e-9)
    )
    alpha = 13.0
    slow = multiplier_path(
        still_path(TimeGrid.uniform(40.0, 8000)),
        CoefficientPair.constant(0.0, -alpha),
        gamma=2.0,
    )
    tail_value = forward_transform(base, slow, 40.0, 0.5)
    extension_ok = (
        hitting_time(slow, t_q) is None
        and float(slow.H[-1]) < t_q
        and np.isfinite(tail_value)
    )
    ok = timing_ok and extension_ok
    line = record_criterion(
        7, ok,
        f"blow-up first raised at t={first_fail:.6f} vs 1/12={t_q:.6f} (step {dt:.1e}); "
        f"decay rate {alpha:g} keeps the clock at {float(slow.H[-1]):.5f} < 1/12 forever",
    )
    assert ok, line


def test_criterion_08_terminal_log_multiplier_law():
    coeffs = CoefficientPair.from_pieces([(0.0, 1.0), (2.0, 0.0)], [(0.0, 0.0)])
    cfg = McConfig(
        n_paths=10_000, master_seed=MASTER, grid=TimeGrid.uniform(3.0, 384),
        coeffs=coeffs, m=2.0,
    )
    rep = limit_law_statistics(cfg)
    lo, hi = rep.extras["var_band"]
    line = record_criterion(
        8, rep.passed,
        f"log multiplier at the horizon: mean {rep.estimate:.4f} vs {rep.target:g} "
        f"({'ok' if rep.extras['mean_ok'] else 'off'} at 3 SE); sample variance "
        f"{rep.extras['sample_var']:.4f} vs band ({lo:.4f}, {hi:.4f}) around "
        f"int f^2 = {rep.extras['claimed_var']:g}",
    )
    assert rep.passed, line


def test_criterion_09_scaled_profile_attraction():
    probe_times = (5.0, 10.0, 20.0)
    frozen = asymptotics_experiment(
        sized_box_config(CoefficientPair.constant(0.0, 0.0), 2, 20.0, 200), probe_times
    )
    drift = asymptotics_experiment(
        sized_box_config(
            CoefficientPair.from_pieces([(0.0, 0.0)], [(0.0, 0.2), (1.0, 0.0)]), 2, 20.0, 200
        ),
        probe_times,
    )
    noisy = asymptotics_experiment(
        sized_box_config(
            CoefficientPair.from_pieces([(0.0, 1.0), (0.5, 0.0)], [(0.0, 0.0)]), 200, 20.0, 400
        ),
        probe_times,
    )
    ok = frozen.estimate == 1.0 and drift.estimate == 1.0 and noisy.passed
    line = record_criterion(
        9, ok,
        f"scaled error strictly decreasing: trivial clock {frozen.estimate:.0%}, "
        f"drift clock {drift.estimate:.0%}, noisy clock {noisy.estimate:.1%} of 200 paths "
        f"(floor 95%)",
    )
    assert ok, line


def test_criterion_10_bounded_support_portrait():
    started = time.perf_counter()
    cfg = sized_box_config(CoefficientPair.constant(1.0, 0.0), 1000, 50.0, 1000)
    reps = support_experiment(cfg)
    elapsed = time.perf_counter() - started
    assert list(reps) == ["plateau", "support_bound", "domain", "mean_mass", "decay"]
    ok = all(rep.passed for rep in reps.values())
    plateau, bound, mass, decay = (reps[k] for k in ("plateau", "support_bound", "mean_mass", "decay"))
    line = record_criterion(
        10, ok,
        f"clock plateau {plateau.estimate:.2%} (tol 1%), largest support radius "
        f"{bound.estimate:.2f} under the envelope bound, mean mass "
        f"{mass.estimate:.3f} vs {mass.target:.3f} at 3 SE, "
        f"median center value {decay.estimate:.1e} <= 10% of {decay.extras['center_initial']:.2f} "
        f"({elapsed:.0f}s)",
    )
    assert ok, line


def test_criterion_11_order_preservation_and_weak_form():
    grid_x = SpatialGrid(kind="cartesian", lo=-6.0, hi=6.0, cells=200)
    cfg = McConfig(
        n_paths=100, master_seed=MASTER, grid=TimeGrid.uniform(1.0, 128),
        coeffs=CoefficientPair.constant(1.0, 0.0), m=2.0,
    )
    probes = [(t, x) for t in (0.25, 0.5, 1.0) for x in (-1.5, -0.5, 0.0, 0.5, 1.5)]
    comp = comparison_check(cfg, box_state(grid_x, 0.5, 0.8), box_state(grid_x, 1.0, 1.2), probes)
    capped = McConfig(
        n_paths=100, master_seed=MASTER, grid=TimeGrid.uniform(1.0, 128),
        coeffs=CoefficientPair.constant(1.0, 0.0), m=2.0,
        initial=box_state(grid_x, 1.0, 1.2),
    )
    cap = maximum_check(capped, 1.0, probes)

    p = BarenblattParams(m=2.0, d=1, b=1.0)
    base = DeterministicSolution(
        evaluate=lambda s, x: barenblatt(p, np.asarray(s, dtype=float) + 1.0, x),
        interval=TimeInterval(lo=-1.0, hi=math.inf, lo_open=True),
        tag="source profile started one unit early",
    )
    coeffs = CoefficientPair.constant(0.5, 0.1)
    phi = Bump(center=0.5, width=2.5)
    steps_list = (128, 256, 512, 1024)
    rms = []
    for steps in steps_list:
        vals = []
        for i in range(6):
            path = sample_brownian(TimeGrid.uniform(1.0, steps), mix_seed(MASTER, 300 + i))
            clock = multiplier_path(path, coeffs, gamma=2.0)
            vals.append(
                weak_form_residual(StochasticFieldSample(base=base, clock=clock), 2.0, phi, 1.0)
            )
        rms.append(math.sqrt(math.fsum(v * v for v in vals) / len(vals)))
    slope = -float(np.polyfit(np.log(steps_list), np.log(rms), 1)[0])
    ok = comp.passed and cap.passed and slope >= 0.4
    line = record_criterion(
        11, ok,
        f"ordering kept at {len(probes)} probes x 100 paths: {comp.passed}; cap kept: {cap.passed}; "
        f"weak-form RMS slope {slope:.2f} under mesh refinement (floor 0.4)",
    )
    assert ok, line
