"""Tests for the conservative finite-volume scheme and its snapshot tables."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spmelab import (
    BarenblattParams,
    FieldState,
    InvalidInputError,
    OutOfRangeError,
    SchemeConfig,
    SnapshotTable,
    SpatialGrid,
    StabilityError,
    barenblatt,
    barenblatt_mass,
    barenblatt_state,
    box_state,
    dense_eval,
    dense_values,
    eval_on_centers,
    evolve,
    evolve_together,
    field_from,
    interp_mass,
    lp_power_sum,
    residual,
    stable_dt,
    step,
    support_radius,
    table_solution,
)
from spmelab import solver


def line_grid(lo=-6.0, hi=6.0, cells=200) -> SpatialGrid:
    return SpatialGrid(kind="cartesian", lo=lo, hi=hi, cells=cells)


def test_spatial_grid_validation():
    with pytest.raises(InvalidInputError):
        SpatialGrid(kind="spherical", lo=0.0, hi=1.0, cells=16)
    with pytest.raises(InvalidInputError):
        SpatialGrid(kind="cartesian", lo=0.0, hi=1.0, cells=4)
    with pytest.raises(InvalidInputError):
        SpatialGrid(kind="cartesian", lo=1.0, hi=1.0, cells=16)
    with pytest.raises(InvalidInputError):
        SpatialGrid(kind="cartesian", lo=0.0, hi=1.0, cells=16, dim=2)
    with pytest.raises(InvalidInputError):
        SpatialGrid(kind="radial", lo=0.5, hi=1.0, cells=16, dim=2)
    with pytest.raises(InvalidInputError):
        SpatialGrid(kind="radial", lo=0.0, hi=1.0, cells=16, dim=1)
    grid = SpatialGrid(kind="radial", lo=0.0, hi=2.0, cells=16, dim=3)
    assert grid.volumes.sum() == pytest.approx(4.0 / 3.0 * math.pi * 8.0, rel=1e-12)


def test_field_state_validation():
    grid = line_grid(cells=16)
    with pytest.raises(InvalidInputError):
        FieldState(grid=grid, time=0.0, values=np.zeros(8))
    with pytest.raises(InvalidInputError):
        FieldState(grid=grid, time=-1.0, values=np.zeros(16))
    with pytest.raises(InvalidInputError):
        FieldState(grid=grid, time=0.0, values=np.full(16, -0.1))
    with pytest.raises(InvalidInputError):
        FieldState(grid=grid, time=0.0, values=np.full(16, np.nan))
    with pytest.raises(InvalidInputError):
        box_state(grid, 1.0, 0.0)


def test_constant_field_is_a_fixed_point():
    grid = line_grid(cells=32)
    state = field_from(grid, lambda x: np.full_like(x, 0.7))
    dt = stable_dt(state, 2.0, 0.4)
    after = step(state, 2.0, dt, safety=0.4)
    assert np.array_equal(after.values, state.values)
    assert after.time == pytest.approx(dt)


def test_step_conserves_mass_and_never_clamps():
    grid = line_grid()
    state = box_state(grid, 1.0, 1.0)
    for _ in range(200):
        dt = stable_dt(state, 2.0, 0.4)
        new = step(state, 2.0, dt, safety=0.4)
        assert abs(new.mass - state.mass) <= 1e-13 * max(1.0, state.mass)
        assert new.clamped_mass == 0.0
        state = new


def test_step_rejects_oversized_dt():
    grid = line_grid()
    state = box_state(grid, 1.0, 1.0)
    bound = stable_dt(state, 2.0, 0.4)
    with pytest.raises(StabilityError):
        step(state, 2.0, 2.0 * bound, safety=0.4)
    with pytest.raises(InvalidInputError):
        step(state, 1.0, bound)
    with pytest.raises(InvalidInputError):
        step(state, 2.0, 0.0)


def test_stable_dt_formula_and_zero_state_guard():
    grid = line_grid(cells=100)
    state = box_state(grid, 2.0, 1.0)
    expected = 0.4 * grid.dx**2 / (2.0 * 1 * 3.0 * 2.0**2)
    assert stable_dt(state, 3.0, 0.4) == pytest.approx(expected, rel=1e-12)
    zero = field_from(grid, np.zeros_like)
    assert stable_dt(zero, 2.0, 0.4) > 1.0


def test_zero_initial_data_stays_zero():
    grid = line_grid(cells=64)
    zero = field_from(grid, np.zeros_like)
    table = evolve(zero, 2.0, 1.0, SchemeConfig(cfl_safety=0.4))
    assert all(np.all(st.values == 0.0) for st in table.states)
    assert support_radius(table.states[-1]) == 0.0


def test_evolve_validation_and_mass_drift():
    grid = line_grid()
    box = box_state(grid, 1.0, 1.0)
    with pytest.raises(InvalidInputError):
        evolve(box, 2.0, 0.0, SchemeConfig())
    with pytest.raises(InvalidInputError):
        evolve(box, 2.0, 1.0, SchemeConfig(cfl_safety=0.4, snapshot_times=(2.0,)))
    table = evolve(box, 2.0, 1.0, SchemeConfig(cfl_safety=0.4, snapshot_times=(0.25, 0.5)))
    assert [round(t, 12) for t in table.times] == [0.0, 0.25, 0.5, 1.0]
    drift = float(np.max(np.abs(table.masses - table.masses[0])))
    assert drift <= 1e-10 * table.masses[0]
    assert table.clamped_total == 0.0


def test_snapshot_table_requires_increasing_times():
    grid = line_grid(cells=16)
    a = box_state(grid, 1.0, 1.0, time=0.5)
    b = box_state(grid, 1.0, 1.0, time=0.25)
    with pytest.raises(InvalidInputError):
        SnapshotTable(states=(a, b), m=2.0, scheme=SchemeConfig())


def test_lp_power_sums_are_non_increasing():
    grid = line_grid()
    table = evolve(
        box_state(grid, 1.0, 1.0), 2.0, 2.0,
        SchemeConfig(cfl_safety=0.4, snapshot_times=tuple(np.linspace(0.2, 1.8, 9))),
    )
    for p in (2.0, 3.0):
        sums = [lp_power_sum(st, None, p) for st in table.states]
        assert all(a >= b - 1e-12 for a, b in zip(sums, sums[1:]))
    with pytest.raises(InvalidInputError):
        lp_power_sum(np.ones(8), None, 2.0)


def test_box_support_grows_monotonically_with_cube_root_slope():
    grid = SpatialGrid(kind="cartesian", lo=-12.0, hi=12.0, cells=480)
    snap_times = (2.5, 5.0, 10.0, 20.0, 40.0)
    table = evolve(box_state(grid, 1.0, 1.0), 2.0, 40.0, SchemeConfig(0.4, snap_times))
    radii = [support_radius(st) for st in table.states]
    assert all(a <= b + 1e-12 for a, b in zip(radii, radii[1:]))
    late_t = np.array(snap_times[1:])
    late_r = np.array(radii[2:])
    slope = float(np.polyfit(np.log(late_t), np.log(late_r), 1)[0])
    beta = 1.0 / 3.0
    assert 0.25 <= slope <= 0.40, f"slope {slope:.3f} should sit near {beta:.3f}"
    edge = table.states[-1].values
    assert edge[0] == 0.0 and edge[-1] == 0.0


def test_finite_propagation_one_cell_per_step():
    grid = line_grid(cells=120)
    state = box_state(grid, 1.0, 1.0)
    for _ in range(120):
        before = support_radius(state)
        dt = stable_dt(state, 2.0, 0.4)
        state = step(state, 2.0, dt, safety=0.4)
        after = support_radius(state)
        assert after <= before + grid.dx * (1.0 + 1e-9)


def test_self_similar_profile_convergence_on_a_wide_box():
    p = BarenblattParams(m=2.0, d=1, b=1.0)
    errors = {}
    for cells in (100, 200):
        grid = SpatialGrid(kind="cartesian", lo=-9.0, hi=9.0, cells=cells)
        table = evolve(barenblatt_state(grid, p, 1.0), 2.0, 2.0, SchemeConfig(cfl_safety=0.4))
        final = table.states[-1]
        exact = barenblatt(p, 2.0, grid.centers)
        errors[cells] = float(np.sum(np.abs(final.values - exact)) * grid.dx)
        drift = float(np.max(np.abs(table.masses - table.masses[0])))
        assert drift <= 1e-10 * table.masses[0]
    assert errors[100] <= 5e-3
    assert errors[200] <= 3e-3
    order = math.log2(errors[100] / errors[200])
    assert order >= 0.8


def test_dense_eval_matches_snapshots_and_interpolates():
    p = BarenblattParams(m=2.0, d=1, b=1.0)
    grid = SpatialGrid(kind="cartesian", lo=-9.0, hi=9.0, cells=200)
    snaps = tuple(np.linspace(1.05, 2.0, 20))
    table = evolve(barenblatt_state(grid, p, 1.0), 2.0, 2.0, SchemeConfig(0.4, snaps))
    st = table.states[3]
    assert np.array_equal(dense_values(table, float(st.time)), st.values)
    assert interp_mass(table, float(st.time)) == pytest.approx(st.mass, rel=1e-14)
    snap_err = max(
        float(np.max(np.abs(s.values - barenblatt(p, float(s.time), grid.centers))))
        for s in table.states
    )
    mid_err = 0.0
    for a, b in zip(table.times[:-1], table.times[1:]):
        tm = 0.5 * (a + b)
        exact = barenblatt(p, tm, grid.centers[::10])
        probe = np.array([dense_eval(table, tm, float(x)) for x in grid.centers[::10]])
        mid_err = max(mid_err, float(np.max(np.abs(probe - exact))))
    assert mid_err <= 2.0 * snap_err
    with pytest.raises(OutOfRangeError):
        dense_values(table, 2.5)
    with pytest.raises(OutOfRangeError):
        dense_values(table, 0.5)


def test_eval_on_centers_edge_conventions():
    grid = line_grid(lo=-2.0, hi=2.0, cells=16)
    state = field_from(grid, lambda x: 1.0 + 0.0 * x)
    table = SnapshotTable(states=(state,), m=2.0, scheme=SchemeConfig())
    vals = eval_on_centers(table, 0.0, np.array([-3.0, -1.99, 0.0, 1.99, 3.0]))
    assert vals[0] == 0.0 and vals[-1] == 0.0
    assert np.all(vals[1:4] == 1.0)


def test_table_solution_wraps_the_table():
    grid = line_grid(cells=64)
    table = evolve(box_state(grid, 1.0, 1.0), 2.0, 1.0, SchemeConfig(0.4, (0.5,)))
    base = table_solution(table)
    assert base.interval.contains(0.5)
    assert not base.interval.contains(1.5)
    assert base.evaluate(0.5, 0.0) == pytest.approx(dense_eval(table, 0.5, 0.0), rel=1e-14)
    out = base.evaluate(0.5, np.array([-0.5, 0.5]))
    assert out.shape == (2,)


def test_radial_solver_tracks_the_closed_form():
    for d, tol in ((2, 2e-3), (3, 2e-2)):
        p = BarenblattParams(m=2.0, d=d, b=1.0)
        grid = SpatialGrid(kind="radial", lo=0.0, hi=6.0, cells=240, dim=d)
        initial = barenblatt_state(grid, p, 1.0)
        assert initial.mass == pytest.approx(barenblatt_mass(p), rel=1e-4)
        table = evolve(initial, 2.0, 2.0, SchemeConfig(cfl_safety=0.4))
        final = table.states[-1]
        points = np.zeros((grid.cells, d))
        points[:, 0] = grid.centers
        exact = barenblatt(p, 2.0, points)
        l1 = float(np.dot(np.abs(final.values - exact), grid.volumes))
        assert l1 <= tol
        drift = float(np.max(np.abs(table.masses - table.masses[0])))
        assert drift <= 1e-10 * table.masses[0]


def test_barenblatt_state_dimension_checks():
    p2 = BarenblattParams(m=2.0, d=2, b=1.0)
    with pytest.raises(InvalidInputError):
        barenblatt_state(line_grid(), p2, 1.0)
    radial3 = SpatialGrid(kind="radial", lo=0.0, hi=4.0, cells=32, dim=3)
    with pytest.raises(InvalidInputError):
        barenblatt_state(radial3, p2, 1.0)


def test_evolve_together_preserves_order_and_matches_single_evolution():
    grid = line_grid()
    low = box_state(grid, 0.5, 0.8)
    high = box_state(grid, 1.0, 1.2)
    scheme = SchemeConfig(cfl_safety=0.4, snapshot_times=tuple(np.linspace(0.1, 0.9, 9)))
    table_low, table_high = evolve_together((low, high), 2.0, 1.0, scheme)
    assert np.array_equal(table_low.times, table_high.times)
    for a, b in zip(table_low.states, table_high.states):
        assert np.all(a.values <= b.values + 1e-12)
    solo = evolve(high, 2.0, 1.0, scheme)
    (paired,) = evolve_together((high,), 2.0, 1.0, scheme)
    assert np.array_equal(solo.times, paired.times)
    for a, b in zip(solo.states, paired.states):
        assert np.array_equal(a.values, b.values)


def test_evolve_together_validation():
    grid = line_grid(cells=16)
    with pytest.raises(InvalidInputError):
        evolve_together((), 2.0, 1.0, SchemeConfig())
    a = box_state(grid, 1.0, 1.0, time=0.0)
    b = box_state(grid, 1.0, 1.0, time=0.5)
    with pytest.raises(InvalidInputError):
        evolve_together((a, b), 2.0, 1.0, SchemeConfig())


def test_support_radius_threshold_monotone():
    grid = line_grid(cells=64)
    state = field_from(grid, lambda x: np.maximum(1.0 - np.abs(x), 0.0))
    radii = [support_radius(state, thr) for thr in (0.0, 0.25, 0.5, 0.9)]
    assert all(a >= b for a, b in zip(radii, radii[1:]))
    assert support_radius(field_from(grid, np.zeros_like)) == 0.0


def test_pointwise_residual_oracle_and_negative_control():
    p = BarenblattParams(m=2.0, d=1, b=1.0)

    def profile(tt, xx):
        return barenblatt(p, tt, xx)

    res = [abs(residual(profile, 2.0, 1.0, 0.5, dt=1e-3 / 2**k, dx=1e-2 / 2**k)) for k in range(3)]
    assert res[-1] < res[0]
    assert res[-1] <= 1e-6

    def heat_kernel(tt, xx):
        return math.exp(-(xx**2) / (4.0 * tt)) / math.sqrt(4.0 * math.pi * tt)

    assert abs(residual(heat_kernel, 2.0, 1.0, 0.5, dt=1e-4, dx=1e-3)) >= 0.01
    with pytest.raises(InvalidInputError):
        residual(profile, 2.0, 1.0, 0.5, dt=0.0, dx=1e-2)


# ---------------------------------------------------------------------------
# Table readers at arrays of times: each element equals the scalar read, bit
# for bit, and the scalar read equals the plain bracket-and-np.interp rule.
# ---------------------------------------------------------------------------


def _reference_dense(table, t):
    """Scalar rule: clamp into the stored range, bracket, blend two snapshots."""
    times = table.times
    t = min(max(t, float(times[0])), float(times[-1]))
    if times.size == 1:
        return table.states[0].values.copy(), float(table.masses[0])
    j = min(max(int(np.searchsorted(times, t, side="right")), 1), times.size - 1)
    lam = float((t - times[j - 1]) / (times[j] - times[j - 1]))
    a, b = table.states[j - 1], table.states[j]
    return (1.0 - lam) * a.values + lam * b.values, float(
        (1.0 - lam) * table.masses[j - 1] + lam * table.masses[j]
    )


def _reference_point(table, t, positions):
    g = table.grid
    pos = np.asarray(positions, dtype=float)
    pos = np.abs(pos) if g.kind == "radial" else pos
    out = np.interp(pos, g.centers, _reference_dense(table, t)[0])
    outside = (pos > g.hi) | ((pos < g.lo) if g.kind == "cartesian" else False)
    return np.where(outside, 0.0, out)


@st.composite
def tables_and_queries(draw):
    radial = draw(st.booleans())
    cells = draw(st.integers(8, 24))
    n_snaps = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if radial:
        grid = SpatialGrid(kind="radial", lo=0.0, hi=float(rng.uniform(0.5, 4.0)), cells=cells,
                           dim=int(rng.integers(2, 4)))
    else:
        lo = float(rng.uniform(-4.0, 0.0))
        grid = SpatialGrid(kind="cartesian", lo=lo, hi=lo + float(rng.uniform(0.5, 5.0)), cells=cells)
    t0 = float(rng.choice([0.0, rng.uniform(0.0, 2.0)]))
    times = t0 + np.concatenate(([0.0], np.cumsum(rng.uniform(1e-3, 1.0, n_snaps - 1))))
    states = tuple(
        FieldState(grid=grid, time=float(t), values=rng.uniform(0.0, 2.0, cells) * (rng.random(cells) < 0.8))
        for t in times
    )
    table = SnapshotTable(states=states, m=2.0, scheme=SchemeConfig())
    slack = 1e-9 * max(1.0, table.t_last)
    inside = rng.uniform(table.t_first, table.t_last, draw(st.integers(0, 6)))
    ts = np.concatenate((times, inside, [table.t_first - 0.5 * slack, table.t_last + 0.5 * slack]))
    rng.shuffle(ts)
    edges = [grid.lo, grid.hi, -grid.hi, grid.hi + 1.0, grid.lo - 1.0]
    spots = rng.uniform(min(grid.lo, -grid.hi) - 1.0, grid.hi + 1.0, draw(st.integers(0, 8)))
    positions = np.concatenate((grid.centers[:: max(1, cells // 5)], grid.faces[:3], edges, spots))
    return table, ts, positions


@settings(max_examples=60, deadline=None)
@given(tables_and_queries())
def test_array_reads_equal_stacked_scalar_reads_bitwise(case):
    table, ts, positions = case
    masses = interp_mass(table, ts)
    rows = dense_values(table, ts)
    points = eval_on_centers(table, ts, positions)
    assert rows.shape == (ts.size, table.grid.cells)
    assert points.shape == (ts.size, positions.size)
    assert np.array_equal(masses, np.array([interp_mass(table, float(t)) for t in ts]))
    assert np.array_equal(rows, np.stack([dense_values(table, float(t)) for t in ts]))
    assert np.array_equal(points, np.stack([eval_on_centers(table, float(t), positions) for t in ts]))
    grid_2d = ts.reshape(-1, 1)
    assert np.array_equal(eval_on_centers(table, grid_2d, positions[:3]), points[:, None, :3])
    for t in ts:
        dense, mass = _reference_dense(table, float(t))
        assert interp_mass(table, float(t)) == mass
        assert np.array_equal(dense_values(table, float(t)), dense)
        assert np.array_equal(eval_on_centers(table, float(t), positions), _reference_point(table, float(t), positions))
        for x in positions[:4]:
            assert np.array_equal(eval_on_centers(table, float(t), float(x)), _reference_point(table, float(t), float(x)))


@settings(max_examples=30, deadline=None)
@given(tables_and_queries(), st.booleans())
def test_one_out_of_range_time_fails_the_whole_array_read(case, late):
    table, ts, positions = case
    bad = table.t_last + 1e-6 * max(1.0, table.t_last) if late else table.t_first - 1e-3
    ts = np.insert(ts, ts.size // 2, bad)
    for read in (
        lambda: interp_mass(table, ts),
        lambda: dense_values(table, ts),
        lambda: eval_on_centers(table, ts, positions),
    ):
        with pytest.raises(OutOfRangeError):
            read()


# ---------------------------------------------------------------------------
# The array marching loop against the loop it replaced: one FieldState at a
# time through the public stable_dt and step.  Equal means equal bytes.
# ---------------------------------------------------------------------------


def _first_update(values, grid, m, dt):
    """The one-state update as first written: flux, divergence, update, clamp."""
    um = values**m
    flux = grid.face_areas[1:-1] * np.diff(um) / grid.dx
    divergence = np.zeros(grid.cells)
    divergence[:-1] += flux
    divergence[1:] -= flux
    new_values = values + dt * divergence / grid.volumes
    clamped = 0.0
    negative = new_values < 0.0
    if np.any(negative):
        clamped = float(-np.dot(new_values[negative], grid.volumes[negative]))
        new_values = np.where(negative, 0.0, new_values)
    return new_values, clamped


def _reference_march(initials, m, horizon, cfg):
    """The scalar marching loop, one state per ``step`` call; returns the tables and every dt."""
    t0 = initials[0].time
    targets = sorted({float(s) for s in cfg.snapshot_times} | {horizon})
    snaps = [[st] for st in initials]
    states = list(initials)
    clamped = [st.clamped_mass for st in initials]
    dts = []
    eps = 1e-12 * max(1.0, abs(horizon))
    for target in targets:
        if target <= t0 + eps:
            continue
        while states[0].time < target - eps:
            dt = target - states[0].time
            for st in states:
                dt = min(dt, stable_dt(st, m, cfg.cfl_safety))
            for i, st in enumerate(states):
                states[i] = step(st, m, dt, safety=cfg.cfl_safety)
                clamped[i] += states[i].clamped_mass
            dts.append(dt)
        for i, st in enumerate(states):
            snaps[i].append(st)
    tables = tuple(
        SnapshotTable(states=tuple(s), m=m, scheme=cfg, clamped_total=c) for s, c in zip(snaps, clamped)
    )
    return tables, dts


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


def assert_same_tables(got, want, dts):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.values.shape == w.values.shape
        assert _bits(g.times) == _bits(w.times)
        assert _bits(g.values) == _bits(w.values)
        assert _bits(g.masses) == _bits(w.masses)
        assert _bits(g.clamped_total) == _bits(w.clamped_total)
        assert _bits([s.clamped_mass for s in g.states]) == _bits([s.clamped_mass for s in w.states])
        assert (g.steps, g.dt_min, g.dt_max) == (len(dts), min(dts), max(dts))


def _initials(grid, m, n_states, t0):
    """Source-type or box data with n_states different peaks, at time t0."""
    if grid.kind == "radial":
        base = barenblatt_state(grid, BarenblattParams(m=m, d=grid.dim, b=1.0), 0.5).values
    else:
        base = box_state(grid, 1.0, 1.0).values
    return tuple(FieldState(grid=grid, time=t0, values=scale * base) for scale in (1.0, 0.6, 1.7)[:n_states])


@pytest.mark.parametrize(
    "kind,dim,m,n_states,t0",
    [
        ("cartesian", 1, 2.0, 1, 0.0),
        ("cartesian", 1, 3.0, 3, 0.25),
        ("cartesian", 1, 1.5, 2, 0.0),
        ("radial", 2, 1.5, 2, 0.5),
        ("radial", 2, 2.0, 1, 0.0),
        ("radial", 3, 3.0, 2, 1.0),
        ("radial", 3, 2.0, 3, 0.0),
    ],
)
def test_array_march_equals_the_scalar_loop_bitwise(kind, dim, m, n_states, t0):
    lo = -4.0 if kind == "cartesian" else 0.0
    grid = SpatialGrid(kind=kind, lo=lo, hi=4.0, cells=48 if kind == "cartesian" else 32, dim=dim)
    initials = _initials(grid, m, n_states, t0)
    horizon = t0 + 1.5
    schedule = tuple(t0 + np.geomspace(1e-4, 1.5, 160)) + (t0, horizon)
    cfg = SchemeConfig(cfl_safety=0.4, snapshot_times=schedule)
    want, dts = _reference_march(initials, m, horizon, cfg)
    got = evolve_together(initials, m, horizon, cfg)
    assert_same_tables(got, want, dts)
    assert len(got[0].times) == 161
    if n_states == 1:
        assert_same_tables((evolve(initials[0], m, horizon, cfg),), want, dts)
    assert len({(t.steps, t.dt_min, t.dt_max) for t in got}) == 1


@st.composite
def march_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = draw(st.integers(8, 24))
    if draw(st.booleans()):
        grid = SpatialGrid(kind="radial", lo=0.0, hi=float(rng.uniform(0.5, 4.0)), cells=cells,
                           dim=int(rng.integers(2, 4)))
    else:
        lo = float(rng.uniform(-4.0, 0.0))
        grid = SpatialGrid(kind="cartesian", lo=lo, hi=lo + float(rng.uniform(0.5, 5.0)), cells=cells)
    m = draw(st.sampled_from([1.5, 2.0, 2.5, 3.0, float(rng.uniform(1.1, 4.0))]))
    t0 = float(rng.choice([0.0, rng.uniform(0.0, 2.0)]))
    initials = tuple(
        FieldState(grid=grid, time=t0, values=rng.uniform(0.0, 3.0, cells) * (rng.random(cells) < 0.7))
        for _ in range(draw(st.integers(1, 3)))
    )
    cfg = SchemeConfig(cfl_safety=float(rng.uniform(0.05, 1.0)))
    horizon = t0 + draw(st.integers(1, 60)) * min(stable_dt(s, m, cfg.cfl_safety) for s in initials)
    snaps = t0 + (horizon - t0) * np.sort(rng.random(draw(st.integers(0, 5))))
    return initials, m, horizon, SchemeConfig(cfg.cfl_safety, tuple(snaps))


@settings(max_examples=60, deadline=None)
@given(march_cases())
def test_array_march_equals_the_scalar_loop_on_random_data(case):
    initials, m, horizon, cfg = case
    want, dts = _reference_march(initials, m, horizon, cfg)
    assert_same_tables(evolve_together(initials, m, horizon, cfg), want, dts)


@settings(max_examples=60, deadline=None)
@given(march_cases(), st.floats(0.01, 1.0))
def test_step_equals_the_first_written_update_bitwise(case, fraction):
    initials, m, _, cfg = case
    # Negative zeros next to positive ones: the first update turned them into 0.0.
    values = initials[0].values
    values = np.where(values == 0.0, np.where(np.arange(values.size) % 3 == 0, -0.0, 0.0), values)
    state = FieldState(grid=initials[0].grid, time=0.0, values=values)
    dt = fraction * stable_dt(state, m, cfg.cfl_safety)
    want, clamped = _first_update(state.values, state.grid, m, dt)
    got = step(state, m, dt, safety=cfg.cfl_safety)
    assert _bits(got.values) == _bits(want)
    assert got.clamped_mass == clamped == 0.0
    assert got.time == dt


@pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
def test_advance_clamps_rows_like_the_first_written_update(m):
    # An over-bound dt makes the update overshoot below zero, which no
    # bounded step does, so the clamp is reached through the private kernel.
    grid = SpatialGrid(kind="radial", lo=0.0, hi=3.0, cells=24, dim=3)
    rng = np.random.default_rng(5)
    ragged = rng.uniform(0.0, 2.0, grid.cells) * (rng.random(grid.cells) < 0.6)
    rows = np.stack([ragged, np.full(grid.cells, 0.5)])
    dt = 40.0 * min(stable_dt(FieldState(grid=grid, time=0.0, values=r), m) for r in rows)
    u = rows.copy()
    lost = solver._advance(u, m, dt, grid, solver._work(u))
    want = [_first_update(r, grid, m, dt) for r in rows]
    assert lost is not None and lost[0] > 0.0 and lost[1] == 0.0
    assert _bits(u) == _bits(np.stack([w[0] for w in want]))
    assert _bits(lost) == _bits([w[1] for w in want])


def test_march_errors_match_the_scalar_loop(monkeypatch):
    grid = line_grid(cells=32)
    box = box_state(grid, 1.0, 1.0)
    cfg = SchemeConfig(cfl_safety=0.4)

    def no_step(*args):
        raise AssertionError("stepped before the checks")

    with monkeypatch.context() as patch:
        patch.setattr(solver, "_advance", no_step)
        for call in (lambda: evolve(box, 1.0, 1.0, cfg), lambda: step(box, 1.0, 1e-3),
                     lambda: evolve_together((box, box), 0.5, 1.0, cfg)):
            with pytest.raises(InvalidInputError, match="the solver handles m > 1"):
                call()
        late = box_state(grid, 1.0, 1.0, time=0.5)
        with pytest.raises(InvalidInputError, match="common start time"):
            evolve_together((box, late), 2.0, 1.0, cfg)
        other = box_state(line_grid(lo=-5.0, cells=32), 1.0, 1.0)
        with pytest.raises(InvalidInputError, match="common grid"):
            evolve_together((box, other), 2.0, 1.0, cfg)

    tiny = box_state(SpatialGrid(kind="cartesian", lo=-1e-170, hi=1e-170, cells=8), 1.0, 1.0)
    for march in (evolve_together, _reference_march):
        with pytest.raises(InvalidInputError, match="dt must be positive"):
            march((tiny,), 2.0, 1.0, cfg)
    huge = FieldState(grid=grid, time=0.0, values=1e200 * box.values)
    with np.errstate(all="ignore"):
        for march in (evolve_together, _reference_march):
            with pytest.raises(InvalidInputError, match="finite and nonnegative"):
                march((huge,), 2.0, 1.0, cfg)
    monkeypatch.setattr(solver, "_MAX_STEPS", 5)
    with pytest.raises(StabilityError, match="step budget exhausted"):
        evolve(box, 2.0, 1.0, cfg)


def test_paired_states_keep_their_own_clocks():
    # Start times within the common-start tolerance stay apart, as each
    # state's own time did in the scalar loop.
    grid = line_grid(cells=24)
    initials = (box_state(grid, 1.0, 1.0, time=0.3), box_state(grid, 0.5, 1.0, time=0.3 + 2e-13))
    cfg = SchemeConfig(cfl_safety=0.4, snapshot_times=(0.5, 0.8))
    want, dts = _reference_march(initials, 2.0, 1.0, cfg)
    got = evolve_together(initials, 2.0, 1.0, cfg)
    assert_same_tables(got, want, dts)
    assert not np.array_equal(got[0].times, got[1].times)


def test_tables_built_without_marching_carry_no_step_statistics():
    table = SnapshotTable(states=(box_state(line_grid(cells=16), 1.0, 1.0),), m=2.0, scheme=SchemeConfig())
    assert table.steps == 0 and math.isnan(table.dt_min) and math.isnan(table.dt_max)
