"""Tests for the conservative finite-volume scheme and its snapshot tables."""
from __future__ import annotations

import math
import re
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spmelab import (
    BarenblattParams,
    Bump,
    FieldState,
    InvalidInputError,
    OutOfRangeError,
    SnapshotTable,
    SpatialGrid,
    StabilityError,
    barenblatt,
    barenblatt_mass,
    barenblatt_state,
    box_state,
    dense_values,
    eval_on_centers,
    evolve,
    evolve_together,
    interp_mass,
    lp_power_sum,
    support_radius,
    table_solution,
)
from spmelab import solver

from conftest import rkl2_march


def line_grid(lo=-6.0, hi=6.0, cells=200) -> SpatialGrid:
    return SpatialGrid(kind="cartesian", lo=lo, hi=hi, cells=cells)


def _advance_box(u, m, dt, grid):
    """One step of the marching kernel on the whole box, in place, with the
    face areas the loop passes: none on a cartesian grid, the inner faces on
    a radial one.  Checks that the peak it returns has the bits of the
    stepped field's largest value; returns the kernel's clamp record."""
    areas = None if grid.kind == "cartesian" else grid.face_areas[1:-1]
    peak, lost = solver._advance(u, dt, areas, grid.volumes, solver._work(u, grid.dx, m))
    assert _bits(peak) == _bits(float(np.max(u)))
    return lost


def _kernel_step(state, m, safety=0.4):
    """One step of the marching kernel from ``state`` at its own bound.

    Returns the new state and the kernel's clamp record (None when no value
    went negative).
    """
    grid = state.grid
    u = state.values[None, :].copy()
    dt = solver._bound(float(np.max(u)), m, safety * grid.dx**2, 2.0 * grid.dim * m)
    assert dt == _first_bound(state.values, grid, m, safety)
    lost = _advance_box(u, m, dt, grid)
    return FieldState(grid=grid, time=state.time + dt, values=u[0]), lost


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
    state = FieldState(grid=grid, time=0.0, values=np.full_like(grid.centers, 0.7))
    after, lost = _kernel_step(state, 2.0)
    assert np.array_equal(after.values, state.values)
    assert lost is None


def test_step_conserves_mass_and_never_clamps():
    grid = line_grid()
    state = box_state(grid, 1.0, 1.0)
    for _ in range(200):
        new, lost = _kernel_step(state, 2.0)
        assert abs(new.mass - state.mass) <= 1e-13 * max(1.0, state.mass)
        assert lost is None
        state = new


def test_step_rejects_oversized_dt():
    # The loop crops a step that would pass the bound: one and a half bounds
    # take two steps, the first exactly the bound (a box keeps its peak).
    grid = line_grid()
    state = box_state(grid, 1.0, 1.0)
    bound = 0.4 * grid.dx**2 / (2.0 * 1 * 2.0 * 1.0)
    table = evolve(state, 2.0, 1.5 * bound, 0.4, ())
    assert (table.steps, table.dt_max) == (2, bound)
    assert table.dt_min == pytest.approx(0.5 * bound, rel=1e-12)


def test_stable_dt_formula_and_zero_state_guard():
    grid = line_grid(cells=100)
    state = box_state(grid, 2.0, 1.0)
    expected = 0.4 * grid.dx**2 / (2.0 * 1 * 3.0 * 2.0**2)
    table = evolve(state, 3.0, expected, 0.4, ())
    assert (table.steps, table.dt_max) == (1, expected)
    zero = FieldState(grid=grid, time=0.0, values=np.zeros_like(grid.centers))
    table = evolve(zero, 2.0, 1.0, 0.4, ())
    assert (table.steps, table.dt_max) == (1, 1.0)


def test_zero_initial_data_stays_zero():
    grid = line_grid(cells=64)
    zero = FieldState(grid=grid, time=0.0, values=np.zeros_like(grid.centers))
    table = evolve(zero, 2.0, 1.0, 0.4, ())
    assert all(np.all(st.values == 0.0) for st in table.states)
    assert support_radius(table.states[-1]) == 0.0


def test_evolve_validation_and_mass_drift():
    grid = line_grid()
    box = box_state(grid, 1.0, 1.0)
    with pytest.raises(InvalidInputError):
        evolve(box, 2.0, 0.0, 0.4, ())
    with pytest.raises(InvalidInputError):
        evolve(box, 2.0, 1.0, 0.4, (2.0,))
    table = evolve(box, 2.0, 1.0, 0.4, (0.25, 0.5))
    assert [round(t, 12) for t in table.times] == [0.0, 0.25, 0.5, 1.0]
    drift = float(np.max(np.abs(table.masses - table.masses[0])))
    assert drift <= 1e-10 * table.masses[0]
    assert table.clamped_total == 0.0


def test_snapshot_table_requires_increasing_times():
    grid = line_grid(cells=16)
    for times in ([0.5, 0.25], [0.5, 0.5], [[0.0, 0.5]], []):
        with pytest.raises(InvalidInputError, match="snapshots must be stored at increasing times"):
            SnapshotTable(grid, times, np.ones((np.size(times), 16)))


def test_snapshot_table_rejects_negative_times():
    with pytest.raises(InvalidInputError, match="field time must be nonnegative"):
        SnapshotTable(line_grid(cells=8), [-1.0, 0.0], np.ones((2, 8)))


def test_snapshot_table_checks_its_values_and_keeps_its_own_copy():
    grid = line_grid(cells=16)
    for shape in ((2, 15), (3, 16), (32,)):
        with pytest.raises(InvalidInputError, match="field values must match the grid cells"):
            SnapshotTable(grid, [0.0, 0.5], np.ones(shape))
    for bad in (-0.1, -np.inf, np.inf, np.nan):
        values = np.ones((2, 16))
        values[1, 3] = bad
        with pytest.raises(InvalidInputError, match="field values must be finite and nonnegative"):
            SnapshotTable(grid, [0.0, 0.5], values)
    values = np.random.default_rng(3).uniform(0.0, 2.0, (2, 16))
    table = SnapshotTable(grid, [0.0, 0.5], values)
    values[0, 0] = 7.0
    assert table.values[0, 0] != 7.0
    assert not any(a.flags.writeable for a in (table.times, table.values, table.masses))
    states = table.states
    assert [st.time for st in states] == [0.0, 0.5]
    assert _bits([st.values for st in states]) == _bits(table.values)
    assert _bits([st.mass for st in states]) == _bits(table.masses)


def test_lp_power_sums_are_non_increasing():
    grid = line_grid()
    table = evolve(
        box_state(grid, 1.0, 1.0), 2.0, 2.0,
        0.4, tuple(np.linspace(0.2, 1.8, 9)),
    )
    for p in (2.0, 3.0):
        sums = [lp_power_sum(st.values, grid, p) for st in table.states]
        assert all(a >= b - 1e-12 for a, b in zip(sums, sums[1:]))


def test_box_support_grows_monotonically_with_cube_root_slope():
    grid = SpatialGrid(kind="cartesian", lo=-12.0, hi=12.0, cells=480)
    snap_times = (2.5, 5.0, 10.0, 20.0, 40.0)
    table = evolve(box_state(grid, 1.0, 1.0), 2.0, 40.0, 0.4, snap_times)
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
        state, _ = _kernel_step(state, 2.0)
        after = support_radius(state)
        assert after <= before + grid.dx * (1.0 + 1e-9)


def test_self_similar_profile_convergence_on_a_wide_box():
    p = BarenblattParams(m=2.0, d=1, b=1.0)
    errors = {}
    for cells in (100, 200):
        grid = SpatialGrid(kind="cartesian", lo=-9.0, hi=9.0, cells=cells)
        table = evolve(barenblatt_state(grid, p, 1.0), 2.0, 2.0, 0.4, ())
        final = table.states[-1]
        exact = barenblatt(p, 2.0, grid.centers)
        errors[cells] = float(np.sum(np.abs(final.values - exact)) * grid.dx)
        drift = float(np.max(np.abs(table.masses - table.masses[0])))
        assert drift <= 1e-10 * table.masses[0]
    assert errors[100] <= 5e-3
    assert errors[200] <= 3e-3
    order = math.log2(errors[100] / errors[200])
    assert order >= 0.8


def test_table_reads_match_snapshots_and_interpolate():
    p = BarenblattParams(m=2.0, d=1, b=1.0)
    grid = SpatialGrid(kind="cartesian", lo=-9.0, hi=9.0, cells=200)
    snaps = tuple(np.linspace(1.05, 2.0, 20))
    table = evolve(barenblatt_state(grid, p, 1.0), 2.0, 2.0, 0.4, snaps)
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
        probe = eval_on_centers(table, tm, grid.centers[::10])
        mid_err = max(mid_err, float(np.max(np.abs(probe - exact))))
    assert mid_err <= 2.0 * snap_err
    with pytest.raises(OutOfRangeError):
        dense_values(table, 2.5)
    with pytest.raises(OutOfRangeError):
        dense_values(table, 0.5)


def test_eval_on_centers_edge_conventions():
    grid = line_grid(lo=-2.0, hi=2.0, cells=16)
    table = SnapshotTable(grid, [0.0], np.ones((1, grid.cells)))
    vals = eval_on_centers(table, 0.0, np.array([-3.0, -1.99, 0.0, 1.99, 3.0]))
    assert vals[0] == 0.0 and vals[-1] == 0.0
    assert np.all(vals[1:4] == 1.0)


def test_table_solution_wraps_the_table():
    grid = line_grid(cells=64)
    table = evolve(box_state(grid, 1.0, 1.0), 2.0, 1.0, 0.4, (0.5,))
    base = table_solution(table)
    assert base.interval.contains(0.5)
    assert not base.interval.contains(1.5)
    value = base.evaluate(0.5, 0.0)
    assert type(value) is float and value == float(eval_on_centers(table, 0.5, 0.0))
    out = base.evaluate(0.5, np.array([-0.5, 0.5]))
    assert out.shape == (2,)


def test_table_solution_reads_every_point_shape():
    line = evolve(box_state(line_grid(cells=64), 1.0, 1.0), 2.0, 1.0, 0.4, (0.5,))
    base = table_solution(line)
    for x in (-1.25, [-1.0, 0.0, 1.0], [[-1.0, 0.0, 1.0]], [[-2.0], [0.5]]):
        got = base.evaluate(0.5, x)
        want = eval_on_centers(line, 0.5, np.asarray(x, dtype=float))
        assert np.shape(got) == np.shape(x)
        assert np.array_equal(got, want)
    assert type(base.evaluate(0.5, -1.25)) is float
    # Points whose radius is exact in floating point: (1.5, 2) and (1, 2, 2) and their halves.
    for d, point, radius in ((2, [1.5, 2.0], 2.5), (3, [1.0, 2.0, 2.0], 3.0)):
        grid = SpatialGrid(kind="radial", lo=0.0, hi=4.0, cells=48, dim=d)
        table = evolve(box_state(grid, 1.0, 2.0), 2.0, 0.5, 0.4, (0.25,))
        base = table_solution(table)
        value = base.evaluate(0.25, -radius)
        assert type(value) is float and value == float(eval_on_centers(table, 0.25, radius))
        value = base.evaluate(0.25, point)
        assert type(value) is float and value == float(eval_on_centers(table, 0.25, radius))
        points = np.array([point, np.multiply(point, -0.5), np.zeros(d)])
        got = base.evaluate(0.25, points)
        assert got.shape == (3,)
        assert np.array_equal(got, eval_on_centers(table, 0.25, [radius, 0.5 * radius, 0.0]))
        assert np.array_equal(base.evaluate(0.25, points[None]), got[None])
        with pytest.raises(InvalidInputError):
            base.evaluate(0.25, np.zeros((3, d + 1)))


def test_radial_solver_tracks_the_closed_form():
    for d, tol in ((2, 2e-3), (3, 2e-2)):
        p = BarenblattParams(m=2.0, d=d, b=1.0)
        grid = SpatialGrid(kind="radial", lo=0.0, hi=6.0, cells=240, dim=d)
        initial = barenblatt_state(grid, p, 1.0)
        assert initial.mass == pytest.approx(barenblatt_mass(p), rel=1e-4)
        table = evolve(initial, 2.0, 2.0, 0.4, ())
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
    snaps = tuple(np.linspace(0.1, 0.9, 9))
    table_low, table_high = evolve_together((low, high), 2.0, 1.0, 0.4, snaps)
    assert np.array_equal(table_low.times, table_high.times)
    for a, b in zip(table_low.states, table_high.states):
        assert np.all(a.values <= b.values + 1e-12)
    solo = evolve(high, 2.0, 1.0, 0.4, snaps)
    (paired,) = evolve_together((high,), 2.0, 1.0, 0.4, snaps)
    assert np.array_equal(solo.times, paired.times)
    for a, b in zip(solo.states, paired.states):
        assert np.array_equal(a.values, b.values)


def test_evolve_together_validation():
    grid = line_grid(cells=16)
    with pytest.raises(InvalidInputError):
        evolve_together((), 2.0, 1.0, 0.4, ())
    a = box_state(grid, 1.0, 1.0)
    b = FieldState(grid, 0.5, a.values)
    with pytest.raises(InvalidInputError):
        evolve_together((a, b), 2.0, 1.0, 0.4, ())


def test_support_radius_threshold_monotone():
    # Hats of narrowing width: the radius is the largest |center| inside each.
    grid = line_grid(cells=64)
    widths = (1.0, 0.75, 0.5, 0.1)
    hats = [np.maximum(w - np.abs(grid.centers), 0.0) for w in widths]
    radii = [support_radius(FieldState(grid=grid, time=0.0, values=hat)) for hat in hats]
    assert radii == [float(np.max(np.abs(grid.centers[np.abs(grid.centers) < w]))) for w in widths]
    assert all(a >= b for a, b in zip(radii, radii[1:]))
    assert support_radius(FieldState(grid=grid, time=0.0, values=np.zeros_like(grid.centers))) == 0.0


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
    values = [rng.uniform(0.0, 2.0, cells) * (rng.random(cells) < 0.8) for _ in times]
    table = SnapshotTable(grid, times, values)
    slack = 1e-9 * max(1.0, table.t_last)
    inside = rng.uniform(table.t_first, table.t_last, draw(st.integers(0, 6)))
    ts = np.concatenate((times, inside, [table.t_first - 0.5 * slack, table.t_last + 0.5 * slack]))
    rng.shuffle(ts)
    edges = [grid.lo, grid.hi, -grid.hi, grid.hi + 1.0, grid.lo - 1.0, np.nan, np.inf, -np.inf]
    spots = rng.uniform(min(grid.lo, -grid.hi) - 1.0, grid.hi + 1.0, draw(st.integers(0, 8)))
    positions = np.concatenate((grid.centers[:: max(1, cells // 5)], grid.faces[:3], edges, spots))
    return table, ts, positions


@settings(max_examples=60, deadline=None)
@given(tables_and_queries())
def test_array_reads_equal_stacked_scalar_reads_bitwise(case):
    table, ts, positions = case
    masses = interp_mass(table, ts)
    rows = dense_values(table, ts)
    points = eval_on_centers(table, ts[:, None], positions)
    assert rows.shape == (ts.size, table.grid.cells)
    assert points.shape == (ts.size, positions.size)
    assert np.array_equal(masses, np.array([interp_mass(table, float(t)) for t in ts]))
    assert np.array_equal(rows, np.stack([dense_values(table, float(t)) for t in ts]))
    assert np.array_equal(points, np.stack([eval_on_centers(table, float(t), positions) for t in ts]), equal_nan=True)
    grid_2d = ts.reshape(-1, 1, 1)
    assert np.array_equal(eval_on_centers(table, grid_2d, positions[:3]), points[:, None, :3])
    for t in ts:
        dense, mass = _reference_dense(table, float(t))
        assert interp_mass(table, float(t)) == mass
        assert np.array_equal(dense_values(table, float(t)), dense)
        assert np.array_equal(
            eval_on_centers(table, float(t), positions), _reference_point(table, float(t), positions), equal_nan=True
        )
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


@pytest.mark.parametrize(
    "read",
    [
        lambda table: interp_mass(table, math.nan),
        lambda table: interp_mass(table, np.array([0.5, math.nan])),
        lambda table: eval_on_centers(table, math.nan, 0.0),
        lambda table: dense_values(table, math.nan),
        lambda table: table_solution(table).evaluate(math.nan, 0.0),
    ],
    ids=["interp_mass", "interp_mass_array", "eval_on_centers", "dense_values", "table_solution"],
)
def test_nan_table_times_are_invalid_input(read):
    table = evolve(box_state(line_grid(cells=32), 1.0, 1.0), 2.0, 1.0, 0.4, (0.5,))
    with pytest.raises(InvalidInputError, match=r"time (nan|\[0\.5 nan\]) is not a number"):
        read(table)


# ---------------------------------------------------------------------------
# The array marching loop against the loop it replaced: one FieldState at a
# time through the update and the bound as first written.  Equal means equal
# bytes.
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


def _first_bound(values, grid, m, safety):
    """The monotonicity bound on dt as first written, floored for a zero field."""
    peak = float(np.max(values))
    denom = 2.0 * grid.dim * m * peak ** (m - 1.0) if peak > 0.0 else 0.0
    return safety * grid.dx**2 / max(denom, 1e-12)


def _reference_march(initials, m, horizon, cfl_safety, snapshot_times):
    """The scalar marching loop, one state per update; returns the tables and every dt."""
    t0 = initials[0].time
    targets = sorted({float(s) for s in snapshot_times} | {horizon})
    snaps = [[st] for st in initials]
    states = list(initials)
    clamped = [0.0] * len(initials)
    dts = []
    eps = 1e-12 * max(1.0, abs(horizon))
    for target in targets:
        if target <= t0 + eps:
            continue
        while states[0].time < target - eps:
            dt = target - states[0].time
            for st in states:
                dt = min(dt, _first_bound(st.values, st.grid, m, cfl_safety))
            if not dt > 0.0:
                raise InvalidInputError("dt must be positive")
            for i, st in enumerate(states):
                values, lost = _first_update(st.values, st.grid, m, dt)
                states[i] = FieldState(grid=st.grid, time=st.time + dt, values=values)
                clamped[i] += lost
            dts.append(dt)
        for i, st in enumerate(states):
            snaps[i].append(st)
    tables = tuple(
        SnapshotTable(s[0].grid, [st.time for st in s], [st.values for st in s], clamped_total=c)
        for s, c in zip(snaps, clamped)
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
        assert (g.steps, g.dt_min, g.dt_max) == (len(dts), min(dts), max(dts))
        assert g.stages == g.steps
        assert 0 < g.cell_steps <= g.grid.cells * g.steps


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
    want, dts = _reference_march(initials, m, horizon, 0.4, schedule)
    got = evolve_together(initials, m, horizon, 0.4, schedule)
    assert_same_tables(got, want, dts)
    assert len(got[0].times) == 161
    if n_states == 1:
        assert_same_tables((evolve(initials[0], m, horizon, 0.4, schedule),), want, dts)
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
    safety = float(rng.uniform(0.05, 1.0))
    horizon = t0 + draw(st.integers(1, 60)) * min(_first_bound(s.values, grid, m, safety) for s in initials)
    snaps = t0 + (horizon - t0) * np.sort(rng.random(draw(st.integers(0, 5))))
    return initials, m, horizon, safety, tuple(snaps)


@settings(max_examples=60, deadline=None)
@given(march_cases())
def test_array_march_equals_the_scalar_loop_on_random_data(case):
    want, dts = _reference_march(*case)
    assert_same_tables(evolve_together(*case), want, dts)


@settings(max_examples=60, deadline=None)
@given(march_cases(), st.floats(0.01, 1.0))
def test_step_equals_the_first_written_update_bitwise(case, fraction):
    initials, m, _, safety, _ = case
    # Negative zeros next to positive ones: the first update turned them into 0.0.
    values = initials[0].values
    values = np.where(values == 0.0, np.where(np.arange(values.size) % 3 == 0, -0.0, 0.0), values)
    grid = initials[0].grid
    dt = fraction * _first_bound(values, grid, m, safety)
    want, clamped = _first_update(values, grid, m, dt)
    u = values[None, :].copy()
    lost = _advance_box(u, m, dt, grid)
    assert _bits(u) == _bits(want)
    assert lost is None and clamped == 0.0


@pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
def test_advance_clamps_rows_like_the_first_written_update(m):
    # An over-bound dt makes the update overshoot below zero, which no
    # bounded step does, so the clamp is reached through the private kernel.
    grid = SpatialGrid(kind="radial", lo=0.0, hi=3.0, cells=24, dim=3)
    rng = np.random.default_rng(5)
    ragged = rng.uniform(0.0, 2.0, grid.cells) * (rng.random(grid.cells) < 0.6)
    rows = np.stack([ragged, np.full(grid.cells, 0.5)])
    dt = 40.0 * min(_first_bound(r, grid, m, 1.0) for r in rows)
    u = rows.copy()
    lost = _advance_box(u, m, dt, grid)
    want = [_first_update(r, grid, m, dt) for r in rows]
    assert lost is not None and lost[0] > 0.0 and lost[1] == 0.0
    assert _bits(u) == _bits(np.stack([w[0] for w in want]))
    assert _bits(lost) == _bits([w[1] for w in want])
    one = rows[:1].copy()
    assert _bits(_advance_box(one, m, dt, grid)) == _bits(lost[:1])
    assert _bits(one) == _bits(u[:1])


def test_march_errors_match_the_scalar_loop(monkeypatch):
    grid = line_grid(cells=32)
    box = box_state(grid, 1.0, 1.0)

    def no_step(*args):
        raise AssertionError("stepped before the checks")

    with monkeypatch.context() as patch:
        patch.setattr(solver, "_advance", no_step)
        for call in (lambda: evolve(box, 1.0, 1.0, 0.4, ()), lambda: evolve_together((box, box), 0.5, 1.0, 0.4, ())):
            with pytest.raises(InvalidInputError, match="the solver handles m > 1"):
                call()
        for safety in (0.0, -0.4, 1.5, math.nan):
            for call in (
                lambda: evolve(box, 2.0, 1.0, safety, ()),
                lambda: evolve_together((box, box), 2.0, 1.0, safety, ()),
            ):
                with pytest.raises(InvalidInputError, match=r"cfl_safety must lie in \(0, 1\]"):
                    call()
        late = FieldState(grid, 0.5, box.values)
        with pytest.raises(InvalidInputError, match="common start time"):
            evolve_together((box, late), 2.0, 1.0, 0.4, ())
        other = box_state(line_grid(lo=-5.0, cells=32), 1.0, 1.0)
        with pytest.raises(InvalidInputError, match="common grid"):
            evolve_together((box, other), 2.0, 1.0, 0.4, ())

    tiny = box_state(SpatialGrid(kind="cartesian", lo=-1e-170, hi=1e-170, cells=8), 1.0, 1.0)
    for march in (evolve_together, _reference_march):
        with pytest.raises(InvalidInputError, match="dt must be positive"):
            march((tiny,), 2.0, 1.0, 0.4, ())
    huge = FieldState(grid=grid, time=0.0, values=1e200 * box.values)
    with np.errstate(all="ignore"):
        for march in (evolve_together, _reference_march):
            with pytest.raises(InvalidInputError, match="finite and nonnegative"):
                march((huge,), 2.0, 1.0, 0.4, ())
    monkeypatch.setattr(solver, "_MAX_STEPS", 5)
    with pytest.raises(StabilityError, match="step budget exhausted"):
        evolve(box, 2.0, 1.0, 0.4, ())


def test_paired_states_need_one_start_time(monkeypatch):
    # One clock per march: start times 2e-13 apart are two clocks, rejected
    # before any step; equal ones give every table the same times.
    grid = line_grid(cells=24)
    high, low = box_state(grid, 1.0, 1.0).values, box_state(grid, 0.5, 1.0).values
    initials = (FieldState(grid, 0.3, high), FieldState(grid, 0.3 + 2e-13, low))
    with monkeypatch.context() as patch:
        patch.setattr(solver, "_advance", lambda *args: pytest.fail("stepped before the start-time check"))
        with pytest.raises(InvalidInputError, match="paired evolution needs a common start time"):
            evolve_together(initials, 2.0, 1.0, 0.4, (0.5, 0.8))
    same = (initials[0], FieldState(grid, 0.3, low))
    want, dts = _reference_march(same, 2.0, 1.0, 0.4, (0.5, 0.8))
    got = evolve_together(same, 2.0, 1.0, 0.4, (0.5, 0.8))
    assert_same_tables(got, want, dts)
    assert _bits(got[0].times) == _bits(got[1].times)


def test_equal_grid_settings_give_equal_grids_that_march_together():
    a, b = line_grid(cells=24), line_grid(cells=24)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != line_grid(cells=32) and a != line_grid(lo=-5.0, cells=24)
    initials = (box_state(a, 1.0, 1.0), box_state(b, 0.5, 1.0))
    want, dts = _reference_march(initials, 2.0, 1.0, 0.4, (0.5,))
    got = evolve_together(initials, 2.0, 1.0, 0.4, (0.5,))
    assert_same_tables(got, want, dts)


def test_snapshot_times_the_march_cannot_tell_apart_fail_before_any_step(monkeypatch):
    # Both would be stored at one step's time, which the table rejects only
    # after the whole march.
    box = box_state(line_grid(cells=24), 1.0, 1.0)
    monkeypatch.setattr(solver, "_advance", lambda *args: pytest.fail("stepped before the snapshot-time check"))
    for times, pair in (
        ((0.25, 0.2500000000000001), "0.25 and 0.2500000000000001"),
        ((1.0 - 1e-13,), "0.9999999999999 and 1.0"),
    ):
        with pytest.raises(InvalidInputError, match=re.escape(f"snapshot times {pair} are too close")):
            evolve_together((box,), 2.0, 1.0, 0.4, times)


def test_tables_built_without_marching_carry_no_step_statistics():
    grid = line_grid(cells=16)
    table = SnapshotTable(grid, [0.0], box_state(grid, 1.0, 1.0).values[None])
    assert table.steps == 0 and math.isnan(table.dt_min) and math.isnan(table.dt_max)
    assert table.cell_steps == 0


def test_step_budget_fails_fast():
    # About 2e10 steps would be needed; the budget error comes after the first.
    grid = SpatialGrid(kind="cartesian", lo=-10.0, hi=10.0, cells=4096)
    started = time.perf_counter()
    with pytest.raises(StabilityError, match="step budget exhausted"):
        evolve(box_state(grid, 1.0, 1.0), 2.0, 1e6, 0.9, ())
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize(
    "kind,dim,m,n_states",
    [("flat", 1, 2.0, 1), ("cartesian", 1, 2.0, 1), ("cartesian", 1, 3.0, 3), ("radial", 3, 1.5, 2)],
)
def test_step_budget_fires_only_where_the_loop_would_exhaust_it(monkeypatch, kind, dim, m, n_states):
    # A flat field keeps its peak at its mean, where the up-front estimate is tightest.
    lo = 0.0 if kind == "radial" else -4.0
    grid = SpatialGrid(kind="radial" if kind == "radial" else "cartesian", lo=lo, hi=4.0, cells=32, dim=dim)
    if kind == "flat":
        initials = (FieldState(grid=grid, time=0.0, values=np.full(grid.cells, 0.5)),)
    else:
        initials = _initials(grid, m, n_states, 0.0)
    want = evolve_together(initials, m, 1.0, 0.4, (0.25, 0.5))
    monkeypatch.setattr(solver, "_MAX_STEPS", want[0].steps)
    got = evolve_together(initials, m, 1.0, 0.4, (0.25, 0.5))
    for g, w in zip(got, want):
        assert _bits(g.values) == _bits(w.values) and g.steps == w.steps
    monkeypatch.setattr(solver, "_MAX_STEPS", want[0].steps - 1)
    with pytest.raises(StabilityError, match="step budget exhausted"):
        evolve_together(initials, m, 1.0, 0.4, (0.25, 0.5))


# ---------------------------------------------------------------------------
# Windowed marching: each step advances only the live columns and a margin of
# solver._WINDOW_PAD cells, recomputed every _WINDOW_PAD steps.  The field
# outside stays exactly +0.0, so every table keeps the bits of the whole-box
# march that the scalar reference loop spells out.
# ---------------------------------------------------------------------------


def _bump(grid, center, half_width, height=1.0):
    return np.where(np.abs(grid.centers - center) <= half_width, height, 0.0)


def _window_case(case):
    """Initial states, m and horizon of one windowed-march case, and whether
    the live columns stay clear of both walls (so the window stays narrow)."""
    if case == "narrow":
        # Just above m = 1 the scheme is nearly the heat equation: the live set
        # spreads one cell per step with values far above underflow, so a
        # margin one cell short of the recompute interval changes bits.  (At
        # m = 1.1 the outermost u**m already underflows and hides it.)
        grid = SpatialGrid(kind="cartesian", lo=-12.0, hi=12.0, cells=480)
        values = _bump(grid, 0.5, 0.3)
        # Negative zeros away from the support take the whole-box update's sign.
        values[::7] = np.where(values[::7] == 0.0, -0.0, values[::7])
        return (FieldState(grid=grid, time=0.0, values=values),), 1.01, 0.07, True
    if case == "far_apart":
        grid = SpatialGrid(kind="cartesian", lo=-12.0, hi=12.0, cells=480)
        rows = (_bump(grid, -8.0, 0.4), _bump(grid, 7.0, 0.25, 2.0))
        return tuple(FieldState(grid=grid, time=0.5, values=v) for v in rows), 2.0, 0.6, True
    if case == "annulus":
        grid = SpatialGrid(kind="radial", lo=0.0, hi=8.0, cells=320, dim=3)
        values = np.where((grid.centers > 4.0) & (grid.centers < 4.5), 1.5, 0.0)
        return (FieldState(grid=grid, time=0.0, values=values),), 1.5, 0.02, True
    grid = SpatialGrid(kind="cartesian", lo=-6.0, hi=6.0, cells=160)
    return (FieldState(grid=grid, time=0.0, values=_bump(grid, 5.2, 0.6)),), 2.0, 2.0, False


@pytest.mark.parametrize("case", ["narrow", "far_apart", "annulus", "wall"])
def test_windowed_march_equals_the_scalar_loop_bitwise(case):
    initials, m, horizon, clear = _window_case(case)
    grid = initials[0].grid
    t0 = initials[0].time
    snaps = tuple(t0 + np.linspace(0.1, 0.9, 5) * (horizon - t0))
    want, dts = _reference_march(initials, m, horizon, 0.4, snaps)
    got = evolve_together(initials, m, horizon, 0.4, snaps)
    assert_same_tables(got, want, dts)
    assert len(dts) > 4 * solver._WINDOW_PAD
    final = np.stack([t.values[-1] for t in got])
    live = np.flatnonzero(np.max(final, axis=0) > 0.0)
    assert (live[0] > 0 and live[-1] < grid.cells - 1) == clear
    if clear:
        assert got[0].cell_steps < grid.cells * got[0].steps
    else:
        assert final[0, -1] > 0.0
    if case == "annulus":
        assert np.all(final[0, : live[0]] == 0.0) and live[0] > solver._WINDOW_PAD
    if case == "narrow":
        assert np.signbit(initials[0].values).any() and not np.signbit(final).any()


def test_cell_steps_count_the_window_and_fill_a_full_box():
    grid = line_grid(cells=400)
    narrow = evolve(box_state(grid, 1.0, 0.2), 2.0, 0.05, 0.4, ())
    full = evolve(FieldState(grid=grid, time=0.0, values=np.full(grid.cells, 0.5)), 2.0, 0.05, 0.4, ())
    assert narrow.steps > 2 * solver._WINDOW_PAD
    assert 0 < narrow.cell_steps < grid.cells * narrow.steps // 2
    assert full.cell_steps == grid.cells * full.steps


@pytest.mark.parametrize("kind", ["cartesian", "radial"])
def test_cell_steps_sum_each_window_times_its_steps(monkeypatch, kind):
    # Step counts that are not a multiple of _WINDOW_PAD leave the last window short.
    if kind == "cartesian":
        grid = line_grid(cells=400)
        initial, m, horizon = box_state(grid, 1.0, 0.2), 2.0, 0.06
    else:
        grid = SpatialGrid(kind="radial", lo=0.0, hi=8.0, cells=320, dim=3)
        initial, m, horizon = FieldState(grid, 0.0, np.where(grid.centers < 0.5, 1.5, 0.0)), 1.5, 0.05
    widths = []
    window = solver._window

    def recorded(u):
        lo, hi = window(u)
        widths.append(hi - lo)
        return lo, hi

    monkeypatch.setattr(solver, "_window", recorded)
    table = evolve(initial, m, horizon, 0.4, (0.5 * horizon,))
    pad = solver._WINDOW_PAD
    assert table.steps % pad != 0 and len(widths) == -(-table.steps // pad)
    assert len(set(widths)) > 1 and max(widths) < grid.cells
    taken = [min(pad, table.steps - pad * k) for k in range(len(widths))]
    assert table.cell_steps == sum(w * n for w, n in zip(widths, taken))


@pytest.mark.parametrize("kind", ["cartesian", "radial"])
def test_advance_on_a_window_equals_the_whole_box_bitwise(kind):
    # An over-bound dt clamps, so the window's lost mass is checked too.
    grid = SpatialGrid(kind=kind, lo=0.0 if kind == "radial" else -3.0, hi=3.0, cells=40, dim=1 + (kind == "radial"))
    rng = np.random.default_rng(11)
    rows = np.zeros((2, grid.cells))
    rows[:, 12:25] = rng.uniform(0.0, 2.0, (2, 13)) * (rng.random((2, 13)) < 0.7)
    dt = 40.0 * min(_first_bound(r, grid, 2.0, 1.0) for r in rows)
    whole = rows.copy()
    lost_whole = _advance_box(whole, 2.0, dt, grid)
    u = rows.copy()
    window = u[:, 10:27]
    areas = None if kind == "cartesian" else grid.face_areas[11:27]
    peak, lost = solver._advance(window, dt, areas, grid.volumes[10:27], solver._work(window, grid.dx, 2.0))
    assert _bits(peak) == _bits(float(np.max(window)))
    assert lost_whole is not None and max(lost_whole) > 0.0
    assert _bits(u) == _bits(whole)
    assert _bits(lost) == _bits(lost_whole)


# ---------------------------------------------------------------------------
# One peak read per step: the step takes the value at argmax of the stepped
# window's uint64 bits, and only a set sign bit on that value (a negative
# value, -0.0 or a negative NaN) takes the min, clamp and max path.
# ---------------------------------------------------------------------------


def _special_rows(case):
    """Grid, m, rows and dt of one step whose input or result holds a special value."""
    if case == "negative_zero":
        grid = line_grid(lo=-4.0, hi=4.0, cells=16)
        rows = np.zeros((2, grid.cells))
        rows[:, 6:10] = [[1.0, 2.0, 0.5, 1.0], [0.2, 0.0, 0.3, 0.1]]
        rows[:, ::3] = np.where(rows[:, ::3] == 0.0, -0.0, rows[:, ::3])
        return grid, 3.0, rows, 0.5 * min(_first_bound(r, grid, 3.0, 1.0) for r in rows)
    # A coarse mesh keeps the fluxes finite until u**m overflows.
    grid = line_grid(lo=-100.0, hi=100.0, cells=8)
    rows = np.zeros((1, grid.cells))
    # One huge cell sends +inf to its neighbours and -inf (clamped) to
    # itself; two make inf - inf, a NaN with the sign bit set.
    rows[0, 3 : 4 + (case == "nan")] = 1e200
    return grid, 2.0, rows, _first_bound(rows[0], grid, 2.0, 0.4)


@pytest.mark.parametrize("case", ["negative_zero", "inf", "nan"])
def test_step_peak_and_clamp_hold_on_special_values(case):
    grid, m, rows, dt = _special_rows(case)
    with np.errstate(all="ignore"):
        want = [_first_update(r, grid, m, dt) for r in rows]
        u = rows.copy()
        lost = _advance_box(u, m, dt, grid)
        one = rows[:1].copy()
        lost_one = _advance_box(one, m, dt, grid)
    np.testing.assert_array_equal(u, np.stack([w[0] for w in want]))
    assert _bits(one) == _bits(u[:1])
    if case == "negative_zero":
        assert np.signbit(rows).any() and not np.signbit(u).any()
        assert lost is None and lost_one is None
    elif case == "inf":
        assert np.isposinf(u).any() and not np.isnan(u).any()
        assert lost == lost_one == [math.inf]
    else:
        # A NaN makes the minimum NaN, so nothing is clamped.
        assert np.isnan(u).any() and np.signbit(u).any()
        assert lost is None and lost_one is None


@pytest.mark.parametrize("n_states", [1, 2])
def test_march_on_negative_zeros_equals_the_scalar_loop(n_states):
    grid, m, rows, _ = _special_rows("negative_zero")
    initials = tuple(FieldState(grid=grid, time=0.0, values=r) for r in rows[:n_states])
    want, dts = _reference_march(initials, m, 0.05, 0.4, (0.01, 0.02))
    assert_same_tables(evolve_together(initials, m, 0.05, 0.4, (0.01, 0.02)), want, dts)


@pytest.mark.parametrize("n_states", [1, 2])
def test_march_over_the_bound_clamps_like_the_scalar_loop(monkeypatch, n_states):
    # Eight times the bound drives values negative; both loops take the same steps.
    bound, first_bound = solver._bound, _first_bound
    monkeypatch.setattr(solver, "_bound", lambda *args: 8.0 * bound(*args))
    monkeypatch.setattr(sys.modules[__name__], "_first_bound", lambda *args: 8.0 * first_bound(*args))
    grid = SpatialGrid(kind="radial", lo=0.0, hi=3.0, cells=24, dim=3)
    rng = np.random.default_rng(5)
    initials = tuple(
        FieldState(grid=grid, time=0.0, values=rng.uniform(0.0, 2.0, grid.cells) * (rng.random(grid.cells) < 0.6))
        for _ in range(n_states)
    )
    horizon = 2.5 * min(_first_bound(st.values, grid, 2.0, 1.0) for st in initials)
    want, dts = _reference_march(initials, 2.0, horizon, 1.0, ())
    got = evolve_together(initials, 2.0, horizon, 1.0, ())
    assert_same_tables(got, want, dts)
    assert got[0].clamped_total > 0.0


@pytest.mark.parametrize("case", ["inf", "nan"])
def test_march_that_overflows_to_inf_or_nan_fails_in_one_error(case):
    # The first step overflows; the second finds a peak that is not finite.
    grid, m, rows, _ = _special_rows(case)
    initial = FieldState(grid=grid, time=0.0, values=rows[0])
    with pytest.raises(InvalidInputError, match="field values must be finite and nonnegative"):
        evolve(initial, m, 1.0, 0.4, ())


# ---------------------------------------------------------------------------
# Properties of the march on box data: the step takes one peak over every row.
# ---------------------------------------------------------------------------


@st.composite
def box_marches(draw):
    """Box data on a cartesian or radial grid, marched for up to 80 steps."""
    cells = draw(st.integers(8, 64))
    if draw(st.booleans()):
        grid = SpatialGrid(kind="radial", lo=0.0, hi=4.0, cells=cells, dim=draw(st.integers(2, 3)))
    else:
        grid = SpatialGrid(kind="cartesian", lo=-4.0, hi=4.0, cells=cells)
    box = box_state(grid, draw(st.floats(0.1, 10.0)), draw(st.floats(0.5, 3.0)))
    m = draw(st.floats(1.1, 4.0))
    horizon = draw(st.integers(1, 80)) * _first_bound(2.0 * box.values, grid, m, 0.4)
    snaps = tuple(horizon * np.array(draw(st.lists(st.sampled_from([0.1, 0.25, 0.5, 0.9]), max_size=3))))
    return box, m, horizon, snaps


@settings(max_examples=30, deadline=None)
@given(box_marches())
def test_march_conserves_box_mass_to_rounding(case):
    box, m, horizon, snaps = case
    table = evolve(box, m, horizon, 0.4, snaps)
    assert table.clamped_total == 0.0
    drift = float(np.max(np.abs(table.masses - table.masses[0])))
    assert drift <= box.grid.cells * table.steps * np.finfo(float).eps * table.masses[0]


@settings(max_examples=30, deadline=None)
@given(box_marches())
def test_paired_march_keeps_the_larger_state_bitwise(case):
    # 2a has the larger peak, so its bound sets every shared step.
    box, m, horizon, snaps = case
    double = FieldState(grid=box.grid, time=box.time, values=2.0 * box.values)
    _, paired = evolve_together((box, double), m, horizon, 0.4, snaps)
    alone = evolve(double, m, horizon, 0.4, snaps)
    assert _bits(paired.times) == _bits(alone.times)
    assert _bits(paired.values) == _bits(alone.values)
    assert (paired.steps, paired.dt_min, paired.dt_max) == (alone.steps, alone.dt_min, alone.dt_max)


@st.composite
def ordered_marches(draw):
    """Data low <= high pointwise, equal on part of the grid, on a cartesian or
    radial grid, marched together for up to 40 steps."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = draw(st.integers(8, 32))
    if draw(st.booleans()):
        grid = SpatialGrid(kind="radial", lo=0.0, hi=4.0, cells=cells, dim=draw(st.integers(2, 3)))
    else:
        grid = SpatialGrid(kind="cartesian", lo=-4.0, hi=4.0, cells=cells)
    low = rng.uniform(0.0, 2.0, cells) * (rng.random(cells) < 0.6)
    high = low + rng.uniform(0.0, 1.0, cells) * (rng.random(cells) < 0.5)
    m = draw(st.floats(1.1, 4.0))
    horizon = draw(st.integers(1, 40)) * _first_bound(high, grid, m, 0.4)
    snaps = tuple(horizon * np.array(draw(st.lists(st.sampled_from([0.1, 0.25, 0.5, 0.9]), max_size=3))))
    return tuple(FieldState(grid=grid, time=0.0, values=v) for v in (low, high)), m, horizon, snaps


@settings(max_examples=20, deadline=None)
@given(ordered_marches())
def test_paired_march_keeps_ordered_data_ordered_at_every_snapshot(case):
    initials, m, horizon, snaps = case
    low, high = evolve_together(initials, m, horizon, 0.4, snaps)
    assert low.steps > 0
    assert np.all(low.values <= high.values)


# ---------------------------------------------------------------------------
# RKL2 super-steps, the private path of one-state reference solves: the
# coefficients' stability polynomial, the windowed march against the
# whole-box oracle in conftest, and the accuracy rule against forward Euler.
# ---------------------------------------------------------------------------


def _super_march(initials, m, horizon, cfl_safety, snapshot_times):
    with solver._super_steps():
        return evolve_together(initials, m, horizon, cfl_safety, snapshot_times)


def _amplification(s, z):
    """R_s(z): one s-stage RKL2 step of u' = z u from u = 1, with the solver's coefficients."""
    mu1, stages = solver._rkl2(s)
    y0 = np.ones_like(z)
    before, y = y0, 1.0 + mu1 * z
    for mu, nu, rest, mu_tilde, gamma_tilde in stages:
        before, y = y, mu * y + nu * before + rest * y0 + mu_tilde * z * y + gamma_tilde * z * y0
    return y


@pytest.mark.parametrize("s", range(2, solver._MAX_STAGES + 1))
def test_rkl2_step_is_stable_on_its_whole_interval(s):
    capacity = (s * s + s - 2) / 4.0
    assert solver._CAPACITY[s - 2] == capacity
    z = np.linspace(-2.0 * capacity, 0.0, 4001)
    assert np.max(np.abs(_amplification(s, z))) <= 1.0 + 1e-12


@pytest.mark.parametrize("s", range(2, solver._MAX_STAGES + 1))
def test_rkl2_step_is_second_order(s):
    # A first-order step leaves a z**2 term, which grows like 1/z below.
    z = np.array([-1e-1, -1e-2, -1e-3])
    third = (_amplification(s, z) - 1.0 - z - z * z / 2.0) / z**3
    assert np.all(np.abs(third) <= 1.0)


def _super_case(case):
    """One state, m and horizon for a super-stepped march, and whether its support stays off both ends."""
    if case == "cartesian":
        grid = SpatialGrid(kind="cartesian", lo=-12.0, hi=12.0, cells=240)
        values = box_state(grid, 1.0, 1.0).values.copy()
        # Negative zeros away from the support take the whole-box update's sign.
        values[::7] = np.where(values[::7] == 0.0, -0.0, values[::7])
        return FieldState(grid, 0.0, values), 2.0, 6.0, True
    if case == "radial":
        # An annulus that fills its hole: the window's inner edge moves in to r = 0.
        grid = SpatialGrid(kind="radial", lo=0.0, hi=8.0, cells=200, dim=2)
        values = np.where((grid.centers > 2.0) & (grid.centers < 2.5), 1.5, 0.0)
        return FieldState(grid, 0.25, values), 2.0, 1.25, False
    grid = SpatialGrid(kind="cartesian", lo=-3.0, hi=3.0, cells=96)
    return FieldState(grid, 0.0, _bump(grid, 2.0, 0.8)), 3.0, 4.0, False


@pytest.mark.parametrize("elapsed", [None, 1.0])
@pytest.mark.parametrize("case", ["cartesian", "radial", "wall"])
def test_super_stepped_window_equals_the_whole_box_oracle_bitwise(monkeypatch, case, elapsed):
    # A looser elapsed-time cap lets the super-steps reach the stage cap.
    if elapsed is None:
        elapsed = solver._ELAPSED
    else:
        monkeypatch.setattr(solver, "_ELAPSED", elapsed)
    initial, m, horizon, clear = _super_case(case)
    grid, t0 = initial.grid, initial.time
    snaps = tuple(t0 + np.geomspace(1e-3, 1.0, 12) * (horizon - t0))
    want, taus, counts = rkl2_march(initial, m, horizon, 0.4, snaps, elapsed=elapsed)
    (got,) = _super_march((initial,), m, horizon, 0.4, snaps)
    assert _bits(got.times) == _bits(want.times)
    assert _bits(got.values) == _bits(want.values)
    assert _bits(got.clamped_total) == _bits(want.clamped_total)
    assert (got.steps, got.stages, got.dt_min, got.dt_max) == (len(taus), sum(counts), min(taus), max(taus))
    assert len(set(counts)) > 4 and max(counts) >= 8
    if elapsed == 1.0:
        assert max(counts) == solver._MAX_STAGES
    live = np.flatnonzero(got.values[-1] > 0.0)
    assert (live[0] > 0 and live[-1] < grid.cells - 1) == clear
    assert 0 < got.cell_steps < grid.cells * got.stages
    if case == "cartesian":
        assert np.signbit(initial.values).any() and not np.signbit(got.values[-1]).any()


@settings(max_examples=40, deadline=None)
@given(march_cases(), st.integers(1, 400))
def test_super_stepped_march_equals_the_oracle_on_random_data(case, bounds):
    initials, m, _, safety, _ = case
    initial = initials[0]
    horizon = initial.time + bounds * _first_bound(initial.values, initial.grid, m, safety)
    snaps = initial.time + (horizon - initial.time) * np.array([0.01, 0.3, 0.5])
    want, taus, counts = rkl2_march(initial, m, horizon, safety, snaps)
    (got,) = _super_march((initial,), m, horizon, safety, snaps)
    assert _bits(got.values) == _bits(want.values)
    assert _bits(got.clamped_total) == _bits(want.clamped_total)
    assert (got.steps, got.stages) == (len(taus), sum(counts))


def test_super_stepping_marches_one_state():
    box = box_state(line_grid(cells=32), 1.0, 1.0)
    with pytest.raises(InvalidInputError, match="super-stepping marches one state"):
        _super_march((box, box), 2.0, 1.0, 0.4, ())


def test_super_steps_last_for_their_block_only():
    box = box_state(line_grid(cells=32), 1.0, 1.0)
    with solver._super_steps():
        inside = evolve(box, 2.0, 1.0, 0.4, ())
        with pytest.raises(RuntimeError), solver._super_steps():
            raise RuntimeError
        assert evolve(box, 2.0, 1.0, 0.4, ()).steps == inside.steps
    (together,) = evolve_together((box, box), 2.0, 1.0, 0.4, ())[:1]
    after = evolve(box, 2.0, 1.0, 0.4, ())
    assert inside.stages > inside.steps and after.stages == after.steps
    assert _bits(after.values) == _bits(together.values)


def _relative_l1(table, reference):
    volumes = table.grid.volumes
    return np.abs(table.values - reference.values) @ volumes / (np.abs(reference.values) @ volumes)


@pytest.mark.parametrize("data", ["box", "radial box", "bump"])
def test_super_steps_are_as_accurate_as_forward_euler(data):
    # The support portrait's problem at a short horizon: box data of height 1
    # and half-width 1, m = 2, a box 1.15 times the envelope's reach at dx
    # about 0.1, and 160 geometric snapshots; then the same box in d = 2 on a
    # radial grid, and a smooth bump in its place.  Against forward Euler at
    # CFL 0.05, super-steps must be no farther than forward Euler at CFL 0.4,
    # at every snapshot at worst and at the last one.
    horizon = 8.0
    beta = 1.0 / 3.0
    half = math.sqrt(4.0 * (1.0 + beta / 4.0) / beta) * (1.0 + horizon) ** beta * 1.15
    cells = int(math.ceil(2.0 * half / 0.1 / 8.0)) * 8
    if data == "radial box":
        grid = SpatialGrid(kind="radial", lo=0.0, hi=half, cells=cells // 2, dim=2)
    else:
        grid = line_grid(-half, half, cells)
    initial = FieldState(grid, 0.0, Bump(0.0, 1.0)(grid.centers)) if data == "bump" else box_state(grid, 1.0, 1.0)
    snaps = np.geomspace(1e-4 * horizon, horizon, 160)
    reference = evolve(initial, 2.0, horizon, 0.05, snaps)
    euler = _relative_l1(evolve(initial, 2.0, horizon, 0.4, snaps), reference)
    (table,) = _super_march((initial,), 2.0, horizon, 0.4, snaps)
    rkl2 = _relative_l1(table, reference)
    assert np.max(rkl2) <= np.max(euler)
    assert rkl2[-1] <= euler[-1]
    assert abs(table.masses[-1] - table.masses[0]) <= 1e-12 * table.masses[0]
    assert table.stages < table.steps * solver._MAX_STAGES and table.clamped_total == 0.0


@pytest.mark.parametrize("kind", ["cartesian", "radial"])
def test_super_step_on_a_window_clamps_like_the_oracle(kind):
    # One two-stage step 40 bounds long overshoots below zero, which no
    # bounded super-step did in any march tried, so the clamp is reached
    # through the private kernel, on a window three cells wider than the data.
    grid = SpatialGrid(kind=kind, lo=0.0 if kind == "radial" else -3.0, hi=3.0, cells=40, dim=1 + (kind == "radial"))
    rng = np.random.default_rng(11)
    values = np.zeros(grid.cells)
    values[12:25] = rng.uniform(0.0, 2.0, 13) * (rng.random(13) < 0.7)
    tau = _first_bound(values, grid, 2.0, 16.0)
    want, taus, counts = rkl2_march(FieldState(grid, 0.0, values), 2.0, tau, 16.0, ())
    assert (taus, counts) == ([tau], [2]) and want.clamped_total > 0.0
    u = values[None, :].copy()
    window = u[:, 9:28]
    areas = None if kind == "cartesian" else grid.face_areas[10:28]
    peak, lost = solver._super_step(window, tau, 2, areas, grid.volumes[9:28], solver._work(window, grid.dx, 2.0))
    assert _bits(u[0]) == _bits(want.values[-1])
    assert _bits(lost) == _bits([want.clamped_total])
    assert _bits(peak) == _bits(float(np.max(u)))


def test_super_step_budget_counts_super_steps(monkeypatch):
    # Far fewer super-steps than forward-Euler bounds fit the span, so the
    # early check must allow for the longest super-step.
    initial = box_state(line_grid(cells=64), 1.0, 1.0)
    (want,) = _super_march((initial,), 2.0, 200.0, 0.4, (50.0,))
    assert want.stages > 4 * want.steps
    monkeypatch.setattr(solver, "_MAX_STEPS", want.steps)
    (got,) = _super_march((initial,), 2.0, 200.0, 0.4, (50.0,))
    assert _bits(got.values) == _bits(want.values) and got.steps == want.steps
    monkeypatch.setattr(solver, "_MAX_STEPS", want.steps - 1)
    with pytest.raises(StabilityError, match="step budget exhausted"):
        _super_march((initial,), 2.0, 200.0, 0.4, (50.0,))


def test_super_step_budget_fails_fast():
    # Even at 263.5 bounds a super-step, about 1,400 times the budget is needed.
    grid = SpatialGrid(kind="cartesian", lo=-10.0, hi=10.0, cells=4096)
    started = time.perf_counter()
    with pytest.raises(StabilityError, match="step budget exhausted"):
        _super_march((box_state(grid, 1.0, 1.0),), 2.0, 1e9, 0.9, ())
    assert time.perf_counter() - started < 1.0
