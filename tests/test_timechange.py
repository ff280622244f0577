"""Tests for the change of variables between deterministic and noisy fields."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spmelab import (
    BarenblattParams,
    BlowUpError,
    CoefficientPair,
    DeterministicSolution,
    InvalidInputError,
    StochasticFieldSample,
    TimeGrid,
    SpatialGrid,
    TimeInterval,
    barenblatt,
    barenblatt_solution,
    box_state,
    check_homogeneity,
    evolve,
    forward_transform,
    interp_H,
    interp_h,
    inverse_clock,
    inverse_transform,
    linear_pressure_base,
    multiplier_path,
    quadratic_pressure_solution,
    QuadraticPressureParams,
    sample_brownian,
    still_path,
    table_solution,
)

MASTER = 20260815


def test_time_interval_endpoint_conventions():
    closed = TimeInterval(0.0, 1.0)
    assert closed.contains(0.0) and closed.contains(1.0)
    open_ = TimeInterval(0.0, 1.0, lo_open=True, hi_open=True)
    assert not open_.contains(0.0) and not open_.contains(1.0)
    assert open_.contains(0.5)


def test_identity_clock_reproduces_the_base_exactly():
    base = barenblatt_solution(BarenblattParams(m=2.0, d=1, b=1.0))
    grid = TimeGrid.uniform(1.0, 64)
    clock = multiplier_path(still_path(grid), CoefficientPair.constant(0.0, 0.0), gamma=2.0)
    for t in (0.25, 0.5, 1.0):
        for x in (-1.0, 0.0, 0.4):
            assert forward_transform(base, clock, t, x) == barenblatt(base_params(), t, x)


def base_params() -> BarenblattParams:
    return BarenblattParams(m=2.0, d=1, b=1.0)


def _table_base(grid: SpatialGrid):
    return table_solution(evolve(box_state(grid, 1.0, 1.0), 2.0, 1.0, 0.4, (0.25, 0.5)))


LINE = np.linspace(-2.5, 2.5, 9)
PLANE = np.array([[1.5, 2.0], [-0.5, 0.25], [0.0, 0.0], [2.0, -2.0], [4.5, 0.0], [0.3, -0.4]])


@pytest.mark.parametrize(
    "make_base, times, points",
    [
        (lambda: barenblatt_solution(base_params()), np.linspace(0.5, 2.0, 5), LINE),
        (
            lambda: quadratic_pressure_solution(QuadraticPressureParams(m=2.0, d=1, q=1.0)),
            np.linspace(0.0, 0.08, 5),
            LINE,
        ),
        (lambda: linear_pressure_base(2.0), np.linspace(0.0, 1.0, 5), LINE),
        (lambda: _table_base(SpatialGrid(kind="cartesian", lo=-2.0, hi=2.0, cells=32)), np.linspace(0.0, 1.0, 7), LINE),
        (
            lambda: _table_base(SpatialGrid(kind="radial", lo=0.0, hi=3.0, cells=24, dim=2)),
            np.linspace(0.0, 1.0, 7),
            PLANE,
        ),
    ],
    ids=["barenblatt", "quadratic_pressure", "linear_pressure", "table_cartesian", "table_radial_d2"],
)
def test_every_base_broadcasts_times_against_points(make_base, times, points):
    # A column of times against a row of points gives (times, points), with
    # the bits of one scalar call per entry.
    base = make_base()
    grid = base.evaluate(times[:, None], points[None, :])
    scalar = [[base.evaluate(float(s), x) for x in points] for s in times]
    assert all(type(v) is float for row in scalar for v in row)
    assert grid.shape == (times.size, len(points))
    assert np.array_equal(grid, np.array(scalar))


def test_momentum_base_with_unit_noise_matches_independent_formula():
    # Base v(s, x) = -x / (1 + s) rides a degree-2 clock; with unit noise the
    # composite field is -x * e^{w(t) - t/2} / (1 + sum of e^{w - s/2} left
    # increments), recomputed here directly from the raw path.
    base = DeterministicSolution(evaluate=lambda s, x: -np.asarray(x, dtype=float) / (1.0 + s))
    grid = TimeGrid.uniform(1.0, 256)
    coeffs = CoefficientPair.constant(1.0, 0.0)
    worst = 0.0
    for seed in range(20):
        path = sample_brownian(grid, mix(seed))
        clock = multiplier_path(path, coeffs, gamma=2.0)
        h_direct = np.exp(path.w - 0.5 * grid.nodes)
        dt = np.diff(grid.nodes)
        denom = 1.0 + np.concatenate(([0.0], np.cumsum(h_direct[:-1] * dt)))
        for k in (32, 128, 256):
            t = float(grid.nodes[k])
            for x in (-2.0, 0.5, 1.0):
                via_transform = forward_transform(base, clock, t, x)
                direct = -x * h_direct[k] / denom[k]
                scale = max(1.0, abs(direct))
                worst = max(worst, abs(via_transform - direct) / scale)
    assert worst <= 1e-10


def mix(i: int) -> int:
    return MASTER + 1000 * i


def test_round_trip_recovers_the_base_on_seeded_paths():
    params = base_params()
    base = barenblatt_solution(params)
    grid = TimeGrid.uniform(1.0, 256)
    coeffs = CoefficientPair.constant(1.0, 0.0)
    worst = 0.0
    for seed in range(5):
        clock = multiplier_path(sample_brownian(grid, mix(seed)), coeffs, gamma=2.0)
        sample = StochasticFieldSample(base=base, clock=clock)
        top = float(clock.H[-1])
        for s in np.linspace(0.05 * top, 0.95 * top, 20):
            for x in (0.0, 0.3, -0.8):
                recovered = inverse_transform(sample, float(s), x)
                truth = barenblatt(params, float(s), x)
                worst = max(worst, abs(recovered - truth) / max(1.0, abs(truth)))
    assert worst <= 1e-8


@st.composite
def coefficient_tables(draw):
    """A clock grid, 1-4 coefficient pieces breaking on its nodes, m and a seed."""
    grid = TimeGrid.uniform(1.0, 64)
    pieces = draw(st.integers(1, 4))
    inner = draw(st.lists(st.integers(1, grid.steps - 1), min_size=pieces - 1, max_size=pieces - 1, unique=True))
    breaks = grid.nodes[[0, *sorted(inner)]]
    f = draw(st.lists(st.floats(-1.5, 1.5), min_size=pieces, max_size=pieces))
    g = draw(st.lists(st.floats(-1.0, 1.0), min_size=pieces, max_size=pieces))
    m = draw(st.sampled_from([1.5, 2.0, 3.0]))
    return grid, CoefficientPair(breaks, f, g), m, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(coefficient_tables())
def test_round_trip_recovers_the_base_over_random_coefficient_tables(case):
    grid, coeffs, m, seed = case
    params = BarenblattParams(m=m, d=1, b=1.0)
    clock = multiplier_path(sample_brownian(grid, seed), coeffs, gamma=m)
    sample = StochasticFieldSample(base=barenblatt_solution(params), clock=clock)
    top = float(clock.H[-1])
    worst = 0.0
    for s in np.linspace(0.05 * top, 0.95 * top, 12):
        for x in (0.0, 0.3, -0.8):
            truth = barenblatt(params, float(s), x)
            worst = max(worst, abs(inverse_transform(sample, float(s), x) - truth) / max(1.0, abs(truth)))
    assert worst <= 1e-8


def test_round_trip_with_drift_only_clock_matches_closed_forms():
    g0, m = 0.5, 2.0
    params = base_params()
    base = barenblatt_solution(params)
    grid = TimeGrid.uniform(1.0, 2048)
    clock = multiplier_path(still_path(grid), CoefficientPair.constant(0.0, g0), gamma=m)
    sample = StochasticFieldSample(base=base, clock=clock)
    k = (m - 1.0) * g0
    for s in (0.2, 0.6, 1.0):
        assert inverse_transform(sample, s, 0.25) == pytest.approx(
            barenblatt(params, s, 0.25), abs=1e-12
        )
        assert inverse_clock(clock, s) == pytest.approx(math.log1p(k * s) / k, abs=1e-3)


def test_shared_clock_preserves_pointwise_order_exactly():
    low = barenblatt_solution(BarenblattParams(m=2.0, d=1, b=1.0))
    high = barenblatt_solution(BarenblattParams(m=2.0, d=1, b=2.0))
    grid = TimeGrid.uniform(1.0, 128)
    clock = multiplier_path(sample_brownian(grid, MASTER), CoefficientPair.constant(1.0, 0.0), gamma=2.0)
    for t in (0.25, 0.5, 1.0):
        for x in np.linspace(-3.0, 3.0, 41):
            assert forward_transform(low, clock, t, x) <= forward_transform(high, clock, t, x)


def test_blow_up_error_carries_the_hitting_time():
    params = QuadraticPressureParams(m=2.0, d=1, q=1.0)
    base = quadratic_pressure_solution(params)
    grid = TimeGrid.uniform(1.0, 1200)
    clock = multiplier_path(still_path(grid), CoefficientPair.constant(0.0, 0.0), gamma=2.0)
    assert forward_transform(base, clock, 0.05, 1.0) >= 0.0
    with pytest.raises(BlowUpError) as excinfo:
        forward_transform(base, clock, 0.1, 1.0)
    assert excinfo.value.base_time == pytest.approx(1.0 / 12.0, abs=1e-12)
    assert excinfo.value.hitting_time == pytest.approx(1.0 / 12.0, abs=1e-9)


def test_query_below_the_base_validity_window_is_rejected():
    base = barenblatt_solution(base_params())
    grid = TimeGrid.uniform(1.0, 32)
    clock = multiplier_path(still_path(grid), CoefficientPair.constant(0.0, 0.0), gamma=2.0)
    with pytest.raises(InvalidInputError):
        forward_transform(base, clock, 0.0, 0.0)


def test_nan_times_are_invalid_input_before_the_window_is_read():
    base = barenblatt_solution(BarenblattParams(m=2.0, d=1, b=1.0))
    clock = multiplier_path(sample_brownian(TimeGrid.uniform(1.0, 16), MASTER), CoefficientPair.constant(1.0, 0.0), 2.0)
    with pytest.raises(InvalidInputError, match="time nan is not a number"):
        forward_transform(base, clock, math.nan, 0.0)
    with pytest.raises(InvalidInputError, match="clock value nan is not a number"):
        inverse_transform(StochasticFieldSample(base=base, clock=clock), math.nan, 0.0)


def test_homogeneity_degree_matrix():
    assert check_homogeneity("heat", 1.0)
    assert check_homogeneity("pme", 3.0, m=3.0)
    assert not check_homogeneity("pme", 2.0, m=3.0)
    assert check_homogeneity("burgers", 2.0)
    assert check_homogeneity("pressure", 2.0, m=2.0)
    assert check_homogeneity("pressure", 2.0, m=3.0)
    assert not check_homogeneity("heat", 2.0)


def test_homogeneity_input_validation():
    with pytest.raises(InvalidInputError):
        check_homogeneity("transport", 1.0)
    with pytest.raises(InvalidInputError):
        check_homogeneity("pme", 2.0)
