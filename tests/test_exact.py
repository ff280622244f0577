"""Tests for the closed-form solution catalogue."""
from __future__ import annotations

import math

import numpy as np
import pytest

from spmelab import (
    BarenblattParams,
    BlowUpError,
    CoefficientPair,
    InvalidInputError,
    OutOfRangeError,
    QuadraticPressureParams,
    TimeGrid,
    barenblatt,
    barenblatt_mass,
    barenblatt_solution,
    forward_transform,
    inverse_clock,
    inverse_pressure,
    interp_h,
    linear_pressure_base,
    mass_to_b,
    multiplier_path,
    pressure,
    pressure_commutation_check,
    quadratic_pressure,
    sample_brownian,
    self_similar,
    sphere_area,
    still_path,
)

from conftest import adaptive_midpoint, barenblatt_mass_quadrature, linear_pressure, stochastic_barenblatt

MASTER = 20260815


def residual(evaluator, m: float, t: float, x, dt: float, dx: float) -> float:
    """Central-difference defect u_t - lap(u^m) of a pointwise evaluator.

    ``x`` may be a scalar (one dimension) or a length-d vector; the Laplacian
    stencil steps along every coordinate axis.  Evaluator domain errors
    surface as invalid input.
    """
    if dt <= 0.0 or dx <= 0.0:
        raise InvalidInputError("stencil widths must be positive")
    point = np.atleast_1d(np.asarray(x, dtype=float))

    def ev(tt, pp):
        try:
            return float(evaluator(tt, pp if pp.size > 1 else float(pp[0])))
        except OutOfRangeError as exc:
            raise InvalidInputError(f"stencil left the evaluator domain: {exc}") from exc

    ut = (ev(t + dt, point) - ev(t - dt, point)) / (2.0 * dt)
    lap = 0.0
    center = ev(t, point) ** m
    for axis in range(point.size):
        shift = np.zeros_like(point)
        shift[axis] = dx
        lap += (ev(t, point + shift) ** m - 2.0 * center + ev(t, point - shift) ** m) / dx**2
    return ut - lap


def identity_clock(horizon: float = 1.0, steps: int = 64):
    grid = TimeGrid.uniform(horizon, steps)
    return multiplier_path(still_path(grid), CoefficientPair.constant(0.0, 0.0), gamma=2.0)


def test_barenblatt_center_value_and_compact_support():
    p = BarenblattParams(m=2.0, d=1, b=1.0)
    assert barenblatt(p, 1.0, 0.0) == pytest.approx(1.0, rel=1e-15)
    r1 = p.support_radius(1.0)
    assert r1 == pytest.approx(math.sqrt(12.0), rel=1e-15)
    xs = np.linspace(0.0, 2.0 * r1, 201)
    vals = barenblatt(p, 1.0, xs)
    # Skip the one grid point within a rounding ulp of the interface itself.
    inside = xs <= r1 * (1.0 - 1e-12)
    outside = xs >= r1 * (1.0 + 1e-12)
    assert np.all(vals[inside] > 0.0)
    assert np.all(vals[outside] == 0.0)


def test_barenblatt_exponents_and_validation():
    p = BarenblattParams(m=3.0, d=2, b=0.5)
    assert p.beta == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert p.alpha == pytest.approx(1.0 / 3.0, rel=1e-15)
    for bad in (
        dict(m=1.0, d=1, b=1.0),
        dict(m=2.0, d=0, b=1.0),
        dict(m=2.0, d=1, b=0.0),
    ):
        with pytest.raises(InvalidInputError):
            BarenblattParams(**bad)
    with pytest.raises(InvalidInputError):
        p.support_radius(0.0)
    with pytest.raises(InvalidInputError):
        barenblatt(p, 0.0, 0.0)
    with pytest.raises(InvalidInputError):
        barenblatt(p, np.array([1.0, -1.0]), 0.0)


def test_barenblatt_broadcasts_over_time_arrays():
    p = BarenblattParams(m=2.0, d=1, b=1.0)
    ts = np.array([1.0, 2.0, 5.0])
    vals = barenblatt(p, ts, 0.3)
    assert vals.shape == ts.shape
    for t, v in zip(ts, vals):
        assert v == pytest.approx(barenblatt(p, float(t), 0.3), rel=1e-15)


def test_sphere_area_small_dimensions():
    assert sphere_area(1) == pytest.approx(2.0, rel=1e-15)
    assert sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-15)


def test_mass_closed_form_matches_quadrature_and_is_time_free():
    p = BarenblattParams(m=2.0, d=1, b=1.0)
    closed = barenblatt_mass(p)
    for t in (1.0, 2.0, 5.0):
        quad = barenblatt_mass_quadrature(p, t=t)
        assert abs(quad - closed) <= 1e-6 * closed
    masses = [barenblatt_mass(BarenblattParams(m=2.0, d=1, b=b)) for b in (0.5, 1.0, 4.0)]
    assert masses[0] < masses[1] < masses[2]


def test_mass_quadrature_across_dimensions():
    for m, d in ((2.0, 1), (3.0, 1), (2.0, 2), (2.0, 3)):
        p = BarenblattParams(m=m, d=d, b=1.0)
        closed = barenblatt_mass(p)
        quad = barenblatt_mass_quadrature(p)
        assert abs(quad - closed) <= 1e-6 * closed


@pytest.mark.parametrize("m,d,b,t", [(2.0, 1, 1.0, 1.0), (3.0, 1, 0.5, 2.0), (2.0, 2, 4.0, 5), (2.5, 3, 1.0, 0.3)])
def test_mass_quadrature_integrates_the_profile_bitwise(m, d, b, t):
    # The scalar integrand keeps barenblatt's operation order, so the
    # quadrature equals the one that calls the profile point by point.
    p = BarenblattParams(m=m, d=d, b=b)
    r_max = p.support_radius(t)

    def integrand(r):
        return sphere_area(d) * r ** (d - 1) * barenblatt(p, t, r)

    coarse = sum(integrand(r) for r in np.linspace(r_max / 128.0, r_max * (1 - 1.0 / 128.0), 64)) * (r_max / 64.0)
    want = adaptive_midpoint(integrand, 0.0, r_max, 1e-6 * max(abs(coarse), 1e-300))
    assert barenblatt_mass_quadrature(p, t=t, rel_tol=1e-6).hex() == want.hex()


def test_mass_to_b_round_trip_and_power_law():
    for m, d in ((2.0, 1), (3.0, 2)):
        for b in (0.5, 1.0, 4.0):
            p = BarenblattParams(m=m, d=d, b=b)
            assert mass_to_b(m, d, barenblatt_mass(p)) == pytest.approx(b, rel=1e-12)
    beta = 1.0 / ((2.0 - 1.0) * 1 + 2.0)
    b1 = mass_to_b(2.0, 1, 1.0)
    b2 = mass_to_b(2.0, 1, 2.0)
    assert b2 / b1 == pytest.approx(2.0 ** (2.0 * beta * 1.0), rel=1e-12)
    with pytest.raises(InvalidInputError):
        mass_to_b(2.0, 1, 0.0)


def test_mass_to_b_agrees_with_bisection():
    target = 1.0
    lo, hi = 1e-6, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if barenblatt_mass(BarenblattParams(m=2.0, d=1, b=mid)) < target:
            lo = mid
        else:
            hi = mid
    assert mass_to_b(2.0, 1, target) == pytest.approx(0.5 * (lo + hi), rel=1e-9)


def test_quadratic_pressure_blow_up_instant_and_values():
    p = QuadraticPressureParams(m=2.0, d=1, q=1.0)
    assert p.t_blowup == pytest.approx(1.0 / 12.0, rel=1e-15)
    assert QuadraticPressureParams(m=2.0, d=1, q=2.0).t_blowup == pytest.approx(1.0 / 24.0, rel=1e-15)
    for t in (0.0, 0.04, 0.08):
        assert quadratic_pressure(p, t, 0.0) == 0.0
        assert quadratic_pressure(p, t, 1.0) > 0.0
    with pytest.raises(BlowUpError) as excinfo:
        quadratic_pressure(p, 1.0 / 12.0, 1.0)
    assert excinfo.value.base_time == pytest.approx(1.0 / 12.0, rel=1e-15)
    with pytest.raises(InvalidInputError):
        quadratic_pressure(p, -0.01, 1.0)


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


def test_quadratic_pressure_residual_decays_at_second_order():
    p = QuadraticPressureParams(m=2.0, d=1, q=1.0)
    t, x = p.t_blowup / 2.0, 1.0

    def evaluator(tt, xx):
        return quadratic_pressure(p, tt, xx)

    res = [abs(residual(evaluator, 2.0, t, x, dt=1e-3 / 2**k, dx=1e-2 / 2**k)) for k in range(4)]
    for coarse, fine in zip(res, res[1:]):
        assert 3.0 <= coarse / fine <= 5.0
    assert res[-1] <= 1e-3


def test_linear_pressure_clamp_and_half_height():
    clock = identity_clock()
    assert linear_pressure(2.0, clock, 0.5, -0.75) == 0.0
    assert linear_pressure(2.0, clock, 1.0, 0.0) == pytest.approx(0.5, rel=1e-15)
    drift_clock = multiplier_path(
        still_path(TimeGrid.uniform(4.0, 4096)), CoefficientPair.constant(0.0, 0.3), gamma=2.0
    )
    t_star = inverse_clock(drift_clock, 1.0)
    expected = interp_h(drift_clock, t_star) / 2.0
    assert linear_pressure(2.0, drift_clock, t_star, 0.0) == pytest.approx(expected, rel=1e-12)
    base = linear_pressure_base(2.0)
    assert base.evaluate(0.5, -0.75) == 0.0
    assert base.evaluate(1.0, 1.0) == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(InvalidInputError, match="needs m > 1"):
        linear_pressure(1.0, clock, 0.5, 0.0)
    with pytest.raises(InvalidInputError, match="needs m > 1"):
        linear_pressure_base(1.0)


def test_pressure_round_trips_and_m2_doubling():
    for m in (1.5, 2.0, 3.0):
        for u in (0.1, 1.0, 7.0):
            v = pressure(u, m)
            assert inverse_pressure(v, m) == pytest.approx(u, rel=1e-12)
    assert pressure(0.0, 3.0) == 0.0
    assert pressure(1.7, 2.0) == pytest.approx(3.4, rel=1e-15)
    with pytest.raises(InvalidInputError):
        pressure(-0.1, 2.0)
    with pytest.raises(InvalidInputError):
        inverse_pressure(-0.1, 2.0)


def test_self_similar_identity_and_domination():
    p = BarenblattParams(m=2.0, d=1, b=1.0)
    for t, x in ((1.0, 0.2), (2.0, -1.0)):
        assert self_similar(p, 1.0, 1.0, 0.0, 0.0, t, x) == pytest.approx(
            barenblatt(p, t, x), rel=1e-15
        )
    dominating = BarenblattParams(m=2.0, d=1, b=2.0)
    xs = np.linspace(-1.0, 1.0, 101)
    box = np.ones_like(xs)
    envelope = self_similar(dominating, 1.0, 1.0, 1.0, 0.0, 0.0, xs)
    assert np.all(envelope >= box)
    with pytest.raises(InvalidInputError):
        self_similar(p, 1.0, 1.0, 0.0, 0.0, -2.0, 0.0)
    with pytest.raises(InvalidInputError):
        self_similar(p, -1.0, 1.0, 0.0, 0.0, 1.0, 0.0)


def test_self_similar_residual_is_small_at_interior_points():
    p = BarenblattParams(m=2.0, d=1, b=1.0)

    def evaluator(tt, xx):
        return self_similar(p, 2.0, 0.5, 1.0, 0.3, tt, xx)

    res = [abs(residual(evaluator, 2.0, 1.0, 0.2, dt=1e-3 / 2**k, dx=1e-2 / 2**k)) for k in range(3)]
    assert res[2] < res[0]
    assert res[2] <= 1e-5


def test_stochastic_profile_agrees_with_the_generic_transform():
    p = BarenblattParams(m=2.0, d=1, b=1.0)
    base = barenblatt_solution(p)
    grid = TimeGrid.uniform(1.0, 256)
    clock = multiplier_path(sample_brownian(grid, MASTER), CoefficientPair.constant(1.0, 0.0), gamma=2.0)
    worst = 0.0
    for t in (0.25, 0.5, 1.0):
        for x in (0.0, 0.4, -1.1):
            direct = stochastic_barenblatt(p, clock, t, x)
            composed = forward_transform(base, clock, t, x)
            worst = max(worst, abs(direct - composed) / max(1.0, abs(composed)))
    assert worst <= 1e-12
    ident = identity_clock()
    assert stochastic_barenblatt(p, ident, 0.5, 0.3) == pytest.approx(
        barenblatt(p, 0.5, 0.3), rel=1e-15
    )
    with pytest.raises(InvalidInputError):
        stochastic_barenblatt(p, ident, 0.0, 0.3)


def test_pressure_commutation_for_trivial_coefficients_is_exact():
    base = barenblatt_solution(BarenblattParams(m=2.0, d=1, b=1.0))
    grid = TimeGrid.uniform(1.0, 64)
    clock = multiplier_path(still_path(grid), CoefficientPair.constant(0.0, 0.0), gamma=2.0)
    probes = [(float(grid.nodes[k]), x) for k in (16, 32, 64) for x in (0.0, 0.5)]
    value_gap, clock_gap = pressure_commutation_check(base, clock, 2.0, probes)
    assert value_gap == 0.0
    assert clock_gap == 0.0


def test_pressure_commutation_m2_pathwise_and_m3_with_noise():
    grid = TimeGrid.uniform(1.0, 256)
    path = sample_brownian(grid, MASTER)
    base2 = barenblatt_solution(BarenblattParams(m=2.0, d=1, b=1.0))
    clock2 = multiplier_path(path, CoefficientPair.constant(1.0, 0.0), gamma=2.0)
    probes = [(float(grid.nodes[k]), x) for k in (32, 96, 160, 256) for x in (0.0, 0.4)]
    value_gap, clock_gap = pressure_commutation_check(base2, clock2, 2.0, probes)
    assert value_gap <= 1e-12
    assert clock_gap <= 1e-12

    base3 = barenblatt_solution(BarenblattParams(m=3.0, d=1, b=1.0))
    clock3 = multiplier_path(path, CoefficientPair.constant(1.0, 0.0), gamma=3.0)
    probes3 = [(float(grid.nodes[k]), x) for k in (32, 96, 160, 200, 256) for x in (0.0, 0.3)]
    value_gap3, clock_gap3 = pressure_commutation_check(base3, clock3, 3.0, probes3)
    assert value_gap3 <= 1e-8
    assert clock_gap3 <= 1e-8
    with pytest.raises(InvalidInputError):
        pressure_commutation_check(base3, clock3, 2.0, probes3)


@pytest.mark.parametrize(
    "read",
    [
        lambda clock: linear_pressure(2.0, clock, math.nan, 0.0),
        lambda clock: stochastic_barenblatt(BarenblattParams(m=2.0, d=1, b=1.0), clock, math.nan, 0.0),
        lambda clock: pressure_commutation_check(
            barenblatt_solution(BarenblattParams(m=2.0, d=1, b=1.0)), clock, 2.0, [(0.5, 0.0), (math.nan, 0.0)]
        ),
    ],
    ids=["linear_pressure", "stochastic_barenblatt", "pressure_commutation_check"],
)
def test_nan_times_are_invalid_input(read):
    clock = multiplier_path(sample_brownian(TimeGrid.uniform(1.0, 16), MASTER), CoefficientPair.constant(1.0, 0.0), 2.0)
    with pytest.raises(InvalidInputError, match="time nan is not a number|not at t = nan"):
        read(clock)


def test_catalogue_values_are_nonnegative():
    p = BarenblattParams(m=2.5, d=1, b=1.3)
    xs = np.linspace(-6.0, 6.0, 101)
    assert np.all(barenblatt(p, 0.7, xs) >= 0.0)
    qp = QuadraticPressureParams(m=2.0, d=1, q=1.0)
    assert np.all(quadratic_pressure(qp, 0.05, xs) >= 0.0)
    base = linear_pressure_base(2.0)
    assert np.all(np.asarray(base.evaluate(0.5, xs)) >= 0.0)


def test_an_integral_float_dimension_is_a_whole_dimension():
    assert BarenblattParams(m=2.0, d=2.0, b=1.0).beta == BarenblattParams(m=2.0, d=2, b=1.0).beta
    assert mass_to_b(2.0, 2.0, 1.5) == mass_to_b(2.0, 2, 1.5)
    assert QuadraticPressureParams(m=2.0, d=3.0, q=1.0).t_blowup == QuadraticPressureParams(m=2.0, d=3, q=1.0).t_blowup
