"""Shared test plumbing: the acceptance-criteria summary block, the one-path
clock, the quadrature oracle for the source profile's mass and two noisy
profiles written out by hand as oracles for the generic transform.

Acceptance tests register one line per criterion; the lines are echoed in a
dedicated section of the terminal summary so a plain pytest run always shows
the full pass/fail slate, failed criteria included.
"""
from __future__ import annotations

import numpy as np

from spmelab import (
    BarenblattParams,
    InvalidInputError,
    MultiplierPath,
    barenblatt,
    interp_h,
    interp_H,
    linear_pressure_base,
    mix_seed,
    multiplier_path,
    sample_brownian,
    sphere_area,
)

_CRITERIA: dict = {}


def one_path_clock(cfg, index: int):
    """The clock of path ``index`` of a sweep over ``cfg``, through the two public one-path calls."""
    return multiplier_path(sample_brownian(cfg.grid, mix_seed(cfg.master_seed, index)), cfg.coeffs, cfg.m)


def adaptive_midpoint(fn, a: float, b: float, tol: float) -> float:
    """Adaptive midpoint quadrature with one Richardson correction.

    The open rule never evaluates the endpoints, which tolerates the
    square-root behaviour of the integrand at the free boundary.  Intervals
    are halved at most 48 times.
    """

    def recurse(lo, hi, whole, tol, depth):
        mid = 0.5 * (lo + hi)
        left = fn(0.5 * (lo + mid)) * (mid - lo)
        right = fn(0.5 * (mid + hi)) * (hi - mid)
        if depth <= 0 or abs(left + right - whole) <= 3.0 * tol:
            return left + right + (left + right - whole) / 3.0
        return recurse(lo, mid, left, 0.5 * tol, depth - 1) + recurse(
            mid, hi, right, 0.5 * tol, depth - 1
        )

    whole = fn(0.5 * (a + b)) * (b - a)
    return recurse(a, b, whole, tol, 48)


def barenblatt_mass_quadrature(p: BarenblattParams, t: float = 1.0, rel_tol: float = 1e-9) -> float:
    """Total mass by adaptive radial quadrature over the compact support.

    Independent cross-check of :func:`barenblatt_mass`: it integrates the
    pointwise values instead of evaluating the Gamma-function formula.
    """
    r_max = p.support_radius(t)
    area = sphere_area(p.d)
    # barenblatt(p, t, r) in scalar arithmetic, with its operation order.  The
    # powers of t go through numpy as there: its array power can differ from
    # the scalar one in the last bit.
    ts = np.asarray(t, dtype=float)
    scale, height = float(ts ** (2.0 * p.beta)), float(ts ** (-p.alpha))
    spread = (p.m - 1.0) / (2.0 * p.m) * p.beta
    power = 1.0 / (p.m - 1.0)

    def integrand(r: float) -> float:
        arg = p.b - spread * (r * r) / scale
        return area * r ** (p.d - 1) * (height * max(arg, 0.0) ** power)

    coarse = sum(
        integrand(r) for r in np.linspace(r_max / 128.0, r_max * (1 - 1.0 / 128.0), 64)
    ) * (r_max / 64.0)
    tol = rel_tol * max(abs(coarse), 1e-300)
    return adaptive_midpoint(integrand, 0.0, r_max, tol)


def linear_pressure(m: float, clock: MultiplierPath, t: float, x):
    """Noisy travelling profile u(t, x) = ((m-1)/m * max(H(t) + x, 0))**(1/(m-1)) h(t), for m > 1."""
    return linear_pressure_base(m).evaluate(interp_H(clock, t), x) * interp_h(clock, t)


def stochastic_barenblatt(p: BarenblattParams, clock: MultiplierPath, t: float, x):
    """Direct substitution u(t, x) = U(H(t), x) h(t) for the source-type profile.

    Written out explicitly (not through the generic transform) so the two
    routes can be compared against each other in tests.
    """
    if not t > 0.0:
        raise InvalidInputError(f"the noisy profile starts after t = 0 (clock at 0), not at t = {t}")
    s = interp_H(clock, t)
    return barenblatt(p, s, x) * interp_h(clock, t)


def record_criterion(index: int, passed: bool, detail: str) -> str:
    line = f"criterion {index:2d}: {'PASS' if passed else 'FAIL'} - {detail}"
    _CRITERIA[index] = line
    return line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for index in sorted(_CRITERIA):
        terminalreporter.write_line(_CRITERIA[index])
