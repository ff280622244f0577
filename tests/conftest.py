"""Shared test plumbing: the acceptance-criteria summary block, the one-path
clock, the quadrature oracle for the source profile's mass, two noisy
profiles written out by hand as oracles for the generic transform and a
whole-box RKL2 march as the oracle for the solver's super-stepped path.

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
    SnapshotTable,
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


def rkl2_coefficients(s: int) -> tuple:
    """mu~_1 and the (mu_j, nu_j, mu~_j, gamma~_j) of stages j = 2..s of the
    s-stage RKL2 step (Meyer, Balsara & Aslam, J. Comput. Phys. 257, 2014)."""

    def b(j):
        return 1.0 / 3.0 if j <= 2 else (j * j + j - 2) / (2.0 * j * (j + 1))

    w1 = 4.0 / (s * s + s - 2)
    stages = []
    for j in range(2, s + 1):
        mu = (2 * j - 1) / j * b(j) / b(j - 1)
        nu = -(j - 1) / j * b(j) / b(j - 2)
        mu_tilde = mu * w1
        stages.append((mu, nu, mu_tilde, -(1.0 - b(j - 1)) * mu_tilde))
    return b(1) * w1, stages


def rkl2_increments(y0, tau: float, s: int, div, volumes):
    """Y_s of one s-stage RKL2 step of length tau from y0, with the stages
    carried as increments D_j = Y_j - Y_0, the solver's arithmetic written
    out: E = (tau div(Y_0)) / volume, D_0 = 0, D_1 = mu~_1 E and
    D_j = mu_j D_{j-1} + nu_j D_{j-2} + (mu~_j tau) L(Y_0 + D_{j-1}) + gamma~_j E,
    with L(y) = div(y) / volume and each sum taken left to right."""
    mu1, stages = rkl2_coefficients(s)
    euler = tau * div(y0) / volumes
    before, d = np.zeros_like(y0), mu1 * euler
    for mu, nu, mu_tilde, gamma_tilde in stages:
        before, d = d, mu * d + nu * before + (mu_tilde * tau) * (div(y0 + d) / volumes) + gamma_tilde * euler
    return y0 + d


def rkl2_march(
    initial, m: float, horizon: float, safety: float, snapshot_times, max_stages=32, elapsed=0.02, step=rkl2_increments
):
    """The super-stepped march on the whole box, one state, written out plainly.

    Each super-step tau is the forward-Euler bound b times at most
    (S**2 + S - 2) / 4 for S = ``max_stages``, and at most ``elapsed`` times
    the time marched so far when that exceeds b, cropped to the next
    snapshot; it takes the fewest stages s >= 2 with (s**2 + s - 2) / 4 * b
    >= tau, and ``step(y, tau, s, div, volumes)`` gives its result, with div
    the net face flux of the solver.  Negative values are zeroed after each
    super-step.  Returns the table, every tau and every stage count.
    """
    grid = initial.grid
    t0 = initial.time
    eps = 1e-12 * max(1.0, abs(horizon))
    targets = [s for s in sorted({float(s) for s in snapshot_times} | {horizon}) if s > t0 + eps]

    def div(y):
        flux = grid.face_areas[1:-1] * np.diff(np.power(y, m)) / grid.dx
        return np.diff(np.concatenate(([0.0], flux, [0.0])))

    y, t = initial.values.copy(), t0
    times, rows, taus, counts, clamped = [t0], [y.copy()], [], [], 0.0
    for target in targets:
        while t < target - eps:
            peak = float(np.max(y))
            denom = 2.0 * grid.dim * m * peak ** (m - 1.0) if peak > 0.0 else 0.0
            bound = safety * grid.dx**2 / max(denom, 1e-12)
            most = (max_stages * max_stages + max_stages - 2) / 4.0 * bound
            tau = min(most, max(bound, elapsed * (t - t0)), target - t)
            s = 2
            while (s * s + s - 2) / 4.0 * bound < tau:
                s += 1
            y = step(y, tau, s, div, grid.volumes)
            negative = y < 0.0
            if negative.any():
                clamped += float(-np.dot(y[negative], grid.volumes[negative]))
                y = np.where(negative, 0.0, y)
            t += tau
            taus.append(tau)
            counts.append(s)
        times.append(t)
        rows.append(y.copy())
    return SnapshotTable(grid, times, rows, clamped_total=clamped), taus, counts


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
