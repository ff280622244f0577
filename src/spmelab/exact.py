"""Closed-form solution catalogue for the porous medium equation u_t = lap(u^m).

All profiles are radially symmetric, so points may be passed either as a
signed scalar coordinate (read as a radius through its absolute value), a
length-d vector, or an array whose last axis has length d.  Scalar queries
return floats, array queries return arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, InvalidInputError
from .noise import CoefficientPair, MultiplierPath, _maybe_float, interp_h, interp_H, multiplier_path
from .timechange import DeterministicSolution, TimeInterval


def _radius2(x, d: int):
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0 or d == 1:
        return arr * arr
    if arr.shape[-1] != d:
        raise InvalidInputError(f"point has shape {arr.shape}, expected last axis {d}")
    return np.sum(arr * arr, axis=-1)


def sphere_area(d: int) -> float:
    """Surface area of the unit sphere in d dimensions (2 for d = 1)."""
    if not d >= 1:
        raise InvalidInputError(f"sphere area needs dimension d >= 1, not {d}")
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def _check_m_and_d(what: str, m: float, d) -> None:
    """Reject m outside (1, inf) and a dimension that is not a whole number >= 1
    (an integral float such as 2.0 is one)."""
    if not 1.0 < m < math.inf:
        raise InvalidInputError(f"{what} needs finite m > 1, not {m}")
    if not (d >= 1 and float(d).is_integer()):
        raise InvalidInputError(f"dimension must be >= 1 and a whole number, not {d}")


@dataclass(frozen=True)
class BarenblattParams:
    """Source-type self-similar profile parameters: exponent 1 < m < inf, whole dimension d >= 1, scale b > 0."""

    m: float
    d: int
    b: float

    def __post_init__(self):
        _check_m_and_d("Barenblatt profile", self.m, self.d)
        if not self.b > 0.0:
            raise InvalidInputError(f"profile scale b must be positive, not {self.b}")

    @property
    def beta(self) -> float:
        return 1.0 / ((self.m - 1.0) * self.d + 2.0)

    @property
    def alpha(self) -> float:
        return self.beta * self.d

    def support_radius(self, t: float) -> float:
        """Free-boundary radius at time t > 0."""
        if not t > 0.0:
            raise InvalidInputError(f"the profile is defined for t > 0, not {t}")
        return math.sqrt(2.0 * self.m * self.b / ((self.m - 1.0) * self.beta)) * t**self.beta


def barenblatt(p: BarenblattParams, t, x):
    """Value of the source-type solution at time t > 0 and point x.

    Broadcasts over both arguments; every entry of t must be positive.
    """
    ts = np.asarray(t, dtype=float)
    if not np.all(ts > 0.0):
        raise InvalidInputError(f"the profile is defined for t > 0, not {ts}")
    r2 = _radius2(x, p.d)
    arg = p.b - ((p.m - 1.0) / (2.0 * p.m)) * p.beta * r2 / ts ** (2.0 * p.beta)
    val = ts ** (-p.alpha) * np.maximum(arg, 0.0) ** (1.0 / (p.m - 1.0))
    return _maybe_float(val)


def barenblatt_mass(p: BarenblattParams) -> float:
    """Closed-form total mass; conserved in time."""
    ratio = p.m / (p.m - 1.0)
    unit = ((p.m - 1.0) * p.beta / (2.0 * math.pi * p.m)) ** (-p.d / 2.0) * math.gamma(ratio) / math.gamma(
        ratio + p.d / 2.0
    )
    return p.b ** (1.0 / (2.0 * p.beta * (p.m - 1.0))) * unit


def mass_to_b(m: float, d: int, mass: float) -> float:
    """Profile scale b whose total mass equals ``mass`` (analytic inversion)."""
    unit = BarenblattParams(m=m, d=d, b=1.0)
    if not mass > 0.0:
        raise InvalidInputError(f"mass must be positive, not {mass}")
    if not mass < math.inf:
        raise InvalidInputError(f"mass must be finite, not {mass}")
    # At b = 1 the mass is the b-free factor alone, since 1.0 ** x is 1.0.
    return (mass / barenblatt_mass(unit)) ** (2.0 * unit.beta * (m - 1.0))


@dataclass(frozen=True)
class QuadraticPressureParams:
    """Parameters of the blow-up solution with quadratic initial pressure q|x|^2."""

    m: float
    d: int
    q: float

    def __post_init__(self):
        _check_m_and_d("quadratic-pressure solution", self.m, self.d)
        if not self.q > 0.0:
            raise InvalidInputError(f"initial pressure curvature q must be positive, not {self.q}")

    @property
    def t_unit(self) -> float:
        """Blow-up instant for unit curvature (q = 1)."""
        return (self.m - 1.0) / (2.0 * self.m * (2.0 + self.d * (self.m - 1.0)))

    @property
    def t_blowup(self) -> float:
        return self.t_unit / self.q


def quadratic_pressure(p: QuadraticPressureParams, t, x):
    """Value of the blow-up solution on 0 <= t < t_blowup; broadcasts over t and x."""
    ts = np.asarray(t, dtype=float)
    if not np.all(ts >= 0.0):
        raise InvalidInputError(f"the solution starts at t = 0, not {ts}")
    if not np.all(ts < p.t_blowup):
        raise BlowUpError(
            f"time {np.max(ts):.6g} is at or past the blow-up instant {p.t_blowup:.6g}",
            base_time=p.t_blowup,
            hitting_time=None,
        )
    r2 = _radius2(x, p.d)
    val = (p.t_unit * r2 / (p.t_blowup - ts)) ** (1.0 / (p.m - 1.0))
    return _maybe_float(val)


def linear_pressure_base(m: float) -> DeterministicSolution:
    """Deterministic base U(s, x) = ((m-1)/m * max(s + x, 0))**(1/(m-1)), d = 1, for m > 1."""
    if not m > 1.0:
        raise InvalidInputError(f"linear-pressure solution needs m > 1, not {m}")

    def evaluate(s, x):
        val = ((m - 1.0) / m * np.maximum(np.asarray(s) + np.asarray(x, dtype=float), 0.0)) ** (
            1.0 / (m - 1.0)
        )
        return _maybe_float(val)

    return DeterministicSolution(evaluate=evaluate, interval=TimeInterval(0.0, math.inf))


def pressure(u, m: float):
    """Pressure variable V = m/(m-1) * u**(m-1), for 1 < m < inf."""
    if not 1.0 < m < math.inf:
        raise InvalidInputError(f"pressure needs 1 < m < inf, not {m}")
    arr = np.asarray(u, dtype=float)
    if not np.all(arr >= 0.0):
        raise InvalidInputError(f"pressure needs a nonnegative field, not {arr}")
    val = m / (m - 1.0) * arr ** (m - 1.0)
    return _maybe_float(val)


def inverse_pressure(v, m: float):
    """Invert the pressure map: u = ((m-1)/m * V)**(1/(m-1)), for 1 < m < inf."""
    if not 1.0 < m < math.inf:
        raise InvalidInputError(f"pressure needs 1 < m < inf, not {m}")
    arr = np.asarray(v, dtype=float)
    if not np.all(arr >= 0.0):
        raise InvalidInputError(f"pressure values must be nonnegative, not {arr}")
    val = ((m - 1.0) / m * arr) ** (1.0 / (m - 1.0))
    return _maybe_float(val)


def self_similar(
    p: BarenblattParams,
    scale_t: float,
    scale_x: float,
    t0: float,
    x0,
    t: float,
    x,
):
    """Rescaled and shifted copy (scale_t/scale_x**2)**(1/(m-1)) U(scale_t*t + t0, scale_x*x + x0).

    The same-degree scaling keeps it a solution; useful for building
    dominating envelopes in comparison arguments.
    """
    if not (scale_t > 0.0 and scale_x > 0.0):
        raise InvalidInputError(f"scale factors must be positive, not {scale_t} and {scale_x}")
    shifted_t = scale_t * t + t0
    if not shifted_t > 0.0:
        raise InvalidInputError(f"shifted time scale_t * t + t0 must be positive, not {shifted_t}")
    shifted_x = scale_x * np.asarray(x, dtype=float) + np.asarray(x0, dtype=float)
    factor = (scale_t / scale_x**2) ** (1.0 / (p.m - 1.0))
    val = factor * barenblatt(p, shifted_t, shifted_x)
    return _maybe_float(val)


def barenblatt_solution(p: BarenblattParams) -> DeterministicSolution:
    """Catalogue entry wrapping the source-type profile (valid for s > 0)."""
    return DeterministicSolution(
        evaluate=lambda s, x: barenblatt(p, s, x),
        interval=TimeInterval(0.0, math.inf, lo_open=True),
    )


def quadratic_pressure_solution(p: QuadraticPressureParams) -> DeterministicSolution:
    """Catalogue entry for the blow-up solution (valid on [0, t_blowup))."""
    return DeterministicSolution(
        evaluate=lambda s, x: quadratic_pressure(p, s, x),
        interval=TimeInterval(0.0, p.t_blowup, hi_open=True),
    )


def pressure_commutation_check(
    base: DeterministicSolution,
    clock: MultiplierPath,
    m: float,
    probes,
) -> tuple[float, float]:
    """Compare 'transform then pressure' against 'pressure then transform'.

    ``clock`` must carry exponent gamma = m.  The pressure field solves a
    degree-2 equation whose multiplier uses coefficients
    (m-1) f and (m-1) g + (m-1)(m-2)/2 f^2 on the same noise path; its clock
    coincides with the original one.  Returns the largest pointwise value
    discrepancy and the largest clock discrepancy over ``probes`` (pairs
    (t, x), with t on grid nodes for exact interpolation).
    """
    if clock.gamma != m:
        raise InvalidInputError("the velocity clock must use gamma = m")
    src = clock.coeffs
    pressure_coeffs = CoefficientPair(
        breaks=src.breaks.copy(),
        f_values=(m - 1.0) * src.f_values,
        g_values=(m - 1.0) * src.g_values + 0.5 * (m - 1.0) * (m - 2.0) * src.f_values**2,
    )
    pressure_clock = multiplier_path(clock.path, pressure_coeffs, gamma=2.0)

    worst_value = 0.0
    worst_clock = 0.0
    for t, x in probes:
        s_u = interp_H(clock, t)
        s_v = interp_H(pressure_clock, t)
        via_pressure = pressure(base.evaluate(s_v, x), m) * interp_h(pressure_clock, t)
        via_velocity = pressure(base.evaluate(s_u, x), m) * interp_h(clock, t) ** (m - 1.0)
        worst_value = max(worst_value, float(np.max(np.abs(via_pressure - via_velocity))))
        worst_clock = max(worst_clock, abs(s_v - s_u))
    return worst_value, worst_clock
