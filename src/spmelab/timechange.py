"""Random change of time variables between deterministic and noisy fields.

A deterministic solution U(s, x) of a gamma-homogeneous equation turns into a
solution of the noisy equation via

    u(t, x) = U(H(t), x) * h(t),

where h is the positive multiplier and H the random clock built in
:mod:`spmelab.noise` with the same exponent gamma.  The inverse substitution
recovers the deterministic field:

    U(s, x) = u(R(s), x) / h(R(s)),        R = inverse clock.

Both directions interpolate h and H linearly between grid nodes, matching the
left-endpoint quadrature that produced them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import BlowUpError, InvalidInputError
from .noise import MultiplierPath, hitting_time, interp_h, interp_H, inverse_clock


@dataclass(frozen=True)
class TimeInterval:
    """Validity window of a deterministic solution, with open/closed ends."""

    lo: float = 0.0
    hi: float = math.inf
    lo_open: bool = False
    hi_open: bool = False

    def contains(self, s: float) -> bool:
        above = s > self.lo if self.lo_open else s >= self.lo
        below = s < self.hi if self.hi_open else s <= self.hi
        return bool(above and below)


@dataclass(frozen=True)
class DeterministicSolution:
    """A deterministic space-time field with a validity window and a label.

    ``evaluate(s, x)`` takes numpy arrays: times and positions broadcast
    against each other as numpy arrays do, and a scalar time with a scalar
    point gives a float.
    """

    evaluate: Callable
    interval: TimeInterval = field(default_factory=TimeInterval)
    tag: str = ""


def forward_transform(base: DeterministicSolution, clock: MultiplierPath, t: float, x):
    """Value of the noisy field u(t, x) = U(H(t), x) h(t).

    Raises :class:`BlowUpError` carrying the clock's hitting time when H(t)
    has left the base solution's validity window from above, and
    :class:`InvalidInputError` when H(t) has not yet entered it.
    """
    s = interp_H(clock, t)
    if not base.interval.contains(s):
        iv = base.interval
        if s >= iv.hi:
            raise BlowUpError(
                f"clock reached {s:.6g}, past the base validity end {iv.hi:.6g} "
                f"(first hit at t = {hitting_time(clock, iv.hi)})",
                base_time=iv.hi,
                hitting_time=hitting_time(clock, iv.hi),
            )
        raise InvalidInputError(
            f"clock value {s:.6g} is below the base validity start {iv.lo:.6g}"
        )
    return base.evaluate(s, x) * interp_h(clock, t)


@dataclass(frozen=True)
class StochasticFieldSample:
    """One realisation of the noisy field: a base solution tied to one clock."""

    base: DeterministicSolution
    clock: MultiplierPath

    def value(self, t: float, x):
        return forward_transform(self.base, self.clock, t, x)


def inverse_transform(sample: StochasticFieldSample, s: float, x):
    """Recover the deterministic base value U(s, x) from one noisy realisation."""
    t = inverse_clock(sample.clock, s)
    return sample.value(t, x) / interp_h(sample.clock, t)


# ---------------------------------------------------------------------------
# Homogeneity checks for the right-hand sides handled by the transform.
# ---------------------------------------------------------------------------

def _rhs_heat(v: np.ndarray, dx: float, m: float | None) -> np.ndarray:
    return (v[2:] - 2.0 * v[1:-1] + v[:-2]) / dx**2


def _rhs_pme(v: np.ndarray, dx: float, m: float | None) -> np.ndarray:
    if m is None:
        raise InvalidInputError("the porous-medium right-hand side needs m")
    u = v**m
    return (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dx**2


def _rhs_burgers(v: np.ndarray, dx: float, m: float | None) -> np.ndarray:
    return v[1:-1] * (v[2:] - v[:-2]) / (2.0 * dx)


def _rhs_pressure(v: np.ndarray, dx: float, m: float | None) -> np.ndarray:
    if m is None:
        raise InvalidInputError("the pressure right-hand side needs m")
    lap = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / dx**2
    grad = (v[2:] - v[:-2]) / (2.0 * dx)
    return (m - 1.0) * v[1:-1] * lap + grad**2


_RHS = {
    "heat": _rhs_heat,
    "pme": _rhs_pme,
    "burgers": _rhs_burgers,
    "pressure": _rhs_pressure,
}


def _default_fields() -> list[tuple[np.ndarray, float]]:
    x = np.linspace(-3.0, 3.0, 129)
    dx = float(x[1] - x[0])
    return [
        (np.exp(-(x**2)), dx),
        (1.0 / (1.0 + x**2), dx),
        (0.6 + 0.3 * np.cos(2.0 * x), dx),
    ]


# Scale factors (positive, since fractional exponents need positive fields)
# and the relative tolerance of check_homogeneity.
_SCALES = (0.5, 2.0, 3.0)
_TOL = 1e-9


def check_homogeneity(rhs: str, gamma: float, m: float | None = None) -> bool:
    """True when the named right-hand side scales as F(lambda U) = lambda**gamma F(U).

    Each trial compares the discrete operator on a positive trial field scaled
    by 0.5, 2 or 3 against the scaled operator, accepting when the gap stays
    below ``1e-9 * (1 + max|lambda**gamma F(U)|)``.
    """
    if rhs not in _RHS:
        raise InvalidInputError(f"unknown right-hand side {rhs!r}")
    if not math.isfinite(gamma):
        raise InvalidInputError(f"homogeneity degree gamma must be finite, not {gamma}")
    op = _RHS[rhs]
    for v, dx in _default_fields():
        base = op(v, dx, m)
        for lam in _SCALES:
            scaled = op(lam * v, dx, m)
            target = lam**gamma * base
            if not np.max(np.abs(scaled - target)) <= _TOL * (1.0 + np.max(np.abs(target))):
                return False
    return True
