"""Brownian driving noise, the positive multiplier, and the random clock.

The driving randomness is a scalar Brownian motion sampled on a fixed time
mesh.  From a path ``w`` and piecewise-constant coefficient tables ``(f, g)``
the module builds the positive multiplier

    h(t) = exp( int_0^t g ds + int_0^t f dw - 1/2 int_0^t f^2 ds )

with non-anticipating (left-endpoint) sums, together with the random clock

    H(t) = int_0^t h(s)**(gamma - 1) ds

accumulated by the left-endpoint rule on the same mesh.  Because the
coefficient tables are piecewise constant and aligned with the mesh, the sums
defining ``log h`` are exact up to rounding; the only discretisation error
lives in ``H``.

Reproducibility contract: every sampled object is a pure function of
``(grid, seed)`` and the coefficient tables.  Per-path seeds for Monte Carlo
sweeps are derived as ``mix_seed(master, path_index)``, a fixed 64-bit mixing
permutation applied to ``master XOR index``, and every path draws from its
own generator.  The block functions (:func:`brownian_block`,
:func:`multiplier_block`, :func:`read_block`) build many paths at once as
rows of 2-d arrays with the same arithmetic as the one-path calls, so a
path's bits do not depend on the block it is sampled in.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, OutOfRangeError, UnsupportedInputError

_MASK64 = 0xFFFFFFFFFFFFFFFF

# Absolute slack used when matching coefficient breakpoints to mesh nodes and
# when validating query times against the horizon.
_ALIGN_TOL = 1e-9


def mix_seed(master: int, index: int) -> int:
    """Derive the seed for path ``index`` from a master seed.

    Applies the splitmix64 finalizer (a bijection on 64-bit words) to
    ``master XOR index``; distinct indices therefore yield distinct seeds.
    """
    z = (int(master) ^ int(index)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing time mesh starting at 0 with at least two nodes."""

    nodes: np.ndarray

    def __post_init__(self):
        arr = np.array(self.nodes, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise InvalidInputError("time grid needs at least two nodes")
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("time grid nodes must be finite")
        if arr[0] != 0.0:
            raise InvalidInputError("time grid must start at t = 0")
        if not np.all(np.diff(arr) > 0.0):
            raise InvalidInputError("time grid nodes must be strictly increasing")
        object.__setattr__(self, "nodes", _readonly(arr))

    @classmethod
    def uniform(cls, horizon: float, steps: int) -> "TimeGrid":
        if horizon <= 0.0 or steps < 1:
            raise InvalidInputError("uniform grid needs horizon > 0 and steps >= 1")
        return cls(np.linspace(0.0, float(horizon), int(steps) + 1))

    @property
    def horizon(self) -> float:
        return float(self.nodes[-1])

    @property
    def steps(self) -> int:
        return self.nodes.size - 1

    def same_nodes(self, other: "TimeGrid") -> bool:
        return self.nodes.size == other.nodes.size and bool(
            np.array_equal(self.nodes, other.nodes)
        )


@dataclass(frozen=True, eq=False)
class CoefficientPair:
    """Piecewise-constant noise and drift coefficients.

    ``f_values[k]`` and ``g_values[k]`` apply on ``[breaks[k], breaks[k+1])``;
    the final values extend to all later times.  ``breaks[0]`` must be 0.
    """

    breaks: np.ndarray
    f_values: np.ndarray
    g_values: np.ndarray

    def __post_init__(self):
        br = np.array(self.breaks, dtype=float)
        fv = np.array(self.f_values, dtype=float)
        gv = np.array(self.g_values, dtype=float)
        if br.ndim != 1 or br.size < 1 or br[0] != 0.0:
            raise InvalidInputError("coefficient breaks must start at t = 0")
        if br.size > 1 and not np.all(np.diff(br) > 0.0):
            raise InvalidInputError("coefficient breaks must be strictly increasing")
        if fv.shape != br.shape or gv.shape != br.shape:
            raise InvalidInputError("coefficient values must match the breaks")
        if not (np.all(np.isfinite(fv)) and np.all(np.isfinite(gv))):
            raise InvalidInputError("coefficient values must be finite")
        object.__setattr__(self, "breaks", _readonly(br))
        object.__setattr__(self, "f_values", _readonly(fv))
        object.__setattr__(self, "g_values", _readonly(gv))

    @classmethod
    def constant(cls, f: float, g: float) -> "CoefficientPair":
        return cls(np.array([0.0]), np.array([float(f)]), np.array([float(g)]))

    @classmethod
    def from_pieces(cls, f_pieces, g_pieces) -> "CoefficientPair":
        """Build from two lists of (start, value) pairs, merging the breakpoints."""
        starts = sorted({float(s) for s, _ in f_pieces} | {float(s) for s, _ in g_pieces})
        if not starts or starts[0] != 0.0:
            raise InvalidInputError("coefficient pieces must start at t = 0")

        def value_at(pieces, t):
            val = None
            for s, v in sorted(pieces):
                if s <= t + _ALIGN_TOL:
                    val = v
            if val is None:
                raise InvalidInputError("coefficient pieces must start at t = 0")
            return float(val)

        fv = [value_at(f_pieces, s) for s in starts]
        gv = [value_at(g_pieces, s) for s in starts]
        return cls(np.array(starts), np.array(fv), np.array(gv))

    def _interval_index(self, t) -> np.ndarray:
        return np.clip(
            np.searchsorted(self.breaks, np.asarray(t, dtype=float) + _ALIGN_TOL, side="right") - 1,
            0,
            self.breaks.size - 1,
        )

    def values_on(self, grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
        """Left-endpoint values of (f, g) on each mesh interval.

        Every breakpoint inside the horizon must coincide with a mesh node;
        otherwise the left-endpoint sums would silently disagree with the
        exact piecewise quadrature, so the mismatch is rejected.
        """
        inner = self.breaks[(self.breaks > 0.0) & (self.breaks <= grid.horizon + _ALIGN_TOL)]
        if inner.size:
            gaps = np.min(np.abs(grid.nodes[None, :] - inner[:, None]), axis=1)
            if np.any(gaps > _ALIGN_TOL * max(1.0, grid.horizon)):
                raise InvalidInputError(
                    "coefficient breakpoints do not lie on the time grid"
                )
        idx = self._interval_index(grid.nodes[:-1])
        return self.f_values[idx], self.g_values[idx]

    def _integral(self, values: np.ndarray, t: float) -> float:
        if t < 0.0:
            raise InvalidInputError("integration time must be nonnegative")
        uppers = np.append(self.breaks[1:], np.inf)
        seg = np.clip(np.minimum(uppers, t) - np.minimum(self.breaks, t), 0.0, None)
        return float(np.dot(seg, values))

    def integral_g(self, t: float) -> float:
        """Exact value of int_0^t g(s) ds."""
        return self._integral(self.g_values, t)

    def integral_f2(self, t: float) -> float:
        """Exact value of int_0^t f(s)^2 ds."""
        return self._integral(self.f_values**2, t)

    @property
    def compactly_supported(self) -> bool:
        """True when both coefficients vanish identically after the last break."""
        return self.f_values[-1] == 0.0 and self.g_values[-1] == 0.0


@dataclass(frozen=True, eq=False)
class NoisePath:
    """One Brownian path on a grid, tagged with the seed that produced it."""

    grid: TimeGrid
    w: np.ndarray
    seed: int

    def __post_init__(self):
        arr = np.array(self.w, dtype=float)
        if arr.shape != self.grid.nodes.shape:
            raise InvalidInputError("path values must match the grid nodes")
        if arr[0] != 0.0:
            raise InvalidInputError("Brownian path must start at 0")
        object.__setattr__(self, "w", _readonly(arr))
        object.__setattr__(self, "seed", int(self.seed) & _MASK64)


def brownian_block(grid: TimeGrid, seeds) -> np.ndarray:
    """Brownian paths on ``grid`` as the rows of a (len(seeds), steps + 1) array.

    Row r draws its increments from its own PCG64 generator seeded with
    ``seeds[r]``, so each row is a pure function of (grid, seed).
    """
    increments = np.empty((len(seeds), grid.steps))
    for row, seed in zip(increments, seeds):
        np.random.Generator(np.random.PCG64(int(seed) & _MASK64)).standard_normal(out=row)
    increments *= np.sqrt(np.diff(grid.nodes))
    w = np.zeros((len(seeds), grid.nodes.size))
    np.cumsum(increments, axis=1, out=w[:, 1:])
    return w


def sample_brownian(grid: TimeGrid, seed: int) -> NoisePath:
    """Sample one Brownian path on ``grid``; identical inputs give identical bits."""
    return NoisePath(grid=grid, w=brownian_block(grid, [seed])[0], seed=seed)


def still_path(grid: TimeGrid) -> NoisePath:
    """Path with w identically zero, for noise-free (drift-only) clocks."""
    return NoisePath(grid=grid, w=np.zeros_like(grid.nodes), seed=0)


_REFINE_SALT = 0xC3A5C85C97CB3127


def refine_brownian(path: NoisePath) -> NoisePath:
    """Insert Brownian-bridge midpoints, halving every mesh interval.

    The original nodes and values are kept bit-for-bit, so grid-refinement
    studies hold the realised path fixed.  The midpoint draws come from a
    child seed derived from ``path.seed``, making repeated refinement a pure
    function of the original (grid, seed).
    """
    nodes = path.grid.nodes
    dt = np.diff(nodes)
    child_seed = mix_seed(path.seed, _REFINE_SALT)
    rng = np.random.Generator(np.random.PCG64(child_seed))
    mids_t = 0.5 * (nodes[:-1] + nodes[1:])
    mids_w = 0.5 * (path.w[:-1] + path.w[1:]) + rng.standard_normal(dt.size) * np.sqrt(dt / 4.0)
    new_nodes = np.empty(nodes.size + mids_t.size)
    new_nodes[0::2] = nodes
    new_nodes[1::2] = mids_t
    new_w = np.empty_like(new_nodes)
    new_w[0::2] = path.w
    new_w[1::2] = mids_w
    return NoisePath(grid=TimeGrid(new_nodes), w=new_w, seed=child_seed)


@dataclass(frozen=True, eq=False)
class MultiplierPath:
    """Discrete multiplier h and clock H along one noise path.

    Stores the source path and coefficient tables so downstream constructions
    (pressure clocks, weak-form sums) can reuse the same realisation.
    """

    grid: TimeGrid
    gamma: float
    logh: np.ndarray
    h: np.ndarray
    H: np.ndarray
    path: NoisePath
    coeffs: CoefficientPair

    @property
    def horizon(self) -> float:
        return self.grid.horizon


def multiplier_block(
    w: np.ndarray, grid: TimeGrid, coeffs: CoefficientPair, gamma: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """log h, h and H along each row of Brownian paths ``w`` on ``grid``.

    ``w`` has shape (rows, steps + 1); the three results have its shape.
    ``gamma`` >= 1 is the homogeneity degree of the clock.
    """
    if gamma < 1.0:
        raise InvalidInputError("clock exponent gamma must be >= 1")
    f_vals, g_vals = coeffs.values_on(grid)
    dt = np.diff(grid.nodes)
    dlog = g_vals * dt + f_vals * np.diff(w, axis=1) - 0.5 * f_vals**2 * dt
    logh = np.zeros_like(w)
    np.cumsum(dlog, axis=1, out=logh[:, 1:])
    with np.errstate(over="ignore"):
        h = np.exp(logh)
    if not np.all(h > 0.0):
        raise InvalidInputError(
            "multiplier underflowed to zero; shorten the horizon or the drift"
        )
    if not np.all(np.isfinite(h)):
        raise InvalidInputError(
            "multiplier overflowed to infinity; shorten the horizon or the drift"
        )
    H = np.zeros_like(w)
    with np.errstate(over="ignore"):
        np.cumsum(h[:, :-1] ** (gamma - 1.0) * dt, axis=1, out=H[:, 1:])
    return logh, h, H


def multiplier_path(path: NoisePath, coeffs: CoefficientPair, gamma: float) -> MultiplierPath:
    """Build the multiplier and clock for homogeneity degree ``gamma`` >= 1."""
    logh, h, H = (rows[0] for rows in multiplier_block(path.w[None, :], path.grid, coeffs, gamma))
    return MultiplierPath(
        grid=path.grid,
        gamma=float(gamma),
        logh=_readonly(logh),
        h=_readonly(h),
        H=_readonly(H),
        path=path,
        coeffs=coeffs,
    )


def _check_time(horizon: float, t) -> np.ndarray:
    arr = np.asarray(t, dtype=float)
    slack = _ALIGN_TOL * max(1.0, horizon)
    if np.any(arr < -slack) or np.any(arr > horizon + slack):
        raise OutOfRangeError(
            f"time {arr} outside the sampled horizon [0, {horizon}]"
        )
    return np.clip(arr, 0.0, horizon)


def locate_times(grid: TimeGrid, times) -> tuple[np.ndarray, np.ndarray]:
    """Check probe times against the horizon and find the mesh interval of each.

    Returns the times clipped to [0, horizon] and the index j of the last node
    at or before each, the pair :func:`read_block` takes.
    """
    x = _check_time(grid.horizon, times)
    return x, np.searchsorted(grid.nodes, x, side="right") - 1


def read_block(values: np.ndarray, grid: TimeGrid, located) -> np.ndarray:
    """Rows of node values, linear between nodes, read at the located probe times.

    ``values`` has shape (rows, steps + 1) and ``located`` comes from
    :func:`locate_times`; the result has shape (rows, len(times)).  The
    arithmetic is ``np.interp``'s, so each entry has the bits of
    ``np.interp(t, grid.nodes, row)``: the node value on a node, otherwise
    ``slope * (t - nodes[j]) + row[j]``, retried from the right node when
    that gives NaN.
    """
    x, j = located
    nodes = grid.nodes
    out = values[:, j]
    inside = np.flatnonzero(x != nodes[j])
    if inside.size:
        ji, xi = j[inside], x[inside]
        lo, hi = values[:, ji], values[:, ji + 1]
        with np.errstate(all="ignore"):
            slope = (hi - lo) / (nodes[ji + 1] - nodes[ji])
            vals = slope * (xi - nodes[ji]) + lo
            nan = np.isnan(vals)
            if nan.any():
                retry = slope * (xi - nodes[ji + 1]) + hi
                vals = np.where(nan, np.where(np.isnan(retry) & (lo == hi), lo, retry), vals)
        out[:, inside] = vals
    return out


def interp_h(clock: MultiplierPath, t):
    """Multiplier h(t), linear between grid nodes."""
    arr = _check_time(clock.horizon, t)
    out = np.interp(arr, clock.grid.nodes, clock.h)
    return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out


def interp_H(clock: MultiplierPath, t):
    """Clock H(t), linear between grid nodes (the exact left-endpoint continuation)."""
    arr = _check_time(clock.horizon, t)
    out = np.interp(arr, clock.grid.nodes, clock.H)
    return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out


def inverse_clock(clock: MultiplierPath, s):
    """Real time t with H(t) = s, by piecewise-linear inversion of the stored H.

    The clock is strictly increasing (h > 0), so the inverse is unique.
    """
    arr = np.asarray(s, dtype=float)
    top = float(clock.H[-1])
    slack = _ALIGN_TOL * max(1.0, top)
    if np.any(arr < -slack) or np.any(arr > top + slack):
        raise OutOfRangeError(f"clock value {arr} outside the sampled range [0, {top}]")
    out = np.interp(np.clip(arr, 0.0, top), clock.H, clock.grid.nodes)
    return float(out) if np.isscalar(s) or np.ndim(s) == 0 else out


def hitting_time(clock: MultiplierPath, level: float) -> float | None:
    """First time the clock reaches ``level``; None if it never does on the horizon."""
    if level < 0.0:
        raise InvalidInputError("clock levels are nonnegative")
    if level == 0.0:
        return 0.0
    if level > float(clock.H[-1]):
        return None
    return float(np.interp(level, clock.H, clock.grid.nodes))


def multiplier_moment(coeffs: CoefficientPair, p: float, t: float) -> float:
    """Closed-form moment E[h(t)**p] for deterministic coefficient tables.

    Equals exp(p int_0^t g + p(p-1)/2 int_0^t f^2); the piecewise-constant
    tables make both integrals exact.
    """
    if t < 0.0:
        raise InvalidInputError("moment time must be nonnegative")
    return math.exp(p * coeffs.integral_g(t) + 0.5 * p * (p - 1.0) * coeffs.integral_f2(t))


def limit_distribution(coeffs: CoefficientPair) -> tuple[float, float]:
    """Mean and variance of the Gaussian limit law of log h.

    Requires compactly supported coefficients (both tables end in a zero
    piece) so that mu = int_0^inf g and sigma2 = 1/2 int_0^inf f^2 are
    finite.  Past the cutoff log h = mu + int f dw - sigma2, and by the Ito
    isometry the stochastic integral has variance int f^2 = 2 sigma2, which
    agrees with :func:`multiplier_moment`.  Returns (mean, variance) =
    (mu - sigma2, int f^2).
    """
    if not coeffs.compactly_supported:
        raise UnsupportedInputError(
            "limit law needs compactly supported coefficients (final f and g pieces zero)"
        )
    cutoff = float(coeffs.breaks[-1])
    integral_f2 = coeffs.integral_f2(cutoff)
    mu = coeffs.integral_g(cutoff)
    return (mu - 0.5 * integral_f2, integral_f2)
