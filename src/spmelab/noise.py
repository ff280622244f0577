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
own generator.  :func:`_clock_blocks` samples many paths at once as rows of
2-d arrays, allocated once per sweep and refilled for every block in place
by private helpers with ``out=`` ufuncs; the one-path calls
(:func:`sample_brownian`, :func:`multiplier_path`) run the same helpers on
a single row, so a path's bits do not depend on the block it is sampled in.

Every piecewise-linear read gives the bits of the scalar ``np.interp`` call.
The one-path reads (:func:`interp_h`, :func:`interp_H`,
:func:`inverse_clock`) call ``np.interp`` itself.  Reads of many rows at
once go through one private kernel, :func:`_interp`, which takes a gather
``at(k)`` in place of fp: :func:`read_block` reads the rows of a block at the
times :func:`locate_times` checked, and the solver's table reads gather cells
at broadcast times.  A scalar query gives a float (:func:`_maybe_float`).

A block's seeds come from one vectorised uint64 splitmix64 pass
(``mix_seed`` stays as the scalar reference), are hashed into numpy's
``SeedSequence`` words in one uint32 pass, and each row's words go to PCG64,
which seeds itself from them exactly as from ``PCG64(seed)``.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, OutOfRangeError, UnsupportedInputError

_MASK64 = 0xFFFFFFFFFFFFFFFF

# Absolute slack used when matching coefficient breakpoints to mesh nodes and
# when checking a read against its range.
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


def _mix_seeds(master: int, start: int, stop: int) -> np.ndarray:
    """``mix_seed(master, i)`` for every i in range(start, stop), as one uint64
    array; uint64 products wrap as the masked Python ones do."""
    z = np.arange(start, stop, dtype=np.uint64)
    z ^= np.uint64(int(master) & _MASK64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


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
        if not (horizon > 0.0 and steps >= 1):
            raise InvalidInputError(f"uniform grid needs horizon > 0 and steps >= 1, not {horizon} and {steps}")
        return cls(np.linspace(0.0, float(horizon), int(steps) + 1))

    @property
    def horizon(self) -> float:
        return float(self.nodes[-1])

    @property
    def steps(self) -> int:
        return self.nodes.size - 1


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
        if not np.all(np.diff(br) > 0.0):
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
            if not np.all(gaps <= _ALIGN_TOL * max(1.0, grid.horizon)):
                raise InvalidInputError(
                    "coefficient breakpoints do not lie on the time grid"
                )
        idx = self._interval_index(grid.nodes[:-1])
        return self.f_values[idx], self.g_values[idx]

    def _integral(self, values: np.ndarray, t: float) -> float:
        if not t >= 0.0:
            raise InvalidInputError(f"integration time must be nonnegative, not {t}")
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


_MASK32 = 0xFFFFFFFF


def _hash_constants(init: int, mult: int, count: int) -> list:
    """The (xor, multiply) constant pairs of ``count`` successive SeedSequence
    hash steps: each step xors with the running constant, advances it by
    ``mult`` and multiplies by the new value."""
    pairs = []
    for _ in range(count):
        pairs.append((init, init * mult & _MASK32))
        init = pairs[-1][1]
    return pairs


def _columns(pairs) -> tuple:
    """Constant pairs as two (len(pairs), 1) uint32 columns, the xor and the
    multiply constants, each broadcasting one constant along a row of words."""
    table = np.array(pairs, dtype=np.uint32)
    return np.ascontiguousarray(table[:, :1]), np.ascontiguousarray(table[:, 1:])


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): 4 + 12 steps
# fill and mix the pool, and 8 steps hash it out into the state words.
_POOL_PAIRS = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_FILL_HASH = _columns(_POOL_PAIRS[:4])


def _mix_columns(src: int) -> tuple:
    """The constants that mix pool word ``src`` into the other three: the
    next three steps, in destination order, with a placeholder in the row of
    ``src`` itself, whose result is discarded."""
    steps = iter(_POOL_PAIRS[4 + 3 * src : 7 + 3 * src])
    return _columns([(0, 0) if dst == src else next(steps) for dst in range(4)])


_MIX_HASH = tuple(_mix_columns(src) for src in range(4))
# Hashing out takes the pool's four words twice, so the eight constants are
# laid out as two rows of four.
_STATE_HASH = tuple(c.reshape(2, 4, 1) for c in _columns(_hash_constants(0x8B51F9DD, 0x58F38DED, 8)))
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_U16 = np.uint32(16)


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` of every seed in the
    uint64 array ``seeds``, as the rows of a (len(seeds), 4) uint64 array
    computed in one uint32 pass.

    A 64-bit seed is at most two 32-bit entropy words, fewer than the pool's
    four, so every seed takes the same hash steps: the pool starts as
    (low word, high word, 0, 0) (numpy hashes a seed below 2**32, which has
    one entropy word, as if its second word were 0), each word is mixed into
    the other three in turn, and the pool is hashed out into eight words read
    as four little-endian uint64.  Every step works on whole rows of the pool,
    so the cost of one call hardly depends on the number of seeds.
    """
    s = np.asarray(seeds, dtype="<u8")
    pool = np.zeros((4, s.size), dtype=np.uint32)
    pool[:2] = s.view("<u4").reshape(s.size, 2).T  # low and high word of each seed
    pool ^= _FILL_HASH[0]
    pool *= _FILL_HASH[1]
    pool ^= pool >> _U16
    for src, (xor, mult) in enumerate(_MIX_HASH):
        # All four rows are mixed at once; pool[src] then gets its own value back.
        kept = pool[src].copy()
        hashed = kept ^ xor
        hashed *= mult
        hashed ^= hashed >> _U16
        hashed *= _MIX_MULT_R
        pool *= _MIX_MULT_L
        pool -= hashed
        pool ^= pool >> _U16
        pool[src] = kept
    state = pool ^ _STATE_HASH[0]
    state *= _STATE_HASH[1]
    state ^= state >> _U16
    return state.reshape(8, s.size).T.astype("<u4", order="C").view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _words_seed_sequence() -> type:
    """A seed sequence that hands PCG64 one row of :func:`_seed_words`.

    The class is built on first use, so importing the package does not load
    ``numpy.random``.  PCG64 accepts only an ``ISeedSequence`` in place of a
    seed, and asks it for ``generate_state(4, np.uint64)``; any other request
    means numpy's seeding changed, so it raises rather than move the streams.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise RuntimeError(
                    f"seed words serve generate_state(4, uint64), not ({n_words}, {np.dtype(dtype)})"
                )
            return self.words

    return SeedWords


def _fill_brownian(w: np.ndarray, scratch: np.ndarray, grid: TimeGrid, seeds: np.ndarray) -> None:
    """Draw one Brownian path on ``grid`` into each row of ``w``, in place.

    Row r draws its increments into row r of ``scratch`` (shape (rows,
    steps)) from its own PCG64 generator, seeded with ``seeds[r]`` (uint64)
    through :func:`_seed_words`.
    """
    seed_words = _words_seed_sequence()
    for row, words in zip(scratch, _seed_words(seeds)):
        np.random.Generator(np.random.PCG64(seed_words(words))).standard_normal(out=row)
    scratch *= np.sqrt(np.diff(grid.nodes))
    w[:, 0] = 0.0
    np.cumsum(scratch, axis=1, out=w[:, 1:])


def sample_brownian(grid: TimeGrid, seed: int) -> NoisePath:
    """Sample one Brownian path on ``grid``; identical inputs give identical bits."""
    w = np.empty((1, grid.nodes.size))
    _fill_brownian(w, np.empty((1, grid.steps)), grid, np.array([int(seed) & _MASK64], dtype=np.uint64))
    return NoisePath(grid=grid, w=w[0], seed=seed)


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


def _clock_columns(grid: TimeGrid, coeffs: CoefficientPair, gamma: float) -> tuple:
    """The per-interval factors of :func:`_fill_multiplier` on ``grid``, computed
    once per sweep: f, g dt, 1/2 f^2 dt, dt, and the clock exponent gamma - 1."""
    if not gamma >= 1.0:
        raise InvalidInputError(f"clock exponent gamma must be >= 1, not {gamma}")
    f_vals, g_vals = coeffs.values_on(grid)
    dt = np.diff(grid.nodes)
    return f_vals, g_vals * dt, 0.5 * f_vals**2 * dt, dt, gamma - 1.0


def _fill_multiplier(logh, h, H, w: np.ndarray, scratch: np.ndarray, columns: tuple) -> None:
    """Fill log h, h and H of the Brownian rows ``w`` in place.

    ``scratch`` has shape (rows, steps) and ``columns`` comes from
    :func:`_clock_columns`.  The operations and their order are those of
    ``g dt + f diff(w) - 1/2 f^2 dt``, its running sum, ``exp``, and the
    running sum of ``h[:, :-1] ** (gamma - 1) * dt``, so every value has the
    bits of that expression.
    """
    f_vals, g_dt, half_f2_dt, dt, power = columns
    np.subtract(w[:, 1:], w[:, :-1], out=scratch)
    np.multiply(f_vals, scratch, out=scratch)
    np.add(g_dt, scratch, out=scratch)
    np.subtract(scratch, half_f2_dt, out=scratch)
    logh[:, 0] = 0.0
    np.cumsum(scratch, axis=1, out=logh[:, 1:])
    with np.errstate(over="ignore"):
        np.exp(logh, out=h)
    # Reductions in place of elementwise tests: a NaN fails the first, as it
    # fails h > 0, and an empty block passes both.
    if not np.minimum.reduce(h, None, initial=np.inf) > 0.0:
        raise InvalidInputError(
            "multiplier underflowed to zero; shorten the horizon or the drift"
        )
    if not np.maximum.reduce(h, None, initial=0.0) < np.inf:
        raise InvalidInputError(
            "multiplier overflowed to infinity; shorten the horizon or the drift"
        )
    # The in-place operator picks numpy's function for the exponent (square,
    # sqrt, ... or power) exactly as ``h ** (gamma - 1)`` does.
    np.copyto(scratch, h[:, :-1])
    H[:, 0] = 0.0
    with np.errstate(over="ignore"):
        scratch **= power
        scratch *= dt
        np.cumsum(scratch, axis=1, out=H[:, 1:])


def multiplier_path(path: NoisePath, coeffs: CoefficientPair, gamma: float) -> MultiplierPath:
    """Build the multiplier and clock for homogeneity degree ``gamma`` >= 1."""
    columns = _clock_columns(path.grid, coeffs, gamma)
    logh, h, H = (np.empty((1, path.w.size)) for _ in range(3))
    _fill_multiplier(logh, h, H, path.w[None, :], np.empty((1, path.grid.steps)), columns)
    return MultiplierPath(
        grid=path.grid,
        gamma=float(gamma),
        logh=_readonly(logh[0]),
        h=_readonly(h[0]),
        H=_readonly(H[0]),
        path=path,
        coeffs=coeffs,
    )


# Clock sweeps sample paths in blocks of BLOCK_VALUES // (steps + 1) rows (at
# least one), so each block array holds about BLOCK_VALUES float64 values.
BLOCK_VALUES = 65536


def _clock_blocks(grid: TimeGrid, coeffs: CoefficientPair, m: float, seed: int, n_paths: int, take) -> None:
    """Call ``take(start, w, logh, h, H)`` per block of paths; row r is path ``start + r``.

    The block arrays are allocated once per sweep and every block is drawn
    into them in place, the last into their leading rows, so memory stays
    bounded for any number of paths.  A block's arrays are therefore valid
    only during its ``take`` call: ``take`` copies whatever it keeps.
    """
    rows = max(1, min(n_paths, BLOCK_VALUES // (grid.steps + 1)))
    columns = _clock_columns(grid, coeffs, m)
    w, logh, h, H = (np.empty((rows, grid.steps + 1)) for _ in range(4))
    scratch = np.empty((rows, grid.steps))
    for start in range(0, n_paths, rows):
        n = min(rows, n_paths - start)
        _fill_brownian(w[:n], scratch[:n], grid, _mix_seeds(seed, start, start + n))
        _fill_multiplier(logh[:n], h[:n], H[:n], w[:n], scratch[:n], columns)
        take(start, w[:n], logh[:n], h[:n], H[:n])


def _inside(values, lo: float, hi: float, what: str, where: str) -> np.ndarray:
    """``values`` as a float array clipped to [lo, hi], once every entry lies
    in [lo, hi] up to the slack ``_ALIGN_TOL * max(1, hi)``.

    One test serves both faults, since a NaN fails every comparison: a NaN
    raises :class:`InvalidInputError`, any other entry outside the range
    :class:`OutOfRangeError`, and each message names ``what`` and the values.
    """
    arr = np.asarray(values, dtype=float)
    slack = _ALIGN_TOL * max(1.0, hi)
    if not np.all((arr >= lo - slack) & (arr <= hi + slack)):
        if np.isnan(arr).any():
            raise InvalidInputError(f"{what} {arr} is not a number")
        raise OutOfRangeError(f"{what} {arr} outside {where} [{lo:g}, {hi:g}]")
    return np.clip(arr, lo, hi)


def _maybe_float(value):
    """A 0-d result as a float, any other as it is: a scalar query gives a float."""
    return float(value) if np.ndim(value) == 0 else value


def _interp(x: np.ndarray, xp: np.ndarray, at):
    """``np.interp(x, xp, fp)`` with the same bits, where ``at(k)`` gives fp at
    the index array k, so rows of node values or a broadcast gather of table
    cells are read in one call.

    ``xp`` is strictly increasing with at least two nodes.  As in np.interp, a
    NaN x gives NaN; on a node, and at or beyond an edge, the node value;
    strictly between xp[k] and xp[k+1], ``slope * (x - xp[k]) + fp[k]``,
    retried from the right node when that gives NaN, and fp[k] when the retry
    gives NaN too and fp[k] == fp[k+1].
    """
    k = np.clip(np.searchsorted(xp, x, side="right") - 1, 0, xp.size - 1)
    near = at(k)
    on_node = (x <= xp[0]) | (x >= xp[-1]) | (x == xp[k])
    if on_node.all():
        return near
    k1 = np.minimum(k + 1, xp.size - 1)
    far = at(k1)
    with np.errstate(all="ignore"):
        slope = (far - near) / (xp[k1] - xp[k])
        out = np.where(on_node, near, slope * (x - xp[k]) + near)
        retry = np.isnan(out) & ~np.isnan(x)
        if retry.any():
            right = slope * (x - xp[k1]) + far
            out = np.where(retry, np.where(np.isnan(right) & (near == far), near, right), out)
    return out


def locate_times(grid: TimeGrid, times) -> np.ndarray:
    """Probe times checked against the horizon and clipped to [0, horizon],
    as :func:`read_block` takes them."""
    return _inside(times, 0.0, grid.horizon, "time", "the sampled horizon")


def read_block(values: np.ndarray, grid: TimeGrid, x: np.ndarray) -> np.ndarray:
    """Rows of node values, linear between nodes, read at the probe times ``x``.

    ``values`` has shape (rows, steps + 1) and ``x`` comes from
    :func:`locate_times`; the result has shape (rows, len(x)), and each entry
    has the bits of ``np.interp(t, grid.nodes, row)``.
    """
    return _interp(x, grid.nodes, lambda k: values[:, k])


def _read(t, xp: np.ndarray, fp: np.ndarray, what: str, where: str):
    """``np.interp(t, xp, fp)`` once every t lies in [0, xp[-1]]; a scalar t gives a float."""
    return _maybe_float(np.interp(_inside(t, 0.0, float(xp[-1]), what, where), xp, fp))


def interp_h(clock: MultiplierPath, t):
    """Multiplier h(t), linear between grid nodes."""
    return _read(t, clock.grid.nodes, clock.h, "time", "the sampled horizon")


def interp_H(clock: MultiplierPath, t):
    """Clock H(t), linear between grid nodes (the exact left-endpoint continuation)."""
    return _read(t, clock.grid.nodes, clock.H, "time", "the sampled horizon")


def inverse_clock(clock: MultiplierPath, s):
    """Real time t with H(t) = s, by piecewise-linear inversion of the stored H.

    The clock is strictly increasing (h > 0), so the inverse is unique.
    """
    return _read(s, clock.H, clock.grid.nodes, "clock value", "the sampled range")


def hitting_time(clock: MultiplierPath, level: float) -> float | None:
    """First time the clock reaches ``level``; None if it never does on the horizon."""
    if not level >= 0.0:
        raise InvalidInputError(f"clock level must be nonnegative, not {level}")
    if level > float(clock.H[-1]):
        return None
    return float(np.interp(level, clock.H, clock.grid.nodes))


def multiplier_moment(coeffs: CoefficientPair, p: float, t: float) -> float:
    """Closed-form moment E[h(t)**p] for deterministic coefficient tables.

    Equals exp(p int_0^t g + p(p-1)/2 int_0^t f^2); the piecewise-constant
    tables make both integrals exact.
    """
    if not math.isfinite(p):
        raise InvalidInputError(f"moment order p must be finite, not {p}")
    exponent = p * coeffs.integral_g(t)
    integral_f2 = coeffs.integral_f2(t)
    # With no noise up to t the f**2 term is left out: its factor 0.5 p (p - 1)
    # overflows to inf for a huge p, and inf * 0 is NaN.
    if integral_f2:
        exponent += 0.5 * p * (p - 1.0) * integral_f2
    try:
        moment = math.exp(exponent)
    except OverflowError:
        moment = math.inf
    if not moment < math.inf:
        raise InvalidInputError(f"moment of order p = {p} at t = {t} is not a finite float")
    return moment


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
