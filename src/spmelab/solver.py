"""Explicit conservative finite-volume solver for u_t = lap(u^m).

The scheme differences the fluxes A * d(u^m)/dn across cell faces, with
zero-flux boundaries, on either a uniform one-dimensional interval or a
uniform radial mesh in d >= 2 dimensions (face areas proportional to
r**(d-1)).  Under the time-step bound

    dt <= safety * dx**2 / (2 d * max(m u**(m-1)) + eps)

the update is monotone: it preserves nonnegativity, ordering between
solutions, and the discrete maximum principle, and it conserves the discrete
mass exactly up to rounding.

One kernel, :func:`_step`, takes every step: s stages of second-order
Runge-Kutta-Legendre (RKL2; Meyer, Balsara & Aslam, J. Comput. Phys. 257,
2014), each one flux evaluation.  With s = 1 it is the forward-Euler update
above, which every march takes by default.  s >= 2 stages stretch the step
to (s**2 + s - 2) / 4 of the bound; such a step conserves mass but is not
monotone, so it is private: :func:`evolve` and :func:`evolve_together` take
it for one state only inside :func:`_super_steps`, which the one reference
solve that reads a single state (``analysis.support_experiment``) enters.
That march also rezones: once its live columns span more than ``2 * _N``
cells, cell pairs merge into the cells of the grid with half as many on the
same box, the merged value being the pair's volume-weighted mean, which is
linear, monotone and conserves mass; its snapshots are stored back on the
configured grid.

Every march runs through the one loop in :func:`evolve_together`
(:func:`evolve` marches one state with it).  The loop steps only a window
around the live support, which it scans once per window it cuts, and again
only after a merge.
"""
from __future__ import annotations

import contextlib
import contextvars
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, StabilityError
from .exact import BarenblattParams, _radius2, barenblatt, sphere_area
from .noise import _inside, _interp, _maybe_float, _readonly
from .timechange import DeterministicSolution, TimeInterval

_DENOM_FLOOR = 1e-12
_MAX_STEPS = 50_000_000
_WINDOW_PAD = 32
# The most RKL2 stages in one super-step, and the largest fraction of the
# time marched so far that a super-step longer than one bound may span: the
# start from rough data and the front's motion need short steps.
_MAX_STAGES = 32
_ELAPSED = 0.02
# A super-stepped march merges cell pairs while its live columns span more
# than 2 * _N cells, so a merge leaves at least _N cells across the support.
_N = 200
# True inside _super_steps().
_SUPER_STEP = contextvars.ContextVar("super_step", default=False)


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform cell-centred mesh: an interval in 1-d or a radial mesh for d >= 2.
    Grids compare and hash by value, so equal settings give equal grids."""

    kind: str
    lo: float
    hi: float
    cells: int
    dim: int = 1

    def __post_init__(self):
        if self.kind not in ("cartesian", "radial"):
            raise InvalidInputError("grid kind must be 'cartesian' or 'radial'")
        if self.cells < 8:
            raise InvalidInputError("need at least 8 cells")
        if not self.hi > self.lo:
            raise InvalidInputError("grid needs hi > lo")
        if self.kind == "cartesian" and self.dim != 1:
            raise InvalidInputError("cartesian grids are one-dimensional")
        if self.kind == "radial":
            if self.lo != 0.0:
                raise InvalidInputError("radial grids start at r = 0")
            if self.dim < 2:
                raise InvalidInputError("radial grids are for dimension >= 2")
        # Geometry that floats cannot hold is rejected here, before it turns
        # into NaN masses or empty cells; the zero area of the r = 0 face is
        # legitimate.
        try:
            area = sphere_area(self.dim) if self.kind == "radial" else 1.0
        except OverflowError:
            raise InvalidInputError(f"sphere area overflows in dimension {self.dim}; lower the dimension") from None
        with np.errstate(all="ignore"):
            faces = np.linspace(self.lo, self.hi, self.cells + 1)
            centers = 0.5 * (faces[:-1] + faces[1:])
            if self.kind == "cartesian":
                volumes = np.full(self.cells, self.dx)
                areas = np.ones(self.cells + 1)
            else:
                volumes = area * (faces[1:] ** self.dim - faces[:-1] ** self.dim) / self.dim
                areas = area * faces ** (self.dim - 1)
        if not (
            math.isfinite(self.dx)
            and all(np.isfinite(arr).all() for arr in (faces, centers, volumes, areas))
            and volumes.min() > 0.0
        ):
            raise InvalidInputError(
                "grid geometry does not fit in floating point (a width, cell volume or face area is "
                "not finite, or a cell volume is zero); shrink the box or lower the dimension"
            )
        object.__setattr__(self, "_faces", _readonly(faces))
        object.__setattr__(self, "_centers", _readonly(centers))
        object.__setattr__(self, "_volumes", _readonly(volumes))
        object.__setattr__(self, "_areas", _readonly(areas))

    @property
    def dx(self) -> float:
        return (self.hi - self.lo) / self.cells

    @property
    def centers(self) -> np.ndarray:
        return self._centers

    @property
    def faces(self) -> np.ndarray:
        return self._faces

    @property
    def volumes(self) -> np.ndarray:
        """Cell volumes including the angular factor, so sums give d-dimensional integrals."""
        return self._volumes

    @property
    def face_areas(self) -> np.ndarray:
        return self._areas


def _field_values(values, shape: tuple) -> np.ndarray:
    """``values`` as a read-only float array of ``shape``, every entry finite and nonnegative."""
    arr = np.array(values, dtype=float)
    if arr.shape != shape:
        raise InvalidInputError("field values must match the grid cells")
    if not np.all(np.isfinite(arr) & (arr >= 0.0)):
        raise InvalidInputError("field values must be finite and nonnegative")
    return _readonly(arr)


@dataclass(frozen=True, eq=False)
class FieldState:
    """Nonnegative cell averages at one time."""

    grid: SpatialGrid
    time: float
    values: np.ndarray

    def __post_init__(self):
        if not self.time >= 0.0:
            raise InvalidInputError(f"field time must be nonnegative, not {self.time}")
        object.__setattr__(self, "values", _field_values(self.values, (self.grid.cells,)))

    @property
    def mass(self) -> float:
        return float(np.dot(self.values, self.grid.volumes))


def box_state(grid: SpatialGrid, height: float, half_width: float) -> FieldState:
    """Indicator-box initial data at time 0 of the given height on |x| <= half_width."""
    if not (height >= 0.0 and half_width > 0.0):
        raise InvalidInputError(f"box needs height >= 0 and half_width > 0, not {height} and {half_width}")
    values = np.where(np.abs(grid.centers) <= half_width, height, 0.0)
    return FieldState(grid=grid, time=0.0, values=values)


def barenblatt_state(grid: SpatialGrid, p: BarenblattParams, t0: float) -> FieldState:
    """Source-type profile sampled at cell centers at base time t0 > 0."""
    if grid.kind == "cartesian" and p.d != 1:
        raise InvalidInputError("cartesian grids carry d = 1 profiles")
    if grid.kind == "radial" and p.d != grid.dim:
        raise InvalidInputError("profile dimension must match the radial grid")
    if grid.kind == "radial":
        points = np.zeros((grid.cells, grid.dim))
        points[:, 0] = grid.centers
        values = barenblatt(p, t0, points)
    else:
        values = barenblatt(p, t0, grid.centers)
    return FieldState(grid=grid, time=t0, values=values)


def _bound(peak: float, m: float, scale: float, rate: float) -> float:
    """The monotonicity bound on dt for a field whose largest value is ``peak``,
    with ``scale = safety * dx**2`` and ``rate = 2 * dim * m``.  A peak whose
    power leaves the float range gives 0, which the march rejects."""
    try:
        denom = rate * peak ** (m - 1.0) if peak > 0.0 else 0.0
    except OverflowError:
        denom = math.inf
    return scale / max(denom, _DENOM_FLOOR)


def _live(u: np.ndarray) -> tuple:
    """The live columns [first, end) of ``u`` (rows of columns), [0, 1) when
    none is.

    A column is live when some row holds anything but +0.0 there (a -0.0
    counts, so its sign evolves as on the whole box).  Each flux evaluation
    spreads the live set by at most one cell, so the live columns widened by
    n on either side keep +0.0 just outside for the next n flux evaluations,
    and the window's edge faces carry exactly the zero flux of the whole box.
    """
    live = np.flatnonzero(np.bitwise_or.reduce(u.view(np.int64), 0))
    return (int(live[0]), int(live[-1]) + 1) if live.size else (0, 1)


def _merge(u: np.ndarray, grid: SpatialGrid) -> tuple:
    """``u`` (rows of columns on ``grid``) with cell pairs merged, and its grid
    of half the cells on the same box: cell i becomes
    (u[2i] V[2i] + u[2i+1] V[2i+1]) / V'[i], with V the volumes of ``grid``
    and V' those of the new grid."""
    coarse = SpatialGrid(grid.kind, grid.lo, grid.hi, grid.cells // 2, grid.dim)
    mass = u * grid.volumes
    return (mass[:, 0::2] + mass[:, 1::2]) / coarse.volumes, coarse


def _work(u: np.ndarray, dx: float, m: float) -> tuple:
    """Buffers for :func:`_step` on a window shaped like ``u`` (rows of
    columns), with the views it reads: u**m, the face fluxes between two zero
    columns (the no-flux walls or the window's edges), the divergence and the
    bits of ``u`` itself as uint64.  Then dx, m and a slot for the step length
    as 0-d float64 arrays: a ufunc takes them with about half the fixed cost of
    a Python float and runs the same float64 loop."""
    um, padded, div = np.empty_like(u), np.zeros((u.shape[0], u.shape[1] + 1)), np.empty_like(u)
    return (
        um, um[:, 1:], um[:, :-1], padded[:, 1:-1], padded[:, 1:], padded[:, :-1], div,
        u.view(np.uint64), np.array(dx, dtype=float), np.array(m, dtype=float), np.empty(()),
    )


def _divergence(u: np.ndarray, areas, work: tuple) -> np.ndarray:
    """The net face flux of every cell of ``u``, diff(A * diff(u**m) / dx) with
    zero flux at the window's edges, in ``work``'s divergence buffer; dividing
    it by the cell volumes gives the rate of change of the cell averages."""
    um, um_right, um_left, flux, flux_right, flux_left, div, _, dx, m, _ = work
    np.power(u, m, um)
    np.subtract(um_right, um_left, flux)
    if areas is not None:
        np.multiply(areas, flux, flux)
    np.divide(flux, dx, flux)
    np.subtract(flux_right, flux_left, div)
    return div


def _clamp(u: np.ndarray, volumes: np.ndarray) -> tuple:
    """Zero the negative values of ``u`` (rows of columns) in place.

    Returns the largest value after it and the mass zeroed per row, or None
    in place of that list when no value was negative.
    """
    lost = None
    if np.minimum.reduce(u, None) < 0.0:
        lost = []
        for row in u:
            negative = row < 0.0
            lost.append(float(-np.dot(row[negative], volumes[negative])) if negative.any() else 0.0)
            row[negative] = 0.0
    return float(np.maximum.reduce(u, None)), lost


# How many forward-Euler bounds an RKL2 step of s = 2, 3, ... stages may span.
_CAPACITY = np.array([(s * s + s - 2) / 4.0 for s in range(2, _MAX_STAGES + 1)])


@functools.cache
def _rkl2(s: int) -> tuple:
    """The coefficients of the s-stage RKL2 step: mu~_1, then
    (mu_j, nu_j, mu~_j, gamma~_j) for j = 2, ..., s; ``_rkl2(1)`` is
    forward Euler, ``(1.0, ())``.

    With b_j = (j**2 + j - 2) / (2 j (j + 1)), b_0 = b_1 = b_2 = 1/3,
    a_j = 1 - b_j and w_1 = 4 / (s**2 + s - 2): mu~_1 = b_1 w_1,
    mu_j = (2j - 1)/j b_j/b_{j-1}, nu_j = -(j - 1)/j b_j/b_{j-2},
    mu~_j = mu_j w_1 and gamma~_j = -a_{j-1} mu~_j.
    """
    if s == 1:
        return 1.0, ()
    b = [1.0 / 3.0] * 3 + [(j * j + j - 2) / (2.0 * j * (j + 1)) for j in range(3, s + 1)]
    w1 = 4.0 / (s * s + s - 2)
    stages = []
    for j in range(2, s + 1):
        mu = (2 * j - 1) / j * b[j] / b[j - 1]
        nu = -(j - 1) / j * b[j] / b[j - 2]
        stages.append((mu, nu, mu * w1, -(1.0 - b[j - 1]) * (mu * w1)))
    return b[1] * w1, tuple(stages)


def _step(u: np.ndarray, dt: float, s: int, areas, volumes: np.ndarray, work: tuple):
    """Advance ``u`` (rows of columns) by one s-stage RKL2 step (Meyer,
    Balsara & Aslam, J. Comput. Phys. 257, 2014) of length dt, in place;
    s = 1 is forward Euler.  ``work`` comes from :func:`_work` on ``u`` and
    holds dx and m.

    ``u`` holds whole columns of the field, ``volumes`` their cell volumes and
    ``areas`` the faces between them (None on a cartesian grid, whose faces
    all have area 1 and whose volumes all equal dx; multiplying by 1.0 and
    dividing by dx in place of a volume are exact).  With div from
    :func:`_divergence`, L(y) = div(y) / volume and the forward-Euler
    increment E = (dt * div(Y_0)) / volume of Y_0 = u, the stages are carried
    as the increments D_j = Y_j - Y_0:

        D_0 = 0,   D_1 = mu~_1 E,
        D_j = mu_j D_{j-1} + nu_j D_{j-2} + (mu~_j dt) L(Y_0 + D_{j-1}) + gamma~_j E,

    each sum taken left to right (the textbook Y_0 term drops out, since its
    weights sum to 1), and ``u`` becomes Y_0 + D_s.  With s = 1, mu~_1 = 1
    and D_1 = E exactly: forward Euler, u + (dt * div) / volume.  A row's bits
    do not depend on the other rows.

    Returns ``(peak, lost)``: the largest value after the step, with the bits
    of ``float(np.max(u))``, and the mass that zeroing negative values
    removed per row, or None when no value went negative.
    """
    bits, step = work[7], work[10]
    cell = work[8] if areas is None else volumes
    step[()] = dt
    div = _divergence(u, areas, work)
    np.multiply(step, div, div)
    d = np.divide(div, cell, div)
    if s > 1:
        # E leaves div's buffer, which each stage's flux reuses.
        mu1, stages = _rkl2(s)
        euler = d.copy()
        d, before = np.multiply(mu1, euler), np.zeros_like(u)
        y, term, new = np.empty_like(u), np.empty_like(u), np.empty_like(u)
        for mu, nu, mu_t, gamma_t in stages:
            np.add(u, d, y)
            rate = np.divide(_divergence(y, areas, work), cell, y)
            np.multiply(mu, d, new)
            np.multiply(nu, before, term)
            np.add(new, term, new)
            np.multiply(mu_t * dt, rate, term)
            np.add(new, term, new)
            np.multiply(gamma_t, euler, term)
            np.add(new, term, new)
            before, d, new = d, new, before
    np.add(u, d, u)
    # Floats with the sign bit clear order as their bits do, so the largest
    # bit pattern has its sign bit clear exactly when no value carries a sign,
    # and is then the largest value.  argmax gives its first index.
    peak = u.item(bits.argmax())
    if math.copysign(1.0, peak) > 0.0:
        return peak, None
    return _clamp(u, volumes)


@contextlib.contextmanager
def _super_steps():
    """Within this block a march of one state takes RKL2 super-steps in
    place of forward-Euler steps and rezones (see :func:`evolve_together`),
    and a march of several states is refused."""
    token = _SUPER_STEP.set(True)
    try:
        yield
    finally:
        _SUPER_STEP.reset(token)


@dataclass(frozen=True, eq=False)
class SnapshotTable:
    """Cell values on one grid at increasing times: row k of ``values`` holds
    the cells at ``times[k]`` and ``masses[k]`` their discrete mass.

    ``clamped_total`` is the negative mass the march zeroed (expected 0).
    ``steps``, ``dt_min`` and ``dt_max`` count the explicit steps that built
    the table and their length range (NaN when no step was taken); a
    super-stepped march counts its super-steps.  ``stages`` counts the flux
    evaluations, ``steps`` for forward Euler, and ``cell_steps`` sums the
    cells each of them advanced, at most ``cells * stages``, since a step
    advances only a window around the support.

    ``rezones`` counts the cell-pair merges of a super-stepped march (see
    :func:`evolve_together`).  After k of them each marched cell covers 2**k
    cells of ``grid``, and a row holds its value repeated over them: a read
    inside a merged cell is piecewise constant, and a read between two merged
    cells interpolates their values.
    """

    grid: SpatialGrid
    times: np.ndarray
    values: np.ndarray
    clamped_total: float = 0.0
    steps: int = 0
    dt_min: float = math.nan
    dt_max: float = math.nan
    cell_steps: int = 0
    stages: int = 0
    rezones: int = 0
    masses: np.ndarray = field(init=False)

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        if times.ndim != 1 or times.size < 1 or not np.all(np.diff(times) > 0.0):
            raise InvalidInputError("snapshots must be stored at increasing times")
        if not times[0] >= 0.0:
            raise InvalidInputError(f"field time must be nonnegative, not {times[0]}")
        values = _field_values(self.values, (times.size, self.grid.cells))
        # One np.dot per row, as FieldState.mass: values @ volumes may sum in another order.
        masses = np.array([np.dot(row, self.grid.volumes) for row in values])
        object.__setattr__(self, "times", _readonly(times))
        object.__setattr__(self, "masses", _readonly(masses))
        object.__setattr__(self, "values", values)

    @property
    def states(self) -> tuple:
        """The snapshots as :class:`FieldState` records, built when read."""
        return tuple(FieldState(self.grid, t, row) for t, row in zip(self.times.tolist(), self.values))

    @property
    def t_first(self) -> float:
        return float(self.times[0])

    @property
    def t_last(self) -> float:
        return float(self.times[-1])


def evolve(initial: FieldState, m: float, horizon: float, cfl_safety: float, snapshot_times) -> SnapshotTable:
    """March the explicit scheme from ``initial.time`` up to the absolute time ``horizon``.

    Snapshots are stored at ``snapshot_times`` (all inside the run window)
    plus the initial and final instants.  Each step uses the adaptive stable
    step for the safety factor ``cfl_safety`` in (0, 1], cropped to land
    exactly on the next snapshot.
    """
    return evolve_together((initial,), m, horizon, cfl_safety, snapshot_times)[0]


def _check_budget(u: np.ndarray, m: float, scale: float, rate: float, grid: SpatialGrid, span: float) -> None:
    """Raise the step-budget error now when marching ``span`` further from ``u``
    (on ``grid``) provably needs more than ``_MAX_STEPS - 1`` steps.

    Every step is at most ``_bound`` of the largest row peak, with ``scale``
    that of the coarsest grid the march can rezone to, stretched by the most
    bounds one step may span.  A peak is at
    least its row's volume-weighted mean, which never falls (the scheme
    conserves mass and clamping only adds; the 1e-6 margin covers rounding),
    and ``_bound`` decreases in the peak, so ``_bound`` of the largest mean
    caps every step.  The loop calls this after its first step, so an input
    that fails the loop's own checks there (say by overflowing in that step)
    keeps failing with their error.
    """
    volumes = grid.volumes
    mean = (1.0 - 1e-6) * float(np.max(u @ volumes)) / float(np.sum(volumes))
    if not span <= (_MAX_STEPS - 1) * _bound(mean, m, scale, rate):
        raise StabilityError("step budget exhausted before reaching the horizon")


def evolve_together(initials: tuple, m: float, horizon: float, cfl_safety: float, snapshot_times) -> tuple:
    """March several states with a single shared step sequence: the one
    marching loop, behind :func:`evolve` too.

    All states advance with the same dt, the minimum of their stable bounds,
    so order relations between them are preserved step by step by the
    monotone update.  The states must share one start time exactly, and
    every table holds the same times.

    Every step is one :func:`_step` of s stages: s = 1, forward Euler, by
    default; inside :func:`_super_steps` the one state takes RKL2 steps of up
    to ``_CAPACITY[-1]`` bounds, and at most ``_ELAPSED`` times the time
    marched so far when that exceeds one bound; each is cropped to the next
    snapshot and takes the fewest stages whose capacity covers it.

    Such a march also rezones before it cuts each window: while the live
    columns span more than ``2 * _N`` cells and the cell count is even, it
    merges cell pairs with :func:`_merge`.  The step already chosen stays
    stable, since merging quadruples dx**2 and never raises the peak; the
    next step takes the coarser grid's bound.  Snapshots hold each marched
    value repeated over the cells of the configured grid it covers.
    """
    if len(initials) < 1:
        raise InvalidInputError("at least one initial state is required")
    super_step = _SUPER_STEP.get()
    if super_step and len(initials) != 1:
        raise InvalidInputError("super-stepping marches one state")
    if not 0.0 < cfl_safety <= 1.0:
        raise InvalidInputError("cfl_safety must lie in (0, 1]")
    t0 = initials[0].time
    if any(st.time != t0 for st in initials):
        raise InvalidInputError("paired evolution needs a common start time")
    if not t0 < horizon < math.inf:
        raise InvalidInputError(f"horizon must be finite and exceed the initial time, not {horizon}")
    targets = sorted({float(s) for s in snapshot_times} | {horizon})
    for s in targets:
        if not t0 - 1e-12 <= s <= horizon + 1e-12:
            raise InvalidInputError(f"snapshot times must lie between the initial time and the horizon, not {s}")

    if not m > 1.0:
        raise InvalidInputError(f"the solver handles m > 1, not {m}")
    grid = initials[0].grid
    if any(st.grid != grid for st in initials):
        raise InvalidInputError("paired evolution needs a common grid")
    eps = 1e-12 * max(1.0, abs(horizon))
    targets = [s for s in targets if s > t0 + eps]
    for a, b in zip(targets, targets[1:]):
        if not b - a > eps:
            raise InvalidInputError(f"snapshot times {a!r} and {b!r} are too close to tell apart")

    u = np.stack([st.values for st in initials])
    snaps = np.empty((len(initials), len(targets) + 1, grid.cells))
    times = []
    t = t0
    clamped = [0.0] * len(initials)
    steps_taken = stages_taken = cell_steps = rezones = 0
    # Flux evaluations the current window still covers; 0 cuts one at once.
    margin = 0
    dt_min, dt_max = math.inf, 0.0
    # The grid marched on, the configured one until a merge.
    marched = grid
    scale, rate = cfl_safety * grid.dx**2, 2.0 * grid.dim * m
    # The most bounds one step may span, and the fewest cells merging can leave.
    reach = float(_CAPACITY[-1]) if super_step else 1.0
    fewest = grid.cells
    while super_step and fewest % 2 == 0 and fewest > 2 * _N:
        fewest //= 2
    areas = None if grid.kind == "cartesian" else grid.face_areas
    # _bound falls as the peak grows, so the bound of the largest value is the
    # least of the rows' bounds and the update is monotone for every row.
    # Each step returns the next peak; outside the window every value is +0.0,
    # so the window's largest value is the field's up to the sign of a zero,
    # which _bound does not read.
    peak = float(np.maximum.reduce(u, None))
    # An overflowing step leaves inf or NaN in u, which the next step's peak
    # check or the table's own check reports; numpy need not warn as well.
    with np.errstate(over="ignore", invalid="ignore"):
        for k, target in enumerate([t0, *targets]):
            while t < target - eps:
                if not math.isfinite(peak):
                    raise InvalidInputError("field values must be finite and nonnegative")
                # The bound, cropped to land on the target; a tie takes the
                # target, as min(target - t, bound) does.
                dt = bound = _bound(peak, m, scale, rate)
                if super_step:
                    dt = min(reach * bound, max(bound, _ELAPSED * (t - t0)))
                if not dt < target - t:
                    dt = target - t
                if not dt > 0.0:
                    raise InvalidInputError("dt must be positive")
                if steps_taken == 1:
                    coarsest = cfl_safety * ((grid.hi - grid.lo) / fewest) ** 2
                    _check_budget(u, m, reach * coarsest, rate, marched, horizon - t)
                # A forward-Euler step is one flux evaluation, a super-step the
                # fewest stages whose capacity covers dt.
                stages = 2 + int(np.searchsorted(_CAPACITY * bound, dt)) if super_step else 1
                # Outside the window every value stays +0.0 for the next margin
                # flux evaluations, so marching the window alone keeps every
                # bit.  A forward-Euler window covers _WINDOW_PAD steps, a
                # super-step's only itself.
                if stages > margin:
                    margin = stages + 1 if super_step else _WINDOW_PAD
                    first, end = _live(u)
                    while super_step and end - first > 2 * _N and marched.cells % 2 == 0:
                        u, marched = _merge(u, marched)
                        rezones += 1
                        scale = cfl_safety * marched.dx**2
                        areas = None if areas is None else marched.face_areas
                        first, end = _live(u)
                    lo, hi = max(first - margin, 0), min(end + margin, marched.cells)
                    window, volumes = u[:, lo:hi], marched.volumes[lo:hi]
                    inner = None if areas is None else areas[lo + 1 : hi]
                    work = _work(window, marched.dx, m)
                peak, lost = _step(window, dt, stages, inner, volumes, work)
                margin -= stages
                stages_taken += stages
                cell_steps += (hi - lo) * stages
                if lost is not None:
                    clamped = [c + x for c, x in zip(clamped, lost)]
                t += dt
                if dt < dt_min:
                    dt_min = dt
                if dt > dt_max:
                    dt_max = dt
                steps_taken += 1
                if steps_taken > _MAX_STEPS:
                    raise StabilityError("step budget exhausted before reaching the horizon")
            snaps[:, k] = np.repeat(u, grid.cells // marched.cells, axis=1)
            times.append(t)
    if not steps_taken:
        dt_min = dt_max = math.nan
    return tuple(
        SnapshotTable(
            grid, times, values, clamped_total=total, steps=steps_taken,
            dt_min=dt_min, dt_max=dt_max, cell_steps=cell_steps, stages=stages_taken, rezones=rezones,
        )
        for values, total in zip(snaps, clamped)
    )


def _bracket(table: SnapshotTable, t):
    """Bracketing snapshot indices (a, b) and weight lam for one time or an array of times."""
    times = table.times
    arr = _inside(t, table.t_first, table.t_last, "time", "the stored range")
    if times.size == 1:
        a = b = np.zeros(arr.shape, dtype=np.intp)
        lam = np.zeros(arr.shape)
    else:
        b = np.clip(np.searchsorted(times, arr, side="right"), 1, times.size - 1)
        a = b - 1
        lam = (arr - times[a]) / (times[b] - times[a])
    return a, b, lam


def _cells_at(table: SnapshotTable, bracket, cells) -> np.ndarray:
    """Values of ``cells`` at the bracketed times, their shapes broadcast."""
    a, b, lam = bracket
    return (1.0 - lam) * table.values[a, cells] + lam * table.values[b, cells]


def dense_values(table: SnapshotTable, t) -> np.ndarray:
    """Cell values at time t, linear between the bracketing snapshots.

    An array of times gives one row of cell values per time.
    """
    return _cells_at(table, [v[..., None] for v in _bracket(table, t)], np.arange(table.grid.cells))


def interp_mass(table: SnapshotTable, t):
    """Discrete mass at time t, linear between snapshots; an array of times gives an array."""
    a, b, lam = _bracket(table, t)
    return _maybe_float((1.0 - lam) * table.masses[a] + lam * table.masses[b])


def eval_on_centers(table: SnapshotTable, t, positions) -> np.ndarray:
    """Field at time t and the given positions, linear between cell centers.

    Positions outside the domain evaluate to 0; between the outermost cell
    center and the boundary the edge value is held.  Times and positions
    broadcast against each other as numpy arrays do.  Only the two cells
    around each position are read, with ``np.interp``'s arithmetic, so each
    value equals the one a scalar time gives, bit for bit.
    """
    g = table.grid
    pos = np.asarray(positions, dtype=float)
    if g.kind == "radial":
        pos = np.abs(pos)
    bracket = _bracket(table, t)
    out = _interp(pos, g.centers, lambda k: _cells_at(table, bracket, k))
    # A radial position is a radius, never below lo = 0.
    return np.where((pos < g.lo) | (pos > g.hi), 0.0, out)


def table_solution(table: SnapshotTable) -> DeterministicSolution:
    """Wrap a snapshot table as a deterministic base for the time change.

    Points follow :mod:`spmelab.exact`: on a 1-d table, signed coordinates of
    any shape; on a radial table of dimension d > 1, a signed scalar radius
    or an array whose last axis of length d holds one point per row.  Times
    and points (without that last axis) broadcast against each other as
    numpy arrays do, and a scalar time with a scalar point gives a float.
    """
    dim = table.grid.dim

    def evaluate(s, x):
        points = np.asarray(x, dtype=float)
        if dim > 1 and points.ndim:
            points = np.sqrt(_radius2(points, dim))
        return _maybe_float(eval_on_centers(table, s, points))

    return DeterministicSolution(
        evaluate=evaluate,
        interval=TimeInterval(table.t_first, table.t_last),
    )


def support_radius(state: FieldState) -> float:
    """Largest |cell center| where the field is positive (0 when it is nowhere)."""
    mask = state.values > 0.0
    if not np.any(mask):
        return 0.0
    return float(np.max(np.abs(state.grid.centers[mask])))


def lp_power_sum(values, grid: SpatialGrid, p: float) -> float:
    """Discrete integral of u**p (volume-weighted power sum) of cell values on the grid; 0 < p < inf."""
    if not p > 0.0:
        raise InvalidInputError(f"the power sum needs p > 0, not {p}")
    if not p < math.inf:
        raise InvalidInputError(f"the power sum needs a finite p, not {p}")
    return float(np.dot(np.asarray(values, dtype=float) ** p, grid.volumes))

