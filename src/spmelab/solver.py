"""Explicit conservative finite-volume solver for u_t = lap(u^m).

The scheme differences the fluxes A * d(u^m)/dn across cell faces, with
zero-flux boundaries, on either a uniform one-dimensional interval or a
uniform radial mesh in d >= 2 dimensions (face areas proportional to
r**(d-1)).  Under the time-step bound

    dt <= safety * dx**2 / (2 d * max(m u**(m-1)) + eps)

the update is monotone: it preserves nonnegativity, ordering between
solutions, and the discrete maximum principle, and it conserves the discrete
mass exactly up to rounding.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, OutOfRangeError, StabilityError
from .exact import BarenblattParams, barenblatt, sphere_area
from .timechange import DeterministicSolution, TimeInterval

_DENOM_FLOOR = 1e-12
_MAX_STEPS = 50_000_000


@dataclass(frozen=True, eq=False)
class SpatialGrid:
    """Uniform cell-centred mesh: an interval in 1-d or a radial mesh for d >= 2."""

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
        faces = np.linspace(self.lo, self.hi, self.cells + 1)
        centers = 0.5 * (faces[:-1] + faces[1:])
        if self.kind == "cartesian":
            volumes = np.full(self.cells, self.dx)
            areas = np.ones(self.cells + 1)
        else:
            area = sphere_area(self.dim)
            volumes = area * (faces[1:] ** self.dim - faces[:-1] ** self.dim) / self.dim
            areas = area * faces ** (self.dim - 1)
        for arr in (faces, centers, volumes, areas):
            arr.flags.writeable = False
        object.__setattr__(self, "_faces", faces)
        object.__setattr__(self, "_centers", centers)
        object.__setattr__(self, "_volumes", volumes)
        object.__setattr__(self, "_areas", areas)

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


@dataclass(frozen=True)
class SchemeConfig:
    """Explicit scheme controls: CFL safety factor and snapshot instants."""

    cfl_safety: float = 0.4
    snapshot_times: tuple = ()

    def __post_init__(self):
        if not 0.0 < self.cfl_safety <= 1.0:
            raise InvalidInputError("cfl_safety must lie in (0, 1]")


@dataclass(frozen=True, eq=False)
class FieldState:
    """Nonnegative cell averages at one time; ``clamped_mass`` records any
    negative mass zeroed by the step that produced this state (expected 0)."""

    grid: SpatialGrid
    time: float
    values: np.ndarray
    clamped_mass: float = 0.0

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.shape != (self.grid.cells,):
            raise InvalidInputError("field values must match the grid cells")
        if self.time < 0.0:
            raise InvalidInputError("field time must be nonnegative")
        if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
            raise InvalidInputError("field values must be finite and nonnegative")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def mass(self) -> float:
        return float(np.dot(self.values, self.grid.volumes))


def field_from(grid: SpatialGrid, profile, time: float = 0.0) -> FieldState:
    """Sample a profile (callable of the signed position or radius) on cell centers."""
    return FieldState(grid=grid, time=time, values=np.asarray(profile(grid.centers), dtype=float))


def box_state(grid: SpatialGrid, height: float, half_width: float, time: float = 0.0) -> FieldState:
    """Indicator-box initial data of the given height on |x| <= half_width."""
    if height < 0.0 or half_width <= 0.0:
        raise InvalidInputError("box needs height >= 0 and half_width > 0")
    values = np.where(np.abs(grid.centers) <= half_width, height, 0.0)
    return FieldState(grid=grid, time=time, values=values)


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


def _bound(peak: float, m: float, safety: float, grid: SpatialGrid) -> float:
    """The monotonicity bound on dt for a field whose largest value is ``peak``."""
    denom = 2.0 * grid.dim * m * peak ** (m - 1.0) if peak > 0.0 else 0.0
    return safety * grid.dx**2 / max(denom, _DENOM_FLOOR)


def stable_dt(state: FieldState, m: float, safety: float = 1.0) -> float:
    """Largest admissible explicit step for the current state."""
    peak = float(np.max(state.values)) if state.values.size else 0.0
    return _bound(peak, m, safety, state.grid)


def _work(u: np.ndarray) -> tuple:
    """Buffers for :func:`_advance` on rows shaped like ``u``, with the views it
    reads: u**m, the face fluxes between two zero columns (the no-flux walls),
    and the divergence."""
    rows, cells = u.shape
    um, padded, div = np.empty_like(u), np.zeros((rows, cells + 1)), np.empty_like(u)
    return um, um[:, 1:], um[:, :-1], padded[:, 1:-1], padded[:, 1:], padded[:, :-1], div


def _advance(u: np.ndarray, m: float, dt: float, grid: SpatialGrid, work: tuple):
    """Advance every row of ``u`` by one explicit step of length dt, in place.

    The flux is (A * diff(u**m)) / dx and the update u + (dt * div) / volume,
    in that order, so a row's bits do not depend on the other rows.  Negative
    values are zeroed; returns the mass that zeroed per row, or None when no
    value went negative.
    """
    um, um_right, um_left, flux, flux_right, flux_left, div = work
    np.power(u, m, out=um)
    np.subtract(um_right, um_left, out=flux)
    np.multiply(grid.face_areas[1:-1], flux, out=flux)
    np.divide(flux, grid.dx, out=flux)
    np.subtract(flux_right, flux_left, out=div)
    np.multiply(dt, div, out=div)
    np.divide(div, grid.volumes, out=div)
    np.add(u, div, out=u)
    if not u.min() < 0.0:
        return None
    lost = []
    for row in u:
        negative = row < 0.0
        lost.append(float(-np.dot(row[negative], grid.volumes[negative])) if negative.any() else 0.0)
        row[negative] = 0.0
    return lost


def step(state: FieldState, m: float, dt: float, safety: float = 1.0) -> FieldState:
    """One explicit conservative update of length dt.

    Raises :class:`StabilityError` when dt exceeds the monotonicity bound for
    the given safety factor.
    """
    if m <= 1.0:
        raise InvalidInputError("the solver handles m > 1")
    if dt <= 0.0:
        raise InvalidInputError("dt must be positive")
    bound = stable_dt(state, m, safety)
    if dt > bound * (1.0 + 1e-9):
        raise StabilityError(
            f"dt = {dt:.3e} exceeds the stability bound {bound:.3e} "
            f"(safety {safety:g}, dx {state.grid.dx:.3e})"
        )
    u = state.values[None, :].copy()
    lost = _advance(u, m, dt, state.grid, _work(u))
    mass = lost[0] if lost else 0.0
    return FieldState(grid=state.grid, time=state.time + dt, values=u[0], clamped_mass=mass)


@dataclass(frozen=True, eq=False)
class SnapshotTable:
    """States stored at increasing times, with the masses and the (snapshots, cells) values.

    ``steps``, ``dt_min`` and ``dt_max`` count the explicit steps that built
    the table and their length range (NaN when no step was taken).
    """

    states: tuple
    m: float
    scheme: SchemeConfig
    times: np.ndarray = field(init=False)
    masses: np.ndarray = field(init=False)
    values: np.ndarray = field(init=False)
    clamped_total: float = 0.0
    steps: int = 0
    dt_min: float = math.nan
    dt_max: float = math.nan

    def __post_init__(self):
        times = np.array([s.time for s in self.states], dtype=float)
        if times.size < 1 or not np.all(np.diff(times) > 0.0):
            raise InvalidInputError("snapshots must be stored at increasing times")
        masses = np.array([s.mass for s in self.states], dtype=float)
        values = np.stack([s.values for s in self.states])
        for arr in (times, masses, values):
            arr.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "values", values)

    @property
    def grid(self) -> SpatialGrid:
        return self.states[0].grid

    @property
    def t_first(self) -> float:
        return float(self.times[0])

    @property
    def t_last(self) -> float:
        return float(self.times[-1])


def evolve(initial: FieldState, m: float, horizon: float, cfg: SchemeConfig) -> SnapshotTable:
    """March the explicit scheme from ``initial.time`` up to the absolute time ``horizon``.

    Snapshots are stored at ``cfg.snapshot_times`` (all inside the run window)
    plus the initial and final instants.  Each step uses the adaptive stable
    step, cropped to land exactly on the next snapshot.
    """
    return _march((initial,), m, horizon, cfg)[0]


def evolve_together(
    initials: tuple,
    m: float,
    horizon: float,
    cfg: SchemeConfig,
) -> tuple:
    """March several states with a single shared step sequence.

    All states advance with the same dt, the minimum of their stable bounds,
    so order relations between them are preserved step by step by the
    monotone update.  The states must share a start time.
    """
    return _march(initials, m, horizon, cfg)


def _march(initials: tuple, m: float, horizon: float, cfg: SchemeConfig) -> tuple:
    """The one marching loop behind :func:`evolve` and :func:`evolve_together`."""
    if len(initials) < 1:
        raise InvalidInputError("at least one initial state is required")
    t0 = initials[0].time
    for st in initials:
        if abs(st.time - t0) > 1e-12 * max(1.0, abs(t0)):
            raise InvalidInputError("paired evolution needs a common start time")
    if not horizon > t0:
        raise InvalidInputError("horizon must exceed the initial time")
    targets = sorted({float(s) for s in cfg.snapshot_times} | {horizon})
    for s in targets:
        if s < t0 - 1e-12 or s > horizon + 1e-12:
            raise InvalidInputError("snapshot times must lie between the initial time and the horizon")

    if m <= 1.0:
        raise InvalidInputError("the solver handles m > 1")
    if len({(g.kind, g.lo, g.hi, g.cells, g.dim) for g in (st.grid for st in initials)}) > 1:
        raise InvalidInputError("paired evolution needs a common grid")
    grid = initials[0].grid

    u = np.stack([st.values for st in initials])
    work = _work(u)
    snaps = [[st] for st in initials]
    clocks = [st.time for st in initials]
    clamped = [st.clamped_mass for st in initials]
    lost = None
    steps_taken = 0
    dt_min, dt_max = math.inf, 0.0
    eps = 1e-12 * max(1.0, abs(horizon))
    safety = cfg.cfl_safety
    for target in targets:
        if target <= t0 + eps:
            continue
        while clocks[0] < target - eps:
            dt = target - clocks[0]
            for peak in u.max(axis=1).tolist():
                if not math.isfinite(peak):
                    raise InvalidInputError("field values must be finite and nonnegative")
                dt = min(dt, _bound(peak, m, safety, grid))
            if not dt > 0.0:
                raise InvalidInputError("dt must be positive")
            # dt is the least of the rows' bounds, so step's stability check holds for every row.
            lost = _advance(u, m, dt, grid, work)
            if lost is not None:
                clamped = [c + x for c, x in zip(clamped, lost)]
            clocks = [c + dt for c in clocks]
            dt_min, dt_max = min(dt_min, dt), max(dt_max, dt)
            steps_taken += 1
            if steps_taken > _MAX_STEPS:
                raise StabilityError("step budget exhausted before reaching the horizon")
        for i, snap in enumerate(snaps):
            mass = lost[i] if lost else 0.0
            snap.append(FieldState(grid=snap[0].grid, time=clocks[i], values=u[i], clamped_mass=mass))
    if not steps_taken:
        dt_min = dt_max = math.nan
    return tuple(
        SnapshotTable(
            states=tuple(snap), m=m, scheme=cfg, clamped_total=total,
            steps=steps_taken, dt_min=dt_min, dt_max=dt_max,
        )
        for snap, total in zip(snaps, clamped)
    )


def _bracket(table: SnapshotTable, t):
    """Bracketing snapshot indices (a, b) and weight lam for one time or an array of times."""
    times = table.times
    arr = np.asarray(t, dtype=float)
    slack = 1e-9 * max(1.0, table.t_last)
    outside = (arr < times[0] - slack) | (arr > times[-1] + slack)
    if np.any(outside):
        raise OutOfRangeError(
            f"time {float(arr[outside].flat[0]):.6g} outside the stored range "
            f"[{times[0]:.6g}, {times[-1]:.6g}]"
        )
    arr = np.clip(arr, times[0], times[-1])
    if times.size == 1:
        a = b = np.zeros(arr.shape, dtype=np.intp)
        lam = np.zeros(arr.shape)
    else:
        b = np.clip(np.searchsorted(times, arr, side="right"), 1, times.size - 1)
        a = b - 1
        lam = (arr - times[a]) / (times[b] - times[a])
    return a, b, lam


def _cells_at(table: SnapshotTable, t, cells: np.ndarray) -> np.ndarray:
    """Values of the listed cells at time(s) t, shape ``shape(t) + (cells.size,)``."""
    a, b, lam = (v[..., None] for v in _bracket(table, t))
    return (1.0 - lam) * table.values[a, cells] + lam * table.values[b, cells]


def dense_values(table: SnapshotTable, t) -> np.ndarray:
    """Cell values at time t, linear between the bracketing snapshots.

    An array of times gives one row of cell values per time.
    """
    return _cells_at(table, t, np.arange(table.grid.cells))


def interp_mass(table: SnapshotTable, t):
    """Discrete mass at time t, linear between snapshots; an array of times gives an array."""
    a, b, lam = _bracket(table, t)
    out = (1.0 - lam) * table.masses[a] + lam * table.masses[b]
    return float(out) if np.ndim(t) == 0 else out


def eval_on_centers(table: SnapshotTable, t, positions) -> np.ndarray:
    """Field at time t and the given positions, linear between cell centers.

    Positions outside the domain evaluate to 0; between the outermost cell
    center and the boundary the edge value is held.  An array of times gives
    shape ``shape(t) + shape(positions)``.  Only the two cells around each
    position are read, with ``np.interp``'s arithmetic, so each value equals
    the one a scalar time gives, bit for bit.
    """
    g = table.grid
    centers = g.centers
    shape = np.shape(positions)
    pos = np.asarray(positions, dtype=float).reshape(-1)
    if g.kind == "radial":
        pos = np.abs(pos)
    # As np.interp: the edge value outside [c_0, c_last], the node value on a
    # node, and slope * (x - c_k) + v_k strictly between c_k and c_k+1.
    k = np.clip(np.searchsorted(centers, pos, side="right") - 1, 0, centers.size - 1)
    k1 = np.minimum(k + 1, centers.size - 1)
    on_node = (pos <= centers[0]) | (pos >= centers[-1]) | (pos == centers[k])
    pair = _cells_at(table, t, np.concatenate((k, k1)))
    near, far = pair[..., : pos.size], pair[..., pos.size :]
    slope = (far - near) / np.where(on_node, 1.0, centers[k1] - centers[k])
    out = np.where(on_node, near, slope * (pos - centers[k]) + near)
    if g.kind == "cartesian":
        out = np.where((pos < g.lo) | (pos > g.hi), 0.0, out)
    else:
        out = np.where(pos > g.hi, 0.0, out)
    return out.reshape(np.shape(t) + shape)


def dense_eval(table: SnapshotTable, t: float, x) -> float:
    """Scalar probe of the stored solution at (t, x)."""
    point = np.asarray(x, dtype=float)
    radius = math.sqrt(float(np.sum(point * point))) if point.ndim else abs(float(point))
    return float(eval_on_centers(table, t, radius))


def table_solution(table: SnapshotTable) -> DeterministicSolution:
    """Wrap a snapshot table as a deterministic base for the time change."""

    def evaluate(s, x):
        arr = np.asarray(x, dtype=float)
        if arr.ndim <= 1 and table.grid.dim == 1:
            out = eval_on_centers(table, s, arr)
            return float(out) if arr.ndim == 0 else out
        return dense_eval(table, s, x)

    return DeterministicSolution(
        evaluate=evaluate,
        interval=TimeInterval(table.t_first, table.t_last),
        tag=f"table(m={table.m:g}, cells={table.grid.cells})",
    )


def support_radius(state: FieldState, threshold: float = 0.0) -> float:
    """Largest |cell center| whose value exceeds the threshold (0 when none does)."""
    mask = state.values > threshold
    if not np.any(mask):
        return 0.0
    return float(np.max(np.abs(state.grid.centers[mask])))


def lp_power_sum(state_or_values, grid: SpatialGrid | None, p: float) -> float:
    """Discrete integral of u**p (volume-weighted power sum)."""
    if isinstance(state_or_values, FieldState):
        values, grid = state_or_values.values, state_or_values.grid
    else:
        values = np.asarray(state_or_values, dtype=float)
        if grid is None:
            raise InvalidInputError("values need a grid")
    return float(np.dot(values**p, grid.volumes))


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
