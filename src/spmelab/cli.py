"""Batch front door: parse a config, run one subcommand, write CSV artifacts.

Every run writes, into the output directory: the subcommand's CSV files, one
plot-description text file per CSV (column mapping and axis labels, no
plotting dependency; ``_write_table`` writes both), a canonical config echo,
and manifest.txt with the version tag, seeds, wall time, and the pass/fail
state of every embedded check.  Exit status: 0 when all checks pass, 1 when
some check fails, 2 on configuration or runtime errors, artifacts that cannot
be written included.  CSV integers print in decimal, bools as true/false and
floats with 17 significant digits, with '\n' line ends, so identical configs
give byte-identical artifacts.  The writer renders each chunk of rows with one
``%`` call, and formats a value that repeats within a chunk of a column once;
repeats are found by the value's bits, so -0.0 still prints as -0.

``initial = csv:PATH`` reads a header row and then x,value rows with x
strictly increasing; the profile is linear between rows, 0 outside them,
and negative values are clipped to 0.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    McConfig,
    asymptotics_experiment,
    clock_sweep,
    limit_law_statistics,
    mc_lp_bound,
    mc_mean_mass,
    support_experiment,
)
from .config import RunConfig, apply_overrides, parse_config, serialize_config
from .errors import ConfigError, SpmeError
from .exact import (
    BarenblattParams,
    QuadraticPressureParams,
    barenblatt_solution,
    linear_pressure_base,
    quadratic_pressure_solution,
)
from .noise import CoefficientPair, TimeGrid, _clock_blocks
from .solver import (
    FieldState,
    SpatialGrid,
    barenblatt_state,
    box_state,
    eval_on_centers,
    evolve,
)


# Rows are rendered and written this many at a time, so the Python objects of
# a column exist for one chunk only and peak memory does not grow with the file.
_CHUNK_ROWS = 4096


def _column(values) -> tuple:
    """A column's printf format and the array its cells are read from."""
    arr = np.asarray(values)
    if arr.dtype.kind == "b":
        return "%s", np.where(arr, "true", "false")
    if arr.dtype.kind in "iu":
        return "%d", arr
    return "%.17g", arr.astype(float, copy=False)


def _cells(fmt: str, chunk: np.ndarray) -> tuple:
    """One chunk of a column: the format of its slot in the line and its cells.

    A chunk that holds at most one distinct value per two rows formats each
    distinct value once and hands the strings to a ``%s`` slot; values are
    told apart by their bits, so 0.0 and -0.0 keep their own strings.  Any
    other chunk hands its raw cells to the column's format.  Both give the
    same text.
    """
    keys = chunk.view(np.uint64) if chunk.dtype.kind == "f" else chunk
    distinct, inverse = np.unique(keys, return_inverse=True)
    if 2 * distinct.size > chunk.size:
        return fmt, chunk.tolist()
    strings = np.array([fmt % v for v in distinct.view(chunk.dtype).tolist()], dtype=object)
    return "%s", strings[inverse].tolist()


def _write_csv(path: Path, header, columns) -> None:
    """Write equal-length ``columns`` under ``header``, one format per column.

    Bools print as true/false, integers in decimal, and everything else as
    its float value to 17 significant digits.  Each chunk of ``_CHUNK_ROWS``
    rows is one ``%`` call: the line repeated once per row, applied to the
    chunk's cells interleaved row by row (see ``_cells``).
    """
    formats, arrays = zip(*map(_column, columns))
    lengths = {arr.shape[0] for arr in arrays}
    if len(lengths) != 1:
        raise ValueError("CSV columns must have equal lengths")
    (rows,) = lengths
    width = len(arrays)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, rows, _CHUNK_ROWS):
            count = min(_CHUNK_ROWS, rows - start)
            slots, cells = [None] * width, [None] * (width * count)
            for j, (fmt, arr) in enumerate(zip(formats, arrays)):
                slots[j], cells[j::width] = _cells(fmt, arr[start:start + count])
            fh.write(((",".join(slots) + "\n") * count) % tuple(cells))


def _write_table(csv_path: Path, header, columns, x: str, y: str, xlabel: str, ylabel: str, title: str) -> None:
    """Write one CSV table through ``_write_csv`` and the plot note beside it."""
    _write_csv(csv_path, header, columns)
    note = csv_path.with_suffix(csv_path.suffix + ".plot.txt")
    with open(note, "w", encoding="utf-8", newline="") as fh:
        fh.write(
            f"data: {csv_path.name}\n"
            f"x-column: {x}\n"
            f"y-column: {y}\n"
            f"x-label: {xlabel}\n"
            f"y-label: {ylabel}\n"
            f"title: {title}\n"
        )


def _spatial_grid(cfg: RunConfig) -> SpatialGrid:
    return SpatialGrid(
        kind=cfg.grid_kind, lo=cfg.grid_lo, hi=cfg.grid_hi, cells=cfg.cells, dim=cfg.dim
    )


def _initial_state(cfg: RunConfig):
    grid = _spatial_grid(cfg)
    if cfg.initial == "box":
        return box_state(grid, cfg.height, cfg.half_width)
    if cfg.initial == "barenblatt":
        params = BarenblattParams(m=cfg.m, d=cfg.dim, b=cfg.b)
        return barenblatt_state(grid, params, cfg.t0)
    if cfg.initial.startswith("csv:"):
        try:
            table = np.loadtxt(cfg.initial[4:], delimiter=",", skiprows=1, ndmin=2)
            # np.interp reads its sample points as increasing; a NaN fails this too.
            if not np.all(np.diff(table[:, 0]) > 0.0):
                raise ValueError("the x column is not strictly increasing")
            profile = np.interp(grid.centers, table[:, 0], table[:, 1], left=0.0, right=0.0)
        except (OSError, ValueError, IndexError) as exc:
            raise ConfigError(
                f"initial = {cfg.initial}: cannot read a two-column x,value table ({exc})",
                key="initial",
            ) from exc
        return FieldState(grid=grid, time=0.0, values=np.clip(profile, 0.0, None))
    raise ConfigError("initial must be box, barenblatt, or csv:PATH", key="initial")


def _mc_config(cfg: RunConfig) -> McConfig:
    return McConfig(
        n_paths=cfg.n_paths,
        master_seed=cfg.seed,
        grid=TimeGrid.uniform(cfg.horizon, cfg.steps),
        coeffs=CoefficientPair.from_pieces(cfg.f, cfg.g),
        m=cfg.m,
        initial=_initial_state(cfg),
        cfl_safety=cfg.cfl_safety,
    )


def _write_report(outdir: Path, report, per_header, per_columns, per_note, summary_note) -> dict:
    """Write per_path.csv and summary.csv with plot notes, echo the report, return its check.

    ``per_columns`` follow the path index column; ``per_note`` is the per-path
    plot's (y-label, title) and ``summary_note`` the summary plot's
    (x-label, title).
    """
    _write_table(
        outdir / "per_path.csv", per_header, (np.arange(report.n), *per_columns),
        "path", per_header[1], "path index", *per_note,
    )
    _write_table(
        outdir / "summary.csv", ("estimate", "stderr", "n_paths", "target", "passed"),
        ([report.estimate], [report.stderr], [report.n], [report.target], [report.passed]),
        "estimate", "target", summary_note[0], "target", summary_note[1],
    )
    print(
        f"estimate={report.estimate:.6g} stderr={report.stderr:.3g} "
        f"target={report.target:.6g} passed={report.passed}"
    )
    print(f"rule: {report.rule}")
    print(f"provenance: {report.provenance}")
    return {"passed": report.passed}


def _run_exact(cfg: RunConfig, outdir: Path) -> dict:
    xs = np.linspace(cfg.grid_lo, cfg.grid_hi, cfg.cells + 1)
    if cfg.solution == "barenblatt":
        base = barenblatt_solution(BarenblattParams(m=cfg.m, d=cfg.dim, b=cfg.b))
    elif cfg.solution == "quadratic_pressure":
        base = quadratic_pressure_solution(QuadraticPressureParams(m=cfg.m, d=cfg.dim, q=cfg.q))
    else:
        base = linear_pressure_base(cfg.m)
    values = [float(base.evaluate(t, x)) for t in cfg.times for x in xs]
    _write_table(
        outdir / f"{cfg.solution}.csv", ("t", "x", "value"),
        (np.repeat(cfg.times, xs.size), np.tile(xs, len(cfg.times)), values),
        "x", "value", "position", "solution value", f"{cfg.solution} profile at the configured times",
    )
    return {}


def _run_path(cfg: RunConfig, outdir: Path) -> dict:
    grid = TimeGrid.uniform(cfg.horizon, cfg.steps)

    def write(start, w, logh, h, H):
        for i, row in enumerate(zip(w, h, H), start):
            _write_table(
                outdir / f"path_{i:03d}.csv", ("t", "w", "h", "H"), (grid.nodes, *row),
                "t", "H", "time", "random clock", "multiplier and clock along one noise path",
            )

    _clock_blocks(grid, CoefficientPair.from_pieces(cfg.f, cfg.g), cfg.m, cfg.seed, cfg.n_paths, write)
    return {}


def _run_evolve(cfg: RunConfig, outdir: Path) -> dict:
    initial = _initial_state(cfg)
    horizon = cfg.horizon if cfg.horizon > initial.time else initial.time + cfg.horizon
    snaps = tuple(t for t in cfg.times if initial.time < t < horizon)
    table = evolve(initial, cfg.m, horizon, cfg.cfl_safety, snaps)
    for k, (t, values) in enumerate(zip(table.times, table.values)):
        _write_table(
            outdir / f"snapshot_{k:03d}.csv", ("x", "value"), (table.grid.centers, values),
            "x", "value", "position", "field value", f"solution snapshot at t = {t:.6g}",
        )
    _write_table(
        outdir / "mass_log.csv", ("t", "mass"), (table.times, table.masses),
        "t", "mass", "time", "discrete mass", "mass conservation log",
    )
    drift = float(np.max(np.abs(table.masses - table.masses[0])))
    return {"mass_conserved": drift <= 1e-8 * max(1.0, table.masses[0])}


def _run_transform(cfg: RunConfig, outdir: Path) -> dict:
    mc = _mc_config(cfg)
    probe_times = [t for t in cfg.times if t > 0.0] or [cfg.horizon]
    sweep = clock_sweep(mc, probe_times)
    values = sweep.h[:, :, None] * eval_on_centers(sweep.tables[0], sweep.table_times[:, :, None], cfg.points)
    n_paths, n_times, n_points = values.shape
    _write_table(
        outdir / "samples.csv", ("path", "t", "x", "value"),
        (
            np.repeat(np.arange(n_paths), n_times * n_points),
            np.tile(np.repeat(probe_times, n_points), n_paths),
            np.tile(cfg.points, n_paths * n_times),
            values.reshape(-1),
        ),
        "t", "value", "time", "stochastic field", "transformed field sampled on the probe schedule",
    )
    return {}


def _run_mc(cfg: RunConfig, outdir: Path) -> dict:
    mc = _mc_config(cfg)
    if cfg.mode == "mean_mass":
        report = mc_mean_mass(mc, cfg.t)
        per_path = report.extras["per_path"]
        column, ylabel = "mass", "path mass estimate"
    elif cfg.mode == "lp_bound":
        report = mc_lp_bound(mc, cfg.p, cfg.t)
        per_path = report.extras["per_path"]
        column, ylabel = "power_sum", "path Lp power sum"
    else:
        report = limit_law_statistics(mc)
        per_path = report.extras["xis"]
        column, ylabel = "log_multiplier", "log h at the horizon"
    return _write_report(
        outdir, report, ("path", column), (per_path,),
        (ylabel, f"per-path results for mc {cfg.mode}"), ("estimate", f"summary for mc {cfg.mode}"),
    )


def _run_asymptotics(cfg: RunConfig, outdir: Path) -> dict:
    mc = _mc_config(cfg)
    probe_times = [t for t in cfg.times if t > 0.0]
    report = asymptotics_experiment(mc, probe_times, x0=cfg.points[0])
    header = ("path",) + tuple(f"err_t{k}" for k in range(len(probe_times))) + ("decreasing",)
    return _write_report(
        outdir, report, header, (*np.asarray(report.extras["schedules"]).T, report.extras["pass_flags"]),
        ("scaled profile error", "clock-scaled error schedules per path"),
        ("passing fraction", "asymptotics experiment summary"),
    )


def _run_support(cfg: RunConfig, outdir: Path) -> dict:
    reports = support_experiment(
        _mc_config(cfg), plateau_tol=cfg.plateau_tol, mass_check_time=cfg.mass_check_time
    )
    plateau, bound, mass, decay = (reports[k] for k in ("plateau", "support_bound", "mean_mass", "decay"))
    _write_table(
        outdir / "per_path.csv", ("path", "support_radius", "support_bound"),
        (np.arange(bound.n), bound.extras["support_radii"], bound.extras["support_bounds"]),
        "path", "support_radius", "path index", "support radius", "per-path support radii against the dominating bound",
    )
    _write_table(
        outdir / "summary.csv",
        (
            "plateau_median", "plateau_ok", "eta_hat", "bound_ok",
            "mass_estimate", "mass_target", "mass_ok",
            "center_initial", "center_median", "decay_ok",
        ),
        [[value] for value in (
            plateau.estimate, plateau.passed, bound.estimate, bound.passed,
            mass.estimate, mass.target, mass.passed,
            decay.extras["center_initial"], decay.estimate, decay.passed,
        )],
        "plateau_median", "eta_hat", "plateau", "support bound", "bounded-support experiment summary",
    )
    _write_table(
        outdir / "decay_table.csv", ("t", "median_center_value"),
        (decay.extras["decay_times"], decay.extras["decay_medians"]),
        "t", "median_center_value", "time", "median u(t, 0)", "pointwise decay at the origin",
    )
    print(f"provenance: {bound.provenance}")
    return {name: rep.passed for name, rep in reports.items()}


_RUNNERS = {
    "exact": _run_exact,
    "path": _run_path,
    "evolve": _run_evolve,
    "transform": _run_transform,
    "mc": _run_mc,
    "asymptotics": _run_asymptotics,
    "support": _run_support,
}


def dispatch(cfg: RunConfig) -> int:
    """Run one subcommand; returns the exit status."""
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    checks = _RUNNERS[cfg.command](cfg, outdir)
    elapsed = time.perf_counter() - started
    with open(outdir / "config.echo.ini", "w", encoding="utf-8", newline="") as fh:
        fh.write(serialize_config(cfg))
    with open(outdir / "manifest.txt", "w", encoding="utf-8", newline="") as fh:
        fh.write(f"spmelab {__version__}\n")
        fh.write(f"command: {cfg.command}\n")
        fh.write("config: config.echo.ini\n")
        fh.write(f"master seed: {cfg.seed}\n")
        fh.write(f"wall time: {elapsed:.3f} s\n")
        if checks:
            for name, ok in checks.items():
                fh.write(f"check {name}: {'pass' if ok else 'FAIL'}\n")
        else:
            fh.write("checks: none embedded\n")
    all_ok = all(checks.values()) if checks else True
    return 0 if all_ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spmelab",
        description="Numerical studies of the porous medium equation with multiplicative noise.",
    )
    parser.add_argument("--config", required=True, help="path to the run configuration")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument("--out", default=None, help="override the output directory")
    args = parser.parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
        cfg = apply_overrides(cfg, seed=args.seed, out=args.out)
        return dispatch(cfg)
    except ConfigError as exc:
        where = f" (line {exc.line})" if exc.line else ""
        print(f"config error{where}: {exc}", file=sys.stderr)
        return 2
    except SpmeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write artifacts: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
