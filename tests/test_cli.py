"""End-to-end tests of the batch command line and its artifacts."""
from __future__ import annotations

import dataclasses
import filecmp
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spmelab import (
    BarenblattParams,
    CoefficientPair,
    McConfig,
    TimeGrid,
    barenblatt_mass,
    cli,
    noise,
    parse_config,
)
from spmelab.cli import main

from conftest import one_path_clock


def write_config(tmp_path, name, body) -> str:
    path = tmp_path / name
    path.write_text("[run]\n" + body, encoding="utf-8")
    return str(path)


def read_csv(path):
    flags = {"true": "1", "false": "0"}
    rows = []
    for line in path.read_text().splitlines()[1:]:
        rows.append([float(flags.get(cell, cell)) for cell in line.split(",")])
    return np.array(rows, dtype=float)


def test_exact_profile_mass_matches_the_closed_form(tmp_path):
    cfg = write_config(
        tmp_path, "exact.ini",
        "command = exact\nsolution = barenblatt\ntimes = 1\n"
        f"out = {tmp_path / 'out'}\n",
    )
    assert main(["--config", cfg]) == 0
    table = read_csv(tmp_path / "out" / "barenblatt.csv")
    xs, vals = table[:, 1], table[:, 2]
    mass = float(np.trapezoid(vals, xs))
    closed = barenblatt_mass(BarenblattParams(m=2.0, d=1, b=1.0))
    assert abs(mass - closed) <= 1e-4 * closed
    assert (tmp_path / "out" / "barenblatt.csv.plot.txt").exists()
    assert (tmp_path / "out" / "manifest.txt").exists()


def test_exact_covers_every_solution_family(tmp_path):
    for solution, extra in (
        ("quadratic_pressure", "times = 0.02\n"),
        ("linear_pressure", "times = 1\n"),
    ):
        cfg = write_config(
            tmp_path, f"{solution}.ini",
            f"command = exact\nsolution = {solution}\n{extra}"
            f"out = {tmp_path / solution}\n",
        )
        assert main(["--config", cfg]) == 0
        assert (tmp_path / solution / f"{solution}.csv").exists()


def test_path_writes_one_csv_per_path(tmp_path):
    cfg = write_config(
        tmp_path, "path.ini",
        "command = path\nn_paths = 3\nsteps = 64\nf = 0:1, 0.5:0\n"
        f"out = {tmp_path / 'out'}\n",
    )
    assert main(["--config", cfg]) == 0
    for i in range(3):
        table = read_csv(tmp_path / "out" / f"path_{i:03d}.csv")
        assert table.shape == (65, 4)
        assert table[0, 1] == 0.0
        assert table[0, 3] == 0.0
        assert np.all(np.diff(table[:, 3]) >= 0.0)


def test_evolve_logs_mass_and_passes_its_check(tmp_path):
    cfg = write_config(
        tmp_path, "evolve.ini",
        "command = evolve\nhorizon = 1\ntimes = 0.25, 0.5\n"
        f"out = {tmp_path / 'out'}\n",
    )
    assert main(["--config", cfg]) == 0
    for k in range(4):
        assert (tmp_path / "out" / f"snapshot_{k:03d}.csv").exists()
    log = read_csv(tmp_path / "out" / "mass_log.csv")
    assert log.shape == (4, 2)
    assert np.max(np.abs(log[:, 1] - log[0, 1])) <= 1e-8 * log[0, 1]
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert "check mass_conserved: pass" in manifest


def test_evolve_rejects_snapshot_times_it_cannot_tell_apart(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "close.ini",
        "command = evolve\nhorizon = 1\ntimes = 0.25, 0.2500000000000001\n"
        f"out = {tmp_path / 'out'}\n",
    )
    assert main(["--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err == "error: snapshot times 0.25 and 0.2500000000000001 are too close to tell apart\n"


def test_evolve_accepts_a_csv_initial_profile(tmp_path):
    profile = tmp_path / "profile.csv"
    xs = np.linspace(-2.0, 2.0, 41)
    vals = np.maximum(1.0 - np.abs(xs), 0.0)
    profile.write_text(
        "x,value\n" + "\n".join(f"{x},{v}" for x, v in zip(xs, vals)) + "\n"
    )
    cfg = write_config(
        tmp_path, "evolve_csv.ini",
        f"command = evolve\ninitial = csv:{profile}\nhorizon = 0.5\n"
        f"out = {tmp_path / 'out'}\n",
    )
    assert main(["--config", cfg]) == 0
    first = read_csv(tmp_path / "out" / "snapshot_000.csv")
    assert first[:, 1].max() == pytest.approx(1.0, abs=0.05)


def test_transform_samples_all_probes(tmp_path):
    cfg = write_config(
        tmp_path, "transform.ini",
        "command = transform\nn_paths = 4\nsteps = 64\nhorizon = 0.5\n"
        "times = 0.25, 0.5\npoints = -0.5, 0, 0.5\n"
        f"out = {tmp_path / 'out'}\n",
    )
    assert main(["--config", cfg]) == 0
    table = read_csv(tmp_path / "out" / "samples.csv")
    assert table.shape == (4 * 2 * 3, 4)
    assert np.all(table[:, 3] >= 0.0)


def test_mc_mean_mass_run_passes_and_documents_itself(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path, "mc.ini",
        "command = mc\nmode = mean_mass\nn_paths = 50\nsteps = 128\n"
        "horizon = 0.5\nt = 0.5\n"
        f"out = {out}\n",
    )
    assert main(["--config", cfg]) == 0
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == "estimate,stderr,n_paths,target,passed"
    assert summary[1].endswith("true")
    per = read_csv(out / "per_path.csv")
    assert per.shape == (50, 2)
    echo = parse_config((out / "config.echo.ini").read_text())
    assert echo.command == "mc" and echo.n_paths == 50
    stdout = capsys.readouterr().out
    assert "passed=True" in stdout


def test_mc_limit_law_reports_the_variance_mismatch_via_exit_code(tmp_path, monkeypatch):
    cfg = write_config(
        tmp_path, "law.ini",
        "command = mc\nmode = limit_law\nf = 0:1, 1:0\ng = 0:0\n"
        "horizon = 2\nsteps = 128\nn_paths = 200\n"
        f"out = {tmp_path / 'out'}\n",
    )
    assert main(["--config", cfg]) == 0
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert "check passed: pass" in manifest
    # A failed check must surface as exit status 1 and a FAIL manifest line.
    real = cli.limit_law_statistics
    monkeypatch.setattr(
        cli, "limit_law_statistics", lambda mc: dataclasses.replace(real(mc), passed=False)
    )
    assert main(["--config", cfg, "--out", str(tmp_path / "failed")]) == 1
    manifest = (tmp_path / "failed" / "manifest.txt").read_text()
    assert "check passed: FAIL" in manifest


def test_mc_limit_law_degenerate_drift_passes(tmp_path):
    cfg = write_config(
        tmp_path, "law2.ini",
        "command = mc\nmode = limit_law\nf = 0:0\ng = 0:0.5, 1:0\n"
        "horizon = 2\nsteps = 64\nn_paths = 8\n"
        f"out = {tmp_path / 'out'}\n",
    )
    assert main(["--config", cfg]) == 0


def test_mc_lp_bound_run(tmp_path):
    cfg = write_config(
        tmp_path, "lp.ini",
        "command = mc\nmode = lp_bound\nn_paths = 40\nsteps = 128\n"
        "horizon = 0.5\nt = 0.5\np = 2\n"
        f"out = {tmp_path / 'out'}\n",
    )
    assert main(["--config", cfg]) == 0


def test_asymptotics_run(tmp_path):
    cfg = write_config(
        tmp_path, "asym.ini",
        "command = asymptotics\nf = 0:0\ng = 0:0\nhorizon = 8\nsteps = 64\n"
        "n_paths = 2\ngrid_lo = -9\ngrid_hi = 9\ncells = 240\ntimes = 2,4,8\n"
        f"out = {tmp_path / 'out'}\n",
    )
    assert main(["--config", cfg]) == 0
    summary = read_csv(tmp_path / "out" / "summary.csv")
    assert summary[0, 0] == 1.0
    per = read_csv(tmp_path / "out" / "per_path.csv")
    assert per.shape == (2, 5)


def test_asymptotics_with_a_repeated_time_is_an_error_not_a_failed_check(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "asym.ini",
        "command = asymptotics\nf = 0:0\ng = 0:0\nhorizon = 8\nsteps = 64\n"
        "n_paths = 2\ngrid_lo = -9\ngrid_hi = 9\ncells = 240\ntimes = 2,2,4,8\n"
        f"out = {tmp_path / 'out'}\n",
    )
    assert main(["--config", cfg]) == 2
    assert capsys.readouterr().err == "error: probe times must be strictly increasing, at least two\n"


def test_support_run_passes_all_five_checks(tmp_path):
    cfg = write_config(
        tmp_path, "support.ini",
        "command = support\nf = 0:1\ng = 0:0\nhorizon = 30\nsteps = 600\n"
        "n_paths = 30\ngrid_lo = -24\ngrid_hi = 24\ncells = 320\n"
        f"out = {tmp_path / 'out'}\n",
    )
    assert main(["--config", cfg]) == 0
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    checks = [line for line in manifest.splitlines() if line.startswith("check ")]
    assert checks == [
        f"check {name}: pass" for name in ("plateau", "support_bound", "domain", "mean_mass", "decay")
    ]
    decay = read_csv(tmp_path / "out" / "decay_table.csv")
    assert decay.shape == (4, 2)
    assert decay[-1, 1] < decay[0, 1]


def test_support_run_whose_field_reaches_the_box_edge_fails(tmp_path):
    # The support outgrows [-3, 3], so the zero-flux walls would fake a support bound.
    cfg = write_config(
        tmp_path, "support.ini",
        "command = support\nf = 0:1\ng = 0:0\nhorizon = 30\nsteps = 600\n"
        "n_paths = 30\ngrid_lo = -3\ngrid_hi = 3\ncells = 64\n"
        f"out = {tmp_path / 'out'}\n",
    )
    assert main(["--config", cfg]) == 1
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert "check domain: FAIL\n" in manifest


def test_seed_override_changes_the_sampled_paths(tmp_path):
    body = (
        "command = path\nn_paths = 2\nsteps = 64\n"
        f"out = {tmp_path / 'a'}\n"
    )
    cfg = write_config(tmp_path, "seed.ini", body)
    assert main(["--config", cfg]) == 0
    assert main(["--config", cfg, "--seed", "3", "--out", str(tmp_path / "b")]) == 0
    a = read_csv(tmp_path / "a" / "path_000.csv")
    b = read_csv(tmp_path / "b" / "path_000.csv")
    assert not np.array_equal(a[:, 1], b[:, 1])
    echo = parse_config((tmp_path / "b" / "config.echo.ini").read_text())
    assert echo.seed == 3


def _artifacts(outdir) -> dict:
    """Each artifact's lines as bytes, without the manifest wall time and the echoed out line."""
    return {
        path.name: [
            line for line in path.read_bytes().splitlines(keepends=True)
            if not line.startswith((b"wall time:", b"out = "))
        ]
        for path in sorted(outdir.iterdir())
    }


@pytest.mark.parametrize(
    "body",
    [
        "command = mc\nmode = mean_mass\nn_paths = 40\nsteps = 128\nhorizon = 0.5\nt = 0.5\n",
        "command = mc\nmode = limit_law\nf = 0:1, 0.25:0\nn_paths = 40\nsteps = 128\nhorizon = 0.5\n",
    ],
    ids=["mean_mass", "limit_law"],
)
def test_block_size_rerun_is_byte_identical(tmp_path, monkeypatch, capsys, body):
    cfg = write_config(tmp_path, "mc.ini", body + f"out = {tmp_path / 'default'}\n")
    assert main(["--config", cfg]) == 0
    want, want_out = _artifacts(tmp_path / "default"), capsys.readouterr().out
    assert not any(b"threads" in line for lines in want.values() for line in lines)
    assert "threads" not in want_out
    # 128 steps give 129 values per path: one row per block, then 7 rows (40 is no multiple of 7).
    for rows in (1, 7):
        monkeypatch.setattr(noise, "BLOCK_VALUES", rows * 129)
        out = tmp_path / f"rows_{rows}"
        assert main(["--config", cfg, "--out", str(out)]) == 0
        assert _artifacts(out) == want
        assert capsys.readouterr().out == want_out


def test_missing_config_file_is_a_usage_error(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "nope.ini")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_config_errors_report_the_line(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.ini", "command = evolve\nbogus = 1\n")
    assert main(["--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "bogus" in err


@pytest.mark.parametrize(
    "body,key",
    [
        ("command = exact\nm = nan\n", "m"),
        ("command = exact\nb = nan\n", "b"),
        ("command = exact\ntimes = nan\n", "times"),
        ("command = mc\nmode = lp_bound\nn_paths = 4\np = nan\n", "p"),
    ],
    ids=["exact_m", "exact_b", "exact_times", "mc_lp_bound_p"],
)
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, body, key):
    cfg = write_config(tmp_path, "nan.ini", body + f"out = {tmp_path / 'out'}\n")
    assert main(["--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error (line ") and f"'{key}' must be finite" in err
    assert not (tmp_path / "out").exists()


def test_unwritable_output_exits_with_status_two_in_one_line(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file", encoding="utf-8")
    cfg = write_config(
        tmp_path, "exact.ini",
        f"command = exact\nsolution = barenblatt\ntimes = 1\nout = {blocker / 'out'}\n",
    )
    assert main(["--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write artifacts: ") and str(blocker) in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_runtime_errors_exit_with_status_two(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "bad_time.ini",
        "command = exact\nsolution = barenblatt\ntimes = 0\n"
        f"out = {tmp_path / 'out'}\n",
    )
    assert main(["--config", cfg]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content",
    [
        None, "x,value\n0,one\n1,two\n", "x\n-1\n0\n1\n",
        "x,value\n1,0\n0,1\n-1,0\n", "x,value\n-1,0\n0,1\n0,1\n1,0\n",
    ],
    ids=["missing", "non_numeric", "one_column", "decreasing_x", "repeated_x"],
)
def test_unreadable_csv_initial_data_is_a_config_error(tmp_path, capsys, content):
    profile = tmp_path / "profile.csv"
    if content is not None:
        profile.write_text(content, encoding="utf-8")
    cfg = write_config(
        tmp_path, "evolve_csv.ini",
        f"command = evolve\ninitial = csv:{profile}\nhorizon = 0.5\n"
        f"out = {tmp_path / 'out'}\n",
    )
    assert main(["--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "initial" in err


def test_multiplier_overflow_exits_with_status_two(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "overflow.ini",
        f"command = mc\nmode = mean_mass\ng = 0:800\nn_paths = 4\nout = {tmp_path / 'out'}\n",
    )
    assert main(["--config", cfg]) == 2
    assert "multiplier overflowed to infinity" in capsys.readouterr().err


def test_installed_entry_point_smoke(tmp_path):
    cfg = write_config(
        tmp_path, "exact.ini",
        "command = exact\nsolution = barenblatt\ncells = 16\ntimes = 1\n"
        f"out = {tmp_path / 'out'}\n",
    )
    # The child gets this process's import path, so the test runs without an install.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "spmelab.cli", "--config", cfg],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0


def test_clock_overflow_exits_with_status_two_and_no_warning(tmp_path, capsys, recwarn):
    cfg = write_config(
        tmp_path, "clock.ini",
        "command = mc\nmode = mean_mass\nm = 3\ng = 0:400\nn_paths = 4\nt = 0.951\n"
        f"out = {tmp_path / 'out'}\n",
    )
    assert main(["--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "clock overflowed to infinity" in err and "Warning" not in err
    assert not recwarn.list


@pytest.mark.parametrize(
    "m,message",
    [
        # u**2 overflows in the first step, and the next step's peak is not finite.
        (2, "field values must be finite and nonnegative"),
        # 1e200**2 leaves the float range inside the step bound, which becomes 0.
        (3, "dt must be positive"),
    ],
    ids=["2", "3"],
)
def test_overflowing_march_exits_with_status_two_in_one_line(tmp_path, capsys, recwarn, m, message):
    cfg = write_config(
        tmp_path, "overflow.ini",
        f"command = evolve\nm = {m}\nheight = 1e200\nhorizon = 1\ntimes = 0.25, 0.5\n"
        f"out = {tmp_path / 'out'}\n",
    )
    assert main(["--config", cfg]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not recwarn.list


@pytest.mark.parametrize(
    "geometry,message",
    [
        ("grid_kind = radial\ndim = 344\ngrid_lo = 0\ngrid_hi = 4\n", "sphere area overflows"),
        ("grid_kind = radial\ndim = 160\ngrid_lo = 0\ngrid_hi = 100\n", "grid geometry does not fit"),
        ("grid_kind = radial\ndim = 200\ngrid_lo = 0\ngrid_hi = 4\n", "grid geometry does not fit"),
        ("grid_lo = -1e308\ngrid_hi = 1e308\n", "grid geometry does not fit"),
    ],
    ids=["sphere_area_overflow", "volume_overflow", "volume_underflow", "width_overflow"],
)
def test_grid_geometry_out_of_float_range_exits_with_status_two_in_one_line(
    tmp_path, capsys, recwarn, geometry, message
):
    cfg = write_config(
        tmp_path, "geometry.ini",
        f"command = evolve\n{geometry}horizon = 1\ntimes = 0.25, 0.5\nout = {tmp_path / 'out'}\n",
    )
    assert main(["--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not recwarn.list
    assert not (tmp_path / "out" / "mass_log.csv").exists()


def _reference_fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def reference_write_csv(path, header, columns) -> None:
    """The row-at-a-time writer that formats every cell by its own type."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(_reference_fmt(v) for v in row) + "\n")


_SPECIAL_FLOATS = (
    0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
    2.2250738585072009e-308, 1e17, 123456789012345678.0, 2.0**63, 1.7976931348623157e308,
)
_FLOAT_CELLS = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64))),
    st.sampled_from(_SPECIAL_FLOATS),
    st.integers(10**17, 2**80).map(float),
)
_INT_CELLS = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(-128, 127).map(np.int8),
    st.integers(0, 2**32 - 1).map(np.uint32),
)
_BOOL_CELLS = st.one_of(st.booleans(), st.booleans().map(np.bool_))


@st.composite
def csv_columns(draw):
    """Columns of one length: independent cells, or cells drawn from a pool of 1-3 values.

    Pooled columns repeat their values, so a chunk of them takes the writer's
    distinct-value path.
    """
    rows = draw(st.integers(0, 30))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            source = draw(st.sampled_from((_FLOAT_CELLS, _INT_CELLS, st.sampled_from(_SPECIAL_FLOATS))))
            pool = draw(st.lists(source, min_size=1, max_size=3))
            if draw(st.booleans()):
                pool += [-v for v in pool if isinstance(v, float)]
            cells = st.sampled_from(pool)
        else:
            cells = draw(st.sampled_from((_FLOAT_CELLS, _INT_CELLS, _BOOL_CELLS)))
        column = draw(st.lists(cells, min_size=rows, max_size=rows))
        if draw(st.booleans()):
            column = np.asarray(column)
        elif cells is _FLOAT_CELLS:
            column = [np.float64(v) if draw(st.booleans()) else v for v in column]
        columns.append(column)
    return columns


@settings(max_examples=200, deadline=None)
@given(csv_columns(), st.integers(1, 5))
@example([[0.0, -0.0, 0.0, -0.0]], 4)
@example([[math.nan, -math.nan, math.nan]], 5)
def test_columnar_writer_matches_the_per_cell_reference(tmp_path_factory, columns, chunk):
    out = tmp_path_factory.mktemp("csv")
    header = tuple(f"c{k}" for k in range(len(columns)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_CHUNK_ROWS", chunk)
        cli._write_csv(out / "columnar.csv", header, columns)
    reference_write_csv(out / "reference.csv", header, columns)
    written = (out / "columnar.csv").read_bytes()
    assert written == (out / "reference.csv").read_bytes()
    assert written.count(b"\n") == 1 + len(columns[0])


def test_columnar_writer_keeps_one_chunk_in_memory(tmp_path):
    # The shape of transform_grid's samples.csv: 1,000 paths x 8 times x 16 points.
    times, points = np.linspace(0.125, 1.0, 8), np.linspace(-2.0, 2.0, 16)
    columns = (
        np.repeat(np.arange(1000), 128),
        np.tile(np.repeat(times, 16), 1000),
        np.tile(points, 8000),
        np.random.default_rng(0).random(128_000),
    )
    tracemalloc.start()
    try:
        cli._write_csv(tmp_path / "samples.csv", ("path", "t", "x", "value"), columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert (tmp_path / "samples.csv").read_bytes().count(b"\n") == 128_001


def test_columnar_writer_rejects_columns_of_different_lengths(tmp_path):
    with pytest.raises(ValueError, match="equal lengths"):
        cli._write_csv(tmp_path / "ragged.csv", ("a", "b"), ([1.0, 2.0], [1.0]))


_SUBCOMMANDS = {
    "exact_barenblatt": "command = exact\nsolution = barenblatt\ntimes = 0.5, 1, 2\n",
    "exact_quadratic": "command = exact\nsolution = quadratic_pressure\ntimes = 0.01, 0.02\n",
    "exact_linear": "command = exact\nsolution = linear_pressure\ntimes = 1, 3\n",
    "path": "command = path\nn_paths = 3\nsteps = 64\nf = 0:1, 0.5:0\n",
    "evolve_cartesian": "command = evolve\nhorizon = 1\ntimes = 0.25, 0.5\n",
    "evolve_radial": (
        "command = evolve\ngrid_kind = radial\ndim = 3\nm = 3\ninitial = barenblatt\nt0 = 0.5\n"
        "grid_lo = 0\ngrid_hi = 4\ncells = 64\nhorizon = 1\ntimes = 0.75\n"
    ),
    "transform": (
        "command = transform\nn_paths = 6\nsteps = 64\nhorizon = 0.5\n"
        "times = 0, 0.25, 0.5\npoints = -0.5, 0, 0.5, 3\n"
    ),
    "mc_mean_mass": "command = mc\nmode = mean_mass\nn_paths = 50\nsteps = 128\nhorizon = 0.5\nt = 0.5\n",
    "mc_lp_bound": "command = mc\nmode = lp_bound\nn_paths = 40\nsteps = 128\nhorizon = 0.5\nt = 0.5\np = 2\n",
    "mc_limit_law": (
        "command = mc\nmode = limit_law\nf = 0:1, 1:0\ng = 0:0\nhorizon = 2\nsteps = 128\nn_paths = 200\n"
    ),
    "asymptotics": (
        "command = asymptotics\nf = 0:0\ng = 0:0\nhorizon = 8\nsteps = 64\nn_paths = 2\n"
        "grid_lo = -9\ngrid_hi = 9\ncells = 240\ntimes = 2,4,8\n"
    ),
    "support": (
        "command = support\nf = 0:1\ng = 0:0\nhorizon = 30\nsteps = 600\nn_paths = 30\n"
        "grid_lo = -24\ngrid_hi = 24\ncells = 320\n"
    ),
}


@pytest.mark.parametrize("body", list(_SUBCOMMANDS.values()), ids=list(_SUBCOMMANDS))
def test_every_artifact_matches_the_per_cell_reference_writer(tmp_path, monkeypatch, capsys, body):
    # Both runs write to one directory, so the echoed out line agrees too.
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "run.ini", body + f"out = {out}\n")
    status = main(["--config", cfg])
    columnar = out.rename(tmp_path / "columnar")
    stdout = capsys.readouterr().out
    monkeypatch.setattr(cli, "_write_csv", reference_write_csv)
    assert main(["--config", cfg]) == status == 0
    assert capsys.readouterr().out == stdout
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted(p.name for p in columnar.iterdir())
    assert any(name.endswith(".csv") for name in names)
    for name in names:
        if name != "manifest.txt":
            assert filecmp.cmp(columnar / name, out / name, shallow=False), name


@pytest.mark.parametrize("body", list(_SUBCOMMANDS.values()), ids=list(_SUBCOMMANDS))
def test_every_csv_has_a_plot_note_naming_it(tmp_path, capsys, body):
    out = tmp_path / "out"
    assert main(["--config", write_config(tmp_path, "run.ini", body + f"out = {out}\n")]) == 0
    tables = sorted(p.name for p in out.glob("*.csv"))
    assert tables
    assert sorted(p.name for p in out.glob("*.plot.txt")) == [name + ".plot.txt" for name in tables]
    for name in tables:
        assert (out / f"{name}.plot.txt").read_text(encoding="utf-8").splitlines()[0] == f"data: {name}"


def assert_path_files_hold_the_one_path_clocks(tmp_path, out, n_paths):
    run = parse_config((out / "config.echo.ini").read_text())
    # one_path_clock reads the seed, grid, coefficients and m; McConfig's two-path floor is for sweeps.
    mc = McConfig(
        n_paths=max(n_paths, 2), master_seed=run.seed, grid=TimeGrid.uniform(run.horizon, run.steps),
        coeffs=CoefficientPair.from_pieces(run.f, run.g), m=run.m,
    )
    for i in range(n_paths):
        clock = one_path_clock(mc, i)
        want = tmp_path / f"want_{i}.csv"
        reference_write_csv(want, ("t", "w", "h", "H"), (clock.grid.nodes, clock.path.w, clock.h, clock.H))
        assert (out / f"path_{i:03d}.csv").read_bytes() == want.read_bytes()


@pytest.mark.parametrize("rows", [1, 2, 1000])
def test_path_files_hold_the_one_path_clocks_for_any_block_size(tmp_path, monkeypatch, rows):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path, "path.ini",
        f"command = path\nn_paths = 3\nsteps = 64\nf = 0:1, 0.5:0\nout = {out}\n",
    )
    monkeypatch.setattr(noise, "BLOCK_VALUES", rows * 65)
    assert main(["--config", cfg]) == 0
    assert_path_files_hold_the_one_path_clocks(tmp_path, out, 3)


def test_path_with_one_path_writes_its_clock(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path, "path.ini",
        f"command = path\nn_paths = 1\nsteps = 64\nf = 0:1, 0.5:0\nout = {out}\n",
    )
    assert main(["--config", cfg]) == 0
    assert sorted(p.name for p in out.glob("path_*.csv")) == ["path_000.csv"]
    assert_path_files_hold_the_one_path_clocks(tmp_path, out, 1)
