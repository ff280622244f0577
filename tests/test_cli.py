"""End-to-end tests of the batch command line and its artifacts."""
from __future__ import annotations

import dataclasses
import filecmp
import os
import subprocess
import sys

import numpy as np
import pytest

from spmelab import BarenblattParams, analysis, barenblatt_mass, cli, parse_config
from spmelab.cli import main


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


def test_support_run_passes_all_four_checks(tmp_path):
    cfg = write_config(
        tmp_path, "support.ini",
        "command = support\nf = 0:1\ng = 0:0\nhorizon = 30\nsteps = 600\n"
        "n_paths = 30\ngrid_lo = -24\ngrid_hi = 24\ncells = 320\n"
        f"out = {tmp_path / 'out'}\n",
    )
    assert main(["--config", cfg]) == 0
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    for name in ("plateau", "support_bound", "mean_mass", "decay"):
        assert f"check {name}: pass" in manifest
    decay = read_csv(tmp_path / "out" / "decay_table.csv")
    assert decay.shape == (4, 2)
    assert decay[-1, 1] < decay[0, 1]


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
        monkeypatch.setattr(analysis, "BLOCK_VALUES", rows * 129)
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
    [None, "x,value\n0,one\n1,two\n", "x\n-1\n0\n1\n"],
    ids=["missing", "non_numeric", "one_column"],
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
