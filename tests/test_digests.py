"""Golden digests: the seed -> bytes contract of the command line, machine-checked.

Each config runs through ``cli.main`` in-process.  The table records the exit
code as is, and stdout, stderr and every artifact as SHA-256 digests, one per
file, without the manifest's ``wall time:`` line and the echo's ``out =``
line.  The digests hold for one build of numpy and libm (the PCG64 streams,
``standard_normal``, ``exp`` and ``power``), so the table records the numpy
version and the machine it was made on, and a mismatch names both.

A change that moves bytes on purpose rewrites the table with

    PYTHONPATH=src python3 tests/test_digests.py

and says in its own diff which bytes moved and why.
"""
from __future__ import annotations

import hashlib
import io
import json
import platform
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from spmelab.cli import main
from test_cli import _SUBCOMMANDS, _artifacts, write_config

TABLE = Path(__file__).with_name("golden_digests.json")

CONFIGS = {
    **_SUBCOMMANDS,
    # The support outgrows [-3, 3], so the run exits 1 with check domain: FAIL.
    "support_domain": (
        "command = support\nf = 0:1\ng = 0:0\nhorizon = 30\nsteps = 600\nn_paths = 30\n"
        "grid_lo = -3\ngrid_hi = 3\ncells = 64\n"
    ),
    "transform_radial": (
        "command = transform\ngrid_kind = radial\ndim = 2\ngrid_lo = 0\ngrid_hi = 4\ncells = 64\n"
        "n_paths = 4\nsteps = 64\nhorizon = 0.5\ntimes = 0.25, 0.5\npoints = -1, 0, 0.5, 3.9\n"
    ),
    "exact_nan": "command = exact\nm = nan\n",
    # Times between clock nodes and points between cell centres.
    "transform_offnode": (
        "command = transform\nn_paths = 6\nsteps = 64\nhorizon = 0.5\n"
        "times = 0.1, 0.3, 0.45\npoints = -0.7, 0.05, 0.34, 2.9\n"
    ),
    # 5,120 rows, so samples.csv spans two chunks of the CSV writer.
    "transform_chunks": (
        "command = transform\nn_paths = 40\nsteps = 64\nhorizon = 1\n"
        "times = 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1\n"
        "points = -2, -1.75, -1.5, -1.25, -1, -0.75, -0.5, -0.25, "
        "0.25, 0.5, 0.75, 1, 1.25, 1.5, 1.75, 2\n"
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(tmp_path: Path, body: str) -> dict:
    """Run one config in ``tmp_path``; its exit code and the digests of its output."""
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "run.ini", body + f"out = {out}\n")
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        status = main(["--config", cfg])
    files = _artifacts(out) if out.exists() else {}
    return {
        "exit": status,
        "stdout": _sha(stdout.getvalue().encode()),
        "stderr": _sha(stderr.getvalue().encode()),
        "files": {name: _sha(b"".join(lines)) for name, lines in files.items()},
    }


def _load() -> dict:
    return json.loads(TABLE.read_text(encoding="utf-8"))


def test_the_table_covers_every_config():
    assert sorted(_load()["runs"]) == sorted(CONFIGS)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_output_matches_the_golden_digests(tmp_path, name):
    table = _load()
    want, got = table["runs"][name], digests(tmp_path, CONFIGS[name])
    files = sorted(set(want["files"]) | set(got["files"]))
    moved = [key for key in ("exit", "stdout", "stderr") if want[key] != got[key]]
    moved += [f for f in files if want["files"].get(f) != got["files"].get(f)]
    assert not moved, (
        f"{name}: {', '.join(moved)} differ from the golden digests, which were recorded "
        f"with numpy {table['numpy']} on {table['machine']}; this run has numpy "
        f"{np.__version__} on {platform.machine()}"
    )


if __name__ == "__main__":
    runs = {}
    for name, body in CONFIGS.items():
        with tempfile.TemporaryDirectory() as tmp:
            runs[name] = digests(Path(tmp), body)
    record = {"numpy": np.__version__, "machine": platform.machine(), "runs": runs}
    TABLE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(runs)} runs to {TABLE}", file=sys.stderr)
