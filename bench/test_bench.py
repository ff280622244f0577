"""Smoke tests for the benchmark at tiny sizes.

Run from the repository root with ``python3 -m pytest bench -q``.
"""
from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
from workloads import WORKLOADS, envelope_box, max_clock  # noqa: E402

SEED = 7
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name: str):
    """The named workload at 50 paths, with its largest clock kept small."""
    return replace(WORKLOADS[name], name=f"{name}_tiny", n_paths=50, window=(0.0, 60.0))


def _printed_units(out: str) -> tuple[dict, dict]:
    lines = out.splitlines()
    table = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and not line.startswith("#"):
            table[parts[0]] = parts[2]
    result = json.loads(lines[-1])
    return table, result


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_end_to_end_metrics_print_with_units(name, capsys):
    assert run.measure(tiny(name), SEED, 0.0, trace=False) == 0
    table, result = _printed_units(capsys.readouterr().out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_RUNS
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert {k: table[k] for k in want} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_and_spans_nest(name, capsys):
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert run.measure(tiny(name), SEED, 0.0, trace=True) == 0
    table, result = _printed_units(capsys.readouterr().out)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert {k: table[k] for k in want} == want
    first = {k: result["metrics"][k]["value"] for k in run.EXACT_COUNTS}
    assert first["noise.paths"] >= 50 and first["cli.csv_rows"] > 0

    _, session, metrics = run.run_session(tiny(name), SEED, 0.0, trace=True)
    assert {k: metrics[k] for k in run.EXACT_COUNTS} == first
    traced = [r for r in session.runs if r["mode"] == "traced"]
    assert traced
    for rec in traced:
        assert rec["min_self_s"] >= 0.0
        assert rec["self_total_s"] == pytest.approx(rec["root_s"], rel=1e-9, abs=1e-9)
        assert rec["root_s"] <= rec["run_s"]


def test_tracer_rebinds_and_restores_module_globals():
    sys.path.insert(0, str(run.ROOT / "src"))
    from spans import Tracer
    from spmelab import analysis, cli, solver
    from spmelab.solver import SchemeConfig, SpatialGrid, box_state

    before = (solver.step, solver.stable_dt, analysis.path_clock, cli.eval_on_centers)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.eval_on_centers is solver.eval_on_centers is not before[3]
        state = box_state(SpatialGrid("cartesian", -3.0, 3.0, 40), 1.0, 1.0)
        table = solver.evolve(state, 2.0, 0.05, SchemeConfig(snapshot_times=(0.01,)))
    finally:
        tracer.uninstall()
    assert (solver.step, solver.stable_dt, analysis.path_clock, cli.eval_on_centers) == before
    layers = tracer.layer_metrics()
    assert layers["solver.steps"] > 0
    assert layers["solver.stable_dt_calls"] == 2 * layers["solver.steps"]
    assert layers["solver.snapshots"] == len(table.states)
    assert tracer.min_self >= 0.0


def test_screening_copy_matches_the_program_and_the_slate_box():
    sys.path.insert(0, str(run.ROOT / "src"))
    from spmelab import CoefficientPair, McConfig, TimeGrid, interp_H, sweep_paths

    cfg = McConfig(n_paths=20, master_seed=20260815, grid=TimeGrid.uniform(50.0, 1000),
                   coeffs=CoefficientPair.constant(1.0, 0.0), m=2.0)
    assert max_clock(20260815, 20, 1000, 50.0) == max(sweep_paths(cfg, lambda c: interp_H(c, 50.0)))
    half, cells = envelope_box(1193.6153834413271)
    assert round(half, 4) == 44.7167 and cells == 896
