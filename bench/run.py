"""spmelab benchmark: time one CLI workload end to end, or trace its layers.

Usage (from the repository root):

    python3 bench/run.py --workload mc_mass --seed 1 --seconds 20 --trace 0

The seed picks the workload's inputs (see ``workloads.py``); each measured
run is a fresh ``bench/child.py`` process that parses the config through
``spmelab.config.parse_config`` and runs ``spmelab.cli.dispatch``.  Runs
repeat with the same inputs until ``--seconds`` is spent, at least three times.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
median ``run_s`` (dispatch wall time), ``setup_s`` (process launch until
the config is parsed and validated, several extra setup-only launches
included), ``paths_per_s`` and ``peak_rss_mb``.  With ``--trace 1`` plain
and traced runs alternate and the line reports the per-layer metrics.
A run fails when its exit status is not 0, when any artifact except
``manifest.txt`` (which holds the wall time) differs in bytes from the
first run's, when ``samples.csv`` does not hold the expected number of
finite nonnegative values, or when a traced run's exact counts differ from
the first traced run's.  Failed runs stay in the timings.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, Workload, make_inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_RUNS = 3
SETUP_PROBES = 10
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "paths_per_s": "1/s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "noise.paths": "count",
    "noise.clock_s": "s",
    "noise.clock_us_per_path_step": "us",
    "noise.probes": "count",
    "noise.probe_us": "us",
    "solver.steps": "count",
    "solver.stable_dt_calls": "count",
    "solver.snapshots": "count",
    "solver.march_s": "s",
    "solver.step_us_per_cell": "us",
    "solver.reads": "count",
    "solver.read_us": "us",
    "analysis.self_s": "s",
    "cli.self_s": "s",
    "cli.csv_rows": "count",
    "cli.bytes_out": "bytes",
    "cli.write_us_per_row": "us",
    "config.parse_s": "s",
    "trace.overhead_s": "s",
}
# Counts that must repeat exactly between traced runs of one seed.
EXACT_COUNTS = (
    "noise.paths", "solver.steps", "solver.stable_dt_calls",
    "solver.reads", "cli.csv_rows", "cli.bytes_out",
)


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def git_rev(root: Path) -> str:
    """Commit of the checkout, read from .git without running git; 'unknown' outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def artifacts(out: Path) -> tuple[dict, int, int]:
    """Digests of every artifact except manifest.txt, their bytes, and CSV data rows."""
    digests, size, rows = {}, 0, 0
    for path in sorted(out.iterdir()):
        if path.name == "manifest.txt":
            continue
        data = path.read_bytes()
        digests[path.name] = hashlib.sha256(data).hexdigest()
        size += len(data)
        if path.suffix == ".csv":
            rows += data.count(b"\n") - 1
    return digests, size, rows


def samples_ok(out: Path, expected: int) -> bool:
    values = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1, usecols=3, ndmin=1)
    return values.size == expected and bool(np.all(np.isfinite(values)) and np.all(values >= 0.0))


class Session:
    """Runs child processes for one (workload, seed) and gates their outputs."""

    def __init__(self, wl: Workload, master: int, work: Path, config: Path):
        self.wl, self.master = wl, master
        self.work, self.config = work, config
        self.out = work / "out"
        self.reference = None
        self.counts = None
        self.runs: list = []
        self.setups: list = []
        self.parses: list = []

    def _launch(self, mode: str) -> dict | None:
        result = self.work / "result.json"
        result.unlink(missing_ok=True)
        if mode != "setup" and self.out.exists():
            shutil.rmtree(self.out)
        args = [str(self.config), str(result), str(self.master), mode]
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), repr(time.monotonic()), *args],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0 or not result.is_file():
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            return None
        rec = json.loads(result.read_text(encoding="utf-8"))
        self.setups.append(rec["setup_s"])
        self.parses.append(rec["parse_s"])
        return rec

    def setup_probe(self) -> None:
        if self._launch("setup") is None:
            raise RuntimeError("setup-only run failed")

    def dispatch(self, mode: str) -> dict:
        """One measured run; ``ok`` is False when any gate in the module docstring fails."""
        started = time.monotonic()
        rec = self._launch(mode) or {"status": None}
        rec["mode"], rec["wall_s"] = mode, time.monotonic() - started
        ok = rec["status"] == 0
        if self.out.is_dir():
            digests, rec["bytes_out"], rec["csv_rows"] = artifacts(self.out)
            if self.reference is None:
                self.reference = digests
                if self.wl.command == "transform":
                    ok = ok and samples_ok(self.out, self.wl.expected_samples)
            ok = ok and digests == self.reference
        else:
            ok = False
        if ok and mode == "traced":
            counts = {**rec["layers"], "cli.csv_rows": rec["csv_rows"], "cli.bytes_out": rec["bytes_out"]}
            counts = {key: counts[key] for key in EXACT_COUNTS}
            self.counts = self.counts or counts
            ok = counts == self.counts
        if not ok:
            print(f"# run {len(self.runs)} ({mode}) failed, exit status {rec['status']}", file=sys.stderr)
        rec["ok"] = ok
        self.runs.append(rec)
        return rec

    def loop(self, modes: tuple, seconds: float) -> None:
        """Cycle through ``modes``, at least MIN_RUNS runs and one per mode, while another run fits in ``seconds``."""
        deadline = time.monotonic() + seconds
        k = 0
        while k < max(MIN_RUNS, len(modes)) or (
            time.monotonic() + statistics.median(r["wall_s"] for r in self.runs) <= deadline
        ):
            self.dispatch(modes[k % len(modes)])
            k += 1

    def timings(self, mode: str) -> list:
        return [r["run_s"] for r in self.runs if r["mode"] == mode and "run_s" in r]


def end_to_end(s: Session) -> dict:
    run_s = statistics.median(s.timings("plain"))
    return {
        "run_s": run_s,
        "setup_s": statistics.median(s.setups),
        "paths_per_s": s.wl.n_paths / run_s,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in s.runs if "rss_mb" in r),
    }


def per_layer(s: Session) -> dict:
    traced = [r for r in s.runs if r["mode"] == "traced" and "layers" in r]
    out = {key: statistics.median_low(r["layers"][key] for r in traced) for key in traced[0]["layers"]}
    out["cli.csv_rows"] = traced[0]["csv_rows"]
    out["cli.bytes_out"] = traced[0]["bytes_out"]
    write_s = out.pop("cli.write_s")
    out["cli.write_us_per_row"] = 1e6 * write_s / out["cli.csv_rows"] if out["cli.csv_rows"] else 0.0
    out["config.parse_s"] = statistics.median(s.parses)
    out["trace.overhead_s"] = statistics.median(s.timings("traced")) - statistics.median(s.timings("plain"))
    return {key: out[key] for key in LAYER_UNITS}


def run_session(wl: Workload, seed: int, seconds: float, trace: bool) -> tuple:
    """Generate inputs, probe setup, run the loop; returns (inputs, session, metrics)."""
    work = ROOT / "bench" / ".work" / wl.name
    work.mkdir(parents=True, exist_ok=True)
    inputs = make_inputs(wl, seed, out=f"bench/.work/{wl.name}/out")
    config = work / "run.ini"
    config.write_text(inputs.config_text, encoding="utf-8")
    session = Session(wl, inputs.master, work, config)
    for _ in range(SETUP_PROBES):
        session.setup_probe()
    session.loop(("plain", "traced") if trace else ("plain",), seconds)
    return inputs, session, per_layer(session) if trace else end_to_end(session)


def measure(wl: Workload, seed: int, seconds: float, trace: bool) -> int:
    """Run one session, append its record to bench/.work/results.jsonl and print the report."""
    if not (ROOT / "src" / "spmelab" / "__init__.py").is_file():
        print(f"error: no spmelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    inputs, session, metrics = run_session(wl, seed, seconds, trace)
    units = LAYER_UNITS if trace else END_TO_END_UNITS
    attempted = len(session.runs)
    failed = sum(not r["ok"] for r in session.runs)
    plain = session.timings("plain")
    record = {
        "workload": wl.name,
        "seed": seed,
        "master_seed": inputs.master,
        "candidates": inputs.candidates,
        "inputs": inputs.facts,
        "git_rev": git_rev(ROOT),
        "machine": machine(),
        "trace": int(trace),
        "run_s_samples": plain,
        "cpu_s_samples": [r["cpu_s"] for r in session.runs if r["mode"] == "plain" and "cpu_s" in r],
        "setup_s_samples": session.setups,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    with open(ROOT / "bench" / ".work" / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    print(f"# workload {wl.name}: {wl.why}")
    print(f"# seed {seed} -> master seed {inputs.master} after {inputs.candidates} candidate(s); inputs {inputs.facts}")
    print(f"# git {record['git_rev']}; machine {record['machine']}")
    print(f"# run_s samples n={len(plain)}: " + " ".join(f"{v:.4f}" for v in plain))
    if trace:
        m = metrics
        traced_s = statistics.median(session.timings("traced"))
        shares = {
            "clocks+probes": m["noise.clock_s"] + 1e-6 * m["noise.probes"] * m["noise.probe_us"],
            "march": m["solver.march_s"],
            "reads+cli": 1e-6 * m["solver.reads"] * m["solver.read_us"] + m["cli.self_s"],
        }
        print(f"# traced run_s {traced_s:.4f} s; shares: "
              + ", ".join(f"{k} {v / traced_s:.0%}" for k, v in shares.items()))
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    print(f"{'fail_ratio':32s} {failed / attempted:14.6g} ratio ({failed} of {attempted} runs failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
