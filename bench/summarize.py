"""Summarise benchmark records: median, quartiles and spread per workload and metric.

Usage: python3 bench/summarize.py [RESULTS.jsonl]   (default bench/.work/results.jsonl)

Every ``bench/run.py`` call appends one record to the results file.  For
each (workload, trace mode, metric) this prints the number of records, the
median, the quartiles from ``statistics.quantiles(values, n=4)`` and the
spread, (Q3 - Q1) / median, as one JSON object.  It also carries the
machine, git revisions and seeds the records came from.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def summarize(records: list) -> dict:
    groups = defaultdict(lambda: defaultdict(list))
    seeds = defaultdict(list)
    for rec in records:
        key = f"{rec['workload']}/trace{rec['trace']}"
        seeds[key].append(rec["seed"])
        for name, value in rec["metrics"].items():
            groups[key][name].append(value)
        groups[key]["failed_runs"].append(rec["failed"])
    out = {
        "machine": records[0]["machine"] if records else {},
        "git_revs": sorted({rec["git_rev"] for rec in records}),
        "sets": {},
    }
    for key, metrics in sorted(groups.items()):
        rows = {}
        for name, values in metrics.items():
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            rows[name] = {
                "n": len(values),
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0,
            }
        out["sets"][key] = {"seeds": seeds[key], "metrics": rows}
    return out


def main(argv) -> int:
    path = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent / ".work" / "results.jsonl"
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
    print(json.dumps(summarize(records), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
