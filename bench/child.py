"""One measured spmelab process: parse and validate a config, then dispatch it.

Usage: python3 bench/child.py LAUNCH CONFIG RESULT SEED MODE

LAUNCH is the parent's ``time.monotonic()`` just before it started this
process (CLOCK_MONOTONIC is shared by all processes on Linux), so setup time
covers interpreter start, ``import spmelab`` and config parsing.  MODE is
``setup`` (stop after parsing), ``plain`` or ``traced``.  The process writes
one JSON object to RESULT; the program's own stdout is left to the caller.
"""
import time
import sys


def main(argv) -> int:
    launch, config, result, seed, mode = float(argv[1]), argv[2], argv[3], int(argv[4]), argv[5]
    import json
    import resource
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    import spmelab
    from spmelab import cli
    from spmelab.config import apply_overrides, parse_config
    from spmelab.errors import SpmeError

    if Path(spmelab.__file__).resolve().parent != src / "spmelab":
        raise SystemExit(f"spmelab imported from {spmelab.__file__}, not from {src}")
    text = Path(config).read_text(encoding="utf-8")
    started = time.monotonic()
    cfg = apply_overrides(parse_config(text), seed=seed)
    parsed = time.monotonic()
    out = {"setup_s": parsed - launch, "parse_s": parsed - started}
    if mode != "setup":
        tracer = None
        if mode == "traced":
            sys.path.insert(0, str(Path(__file__).resolve().parent))
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        started, cpu = time.perf_counter(), time.process_time()
        try:
            status = cli.dispatch(cfg)
        except SpmeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 2
        out["run_s"] = time.perf_counter() - started
        out["cpu_s"] = time.process_time() - cpu
        out["status"] = status
        out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
            out["layers"] = tracer.layer_metrics()
            out["min_self_s"] = tracer.min_self
            out["self_total_s"] = sum(tracer.layer_self.values())
            out["root_s"] = tracer.inclusive["cli.dispatch"]
    Path(result).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
