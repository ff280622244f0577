"""Plain-text run configuration: one [run] section of key = value lines.

Comments start with '#' or ';' on their own line; keys are the RunConfig
field names; coefficient tables use the piece syntax ``start:value`` joined
by commas (a bare number abbreviates a single piece starting at 0).  Parsing
reports the offending line and key, and :func:`serialize_config` emits a
canonical text that reparses to an equal RunConfig.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .errors import ConfigError

COMMANDS = ("exact", "path", "evolve", "transform", "mc", "asymptotics", "support")
SOLUTIONS = ("barenblatt", "quadratic_pressure", "linear_pressure")
MC_MODES = ("mean_mass", "lp_bound", "limit_law")
GRID_KINDS = ("cartesian", "radial")


@dataclass(frozen=True)
class RunConfig:
    """Everything a batch run needs, with documented defaults."""

    command: str = ""
    m: float = 2.0
    dim: int = 1
    b: float = 1.0
    q: float = 1.0
    t0: float = 1.0
    solution: str = "barenblatt"
    f: tuple = ((0.0, 1.0),)
    g: tuple = ((0.0, 0.0),)
    horizon: float = 1.0
    steps: int = 256
    grid_kind: str = "cartesian"
    grid_lo: float = -6.0
    grid_hi: float = 6.0
    cells: int = 200
    initial: str = "box"
    height: float = 1.0
    half_width: float = 1.0
    n_paths: int = 100
    seed: int = 20260815
    out: str = "out"
    times: tuple = (1.0,)
    points: tuple = (0.0,)
    p: float = 2.0
    t: float = 1.0
    mode: str = "mean_mass"
    cfl_safety: float = 0.4
    plateau_tol: float = 0.01
    mass_check_time: float = 2.0


_FIELD_KIND = {
    "command": "str",
    "solution": "str",
    "grid_kind": "str",
    "initial": "str",
    "out": "str",
    "mode": "str",
    "dim": "int",
    "steps": "int",
    "cells": "int",
    "n_paths": "int",
    "seed": "int",
    "f": "pieces",
    "g": "pieces",
    "times": "floats",
    "points": "floats",
}
_FIELD_KIND.update(
    {f.name: "float" for f in fields(RunConfig) if f.name not in _FIELD_KIND}
)


def _finite(value: float, line: int, key: str) -> float:
    # float() reads nan and inf, which no option means and NaN slips past every range check.
    if not math.isfinite(value):
        raise ConfigError(f"'{key}' must be finite, not {value}", line=line, key=key)
    return value


def _parse_pieces(raw: str, line: int, key: str) -> tuple:
    pieces = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise ConfigError(f"empty piece in '{key}'", line=line, key=key)
        if ":" in chunk:
            start_s, _, value_s = chunk.partition(":")
        else:
            start_s, value_s = "0", chunk
        try:
            start, value = float(start_s), float(value_s)
        except ValueError:
            raise ConfigError(
                f"piece '{chunk}' is not start:value", line=line, key=key
            ) from None
        pieces.append((_finite(start, line, key), _finite(value, line, key)))
    if pieces[0][0] != 0.0:
        raise ConfigError(f"'{key}' must start at time 0", line=line, key=key)
    starts = [s for s, _ in pieces]
    if sorted(starts) != starts or len(set(starts)) != len(starts):
        raise ConfigError(f"'{key}' piece starts must increase", line=line, key=key)
    return tuple(pieces)


def _parse_value(kind: str, raw: str, line: int, key: str):
    try:
        if kind == "str":
            return raw
        if kind == "int":
            return int(raw)
        if kind == "float":
            return _finite(float(raw), line, key)
        if kind == "floats":
            return tuple(_finite(float(part), line, key) for part in raw.split(","))
    except ValueError:
        raise ConfigError(f"cannot read '{raw}' as {kind}", line=line, key=key) from None
    return _parse_pieces(raw, line, key)


def _validate(cfg: RunConfig) -> RunConfig:
    def bad(key: str, message: str):
        raise ConfigError(message, key=key)

    if cfg.command not in COMMANDS:
        bad("command", f"command must be one of {', '.join(COMMANDS)}")
    if cfg.solution not in SOLUTIONS:
        bad("solution", f"solution must be one of {', '.join(SOLUTIONS)}")
    if cfg.mode not in MC_MODES:
        bad("mode", f"mode must be one of {', '.join(MC_MODES)}")
    if cfg.grid_kind not in GRID_KINDS:
        bad("grid_kind", f"grid_kind must be one of {', '.join(GRID_KINDS)}")
    if cfg.m <= 1.0:
        bad("m", "m must exceed 1")
    if cfg.dim < 1:
        bad("dim", "dim must be >= 1")
    if cfg.b <= 0.0 or cfg.q <= 0.0:
        bad("b", "b and q must be positive")
    if cfg.horizon <= 0.0 or cfg.steps < 1:
        bad("horizon", "need horizon > 0 and steps >= 1")
    if cfg.grid_hi <= cfg.grid_lo:
        bad("grid_hi", "grid_hi must exceed grid_lo")
    if cfg.cells < 8:
        bad("cells", "cells must be >= 8")
    if cfg.height < 0.0 or cfg.half_width <= 0.0:
        bad("height", "need height >= 0 and half_width > 0")
    if cfg.n_paths < 1:
        bad("n_paths", "n_paths must be >= 1")
    if not 0.0 < cfg.cfl_safety <= 1.0:
        bad("cfl_safety", "cfl_safety must lie in (0, 1]")
    if not cfg.times or any(t < 0.0 for t in cfg.times):
        bad("times", "times must be non-negative and non-empty")
    if list(cfg.times) != sorted(cfg.times):
        bad("times", "times must be sorted")
    if not cfg.points:
        bad("points", "points must be non-empty")
    if cfg.plateau_tol < 0.0:
        bad("plateau_tol", "plateau_tol must be >= 0")
    return cfg


def parse_config(text: str) -> RunConfig:
    """Read the [run] section into a validated RunConfig."""
    values: dict = {}
    section = None
    seen_lines: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("unterminated section header", line=lineno)
            section = line[1:-1].strip()
            if section != "run":
                raise ConfigError(f"unknown section '{section}'", line=lineno)
            continue
        if section is None:
            raise ConfigError("key before any [run] section", line=lineno)
        key, sep, raw_value = line.partition("=")
        if not sep:
            raise ConfigError("expected key = value", line=lineno)
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in _FIELD_KIND:
            raise ConfigError(f"unknown key '{key}'", line=lineno, key=key)
        if key in values:
            raise ConfigError(
                f"duplicate key '{key}' (first at line {seen_lines[key]})",
                line=lineno,
                key=key,
            )
        values[key] = _parse_value(_FIELD_KIND[key], raw_value, lineno, key)
        seen_lines[key] = lineno
    if section is None:
        raise ConfigError("missing [run] section")
    return _validate(RunConfig(**values))


def _format_float(x: float) -> str:
    return f"{float(x):.17g}"


def _serialize_value(kind: str, value) -> str:
    if kind == "str":
        return str(value)
    if kind == "int":
        return str(int(value))
    if kind == "float":
        return _format_float(value)
    if kind == "floats":
        return ",".join(_format_float(v) for v in value)
    return ",".join(f"{_format_float(s)}:{_format_float(v)}" for s, v in value)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse_config(serialize_config(cfg)) == cfg."""
    lines = ["[run]"]
    for f in fields(RunConfig):
        lines.append(f"{f.name} = {_serialize_value(_FIELD_KIND[f.name], getattr(cfg, f.name))}")
    return "\n".join(lines) + "\n"


def apply_overrides(cfg: RunConfig, seed=None, out=None) -> RunConfig:
    """Apply command-line overrides, revalidating the result."""
    updates = {}
    if seed is not None:
        updates["seed"] = int(seed)
    if out is not None:
        updates["out"] = str(out)
    return _validate(replace(cfg, **updates)) if updates else cfg
