"""Tests for parsing, validating, and serializing run configurations."""
from __future__ import annotations

import pytest

from spmelab import (
    ConfigError,
    RunConfig,
    apply_overrides,
    parse_config,
    serialize_config,
)
from spmelab.cli import main


def test_minimal_config_fills_documented_defaults():
    cfg = parse_config("[run]\ncommand = evolve\n")
    assert cfg.command == "evolve"
    assert cfg.m == 2.0
    assert cfg.cells == 200
    assert cfg.f == ((0.0, 1.0),)
    assert cfg.g == ((0.0, 0.0),)
    assert cfg.seed == 20260815


def test_comments_blank_lines_and_whitespace_are_ignored():
    text = """
    # leading comment
    [run]

    ; another comment style
    command =   mc
    mode= lp_bound
      n_paths =  17
    """
    cfg = parse_config(text)
    assert cfg.command == "mc"
    assert cfg.mode == "lp_bound"
    assert cfg.n_paths == 17


def test_piece_syntax_variants():
    cfg = parse_config("[run]\ncommand = path\nf = 0:1, 0.5:0\ng = 0.25\n")
    assert cfg.f == ((0.0, 1.0), (0.5, 0.0))
    assert cfg.g == ((0.0, 0.25),)


def test_float_list_syntax():
    cfg = parse_config("[run]\ncommand = evolve\ntimes = 0.5, 1, 2\npoints = -1,0,1\n")
    assert cfg.times == (0.5, 1.0, 2.0)
    assert cfg.points == (-1.0, 0.0, 1.0)


def test_serialize_then_parse_round_trips_exactly():
    cfg = parse_config(
        "[run]\n"
        "command = mc\n"
        "mode = limit_law\n"
        "m = 2.5\n"
        "f = 0:0.75, 1.5:0\n"
        "g = 0:0.125, 2:0\n"
        "horizon = 3.5\n"
        "steps = 300\n"
        "times = 0.1, 0.7\n"
        "points = 0.333\n"
        "cfl_safety = 0.35\n"
    )
    again = parse_config(serialize_config(cfg))
    assert again == cfg


def parse_error(text: str) -> ConfigError:
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    return excinfo.value


def test_structural_errors_carry_line_numbers():
    err = parse_error("command = evolve\n")
    assert err.line == 1
    err = parse_error("[run\ncommand = evolve\n")
    assert err.line == 1
    err = parse_error("[other]\ncommand = evolve\n")
    assert err.line == 1
    err = parse_error("[run]\njust some words\n")
    assert err.line == 2
    err = parse_error("")
    assert "missing" in str(err)


def test_unknown_and_duplicate_keys():
    err = parse_error("[run]\ncommand = evolve\nbogus = 1\n")
    assert err.line == 3 and err.key == "bogus"
    err = parse_error("[run]\ncommand = evolve\nm = 2\nm = 3\n")
    assert err.line == 4 and err.key == "m"
    assert "line 3" in str(err)


def test_value_type_errors():
    err = parse_error("[run]\ncommand = evolve\nsteps = soon\n")
    assert err.line == 3 and err.key == "steps"
    err = parse_error("[run]\ncommand = evolve\ntimes = 1, two\n")
    assert err.key == "times"
    err = parse_error("[run]\ncommand = evolve\ntimes = \n")
    assert err.key == "times"


def test_piece_syntax_errors():
    err = parse_error("[run]\ncommand = path\nf = 0:1,,1:0\n")
    assert err.key == "f" and err.line == 3
    err = parse_error("[run]\ncommand = path\nf = a:b\n")
    assert err.key == "f"
    err = parse_error("[run]\ncommand = path\nf = 0.5:1\n")
    assert "start at time 0" in str(err)
    err = parse_error("[run]\ncommand = path\nf = 0:1, 2:0, 1:5\n")
    assert "increase" in str(err)
    err = parse_error("[run]\ncommand = path\nf = 0:1, 0:0\n")
    assert "increase" in str(err)


@pytest.mark.parametrize(
    "line,key",
    [
        ("command = fly", "command"),
        ("solution = mystery", "solution"),
        ("mode = median", "mode"),
        ("grid_kind = polar", "grid_kind"),
        ("m = 1.0", "m"),
        ("dim = 0", "dim"),
        ("b = 0", "b"),
        ("q = -1", "b"),
        ("horizon = 0", "horizon"),
        ("steps = 0", "horizon"),
        ("grid_hi = -7", "grid_hi"),
        ("cells = 4", "cells"),
        ("height = -1", "height"),
        ("half_width = 0", "height"),
        ("n_paths = 0", "n_paths"),
        ("cfl_safety = 1.5", "cfl_safety"),
        ("times = -1", "times"),
        ("times = 2, 1", "times"),
        ("plateau_tol = -1", "plateau_tol"),
    ],
)
def test_semantic_validation_reports_the_offending_key(line, key):
    err = parse_error(f"[run]\ncommand = evolve\n{line}\n")
    assert err.key == key


@pytest.mark.parametrize(
    "line,key",
    [
        ("m = nan", "m"),
        ("b = NaN", "b"),
        ("p = -inf", "p"),
        ("horizon = 1e999", "horizon"),
        ("cfl_safety = nan", "cfl_safety"),
        ("times = 0.5, nan", "times"),
        ("points = inf", "points"),
        ("f = nan", "f"),
        ("g = 0:0, inf:1", "g"),
        ("f = 0:1, 1:-inf", "f"),
    ],
)
def test_non_finite_numbers_are_rejected_naming_line_and_key(line, key):
    # float() reads these; NaN would pass every range check after it.
    err = parse_error(f"[run]\ncommand = exact\n{line}\n")
    assert (err.line, err.key) == (3, key)
    assert "must be finite" in str(err)


def test_apply_overrides_revalidates():
    cfg = parse_config("[run]\ncommand = evolve\n")
    over = apply_overrides(cfg, seed=7, out="elsewhere")
    assert (over.seed, over.out) == (7, "elsewhere")
    assert apply_overrides(cfg) is cfg
    with pytest.raises(TypeError):
        apply_overrides(cfg, threads=3)


def test_threads_key_is_rejected_naming_the_key(tmp_path, capsys):
    path = tmp_path / "threads.ini"
    path.write_text(f"[run]\ncommand = path\nthreads = 4\nout = {tmp_path / 'out'}\n", encoding="utf-8")
    assert main(["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error (line 3)") and "'threads'" in err
    assert not (tmp_path / "out").exists()


def test_threads_flag_is_rejected(tmp_path, capsys):
    path = tmp_path / "path.ini"
    path.write_text(f"[run]\ncommand = path\nout = {tmp_path / 'out'}\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(path), "--threads", "4"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_serialization_is_canonical_and_stable():
    cfg = RunConfig(command="exact")
    text = serialize_config(cfg)
    assert text.startswith("[run]\n")
    assert text == serialize_config(parse_config(text))
