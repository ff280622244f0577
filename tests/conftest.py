"""Shared test plumbing: the acceptance-criteria summary block and the one-path clock.

Acceptance tests register one line per criterion; the lines are echoed in a
dedicated section of the terminal summary so a plain pytest run always shows
the full pass/fail slate, failed criteria included.
"""
from __future__ import annotations

from spmelab import mix_seed, multiplier_path, sample_brownian

_CRITERIA: dict = {}


def one_path_clock(cfg, index: int):
    """The clock of path ``index`` of a sweep over ``cfg``, through the two public one-path calls."""
    return multiplier_path(sample_brownian(cfg.grid, mix_seed(cfg.master_seed, index)), cfg.coeffs, cfg.m)


def record_criterion(index: int, passed: bool, detail: str) -> str:
    line = f"criterion {index:2d}: {'PASS' if passed else 'FAIL'} - {detail}"
    _CRITERIA[index] = line
    return line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for index in sorted(_CRITERIA):
        terminalreporter.write_line(_CRITERIA[index])
