"""One rule for rejecting a bad number, checked at the call sites and in the source.

Every float precondition is written as its valid condition,
``if not (lo <= x <= hi): raise ...``, which a NaN fails, so a NaN argument
raises :class:`InvalidInputError` whose message names the argument and the
value, before any path is drawn or any step is taken.
"""
from __future__ import annotations

import ast
import math
import pathlib

import numpy as np
import pytest

import spmelab
from spmelab import noise, solver
from spmelab import (
    BarenblattParams,
    Bump,
    CoefficientPair,
    FieldState,
    InvalidInputError,
    McConfig,
    QuadraticPressureParams,
    SpatialGrid,
    TimeGrid,
    asymptotics_experiment,
    barenblatt,
    barenblatt_solution,
    box_state,
    check_homogeneity,
    comparison_check,
    evolve,
    evolve_together,
    interp_H,
    interp_mass,
    inverse_pressure,
    limit_profile_check,
    linear_pressure_base,
    lp_power_sum,
    mass_to_b,
    maximum_check,
    mc_lp_bound,
    multiplier_moment,
    multiplier_path,
    pressure,
    quadratic_pressure,
    sample_brownian,
    self_similar,
    sphere_area,
    still_path,
    support_experiment,
    weak_form_residual,
)

MASTER = 20260815
NAN = math.nan
SOURCE = BarenblattParams(m=2.0, d=1, b=1.0)
GRID = SpatialGrid(kind="cartesian", lo=-6.0, hi=6.0, cells=32)
COMPACT = CoefficientPair.from_pieces([(0.0, 1.0), (0.5, 0.0)], [(0.0, 0.0)])


def _config(m: float = 2.0, coeffs: CoefficientPair = CoefficientPair.constant(1.0, 0.0)) -> McConfig:
    return McConfig(
        n_paths=5, master_seed=MASTER, grid=TimeGrid.uniform(1.0, 16),
        coeffs=coeffs, m=m, initial=box_state(GRID, 1.0, 1.0),
    )


def _base_and_clock():
    clock = multiplier_path(still_path(TimeGrid.uniform(1.0, 16)), CoefficientPair.constant(0.0, 0.3), 2.0)
    return linear_pressure_base(2.0), clock


def _no_work(*args):
    raise AssertionError("a path was drawn or a step taken before the inputs were checked")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: barenblatt(SOURCE, NAN, 0.0), "t > 0, not nan"),
        (lambda: SOURCE.support_radius(NAN), "t > 0, not nan"),
        (lambda: quadratic_pressure(QuadraticPressureParams(m=2.0, d=1, q=1.0), NAN, 0.0), "t = 0, not nan"),
        (lambda: self_similar(SOURCE, 1.0, 1.0, 0.0, 0.0, NAN, 0.0), r"scale_t \* t \+ t0 must be positive, not nan"),
        (lambda: barenblatt_solution(SOURCE).evaluate(NAN, 0.0), "t > 0, not nan"),
        (lambda: evolve(box_state(GRID, 1.0, 1.0), 2.0, 1.0, 0.4, (0.5, NAN)), "snapshot times .*, not nan"),
        (lambda: FieldState(GRID, NAN, np.zeros(GRID.cells)), "field time must be nonnegative, not nan"),
        (lambda: evolve(box_state(GRID, 1.0, 1.0), NAN, 1.0, 0.4, ()), "m > 1, not nan"),
        (lambda: BarenblattParams(m=NAN, d=1, b=1.0), "m > 1, not nan"),
        (lambda: BarenblattParams(m=2.0, d=1, b=NAN), "b must be positive, not nan"),
        (lambda: QuadraticPressureParams(m=2.0, d=1, q=NAN), "q must be positive, not nan"),
        (lambda: Bump(center=0.0, width=NAN), "width must be positive, not nan"),
        (lambda: linear_pressure_base(NAN), "m > 1, not nan"),
        (lambda: mass_to_b(2.0, 1, NAN), "mass must be positive, not nan"),
        (lambda: mass_to_b(NAN, 1, 1.0), "m > 1, not nan"),
        (lambda: mass_to_b(1.0, 1, 1.0), "m > 1, not 1.0"),
        (lambda: mass_to_b(2.0, 0, 1.0), "dimension must be >= 1"),
        (lambda: mass_to_b(2.0, 1, math.inf), "mass must be finite, not inf"),
        (lambda: mass_to_b(2.0, NAN, 1.0), "dimension must be >= 1 and a whole number, not nan"),
        (lambda: mass_to_b(math.inf, 1, 1.0), "finite m > 1, not inf"),
        (lambda: BarenblattParams(m=2.0, d=NAN, b=1.0), "dimension must be >= 1 and a whole number, not nan"),
        (lambda: BarenblattParams(m=2.0, d=1.5, b=1.0), "dimension must be >= 1 and a whole number, not 1.5"),
        (lambda: BarenblattParams(m=2.0, d=math.inf, b=1.0), "dimension must be >= 1 and a whole number, not inf"),
        (lambda: BarenblattParams(m=math.inf, d=1, b=1.0), "finite m > 1, not inf"),
        (lambda: QuadraticPressureParams(m=2.0, d=NAN, q=1.0), "dimension must be >= 1 and a whole number, not nan"),
        (lambda: QuadraticPressureParams(m=2.0, d=2.5, q=1.0), "dimension must be >= 1 and a whole number, not 2.5"),
        (lambda: QuadraticPressureParams(m=math.inf, d=1, q=1.0), "finite m > 1, not inf"),
        (lambda: QuadraticPressureParams(m=NAN, d=1, q=1.0), "m > 1, not nan"),
        (lambda: pressure(0.5, NAN), "pressure needs 1 < m < inf, not nan"),
        (lambda: pressure(0.5, 1.0), "pressure needs 1 < m < inf, not 1.0"),
        (lambda: inverse_pressure(0.5, NAN), "pressure needs 1 < m < inf, not nan"),
        (lambda: inverse_pressure(0.5, 1.0), "pressure needs 1 < m < inf, not 1.0"),
        (lambda: sphere_area(0), "dimension d >= 1, not 0"),
        (lambda: sphere_area(-1), "dimension d >= 1, not -1"),
        (
            lambda: evolve(box_state(GRID, 1.0, 1.0), 2.0, math.inf, 0.4, (0.05,)),
            "finite and exceed the initial time, not inf",
        ),
        (
            lambda: evolve_together((box_state(GRID, 1.0, 1.0),), 2.0, math.inf, 0.4, (0.05,)),
            "finite and exceed the initial time, not inf",
        ),
        (lambda: TimeGrid.uniform(math.inf, 4), "0 < horizon < inf and steps >= 1, not inf and 4"),
        (lambda: CoefficientPair.constant(1.0, 0.0).integral_g(math.inf), "integration time must be finite, not inf"),
        (lambda: CoefficientPair.constant(1.0, 0.0).integral_f2(math.inf), "integration time must be finite, not inf"),
        (
            lambda: multiplier_moment(CoefficientPair.constant(1.0, 0.0), 2.0, math.inf),
            "integration time must be finite, not inf",
        ),
        (lambda: pressure(NAN, 2.0), "nonnegative field, not nan"),
        (lambda: inverse_pressure(NAN, 2.0), "pressure values must be nonnegative, not nan"),
        (lambda: mc_lp_bound(_config(), NAN, 0.5), "p >= 1, not nan"),
        (lambda: mc_lp_bound(_config(), math.inf, 0.5), "p >= 1, not inf"),
        (lambda: support_experiment(_config(), plateau_tol=NAN), "plateau tolerance must be nonnegative, not nan"),
        (lambda: support_experiment(_config(), plateau_tol=-1.0), "plateau tolerance must be nonnegative, not -1.0"),
        (lambda: Bump(center=0.0, width=math.inf), "bump width inf spans more than a float holds"),
        (lambda: Bump(center=0.0, width=1e308), "bump width 1e\\+308 spans more than a float holds"),
        (lambda: _config(m=NAN), "m > 1, not nan"),
        (lambda: multiplier_moment(CoefficientPair.constant(1.0, 0.0), NAN, 1.0), "p must be finite, not nan"),
        (lambda: Bump(center=NAN, width=1.0), "center must be finite, not nan"),
        (lambda: lp_power_sum(np.ones(GRID.cells), GRID, NAN), "p > 0, not nan"),
        (lambda: lp_power_sum(np.ones(GRID.cells), GRID, math.inf), "finite p, not inf"),
        (lambda: check_homogeneity("heat", NAN), "gamma must be finite, not nan"),
        (lambda: weak_form_residual(*_base_and_clock(), NAN, Bump(center=0.0, width=1.0), 0.5), "m > 1, not nan"),
        (
            lambda: comparison_check(_config(), box_state(GRID, 0.5, 1.0), _config().initial, [(0.25, 0.0), (0.5, NAN)]),
            r"probe positions must be finite, not \[ 0\. nan\]",
        ),
        (lambda: maximum_check(_config(), 1.0, [(0.5, NAN)]), r"probe positions must be finite, not \[nan\]"),
        (lambda: asymptotics_experiment(_config(), [0.5, 1.0], x0=NAN), "probe positions must be finite, not nan"),
        (
            lambda: limit_profile_check(_config(coeffs=COMPACT), [0.5, 1.0], x0=NAN),
            "probe positions must be finite, not nan",
        ),
    ],
    ids=[
        "barenblatt", "support_radius", "quadratic_pressure", "self_similar", "barenblatt_solution",
        "evolve_snapshot_time", "FieldState_time", "evolve_m",
        "BarenblattParams_m", "BarenblattParams_b", "QuadraticPressureParams_q", "Bump_width",
        "linear_pressure_base", "mass_to_b", "mass_to_b_m", "mass_to_b_m_one", "mass_to_b_d", "mass_to_b_mass_inf",
        "mass_to_b_d_nan", "mass_to_b_m_inf", "BarenblattParams_d_nan", "BarenblattParams_d_fraction",
        "BarenblattParams_d_inf", "BarenblattParams_m_inf", "QuadraticPressureParams_d_nan",
        "QuadraticPressureParams_d_fraction", "QuadraticPressureParams_m_inf", "QuadraticPressureParams_m",
        "pressure_m", "pressure_m_one", "inverse_pressure_m", "inverse_pressure_m_one", "sphere_area_zero",
        "sphere_area_negative", "evolve_horizon_inf", "evolve_together_horizon_inf", "TimeGrid_uniform_inf",
        "integral_g_inf", "integral_f2_inf", "multiplier_moment_t_inf",
        "pressure", "inverse_pressure", "mc_lp_bound_p",
        "mc_lp_bound_p_inf", "support_plateau_tol", "support_plateau_tol_negative", "Bump_width_inf",
        "Bump_width_overflow",
        "McConfig_m", "multiplier_moment_p", "Bump_center", "lp_power_sum_p", "lp_power_sum_p_inf",
        "check_homogeneity_gamma", "weak_form_residual_m", "comparison_check_position", "maximum_check_position",
        "asymptotics_x0", "limit_profile_x0",
    ],
)
def test_nan_arguments_are_invalid_input_naming_the_argument(monkeypatch, call, message):
    monkeypatch.setattr(noise, "_fill_brownian", _no_work)
    monkeypatch.setattr(solver, "_step", _no_work)
    with pytest.raises(InvalidInputError, match=message):
        call()


def test_ranged_reads_share_one_message_for_an_array_with_a_nan():
    clock = multiplier_path(sample_brownian(TimeGrid.uniform(1.0, 16), MASTER), CoefficientPair.constant(1.0, 0.0), 2.0)
    table = evolve(box_state(GRID, 1.0, 1.0), 2.0, 1.0, 0.4, (0.5,))
    messages = []
    for read in (lambda: interp_H(clock, [0.5, NAN]), lambda: interp_mass(table, [0.5, NAN])):
        with pytest.raises(InvalidInputError) as err:
            read()
        messages.append(str(err.value))
    assert messages == ["time [0.5 nan] is not a number"] * 2


# ---------------------------------------------------------------------------
# The rule in the source: no ordering comparison guards a raise unnegated.
# ---------------------------------------------------------------------------

# Comparisons that may guard a raise as written, each with its reason.  Counts
# and dimensions are ints, which cannot be NaN.
ALLOWED = {
    ("analysis.py", "self.n_paths < 2"): "path count, an int",
    ("analysis.py", "len(times) < 2"): "number of probe times; a NaN time fails the strict-increase test beside it",
    ("noise.py", "arr.size < 2"): "node count",
    ("noise.py", "br.size < 1"): "breakpoint count",
    ("solver.py", "self.cells < 8"): "cell count, an int",
    ("solver.py", "self.dim < 2"): "dimension, an int",
    ("solver.py", "times.size < 1"): "snapshot count",
    ("solver.py", "len(initials) < 1"): "number of initial states",
    ("solver.py", "steps_taken > _MAX_STEPS"): "step count",
    ("timechange.py", "s >= iv.hi"): (
        "not a guard: it picks BlowUpError over InvalidInputError for a clock value that already "
        "failed base.interval.contains, so a NaN, which fails it too, stays InvalidInputError"
    ),
}

_ORDERING = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _bare_orderings(node) -> list:
    """Ordering comparisons in ``node`` that no ``not`` encloses."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        return []
    found = [node] if isinstance(node, ast.Compare) and any(isinstance(op, _ORDERING) for op in node.ops) else []
    for child in ast.iter_child_nodes(node):
        found += _bare_orderings(child)
    return found


def _raising_orderings() -> list:
    """(file, comparison, line) of each bare ordering in the test of an ``if`` whose body raises."""
    found = []
    for path in sorted(pathlib.Path(spmelab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.If) and any(isinstance(stmt, ast.Raise) for stmt in node.body):
                found += [(path.name, ast.unparse(cmp), cmp.lineno) for cmp in _bare_orderings(node.test)]
    return found


def test_every_float_guard_is_written_as_its_valid_condition():
    probe = ast.parse("if x <= 0.0 or not y > 0.0:\n    raise ValueError\n").body[0].test
    assert [ast.unparse(cmp) for cmp in _bare_orderings(probe)] == ["x <= 0.0"]
    found = _raising_orderings()
    flagged = [f"{name}:{line}: {text}" for name, text, line in found if (name, text) not in ALLOWED]
    assert not flagged, "write these as `if not <valid condition>: raise`, which a NaN fails:\n" + "\n".join(flagged)
    stale = set(ALLOWED) - {(name, text) for name, text, _ in found}
    assert not stale, f"allowlist entries that match no guard: {sorted(stale)}"
