"""The names the package exports and the options they take, spelled out so that any change shows in a diff."""
from __future__ import annotations

import dataclasses
import inspect

import spmelab

PUBLIC_NAMES = [
    "BarenblattParams",
    "BlowUpError",
    "Bump",
    "CoefficientPair",
    "ConfigError",
    "DeterministicSolution",
    "FieldState",
    "InvalidInputError",
    "McConfig",
    "McReport",
    "MultiplierPath",
    "NoisePath",
    "OutOfRangeError",
    "QuadraticPressureParams",
    "RunConfig",
    "SnapshotTable",
    "SpatialGrid",
    "SpmeError",
    "StabilityError",
    "TimeGrid",
    "TimeInterval",
    "UnsupportedInputError",
    "apply_overrides",
    "asymptotics_experiment",
    "barenblatt",
    "barenblatt_mass",
    "barenblatt_solution",
    "barenblatt_state",
    "box_state",
    "check_homogeneity",
    "comparison_check",
    "dense_values",
    "eval_on_centers",
    "evolve",
    "evolve_together",
    "forward_transform",
    "hitting_time",
    "interp_H",
    "interp_h",
    "interp_mass",
    "inverse_clock",
    "inverse_pressure",
    "inverse_transform",
    "limit_distribution",
    "limit_law_statistics",
    "limit_profile_check",
    "linear_pressure_base",
    "lp_power_sum",
    "mass_to_b",
    "maximum_check",
    "mc_lp_bound",
    "mc_mean_mass",
    "mix_seed",
    "multiplier_moment",
    "multiplier_path",
    "parse_config",
    "pressure",
    "pressure_commutation_check",
    "quadratic_pressure",
    "quadratic_pressure_solution",
    "refine_brownian",
    "sample_brownian",
    "self_similar",
    "serialize_config",
    "sphere_area",
    "still_path",
    "support_experiment",
    "support_radius",
    "sweep_paths",
    "table_solution",
    "weak_form_residual",
]


def test_public_names_are_the_listed_ones():
    # Functions and classes of the package; submodules and the __future__ import are no exports.
    exported = sorted(
        name for name, value in vars(spmelab).items()
        if not name.startswith("_") and getattr(value, "__module__", "").startswith("spmelab.")
    )
    assert exported == sorted(PUBLIC_NAMES)


# Every exported function that has parameters with defaults, and their names in order.
DEFAULTED_PARAMETERS = {
    "apply_overrides": ["seed", "out"],
    "asymptotics_experiment": ["x0"],
    "check_homogeneity": ["m"],
    "limit_profile_check": ["x0"],
    "support_experiment": ["plateau_tol", "mass_check_time"],
}

CONFIG_FIELDS = {
    "McConfig": ["n_paths", "master_seed", "grid", "coeffs", "m", "initial", "cfl_safety"],
}


def test_defaulted_parameters_are_the_listed_ones():
    found = {}
    for name in PUBLIC_NAMES:
        value = getattr(spmelab, name)
        if inspect.isfunction(value):
            params = inspect.signature(value).parameters.values()
            defaulted = [p.name for p in params if p.default is not inspect.Parameter.empty]
            if defaulted:
                found[name] = defaulted
    assert found == DEFAULTED_PARAMETERS


def test_config_fields_are_the_listed_ones():
    fields = {name: [f.name for f in dataclasses.fields(getattr(spmelab, name))] for name in CONFIG_FIELDS}
    assert fields == CONFIG_FIELDS


# The transform layer takes the base solution and its clock as its leading pair.
LEADING_PAIR = ["base", "clock"]
TRANSFORM_FUNCTIONS = ["forward_transform", "inverse_transform", "weak_form_residual", "pressure_commutation_check"]


def test_transform_functions_lead_with_base_and_clock():
    leading = {name: list(inspect.signature(getattr(spmelab, name)).parameters)[:2] for name in TRANSFORM_FUNCTIONS}
    assert leading == {name: LEADING_PAIR for name in TRANSFORM_FUNCTIONS}


def test_deterministic_solution_fields_are_the_listed_ones():
    assert [f.name for f in dataclasses.fields(spmelab.DeterministicSolution)] == ["evaluate", "interval"]


def test_snapshot_table_fields_are_the_listed_ones():
    assert [f.name for f in dataclasses.fields(spmelab.SnapshotTable)] == [
        "grid", "times", "values", "clamped_total", "steps", "dt_min", "dt_max", "cell_steps", "stages", "rezones",
        "masses",
    ]
