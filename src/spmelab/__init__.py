"""Numerical laboratory for the porous medium equation with multiplicative noise.

The stochastic field u solves du = lap(u**m) dt + u (f dw + g dt) and is
represented as u(t, x) = U(H(t), x) h(t): a deterministic solution U read at
the random clock H and scaled by the multiplier h.  The subpackages follow
that split: `noise` builds h and H along sampled paths, `timechange` moves
between the two pictures, `exact` holds closed-form bases, `solver` produces
numeric bases, `analysis` runs Monte Carlo and verification studies, and
`cli`/`config` drive batch runs.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .errors import (
    BlowUpError,
    ConfigError,
    InvalidInputError,
    OutOfRangeError,
    SpmeError,
    StabilityError,
    UnsupportedInputError,
)
from .noise import (
    CoefficientPair,
    MultiplierPath,
    NoisePath,
    TimeGrid,
    hitting_time,
    interp_H,
    interp_h,
    inverse_clock,
    limit_distribution,
    mix_seed,
    multiplier_moment,
    multiplier_path,
    refine_brownian,
    sample_brownian,
    still_path,
)
from .timechange import (
    DeterministicSolution,
    StochasticFieldSample,
    TimeInterval,
    check_homogeneity,
    forward_transform,
    inverse_transform,
)
from .exact import (
    BarenblattParams,
    QuadraticPressureParams,
    barenblatt,
    barenblatt_mass,
    barenblatt_solution,
    inverse_pressure,
    linear_pressure_base,
    mass_to_b,
    pressure,
    pressure_commutation_check,
    quadratic_pressure,
    quadratic_pressure_solution,
    self_similar,
    sphere_area,
)
from .solver import (
    FieldState,
    SnapshotTable,
    SpatialGrid,
    barenblatt_state,
    box_state,
    dense_values,
    eval_on_centers,
    evolve,
    evolve_together,
    interp_mass,
    lp_power_sum,
    support_radius,
    table_solution,
)
from .analysis import (
    Bump,
    McConfig,
    McReport,
    asymptotics_experiment,
    comparison_check,
    limit_law_statistics,
    limit_profile_check,
    maximum_check,
    mc_lp_bound,
    mc_mean_mass,
    support_experiment,
    sweep_paths,
    weak_form_residual,
)
from .config import RunConfig, apply_overrides, parse_config, serialize_config
