"""Tests for Brownian sampling, the positive multiplier, and the random clock."""
from __future__ import annotations

import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spmelab import (
    CoefficientPair,
    InvalidInputError,
    NoisePath,
    OutOfRangeError,
    TimeGrid,
    UnsupportedInputError,
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
from spmelab import noise
from spmelab.noise import _clock_blocks, locate_times, read_block

MASTER = 20260815


def test_time_grid_validation():
    with pytest.raises(InvalidInputError):
        TimeGrid(np.array([0.0]))
    with pytest.raises(InvalidInputError):
        TimeGrid(np.array([0.5, 1.0]))
    with pytest.raises(InvalidInputError):
        TimeGrid(np.array([0.0, 1.0, 1.0]))
    with pytest.raises(InvalidInputError):
        TimeGrid(np.array([0.0, np.inf]))
    with pytest.raises(InvalidInputError):
        TimeGrid.uniform(0.0, 10)
    with pytest.raises(InvalidInputError):
        TimeGrid.uniform(1.0, 0)
    grid = TimeGrid.uniform(2.0, 8)
    assert grid.horizon == 2.0
    assert grid.steps == 8


def test_noise_path_validation():
    grid = TimeGrid.uniform(1.0, 4)
    with pytest.raises(InvalidInputError):
        NoisePath(grid=grid, w=np.array([0.1, 0.0, 0.0, 0.0, 0.0]), seed=1)
    with pytest.raises(InvalidInputError):
        NoisePath(grid=grid, w=np.zeros(4), seed=1)


def test_brownian_starts_at_zero_and_is_deterministic():
    grid = TimeGrid.uniform(1.0, 100)
    a = sample_brownian(grid, MASTER)
    b = sample_brownian(grid, MASTER)
    c = sample_brownian(grid, MASTER + 1)
    assert a.w[0] == 0.0
    assert np.array_equal(a.w, b.w)
    assert not np.array_equal(a.w, c.w)


def test_brownian_terminal_variance_over_many_seeds():
    grid = TimeGrid.uniform(1.0, 10_000)
    finals = np.array([sample_brownian(grid, seed).w[-1] for seed in range(10_000)])
    sample_var = float(np.var(finals, ddof=1))
    assert 0.95 <= sample_var <= 1.05


def test_multiplier_trivial_coefficients_give_identity_clock():
    grid = TimeGrid.uniform(1.0, 64)
    clock = multiplier_path(sample_brownian(grid, MASTER), CoefficientPair.constant(0.0, 0.0), gamma=2.0)
    assert np.all(clock.h == 1.0)
    assert np.max(np.abs(clock.H - grid.nodes)) <= 1e-15
    assert clock.h[0] == 1.0 and clock.H[0] == 0.0
    assert interp_h(clock, 0.0) == 1.0
    assert interp_H(clock, 0.0) == 0.0


def test_multiplier_constant_drift_matches_closed_form():
    g0, m = 0.3, 2.0
    grid = TimeGrid.uniform(1.0, 2048)
    clock = multiplier_path(still_path(grid), CoefficientPair.constant(0.0, g0), gamma=m)
    assert np.max(np.abs(clock.logh - g0 * grid.nodes)) <= 1e-12
    exact_H = (np.exp((m - 1.0) * g0 * grid.nodes) - 1.0) / ((m - 1.0) * g0)
    assert np.max(np.abs(clock.H - exact_H)) <= 1e-3


def test_multiplier_invariants_over_seed_sweep():
    grid = TimeGrid.uniform(1.5, 128)
    coeffs = CoefficientPair.constant(0.8, -0.2)
    for seed in range(50):
        clock = multiplier_path(sample_brownian(grid, seed), coeffs, gamma=2.0)
        assert np.all(clock.h > 0.0)
        assert clock.h[0] == 1.0
        assert clock.H[0] == 0.0
        assert np.all(np.diff(clock.H) > 0.0)
        assert np.max(np.abs(clock.h - np.exp(clock.logh))) == 0.0


def test_coefficient_breakpoints_must_lie_on_the_grid():
    grid = TimeGrid.uniform(1.0, 7)
    coeffs = CoefficientPair(np.array([0.0, 0.3]), np.array([1.0, 0.0]), np.array([0.0, 0.0]))
    with pytest.raises(InvalidInputError):
        multiplier_path(sample_brownian(grid, 1), coeffs, gamma=2.0)
    aligned = TimeGrid.uniform(1.0, 10)
    clock = multiplier_path(sample_brownian(aligned, 1), coeffs, gamma=2.0)
    assert clock.h[-1] > 0.0


def test_coefficient_pair_validation():
    with pytest.raises(InvalidInputError):
        CoefficientPair(np.array([0.5]), np.array([1.0]), np.array([0.0]))
    with pytest.raises(InvalidInputError):
        CoefficientPair(np.array([0.0, 0.0]), np.array([1.0, 1.0]), np.array([0.0, 0.0]))
    with pytest.raises(InvalidInputError):
        CoefficientPair(np.array([0.0, 1.0]), np.array([1.0]), np.array([0.0, 0.0]))
    with pytest.raises(InvalidInputError):
        CoefficientPair(np.array([0.0]), np.array([np.nan]), np.array([0.0]))
    with pytest.raises(InvalidInputError):
        CoefficientPair.from_pieces([(0.5, 1.0)], [(0.5, 0.0)])


def test_coefficient_integrals_are_exact():
    coeffs = CoefficientPair.from_pieces([(0.0, 1.0), (0.5, 2.0)], [(0.0, -0.4), (0.5, 0.1)])
    assert coeffs.integral_f2(2.0) == pytest.approx(0.5 * 1.0 + 1.5 * 4.0, abs=1e-14)
    assert coeffs.integral_f2(0.25) == pytest.approx(0.25, abs=1e-14)
    assert coeffs.integral_f2(0.75) == pytest.approx(0.5 + 0.25 * 4.0, abs=1e-14)
    assert coeffs.integral_g(0.75) == pytest.approx(0.5 * -0.4 + 0.25 * 0.1, abs=1e-14)
    with pytest.raises(InvalidInputError):
        coeffs.integral_g(-0.1)


def test_inverse_clock_identity_and_round_trip():
    grid = TimeGrid.uniform(1.0, 64)
    identity = multiplier_path(still_path(grid), CoefficientPair.constant(0.0, 0.0), gamma=2.0)
    for s in (0.0, 0.25, 0.77, 1.0):
        assert inverse_clock(identity, s) == pytest.approx(s, abs=1e-12)
    clock = multiplier_path(sample_brownian(grid, MASTER), CoefficientPair.constant(1.0, 0.0), gamma=2.0)
    top = float(clock.H[-1])
    for s in np.linspace(0.0, top, 23):
        assert abs(interp_H(clock, inverse_clock(clock, s)) - s) <= 1e-12 * max(1.0, top)
    with pytest.raises(OutOfRangeError):
        inverse_clock(clock, top * 1.01)
    with pytest.raises(OutOfRangeError):
        inverse_clock(clock, -0.01)


def test_inverse_clock_constant_drift_closed_form():
    g0, m = 0.4, 3.0
    grid = TimeGrid.uniform(1.0, 4096)
    clock = multiplier_path(still_path(grid), CoefficientPair.constant(0.0, g0), gamma=m)
    k = (m - 1.0) * g0
    for s in (0.1, 0.5, 1.0):
        exact_t = math.log1p(k * s) / k
        assert inverse_clock(clock, s) == pytest.approx(exact_t, abs=1e-3)


def test_hitting_time_conventions():
    grid = TimeGrid.uniform(1.0, 64)
    identity = multiplier_path(still_path(grid), CoefficientPair.constant(0.0, 0.0), gamma=2.0)
    assert hitting_time(identity, 0.0) == 0.0
    assert hitting_time(identity, 0.5) == pytest.approx(0.5, abs=1e-12)
    assert hitting_time(identity, 2.0) is None
    with pytest.raises(InvalidInputError):
        hitting_time(identity, -1.0)
    # In range, the hitting time is the clock inversion, bit for bit.
    noisy = multiplier_path(sample_brownian(grid, MASTER), CoefficientPair.constant(1.0, 0.2), gamma=2.0)
    for clock in (identity, noisy):
        top = float(clock.H[-1])
        for level in (0.0, 0.1 * top, 0.5 * top, float(clock.H[17]), top):
            hit = hitting_time(clock, level)
            assert type(hit) is float
            assert np.float64(hit).tobytes() == np.float64(inverse_clock(clock, level)).tobytes()


def test_strong_drift_keeps_the_clock_below_the_target_level():
    alpha, m, level = 13.0, 2.0, 1.0 / 12.0
    grid = TimeGrid.uniform(40.0, 8000)
    dt = grid.horizon / grid.steps
    clock = multiplier_path(still_path(grid), CoefficientPair.constant(0.0, -alpha), gamma=m)
    # Left-endpoint sums of a decreasing integrand overshoot the continuous
    # clock by at most dt/2; the plateau must still sit below the level.
    continuous_sup = 1.0 / ((m - 1.0) * alpha)
    assert continuous_sup <= float(clock.H[-1]) <= continuous_sup + dt
    assert float(clock.H[-1]) < level
    assert hitting_time(clock, level) is None


def test_multiplier_moment_closed_forms():
    assert multiplier_moment(CoefficientPair.constant(0.7, 0.0), 1.0, 2.0) == 1.0
    assert multiplier_moment(CoefficientPair.constant(1.0, 0.5), 2.0, 0.0) == 1.0
    assert multiplier_moment(CoefficientPair.constant(1.0, 0.0), 2.0, 1.0) == pytest.approx(math.e, rel=1e-15)
    # With f = g = 0, h is 1 and so is every moment, also where 0.5 p (p - 1) overflows.
    for p in (1e155, 1e200):
        assert multiplier_moment(CoefficientPair.constant(0.0, 0.0), p, 1.0) == 1.0
    with pytest.raises(InvalidInputError):
        multiplier_moment(CoefficientPair.constant(1.0, 0.0), 2.0, -1.0)


@pytest.mark.parametrize("f, g, p", [(1.0, 0.0, 1e3), (1.0, 0.0, -1e3), (0.0, 800.0, 1.0), (1.0, 0.0, 1e200)])
def test_a_moment_beyond_the_float_range_is_invalid_input(f, g, p):
    with pytest.raises(InvalidInputError, match=re.escape(f"moment of order p = {p} at t = 1.0 is not a finite float")):
        multiplier_moment(CoefficientPair.constant(f, g), p, 1.0)


def test_multiplier_moment_matches_monte_carlo():
    grid = TimeGrid.uniform(1.0, 512)
    coeffs = CoefficientPair.constant(1.0, 0.0)
    n = 10_000
    hs = np.empty((n, 2))
    k_half = grid.steps // 2

    def take(start, w, logh, h, H):
        hs[start:start + h.shape[0]] = h[:, [k_half, -1]]

    # Rows are the one-path clocks multiplier_path(sample_brownian(grid, mix_seed(MASTER, i))).
    _clock_blocks(grid, coeffs, 2.0, MASTER, n, take)
    for j, t in enumerate((0.5, 1.0)):
        for p in (1.0, 2.0):
            values = hs[:, j] ** p
            mean = float(np.mean(values))
            se = float(np.std(values, ddof=1)) / math.sqrt(n)
            target = multiplier_moment(coeffs, p, t)
            assert abs(mean - target) <= 3.0 * se


def test_limit_distribution_parameters():
    drift_only = CoefficientPair.from_pieces([(0.0, 0.0)], [(0.0, 0.7), (1.0, 0.0)])
    assert limit_distribution(drift_only) == (pytest.approx(0.7), 0.0)
    unit_noise = CoefficientPair.from_pieces([(0.0, 1.0), (2.0, 0.0)], [(0.0, 0.0)])
    mean, var = limit_distribution(unit_noise)
    assert mean == pytest.approx(-1.0, abs=1e-14)
    assert var == pytest.approx(2.0, abs=1e-14)
    with pytest.raises(UnsupportedInputError):
        limit_distribution(CoefficientPair.constant(1.0, 0.0))


def test_terminal_log_multiplier_statistics():
    # With unit noise on [0, 2] and nothing after, log h(T) = w(2) - 1 exactly:
    # mean -1, variance = accumulated squared noise = 2.
    coeffs = CoefficientPair.from_pieces([(0.0, 1.0), (2.0, 0.0)], [(0.0, 0.0)])
    grid = TimeGrid.uniform(3.0, 768)
    n = 10_000
    xis = np.empty(n)

    def take(start, w, logh, h, H):
        xis[start:start + logh.shape[0]] = logh[:, -1]

    _clock_blocks(grid, coeffs, 2.0, MASTER, n, take)
    mean = float(np.mean(xis))
    se = float(np.std(xis, ddof=1)) / math.sqrt(n)
    assert abs(mean - (-1.0)) <= 3.0 * se
    sample_var = float(np.var(xis, ddof=1))
    true_var = coeffs.integral_f2(3.0)
    assert true_var == 2.0
    band_half = 3.0 * true_var * math.sqrt(2.0 / (n - 1))
    assert true_var - band_half <= sample_var <= true_var + band_half


def test_refine_brownian_keeps_original_nodes_bitwise():
    grid = TimeGrid.uniform(1.0, 32)
    path = sample_brownian(grid, MASTER)
    fine = refine_brownian(path)
    assert fine.grid.nodes.size == 2 * grid.nodes.size - 1
    assert np.array_equal(fine.grid.nodes[0::2], grid.nodes)
    assert np.array_equal(fine.w[0::2], path.w)
    again = refine_brownian(path)
    assert np.array_equal(fine.w, again.w)


def test_log_multiplier_is_refinement_exact_and_clock_converges_linearly():
    coeffs = CoefficientPair.constant(1.0, 0.0)
    levels = 5
    seeds = range(8)
    terminal_H = np.empty((len(list(seeds)), levels))
    for row, seed in enumerate(range(8)):
        path = sample_brownian(TimeGrid.uniform(1.0, 64), seed)
        base_logh = None
        for level in range(levels):
            clock = multiplier_path(path, coeffs, gamma=2.0)
            if base_logh is None:
                base_logh = float(clock.logh[-1])
            # The left-endpoint sum for log h telescopes through inserted
            # midpoints, so refinement never changes it.
            assert abs(float(clock.logh[-1]) - base_logh) <= 1e-12
            terminal_H[row, level] = clock.H[-1]
            path = refine_brownian(path)
    errors = np.sqrt(np.mean((terminal_H[:, :-1] - terminal_H[:, -1:]) ** 2, axis=0))
    dts = 1.0 / 64 / 2 ** np.arange(levels - 1)
    slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
    assert 0.8 <= slope <= 1.2


def test_mix_seed_is_a_dispersing_bijection_prefix():
    seeds = {mix_seed(MASTER, i) for i in range(10_000)}
    assert len(seeds) == 10_000
    assert mix_seed(MASTER, 7) == mix_seed(MASTER, 7)
    assert 0 <= mix_seed(2**70, 3) < 2**64


@pytest.mark.parametrize("master", [0, 1, 2**63, 2**64 - 1, 2**70 + 5, -3])
def test_vectorised_seeds_equal_mix_seed_across_block_edges(monkeypatch, master):
    # A 256-step sweep takes 255 rows per block; the ranges reach both sides of its edges.
    for start, stop in ((0, 1), (0, 255), (250, 260), (255, 510), (10_195, 10_205)):
        seeds = noise._mix_seeds(master, start, stop)
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [mix_seed(master, i) for i in range(start, stop)]
    # A sweep in 7-row blocks draws every row, across the block edges, as one block of all rows.
    grid = TimeGrid.uniform(1.0, 12)
    monkeypatch.setattr(noise, "BLOCK_VALUES", 7 * 13)
    rows = np.empty((20, 13))

    def take(start, w, logh, h, H):
        rows[start:start + w.shape[0]] = w

    _clock_blocks(grid, CoefficientPair.constant(1.0, 0.0), 2.0, master, 20, take)
    assert rows.tobytes() == np.stack([sample_brownian(grid, mix_seed(master, i)).w for i in range(20)]).tobytes()


def test_multiplier_underflow_raises():
    grid = TimeGrid.uniform(1.0, 16)
    with pytest.raises(InvalidInputError):
        multiplier_path(still_path(grid), CoefficientPair.constant(0.0, -5000.0), gamma=2.0)


def test_multiplier_overflow_raises_without_a_numpy_warning():
    grid = TimeGrid.uniform(1.0, 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="overflowed"):
            multiplier_path(still_path(grid), CoefficientPair.constant(0.0, 800.0), gamma=2.0)


def test_clock_exponent_below_one_rejected():
    grid = TimeGrid.uniform(1.0, 16)
    with pytest.raises(InvalidInputError):
        multiplier_path(still_path(grid), CoefficientPair.constant(0.0, 0.0), gamma=0.5)


def test_interp_guards_outside_horizon():
    grid = TimeGrid.uniform(1.0, 16)
    clock = multiplier_path(still_path(grid), CoefficientPair.constant(0.0, 0.0), gamma=2.0)
    with pytest.raises(OutOfRangeError):
        interp_h(clock, 1.5)
    with pytest.raises(OutOfRangeError):
        interp_H(clock, -0.5)


@pytest.mark.parametrize(
    "read, message",
    [
        (lambda c: interp_h(c, math.nan), "time nan is not a number"),
        (lambda c: interp_H(c, np.array([0.5, math.nan])), r"time \[0.5 nan\] is not a number"),
        (lambda c: inverse_clock(c, math.nan), "clock value nan is not a number"),
        (lambda c: hitting_time(c, math.nan), "clock level must be nonnegative, not nan"),
        (lambda c: multiplier_moment(c.coeffs, 2.0, math.nan), "integration time must be nonnegative, not nan"),
    ],
    ids=["interp_h", "interp_H", "inverse_clock", "hitting_time", "multiplier_moment"],
)
def test_nan_times_and_clock_values_are_invalid_input(read, message):
    grid = TimeGrid.uniform(1.0, 16)
    clock = multiplier_path(sample_brownian(grid, MASTER), CoefficientPair.constant(1.0, 0.0), gamma=2.0)
    with pytest.raises(InvalidInputError, match=message):
        read(clock)


# ---------------------------------------------------------------------------
# Block arithmetic: rows of paths at once, bit for bit like one path at a time.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("gamma", [1.0, 2.0, 2.5, 3.0])
def test_block_rows_match_a_plain_one_path_formula_bitwise(gamma):
    grid = TimeGrid.uniform(2.0, 80)
    coeffs = CoefficientPair.from_pieces([(0.0, 0.9), (0.5, 0.0), (1.0, 1.4)], [(0.0, -0.2), (1.5, 0.6)])
    seeds = [mix_seed(MASTER, i) for i in range(9)]
    w, logh, h, H = (np.empty((9, grid.steps + 1)) for _ in range(4))

    def take(start, *block):
        for kept, rows in zip((w, logh, h, H), block):
            kept[start:start + rows.shape[0]] = rows

    _clock_blocks(grid, coeffs, gamma, MASTER, 9, take)
    f_vals, g_vals = coeffs.values_on(grid)
    dt = np.diff(grid.nodes)
    for r, seed in enumerate(seeds):
        rng = np.random.Generator(np.random.PCG64(seed))
        w_ref = np.concatenate(([0.0], np.cumsum(rng.standard_normal(dt.size) * np.sqrt(dt))))
        dlog = g_vals * dt + f_vals * np.diff(w_ref) - 0.5 * f_vals**2 * dt
        logh_ref = np.concatenate(([0.0], np.cumsum(dlog)))
        h_ref = np.exp(logh_ref)
        H_ref = np.concatenate(([0.0], np.cumsum(h_ref[:-1] ** (gamma - 1.0) * dt)))
        for got, want in ((w, w_ref), (logh, logh_ref), (h, h_ref), (H, H_ref)):
            assert np.array_equal(got[r], want)
        one = multiplier_path(sample_brownian(grid, seed), coeffs, gamma)
        assert np.array_equal(one.path.w, w_ref) and np.array_equal(one.H, H_ref)


# ---------------------------------------------------------------------------
# Block seeding: numpy's SeedSequence hash for many seeds at once.
# ---------------------------------------------------------------------------

EDGE_SEEDS = [0, 1, 2, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**63 - 1, 2**63, 2**64 - 2, 2**64 - 1]


def assert_block_seeding_matches_numpy(seeds):
    """Words, PCG64 state and Brownian rows of a block equal numpy's per-seed ones."""
    words = noise._seed_words(seeds)
    seed_words = noise._words_seed_sequence()
    assert words.shape == (len(seeds), 4) and words.dtype == np.uint64
    for seed, row in zip(seeds, words):
        assert np.array_equal(row, np.random.SeedSequence(seed).generate_state(4, np.uint64))
        assert np.random.PCG64(seed_words(row)).state == np.random.PCG64(seed).state
    grid = TimeGrid(np.array([0.0, 0.1, 0.35, 0.5, 0.9, 1.0, 1.7]))
    dt = np.diff(grid.nodes)
    w = np.empty((len(seeds), grid.nodes.size))
    noise._fill_brownian(w, np.empty((len(seeds), grid.steps)), grid, np.array(seeds, dtype=np.uint64))
    for seed, row in zip(seeds, w):
        increments = np.random.Generator(np.random.PCG64(seed)).standard_normal(dt.size) * np.sqrt(dt)
        assert row.tobytes() == np.concatenate(([0.0], np.cumsum(increments))).tobytes()


def test_block_seeding_matches_numpy_on_edge_seeds():
    assert_block_seeding_matches_numpy(EDGE_SEEDS)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=16))
def test_block_seeding_matches_numpy(seeds):
    assert_block_seeding_matches_numpy(seeds)


def test_seed_words_serve_only_the_request_pcg64_makes():
    words = noise._words_seed_sequence()(noise._seed_words([7])[0])
    assert np.array_equal(words.generate_state(4, np.uint64), np.random.SeedSequence(7).generate_state(4, np.uint64))
    for n_words, dtype in ((4, np.uint32), (2, np.uint64), (8, np.uint64)):
        with pytest.raises(RuntimeError, match="seed words serve"):
            words.generate_state(n_words, dtype)


def test_importing_the_package_leaves_numpy_random_unloaded():
    # The child gets this process's import path, so the test runs without an install.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, spmelab; print('numpy.random' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout == "False\n"


def _same_bits(got, want):
    """Equal values, NaN for NaN, and the same sign on every zero."""
    number = ~np.isnan(want)
    return (
        got.shape == want.shape
        and np.array_equal(got, want, equal_nan=True)
        and np.array_equal(np.signbit(got[number]), np.signbit(want[number]))
    )


_NODE_VALUES = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0, 1e308, -1e308, math.inf, -math.inf, math.nan]))
_ODD_TIMES = st.sampled_from([math.nan, math.inf, -math.inf, -1e300, 1e300, -0.0])


@st.composite
def interp_cases(draw):
    """Nodes from 0, rows of node values with infinities and overflowing
    slopes, and query times on nodes, between them, beyond both edges, NaN
    and infinite."""
    steps = draw(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=7))
    xp = np.concatenate(([0.0], np.cumsum(steps)))
    rows = draw(st.integers(1, 4))
    fp = np.array(draw(st.lists(_NODE_VALUES, min_size=rows * xp.size, max_size=rows * xp.size)))
    times = st.one_of(st.floats(-0.5, float(xp[-1]) + 0.5), st.sampled_from(xp.tolist()), _ODD_TIMES)
    x = np.array(draw(st.lists(times, min_size=1, max_size=10)))
    return xp, fp.reshape(rows, xp.size), x


def _fixed_rows():
    xp = np.array([0.0, 0.1, 0.35, 0.5, 0.9, 1.0])
    rng = np.random.default_rng(3)
    fp = np.vstack((
        rng.uniform(-2.0, 2.0, (4, 6)),
        np.cumsum(rng.uniform(0.0, 1e300, (2, 6)), axis=1),   # overflows to inf inside
        [[0.0, 1.0, np.inf, np.inf, np.inf, np.inf]],
        [[5.0, 5.0, 5.0, -np.inf, -np.inf, 1.0]],
    ))
    slack = 1e-9
    x = np.concatenate((xp, [-0.5 * slack, 1.0 + 0.5 * slack, 0.05, 0.2, 0.49, 0.7, 0.95, 0.999999]))
    return xp, fp, x


_FIXED = _fixed_rows()


@settings(max_examples=300, deadline=None)
@given(interp_cases())
@example(_FIXED)
@example((*_FIXED[:2], np.array([np.nan, np.inf, -np.inf, -3.0, 4.0, 0.2])))
def test_read_block_matches_np_interp_bitwise(case):
    xp, fp, x = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = np.array([np.interp(x, xp, row) for row in fp])
        assert _same_bits(noise._interp(x, xp, lambda k: fp[:, k]), want)
        # The block read takes the checked times, clipped to the horizon,
        # where np.interp holds the edge values anyway.
        grid, number = TimeGrid(xp), ~np.isnan(x)
        clipped = locate_times(grid, np.clip(x[number], 0.0, grid.horizon))
        assert _same_bits(read_block(fp, grid, clipped), want[:, number])


def test_locate_times_rejects_times_outside_the_horizon():
    grid = TimeGrid.uniform(1.0, 8)
    with pytest.raises(OutOfRangeError, match="outside the sampled horizon"):
        locate_times(grid, [0.5, 1.0 + 1e-6])
    assert locate_times(grid, [0.0, 0.3, 1.0]).tolist() == [0.0, 0.3, 1.0]
    assert locate_times(grid, [-1e-10, 1.0 + 1e-10]).tolist() == [0.0, 1.0]
