"""The benchmark's three CLI workloads and their per-seed inputs.

Every workload uses m = 2, f = 0:1, g = 0 and one thread; each one is a
config for one spmelab subcommand.  The seed given to the benchmark picks the
master seed passed to the CLI as ``--seed``.

Input size.  Each workload's cost grows with the largest clock value its
paths realise, because the reference solve marches up to 1.05 times that
value.  That maximum is heavy-tailed: for the support workload it is a
Frechet(1) variable (H(infinity) = 2/Exp(1) per path), so the quartiles of its
solve cost differ by about a factor of three from seed to seed.  To measure a
stated input size, the generator tries the candidate masters derived from
the seed in a fixed order and takes the first whose largest clock lies in
the workload's window, a narrow band around the median of that maximum.  The
paths still change with the seed; only the work size is held fixed.

The candidate masters are screened with a numpy copy of the clock arithmetic
of ``spmelab.noise`` (same PCG64 streams, same sums), so inputs do not depend
on the code under test and cost no measured time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF
MAX_CANDIDATES = 500


def splitmix64(z: int) -> int:
    """The splitmix64 finalizer, a bijection on 64-bit words."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def path_seed(master: int, index: int) -> int:
    """Per-path seed, as ``spmelab.noise.mix_seed`` derives it."""
    return splitmix64(int(master) ^ int(index))


def candidate_master(seed: int, k: int) -> int:
    """k-th master seed tried for a benchmark seed; the seed itself comes first."""
    return int(seed) if k == 0 else splitmix64((int(seed) << 20) + k)


def max_clock(master: int, n_paths: int, steps: int, horizon: float, cap: float = math.inf) -> float:
    """Largest H(horizon) over the paths of one sweep (f = 1, g = 0, m = 2).

    Stops early and returns a value above ``cap`` as soon as one block of
    paths exceeds it.
    """
    nodes = np.linspace(0.0, float(horizon), int(steps) + 1)
    dt = np.diff(nodes)
    sq = np.sqrt(dt)
    best = 0.0
    block = 250
    for lo in range(0, n_paths, block):
        rows = range(lo, min(lo + block, n_paths))
        z = np.empty((len(rows), steps))
        for r, i in enumerate(rows):
            rng = np.random.Generator(np.random.PCG64(path_seed(master, i)))
            z[r] = rng.standard_normal(steps) * sq
        w = np.concatenate((np.zeros((z.shape[0], 1)), np.cumsum(z, axis=1)), axis=1)
        dlog = 0.0 * dt + 1.0 * np.diff(w, axis=1) - 0.5 * 1.0**2 * dt
        logh = np.concatenate((np.zeros((z.shape[0], 1)), np.cumsum(dlog, axis=1)), axis=1)
        h = np.exp(logh)
        H_end = np.cumsum(h[:, :-1] * dt, axis=1)[:, -1]
        best = max(best, float(np.max(H_end)))
        if best > cap:
            break
    return best


def envelope_box(h_max: float, height: float = 1.0, spread: float = 1.0) -> tuple[float, int]:
    """Half-width and cell count of the box the acceptance slate sizes for criterion 10."""
    m, d = 2.0, 1
    beta = 1.0 / ((m - 1.0) * d + 2.0)
    b_dom = height ** (m - 1.0) + (m - 1.0) * beta / (2.0 * m) * spread**2
    prefactor = math.sqrt(2.0 * m * b_dom / ((m - 1.0) * beta))
    half = prefactor * (1.0 + 1.05 * h_max) ** beta * 1.15
    cells = int(math.ceil(2.0 * half / 0.1 / 8.0)) * 8
    return half, cells


@dataclass(frozen=True)
class Workload:
    """One CLI config family; ``window`` bounds the largest realised clock."""

    name: str
    why: str
    command: str
    n_paths: int
    steps: int
    horizon: float
    window: tuple | None
    extra: tuple = ()
    sized_box: bool = False
    times: tuple = ()
    points: tuple = ()

    @property
    def expected_samples(self) -> int:
        """Rows of ``samples.csv`` (transform only)."""
        return self.n_paths * len(self.times) * len(self.points)


@dataclass(frozen=True)
class Inputs:
    """Generated inputs for one (workload, seed) pair."""

    master: int
    candidates: int
    config_text: str
    facts: dict


TRANSFORM_TIMES = tuple(0.125 * k for k in range(1, 9))
TRANSFORM_POINTS = tuple(-0.25 * k for k in range(8, 0, -1)) + tuple(0.25 * k for k in range(1, 9))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mc_mass",
            why="criterion 5 through the CLI: 10,000 clocks and probes, one short solve; clock-bound",
            command="mc",
            n_paths=10_000,
            steps=256,
            horizon=1.0,
            window=(9.8, 11.5),
            extra=(("mode", "mean_mass"), ("t", "1")),
        ),
        Workload(
            name="support_portrait",
            why="criterion 10 through the CLI: about 190,000 explicit steps on a seed-sized box; solver-bound",
            command="support",
            n_paths=1000,
            steps=1000,
            horizon=50.0,
            window=(2700.0, 3050.0),
            sized_box=True,
        ),
        Workload(
            name="transform_grid",
            why="128,000 table reads written to a 4.3 MB samples.csv; read- and write-bound",
            command="transform",
            n_paths=1000,
            steps=256,
            horizon=1.0,
            window=(5.9, 6.65),
            times=TRANSFORM_TIMES,
            points=TRANSFORM_POINTS,
        ),
    )
}


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def make_inputs(wl: Workload, seed: int, out: str) -> Inputs:
    """Pick the master seed for ``seed`` and write the workload's config text."""
    hi = wl.window[1] if wl.window else math.inf
    for k in range(MAX_CANDIDATES):
        master = candidate_master(seed, k)
        top = max_clock(master, wl.n_paths, wl.steps, wl.horizon, cap=hi)
        if wl.window is None or wl.window[0] <= top <= wl.window[1]:
            break
    else:
        raise RuntimeError(f"no master seed in {MAX_CANDIDATES} candidates fits {wl.window}")
    keys = [
        ("command", wl.command),
        ("m", "2"),
        ("f", "0:1"),
        ("g", "0:0"),
        ("horizon", _fmt(wl.horizon)),
        ("steps", str(wl.steps)),
        ("n_paths", str(wl.n_paths)),
        ("out", out),
    ]
    keys.extend(wl.extra)
    facts = {"max_clock": top, "table_span": 1.05 * top}
    if wl.sized_box:
        half, cells = envelope_box(top)
        keys += [("grid_lo", _fmt(-half)), ("grid_hi", _fmt(half)), ("cells", str(cells))]
        facts.update(half_width=half, cells=cells)
    if wl.times:
        keys += [("times", ",".join(map(_fmt, wl.times))), ("points", ",".join(map(_fmt, wl.points)))]
        facts["samples"] = wl.expected_samples
    text = "[run]\n" + "".join(f"{k} = {v}\n" for k, v in keys)
    return Inputs(master=master, candidates=k + 1, config_text=text, facts=facts)
