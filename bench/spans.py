"""Layer spans for a traced spmelab run, recorded from outside the package.

:class:`Tracer` wraps, at run time, every public function defined in
``spmelab.noise``, ``spmelab.solver`` and ``spmelab.analysis``, and rebinds
each ``spmelab.*`` module attribute that refers to one of them.  Calls made
through module globals (``evolve`` calling ``step``, ``cli`` calling
``eval_on_centers``) therefore pass through the wrappers.  ``cli.dispatch``
is the root span and ``cli._write_csv`` marks CSV writing; the ``cli``
layer's time is the self time of those two.

Spans are aggregated as they close: per function a call count, inclusive
and self time; per layer the self time; per category the time of the
outermost spans of that category, so nested reads or clock helpers are not
counted twice.  A span's self time is its duration minus the durations of
its direct children.  The tracer assumes one thread, which is what every
benchmark workload uses.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("noise", "solver", "analysis")

# Categories of functions whose outermost spans give a layer's busy time.
CATEGORIES = {
    "analysis.path_clock": "clock",
    "noise.interp_h": "probe",
    "noise.interp_H": "probe",
    "solver.evolve": "march",
    "solver.evolve_together": "march",
    "solver.eval_on_centers": "read",
    "solver.interp_mass": "read",
    "solver.dense_values": "read",
    "solver.dense_eval": "read",
    "cli._write_csv": "write",
}

# Work units read off a call's arguments or result.
UNITS = {
    "noise.multiplier_path": lambda args, result: result.grid.steps,
    "solver.step": lambda args, result: args[0].grid.cells,
    "solver.evolve": lambda args, result: len(result.states),
    "solver.evolve_together": lambda args, result: sum(len(t.states) for t in result),
}


def _category(key: str) -> str | None:
    if key in CATEGORIES:
        return CATEGORIES[key]
    # Every other noise function builds clocks (seeds, paths, multipliers).
    return "clock" if key.startswith("noise.") else None


class Tracer:
    """Wraps the spmelab layers; :meth:`install` and :meth:`uninstall` are paired."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.units = defaultdict(int)
        self.layer_self = defaultdict(float)
        self.category_time = defaultdict(float)
        self.category_count = defaultdict(int)
        self.min_self = float("inf")
        self._stack: list = []
        self._open = defaultdict(int)
        self._patched: list = []

    def _wrap(self, fn, layer: str, key: str):
        category = _category(key)
        units = UNITS.get(key)
        stack, opened = self._stack, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = category is not None and opened[category] == 0
            if category is not None:
                opened[category] += 1
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                own = duration - frame[0]
                self.calls[key] += 1
                self.inclusive[key] += duration
                self.layer_self[layer] += own
                self.min_self = min(self.min_self, own)
                if category is not None:
                    opened[category] -= 1
                    if outermost:
                        self.category_time[category] += duration
                        self.category_count[category] += 1
            if units is not None:
                self.units[key] += units(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Rebind the wrapped functions in every loaded ``spmelab`` module."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "spmelab" or name.startswith("spmelab."))
        }
        originals = {}
        for layer in LAYERS:
            mod = modules[f"spmelab.{layer}"]
            for name, obj in vars(mod).items():
                if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    originals[id(obj)] = (obj, self._wrap(obj, layer, f"{layer}.{name}"))
        cli = modules["spmelab.cli"]
        for name in ("dispatch", "_write_csv"):
            obj = getattr(cli, name)
            originals[id(obj)] = (obj, self._wrap(obj, "cli", f"cli.{name}"))
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
                    self._patched.append((mod, name, obj))

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    def layer_metrics(self) -> dict:
        """Per-layer numbers this process can see (artifact counts come later)."""
        steps = self.calls["solver.step"]
        clock_s = self.category_time["clock"]
        march_s = self.category_time["march"]
        probes = self.category_count["probe"]
        reads = self.category_count["read"]
        path_steps = self.units["noise.multiplier_path"]
        cell_steps = self.units["solver.step"]
        return {
            "noise.paths": self.calls["noise.multiplier_path"],
            "noise.clock_s": clock_s,
            "noise.clock_us_per_path_step": 1e6 * clock_s / path_steps if path_steps else 0.0,
            "noise.probes": probes,
            "noise.probe_us": 1e6 * self.category_time["probe"] / probes if probes else 0.0,
            "solver.steps": steps,
            "solver.stable_dt_calls": self.calls["solver.stable_dt"],
            "solver.snapshots": self.units["solver.evolve"] + self.units["solver.evolve_together"],
            "solver.march_s": march_s,
            "solver.step_us_per_cell": 1e6 * march_s / cell_steps if cell_steps else 0.0,
            "solver.reads": reads,
            "solver.read_us": 1e6 * self.category_time["read"] / reads if reads else 0.0,
            "analysis.self_s": self.layer_self["analysis"],
            "cli.self_s": self.layer_self["cli"],
            "cli.write_s": self.category_time["write"],
        }
