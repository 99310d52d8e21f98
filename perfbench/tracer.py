"""Outside-in tracer for the transportlab package.

Nothing inside ``src/`` is instrumented. The tracer replaces public
functions and methods of the already imported package with timing wrappers:
module-level functions are replaced in every ``transportlab`` module that
holds a reference to them (``from .geometry import integrate`` copies the
name into the importing module, so patching only the defining module would
leave those calls untimed), methods are replaced on their class, and the
study runners are replaced inside ``studies.RUNNERS``.

Spans nest on one stack. A span's self time is its duration minus the time
covered by the spans it encloses. Generators are timed only while they run,
between yields, so a consumer's work is never charged to its producer.

This module imports nothing heavy: it is loaded before ``transportlab`` so
that the package's import time can be measured.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

PACKAGE = "transportlab"


def _size(a) -> int:
    return int(getattr(a, "size", 1))


def _count_solve(stat, bound, result) -> None:
    stat["stored_bytes"] = stat.get("stored_bytes", 0) + int(result.values.nbytes)


def _count_advance(stat, bound, result) -> None:
    args = bound.arguments
    steps = len(args["self"].steps(args["t_from"], args["t_to"]))
    stat["rk4_steps"] = stat.get("rk4_steps", 0) + steps
    stat["node_steps"] = stat.get("node_steps", 0) + steps * _size(args["x"])


def _count_points(stat, bound, result) -> None:
    stat["points"] = stat.get("points", 0) + _size(bound.arguments["x"])


# (module, attribute path, span name, counter). The span name is the metric
# prefix the harness reports.
SETUP_SPANS = (
    ("studies", "parse_study_config", "studies.parse_config", None),
    ("studies", "build_case", "studies.build_case", None),
)
LAYER_SPANS = (
    ("characteristics", "solve_classical", "characteristics.solve_classical", _count_solve),
    ("characteristics", "iter_solution_layers", "characteristics.iter_solution_layers", None),
    ("characteristics", "FlowMapIntegrator.advance", "characteristics.advance", _count_advance),
    ("fields", "VelocityField.eval", "fields.velocity_eval", _count_points),
    ("fields", "AdmissibleBeta.__call__", "fields.beta", None),
    ("geometry", "Grid.interpolate", "geometry.interpolate", _count_points),
    ("geometry", "integrate", "geometry.integrate", None),
    ("weakform", "commutator_remainder", "weakform.commutator_remainder", None),
    ("weakform", "mollify_density", "weakform.mollify_density", None),
    ("weakform", "ResidualAccumulator.add_layer", "weakform.add_layer", None),
    ("analysis", "lp_norm", "analysis.lp_norm", None),
    ("analysis", "stability_experiment", "analysis.stability_experiment", None),
    (
        "analysis",
        "renormalization_convergence_check",
        "analysis.renormalization_convergence_check",
        None,
    ),
    ("studies", "_write_outputs", "studies.write_outputs", None),
)


class Tracer:
    """Per-name span statistics: calls, total seconds, self seconds, counters."""

    def __init__(self) -> None:
        self.stats: dict[str, dict] = {}
        self.missing: list[str] = []
        self._stack: list[list[float]] = []  # [start, seconds covered by children]

    def _stat(self, name: str) -> dict:
        return self.stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def _open(self) -> None:
        self._stack.append([perf_counter(), 0.0])

    def _close(self, name: str) -> None:
        start, covered = self._stack.pop()
        dur = perf_counter() - start
        stat = self._stat(name)
        stat["total_s"] += dur
        stat["self_s"] += dur - covered
        if self._stack:
            self._stack[-1][1] += dur

    def wrap(self, fn, name: str, count=None):
        """Timing wrapper for a function or method; count(stat, bound, result)
        adds counters from the bound call arguments and the result."""
        sig = inspect.signature(fn) if count is not None else None

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                self._stat(name)["calls"] += 1
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        self._open()
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            self._close(name)
                        stat = self._stat(name)
                        stat["yields"] = stat.get("yields", 0) + 1
                        yield item
                finally:
                    gen.close()

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._stat(name)["calls"] += 1
            self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name)
            if count is not None:
                count(self._stat(name), sig.bind(*args, **kwargs), result)
            return result

        return traced

    def install(self, traced: bool) -> None:
        """Wrap the set-up functions and the study runners; with traced, also
        every layer function in LAYER_SPANS. Call after importing the package."""
        spans = SETUP_SPANS + (LAYER_SPANS if traced else ())
        for module, path, name, count in spans:
            self._patch(module, path, name, count)
        runners = sys.modules[f"{PACKAGE}.studies"].RUNNERS
        for study, runner in runners.items():
            runners[study] = self.wrap(runner, "studies.run")

    def _patch(self, module: str, path: str, name: str, count) -> None:
        owner = sys.modules[f"{PACKAGE}.{module}"]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            # a later version may remove the name; the harness then fails the
            # run, as its metrics would read 0
            self.missing.append(f"{module}.{path}")
            return
        wrapper = self.wrap(original, name, count)
        if outer:
            setattr(owner, attr, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
