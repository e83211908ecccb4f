"""Per-layer spans and counters, recorded from outside rigiplast.

Nothing inside ``src/`` changes. ``install`` wraps the public functions of
each rigiplast module. Modules bind many of them with ``from .fem import
strain_of``, so a wrapper replaces the name in its home module and in every
rigiplast module that holds the same function object. ``ElasticSystem``
methods are wrapped at class level. Untraced runs never call ``install``.

A span's self time is its duration minus the time its child spans cover.
Spans stay in memory; ``layer_metrics`` reduces them when the op ends.
"""

from __future__ import annotations

import functools
import os
import sys
import time

# Per-layer metrics: name -> (unit, the end-to-end metric and workload it should move).
# A time is the self time of the layer's spans unless its note says "total".
LAYER_METRICS = {
    "mesh.build_s": ("s", "setup_s, all workloads"),
    "mesh.build_calls": ("count", "setup_s, all workloads"),
    "benchmarks.catalog_s": ("s", "setup_s, evolution workloads (total, includes validate)"),
    "fem.factorizations": ("count", "wall_s, shear_sweep (one per epsilon)"),
    "fem.factorize_s": ("s", "wall_s, shear_sweep (total of ElasticSystem construction)"),
    "fem.solves": ("count", "wall_s, traction_run and traction_refined"),
    "fem.solve_s": ("s", "wall_s, traction_run and traction_refined"),
    "fem.load_vector_calls": ("count", "wall_s, traction_run"),
    "fem.load_vector_s": ("s", "wall_s, traction_run"),
    "fem.strain_matrix_builds": ("count", "wall_s, shear_sweep; setup_s"),
    "fem.strain_matrix_s": ("s", "wall_s, shear_sweep; setup_s"),
    "fem.strain_of_calls": ("count", "wall_s, all evolution workloads"),
    "fem.strain_of_s": ("s", "wall_s, all evolution workloads"),
    "fem.energy_calls": ("count", "wall_s, traction_run"),
    "fem.energy_s": ("s", "wall_s, traction_run"),
    "fem.divergence_check_s": ("s", "wall_s, shear_sweep and safeload"),
    "tensors.return_calls": ("count", "wall_s, traction_run and traction_refined"),
    "tensors.return_cells": ("count", "wall_s, traction_run and traction_refined"),
    "tensors.return_s": ("s", "wall_s, traction_run and traction_refined"),
    "evolution.steps": ("count", "wall_s, traction_run"),
    "evolution.inner_iters": ("count", "wall_s, traction_run; failed ops, traction_refined"),
    "evolution.inner_iters_max": ("count", "wall_s, traction_run; failed ops, traction_refined"),
    "evolution.step_s": ("s", "wall_s, traction_run"),
    "evolution.step_s.max": ("s", "wall_s, traction_run (slowest step, total)"),
    "evolution.solves_per_iter": ("ratio", "wall_s, traction_run (fem.solves / evolution.inner_iters)"),
    "evolution.ledger_s": ("s", "wall_s, shear_sweep"),
    "evolution.bd_norm_calls": ("count", "wall_s, shear_sweep"),
    "evolution.bd_norm_s": ("s", "wall_s, shear_sweep"),
    "evolution.convergence_errors": ("count", "failed ops, traction_refined"),
    "sweep.monitor_s": ("s", "wall_s, shear_sweep"),
    "sweep.residuals_s": ("s", "wall_s, shear_sweep"),
    "sweep.fit_s": ("s", "wall_s, shear_sweep"),
    "sweep.retained_bytes": ("bytes", "peak_rss_mb, shear_sweep (computed from the report's arrays)"),
    "safeload.solve_s": ("s", "wall_s and failed ops, safeload (total)"),
    "safeload.trials": ("count", "wall_s and failed ops, safeload"),
    "safeload.trials_feasible": ("count", "wall_s and failed ops, safeload"),
    "safeload.verify_s": ("s", "wall_s and failed ops, safeload (total)"),
    "reporting.write_s": ("s", "wall_s, shear_sweep"),
    "reporting.bytes": ("bytes", "wall_s, shear_sweep"),
    "vtkio.write_s": ("s", "wall_s, shear_sweep"),
    "vtkio.bytes": ("bytes", "wall_s, shear_sweep"),
    "trace.overhead_s": ("s", "none: traced wall_s minus untraced wall_s of the same run"),
}

# Layer times that read 0 on every run of at least one workload of
# BENCHMARK.json: traction_run never enters the sweep monitors,
# bd_norm_surrogate or divergence_check, and neither listed workload enters
# safeload. Every workload's result line carries the same per-layer metrics,
# and a time that reads exactly the same on every run is refused there, so
# these times stay out of it; run.py prints them and report.py records them
# for every workload. Counts stay in even where they read 0: a count is meant
# to repeat exactly.
OUTSIDE_RESULT_LINE = frozenset({
    "fem.divergence_check_s", "evolution.bd_norm_s", "sweep.monitor_s", "sweep.residuals_s",
    "sweep.fit_s", "safeload.solve_s", "safeload.trials", "safeload.trials_feasible",
    "safeload.verify_s",
})

# Counts that must repeat exactly across traced ops on the same inputs.
DETERMINISTIC_COUNTS = (
    "fem.solves", "fem.factorizations", "evolution.inner_iters", "tensors.return_calls",
    "fem.strain_matrix_builds", "safeload.trials",
)


class Tracer:
    """Spans keyed by name, plus counters filled by per-function hooks."""

    def __init__(self):
        self.spans: dict[str, list] = {}    # name -> [calls, self_s, total_s, max_s]
        self.counters: dict[str, float] = {}
        self._open: list[float] = []        # child time covered, one entry per open span

    def add(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def wrap(self, name, fn, after=None, on_error=None):
        """Wrap ``fn`` in a span; ``after(tracer, args, kwargs, result)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(self, exc)
                raise
            finally:
                duration = time.perf_counter() - start
                children = self._open.pop()
                if self._open:
                    self._open[-1] += duration
                span = self.spans.setdefault(name, [0, 0.0, 0.0, 0.0])
                span[0] += 1
                span[1] += duration - children
                span[2] += duration
                span[3] = max(span[3], duration)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0])[0]

    def seconds(self, name: str, total: bool = False) -> float:
        span = self.spans.get(name)
        return 0.0 if span is None else span[2 if total else 1]


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_cells(tracer, args, kwargs, result):
    tracer.add("tensors.return_cells", len(_arg(args, kwargs, 0, "e_dev")))


def _add_iterations(tracer, iterations):
    tracer.add("evolution.inner_iters", iterations)
    tracer.counters["evolution.inner_iters_max"] = max(
        tracer.counters.get("evolution.inner_iters_max", 0), iterations)


def _count_iterations(tracer, args, kwargs, result):
    _add_iterations(tracer, result[1].iterations)


def _count_convergence_error(tracer, exc):
    """A failed step still ran its iterations: the first solve plus one per decrease."""
    if type(exc).__name__ == "ConvergenceError":
        tracer.add("evolution.convergence_errors")
        _add_iterations(tracer, 1 + len(exc.decrease_history))


def _count_trials(tracer, args, kwargs, result):
    trials = result[2]["bisection_trials"]
    tracer.add("safeload.trials", len(trials))
    tracer.add("safeload.trials_feasible", sum(1 for _, ok in trials if ok))


def _bytes_written(counter):
    def after(tracer, args, kwargs, result):
        tracer.add(counter, os.path.getsize(_arg(args, kwargs, 0, "path")))
    return after


def _retained_bytes(tracer, args, kwargs, report):
    arrays = [report.times, report.cauchy_distances, *report.metrics.values()]
    for trajectory in report.trajectories:
        arrays += [v for v in vars(trajectory).values() if hasattr(v, "nbytes")]
    tracer.add("sweep.retained_bytes", sum(a.nbytes for a in arrays))


# (home module, function, span name, hook after return, hook on exception)
_FUNCTIONS = (
    ("mesh", "build_square_mesh", "mesh.build", None, None),
    ("benchmarks", "benchmark_catalog", "benchmarks.catalog", None, None),
    ("fem", "strain_matrix", "fem.strain_matrix", None, None),
    ("fem", "strain_of", "fem.strain_of", None, None),
    ("fem", "body_load_vector", "fem.load_vector", None, None),
    ("fem", "traction_load_vector", "fem.load_vector", None, None),
    ("fem", "divergence_check", "fem.divergence_check", None, None),
    ("tensors", "radial_return", "tensors.return", _count_cells, None),
    ("evolution", "incremental_step", "evolution.step", _count_iterations,
     _count_convergence_error),
    ("evolution", "run_evolution", "evolution.ledger", None, None),
    ("evolution", "bd_norm_surrogate", "evolution.bd_norm", None, None),
    ("sweep", "run_sweep", "sweep.monitor", _retained_bytes, None),
    ("sweep", "rigid_residuals", "sweep.residuals", None, None),
    ("sweep", "fit_rate", "sweep.fit", None, None),
    ("safeload", "max_safety_margin", "safeload.solve", _count_trials, None),
    ("safeload", "verify_safe_load", "safeload.verify", None, None),
    ("reporting", "write_csv", "reporting.write", _bytes_written("reporting.bytes"), None),
    ("reporting", "write_json", "reporting.write", _bytes_written("reporting.bytes"), None),
    ("vtkio", "write_vtk", "vtkio.write", _bytes_written("vtkio.bytes"), None),
)

_METHODS = (
    ("__init__", "fem.factorize"),
    ("solve", "fem.solve"),
    ("energy", "fem.energy"),
)


def install(tracer: Tracer) -> None:
    """Wrap every traced function wherever rigiplast bound it; import rigiplast first."""
    modules = [m for name, m in sys.modules.items()
               if name == "rigiplast" or name.startswith("rigiplast.")]
    for home, attr, span, after, on_error in _FUNCTIONS:
        original = getattr(sys.modules[f"rigiplast.{home}"], attr)
        traced = tracer.wrap(span, original, after, on_error)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, traced)
    system = sys.modules["rigiplast.fem"].ElasticSystem
    for attr, span in _METHODS:
        setattr(system, attr, tracer.wrap(span, getattr(system, attr)))


def layer_metrics(tracer: Tracer) -> dict:
    """Reduce one op's spans and counters to the per-layer metrics (no overhead)."""
    t, c = tracer, tracer.counters
    iters = c.get("evolution.inner_iters", 0)
    return {
        "mesh.build_s": t.seconds("mesh.build", total=True),
        "mesh.build_calls": t.calls("mesh.build"),
        "benchmarks.catalog_s": t.seconds("benchmarks.catalog", total=True),
        "fem.factorizations": t.calls("fem.factorize"),
        "fem.factorize_s": t.seconds("fem.factorize", total=True),
        "fem.solves": t.calls("fem.solve"),
        "fem.solve_s": t.seconds("fem.solve"),
        "fem.load_vector_calls": t.calls("fem.load_vector"),
        "fem.load_vector_s": t.seconds("fem.load_vector"),
        "fem.strain_matrix_builds": t.calls("fem.strain_matrix"),
        "fem.strain_matrix_s": t.seconds("fem.strain_matrix"),
        "fem.strain_of_calls": t.calls("fem.strain_of"),
        "fem.strain_of_s": t.seconds("fem.strain_of"),
        "fem.energy_calls": t.calls("fem.energy"),
        "fem.energy_s": t.seconds("fem.energy"),
        "fem.divergence_check_s": t.seconds("fem.divergence_check"),
        "tensors.return_calls": t.calls("tensors.return"),
        "tensors.return_cells": int(c.get("tensors.return_cells", 0)),
        "tensors.return_s": t.seconds("tensors.return"),
        "evolution.steps": t.calls("evolution.step"),
        "evolution.inner_iters": int(iters),
        "evolution.inner_iters_max": int(c.get("evolution.inner_iters_max", 0)),
        "evolution.step_s": t.seconds("evolution.step"),
        "evolution.step_s.max": t.spans.get("evolution.step", [0, 0.0, 0.0, 0.0])[3],
        "evolution.solves_per_iter": t.calls("fem.solve") / iters if iters else 0.0,
        "evolution.ledger_s": t.seconds("evolution.ledger"),
        "evolution.bd_norm_calls": t.calls("evolution.bd_norm"),
        "evolution.bd_norm_s": t.seconds("evolution.bd_norm"),
        "evolution.convergence_errors": int(c.get("evolution.convergence_errors", 0)),
        "sweep.monitor_s": t.seconds("sweep.monitor"),
        "sweep.residuals_s": t.seconds("sweep.residuals"),
        "sweep.fit_s": t.seconds("sweep.fit"),
        "sweep.retained_bytes": int(c.get("sweep.retained_bytes", 0)),
        "safeload.solve_s": t.seconds("safeload.solve", total=True),
        "safeload.trials": int(c.get("safeload.trials", 0)),
        "safeload.trials_feasible": int(c.get("safeload.trials_feasible", 0)),
        "safeload.verify_s": t.seconds("safeload.verify", total=True),
        "reporting.write_s": t.seconds("reporting.write", total=True),
        "reporting.bytes": int(c.get("reporting.bytes", 0)),
        "vtkio.write_s": t.seconds("vtkio.write", total=True),
        "vtkio.bytes": int(c.get("vtkio.bytes", 0)),
    }
