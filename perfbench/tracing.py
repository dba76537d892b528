"""Span tracing installed from outside the package.

`install` replaces public functions and methods of the thetalangevin modules
with thin wrappers, patching each name where its caller looks it up (for
example both `cli.run_chain` and `samplers.run_chain`). Each wrapper records a
span (name, start, end, parent) in memory; `summarize` turns the spans of one
process into the per-layer metrics, including each module's self time (span
time not covered by its traced callees). A name the package no longer defines is
skipped, and a layer that was never called reports zero.
"""

import functools
import statistics
import time

import numpy as np

# Per-layer metrics and their units, in the order BENCHMARK.json lists them.
LAYER_METRICS = {
    "diagnostics.mmtv_s": "s",
    "diagnostics.mmtv_calls": "count",
    "diagnostics.kde_points": "count",
    "diagnostics.mmd2_s": "s",
    "diagnostics.median_bandwidth_s": "s",
    "samplers.run_chain_s": "s",
    "samplers.run_chain_calls": "count",
    "samplers.steps": "count",
    "samplers.step_us": "us",
    "samplers.noise_us": "us",
    "samplers.noise_calls": "count",
    "samplers.diverged_chains": "count",
    "samplers.useful_step_frac": "ratio",
    "optim.newton_calls": "count",
    "optim.newton_us": "us",
    "optim.newton_iters_mean": "count",
    "optim.newton_iters_max": "count",
    "optim.unconverged": "count",
    "targets.gradient_calls": "count",
    "targets.gradient_us": "us",
    "targets.hessian_calls": "count",
    "targets.hessian_us": "us",
    "targets.build_s": "s",
    "matrixgen.random_correlation_s": "s",
    "theory.step_size_heuristic_s": "s",
    "cli.grid_row_median_s": "s",
    "cli.grid_row_max_s": "s",
    "cli.write_rows_s": "s",
    "cli.self_s": "s",
    "diagnostics.self_s": "s",
    "samplers.self_s": "s",
    "optim.self_s": "s",
    "targets.self_s": "s",
    "matrixgen.self_s": "s",
    "theory.self_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.notes = {}
        self.kde_points = 0
        self._stack = []

    def wrap(self, name, fn, note=None):
        """Record a span per call; `note` keeps a summary of the return value."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self.starts[idx] = start
                self._stack.pop()
            if note is not None:
                self.notes[idx] = note(result)
            return result
        return traced

    def wrap_kde(self, fn):
        """Count the points each returned density function is evaluated at."""
        @functools.wraps(fn)
        def kde_marginal(*args, **kwargs):
            density = fn(*args, **kwargs)

            def counted(x):
                self.kde_points += int(np.size(x))
                return density(x)
            return counted
        return kde_marginal


def install(tracer):
    """Wrap every traced name that exists in the imported package."""
    import thetalangevin
    from thetalangevin import (cli, diagnostics, matrixgen, optim, samplers,
                               targets, theory)

    def chain_note(trajectory):
        return int(getattr(trajectory, "n_steps", 0)), bool(getattr(trajectory, "diverged", False))

    def solve_note(result):
        return int(getattr(result, "iterations", 0)), bool(getattr(result, "converged", True))

    # (owner, attribute, span name, summary of the return value)
    functions = [
        (cli, "_grid_row", "cli.grid_row", None),
        (cli, "write_rows", "cli.write_rows", None),
        (diagnostics, "mmtv", "diagnostics.mmtv", None),
        (diagnostics, "mmd2", "diagnostics.mmd2", None),
        (diagnostics, "median_bandwidth", "diagnostics.median_bandwidth", None),
        (matrixgen, "random_correlation", "matrixgen.random_correlation", None),
        (thetalangevin, "random_correlation", "matrixgen.random_correlation", None),
        (theory, "step_size_heuristic", "theory.step_size_heuristic", None),
        (theory, "step_size_heuristic_model", "theory.step_size_heuristic", None),
        (thetalangevin, "step_size_heuristic", "theory.step_size_heuristic", None),
        (targets, "load_dataset", "targets.build", None),
        (targets, "standardize_design", "targets.build", None),
        (samplers, "iila_step", "samplers.iila_step", None),
    ]
    for owner in (cli, samplers, thetalangevin):
        functions.append((owner, "run_chain", "samplers.run_chain", chain_note))
    for owner in (optim, samplers, targets, theory, thetalangevin):
        functions.append((owner, "newton_solve", "optim.newton_solve", solve_note))
    methods = [
        ("NoiseStream", samplers, "vector", "samplers.noise"),
        ("GaussianTarget", targets, "__init__", "targets.build"),
        ("GaussianTarget", targets, "from_covariance", "targets.build"),
        ("GaussianTarget", targets, "gradient", "targets.gradient"),
        ("GaussianTarget", targets, "hessian", "targets.hessian"),
        ("LogisticRegressionTarget", targets, "__init__", "targets.build"),
        ("LogisticRegressionTarget", targets, "gradient", "targets.gradient"),
        ("LogisticRegressionTarget", targets, "hessian", "targets.hessian"),
    ]

    wrappers = {}
    for owner, attr, name, note in functions:
        original = getattr(owner, attr, None)
        if original is None:
            continue
        if id(original) not in wrappers:
            wrappers[id(original)] = tracer.wrap(name, original, note)
        setattr(owner, attr, wrappers[id(original)])
    for cls_name, module, attr, name in methods:
        cls = getattr(module, cls_name, None)
        raw = cls.__dict__.get(attr) if cls is not None else None
        if raw is None:
            continue
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__)))
        else:
            setattr(cls, attr, tracer.wrap(name, raw))
    kde = getattr(diagnostics, "kde_marginal", None)
    if kde is not None:
        diagnostics.kde_marginal = tracer.wrap_kde(kde)


def summarize(tracer):
    """Per-layer metrics (without trace.overhead_s) from one process's spans."""
    n = len(tracer.names)
    durations = [tracer.ends[i] - tracer.starts[i] for i in range(n)]
    child_time = [0.0] * n
    for i, parent in enumerate(tracer.parents):
        if parent >= 0:
            child_time[parent] += durations[i]
    by_name = {}
    for i, name in enumerate(tracer.names):
        by_name.setdefault(name, []).append(i)

    def outermost(name):
        """Spans of `name` with no ancestor of the same name."""
        kept = []
        for i in by_name.get(name, []):
            parent = tracer.parents[i]
            while parent >= 0 and tracer.names[parent] != name:
                parent = tracer.parents[parent]
            if parent < 0:
                kept.append(i)
        return kept

    def total_s(name):
        return sum(durations[i] for i in outermost(name))

    def mean_us(name):
        spans = by_name.get(name, [])
        return 1e6 * sum(durations[i] for i in spans) / len(spans) if spans else 0.0

    chains = outermost("samplers.run_chain")
    steps = useful = diverged = 0
    for i in chains:
        chain_steps, chain_diverged = tracer.notes.get(i, (0, False))
        steps += chain_steps
        if chain_diverged:
            diverged += 1
        else:
            useful += chain_steps
    chain_self = sum(durations[i] - child_time[i] for i in chains)

    solves = [tracer.notes.get(i, (0, True)) for i in by_name.get("optim.newton_solve", [])]
    iterations = [its for its, _ in solves]
    rows = [durations[i] for i in outermost("cli.grid_row")]
    self_s = dict.fromkeys(("cli", "diagnostics", "samplers", "optim", "targets",
                            "matrixgen", "theory"), 0.0)
    for i, name in enumerate(tracer.names):
        self_s[name.split(".")[0]] += durations[i] - child_time[i]

    return {
        "diagnostics.mmtv_s": total_s("diagnostics.mmtv"),
        "diagnostics.mmtv_calls": len(by_name.get("diagnostics.mmtv", [])),
        "diagnostics.kde_points": tracer.kde_points,
        "diagnostics.mmd2_s": total_s("diagnostics.mmd2"),
        "diagnostics.median_bandwidth_s": total_s("diagnostics.median_bandwidth"),
        "samplers.run_chain_s": total_s("samplers.run_chain"),
        "samplers.run_chain_calls": len(chains),
        "samplers.steps": steps,
        "samplers.step_us": 1e6 * chain_self / steps if steps else 0.0,
        "samplers.noise_us": mean_us("samplers.noise"),
        "samplers.noise_calls": len(by_name.get("samplers.noise", [])),
        "samplers.diverged_chains": diverged,
        "samplers.useful_step_frac": useful / steps if steps else 0.0,
        "optim.newton_calls": len(solves),
        "optim.newton_us": mean_us("optim.newton_solve"),
        "optim.newton_iters_mean": statistics.fmean(iterations) if iterations else 0.0,
        "optim.newton_iters_max": max(iterations, default=0),
        "optim.unconverged": sum(1 for _, converged in solves if not converged),
        "targets.gradient_calls": len(by_name.get("targets.gradient", [])),
        "targets.gradient_us": mean_us("targets.gradient"),
        "targets.hessian_calls": len(by_name.get("targets.hessian", [])),
        "targets.hessian_us": mean_us("targets.hessian"),
        "targets.build_s": total_s("targets.build"),
        "matrixgen.random_correlation_s": total_s("matrixgen.random_correlation"),
        "theory.step_size_heuristic_s": total_s("theory.step_size_heuristic"),
        "cli.grid_row_median_s": statistics.median(rows) if rows else 0.0,
        "cli.grid_row_max_s": max(rows, default=0.0),
        "cli.write_rows_s": total_s("cli.write_rows"),
        **{f"{layer}.self_s": seconds for layer, seconds in self_s.items()},
    }
