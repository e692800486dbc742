"""Outside-in span tracing of the wkist pipeline layers.

The tracer replaces module attributes named in ``WRAPPED`` with thin
wrappers for the duration of one traced op and restores them afterwards.
Each wrapper is installed where the caller looks the callee up by name
(``wkist.cli`` imports ``reflection_coefficient`` into its own namespace,
so that name is wrapped there), which lets the benchmark time the layers
without editing the program.  An attribute that no longer exists is
reported as missing instead of failing the run, so refactors that merge
or rename internal functions do not break the benchmark.

Spans hold (metric, start, end, parent, op id) and stay in memory until
``write_spans`` dumps them.  A span's self time is its duration minus the
time its child spans cover; self times are summed per metric.  Counters
(Cauchy calls, FFT points, Neumann iterations, Magnus steps, Picard
iterations) are recorded at the same wrappers from the call arguments and
return values.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

SPAN, OBSERVE = "span", "observe"

# (module, attribute, metric, role).  A "span" wrapper times the call and
# charges its self time to the metric; an "observe" wrapper only reads the
# call's result for counters and leaves its time with the enclosing span.
WRAPPED = [
    ("wkist.cli", "make_potential", "lax.s", SPAN),
    ("wkist.cli", "conserved_E1", "lax.s", SPAN),
    ("wkist.cli", "reflection_coefficient", "direct_scattering.reflection_self_s", SPAN),
    ("wkist.cli", "evolve_reflection", "direct_scattering.evolve_s", SPAN),
    ("wkist.cli", "inverse_transform", "reconstruction.inverse_self_s", SPAN),
    ("wkist.cli", "gridfunction_to_csv", "cli.write_s", SPAN),
    ("wkist.cli", "_write_reflection", "cli.write_s", SPAN),
    ("wkist.cli", "_write_reconstruction", "cli.write_s", SPAN),
    ("wkist.cli", "_write_manifest", "cli.write_s", SPAN),
    ("wkist.direct_scattering", "_propagate_to_mid", "direct_scattering.propagate_s", SPAN),
    ("wkist.direct_scattering", "_cell_exponential", "direct_scattering.magnus_steps", OBSERVE),
    ("wkist.reconstruction", "evolve_reflection", "direct_scattering.evolve_s", SPAN),
    ("wkist.reconstruction", "make_potential", "lax.s", SPAN),
    ("wkist.reconstruction", "conserved_E1", "lax.s", SPAN),
    ("wkist.reconstruction", "delta_function", "rhp.delta_s", SPAN),
    ("wkist.reconstruction", "_jump_entries", "rhp.jump_s", SPAN),
    ("wkist.reconstruction", "fit_tail_model", "rhp.tail_fit_s", SPAN),
    ("wkist.reconstruction", "tail_band_rhs", "rhp.tail_rhs_s", SPAN),
    ("wkist.reconstruction", "_solve_batch", "rhp.solve_self_s", SPAN),
    ("wkist.reconstruction", "_moment_rows", "rhp.moments_s", SPAN),
    ("wkist.reconstruction", "outer_band_moments", "rhp.outer_band_s", SPAN),
    ("wkist.reconstruction", "epsilon_fixed_point", "reconstruction.picard_s", SPAN),
    ("wkist.reconstruction", "x_from_m11", "reconstruction.explicit_map_s", SPAN),
    ("wkist.reconstruction", "resample_q", "reconstruction.resample_s", SPAN),
    # the first _neumann inside a _solve_batch span is the mu solve, the
    # second the dmu solve; the metric is chosen when the span opens
    ("wkist.rhp", "_neumann", "rhp.neumann_mu_s", SPAN),
    ("wkist.rhp", "_dense_solve", "rhp.dense_s", SPAN),
    ("wkist.rhp", "_cauchy_plus_batch", "lattice.cauchy_s", SPAN),
    ("wkist.rhp", "_l2_residual", "rhp.useful_iteration_ratio", OBSERVE),
    ("wkist.lattice", "_cauchy_plus_batch", "lattice.cauchy_s", SPAN),
]

ROOT_METRIC = "cli.self_s"

# Model of the memory traffic of one padded Cauchy projection: zero-fill
# and copy-in of the padded buffer, FFT read/write, multiplier product
# read/write, inverse FFT read/write -- eight passes over complex128
# samples of the padded length.  Computed from shapes, not measured.
CAUCHY_PASSES = 8
COMPLEX_BYTES = 16

TIME_METRICS = [
    "lattice.cauchy_s",
    "rhp.delta_s", "rhp.jump_s", "rhp.tail_fit_s", "rhp.tail_rhs_s",
    "rhp.neumann_mu_s", "rhp.neumann_dmu_s", "rhp.solve_self_s", "rhp.dense_s",
    "rhp.moments_s", "rhp.outer_band_s",
    "direct_scattering.propagate_s", "direct_scattering.reflection_self_s",
    "direct_scattering.evolve_s",
    "reconstruction.picard_s", "reconstruction.explicit_map_s",
    "reconstruction.resample_s", "reconstruction.inverse_self_s",
    "lax.s", "cli.write_s", ROOT_METRIC,
]

COUNT_METRICS = {
    "lattice.cauchy_calls": "count", "lattice.fft_points": "count",
    "lattice.bytes_computed": "bytes",
    "rhp.cells": "count", "rhp.iterations_mu": "count", "rhp.iterations_dmu": "count",
    "direct_scattering.magnus_steps": "count", "reconstruction.picard_iterations": "count",
}


@dataclass
class Span:
    metric: str
    start: float
    end: float = 0.0
    parent: int = -1
    op: int = -1
    children: list = field(default_factory=list)


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts = {name: 0 for name in COUNT_METRICS}
        self.useful_iterations = 0
        self.chunk_iterations = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._residuals: list[list] = []   # per open _neumann: residual per call
        self._op = -1

    # -- spans ----------------------------------------------------------
    def _open(self, metric: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(Span(metric, time.perf_counter(), parent=parent, op=self._op))
        if parent >= 0:
            self.spans[parent].children.append(idx)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _neumann_metric(self) -> str:
        """mu for the first _neumann under the enclosing _solve_batch, else dmu."""
        for idx in reversed(self._stack):
            span = self.spans[idx]
            if span.metric == "rhp.solve_self_s":
                earlier = sum(self.spans[c].metric.startswith("rhp.neumann_")
                              for c in span.children)
                return "rhp.neumann_mu_s" if earlier == 0 else "rhp.neumann_dmu_s"
        return "rhp.neumann_mu_s"

    # -- wrappers -------------------------------------------------------
    def _wrap(self, attr: str, fn, metric: str, role: str):
        tracer = self
        signature = inspect.signature(fn)

        if role == OBSERVE:
            @functools.wraps(fn)
            def observed(*args, **kwargs):
                result = fn(*args, **kwargs)
                tracer._observe(attr, result)
                return result
            return observed

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            name = tracer._neumann_metric() if attr == "_neumann" else metric
            idx = tracer._open(name)
            if attr == "_neumann":
                tracer._residuals.append([])
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                history = tracer._residuals.pop() if attr == "_neumann" else None
            tracer._count(attr, name, signature, args, kwargs, result, history)
            return result
        return spanned

    def _count(self, attr, *call):
        """Update the counters of one call; a changed call shape marks them missing."""
        try:
            self._count_call(attr, *call)
        except (TypeError, ValueError, AttributeError, IndexError, KeyError):
            self._mark_missing(f"{attr} (counter)")

    def _observe(self, attr: str, result):
        try:
            self._observe_call(attr, result)
        except (TypeError, ValueError, AttributeError, IndexError, KeyError):
            self._mark_missing(f"{attr} (counter)")

    def _mark_missing(self, name: str):
        if name not in self.missing:
            self.missing.append(name)

    def _observe_call(self, attr: str, result):
        if attr == "_cell_exponential":
            self.counts["direct_scattering.magnus_steps"] += int(np.size(result) // 4)
        elif attr == "_l2_residual" and self._residuals:
            self._residuals[-1].append(np.array(result, copy=True))

    def _count_call(self, attr, metric, signature, args, kwargs, result, history):
        if attr == "_cauchy_plus_batch":
            self.counts["lattice.cauchy_calls"] += 1
            values, grid = signature.bind(*args, **kwargs).args[:2]
            rows = int(np.prod(np.shape(values)[:-1]))
            padded = grid.point_count * grid.padding
            self.counts["lattice.fft_points"] += rows * padded
            self.counts["lattice.bytes_computed"] += (
                rows * padded * COMPLEX_BYTES * CAUCHY_PASSES)
        elif attr == "_solve_batch":
            self.counts["rhp.cells"] += int(np.shape(signature.bind(*args, **kwargs).args[0])[0])
        elif attr == "_neumann":
            self._count_neumann(metric, signature.bind(*args, **kwargs), result, history)
        elif attr == "epsilon_fixed_point":
            self.counts["reconstruction.picard_iterations"] += int(result.iterations)

    def _count_neumann(self, metric, bound, result, history):
        """Chunk iterations x cells, and the iteration each cell first met tol."""
        bound.apply_defaults()
        tol = bound.arguments["tol"]
        iterations = int(result[2])
        rows = int(np.shape(result[1])[0])
        key = "rhp.iterations_mu" if metric == "rhp.neumann_mu_s" else "rhp.iterations_dmu"
        self.counts[key] += iterations * rows
        # the loop evaluates one residual per iteration; a trailing call
        # re-checks the final iterate and is not an iteration
        history = history[:iterations]
        first = np.full(rows, iterations)
        for k in range(len(history) - 1, -1, -1):
            first = np.where(history[k] < tol, k + 1, first)
        self.useful_iterations += int(first.sum())
        self.chunk_iterations += iterations * rows

    @contextmanager
    def installed(self, op: int):
        """Wrap every available attribute of ``WRAPPED`` for one op."""
        self._op = op
        undo = []
        try:
            for module_name, attr, metric, role in WRAPPED:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    self._mark_missing(f"{module_name}.{attr}")
                    continue
                fn = getattr(module, attr, None)
                if fn is None:
                    self._mark_missing(f"{module_name}.{attr}")
                    continue
                undo.append((module, attr, fn))
                setattr(module, attr, self._wrap(attr, fn, metric, role))
            root = self._open(ROOT_METRIC)
            try:
                yield
            finally:
                self._close(root)
        finally:
            for module, attr, fn in reversed(undo):
                setattr(module, attr, fn)

    # -- results --------------------------------------------------------
    def _self_time(self, span: Span) -> float:
        """Span duration minus the time its (nested) child spans cover."""
        covered = sum(self.spans[c].end - self.spans[c].start for c in span.children)
        return (span.end - span.start) - covered

    def self_times(self) -> dict:
        """Self time summed per metric."""
        out = {name: 0.0 for name in TIME_METRICS}
        for span in self.spans:
            out[span.metric] = out.get(span.metric, 0.0) + self._self_time(span)
        return out

    def op_self_time(self, op: int) -> float:
        """Self times of one op's spans; they add up to its root span."""
        return sum(self._self_time(s) for s in self.spans if s.op == op)

    def snapshot(self) -> dict:
        """Every counter so far, for comparing two traced runs of one op."""
        return {**self.counts, "useful_iterations": self.useful_iterations,
                "chunk_iterations": self.chunk_iterations}

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}, totals over the traced ops."""
        out = {name: (value, "s") for name, value in self.self_times().items()}
        out.update({name: (self.counts[name], unit) for name, unit in COUNT_METRICS.items()})
        ratio = self.useful_iterations / self.chunk_iterations if self.chunk_iterations else 0.0
        out["rhp.useful_iteration_ratio"] = (ratio, "ratio")
        out["trace.missing_wrappers"] = (len(self.missing), "count")
        return out

    def write_spans(self, path):
        """Dump every span as one JSON object per line."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.metric, "start": s.start,
                                     "end": s.end, "parent": s.parent, "op": s.op}) + "\n")
