"""In-memory span tracer that wraps rgg_spectra's layer boundaries from outside.

A module that does ``from .matching import bottleneck_matching`` keeps its own
reference to the function, so each wrapper is installed on the module whose
code makes the call, under the name that code looks up at call time.  Spans
(name, start, end, parent span, operation id, work counts) stay in memory
until the run ends.  The tracer assumes one thread: RGG_SPECTRA_THREADS is
left at its default of one worker.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

OP_SPAN = "bench.op"
# Operation id of the traced set-up's warm-up.
SETUP_OP = -1


def _eig_counts(args, kwargs, result) -> dict:
    matrix = args[0]
    order = matrix.n if hasattr(matrix, "n") else len(matrix)
    # Dense symmetric eigenvalues only: tridiagonal reduction ~ 4/3 n^3 flops.
    return {"order": order, "gflop": 4.0 / 3.0 * order**3 / 1e9}


def _adjacency_counts(args, kwargs, result) -> dict:
    return {"grid": int(args[0].kind == "grid")}


def _distance_counts(args, kwargs, result) -> dict:
    a, b, metric = args[:3]
    # The (na, nb, d) wrapped-delta array plus the (na, nb) result, float64.
    return {"bytes": a.n * b.n * (metric.d + 1) * 8}


def _probe_counts(args, kwargs, result) -> dict:
    return {"edges": int(args[0].nnz)}


# (module of the caller, attribute the caller looks up, span name, counts).
TARGETS = (
    ("harness", "figure1_experiment", "harness.figure1", None),
    ("harness", "estimate_probability", "harness.estimate", None),
    ("harness", "run_trials", "harness.run_trials", None),
    ("harness", "run_trial", "harness.trial", None),
    ("harness", "sample_uniform", "geometry.sample", None),
    ("harness", "grid_points", "geometry.grid", None),
    ("harness", "build_adjacency", "graph.adjacency", _adjacency_counts),
    ("harness", "sym_eigenvalues", "spectra.eig", _eig_counts),
    ("harness", "_dgg_esd", "dgg.lattice_esd", None),
    ("harness", "dgg_eigenvalues_closed_form", "dgg.closed_form", None),
    ("harness", "levy_distance", "levy.levy", None),
    ("harness", "trace_bound", "levy.trace_bound", None),
    ("harness", "bottleneck_matching", "matching.match", None),
    ("matching", "torus_distance_matrix", "geometry.distance_matrix", _distance_counts),
    ("matching", "maximum_bipartite_matching", "matching.probe", _probe_counts),
    ("bounds", "build_adjacency", "graph.adjacency", _adjacency_counts),
    ("bounds", "sym_eigenvalues", "spectra.eig", _eig_counts),
    ("bounds", "levy_distance", "levy.levy", None),
    ("cli", "cmd_bounds", "cli.command", None),
    ("cli", "run_trials", "harness.run_trials", None),
    ("cli", "sample_uniform", "geometry.sample", None),
    ("cli", "grid_points", "geometry.grid", None),
    ("cli", "bottleneck_matching", "matching.match", None),
    ("cli", "lemma4_decomposition", "bounds.lemma4", None),
    ("cli", "theorem1_rhs", "bounds.theorem1", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    counts: dict | None = None


class Tracer:
    """Wraps TARGETS on an imported rgg_spectra package (with rgg_spectra.cli).

    Use as a context manager: entering installs every wrapper, leaving
    restores the original attributes, also when the body raises.  Spans
    accumulate across entries.  Wrapped calls made outside ``operation``
    pass straight through, so output checks leave no spans.
    """

    def __init__(self, package) -> None:
        self.package = package
        self.spans: list[Span] = []
        self._saved: list = []
        self._stack: list[int] = []
        self._op: int | None = None

    def __enter__(self) -> "Tracer":
        for module_name, attr, span_name, counter in TARGETS:
            module = getattr(self.package, module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name, counter))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, span_name: str, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            with self._span(span_name) as span:
                result = fn(*args, **kwargs)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def operation(self, op_id: int):
        """One benchmark operation: the root span of its tree."""
        self._op = op_id
        try:
            with self._span(OP_SPAN):
                yield
        finally:
            self._op = None

    @contextmanager
    def _span(self, name: str):
        span = Span(name=name, start=0.0, end=0.0, parent=self._stack[-1] if self._stack else None, op=self._op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def write(self, path: Path, settings: dict) -> None:
        payload = {"settings": settings, "spans": [asdict(span) for span in self.spans]}
        path.write_text(json.dumps(payload) + "\n")


# Per-layer metrics of a traced run: name -> (unit, computed from array sizes
# or call arguments rather than timed).
PER_LAYER = {
    "matching.match_s": ("s", False),
    "matching.match_calls": ("count", False),
    "matching.match_self_s": ("s", False),
    "matching.probe_calls": ("count", False),
    "matching.probe_s": ("s", False),
    "matching.probe_max_s": ("s", False),
    "matching.probe_edges": ("count", True),
    "matching.probes_per_match": ("ratio", True),
    "matching.match_frac": ("ratio", False),
    "geometry.distance_matrix_s": ("s", False),
    "geometry.distance_matrix_bytes": ("B", True),
    "geometry.sample_s": ("s", False),
    "spectra.eig_s": ("s", False),
    "spectra.eig_calls": ("count", False),
    "spectra.eig_gflop": ("GFLOP", True),
    "spectra.eig_order": ("count", True),
    "spectra.eig_frac": ("ratio", False),
    "graph.adjacency_s": ("s", False),
    "graph.adjacency_calls": ("count", False),
    "graph.grid_adjacency_calls": ("count", False),
    "graph.grid_adjacency_per_trial": ("ratio", True),
    "setup.import_s": ("s", False),
    "setup.warmup_s": ("s", False),
    "dgg.lattice_esd_s": ("s", False),
    "dgg.lattice_esd_misses": ("count", True),
    "dgg.closed_form_s": ("s", False),
    "levy.levy_s": ("s", False),
    "levy.trace_bound_s": ("s", False),
    "bounds.lemma4_s": ("s", False),
    "bounds.theorem1_s": ("s", False),
    "harness.trial_s": ("s", False),
    "harness.trial_calls": ("count", False),
    "harness.self_s": ("s", False),
    "cli.command_s": ("s", False),
    "cli.self_s": ("s", False),
    "cli.bytes_written": ("B", True),
    "trace.op_s": ("s", False),
    "trace.spans": ("count", False),
    "trace.overhead_frac": ("ratio", False),
}


def setup_metrics(spans: list[Span], import_s: float, warmup_s: float) -> dict[str, float]:
    """The traced set-up's import and warm-up times, and the time its spans
    spend in the lattice-ESD layer (which fills the package's lru_cache) and
    in the closed-form lattice spectrum."""

    def busy(name: str) -> float:
        return sum((span.end - span.start for span in spans if span.name == name and span.op == SETUP_OP), 0.0)

    return {
        "setup.import_s": import_s,
        "setup.warmup_s": warmup_s,
        "dgg.lattice_esd_s": busy("dgg.lattice_esd"),
        "dgg.closed_form_s": busy("dgg.closed_form"),
    }


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer busy time, self time, calls and computed work from the
    spans of the measured operations (the set-up's are skipped), as means
    per operation unless the name says otherwise (_frac: share of operation
    time; _per_match, _per_trial; eig_order: mean per call; probe_max_s: the
    longest single probe)."""
    measured = [(index, span) for index, span in enumerate(spans) if span.op != SETUP_OP]
    duration = defaultdict(float)
    calls = defaultdict(int)
    child_time = defaultdict(float)
    counts = defaultdict(float)
    longest = defaultdict(float)
    for _, span in measured:
        dur = span.end - span.start
        duration[span.name] += dur
        calls[span.name] += 1
        longest[span.name] = max(longest[span.name], dur)
        if span.parent is not None:
            child_time[span.parent] += dur
        for key, value in (span.counts or {}).items():
            counts[f"{span.name}.{key}"] += value
    # Self time: a span's duration minus the part its child spans cover.
    self_time = defaultdict(float)
    for index, span in measured:
        self_time[span.name] += span.end - span.start - child_time[index]

    def share(value: float, base: float) -> float:
        return value / base if base else 0.0

    ops = calls[OP_SPAN]

    def per_op(value: float) -> float:
        return share(value, ops)

    op_s = duration[OP_SPAN]
    return {
        "matching.match_s": per_op(duration["matching.match"]),
        "matching.match_calls": per_op(calls["matching.match"]),
        "matching.match_self_s": per_op(self_time["matching.match"]),
        "matching.probe_calls": per_op(calls["matching.probe"]),
        "matching.probe_s": per_op(duration["matching.probe"]),
        "matching.probe_max_s": longest["matching.probe"],
        "matching.probe_edges": per_op(counts["matching.probe.edges"]),
        "matching.probes_per_match": share(calls["matching.probe"], calls["matching.match"]),
        "matching.match_frac": share(duration["matching.match"], op_s),
        "geometry.distance_matrix_s": per_op(duration["geometry.distance_matrix"]),
        "geometry.distance_matrix_bytes": per_op(counts["geometry.distance_matrix.bytes"]),
        "geometry.sample_s": per_op(duration["geometry.sample"]),
        "spectra.eig_s": per_op(duration["spectra.eig"]),
        "spectra.eig_calls": per_op(calls["spectra.eig"]),
        "spectra.eig_gflop": per_op(counts["spectra.eig.gflop"]),
        "spectra.eig_order": share(counts["spectra.eig.order"], calls["spectra.eig"]),
        "spectra.eig_frac": share(duration["spectra.eig"], op_s),
        "graph.adjacency_s": per_op(duration["graph.adjacency"]),
        "graph.adjacency_calls": per_op(calls["graph.adjacency"]),
        "graph.grid_adjacency_calls": per_op(counts["graph.adjacency.grid"]),
        "graph.grid_adjacency_per_trial": share(counts["graph.adjacency.grid"], calls["harness.trial"]),
        "levy.levy_s": per_op(duration["levy.levy"]),
        "levy.trace_bound_s": per_op(duration["levy.trace_bound"]),
        "bounds.lemma4_s": per_op(duration["bounds.lemma4"]),
        "bounds.theorem1_s": per_op(duration["bounds.theorem1"]),
        "harness.trial_s": per_op(duration["harness.trial"]),
        "harness.trial_calls": per_op(calls["harness.trial"]),
        "harness.self_s": per_op(sum(v for k, v in self_time.items() if k.startswith("harness."))),
        "cli.command_s": per_op(duration["cli.command"]),
        "cli.self_s": per_op(self_time["cli.command"]),
        "trace.op_s": per_op(op_s),
        "trace.spans": per_op(len(measured)),
    }
