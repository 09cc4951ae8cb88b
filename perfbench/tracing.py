"""Span tracing from outside the program.

The tracer replaces module attributes that callers look up at call time
(for example ``ample.sweep.minimize_on_sphere``) with timing wrappers, and
restores them when the traced pass ends.  Nothing in the program changes:
the wrappers return exactly what the wrapped functions return, so traced
reports are byte-identical to untraced ones.

Spans live in memory as (layer, start, end, parent, rows, cpu) records.  A
span's parent is the innermost open span of its own thread; a span opened in
a worker thread with nothing open there takes the innermost open span of the
installing thread, which is the sweep waiting on that worker.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass

# (module, attribute the caller looks up, layer it is accounted to)
TARGETS = (
    ("ample.config", "config_from_mapping", "config.parse"),
    ("ample.cli", "run", "cli.run"),
    ("ample.report", "render", "report.render"),
    ("ample.cli", "chern_of", "bundles.chern_of"),
    ("ample.cli", "check_criterion", "criteria.check"),
    ("ample.cli", "check_rank2_criterion", "criteria.check"),
    ("ample.cli", "nakai_check", "criteria.nakai"),
    ("ample.cli", "build_counterexample", "criteria.counterexample"),
    ("ample.cli", "epsilon_choice", "criteria.epsilon"),
    ("ample.cli", "run_gap_sweep", "sweep"),
    ("ample.cli", "run_griffiths_sweep", "sweep"),
    ("ample.sweep", "build_batch", "curvature.build_batch"),
    ("ample.sweep", "batch_lhs_density", "curvature.lhs_density"),
    ("ample.sweep", "objective_values", "spheremin.screen"),
    ("ample.sweep", "basis_and_random_starts", "spheremin.starts"),
    ("ample.sweep", "minimize_on_sphere", "spheremin.descent"),
    ("ample.sweep", "min_gap_over_v", "spheremin.polish"),
    ("ample.sweep", "det_objective", "spheremin.objective"),
    ("ample.sweep", "lmin_objective", "spheremin.objective"),
)

# layers whose CPU time is recorded alongside wall time
_CPU_LAYERS = ("sweep",)


def _objective_rows(args) -> int:
    V = args[0]  # objective(V, Mv, q) with V of shape (n, S, r)
    return V.shape[0] * V.shape[1]


@dataclass(eq=False)
class Span:
    layer: str
    start: float
    end: float
    parent: "Span | None"
    rows: int = 0
    cpu: float = 0.0


class Tracer:
    """Collects spans while installed; use as a context manager."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._local = threading.local()
        self._home: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, layer: str):
        rows_of = _objective_rows if layer == "spheremin.objective" else None
        with_cpu = layer in _CPU_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # reversed() tolerates the installing thread popping concurrently
            parent = stack[-1] if stack else next(reversed(self._home), None)
            span = Span(layer, 0.0, 0.0, parent)
            self.spans.append(span)
            stack.append(span)
            cpu0 = time.process_time() if with_cpu else 0.0
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if with_cpu:
                    span.cpu = time.process_time() - cpu0
                if rows_of is not None:
                    span.rows = rows_of(args)
                stack.pop()

        return traced

    def __enter__(self) -> "Tracer":
        self._local.stack = self._home
        for module_name, attr, layer in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, layer))
        if self.missing:
            print(f"trace targets not found: {', '.join(self.missing)}", file=sys.stderr)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


@dataclass
class LayerStats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    rows: int = 0
    cpu: float = 0.0


def layer_stats(spans: list[Span]) -> dict[str, LayerStats]:
    """Per-layer call count, total and self time (duration minus child coverage)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append((span.start, span.end))
    stats: dict[str, LayerStats] = {}
    for span in spans:
        s = stats.setdefault(span.layer, LayerStats())
        duration = span.end - span.start
        s.calls += 1
        s.total += duration
        s.self_time += duration - _covered(children.get(id(span), []), span.start, span.end)
        s.rows += span.rows
        s.cpu += span.cpu
    return stats
