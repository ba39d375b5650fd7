"""Spans around the benchmark's calls into shiftspace, and per-layer metrics.

A traced pass is one root span ("pass") with one child span per request
("request"); inside a request every call into a public shiftspace
function gets a flat span named after its layer (see LAYERS).  Counters
are taken at the same boundary from the call's arguments and result, only
when tracing is on.  Self time is a span's duration minus its children's durations.
The self time of the request spans is work inside a request that no layer
span covers; it is reported and must stay small (see harness.COVERAGE).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from time import perf_counter

HARNESS = ("pass", "request")

# Layers with a busy time; a span's name is one of these or a harness name.
LAYERS = (
    "core.load",
    "enumeration.count",
    "enumeration.enumerate",
    "transfer.build",
    "transfer.trim",
    "transfer.path_count",
    "transfer.power",
    "recurrence.evaluate",
    "recurrence.infer",
    "spectral.root",
    "design",
    "cli",
)

_TRACEBACK_FILE = re.compile(r'File ".*[\\/]shiftspace[\\/](\w+)\.py"')


def _grid(kwargs) -> int:
    (m_lo, m_hi), (k_lo, k_hi) = kwargs["m_range"], kwargs["k_range"]
    return (m_hi - m_lo + 1) * (k_hi - k_lo + 1)


def _traceback_module(completed) -> str:
    """The innermost shiftspace module in a child's traceback, or ''."""
    found = _TRACEBACK_FILE.findall(completed.stderr) if "Traceback" in completed.stderr else []
    return found[-1] if found else ""


# Counters per called function, from (args, kwargs, result, note).
COUNTERS = {
    "load_spec_file": lambda a, kw, r, note: {"kept": len(r.forbidden), "raw": note["raw"]},
    "build_automaton": lambda a, kw, r, note: {"states": r.num_states, "edges": len(r.edges)},
    "trim": lambda a, kw, r, note: {"kept": r.num_states, "before": a[0].num_states},
    "count_via_matrix": lambda a, kw, r, note: {
        "edge_steps": len(a[0].edges) * max(0, a[1] - a[0].window)
    },
    "adjacency_matrix": lambda a, kw, r, note: {"matrix_cells": r.size**2},
    "evaluate": lambda a, kw, r, note: {"terms": a[1]},
    "infer_recurrence": lambda a, kw, r, note: {
        "found": int(r is not None),
        "order": r.order if r is not None else 0,
    },
    "enumerate_blocks": lambda a, kw, r, note: {"blocks": len(r)},
    "design_for_entropy": lambda a, kw, r, note: {"grid_points": _grid(kw)},
    "entropy_table": lambda a, kw, r, note: {"grid_points": _grid(kw)},
    "k_for_target_ratio": lambda a, kw, r, note: {"grid_points": 1},
    "_python": lambda a, kw, r, note: {"traceback_in": _traceback_module(r)},
}


@dataclass
class Span:
    id: int
    parent: int | None
    request: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    error: str = ""


class NullTracer:
    """Tracing off: calls go straight through."""

    traced = False

    def call(self, name, fn, *args, note=None, **kwargs):
        return fn(*args, **kwargs)

    def open(self, name, request=None):
        return None

    def close(self, span_id):
        pass


class Tracer:
    """Records spans in memory; open/close nest, call makes a leaf span."""

    traced = True

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def open(self, name, request=None):
        parent = self._stack[-1] if self._stack else None
        span = Span(
            id=len(self.spans),
            parent=parent.id if parent else None,
            request=request if request is not None else (parent.request if parent else None),
            name=name,
            start=perf_counter(),
        )
        self.spans.append(span)
        self._stack.append(span)
        return span.id

    def close(self, span_id):
        span = self._stack.pop()
        if span.id != span_id:
            raise RuntimeError(f"span {span_id} closed out of order")
        span.end = perf_counter()

    def call(self, name, fn, *args, note=None, **kwargs):
        span_id = self.open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.spans[span_id].error = type(exc).__name__
            raise
        finally:
            self.close(span_id)
        counter = COUNTERS.get(getattr(fn, "__name__", ""))
        if counter is not None:
            self.spans[span_id].counts = counter(args, kwargs, result, note)
        return result


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the durations of its children.

    Tracer nests spans strictly, so the children of a span never overlap
    each other or outrun it.
    """
    result = {span.id: span.end - span.start for span in spans}
    for span in spans:
        if span.parent is not None:
            result[span.parent] -= span.end - span.start
    return result


def layer_metrics(spans, passes: int) -> dict[str, float]:
    """Per-layer metrics per traced pass, plus how much of the wall time no layer covers.

    trace.wall_s is the time spent inside requests: the pass's time less
    the harness loop and the calibration before each request.
    trace.untraced_ratio is the self time of the request spans (work inside
    a request outside every layer span) over trace.wall_s, so the busy
    times add up to trace.wall_s times (1 - trace.untraced_ratio).  A ratio
    whose base is zero reads 0.
    """
    own = self_times(spans)
    busy = dict.fromkeys(LAYERS, 0.0)
    untraced = wall = 0.0
    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    errors: dict[str, int] = {}
    refused: dict[str, int] = {}
    for span in spans:
        if span.name == "request":
            wall += span.end - span.start
            untraced += own[span.id]
        if span.name in HARNESS:
            continue
        if span.name not in busy:
            raise KeyError(f"span {span.name!r} has no layer")
        busy[span.name] += own[span.id]
        calls[span.name] = calls.get(span.name, 0) + 1
        for key, value in span.counts.items():
            if isinstance(value, (int, float)):
                totals[f"{span.name}.{key}"] = totals.get(f"{span.name}.{key}", 0) + value
        if span.error == "ResourceLimitError":
            refused[span.name] = refused.get(span.name, 0) + 1
        elif span.error:
            errors[span.name] = errors.get(span.name, 0) + 1
        if span.counts.get("traceback_in") == "spectral":
            errors["spectral.root"] = errors.get("spectral.root", 0) + 1

    def ratio(top, base):
        return totals.get(top, 0) / totals[base] if totals.get(base) else 0.0

    def per_pass(value):
        return value / passes

    metrics = {f"{layer}.busy_s": per_pass(t) for layer, t in busy.items()}
    metrics.update(
        {
            "core.load.calls": per_pass(calls.get("core.load", 0)),
            "core.normalize.kept_ratio": ratio("core.load.kept", "core.load.raw"),
            "enumeration.count.calls": per_pass(calls.get("enumeration.count", 0)),
            "enumeration.enumerate.blocks": per_pass(totals.get("enumeration.enumerate.blocks", 0)),
            "enumeration.enumerate.refused": per_pass(refused.get("enumeration.enumerate", 0)),
            "transfer.build.states": per_pass(totals.get("transfer.build.states", 0)),
            "transfer.build.edges": per_pass(totals.get("transfer.build.edges", 0)),
            "transfer.build.refused": per_pass(refused.get("transfer.build", 0)),
            "transfer.trim.kept_ratio": ratio("transfer.trim.kept", "transfer.trim.before"),
            "transfer.path_count.edge_steps": per_pass(totals.get("transfer.path_count.edge_steps", 0)),
            "transfer.power.matrix_cells": per_pass(totals.get("transfer.power.matrix_cells", 0)),
            "transfer.power.failed": per_pass(errors.get("transfer.power", 0)),
            "recurrence.evaluate.terms": per_pass(totals.get("recurrence.evaluate.terms", 0)),
            "recurrence.infer.found_ratio": (
                totals.get("recurrence.infer.found", 0) / calls["recurrence.infer"]
                if calls.get("recurrence.infer")
                else 0.0
            ),
            "recurrence.infer.order_sum": per_pass(totals.get("recurrence.infer.order", 0)),
            "spectral.root.failed": per_pass(errors.get("spectral.root", 0)),
            "design.grid_points": per_pass(totals.get("design.grid_points", 0)),
            "trace.wall_s": per_pass(wall),
            "trace.untraced_ratio": untraced / wall if wall else 0.0,
        }
    )
    return metrics
