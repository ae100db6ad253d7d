"""Per-layer measurement from outside the program.

Layers are the modules under ``src/triarea/``.  ``Probe`` wraps public
functions and methods of those modules and rebinds each wrapper in every
``triarea`` module that imported the original, so calls made through a
module attribute and calls made through an imported name are both seen.
The package attribute ``triarea.census`` is the census *function*, which is
why modules are looked up in ``sys.modules`` and never as package
attributes.

Two kinds of wrapper never run together:

* spans: name, start, end and parent, kept in memory; a layer's self time
  is its spans' duration minus the time their direct child spans cover;
* counters on hot calls (millions of ``exact_sign`` calls), which would
  distort span times, so they run in a pass of their own.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

# (span name, module, class or None, attribute)
SPANS = [
    ("arrangement.from_text", "triarea.arrangement", "Arrangement", "from_text"),
    ("scalars.format_scalar", "triarea.scalars", None, "format_scalar"),
    ("kernels.census_int64", "triarea._kernels", None, "census_int64"),
    ("kernels.facial_int64", "triarea._kernels", None, "facial_int64"),
    ("census.census", "triarea.census", None, "census"),
    ("census.sorted_items", "triarea.census", "AreaCensus", "sorted_items"),
    ("census.extreme", "triarea.census", "AreaCensus", "_extreme"),
    ("census.facial_triangles", "triarea.census", None, "facial_triangles"),
    ("census.per_line_counts", "triarea.census", None, "per_line_counts"),
    ("bounds.verify_arrangement", "triarea.bounds", None, "verify_arrangement"),
    ("bounds.build_gell_graphs", "triarea.bounds", None, "build_gell_graphs"),
    ("distinct.from_arrangement", "triarea.distinct", "ColoredTripleSystem", "from_arrangement"),
    ("distinct.extract_rainbow", "triarea.distinct", None, "extract_rainbow"),
    ("distinct.is_rainbow", "triarea.distinct", None, "is_rainbow"),
    ("chain.max_chain", "triarea.chain", None, "max_chain"),
    ("chain.combine", "triarea.chain", None, "combine"),
]

ROOT_SPAN = "cli.main"

# per-layer metric -> (span name, "total" or "self")
SPAN_METRICS = {
    "cli.self_s": (ROOT_SPAN, "self"),
    "arrangement.from_text_s": ("arrangement.from_text", "total"),
    "scalars.format_scalar_s": ("scalars.format_scalar", "total"),
    "kernels.census_int64_s": ("kernels.census_int64", "total"),
    "kernels.facial_int64_s": ("kernels.facial_int64", "total"),
    "census.census_self_s": ("census.census", "self"),
    "census.sorted_items_s": ("census.sorted_items", "total"),
    "census.extreme_s": ("census.extreme", "total"),
    "census.facial_triangles_s": ("census.facial_triangles", "total"),
    "census.per_line_counts_s": ("census.per_line_counts", "total"),
    "bounds.verify_arrangement_self_s": ("bounds.verify_arrangement", "self"),
    "bounds.build_gell_graphs_s": ("bounds.build_gell_graphs", "total"),
    "distinct.from_arrangement_s": ("distinct.from_arrangement", "total"),
    "distinct.extract_rainbow_self_s": ("distinct.extract_rainbow", "self"),
    "distinct.is_rainbow_s": ("distinct.is_rainbow", "total"),
    "chain.max_chain_s": ("chain.max_chain", "total"),
    "chain.combine_s": ("chain.combine", "total"),
}

COUNT_METRICS = [
    "arrangement.triple_area_calls",
    "scalars.exact_sign_calls",
    "scalars.quadext_mul_calls",
    "scalars.quadext_sign_calls",
    "scalars.interval_64_calls",
    "scalars.interval_192_calls",
    "kernels.census_int64_calls",
    "kernels.triples",
    "kernels.output_mb",
    "census.extreme_calls",
    "census.area_classes",
    "census.select_backend_calls",
    "distinct.color_calls",
]

MB = 1024 * 1024


def _namespaces() -> List[object]:
    return [m for name, m in sorted(sys.modules.items()) if name == "triarea" or name.startswith("triarea.")]


class Probe:
    """Installs wrappers into the loaded ``triarea`` modules and removes them."""

    ROOT = ROOT_SPAN

    def __init__(self) -> None:
        # span rows: [name, parent index or -1, start, end]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.counts: Counter = Counter()
        self._undo: List[Tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        self.spans.append([name, parent, time.perf_counter(), 0.0])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            sid = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(sid)

        return wrapper

    def install_spans(self) -> None:
        for name, module, cls, attr in SPANS:
            self._rebind(module, cls, attr, lambda fn, name=name: self._span_wrapper(name, fn))

    # -- counters ---------------------------------------------------------

    def _count_wrapper(self, key: str, fn: Callable, after=None) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            out = fn(*args, **kwargs)
            if after is not None:
                after(out)
            return out

        return wrapper

    def _kernel_output(self, out) -> None:
        arrays = out if isinstance(out, tuple) else (out,)
        self.counts["kernels.triples"] += len(arrays[-1])
        mb = sum(a.nbytes for a in arrays) / MB
        self.counts["kernels.output_mb"] = max(self.counts["kernels.output_mb"], mb)

    def _interval_wrapper(self, fn: Callable) -> Callable:
        # interval_of recurses through the tower; only the outermost call is
        # one sign certification attempt at the requested precision.
        depth = [0]
        counts = self.counts

        def wrapper(x, bits=fn.__defaults__[0]):
            if depth[0] == 0:
                counts[f"scalars.interval_{bits}_calls"] += 1
            depth[0] += 1
            try:
                return fn(x, bits)
            finally:
                depth[0] -= 1

        return wrapper

    def install_counters(self) -> None:
        cw = self._count_wrapper
        area_classes = lambda cen: self.counts.update({"census.area_classes": len(cen.area_counts)})  # noqa: E731
        plan = [
            ("triarea.arrangement", None, "triple_area", lambda f: cw("arrangement.triple_area_calls", f)),
            ("triarea.scalars", None, "exact_sign", lambda f: cw("scalars.exact_sign_calls", f)),
            ("triarea.scalars", "QuadExt", "__mul__", lambda f: cw("scalars.quadext_mul_calls", f)),
            ("triarea.scalars", "QuadExt", "__rmul__", lambda f: cw("scalars.quadext_mul_calls", f)),
            ("triarea.scalars", None, "_quadext_sign", lambda f: cw("scalars.quadext_sign_calls", f)),
            ("triarea.scalars", None, "interval_of", self._interval_wrapper),
            ("triarea._kernels", None, "census_int64", lambda f: cw("kernels.census_int64_calls", f, self._kernel_output)),
            ("triarea._kernels", None, "facial_int64", lambda f: cw("kernels.facial_int64_calls", f, self._kernel_output)),
            ("triarea.census", "AreaCensus", "_extreme", lambda f: cw("census.extreme_calls", f)),
            ("triarea.census", None, "census", lambda f: cw("census.census_calls", f, area_classes)),
            ("triarea.census", None, "select_backend", lambda f: cw("census.select_backend_calls", f)),
            ("triarea.distinct", "ColoredTripleSystem", "color", lambda f: cw("distinct.color_calls", f)),
        ]
        for module, cls, attr, make in plan:
            self._rebind(module, cls, attr, make)

    # -- installing ---------------------------------------------------------

    def _rebind(self, module: str, cls: Optional[str], attr: str, make: Callable) -> None:
        if cls is not None:
            owner = getattr(sys.modules[module], cls)
            raw = owner.__dict__[attr]
            if isinstance(raw, (staticmethod, classmethod)):
                new = type(raw)(make(raw.__func__))
            else:
                new = make(raw)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, new)
            return
        original = getattr(sys.modules[module], attr)
        new = make(original)
        for ns in _namespaces():
            if getattr(ns, attr, None) is original:
                self._undo.append((ns, attr, original))
                setattr(ns, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def span_totals(spans: List[list], first: int = 0) -> Dict[str, Dict[str, float]]:
    """Total and self time per span name over spans[first:]."""
    child_time: Dict[int, float] = {}
    for sid in range(first, len(spans)):
        name, parent, start, end = spans[sid]
        if parent >= first:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out: Dict[str, Dict[str, float]] = {}
    for sid in range(first, len(spans)):
        name, parent, start, end = spans[sid]
        agg = out.setdefault(name, {"total": 0.0, "self": 0.0})
        agg["total"] += end - start
        agg["self"] += end - start - child_time.get(sid, 0.0)
    return out


def span_metrics(totals: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    return {
        metric: totals.get(span, {}).get(kind, 0.0) for metric, (span, kind) in SPAN_METRICS.items()
    }


def count_metrics(counts: Counter) -> Dict[str, float]:
    return {metric: counts.get(metric, 0) for metric in COUNT_METRICS}
