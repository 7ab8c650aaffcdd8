"""Outside-in span tracer: wraps the program's public layer functions at run time.

Nothing under ``src/`` is edited.  :meth:`Tracer.install` replaces each
target of :data:`TARGETS` with a thin wrapper that records a span around
the call; :meth:`Tracer.uninstall` puts the originals back.  A target that
no longer exists (a later change renamed or removed it) is reported as
missing and skipped, so the traced run keeps working across API drift.

Span names are the ``src/repro`` modules' layers.  Each span has a name,
start, end, parent and the op (pass or request) it belongs to.  A span's
parent is the innermost open span of its own thread; a span opened on a
thread with nothing open (a server connection or worker thread) is
parented to the innermost span open anywhere, which in a one-client
closed loop is the request being served.  Self time is a span's duration
minus the durations of its children.

Functions called once per candidate (``has_infrequent_subset`` and the
prefix-cache ``get``/``put``) are *hot*: their time and calls are summed
per op, but no span record is kept, so one pass does not store half a
million records.  ``convolve_pmfs`` is only counted.  What a wrapper does
around the wrapped call (frame bookkeeping, counters) is taken out of its
caller's self time and charged to the uncovered ``trace`` bucket, so the
per-candidate wrappers neither inflate the layer that calls them nor the
reported coverage.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer, module, attribute path, kind, binding).  ``kind`` is ``span``,
#: ``hot``, ``count`` or ``prefix`` (a ``ByteBudgetLRU`` method timed only
#: on the cross-level prefix cache).  ``binding`` is ``all`` (every loaded
#: ``repro`` module attribute bound to the function) or ``own`` (only the
#: named module's binding, i.e. "as called by the server").
TARGETS: List[Tuple[str, str, str, str, str]] = [
    ("datasets.generate", "repro.datasets.benchmark", "make_benchmark", "span", "all"),
    ("datasets.generate", "repro.datasets.benchmark", "make_t25i15d", "span", "all"),
    ("db.item_statistics", "repro.db.columnar", "ColumnarView.item_statistics", "span", "all"),
    ("db.item_statistics", "repro.db.store", "MappedColumnarView.item_statistics", "span", "all"),
    ("db.store_open", "repro.db.store", "ColumnarStore.open", "span", "all"),
    ("db.store_open", "repro.db.store", "ColumnarStore.verify", "span", "all"),
    ("db.column_resolve", "repro.db.columnar", "ColumnarView.batch_vectors", "span", "all"),
    ("db.occupancy", "repro.db.columnar", "ColumnarView.level_occupancy_counts", "span", "all"),
    ("db.prefix_cache", "repro.db.cache", "ByteBudgetLRU.get", "prefix", "all"),
    ("db.prefix_cache", "repro.db.cache", "ByteBudgetLRU.put", "prefix", "all"),
    ("search.join", "repro.algorithms.common", "apriori_join", "span", "all"),
    ("search.prune", "repro.algorithms.common", "has_infrequent_subset", "hot", "all"),
    ("search.driver", "repro.core.search", "LevelwiseSearch.run", "span", "all"),
    ("support.moments", "repro.core.support", "SupportEngine.expected_supports", "span", "all"),
    ("support.moments", "repro.core.support", "SupportEngine.variances", "span", "all"),
    ("support.moments", "repro.core.support", "SupportEngine.nonzero_counts", "span", "all"),
    ("support.bounds", "repro.core.support", "SupportEngine.undecided_after_bounds", "span", "all"),
    ("support.dp", "repro.core.support", "frequent_probabilities_dp_batch", "span", "all"),
    ("support.dc", "repro.core.support", "dc_tail_probabilities", "span", "all"),
    ("support.dc_convolutions", "repro.core.support", "convolve_pmfs", "count", "all"),
    ("algorithms.uh_struct", "repro.algorithms.uh_mine", "build_uh_struct_columnar", "span", "all"),
    ("algorithms.uh_expand", "repro.algorithms.uh_mine", "uh_mine_expand", "span", "all"),
    ("service.handle", "repro.service.server", "MiningServer.handle_line", "span", "all"),
    ("service.checkout", "repro.service.registry", "DatasetRegistry.checkout", "span", "all"),
    ("service.plan", "repro.service.server", "materialize_plan", "span", "own"),
    ("service.cache_lookup", "repro.service.cache", "ResultCache.fetch_mine", "span", "all"),
    ("service.cache_store", "repro.service.cache", "ResultCache.store_mine", "span", "all"),
    ("service.mine_call", "repro.service.server", "mine", "span", "own"),
    ("service.encode", "repro.service.server", "encode_records", "span", "own"),
    ("service.encode", "repro.service.server", "encode_line", "span", "own"),
]

#: per-layer metrics: name -> (unit, how it is derived, layers it needs)
LAYER_METRICS: Dict[str, Tuple[str, str, Tuple[str, ...]]] = {
    "datasets.generate_s": ("s", "self", ("datasets.generate",)),
    "db.item_statistics_s": ("s", "self", ("db.item_statistics",)),
    "db.store_open_s": ("s", "self", ("db.store_open",)),
    "db.column_resolve_s": ("s", "self", ("db.column_resolve",)),
    "db.occupancy_s": ("s", "self", ("db.occupancy",)),
    "db.prefix_cache_s": ("s", "self", ("db.prefix_cache",)),
    "db.prefix_cache_hit_ratio": ("ratio", "ratio", ("db.prefix_cache",)),
    "db.prefix_cache_evictions": ("count", "count", ("db.prefix_cache",)),
    "db.killed_ratio": ("ratio", "ratio", ("db.column_resolve",)),
    "search.join_s": ("s", "self", ("search.join",)),
    "search.prune_s": ("s", "self", ("search.prune",)),
    "search.candidates": ("count", "count", ("search.driver",)),
    "search.admitted_ratio": ("ratio", "ratio", ("search.driver",)),
    "search.driver_s": ("s", "self", ("search.driver",)),
    "support.moments_s": ("s", "self", ("support.moments",)),
    "support.bounds_s": ("s", "self", ("support.bounds",)),
    "support.bound_decided_ratio": ("ratio", "ratio", ("support.bounds",)),
    "support.exact_evaluations": ("count", "count", ("support.dp", "support.dc")),
    "support.dp_s": ("s", "self", ("support.dp",)),
    "support.dc_s": ("s", "self", ("support.dc",)),
    "support.dc_convolutions": ("count", "count", ("support.dc_convolutions",)),
    "algorithms.uh_struct_s": ("s", "self", ("algorithms.uh_struct",)),
    "algorithms.uh_expand_s": ("s", "self", ("algorithms.uh_expand",)),
    "service.handle_s": ("s", "inclusive", ("service.handle",)),
    "service.checkout_s": ("s", "self", ("service.checkout",)),
    "service.plan_s": ("s", "self", ("service.plan",)),
    "service.cache_lookup_s": ("s", "self", ("service.cache_lookup",)),
    "service.cache_store_s": ("s", "self", ("service.cache_store",)),
    "service.cache_hit_ratio": ("ratio", "ratio", ()),
    "service.mine_call_s": ("s", "self", ("service.mine_call",)),
    "service.encode_s": ("s", "self", ("service.encode",)),
    "service.dispatch_s": ("s", "dispatch", ("service.handle",)),
    "service.wire_s": ("s", "wire", ("service.handle",)),
    "trace.coverage": ("ratio", "coverage", ()),
    "trace.overhead_ratio": ("ratio", "overhead", ()),
    "trace.missing_targets": ("count", "missing", ()),
}

#: counters behind the ratio metrics: metric -> (numerator, denominator, complement)
_RATIOS = {
    "db.prefix_cache_hit_ratio": (("db.prefix_hits",), ("db.prefix_hits", "db.prefix_misses"), False),
    "db.killed_ratio": (("db.killed",), ("db.candidates_in",), False),
    "search.admitted_ratio": (("search.itemsets",), ("search.candidates",), False),
    "support.bound_decided_ratio": (("support.bounds_undecided",), ("support.bounds_in",), True),
    "service.cache_hit_ratio": (("service.cache_served",), ("service.cache_asked",), False),
}

#: bucket of the wrappers' own work (frame bookkeeping and counters)
TRACING = "trace"
#: self time not "covered" by a named layer span: the search driver's own
#: loop and record assembly, the op roots opened by the harness, and the
#: tracer's own wrapper work
UNCOVERED = frozenset({"search.driver", "setup", "pass", "request", TRACING})


class Tracer:
    """Wraps the layer functions and accumulates spans, self times and counters.

    Build it after ``repro`` and every module the workload uses are
    imported: the targets and their module bindings are resolved once.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        #: frames opened on a thread with nothing open, oldest first
        self._thread_roots: List[list] = []
        #: (owner, attribute, original, wrapper) resolved once
        self._patches: List[Tuple[Any, str, Any, Any]] = []
        #: the op (pass or request) and phase new spans are charged to
        self.op: Optional[Any] = None
        self.phase: str = ""
        #: finished coarse spans: (id, name, start_ns, end_ns, parent_id, op, phase)
        self.spans: List[tuple] = []
        #: (op, phase, name) -> [self_ns, inclusive_ns, calls]
        self.totals: Dict[Tuple[Any, str, str], List[int]] = {}
        #: (op, name) -> value
        self.counters: Dict[Tuple[Any, str], float] = {}
        self.wrapped: List[str] = []
        #: "module:attribute" of every target that could not be found
        self.missing: List[str] = []
        self._missing_layers: set = set()
        #: prefix caches seen in the current op; strong references for the
        #: op's lifetime so an id cannot be reused by another cache meanwhile
        self._prefix_caches: Dict[int, Any] = {}
        self._prepare()

    # -- ops -----------------------------------------------------------------------------
    @contextmanager
    def scope(self, op: Any, phase: str):
        """Charge everything inside to ``op``, under a root span named ``phase``."""
        self.op = op
        self.phase = phase
        frame = self._enter(phase, False)
        try:
            yield
        finally:
            self._exit(frame)
            self._prefix_caches.clear()
            self.op = None

    def count(self, name: str, value: float = 1, op: Any = None) -> None:
        op = self.op if op is None else op
        if op is None:
            return
        key = (op, name)
        self.counters[key] = self.counters.get(key, 0) + value

    # -- frames --------------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str, hot: bool) -> list:
        stack = self._stack()
        thread_root = not stack
        # frame: name, start_ns, child_ns, parent frame, hot, thread root, id
        frame = [name, 0, 0, None, hot, thread_root, next(self._ids)]
        if thread_root:
            with self._lock:
                frame[3] = self._thread_roots[-1] if self._thread_roots else None
                self._thread_roots.append(frame)
        else:
            frame[3] = stack[-1]
        stack.append(frame)
        frame[1] = time.perf_counter_ns()
        return frame

    def _exit(self, frame: list) -> int:
        """Close ``frame``; returns its duration in ns."""
        end = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] is frame:
            stack.pop()
        duration = end - frame[1]
        parent = frame[3]
        if frame[5]:
            with self._lock:
                if parent is not None:
                    parent[2] += duration
                self._thread_roots.remove(frame)
        elif parent is not None:
            parent[2] += duration
        op = self.op
        if op is None:
            return duration
        key = (op, self.phase, frame[0])
        total = self.totals.get(key)
        if total is None:
            total = self.totals[key] = [0, 0, 0]
        total[0] += duration - frame[2]
        total[1] += duration
        total[2] += 1
        if not frame[4]:
            self.spans.append(
                (frame[6], frame[0], frame[1], end, parent[6] if parent else None, op, self.phase)
            )
        return duration

    def _call(self, layer: str, hot: bool, fn: Callable, args, kwargs, after=None):
        """Run ``fn`` inside a ``layer`` frame, then ``after(result)``.

        The wrapper's own work (frame bookkeeping, ``after``, counters) is
        charged to the uncovered ``trace`` bucket rather than to the
        caller's self time, so per-candidate wrappers do not inflate the
        covered layer that calls them.
        """
        outer = time.perf_counter_ns()
        frame = self._enter(layer, hot)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = self._exit(frame)
        if after is not None:
            after(result)
        self._charge_tracing(frame[3], frame[5], time.perf_counter_ns() - outer - duration)
        return result

    def _charge_tracing(self, parent: Optional[list], cross_thread: bool, ns: int) -> None:
        """Move ``ns`` of wrapper work out of ``parent``'s self time into :data:`TRACING`."""
        if parent is not None:
            if cross_thread:
                with self._lock:
                    parent[2] += ns
            else:
                parent[2] += ns
        if self.op is None:
            return
        key = (self.op, self.phase, TRACING)
        total = self.totals.get(key)
        if total is None:
            total = self.totals[key] = [0, 0, 0]
        total[0] += ns
        total[1] += ns
        total[2] += 1

    # -- install / uninstall -------------------------------------------------------------
    def _prepare(self) -> None:
        modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))
        ]
        for layer, module_name, path, kind, binding in TARGETS:
            label = f"{module_name}:{path}"
            try:
                owner, attribute = _resolve(importlib.import_module(module_name), path)
                raw = (
                    owner.__dict__[attribute]
                    if isinstance(owner, type)
                    else getattr(owner, attribute)
                )
            except (ImportError, AttributeError, KeyError):
                self.missing.append(label)
                self._missing_layers.add(layer)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapper = type(raw)(self._wrapper(layer, raw.__func__, kind))
            else:
                wrapper = self._wrapper(layer, raw, kind)
            if isinstance(owner, type) or binding == "own":
                self._patches.append((owner, attribute, raw, wrapper))
            else:
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is raw:
                            self._patches.append((module, name, raw, wrapper))
            self.wrapped.append(label)

    def install(self) -> None:
        for owner, attribute, _, wrapper in self._patches:
            setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original, _ in reversed(self._patches):
            setattr(owner, attribute, original)

    def is_missing(self, metric: str) -> bool:
        """Whether every layer behind ``metric`` was missing at install time."""
        layers = LAYER_METRICS[metric][2]
        return bool(layers) and all(layer in self._missing_layers for layer in layers)

    def _wrapper(self, layer: str, fn: Callable, kind: str) -> Callable:
        tracer = self
        if kind == "count":

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                started = time.perf_counter_ns()
                tracer.count(layer)
                stack = tracer._stack()
                parent = stack[-1] if stack else None
                tracer._charge_tracing(parent, False, time.perf_counter_ns() - started)
                return fn(*args, **kwargs)

            return counted
        if kind == "prefix":
            return _prefix_wrapper(tracer, layer, fn)
        if layer == "db.column_resolve":
            return _resolve_wrapper(tracer, layer, fn)
        hot = kind == "hot"
        hook = _HOOKS.get(layer)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            after = None if hook is None else (lambda result: hook(tracer, args, result))
            return tracer._call(layer, hot, fn, args, kwargs, after)

        return spanned

    # -- per-layer metrics ---------------------------------------------------------------
    def layer_metrics(self, op_phase: str, overhead: float) -> Dict[str, float]:
        """Every :data:`LAYER_METRICS` value.

        A time or count is the median, over the ops in which its layer ran,
        of its per-op sum (0 when it never ran); a ratio comes from the
        run's summed counters; coverage is the median over ``op_phase``
        roots of the share of the root covered by named layer self time,
        where the root's time excludes the tracer's own wrapper work.
        """
        self_ns: Dict[Any, Dict[str, int]] = {}
        inclusive_ns: Dict[Any, Dict[str, int]] = {}
        covered: Dict[Any, int] = {}
        tracing: Dict[Any, int] = {}
        for (op, phase, name), (own, inclusive, _) in self.totals.items():
            per_op = self_ns.setdefault(op, {})
            per_op[name] = per_op.get(name, 0) + own
            per_op = inclusive_ns.setdefault(op, {})
            per_op[name] = per_op.get(name, 0) + inclusive
            if phase == op_phase and name not in UNCOVERED:
                covered[op] = covered.get(op, 0) + own
            elif phase == op_phase and name == TRACING:
                tracing[op] = tracing.get(op, 0) + own
        counters: Dict[Any, Dict[str, float]] = {}
        for (op, name), value in self.counters.items():
            counters.setdefault(op, {})[name] = value

        def median_over_ops(table, name: str) -> float:
            values = [per_op[name] for per_op in table.values() if name in per_op]
            return float(statistics.median(values)) if values else 0.0

        def total(names: Tuple[str, ...]) -> float:
            return float(
                sum(per_op.get(name, 0) for per_op in counters.values() for name in names)
            )

        coverage = [
            covered.get(op, 0) / (per_op[op_phase] - tracing.get(op, 0))
            for op, per_op in inclusive_ns.items()
            if per_op.get(op_phase)
        ]
        metrics: Dict[str, float] = {}
        for metric, (_, how, layers) in LAYER_METRICS.items():
            if how == "self":
                value = sum(median_over_ops(self_ns, layer) for layer in layers) / 1e9
            elif how == "inclusive":
                value = median_over_ops(inclusive_ns, layers[0]) / 1e9
            elif how == "dispatch":
                value = median_over_ops(self_ns, "service.handle") / 1e9
            elif how == "wire":
                value = median_over_ops(self_ns, "request") / 1e9
            elif how == "count":
                value = median_over_ops(counters, metric)
            elif how == "ratio":
                numerator, denominator, complement = _RATIOS[metric]
                base = total(denominator)
                value = total(numerator) / base if base else 0.0
                if complement and base:
                    value = 1.0 - value
            elif how == "coverage":
                value = float(statistics.median(coverage)) if coverage else 0.0
            elif how == "overhead":
                value = overhead
            else:
                value = float(len(self.missing))
            metrics[metric] = value
        return metrics

    # -- output --------------------------------------------------------------------------
    def dump(self, path: str, extra: Dict[str, Any]) -> None:
        """Write the spans, the hot-span sums and the counters as JSON."""
        coarse = {span[1] for span in self.spans}
        document = dict(extra)
        document.update(
            {
                "span_fields": ["id", "name", "start_ns", "end_ns", "parent", "op", "phase"],
                "spans": self.spans,
                "hot_spans": [
                    {"op": op, "phase": phase, "name": name, "self_ns": v[0], "calls": v[2]}
                    for (op, phase, name), v in self.totals.items()
                    if name not in coarse
                ],
                "counters": [
                    {"op": op, "name": name, "value": value}
                    for (op, name), value in self.counters.items()
                ],
                "wrapped": self.wrapped,
                "missing": self.missing,
            }
        )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


def _resolve_wrapper(tracer: Tracer, layer: str, fn: Callable) -> Callable:
    """``batch_vectors``: registers the view's prefix cache, counts kills."""

    def after(result) -> None:
        tracer.count("db.killed", sum(1 for vector in result if len(vector) == 0))

    @functools.wraps(fn)
    def resolve(view, candidates, *args, **kwargs):
        cache = getattr(view, "_prefix_cache", None)
        if cache is not None:
            tracer._prefix_caches[id(cache)] = cache
        tracer.count("db.candidates_in", len(candidates))
        return tracer._call(layer, False, fn, (view, candidates, *args), kwargs, after)

    return resolve


def _prefix_wrapper(tracer: Tracer, layer: str, fn: Callable) -> Callable:
    caches = tracer._prefix_caches
    if fn.__name__ == "get":

        def counted_get(value) -> None:
            tracer.count("db.prefix_hits" if value is not None else "db.prefix_misses")

        @functools.wraps(fn)
        def get(cache, key):
            if id(cache) not in caches:
                return fn(cache, key)
            return tracer._call(layer, True, fn, (cache, key), {}, counted_get)

        return get

    @functools.wraps(fn)
    def put(cache, key, value):
        if id(cache) not in caches:
            return fn(cache, key, value)
        before = getattr(cache, "evictions", 0)

        def counted_put(_) -> None:
            tracer.count("db.prefix_cache_evictions", getattr(cache, "evictions", 0) - before)

        return tracer._call(layer, True, fn, (cache, key, value), {}, counted_put)

    return put


def _driver_hook(tracer: Tracer, args, result) -> None:
    run_statistics = getattr(result, "statistics", None)
    tracer.count("search.candidates", getattr(run_statistics, "candidates_generated", 0))
    tracer.count("search.itemsets", len(result))


def _bounds_hook(tracer: Tracer, args, result) -> None:
    tracer.count("support.bounds_in", len(args[0]))
    tracer.count("support.bounds_undecided", len(result))


def _tails_hook(tracer: Tracer, args, result) -> None:
    tracer.count("support.exact_evaluations", len(result))


_HOOKS: Dict[str, Callable] = {
    "search.driver": _driver_hook,
    "support.bounds": _bounds_hook,
    "support.dp": _tails_hook,
    "support.dc": _tails_hook,
}


def _resolve(module: Any, path: str) -> Tuple[Any, str]:
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    if not hasattr(owner, parts[-1]):
        raise AttributeError(path)
    return owner, parts[-1]
