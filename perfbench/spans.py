"""Span and count recording around dtzero's public functions and methods.

The wrappers are installed from the benchmark's side by replacing module
and class attributes; nothing under src/ knows about them.  Every module of
the package that imported a traced function by name gets the wrapper too,
so calls between modules are seen.  Spans are kept in memory as
(op, name, start, end, parent) and turned into per-layer figures, or
written out, when the run ends.
"""

import functools
import sys
from collections import Counter
from time import perf_counter

# (layer name, module, attribute path); spans give durations and nesting.
SPAN_TARGETS = (
    ("series.mul", "dtzero.series", "TruncatedSeries.__mul__"),
    ("series.inverse", "dtzero.series", "TruncatedSeries.inverse"),
    ("series.pow", "dtzero.series", "TruncatedSeries.__pow__"),
    ("macmahon.macmahon_series", "dtzero.macmahon", "macmahon_series"),
    ("macmahon.macmahon_neg", "dtzero.macmahon", "macmahon_neg"),
    ("dt.dt_series", "dtzero.dt", "dt_series"),
    ("chern.resolve", "dtzero.chern", "ThreefoldSpec.resolve"),
    ("cobordism.decompose", "dtzero.cobordism", "decompose"),
    ("cli.parse_spec_document", "dtzero.cli", "parse_spec_document"),
    ("cli.main", "dtzero.cli", "main"),
    ("lattice.partitions", "dtzero.lattice", "partitions"),
    ("lattice.delta_transform", "dtzero.lattice", "delta_transform"),
    ("lattice.classify_q_set", "dtzero.lattice", "classify_q_set"),
    ("lattice.strict_diagonal_distance_sq", "dtzero.lattice", "strict_diagonal_distance_sq"),
)

# Comparisons run tens of thousands of times per operation: counted, not spanned.
COUNT_TARGETS = (
    ("lattice.le", "dtzero.lattice", "SetPartition.__le__"),
    ("lattice.lt", "dtzero.lattice", "SetPartition.__lt__"),
)

SETUP_OP = -1


class Tracer:
    """Records spans and counts while installed; `uninstall` restores the originals.

    `op` is the index of the operation in progress, or SETUP_OP; counts are
    kept for operations only.
    """

    def __init__(self):
        self.spans: list = []  # (op, name, start, end, parent index or -1)
        self.counts: Counter = Counter()
        self.op = SETUP_OP
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._patches: list = []

    # -- installation --------------------------------------------------

    def install(self) -> None:
        for name, module, path in SPAN_TARGETS:
            self._patch(module, path, lambda fn, name=name: self._span(name, fn))
        for name, module, path in COUNT_TARGETS:
            self._patch(module, path, lambda fn, name=name: self._count(name, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, module: str, path: str, make) -> None:
        owner = sys.modules.get(module)
        if owner is None:  # a module the workload never loads has nothing to trace
            return
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        wrapper = make(original)
        self._set(owner, attr, original, wrapper)
        if outer:
            return
        # Modules that did `from .x import f` hold their own reference.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "dtzero" or mod_name.startswith("dtzero.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original and mod is not owner:
                    self._set(mod, key, original, wrapper)

    def _set(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # -- wrappers --------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, active = self.spans, self._stack, self._active
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            active[name] += 1
            hits = cache_info().hits if cache_info else 0
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if cache_info and self.op != SETUP_OP and cache_info().hits > hits:
                    self.counts[name + ".hits"] += 1
                active[name] -= 1
                stack.pop()
                spans[index] = (self.op, name, start, end, parent)

        return wrapper

    def _count(self, name: str, fn):
        counts, active = self.counts, self._active

        @functools.wraps(fn)
        def wrapper(a, b):
            result = fn(a, b)
            if self.op == SETUP_OP:
                return result
            counts[name] += 1
            if active["lattice.delta_transform"]:
                counts[name + ".in_delta"] += 1
                counts[name + ".in_delta.true"] += bool(result)
            return result

        return wrapper

    # -- output ----------------------------------------------------------

    def dump(self) -> dict:
        return {"spans": [list(s) for s in self.spans], "counts": dict(self.counts)}


class LayerTotals:
    """Sums spans into per-layer totals.

    `.ms` figures are the inclusive time of the outermost span of a name (a
    recursive call counts once); `.self_ms` figures subtract the time that
    child spans cover.  Only spans of operations count, except that every
    macmahon_series call gives a sample of its duration, set-up calls
    included.
    """

    def __init__(self):
        self.calls: Counter = Counter()
        self.inclusive: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self.macmahon: list[float] = []

    def add(self, spans, counts) -> None:
        child_time: Counter = Counter()
        for op, name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (op, name, start, end, parent) in enumerate(spans):
            if name == "macmahon.macmahon_series":
                self.macmahon.append(end - start)
            if op == SETUP_OP:
                continue
            self.calls[name] += 1
            self.self_time[name] += (end - start) - child_time[index]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][1] != name:
                ancestor = spans[ancestor][4]
            if ancestor < 0:
                self.inclusive[name] += end - start
        self.counts.update(counts)

    def figures(self, ops: int) -> dict:
        """Calls and milliseconds per operation, and the ratios, by metric name."""
        calls, counts = self.calls, self.counts

        def per_op(value):
            return value / ops

        def ms(table, name):
            return table[name] * 1e3 / ops

        def ratio(part, whole):
            return part / whole if whole else 0.0

        return {
            "series.mul.calls": per_op(calls["series.mul"]),
            "series.mul.self_ms": ms(self.self_time, "series.mul"),
            "series.inverse.self_ms": ms(self.self_time, "series.inverse"),
            "series.pow.ms": ms(self.inclusive, "series.pow"),
            "macmahon.macmahon_series.calls": per_op(calls["macmahon.macmahon_series"]),
            "macmahon.macmahon_series.ms": (
                sum(self.macmahon) * 1e3 / len(self.macmahon) if self.macmahon else 0.0
            ),
            "dt.dt_series.calls": per_op(calls["dt.dt_series"]),
            "dt.dt_series.self_ms": ms(self.self_time, "dt.dt_series"),
            "dt.macmahon_neg_per_dt_series": ratio(calls["macmahon.macmahon_neg"], calls["dt.dt_series"]),
            "chern.resolve.ms": ms(self.inclusive, "chern.resolve"),
            "cobordism.decompose.ms": ms(self.inclusive, "cobordism.decompose"),
            "cli.parse_spec_document.ms": ms(self.inclusive, "cli.parse_spec_document"),
            "cli.main.self_ms": ms(self.self_time, "cli.main"),
            "lattice.partitions.calls": per_op(calls["lattice.partitions"]),
            "lattice.partitions.hit_ratio": ratio(counts["lattice.partitions.hits"], calls["lattice.partitions"]),
            "lattice.le.calls": per_op(counts["lattice.le"]),
            "lattice.lt.true_ratio": ratio(counts["lattice.lt.in_delta.true"], counts["lattice.lt.in_delta"]),
            "lattice.delta_transform.self_ms": ms(self.self_time, "lattice.delta_transform"),
            "lattice.classify_q_set.self_ms": ms(self.self_time, "lattice.classify_q_set"),
            "lattice.strict_diagonal_distance_sq.calls": per_op(calls["lattice.strict_diagonal_distance_sq"]),
            "lattice.strict_diagonal_distance_sq.self_ms": ms(self.self_time, "lattice.strict_diagonal_distance_sq"),
        }
