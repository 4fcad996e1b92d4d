"""Span and counter tracing around smyth's public functions.

``install`` rebinds every traced function in each loaded ``smyth``
module that binds it: the package imports with ``from .x import f``,
so every importing module holds its own reference, and all of them
must point at the wrapper.  Methods are wrapped on their class.

A spanned call records name, start, end, parent span and operation id.
Aggregates (calls, busy time, self time) are kept for every span; the
raw spans are kept in memory up to ``SPAN_CAP`` and written out at the
end of the run.  Busy time counts only the outermost activation of a
name, so a function that reaches itself again is not counted twice.
Self time is a span's duration minus the time its child spans cover.
Hot primitives get count-only wrappers, which add no span.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

SPAN_CAP = 100_000

CALLS_BUSY_SELF = ("calls", "busy_s", "self_s")

# (module, attribute, result measure, reported fields): one span per
# call.  A measure maps the returned value to a count summed into
# ``<name>.results``.
SPANNED = (
    ("poset", "enumerate_down_sets", len, CALLS_BUSY_SELF + ("results",)),
    ("poset", "FinitePoset.__init__", None, CALLS_BUSY_SELF),
    ("powerdomain", "build", None, CALLS_BUSY_SELF),
    ("powerdomain", "hat_powerdomain", None, ("busy_s",)),
    ("powerdomain", "inverse_powerdomain", None, ("busy_s",)),
    ("powerdomain", "check_embedding_theorem", None, ("busy_s",)),
    ("maps", "powerdomain_map", None, CALLS_BUSY_SELF),
    ("maps", "check_functor_laws", None, CALLS_BUSY_SELF),
    ("maps", "lift_homeomorphism", None, ("busy_s",)),
    ("maps", "anchored_extensions", len, CALLS_BUSY_SELF + ("results",)),
    ("maps", "enumerate_extensions", None, ("busy_s",)),
    ("maps", "check_minimality", None, ("busy_s",)),
    ("maps", "MonotoneMap.__init__", None, CALLS_BUSY_SELF),
    ("completion", "lambda_sharp", None, ("busy_s",)),
    ("completion", "sigma_map", None, ("busy_s",)),
    ("completion", "is_sup_preserving", None, CALLS_BUSY_SELF),
    ("completion", "check_sigma_theorem", None, ("busy_s",)),
    ("topology", "open_sets", None, ("busy_s",)),
    ("topology", "poset_of_topology", None, ("busy_s",)),
    ("generators", "all_posets", None, ("busy_s",)),
    ("generators", "all_monotone_images", len, CALLS_BUSY_SELF + ("results",)),
    ("docio", "load_document", None, ("busy_s",)),
    ("docio", "document_of_poset", None, CALLS_BUSY_SELF),
    ("cli", "main", None, ("busy_s",)),
)

# (module, attribute): call counts only, for hot primitives.
COUNTED = (
    ("poset", "sup"),
    ("poset", "down_closure"),
    ("poset", "resolve_capacity"),
    ("poset", "FinitePoset.cover_pairs"),
    ("generators", "random_monotone_map"),
)

VERDICTS = ("pass", "skipped", "fail")


def metric_key(module: str, attribute: str) -> str:
    """``poset.FinitePoset.__init__`` -> ``poset.FinitePoset`` and
    ``poset.FinitePoset.cover_pairs`` -> ``poset.cover_pairs``."""
    owner, _, method = attribute.partition(".")
    if not method:
        return f"{module}.{attribute}"
    return f"{module}.{owner}" if method == "__init__" else f"{module}.{method}"


class Tracer:
    """Span aggregates, counters and a bounded in-memory span log."""

    def __init__(self, span_cap: int = SPAN_CAP) -> None:
        self.names: list[str] = []
        self.index: dict[str, int] = {}
        self.calls: list[int] = []
        self.busy_ns: list[int] = []
        self.self_ns: list[int] = []
        self.results: list[int] = []
        self.active: list[int] = []
        self.counts: dict[str, int] = {}
        self.verdicts = dict.fromkeys(VERDICTS, 0)
        self.build_points = 0
        self.report_calls = 0
        self.instance_bytes = 0
        self.cache_sources: dict = {}
        self.stack: list[list[int]] = []
        self.spans = array("q")
        self.span_cap = span_cap
        self.span_total = 0
        self.op = -1

    def _slot(self, name: str) -> int:
        if name not in self.index:
            self.index[name] = len(self.names)
            self.names.append(name)
            for column in (self.calls, self.busy_ns, self.self_ns,
                           self.results, self.active):
                column.append(0)
        return self.index[name]

    def spanned(self, name: str, fn, measure=None):
        slot = self._slot(name)
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self.span_total
            self.span_total += 1
            parent = stack[-1][1] if stack else -1
            frame = [0, span_id]
            stack.append(frame)
            self.active[slot] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.active[slot] -= 1
                took = end - start
                self.calls[slot] += 1
                if not self.active[slot]:
                    self.busy_ns[slot] += took
                self.self_ns[slot] += took - frame[0]
                if stack:
                    stack[-1][0] += took
                if span_id < self.span_cap:
                    self.spans.extend((span_id, parent, slot, start, end, self.op))
            if measure is not None:
                self.results[slot] += measure(result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def count_verdict(self, report) -> int:
        self.verdicts[report.verdict] += 1
        return 0

    def snapshot(self) -> dict:
        """Raw aggregates and lru cache statistics; ``merge`` sums them
        across processes."""
        return {
            "spans": {
                name: {
                    "calls": self.calls[i],
                    "busy_ns": self.busy_ns[i],
                    "self_ns": self.self_ns[i],
                    "results": self.results[i],
                }
                for i, name in enumerate(self.names)
            },
            "counts": dict(self.counts),
            "verdicts": dict(self.verdicts),
            "build_points": self.build_points,
            "report_calls": self.report_calls,
            "instance_bytes": self.instance_bytes,
            "caches": {name: [cached.cache_info().hits, cached.cache_info().misses]
                       for name, cached in self.cache_sources.items()},
            "span_total": self.span_total,
        }

    def span_records(self):
        fields = self.spans
        for k in range(0, len(fields), 6):
            span_id, parent, slot, start, end, op = fields[k:k + 6]
            yield {"id": span_id, "parent": parent, "name": self.names[slot],
                   "start_ns": start, "end_ns": end, "op": op}

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            for record in self.span_records():
                out.write(json.dumps(record) + "\n")


def _rebind(modules, original, wrapper) -> None:
    for module in modules:
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the traced functions in every loaded smyth module."""
    import smyth.cli  # noqa: F401  (loads every submodule the CLI binds)
    from smyth import generators, maps, powerdomain, report, suite

    tracer.cache_sources = {
        "powerdomain.build": powerdomain._build,
        "maps.powerdomain_map": maps._powerdomain_map,
        "generators.all_posets": generators.all_posets,
    }
    modules = [m for name, m in sys.modules.items()
               if name == "smyth" or name.startswith("smyth.")]
    by_name = {name.rpartition(".")[2]: m for name, m in sys.modules.items()
               if name.startswith("smyth.")}

    def wrap(module_name, attribute, make):
        owner, _, method = attribute.partition(".")
        module = by_name[module_name]
        if method:
            cls = getattr(module, owner)
            setattr(cls, method, make(cls.__dict__[method]))
        else:
            original = getattr(module, attribute)
            _rebind(modules, original, make(original))

    for module_name, attribute, measure, _ in SPANNED:
        name = metric_key(module_name, attribute)
        wrap(module_name, attribute,
             lambda fn, name=name, measure=measure: tracer.spanned(name, fn, measure))
    for module_name, attribute in COUNTED:
        name = metric_key(module_name, attribute)
        wrap(module_name, attribute, lambda fn, name=name: tracer.counted(name, fn))

    for prop, fn in list(suite.PROPERTIES.items()):
        wrapper = tracer.spanned(f"suite.{prop}", fn, tracer.count_verdict)
        suite.PROPERTIES[prop] = wrapper
        _rebind(modules, fn, wrapper)

    report_init = report.CheckReport.__init__

    def counted_report(self, *args, **kwargs):
        report_init(self, *args, **kwargs)
        tracer.report_calls += 1
        tracer.instance_bytes += len(self.instance)

    report.CheckReport.__init__ = counted_report

    # Every powerdomain entry point goes through the cached ``_build``; a
    # cache miss is a real build, whose points are counted here.
    cached_build = tracer.cache_sources["powerdomain.build"]

    def counted_build(*args, **kwargs):
        misses = cached_build.cache_info().misses
        space = cached_build(*args, **kwargs)
        if cached_build.cache_info().misses != misses:
            tracer.build_points += len(space.points)
        return space

    powerdomain._build = counted_build


def merge(snapshots: list[dict]) -> dict:
    """Sum the aggregates of several traced processes."""
    total: dict = {"spans": {}, "counts": {}, "verdicts": dict.fromkeys(VERDICTS, 0),
                   "build_points": 0, "report_calls": 0, "instance_bytes": 0,
                   "caches": {}, "span_total": 0}
    for snap in snapshots:
        for name, row in snap["spans"].items():
            into = total["spans"].setdefault(name, dict.fromkeys(row, 0))
            for field, value in row.items():
                into[field] += value
        for group in ("counts", "verdicts"):
            for name, value in snap[group].items():
                total[group][name] = total[group].get(name, 0) + value
        for name, (hits, misses) in snap["caches"].items():
            old_hits, old_misses = total["caches"].get(name, (0, 0))
            total["caches"][name] = (old_hits + hits, old_misses + misses)
        for field in ("build_points", "report_calls", "instance_bytes", "span_total"):
            total[field] += snap[field]
    return total


# The suite's property names, fixed here so that the metric names do
# not change when the package gains a property.
PROPERTY_NAMES = (
    "topology-round-trip", "embedding-theorem", "powerdomain-dimension",
    "phi-onto-iff-chain", "zariski-equals-vietoris", "functor-laws",
    "extension-minimality", "lift-round-trip", "sup-extension",
    "sup-extension-of-embedding", "fixture-expectations",
    "fixture-vee-to-chain", "fixture-discrete-collapse",
)

LAYER_SPANS = tuple(
    (metric_key(module, attribute), fields)
    for module, attribute, _, fields in SPANNED
) + tuple((f"suite.{prop}", ("busy_s",)) for prop in PROPERTY_NAMES)
LAYER_COUNTS = tuple(metric_key(module, attribute) for module, attribute in COUNTED)

CACHES = ("powerdomain.build", "maps.powerdomain_map", "generators.all_posets")

# Names measured by the benchmark around the traced run itself.
BENCH_METRICS = (
    ("cli.startup_ms", "ms", "lower"),
    ("bench.traced_s", "s", "lower"),
    ("bench.untraced_s", "s", "lower"),
    ("bench.trace_overhead_s", "s", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.spans", "count", "lower"),
    ("bench.speed_factor", "ratio", "higher"),
)

_UNITS = {"calls": ("count", "lower"), "busy_s": ("s", "lower"),
          "self_s": ("s", "lower"), "results": ("count", "lower")}


def layer_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for name, fields in LAYER_SPANS:
        specs += [(f"{name}.{field}", *_UNITS[field]) for field in fields]
    specs += [(f"{name}.calls", "count", "lower") for name in LAYER_COUNTS]
    specs.append(("powerdomain.build.points", "count", "lower"))
    for name in CACHES:
        specs += [(f"{name}.cache_hit_ratio", "ratio", "higher"),
                  (f"{name}.cache_lookups", "count", "lower")]
    specs += [(f"suite.reports.{verdict}", "count",
               "higher" if verdict == "pass" else "lower") for verdict in VERDICTS]
    specs += [("report.calls", "count", "lower"),
              ("report.instance_bytes", "bytes", "lower")]
    specs += list(BENCH_METRICS)
    return specs


def layer_values(snap: dict, bench: dict) -> dict[str, float]:
    """Every per-layer metric from merged aggregates plus ``bench`` figures."""
    values: dict[str, float] = {}
    for name, fields in LAYER_SPANS:
        row = snap["spans"].get(name, {})
        for field in fields:
            if field.endswith("_s"):
                values[f"{name}.{field}"] = row.get(field[:-2] + "_ns", 0) / 1e9
            else:
                values[f"{name}.{field}"] = row.get(field, 0)
    for name in LAYER_COUNTS:
        values[f"{name}.calls"] = snap["counts"].get(name, 0)
    values["powerdomain.build.points"] = snap["build_points"]
    for name in CACHES:
        hits, misses = snap["caches"].get(name, (0, 0))
        lookups = hits + misses
        values[f"{name}.cache_hit_ratio"] = hits / lookups if lookups else 0.0
        values[f"{name}.cache_lookups"] = lookups
    for verdict in VERDICTS:
        values[f"suite.reports.{verdict}"] = snap["verdicts"][verdict]
    values["report.calls"] = snap["report_calls"]
    values["report.instance_bytes"] = snap["instance_bytes"]
    values.update(bench)
    return values
