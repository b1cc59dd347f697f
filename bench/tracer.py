"""Span tracing from outside the program.

The tracer replaces public functions of nh3econ's modules with wrappers
that record a span per call: name, start, end and the enclosing span.
Spans are kept in memory per op; at the end of each op they are folded
into per-name statistics (calls, self time, call durations) and a few
counters that show wasted work. Nothing under src/ is changed: the
wrappers are set on the module attributes while an op runs traced and
the originals are put back afterwards.

A function that a later version of the package no longer has is skipped,
so its counters read zero.
"""

from __future__ import annotations

import inspect
import statistics
import time
from array import array

# (module, attribute path) of every wrapped function; the span name is
# "<module>.<attribute path>".
TARGETS = (
    ("cli", "run"),
    ("cli", "build_parser"),
    ("cli", "Table.render"),
    ("data_io", "load_manifest"),
    ("data_io", "load_bundled_params"),
    ("data_io", "load_regions"),
    ("lp", "solve"),
    ("gtfp", "gtfp_scores"),
    ("gtfp", "build_dea_lp"),
    ("gtfp", "intensities"),
    ("carriers", "builtin_chains"),
    ("carriers", "delivery_cost"),
    ("carriers", "storage_cost"),
    ("carriers", "levelized_cost"),
    ("cofiring", "evaluate"),
    ("scenarios", "balance_report"),
    ("scenarios", "demand_breakdown_mt"),
)

# Per-layer metrics this module computes, with units.
LAYER_METRICS = (
    ("cli.build_parser.ms", "ms"),
    ("cli.Table.render.ms", "ms"),
    ("data_io.load_manifest.calls", "count"),
    ("data_io.manifest_files_hashed", "count"),
    ("data_io.manifest_useful_ratio", "ratio"),
    ("data_io.load_bundled_params.calls", "count"),
    ("data_io.params_useful_ratio", "ratio"),
    ("data_io.load_manifest.ms", "ms"),
    ("data_io.load_bundled_params.ms", "ms"),
    ("data_io.load_regions.ms", "ms"),
    ("lp.solve.calls", "count"),
    ("lp.solve.us_p50", "us"),
    ("lp.solve.iterations", "count"),
    ("lp.solve.max_residual", "abs"),
    ("gtfp.gtfp_scores.ms", "ms"),
    ("gtfp.build_dea_lp.ms", "ms"),
    ("gtfp.intensities.ms", "ms"),
    ("carriers.levelized_cost.calls", "count"),
    ("carriers.levelized_cost.ms", "ms"),
    ("carriers.delivery_cost.calls", "count"),
    ("carriers.delivery_cost.us_p50", "us"),
    ("carriers.storage_cost.us_p50", "us"),
    ("carriers.builtin_chains.ms", "ms"),
    ("cofiring.evaluate.calls", "count"),
    ("cofiring.evaluate.us_p50", "us"),
    ("scenarios.balance_report.ms", "ms"),
    ("scenarios.demand_breakdown_mt.calls", "count"),
    ("scenarios.demand_useful_ratio", "ratio"),
)

# How many traced ops keep their raw spans for the spans file.
KEEP_RAW_OPS = 20


def _useful_ratio(useful: int, attempted: int) -> float:
    """Useful outcomes over attempts; 1 when nothing was attempted."""
    return useful / attempted if attempted else 1.0


class Tracer:
    """Wraps TARGETS on the given modules and aggregates their spans."""

    def __init__(self, modules: dict):
        self._stack: list[int] = []
        self._spans: list[list] = []   # [name, start, end, parent, note] of the current op
        self._targets = []
        for module_name, path in TARGETS:
            owner = modules[module_name]
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr, None)
            if original is not None:
                name = f"{module_name}.{path}"
                wrapper = self._wrap(name, original, _observer(name, original))
                self._targets.append((owner, attr, original, wrapper))
        self.ops = 0
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.durations: dict[str, array] = {}
        self.counters = {"manifest_verifications": 0, "manifest_files_hashed": 0,
                         "manifest_useful": 0, "params_useful": 0,
                         "demand_useful": 0, "lp_iterations": 0}
        self.max_residual = 0.0
        self.raw: list[list] = []

    def _wrap(self, name, original, observe):
        spans = self._spans
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                span[4] = observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def install(self) -> None:
        for owner, attr, _, wrapper in self._targets:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._targets:
            setattr(owner, attr, original)

    def end_op(self, op_label: str) -> None:
        """Fold the current op's spans into the statistics."""
        spans = self._spans
        child_ns = [0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        verified_dirs = set()
        params_keys = set()
        demand_keys = set()
        for span, children in zip(spans, child_ns):
            name, start, end, _, note = span
            duration = end - start
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_ns[name] = self.self_ns.get(name, 0) + duration - children
            self.durations.setdefault(name, array("q")).append(duration)
            if note is None:
                continue
            if name == "data_io.load_manifest" and note[0]:
                self.counters["manifest_verifications"] += 1
                self.counters["manifest_files_hashed"] += note[1]
                verified_dirs.add(note[2])
            elif name == "data_io.load_bundled_params":
                params_keys.add(note)
            elif name == "scenarios.demand_breakdown_mt":
                demand_keys.add(note)
            elif name == "lp.solve":
                self.counters["lp_iterations"] += note[0]
                if note[1] == note[1]:       # not NaN: an optimal solution
                    self.max_residual = max(self.max_residual, note[1])
        self.counters["manifest_useful"] += len(verified_dirs)
        self.counters["params_useful"] += len(params_keys)
        self.counters["demand_useful"] += len(demand_keys)
        if len(self.raw) < KEEP_RAW_OPS:
            self.raw.append([op_label, [s[:4] for s in spans]])
        self.ops += 1
        spans.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: counts and self times per traced op, call
        durations as medians."""
        n = max(self.ops, 1)
        c = self.counters

        def calls(name):
            return self.calls.get(name, 0) / n

        def ms(name):
            return self.self_ns.get(name, 0) / n / 1e6

        def us_p50(name):
            values = self.durations.get(name)
            return statistics.median(values) / 1e3 if values else 0.0

        return {
            "cli.build_parser.ms": ms("cli.build_parser"),
            "cli.Table.render.ms": ms("cli.Table.render"),
            "data_io.load_manifest.calls": calls("data_io.load_manifest"),
            "data_io.manifest_files_hashed": c["manifest_files_hashed"] / n,
            "data_io.manifest_useful_ratio": _useful_ratio(
                c["manifest_useful"], c["manifest_verifications"]),
            "data_io.load_bundled_params.calls": calls("data_io.load_bundled_params"),
            "data_io.params_useful_ratio": _useful_ratio(
                c["params_useful"], self.calls.get("data_io.load_bundled_params", 0)),
            "data_io.load_manifest.ms": ms("data_io.load_manifest"),
            "data_io.load_bundled_params.ms": ms("data_io.load_bundled_params"),
            "data_io.load_regions.ms": ms("data_io.load_regions"),
            "lp.solve.calls": calls("lp.solve"),
            "lp.solve.us_p50": us_p50("lp.solve"),
            "lp.solve.iterations": c["lp_iterations"] / n,
            "lp.solve.max_residual": self.max_residual,
            "gtfp.gtfp_scores.ms": ms("gtfp.gtfp_scores"),
            "gtfp.build_dea_lp.ms": ms("gtfp.build_dea_lp"),
            "gtfp.intensities.ms": ms("gtfp.intensities"),
            "carriers.levelized_cost.calls": calls("carriers.levelized_cost"),
            "carriers.levelized_cost.ms": ms("carriers.levelized_cost"),
            "carriers.delivery_cost.calls": calls("carriers.delivery_cost"),
            "carriers.delivery_cost.us_p50": us_p50("carriers.delivery_cost"),
            "carriers.storage_cost.us_p50": us_p50("carriers.storage_cost"),
            "carriers.builtin_chains.ms": ms("carriers.builtin_chains"),
            "cofiring.evaluate.calls": calls("cofiring.evaluate"),
            "cofiring.evaluate.us_p50": us_p50("cofiring.evaluate"),
            "scenarios.balance_report.ms": ms("scenarios.balance_report"),
            "scenarios.demand_breakdown_mt.calls": calls("scenarios.demand_breakdown_mt"),
            "scenarios.demand_useful_ratio": _useful_ratio(
                c["demand_useful"], self.calls.get("scenarios.demand_breakdown_mt", 0)),
        }

    def self_time_table(self) -> dict[str, dict]:
        """Calls and self time per span name, summed over traced ops."""
        return {name: {"calls": self.calls[name],
                       "self_ms": self.self_ns[name] / 1e6,
                       "total_ms": sum(self.durations[name]) / 1e6}
                for name in sorted(self.calls)}


def _observer(name, original):
    """A function of (args, kwargs, result) that notes what a call did, for
    the counters that measure wasted work; None for plain spans."""
    if name == "data_io.load_manifest":
        signature = inspect.signature(original)

        def note(args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return (bool(bound.arguments.get("verify", True)), len(result.files),
                    str(bound.arguments.get("directory")))
        return note
    if name == "data_io.load_bundled_params":
        signature = inspect.signature(original)

        def note(args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return tuple(sorted((k, str(v)) for k, v in bound.arguments.items()))
        return note
    if name == "scenarios.demand_breakdown_mt":
        return lambda args, kwargs, result: (args, tuple(sorted(kwargs.items())))
    if name == "lp.solve":
        return lambda args, kwargs, result: (result.iterations, float(result.residual))
    return None
