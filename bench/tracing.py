"""Span tracing from outside the library, for the benchmark's traced runs.

`Tracer.install()` swaps chosen public functions and methods of piercelib for
wrappers that record a span per call: name, start, end and the index of the
enclosing span.  The swap is done on every piercelib module namespace that
holds the function, so calls one module makes into another are traced too,
while the library's source stays untouched.  `uninstall()` puts the originals
back.  Spans stay in memory until `write()`.

A span's self time is its duration minus the durations of its direct
children; nested spans never overlap because the benchmark is one thread.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name).  An attribute "Class.method" patches the
# class.  bounds_from_scale gets its span name from the scale profile kind.
TARGETS = (
    ("expansion", "expand", "expansion.expand"),
    ("expansion", "evaluate", "expansion.evaluate"),
    ("expansion", "affine_map", "expansion.affine_map"),
    ("intervals", "fundamental_interval", "intervals.fundamental"),
    ("intervals", "interval_length", "intervals.fundamental"),
    ("intervals", "basic_interval", "intervals.gap"),
    ("intervals", "family_basic_interval", "intervals.gap"),
    ("intervals", "gap_interval", "intervals.gap"),
    ("intervals", "gap_lower_bound", "intervals.gap"),
    ("profiles", "bounds_from_scale", None),
    ("profiles", "deviation_bounds", "profiles.deviation_bounds"),
    ("profiles", "oscillating_ratio_word", "profiles.oscillating_word"),
    ("profiles", "BoundsProfile.digit_range", "profiles.digit_range"),
    ("families", "count_constrained_words", "families.count"),
    ("families", "enumerate_constrained_words", "families.count"),
    ("families", "membership", "families.membership"),
    ("families", "emptiness_check", "families.emptiness"),
    ("dimension", "dimension_bound_sequences", "dimension.bound_seq"),
    ("dimension", "box_ratio_sequence", "dimension.box"),
    ("dimension", "gap_ratio_sequence", "dimension.gap"),
    ("dimension", "analytic_dimension", "dimension.analytic"),
    ("dimension", "find_cover_start", "dimension.cover_chain"),
    ("dimension", "window_cover_chains", "dimension.cover_chain"),
    ("laws", "clt_stat", "laws.stats"),
    ("laws", "lil_stat", "laws.stats"),
    ("laws", "lil_running_extremes", "laws.stats"),
    ("laws", "ks_distance", "laws.stats"),
    ("laws", "normal_cdf", "laws.stats"),
    ("_precision", "certified_floor", "precision.floor"),
    ("_precision", "certified_sign", "precision.sign"),
    ("cli", "main", "cli.main"),
)

# scale profile kind -> the builtin catalogue entry it stands for
SCALE_NAMES = {"exponential": "scale_geometric3", "exp_of": "scale_exp_sqrt"}

# Per-layer time metrics: metric name -> span names whose self time it sums.
SELF_TIME_METRICS = {
    "expansion.expand_s": ("expansion.expand",),
    "expansion.evaluate_s": ("expansion.evaluate",),
    "expansion.affine_map_s": ("expansion.affine_map",),
    "intervals.fundamental_s": ("intervals.fundamental",),
    "intervals.gap_s": ("intervals.gap",),
    "laws.stats_s": ("laws.stats",),
    "profiles.bounds_from_scale_s.scale_geometric3": (
        "profiles.bounds_from_scale.scale_geometric3",
    ),
    "profiles.bounds_from_scale_s.scale_exp_sqrt": ("profiles.bounds_from_scale.scale_exp_sqrt",),
    "profiles.deviation_bounds_s": ("profiles.deviation_bounds",),
    "profiles.digit_range_s": ("profiles.digit_range",),
    "profiles.oscillating_word_s": ("profiles.oscillating_word",),
    "families.count_s": ("families.count",),
    "families.membership_s": ("families.membership",),
    "families.emptiness_s": ("families.emptiness",),
    "dimension.bound_seq_s": ("dimension.bound_seq",),
    "dimension.box_s": ("dimension.box",),
    "dimension.gap_s": ("dimension.gap",),
    "dimension.analytic_s": ("dimension.analytic",),
    "dimension.cover_chain_s": ("dimension.cover_chain",),
    "precision.floor_s": ("precision.floor",),
    "precision.sign_s": ("precision.sign",),
    "cli.dim_s": ("cli.main",),
}

# Per-layer metrics that are the whole duration of a span the benchmark opens
# itself around one call: metric name -> span name.
SPAN_TIME_METRICS = {
    "laws.sample_s.shallow": "laws.sample.shallow",
    "laws.sample_s.deep": "laws.sample.deep",
    **{f"precision.sign_s.b{b}": f"precision.ladder.b{b}" for b in (1 << j for j in range(10, 17))},
}

CALL_COUNT_METRICS = {
    "intervals.calls": ("intervals.fundamental", "intervals.gap"),
    "precision.calls": ("precision.floor", "precision.sign"),
}


class Tracer:
    """In-memory span recorder plus named counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def wrap(self, fn, name: str | None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name or _scale_span_name(args, kwargs)
            index = tracer.begin(span_name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(index)

        return traced

    def install(self) -> None:
        """Swap every target for a traced wrapper, wherever piercelib holds it."""
        namespaces = [
            mod for key, mod in sorted(sys.modules.items())
            if key == "piercelib" or key.startswith("piercelib.")
        ]
        for module_name, attr, span_name in TARGETS:
            module = sys.modules[f"piercelib.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._swap(cls, meth, self.wrap(cls.__dict__[meth], span_name))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(original, span_name)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._swap(ns, key, wrapper)

    def _swap(self, owner, key: str, wrapper) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    # -- derived numbers ------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child_time):
            totals[name] += end - start - inner
        return totals

    def span_totals(self) -> tuple[dict[str, float], dict[str, int]]:
        time_by: dict[str, float] = defaultdict(float)
        calls_by: dict[str, int] = defaultdict(int)
        for name, start, end, _ in self.spans:
            time_by[name] += end - start
            calls_by[name] += 1
        return time_by, calls_by

    def write(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "fields": ["name", "start", "end", "parent"],
            "names": names,
            "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
            "counters": dict(self.counters),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def _scale_span_name(args, kwargs) -> str:
    u = args[0] if args else kwargs["u"]
    return "profiles.bounds_from_scale." + SCALE_NAMES.get(u.kind, u.kind)


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-pass means of the per-layer numbers recorded by `tracer`."""
    self_time = tracer.self_times()
    span_time, calls = tracer.span_totals()
    out = {
        metric: sum(self_time.get(n, 0.0) for n in names) / passes
        for metric, names in SELF_TIME_METRICS.items()
    }
    out.update(
        {metric: span_time.get(name, 0.0) / passes for metric, name in SPAN_TIME_METRICS.items()}
    )
    out.update(
        {metric: sum(calls.get(n, 0) for n in names) / passes
         for metric, names in CALL_COUNT_METRICS.items()}
    )
    c = tracer.counters
    out["expansion.digits"] = c["expansion.digits"] / passes
    out["cli.bytes_out"] = c["cli.bytes_out"] / passes
    for depth in ("shallow", "deep"):
        busy = span_time.get(f"laws.sample.{depth}", 0.0)
        out[f"laws.digits_per_s.{depth}"] = c[f"laws.digits.{depth}"] / busy if busy else 0.0
    digits = c["laws.digits.shallow"] + c["laws.digits.deep"]
    out["laws.bits_per_digit"] = c["laws.bits_used"] / digits if digits else 0.0
    attempts = digits + c["laws.retries"]
    out["laws.retry_ratio"] = c["laws.retries"] / attempts if attempts else 0.0
    out["trace.spans"] = len(tracer.spans) / passes
    return out
