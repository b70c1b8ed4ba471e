"""Spans around the public functions of each actkit layer.

The tracer replaces each listed function with a wrapper wherever a module of
the package binds it. ``cli``, ``ranking`` and ``transient`` import names
directly (``from .semantics import compose``), so rebinding only the defining
module would miss their calls. Spans stay in memory; ``dump`` writes them
out when the run ends.

A span is ``[function, start, end, parent span index, analysis id, pass]``.
Self time is a span's duration minus the time its child spans cover; calls
are sequential, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from collections import defaultdict

# (layer, function) pairs that get a span, in the order they are reported.
TARGETS = (
    ("dsl", "parse_act"),
    ("dsl", "load_act"),
    ("model", "validate_act"),
    ("model", "apply_scenario"),
    ("model", "with_attack_probability"),
    ("model", "remove_cm_gates"),
    ("semantics", "collect_rates"),
    ("semantics", "compose"),
    ("semantics", "export_ctmc_text"),
    ("statics", "sweep_pleaf"),
    ("transient", "transient_probability"),
    ("transient", "simulate"),
    ("ranking", "rank_countermeasures"),
    ("cli", "main"),
)
# Functions whose peak traced allocation is recorded in the memory pass.
PEAK_TARGETS = {"semantics.compose": "semantics.compose_peak_mb",
                "transient.transient_probability": "transient.transient_peak_mb"}
COUNTERS = ("semantics.states", "semantics.transitions", "transient.poisson_terms",
            "transient.sim_runs", "ranking.compose_calls")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


class Tracer:
    """Records spans and per-pass counters while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.analysis: str | None = None
        self.pass_index = -1
        self.measure_peaks = False
        self.counts: list[dict[str, float]] = []
        self.peaks: list[dict[str, float]] = []
        self._restore: list[tuple[object, str, object]] = []

    def start_pass(self) -> None:
        self.pass_index += 1
        self.counts.append(defaultdict(float))
        self.peaks.append(defaultdict(float))

    def _wrap(self, qualname: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            span = [qualname, time.perf_counter(), None, parent, self.analysis, self.pass_index]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            peak = self.measure_peaks and qualname in PEAK_TARGETS
            if peak:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if peak:
                    used = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    key = PEAK_TARGETS[qualname]
                    self.peaks[-1][key] = max(self.peaks[-1][key], used)
                self.stack.pop()
                span[2] = time.perf_counter()
            self._count(qualname, result)
            return result
        return wrapper

    def _count(self, qualname: str, result) -> None:
        counts = self.counts[-1]
        if qualname == "semantics.compose":
            counts["semantics.states"] += result.n
            counts["semantics.transitions"] += result.rates.nnz
            if any(self.spans[i][0] == "ranking.rank_countermeasures" for i in self.stack):
                counts["ranking.compose_calls"] += 1
        elif qualname == "transient.transient_probability":
            counts["transient.poisson_terms"] += result.meta.get("poisson_terms", 0)
        elif qualname == "transient.simulate":
            counts["transient.sim_runs"] += result.meta["runs"]

    def install(self) -> None:
        """Wrap every target wherever a loaded actkit module binds it."""
        import importlib

        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "actkit" or name.startswith("actkit."))]
        for layer, fname in TARGETS:
            original = getattr(importlib.import_module(f"actkit.{layer}"), fname)
            wrapper = self._wrap(f"{layer}.{fname}", original)
            for module in modules:
                if getattr(module, fname, None) is original:
                    self._restore.append((module, fname, original))
                    setattr(module, fname, wrapper)

    def uninstall(self) -> None:
        for module, fname, original in reversed(self._restore):
            setattr(module, fname, original)
        self._restore.clear()

    def per_pass_self(self) -> list[dict[str, float]]:
        """Self seconds by function name, one dict per pass."""
        out = [defaultdict(float) for _ in range(self.pass_index + 1)]
        for span, own in zip(self.spans, self_times(self.spans)):
            out[span[5]][span[0]] += own
        return out

    def dump(self, path, pass_seconds: list[float]) -> None:
        """Write the spans and the timed passes they belong to as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["function", "start", "end", "parent", "analysis", "pass"],
                       "pass_seconds": pass_seconds, "spans": self.spans}, fh)
