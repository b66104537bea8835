"""Spans around the benchmark's calls into oddcox, and the per-layer
metrics derived from them.

Nothing here reaches inside ``src/``: a span covers one call made from the
benchmark's own files into a public oddcox function.  Spans are kept in
memory and written out as JSON lines when the run ends.  The word
engine's cache counters are read through ``cache_info()`` at span
boundaries, so nested reductions inside a call are counted too; when the
engine has no such cache the counters read zero.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter_ns

# span name -> layer metric prefix
LAYERS = {
    "core.system_from_json": "core.load",
    "core.star_form": "core.load",
    "core.canonical_star": "core.load",
    "words.reduce_word": "words.reduce",
    "oracle.cayley_ball": "oracle.cayley_ball",
    "oracle.ball_search": "oracle.ball_search",
    "autkit.inner_auto": "autkit.build",
    "autkit.graph_auto": "autkit.build",
    "autkit.theta_product": "autkit.build",
    "autkit.compose": "autkit.build",
    "autkit.make_endo": "autkit.build",
    "autkit.verify_endo": "autkit.verify",
    "autkit.factorize": "autkit.factorize",
    "autkit.try_invert": "autkit.try_invert",
    "autkit.normality_witness": "autkit.normality_witness",
    "units.out_descriptor": "units.out_descriptor",
    "units.split_inn_c": "units.split_inn_c",
    "pathgroups.rs_kernel": "pathgroups.rs_kernel",
    "pathgroups.symmetric_group_table": "pathgroups.group_table",
    "pathgroups.twisted_count": "pathgroups.twisted_count",
    "cli.execute": "cli.execute",
}

# per-layer metrics every traced run reports, with their units; a layer the
# workload does not exercise reads 0
PER_LAYER = {
    "core.load.calls": "count/setup",
    "core.load.busy_s": "s/setup",
    "words.reduce.calls": "count/op",
    "words.reduce.busy_s": "s/op",
    "words.reduce.p50_ms": "ms",
    "words.reduce.p99_ms": "ms",
    "words.cache.misses": "count/op",
    "words.cache.hits": "count/op",
    "words.cache.hit_ratio": "ratio",
    "words.cache.peak_entries": "count",
    "words.cache.path_r8_misses": "count",
    "oracle.cayley_ball.busy_s": "s/op",
    "oracle.ball_search.busy_s": "s/op",
    "oracle.ball.elements": "count",
    "oracle.ball.yield": "ratio",
    "oracle.ball.elements_per_s": "1/s",
    "autkit.build.busy_s": "s/op",
    "autkit.verify.busy_s": "s/op",
    "autkit.factorize.busy_s": "s/op",
    "autkit.try_invert.busy_s": "s/op",
    "autkit.normality_witness.busy_s": "s/op",
    "autkit.not_surjective": "count/op",
    "units.out_descriptor.busy_s": "s/op",
    "units.split_inn_c.busy_s": "s/op",
    "pathgroups.rs_kernel.busy_s": "s/op",
    "pathgroups.rs_kernel.relators_out": "count",
    "pathgroups.group_table.busy_s": "s/op",
    "pathgroups.twisted_count.busy_s": "s/op",
    "cli.execute.busy_s": "s/op",
    "cli.startup_s": "s",
    "bench.op.self_s": "s/op",
    "trace.overhead.ops_per_s": "1/s",
    "trace.overhead.op_p50_ms": "ms",
    "trace.overhead.op_tail_ms": "ms",
}


def word_cache(words_module):
    """The word engine's memo cache, if it still has one."""
    cache = getattr(words_module, "_reduce_cached", None)
    return cache if hasattr(cache, "cache_info") else None


class Tracer:
    """Records spans when enabled; otherwise ``call`` is a plain call."""

    def __init__(self, enabled: bool, cache=None):
        self.enabled = enabled
        self.cache = cache
        self.spans: list = []
        self.stack: list = []
        self.op_id = None
        self.facts: dict = {}
        self.sums: dict = {}
        self.last = None

    def _cache_state(self):
        if self.cache is None:
            return (0, 0, 0)
        info = self.cache.cache_info()
        return (info.misses, info.hits, info.currsize)

    def begin(self, name: str):
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self.stack[-1]["id"] if self.stack else None,
            "op": self.op_id,
            "cache0": self._cache_state(),
            "start": perf_counter_ns(),
        }
        self.spans.append(span)
        self.stack.append(span)

    def end(self):
        span = self.stack.pop()
        span["end"] = perf_counter_ns()
        misses, hits, size = self._cache_state()
        m0, h0, _ = span.pop("cache0")
        span["misses"], span["hits"], span["entries"] = misses - m0, hits - h0, size
        self.last = span

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    def fact(self, name: str, value):
        """Record a count once; later values for the same name are ignored."""
        if self.enabled:
            self.facts.setdefault(name, value)

    def add(self, name: str, value):
        if self.enabled:
            self.sums[name] = self.sums.get(name, 0) + value

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _seconds(span) -> float:
    return (span["end"] - span["start"]) / 1e9


def self_times(spans) -> dict:
    """Span id -> duration minus the part covered by its child spans."""
    out = {s["id"]: _seconds(s) for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= _seconds(s)
    return out


def per_layer(tracer: Tracer, op_prefix: str = "op.") -> dict:
    """Per-layer metrics from the spans of one traced set-up and phase.

    Operations are the spans whose name starts with ``op_prefix``.
    ``busy_s`` is a layer's self time per operation, so the layers' busy
    times and ``bench.op.self_s`` add up to the mean operation time.
    Set-up spans (no operation id) feed ``core.load``.
    """
    spans = [s for s in tracer.spans if "end" in s]
    selfs = self_times(spans)
    metrics = {name: 0.0 for name in PER_LAYER}
    op_spans = [s for s in spans if s["name"].startswith(op_prefix)]
    op_ids = {s["id"] for s in op_spans}
    ops = max(len(op_spans), 1)
    reduce_ms = []
    for s in spans:
        layer = LAYERS.get(s["name"])
        if layer is None:
            continue
        if s["op"] is None:
            if layer == "core.load":
                metrics["core.load.calls"] += 1
                metrics["core.load.busy_s"] += selfs[s["id"]]
        elif s["parent"] in op_ids:
            key = f"{layer}.busy_s"
            if key in metrics:
                metrics[key] += selfs[s["id"]] / ops
            if layer == "words.reduce":
                reduce_ms.append(_seconds(s) * 1e3)
    if reduce_ms:
        reduce_ms.sort()
        metrics["words.reduce.calls"] = len(reduce_ms) / ops
        metrics["words.reduce.p50_ms"] = statistics.median(reduce_ms)
        metrics["words.reduce.p99_ms"] = reduce_ms[int(0.99 * (len(reduce_ms) - 1))]
    if op_spans:
        misses = sum(s["misses"] for s in op_spans)
        hits = sum(s["hits"] for s in op_spans)
        metrics["words.cache.misses"] = misses / ops
        metrics["words.cache.hits"] = hits / ops
        metrics["words.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        metrics["words.cache.peak_entries"] = max(s["entries"] for s in op_spans)
        metrics["bench.op.self_s"] = sum(selfs[s["id"]] for s in op_spans) / ops
    sums = tracer.sums
    metrics["autkit.not_surjective"] = sums.get("autkit.not_surjective", 0) / ops
    if sums.get("oracle.ball.candidates"):
        metrics["oracle.ball.yield"] = sums["oracle.ball.new"] / sums["oracle.ball.candidates"]
    ball_busy = metrics["oracle.cayley_ball.busy_s"] * ops
    if ball_busy:
        metrics["oracle.ball.elements_per_s"] = sums["oracle.ball.enumerated"] / ball_busy
    metrics.update(tracer.facts)
    return metrics
