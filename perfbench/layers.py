"""Per-layer metrics of the traced pass.

Times and counts are given per workload operation (one sweep contract, one
hit, one cold request), so runs of different length compare directly.
Metrics named ``*.self_s`` and the ``session.*_s`` metrics are self time
(the layer's own code, without the wrapped layers it calls on the same
thread); the other ``*.s``/``*_s`` metrics are inclusive time spent inside
the layer's entry points.  Ratios are over the measurement window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.evaluation.streaming import streaming_pass_count
from repro.obs import get_metrics
from repro.serving.batcher import BatcherStats

SIZE_SEARCH_SCOPE = "size-search"
PASSES_METRIC = "repro_streaming_passes_total"


@dataclass
class Counters:
    """The program's public counters plus the tracer, read at one instant."""

    trace: Any
    streaming_passes: int
    size_search_passes: float
    batcher: BatcherStats = field(default_factory=BatcherStats)
    registry_hits: int = 0
    #: cache name -> (hits, misses)
    caches: dict[str, tuple[int, int]] = field(default_factory=dict)

    @classmethod
    def read(cls, workload: Any, tracer: Any) -> "Counters":
        passes = get_metrics().snapshot(run_collectors=False).get(PASSES_METRIC)
        size_passes = 0.0
        if passes is not None:
            scope = passes.label_names.index("scope")
            size_passes = sum(
                s.value for s in passes.series if s.labels[scope] == SIZE_SEARCH_SCOPE
            )
        counters = cls(tracer.snapshot(), streaming_pass_count(), size_passes)
        service = getattr(workload, "service", None)
        if service is not None:
            counters.batcher = service.batching_stats()
            stats = service.registry.stats()
            counters.registry_hits = stats.hits
            totals = stats.cache_totals()
        else:
            totals = {}
            for session in tracer.sessions:
                for name, value in session.cache_stats().items():
                    totals[name] = value if name not in totals else totals[name].merge(value)
        counters.caches = {name: (s.hits, s.misses) for name, s in totals.items()}
        return counters


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(
    workload_name: str, untraced: Any, traced: Any, before: Counters, after: Counters
) -> tuple[dict, dict]:
    window = after.trace.minus(before.trace)
    # Sessions are built in set-up for the fleets, per contract in the sweep.
    construct = after.trace.layer("session.construct")
    ops = traced.ops

    def per_op(value: float) -> float:
        return _ratio(value, ops)

    def incl(layer: str) -> float:
        return per_op(window.layer(layer).incl_s)

    def calls(layer: str) -> float:
        return per_op(window.layer(layer).calls)

    metrics: dict[str, tuple[float, str]] = {
        "service.calls": (calls("service"), "count"),
        "service.self_s": (per_op(window.layer("service").self_s), "s"),
        "registry.lookup_s": (incl("registry"), "s"),
        "registry.lookups": (calls("registry"), "count"),
        "session.construct_s": (_ratio(construct.incl_s, construct.calls), "s"),
        "session.answer_s": (per_op(window.layer("session.answer").self_s), "s"),
        "session.train_to_s": (per_op(window.layer("session.train_to").self_s), "s"),
        "size_search.s": (incl("size_search"), "s"),
        "size_search.calls": (calls("size_search"), "count"),
        "size_search.probes": (per_op(window.counter("size_search.probes")), "count"),
        "size_search.passes": (
            per_op(after.size_search_passes - before.size_search_passes),
            "count",
        ),
        "accuracy.s": (incl("accuracy"), "s"),
        "accuracy.calls": (calls("accuracy"), "count"),
        "statistics.s": (incl("statistics"), "s"),
        "sampler.s": (incl("sampler"), "s"),
        "streaming.passes": (per_op(after.streaming_passes - before.streaming_passes), "count"),
        "streaming.s": (incl("streaming"), "s"),
        "streaming.rows": (per_op(window.counter("streaming.rows")), "count"),
        "kernel.predict_many_s": (incl("kernel.predict_many"), "s"),
        "kernel.predict_many_calls": (calls("kernel.predict_many"), "count"),
        "kernel.diff_update_s": (incl("kernel.diff_update"), "s"),
        "kernel.ops": (per_op(window.counter("kernel.ops")), "MAC-computed"),
        "fit.s": (incl("fit"), "s"),
        "fit.calls": (calls("fit"), "count"),
        "fit.iterations": (per_op(window.counter("fit.iterations")), "count"),
        "sampling.s": (incl("sampling"), "s"),
        "store.read_blocks": (per_op(window.counter("store.read_blocks")), "count"),
        "store.read_s": (incl("store"), "s"),
        "store.bytes": (per_op(window.counter("store.bytes")), "bytes"),
    }

    # Registry: lookups served by a live session (get() hits plus
    # get_or_create() hits), over all lookups.
    registry_calls = window.layer("registry").calls
    get_hits = window.counter("registry.get_hits")
    metrics["registry.hit_rate"] = (
        _ratio(get_hits + after.registry_hits - before.registry_hits, registry_calls),
        "ratio",
    )

    for name in ("diff", "size", "model"):
        hits0, misses0 = before.caches.get(name, (0, 0))
        hits1, misses1 = after.caches.get(name, (0, 0))
        hits, lookups = hits1 - hits0, (hits1 + misses1) - (hits0 + misses0)
        metrics[f"cache.{name}.hit_rate"] = (_ratio(hits, lookups), "ratio")
        metrics[f"cache.{name}.lookups"] = (per_op(lookups), "count")

    # Batcher counters (BatcherStats), over the window.
    b0, b1 = before.batcher, after.batcher
    requests = b1.requests - b0.requests
    serial = b1.serial_passes - b0.serial_passes
    fused = b1.fused_passes - b0.fused_passes
    queue_wait = _ratio(b1.queue_wait_seconds - b0.queue_wait_seconds, requests)
    metrics["batcher.queue_wait_s"] = (queue_wait, "s")
    metrics["batcher.batch_size"] = (_ratio(requests, b1.batches - b0.batches), "count")
    metrics["batcher.coalesced_frac"] = (
        _ratio(b1.coalesced_requests - b0.coalesced_requests, requests),
        "ratio",
    )
    metrics["batcher.passes_saved"] = (per_op(serial - fused), "count")
    metrics["batcher.serial_passes"] = (per_op(serial), "count")
    metrics["batcher.load_shed"] = (per_op(b1.load_shed - b0.load_shed), "count")
    latency_total = sum(sum(values) for values in traced.latencies.values())
    metrics["batcher.queue_wait_share"] = (_ratio(queue_wait * ops, latency_total), "ratio")

    # Tracing: overhead, coverage of the measured operations by the root
    # calls, and the per-root self-time consistency.
    metrics["trace.overhead"] = (_ratio(untraced.ops_per_s, traced.ops_per_s), "ratio")
    # The sweep times BlinkML.session(...).train_to(contract) and train_full.
    if workload_name == "oneshot_sweep":
        root_s = window.layer("coordinator").incl_s + window.layer("session.train_to").incl_s
    else:
        root_s = window.layer("service").incl_s
    reference_total = sum(sum(values) for values in traced.references.values())
    metrics["trace.coverage"] = (_ratio(root_s, latency_total + reference_total), "ratio")
    worst = max((abs(wall - selfs) / wall for wall, selfs in window.roots if wall > 0), default=0.0)
    metrics["trace.self_sum_err"] = (worst, "ratio")
    metrics["guarantee_violations"] = (float(traced.violations), "count")

    layer_table = {
        name: {"calls": t.calls, "self_s": t.self_s, "incl_s": t.incl_s}
        for name, t in sorted(window.layers.items())
    }
    detail = {
        "ops": ops,
        "roots": len(window.roots),
        "trace_self_sum_err": worst,
        "layers": layer_table,
    }
    return metrics, detail
