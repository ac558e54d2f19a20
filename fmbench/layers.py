"""The per-layer metrics, how each is computed, and what each should move.

A layer is a module of ``src/repro``.  Times are seconds per operation
(``s/op``) and counts are per operation (``1/op``), where an operation is
the workload's unit of user-visible work (a figure call, a sweep pair, a
serve fit, a federation round), so a run that fits more operations into
its time reads the same as one that fits fewer.

:data:`MOVES` records, before any optimisation is measured, which
end-to-end metric on which workload each layer metric should move; a
layer with no entry for a workload is predicted not to move it.
"""

from __future__ import annotations

import statistics

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: list[tuple[str, str, str]] = [
    ("data.load_s", "s", "lower"),
    ("runtime.plan_s", "s/op", "lower"),
    ("runtime.gather_s", "s/op", "lower"),
    ("runtime.aggregate_s", "s/op", "lower"),
    ("runtime.aggregate_rows", "1/op", "lower"),
    ("runtime.kernels_s", "s/op", "lower"),
    ("runtime.kernel_calls", "1/op", "lower"),
    ("runtime.kernel_cells", "1/op", "higher"),
    ("runtime.executor_creates", "1/op", "lower"),
    ("runtime.executor_create_s", "s/op", "lower"),
    ("runtime.executor_map_s", "s/op", "lower"),
    ("runtime.cache_hit_ratio", "ratio", "higher"),
    ("baselines.dpme_fit_s", "s/op", "lower"),
    ("baselines.fp_fit_s", "s/op", "lower"),
    ("baselines.fits", "1/op", "lower"),
    ("baselines.bin_s", "s/op", "lower"),
    ("baselines.bin_rows", "1/op", "lower"),
    ("baselines.bin_calls", "1/op", "lower"),
    ("baselines.bin_useful_ratio", "ratio", "higher"),
    ("baselines.synth_s", "s/op", "lower"),
    ("baselines.synth_rows", "1/op", "lower"),
    ("baselines.synth_fit_s", "s/op", "lower"),
    ("regression.score_s", "s/op", "lower"),
    ("regression.score_calls", "1/op", "lower"),
    ("privacy.spend_s", "s/op", "lower"),
    ("privacy.spends", "1/op", "lower"),
    ("engine.update_s", "s/op", "lower"),
    ("engine.update_rows", "1/op", "lower"),
    ("engine.merge_s", "s/op", "lower"),
    ("engine.merges", "1/op", "lower"),
    ("engine.snapshot_s", "s/op", "lower"),
    ("engine.codec_s", "s/op", "lower"),
    ("engine.codec_bytes", "B/op", "lower"),
    ("engine.sweep_fit_s", "s/op", "lower"),
    ("serve.ingest_handler_s", "s/op", "lower"),
    ("serve.fit_handler_s", "s/op", "lower"),
    ("serve.overhead_ms", "ms", "lower"),
    ("serve.lock_wait_s", "s/op", "lower"),
    ("serve.snapshot_s", "s/op", "lower"),
    ("serve.snapshots", "1/op", "lower"),
    ("serve.rejected", "1/op", "lower"),
    ("federated.party_s", "s/op", "lower"),
    ("federated.encode_s", "s/op", "lower"),
    ("federated.decode_s", "s/op", "lower"),
    ("federated.merge_s", "s/op", "lower"),
    ("federated.fit_s", "s/op", "lower"),
    ("federated.wire_bytes", "B/op", "lower"),
    ("session.self_s", "s/op", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.ops", "count", "higher"),
]

F6, FM, SV, FD = "figure6-panel", "fm-sweep", "serve-mixed", "federated-rounds"

#: layer metric -> the (end-to-end metric, workload) pairs it should move.
MOVES: dict[str, list[tuple[str, str]]] = {
    "data.load_s": [("setup_s", w) for w in (F6, FM, SV, FD)],
    "runtime.plan_s": [("cells_per_s", F6), ("cells_per_s", FM)],
    "runtime.gather_s": [("cells_per_s", FM), ("cells_per_s", F6)],
    "runtime.aggregate_s": [("cells_per_s", FM)],
    "runtime.aggregate_rows": [("cells_per_s", FM)],
    "runtime.kernels_s": [("cells_per_s", FM)],
    "runtime.kernel_calls": [("cells_per_s", FM)],
    "runtime.kernel_cells": [("cells_per_s", FM)],
    "runtime.executor_creates": [("op_p50_ms", SV)],
    "runtime.executor_create_s": [("op_p50_ms", SV)],
    "runtime.executor_map_s": [("op_p50_ms", SV)],
    "runtime.cache_hit_ratio": [("cells_per_s", F6), ("cells_per_s", FM)],
    **{
        name: [("cells_per_s", F6)]
        for name, _, _ in PER_LAYER
        if name.startswith("baselines.")
    },
    "regression.score_s": [("cells_per_s", F6)],
    "regression.score_calls": [("cells_per_s", F6)],
    "privacy.spend_s": [("op_p50_ms", SV), ("op_p90_ms", SV)],
    "privacy.spends": [("op_p50_ms", SV)],
    "engine.update_s": [("rows_per_s", SV), ("op_p50_ms", FD)],
    "engine.update_rows": [("rows_per_s", SV), ("op_p50_ms", FD)],
    "engine.merge_s": [("op_p50_ms", FD)],
    "engine.merges": [("op_p50_ms", FD)],
    "engine.snapshot_s": [("op_p90_ms", SV)],
    "engine.codec_s": [("op_p50_ms", FD)],
    "engine.codec_bytes": [("op_p50_ms", FD)],
    "engine.sweep_fit_s": [("op_p50_ms", FD)],
    "serve.ingest_handler_s": [("rows_per_s", SV)],
    "serve.fit_handler_s": [("op_p50_ms", SV)],
    "serve.overhead_ms": [("rows_per_s", SV), ("op_p50_ms", SV)],
    "serve.lock_wait_s": [("op_p90_ms", SV)],
    "serve.snapshot_s": [("op_p90_ms", SV)],
    "serve.snapshots": [("op_p90_ms", SV)],
    "serve.rejected": [("ok_ratio", SV)],
    **{
        name: [("op_p50_ms", FD), ("op_p90_ms", FD)]
        for name, _, _ in PER_LAYER
        if name.startswith("federated.")
    },
}

_PER_OP_COUNTS = {
    "runtime.aggregate_rows": ["runtime.aggregate_rows"],
    "runtime.kernel_calls": ["runtime.kernels.calls"],
    "runtime.kernel_cells": ["runtime.kernel_cells"],
    "runtime.executor_creates": ["runtime.executor_create.calls"],
    "baselines.fits": ["baselines.dpme_fit.calls", "baselines.fp_fit.calls"],
    "baselines.bin_rows": ["baselines.bin_rows"],
    "baselines.bin_calls": ["baselines.bin.calls"],
    "baselines.synth_rows": ["baselines.synth_rows"],
    "regression.score_calls": ["regression.score.calls"],
    "privacy.spends": ["privacy.spend.calls"],
    "engine.update_rows": ["engine.update_rows"],
    "engine.merges": ["engine.merge.calls"],
    "engine.codec_bytes": ["engine.codec_bytes"],
    "serve.snapshots": ["serve.snapshots"],
    "serve.rejected": ["serve.rejected"],
    "federated.wire_bytes": ["federated.wire_bytes"],
}

_HANDLERS = ("serve.ingest_handler", "serve.fit_handler")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, traced, untraced, load_seconds: list[float]) -> dict:
    """Every per-layer metric of one traced phase, as ``{name: value}``.

    ``untraced`` is the same workload measured just before the wrappers
    were installed; the ratio of their mean request times is the tracing
    overhead.
    """
    seconds, counts = tracer.totals()
    ops = max(1, traced.ops)
    # A per-op time ``<layer>.<stage>_s`` reads the wrapper metric ``<layer>.<stage>``.
    out = {name: seconds.get(name[:-2], 0.0) / ops
           for name, unit, _ in PER_LAYER if unit == "s/op"}
    for name, keys in _PER_OP_COUNTS.items():
        out[name] = sum(counts.get(key, 0) for key in keys) / ops
    if load_seconds:
        out["data.load_s"] = statistics.median(load_seconds)
    else:
        out["data.load_s"] = _ratio(seconds.get("data.load", 0.0),
                                    counts.get("data.load.calls", 0))
    out["runtime.cache_hit_ratio"] = _ratio(counts.get("runtime.cache_hits", 0),
                                            counts.get("runtime.cache_lookups", 0))
    out["baselines.bin_useful_ratio"] = _ratio(counts.get("baselines.bin_distinct", 0),
                                               counts.get("baselines.bin.calls", 0))
    handled = sum(seconds.get(key, 0.0) for key in _HANDLERS)
    if handled:
        # Requests run on client threads, handlers on server threads: the
        # layer spans of an operation are its two handler calls.
        attributed, total = handled, traced.request_seconds
        out["serve.overhead_ms"] = 1000.0 * _ratio(total - handled, traced.requests)
    else:
        attributed, total = traced.child_seconds, sum(traced.latencies)
        out["serve.overhead_ms"] = 0.0
    out["session.self_s"] = (total - attributed) / ops
    out["trace.coverage"] = _ratio(attributed, total)
    out["trace.overhead"] = _ratio(traced.mean_request, untraced.mean_request) - 1.0
    out["trace.ops"] = traced.ops
    return {name: out[name] for name, _, _ in PER_LAYER}
