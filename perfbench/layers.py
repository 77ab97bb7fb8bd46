"""Per-layer metrics from the spans that tracer.py writes for each query.

A layer is the first part of a span group ("polynomial.product" belongs to
`polynomial`); `startup` also takes the interpreter start, measured from the
spawn to the tracer's first instruction (both clocks are CLOCK_MONOTONIC).
A span's self time is its duration minus the part of it that its child
spans cover.  Group times (`*_ms` other than `self_ms`) add up the spans of
a group that have no ancestor in the same group, so nested or recursive
calls are not counted twice; kernel slabs that run on worker threads are
summed, so `kernels.slab_ms` is busy time and may exceed the wall time.
"""

from __future__ import annotations

import statistics

LAYERS = ("startup", "cli", "cache", "counts", "combinatorics", "polynomial", "schur",
          "kernels", "asymptotics", "trace")

# metric -> span group whose outermost spans it adds up
GROUP_MS = {
    "startup.import_ms": "startup.import",
    "cli.parse_ms": "cli.parse",
    "cache.lookup_ms": "cache.lookup",
    "cache.store_ms": "cache.store",
    "combinatorics.compositions_ms": "combinatorics.compositions",
    "polynomial.product_ms": "polynomial.product",
    "polynomial.sqrt_ms": "polynomial.sqrt",
    "polynomial.pow_ms": "polynomial.pow",
    "schur.validate_ms": "schur.validate",
    "schur.extract_ms": "schur.extract",
    "schur.quadrature_ms": "schur.quadrature",
    "kernels.slab_ms": "kernels.slab",
    "kernels.grid_eval_ms": "kernels.grid_eval",
    "asymptotics.scan_ms": "asymptotics.scan",
    "asymptotics.table_ms": "asymptotics.table",
}
# metric -> span group whose spans it counts
GROUP_CALLS = {
    "cache.lookups": "cache.lookup",
    "cache.stores": "cache.store",
    "counts.calls": "counts.call",
    "kernels.slab_calls": "kernels.slab",
}
# counters the tracer adds up inside a query
COUNTERS = ("cache.hits", "combinatorics.factors", "polynomial.product_terms",
            "schur.quadrature_nodes", "kernels.slab_bytes_computed", "kernels.grid_points")
MAXIMA = ("polynomial.coeff_bits_max",)

# the layers each workload is predicted to spend most of its traced time in
DOMINANT = {
    "exact": ("polynomial",),
    "interactive": ("startup", "cli"),
    "oracle": ("schur", "kernels"),
}

METRIC_UNITS = {
    **{name: "ms" for name in GROUP_MS},
    **{name: "count" for name in GROUP_CALLS},
    **{name: "count" for name in COUNTERS},
    "polynomial.coeff_bits_max": "bits",
    "kernels.slab_bytes_computed": "B",
    "startup.interpreter_ms": "ms",
    "cli.self_ms": "ms",
    "counts.self_ms": "ms",
    "cache.hit_ratio": "ratio",
    "trace.unattributed_ms": "ms",
    "trace.overhead_s": "s",
    **{f"{layer}.share_pct": "%" for layer in LAYERS},
}


def _union_ns(intervals) -> int:
    total, end = 0, None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def query_metrics(trace: dict, spawn_ns: int, exit_ns: int) -> dict:
    """Per-layer totals of one traced query, in the units of METRIC_UNITS
    (shares are left as self times in ns under `self_ns.<layer>`)."""
    t_end = trace["t_end"]
    spans = [(group, start, end if end is not None else t_end, parent)
             for group, start, end, parent in trace["spans"]]
    children: dict = {}
    for index, (_, _, _, parent) in enumerate(spans):
        if parent is not None:
            children.setdefault(parent, []).append(index)

    def outermost(index: int) -> bool:
        group, parent = spans[index][0], spans[index][3]
        while parent is not None:
            if spans[parent][0] == group:
                return False
            parent = spans[parent][3]
        return True

    out = {name: 0.0 for name in METRIC_UNITS}
    self_ns = {layer: 0 for layer in LAYERS}
    group_ns: dict = {}
    group_calls: dict = {}
    for index, (group, start, end, _) in enumerate(spans):
        covered = _union_ns((max(start, spans[c][1]), min(end, spans[c][2]))
                            for c in children.get(index, ()) if spans[c][2] > start and spans[c][1] < end)
        own = end - start - covered
        layer = group.split(".")[0]
        self_ns[layer] = self_ns.get(layer, 0) + own
        if group == "cli.main":
            out["cli.self_ms"] += own / 1e6
        group_calls[group] = group_calls.get(group, 0) + 1
        if outermost(index):
            group_ns[group] = group_ns.get(group, 0) + end - start

    interpreter = trace["t_begin"] - spawn_ns
    roots = [(s[1], s[2]) for s in spans if s[3] is None]
    unattributed = (exit_ns - spawn_ns) - interpreter - _union_ns(roots)
    self_ns["startup"] += interpreter
    self_ns["trace"] += unattributed

    for name, group in GROUP_MS.items():
        out[name] = group_ns.get(group, 0) / 1e6
    for name, group in GROUP_CALLS.items():
        out[name] = group_calls.get(group, 0)
    counters = trace.get("counters", {})
    for name in COUNTERS + MAXIMA:
        out[name] = counters.get(name, 0)
    out["startup.interpreter_ms"] = interpreter / 1e6
    out["counts.self_ms"] = self_ns["counts"] / 1e6
    out["trace.unattributed_ms"] = unattributed / 1e6
    for layer, ns in self_ns.items():
        out[f"self_ns.{layer}"] = ns
    return out


def pass_metrics(per_query: list, wall_s: float) -> dict:
    """Totals over one traced pass (maxima for *_max), with layer shares of
    the pass's traced wall time."""
    total: dict = {}
    for metrics in per_query:
        for name, value in metrics.items():
            if name in MAXIMA:
                total[name] = max(total.get(name, 0), value)
            else:
                total[name] = total.get(name, 0) + value
    lookups = total.get("cache.lookups", 0)
    total["cache.hit_ratio"] = total.get("cache.hits", 0) / lookups if lookups else 0.0
    for layer in LAYERS:
        total[f"{layer}.share_pct"] = 100.0 * total.pop(f"self_ns.{layer}", 0) / 1e9 / wall_s
    return total


def median_metrics(passes: list) -> dict:
    """Median of each per-pass metric over the traced passes of a run."""
    return {name: statistics.median(p.get(name, 0) for p in passes) for name in METRIC_UNITS}


def dominant_share(workload: str, metrics: dict) -> dict:
    names = DOMINANT[workload]
    return {"layers": list(names),
            "share_pct": sum(metrics.get(f"{layer}.share_pct", 0.0) for layer in names)}
