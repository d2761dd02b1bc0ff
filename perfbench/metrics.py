"""Turns the raw record of one perfbench_diva run into named metrics.

The runner binary prints samples, counts and spans; everything derived
from them (medians, the tail percentile, self time, the per-layer
split) is computed here so that the rules live in one tested place.
"""

import math
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def valid_name(name):
    """A metric or workload name: letters, digits, `_`, `.`, `-`."""
    return bool(NAME_RE.match(name))


def median(values):
    return statistics.median(values) if values else None


def tail_percentile(samples, want=0.90, beyond=10):
    """The highest percentile, at most `want`, that has at least `beyond`
    samples above it (nearest-rank). Returns (percentile, value, count);
    percentile and value are None when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = min(math.ceil(want * n), n - beyond)
    if rank < 1:
        return None, None, n
    return rank / n, ordered[rank - 1], n


def self_time(span, children):
    """The span's duration minus the part of its interval that its child
    spans cover. Children may nest, overlap each other (concurrent work)
    or stick out of the parent; each instant is subtracted once."""
    clipped = sorted((max(c["start"], span["start"]), min(c["end"], span["end"]))
                     for c in children)
    covered = 0.0
    cursor = span["start"]
    for start, end in clipped:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return (span["end"] - span["start"]) - covered


def _duration(span):
    return span["end"] - span["start"]


def _per_run_sums(spans, name):
    """Per run, the total duration of the spans called `name`."""
    sums = {}
    for span in spans:
        if span["name"] == name:
            sums[span["run"]] = sums.get(span["run"], 0.0) + _duration(span)
    return sums


def _pooled_ms(spans, name):
    return [1e3 * _duration(s) for s in spans if s["name"] == name]


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


# Span-timed layers: metric name -> span name. Each reads as the median
# over runs (reps, set-up rounds, deltas) of the per-run total.
LAYER_SPANS = {
    "relation.read_csv_s": "relation.read_csv",
    "relation.column_store_s": "relation.column_store",
    "relation.write_csv_s": "relation.write_csv",
    "constraint.parse_s": "constraint.parse",
    "core.graph_build_s": "core.graph_build",
    "core.shard_plan_s": "core.shard_plan",
    "core.coloring_s": "core.coloring",
    "anon.suppress_s": "anon.suppress",
    "anon.baseline_s": "anon.baseline",
    "core.integrate_s": "core.integrate",
    "verify.audit_s": "verify.audit",
    "core.run_diva_s": "core.run_diva",
    "core.delta_apply_s": "core.delta_apply",
    "core.delta_rerun_s": "core.delta_rerun",
}

# Counts the runner records once per run: metric name -> raw value name.
LAYER_COUNTS = {
    "constraint.target_rows": "constraint.target_rows",
    "core.graph_edges": "core.graph_edges",
    "core.shards": "core.shards",
    "core.shard_max_rows": "core.shard_max_rows",
    "core.coloring_steps": "counter.coloring.steps",
    "core.coloring_backtracks": "counter.coloring.backtracks",
    "core.clusterings_enumerated": "counter.clusterings.enumerated",
    "anon.baseline_rows": "anon.baseline_rows",
    "core.repair_cells": "core.repair_cells",
    "core.shards_reused": "core.shards_reused",
    "core.shards_recolored": "core.shards_recolored",
    "serve.shed": "serve.shed",
    "serve.degraded": "serve.degraded",
    "serve.watchdog_cancels": "serve.watchdog_cancels",
    "serve.response_failures": "serve.response_failures",
}

# Useful outcomes per attempt: metric -> (hits, misses) counters.
LAYER_RATIOS = {
    "core.memo_hit_ratio": ("coloring.memo_hits", "coloring.memo_misses"),
    "core.nogood_hit_ratio": ("coloring.nogood_hits", "coloring.nogood_misses"),
    "core.spec_adopt_ratio": ("coloring.spec_adopted", "coloring.spec_reruns"),
}

VERBS = ("ping", "anonymize", "fetch", "verify", "update")

END_TO_END_UNITS = {
    "setup_s": "s",
    "anonymize_s": "s",
    "delta_s": "s",
    "stars": "cells",
    "satisfied": "constraints",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def end_to_end(raw):
    """The untraced run's metrics: medians of the timed operations, the
    published output's quality, the success ratio and peak memory."""
    samples, values = raw["samples"], raw["values"]
    return {
        "setup_s": median(samples.get("setup_s", [])),
        "anonymize_s": median(samples.get("anonymize_s", [])),
        "delta_s": median(samples.get("delta_s", [])),
        "stars": values.get("stars"),
        "satisfied": values.get("satisfied"),
        "ok_ratio": 1.0 - _ratio(raw["failed"], raw["attempted"]),
        "peak_rss_mb": values.get("peak_rss_mb"),
    }


def per_layer(raw):
    """The traced run's metrics: per-layer times from spans, work counts
    and useful-outcome ratios from counters, and the serve layer's
    request latencies."""
    spans, values = raw["spans"], raw["values"]
    out = {}
    for metric, name in LAYER_SPANS.items():
        out[metric] = median(list(_per_run_sums(spans, name).values()))
    for metric, name in LAYER_COUNTS.items():
        out[metric] = values.get(name)
    counter = lambda name: values.get("counter." + name, 0.0)  # noqa: E731
    for metric, (hits, misses) in LAYER_RATIOS.items():
        out[metric] = _ratio(counter(hits), counter(hits) + counter(misses))
    out["core.backtrack_ratio"] = _ratio(counter("coloring.backtracks"),
                                         counter("coloring.steps"))
    out["core.probe_hit_ratio"] = _ratio(counter("coloring.spec_probe_hits"),
                                         counter("coloring.spec_probes"))

    # RunDiva's wall minus the replayed layer calls of the same rep, so the
    # layers add up; and the traced replay's wall against RunDiva's.
    by_id = dict(enumerate(spans))
    other, overhead = [], []
    for index, span in by_id.items():
        if span["name"] != "core.replay":
            continue
        diva = [s for s in spans if s["name"] == "core.run_diva"
                and s["parent"] == span["parent"] and s["run"] == span["run"]]
        children = [s for s in spans if s["parent"] == index]
        if len(diva) != 1:
            continue
        covered = _duration(span) - self_time(span, children)
        other.append(_duration(diva[0]) - covered)
        overhead.append(_ratio(_duration(span), _duration(diva[0])))
    out["core.diva_other_s"] = median(other)
    out["bench.trace_overhead_ratio"] = median(overhead)

    out["serve.start_ms"] = median(_pooled_ms(spans, "serve.start"))
    out["serve.connect_ms"] = median(_pooled_ms(spans, "serve.connect"))
    for verb in VERBS:
        out["serve.%s_p50_ms" % verb] = median(_pooled_ms(spans, "serve." + verb))
    loads = [i for i, s in by_id.items() if s["name"] == "serve.load"]
    requests = {"serve." + verb for verb in VERBS}
    latencies = [1e3 * _duration(s) for s in spans
                 if s["parent"] in loads and s["name"] in requests]
    pct, tail, count = tail_percentile(latencies)
    out["serve.latency_p50_ms"] = median(latencies)
    out["serve.latency_tail_ms"] = tail
    out["serve.latency_tail_pct"] = None if pct is None else 100.0 * pct
    out["serve.latency_samples"] = count
    load_seconds = sum(_duration(by_id[i]) for i in loads)
    out["serve.requests_per_s"] = _ratio(count, load_seconds)
    pipeline = median(_pooled_ms(spans, "core.run_diva"))
    out["serve.pipeline_ms"] = pipeline
    anonymize = out["serve.anonymize_p50_ms"]
    out["serve.overhead_ms"] = (None if anonymize is None or pipeline is None
                                else anonymize - pipeline)
    return out


PER_LAYER_UNITS = {
    **{metric: "s" for metric in LAYER_SPANS},
    **{metric: "count" for metric in LAYER_COUNTS},
    **{metric: "ratio" for metric in LAYER_RATIOS},
    "core.backtrack_ratio": "ratio",
    "core.probe_hit_ratio": "ratio",
    "core.diva_other_s": "s",
    "bench.trace_overhead_ratio": "ratio",
    "serve.start_ms": "ms",
    "serve.connect_ms": "ms",
    **{"serve.%s_p50_ms" % verb: "ms" for verb in VERBS},
    "serve.latency_p50_ms": "ms",
    "serve.latency_tail_ms": "ms",
    "serve.latency_tail_pct": "%",
    "serve.latency_samples": "count",
    "serve.requests_per_s": "1/s",
    "serve.pipeline_ms": "ms",
    "serve.overhead_ms": "ms",
}
