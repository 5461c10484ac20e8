"""Statistics, trace analysis and output for the InFine benchmark.

The JVM harness (perfbench/src) writes a raw record of one run: set-up
rounds, passes, and in a traced run the spans, Spark jobs and SQL actions.
This module turns that record into the metrics named in BENCHMARK.json.
"""

import json
import math
import statistics

# ------------------------------------------------------------------ statistics


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First quartile, median and third quartile, as Python's
    `statistics.quantiles(values, n=4)` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def supported_percentile(n):
    """The highest whole percentile with at least ten samples beyond it, or
    None when fewer than twenty samples leave no percentile above the
    median with that support."""
    if n < 20:
        return None
    return math.floor(100 * (1 - 10 / n))


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def summarize(values):
    """Median, sample count, and the highest percentile the count supports."""
    out = {"median": median(values), "n": len(values)}
    p = supported_percentile(len(values))
    if p is not None:
        out[f"p{p}"] = percentile(values, p)
    return out


# ------------------------------------------------------------------- intervals


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals; overlapping
    intervals count once."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def clip(interval, window):
    start, end = max(interval[0], window[0]), min(interval[1], window[1])
    return (start, end) if end > start else None


# ----------------------------------------------------------------------- spans

# Listener events carry wall-clock milliseconds, truncated: a job may appear
# to start up to this much before the span that issued it.
JOB_SLACK_MS = 1.0


def place_jobs(spans, jobs):
    """Parent span id for each job: the innermost span whose window contains
    the job's start, or -1."""
    placed = {}
    for job in jobs:
        best = None
        for s in spans:
            if s["start_ms"] - JOB_SLACK_MS <= job["start_ms"] <= s["end_ms"]:
                if best is None or s["start_ms"] >= best["start_ms"]:
                    best = s
        placed[job["id"]] = best["id"] if best else -1
    return placed


def self_times(spans, jobs=()):
    """Self time in ms of every span and of every job placed under one: its
    duration minus the part of it that its children cover. Jobs are leaves
    under the span that contains their start; jobs outside every span are
    left out. Keys are ("span", id) and ("job", id)."""
    children = {s["id"]: [] for s in spans}
    for s in spans:
        if s["parent"] in children:
            children[s["parent"]].append((s["start_ms"], s["end_ms"]))
    placed = place_jobs(spans, jobs)
    out = {}
    for job in jobs:
        parent = placed[job["id"]]
        if parent in children:
            children[parent].append((job["start_ms"], job["end_ms"]))
            out[("job", job["id"])] = job["end_ms"] - job["start_ms"]
    for s in spans:
        window = (s["start_ms"], s["end_ms"])
        covered = union_length([c for c in (clip(i, window) for i in children[s["id"]]) if c])
        out[("span", s["id"])] = (s["end_ms"] - s["start_ms"]) - covered
    return out


def self_time_by_name(spans, jobs=()):
    """Total self time in seconds per span name, with Spark jobs as "job"."""
    names = {s["id"]: s["name"].split(":")[0] for s in spans}
    totals = {}
    for (kind, ident), ms in self_times(spans, jobs).items():
        name = names[ident] if kind == "span" else "spark job"
        totals[name] = totals.get(name, 0.0) + ms / 1e3
    return totals


# ---------------------------------------------------------------------- metrics

STAGES = ("base", "selection", "upstaged", "inferred", "mine")
FD_TYPES = ("base", "upstaged selection", "upstaged left", "upstaged right",
            "inferred", "joinFD")


def fd_type_metric(label):
    return "core.infine.fds." + label.replace(" ", "_")


def end_to_end(record):
    """End-to-end metric values and sample summaries of one untraced run."""
    timed = [p for p in record["passes"] if p["kind"] == "timed"]
    samples = {
        "infine_s": [p["infine_s"] for p in timed],
        "straightforward_tane_s": [p["tane_s"] for p in timed],
        "straightforward_hyfd_s": [p["hyfd_s"] for p in timed],
        "setup_s": [r["total_s"] for r in record["setup"]],
        "infine_heap_mb": [p["heap_peak_mb"] for p in timed],
    }
    return {k: median(v) for k, v in samples.items()}, \
        {k: summarize(v) for k, v in samples.items()}


def _within(t, windows):
    return any(w[0] - JOB_SLACK_MS <= t <= w[1] for w in windows)


def spark_layer(spans, jobs, actions, pass_span, pipeline):
    """Spark figures for the jobs that one pipeline's spans (names starting
    with `pipeline`) issued inside one pass."""
    windows = [(s["start_ms"], s["end_ms"]) for s in spans
               if s["name"].startswith(pipeline)
               and pass_span["start_ms"] <= s["start_ms"] <= pass_span["end_ms"]]
    mine = [j for j in jobs if _within(j["start_ms"], windows)]
    busy_ms = union_length([c for j in mine for w in windows
                            for c in [clip((j["start_ms"], j["end_ms"]), w)] if c])
    acts = [a["name"] for a in actions if _within(a["start_ms"], windows)]
    return {
        "jobs": len(mine),
        "busy_s": busy_ms / 1e3,
        "tasks": sum(j["tasks"] for j in mine),
        "shuffle_write_mb": sum(j["shuffle_write_bytes"] for j in mine) / 2 ** 20,
        "result_mb": sum(j["result_bytes"] for j in mine) / 2 ** 20,
        "actions.count": acts.count("count"),
        "actions.collect": acts.count("collect"),
    }


def per_layer(record):
    """Per-layer metric values of one traced run (medians over its traced
    passes), plus the trace summary written beside them."""
    traced = [p for p in record["passes"] if p["kind"] == "traced"]
    timed = [p for p in record["passes"] if p["kind"] == "timed"]
    spans, jobs, actions = record["spans"], record["jobs"], record["actions"]
    pass_spans = [s for s in spans if s["name"] == "pass"]

    def med(key):
        return median([p["sums"].get(key, 0.0) for p in traced])

    m = {
        "data.catalog_s": median([r["catalog_s"] for r in record["setup"]]),
        "data.base_rows": record["base_rows"],
        "views.view_rows": sum(record["view_rows"].values()),
        "views.materialize_s": med("materialize_s"),
        "fd.encode_s": med("encode_s"),
        "fd.tane.mine_s": med("tane_mine_s"),
        "fd.hyfd.mine_s": med("hyfd_mine_s"),
        "fd.base.mine_s": med("base_mine_s"),
    }
    for st in STAGES:
        m[f"core.infine.{st}_s"] = med(f"stage.{st}")
    m["core.infine.other_s"] = median(
        [p["sums"].get("infine_s", 0.0) - sum(p["sums"].get(f"stage.{st}", 0.0) for st in STAGES)
         for p in traced])
    for miner in ("tane", "hyfd"):
        for part in ("view", "mine", "diff"):
            m[f"core.straightforward.{miner}.{part}_s"] = med(f"{miner}.{part}_s")
    m["core.infine.fds"] = traced[0]["fds"]
    for label in FD_TYPES:
        m[fd_type_metric(label)] = traced[0]["fds_by_type"].get(label, 0)
    m["core.infine_over_tane"] = median([p["infine_s"] for p in timed]) / \
        median([p["tane_s"] for p in timed])

    per_pass = []
    for p, ps in zip(traced, pass_spans):
        inf = spark_layer(spans, jobs, actions, ps, "InFine.run")
        sf = spark_layer(spans, jobs, actions, ps, "Straightforward.run")
        inf["driver_s"] = p["sums"].get("infine_s", 0.0) - inf["busy_s"]
        per_pass.append((inf, sf))
    for key in ("jobs", "busy_s", "driver_s", "tasks", "shuffle_write_mb", "result_mb",
                "actions.count", "actions.collect"):
        m[f"spark.infine.{key}"] = median([inf[key] for inf, _ in per_pass])
    for key in ("jobs", "busy_s"):
        m[f"spark.straightforward.{key}"] = median([sf[key] for _, sf in per_pass])
    m["jvm.infine.gc_s"] = med("jvm.gc_s")
    m["jvm.infine.alloc_mb"] = med("jvm.alloc_mb")

    traced_infine = med("infine_s")
    untraced_infine = median([p["infine_s"] for p in timed])
    trace = {
        "traced_passes": len(traced),
        "untraced_passes": len(timed),
        "infine_s_traced": traced_infine,
        "infine_s_untraced": untraced_infine,
        "tracing_overhead_s": traced_infine - untraced_infine,
        "self_time_s": self_time_by_name(spans, jobs),
        "spans": spans,
        "jobs": jobs,
        "actions": actions,
    }
    return m, trace


# ----------------------------------------------------------------------- output


def result_line(correct, attempted, failed, metrics, units):
    """The benchmark's last output line: one JSON object."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    })
