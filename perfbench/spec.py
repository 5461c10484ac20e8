"""What the InFine benchmark measures: workloads, metrics, and what each
per-layer metric is expected to move. BENCHMARK.json at the repository root
is generated from this file:

    python3 perfbench/run.py --write-benchmark-json

and everything here, including what BENCHMARK.json has no field for, is
printed by `python3 perfbench/run.py --describe`. The workloads' views and
scale factors are defined once, in perfbench/src/perfbench/Workloads.scala.
"""

import json

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
# Passes take 4-7 s, so a run makes the minimum of three timed passes and
# every run has the same shape; the timed passes still speed up slightly
# pass after pass, and a varying pass count would add that trend to the spread.
RUN_SECONDS = 12

# Every run is a closed loop: one client runs the views in sequence, each
# pipeline waiting for the previous one, on Spark local[min(2, nproc)].
LOOP = "closed loop, one client, views in sequence, Spark local[min(2, nproc)]"

# The committed generators take no seed, so the seed picks a row permutation
# of every base table before it is cached, and the order of views in a pass.
SEED = ("--seed permutes each base table's rows and the order of views; the FD "
        "sets do not change. Seeded generators are a later change.")

WORKLOADS = [
    {
        "name": "chem-joins",
        "why": "PTC atom-molecule at SF 1.0 (12k rows), driver path: traced, its 20 Spark "
               "jobs are busy two thirds of InFine's time, so Spark action latency dominates",
        "views": ["atom ⋈ molecule"],
        "scale": {"PTC": 1.0},
        "collect_threshold": "program default (2,000,000 rows)",
        "narrowed": "The other 7 PTE/PTC views are left out. Over all 8 at local[2] the "
                    "warm-up pass took 97 s and a timed pass 99 s (InFine 66 s, TANE 16 s, "
                    "HyFD 17 s), so no run with set-up, warm-up and three passes ends "
                    "within the 180 s a run may take. atom ⋈ molecule is the 8 views' "
                    "smallest PTC join.",
        "predictions": [
            "A driver-resident sub-view engine (ROADMAP item 1) should move infine_s "
            "and spark.infine.jobs here: Spark jobs are busy two thirds of InFine's time.",
            "fd miner kernel changes should not move straightforward_*_s here: "
            "fd.*.mine_s is a few ms of a 1 s pass.",
        ],
    },
    {
        "name": "spark-validator",
        "why": "PTE active-drug at SF 1.0, collect threshold 0: every FD check runs as Spark "
               "jobs in SparkValidator (traced: 28 jobs, busy 80% of InFine's time)",
        "views": ["active ⋈ drug"],
        "scale": {"PTE": 1.0},
        "collect_threshold": 0,
        "narrowed": "atom ⋈ molecule and connected ⋈ bond are left out. At collect "
                    "threshold 0 and local[2], InFine over the two took 71 s per pass, and "
                    "on connected ⋈ bond it overran its 60 s budget in the warm-up pass. "
                    "active ⋈ drug (300 rows, 4 FDs) keeps the above-threshold path within "
                    "a run's time.",
        "predictions": [
            "A driver-resident sub-view engine keeps this path, so it should not move "
            "infine_s here unless it also tunes the Spark path (broadcast joins, AQE).",
            "straightforward_*_s does not use the collect threshold: it should match "
            "chem-joins' behaviour under every change.",
        ],
    },
]

# Workloads left out, with the reason.
DROPPED = {
    "tpch-fd-rich": "One pass of Q2* at TPC-H SF 0.05 takes about 26 s (InFine 22 s), "
                    "and at SF 0.02 the view has more FDs (139) and still takes 17 s: "
                    "no run with set-up and three passes fits the time budget.",
    "mimic-sf1": "At MIMIC SF 1.0 one pass takes over a minute. At SF 0.1 "
                 "(diagnoses_icd ⋈ patients, 64k rows, 48 FDs) a pass takes about 8 s, so a "
                 "run with set-up and three passes takes over a minute, and with it the "
                 "benchmark's runs overrun their time budget.",
}

END_TO_END = [
    {"name": "infine_s", "unit": "s", "better": "lower", "bound": 0.24,
     "what": "wall seconds of one pass of InFine.run over the workload's views: what a "
             "user waits for the provenance-tagged FDs"},
    {"name": "straightforward_tane_s", "unit": "s", "better": "lower", "bound": 0.24,
     "what": "the same pass through Straightforward.run with TANE"},
    {"name": "straightforward_hyfd_s", "unit": "s", "better": "lower", "bound": 0.24,
     "what": "the same pass through Straightforward.run with HyFD, the strongest baseline"},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25,
     "what": "a warm set-up round: Spark session restart in a JVM that has already run "
             "one, plus generating, permuting and caching the base tables; median of "
             "five rounds. Only the first round starts Spark cold (10-16 s against "
             "0.5-2.2 s for the others), so the median leaves the cold start out. The "
             "untimed warm-up passes are not part of it."},
    {"name": "infine_heap_mb", "unit": "MB", "better": "lower", "bound": 0.24,
     "what": "most heap in use after any collection during the InFine block of a pass, "
             "from GC notifications (each awaited before the block's figure is read), "
             "counting from the live heap after a full collection at the block's start. "
             "Spark's allocation runs one or two young collections per block here (run.py "
             "prints how many per pass), so it samples what InFine and Spark hold at those "
             "moments, plus objects promoted since the block began. Each pool's peak use "
             "is no measure here: with G1, Spark's large buffers fill the old generation "
             "until the heap reaches the collection threshold, and the sum of the pools' "
             "peaks read 918-921 MB on every chem-joins pass"},
]
# Each value is the median over the run's timed passes (set-up rounds for
# setup_s); run.py states the sample count, and the highest percentile with
# ten samples beyond it once a run has twenty.

# name, unit, better, and which end-to-end metric the metric should move, on
# which workload ("-" marks counts that state or guard the input and output).
PER_LAYER = [
    ("data.catalog_s", "s", "lower", "setup_s on both"),
    ("data.base_rows", "count", "higher", "- states the input size"),
    ("views.view_rows", "count", "higher", "- states the view size"),
    ("views.materialize_s", "s", "lower", "straightforward_*_s on both"),
    ("fd.encode_s", "s", "lower", "straightforward_*_s on both"),
    ("fd.tane.mine_s", "s", "lower", "straightforward_tane_s; a few ms on both"),
    ("fd.hyfd.mine_s", "s", "lower", "straightforward_hyfd_s; a few ms on both"),
    ("fd.base.mine_s", "s", "lower", "infine_s; a few ms on both"),
    ("core.infine.base_s", "s", "lower", "infine_s on both"),
    ("core.infine.selection_s", "s", "lower", "infine_s on views with a selection; 0 on both"),
    ("core.infine.upstaged_s", "s", "lower", "infine_s on both"),
    ("core.infine.inferred_s", "s", "lower", "infine_s on both; Spark jobs on spark-validator"),
    ("core.infine.mine_s", "s", "lower", "infine_s on views with join FDs to mine"),
    ("core.infine.other_s", "s", "lower", "infine_s: InFine.run time outside the five stages"),
    ("core.straightforward.tane.view_s", "s", "lower", "straightforward_tane_s on both"),
    ("core.straightforward.tane.mine_s", "s", "lower", "straightforward_tane_s on both"),
    ("core.straightforward.tane.diff_s", "s", "lower", "straightforward_tane_s on both"),
    ("core.straightforward.hyfd.view_s", "s", "lower", "straightforward_hyfd_s on both"),
    ("core.straightforward.hyfd.mine_s", "s", "lower", "straightforward_hyfd_s on both"),
    ("core.straightforward.hyfd.diff_s", "s", "lower", "straightforward_hyfd_s on both"),
    ("core.infine.fds", "count", "higher", "- guards the output"),
    ("core.infine.fds.base", "count", "higher", "- guards the output"),
    ("core.infine.fds.upstaged_selection", "count", "higher", "- guards the output"),
    ("core.infine.fds.upstaged_left", "count", "higher", "- guards the output"),
    ("core.infine.fds.upstaged_right", "count", "higher", "- guards the output"),
    ("core.infine.fds.inferred", "count", "higher", "- guards the output"),
    ("core.infine.fds.joinFD", "count", "higher", "- guards the output"),
    ("core.infine_over_tane", "ratio", "lower",
     "- reported only: infine_s / straightforward_tane_s of the run's untraced passes"),
    ("spark.infine.jobs", "count", "lower", "infine_s on chem-joins and spark-validator"),
    ("spark.infine.busy_s", "s", "lower", "infine_s on chem-joins and spark-validator"),
    ("spark.infine.driver_s", "s", "lower", "infine_s on both"),
    ("spark.infine.tasks", "count", "lower", "infine_s on both"),
    ("spark.infine.shuffle_write_mb", "MB", "lower", "infine_s on spark-validator"),
    ("spark.infine.result_mb", "MB", "lower", "infine_heap_mb on both"),
    ("spark.infine.actions.count", "count", "lower", "infine_s on both"),
    ("spark.infine.actions.collect", "count", "lower", "infine_s and infine_heap_mb on both"),
    ("spark.straightforward.jobs", "count", "lower", "straightforward_*_s on both"),
    ("spark.straightforward.busy_s", "s", "lower", "straightforward_*_s on both"),
    ("jvm.infine.gc_s", "s", "lower", "infine_s and infine_heap_mb on both"),
    ("jvm.infine.alloc_mb", "MB", "lower", "infine_heap_mb on both"),
]


def workload_names():
    return [w["name"] for w in WORKLOADS]


def runnable_names():
    """Every workload the harness knows, "smoke" being its own test's."""
    return workload_names() + ["smoke"]


def units(trace):
    """Metric name -> unit of what a run reports with this trace setting."""
    if trace:
        return {name: unit for name, unit, _, _ in PER_LAYER}
    return {m["name"]: m["unit"] for m in END_TO_END}


def benchmark_json():
    """The BENCHMARK.json description, as text."""
    doc = {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w["name"], "why": w["why"]} for w in WORKLOADS],
        "end_to_end": [{k: m[k] for k in ("name", "unit", "better", "bound")} for m in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def describe():
    """The full description: loop, seed, workloads with views, scale factors
    and predictions, and every metric with what it measures or moves."""
    return json.dumps({
        "loop": LOOP,
        "seed": SEED,
        "workloads": WORKLOADS,
        "dropped_workloads": DROPPED,
        "end_to_end": END_TO_END,
        "per_layer": [{"name": n, "unit": u, "better": b, "moves": mv}
                      for n, u, b, mv in PER_LAYER],
    }, indent=2, ensure_ascii=False)
