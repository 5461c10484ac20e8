"""Tests of the InFine benchmark itself:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The smoke tests build the program and run the harness on one small view
(about a minute each).
"""

import json
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import benchlib  # noqa: E402
import spec  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RUN = ["python3", "perfbench/run.py"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class StatisticsTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(benchlib.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(benchlib.median([4.0, 1.0, 2.0, 3.0]), 2.5)

    def test_quartiles_match_statistics_module(self):
        values = [1.3, 0.7, 2.2, 1.9, 1.1, 0.8, 1.5, 1.7, 2.0, 1.0]
        self.assertEqual(benchlib.quartiles(values), tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(benchlib.quartiles([5.0]), (5.0, 5.0, 5.0))

    def test_relative_spread(self):
        values = [9.0, 10.0, 10.0, 11.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(benchlib.relative_spread(values), (q3 - q1) / q2)

    def test_supported_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(benchlib.supported_percentile(3))
        self.assertIsNone(benchlib.supported_percentile(19))
        self.assertEqual(benchlib.supported_percentile(20), 50)
        self.assertEqual(benchlib.supported_percentile(100), 90)
        self.assertEqual(benchlib.supported_percentile(1000), 99)

    def test_nearest_rank_percentile(self):
        values = list(range(1, 101))
        self.assertEqual(benchlib.percentile(values, 90), 90)
        self.assertEqual(benchlib.percentile(values, 50), 50)
        self.assertEqual(benchlib.percentile([7.0], 99), 7.0)

    def test_summarize_states_count_and_percentile(self):
        self.assertEqual(benchlib.summarize([1.0, 2.0, 3.0]), {"median": 2.0, "n": 3})
        s = benchlib.summarize([float(i) for i in range(40)])
        self.assertEqual(s["n"], 40)
        self.assertEqual(s["p75"], 29.0)


class IntervalTest(unittest.TestCase):
    def test_union_counts_overlap_once(self):
        self.assertEqual(benchlib.union_length([]), 0.0)
        self.assertEqual(benchlib.union_length([(0, 2), (1, 3)]), 3)
        self.assertEqual(benchlib.union_length([(0, 1), (2, 3)]), 2)
        self.assertEqual(benchlib.union_length([(0, 10), (2, 3), (4, 5)]), 10)
        self.assertEqual(benchlib.union_length([(5, 6), (0, 1), (0.5, 2)]), 3)

    def test_overlapping_jobs_never_exceed_wall_time(self):
        # Jobs summing to 7.8 s of job time inside 5.8 s of wall time.
        jobs = [(0.0, 3.0), (1.0, 4.0), (4.0, 5.0), (5.0, 5.8)]
        self.assertAlmostEqual(sum(e - s for s, e in jobs), 7.8)
        self.assertAlmostEqual(benchlib.union_length(jobs), 5.8)

    def test_clip(self):
        self.assertEqual(benchlib.clip((0, 5), (2, 3)), (2, 3))
        self.assertIsNone(benchlib.clip((0, 1), (2, 3)))


def span(i, parent, name, start, end):
    return {"id": i, "parent": parent, "name": name, "start_ms": start, "end_ms": end}


def job(i, start, end, tasks=1, shuffle=0, result=0):
    return {"id": i, "start_ms": start, "end_ms": end, "execution": i, "tasks": tasks,
            "shuffle_write_bytes": shuffle, "result_bytes": result}


class SpanTest(unittest.TestCase):
    spans = [
        span(0, -1, "pass", 0, 100),
        span(1, 0, "view:v", 10, 90),
        span(2, 1, "InFine.run", 10, 50),
        span(3, 1, "Straightforward.run:tane", 60, 90),
    ]
    jobs = [job(1, 12, 20), job(2, 15, 30), job(3, 40, 45), job(4, 70, 80), job(5, 200, 210)]

    def test_jobs_go_under_innermost_containing_span(self):
        placed = benchlib.place_jobs(self.spans, self.jobs)
        self.assertEqual(placed, {1: 2, 2: 2, 3: 2, 4: 3, 5: -1})

    def test_job_starting_just_before_its_span_is_placed_in_it(self):
        placed = benchlib.place_jobs(self.spans, [job(9, 9.5, 11)])
        self.assertEqual(placed[9], 2)

    def test_self_time_subtracts_covered_children(self):
        st = benchlib.self_times(self.spans, self.jobs)
        self.assertEqual(st[("span", 0)], 100 - 80)
        self.assertEqual(st[("span", 1)], 80 - 40 - 30)
        self.assertEqual(st[("span", 2)], 40 - 18 - 5)  # jobs cover 12..30 and 40..45
        self.assertEqual(st[("span", 3)], 30 - 10)
        self.assertEqual(st[("job", 4)], 10)
        self.assertNotIn(("job", 5), st)

    def test_self_time_by_name_sums_in_seconds(self):
        by = benchlib.self_time_by_name(self.spans, self.jobs)
        self.assertAlmostEqual(by["InFine.run"], 0.017)
        self.assertAlmostEqual(by["spark job"], (8 + 15 + 5 + 10) / 1e3)
        # The pass's 100 ms, plus the 5 ms in which jobs 1 and 2 overlap.
        self.assertAlmostEqual(sum(by.values()), (100 + 5) / 1e3)


def record(traced):
    timed = [{"kind": "timed", "infine_s": x, "tane_s": 1.0, "hyfd_s": 0.9,
              "heap_peak_mb": 100.0 + x} for x in (2.0, 2.2, 1.8)]
    passes = list(timed)
    if traced:
        sums = {"infine_s": 0.04, "stage.base": 0.005, "stage.upstaged": 0.02,
                "stage.inferred": 0.01, "stage.mine": 0.002, "materialize_s": 0.5,
                "tane.view_s": 0.3, "jvm.gc_s": 0.01, "jvm.alloc_mb": 30.0}
        passes.append({"kind": "traced", "sums": sums, "fds": 8,
                       "fds_by_type": {"base": 3, "inferred": 4, "joinFD": 1}})
    return {
        "workload": "w", "seed": 1, "env": {},
        "setup": [{"total_s": t, "catalog_s": t / 2} for t in (9.0, 1.2, 1.0)],
        "base_rows": 100, "view_rows": {"v": 90}, "passes": passes,
        "ops": 10, "failed_ops": 0, "failures": [],
        "spans": SpanTest.spans if traced else [],
        "jobs": SpanTest.jobs if traced else [],
        "actions": [{"execution": 1, "name": "count", "start_ms": 12},
                    {"execution": 2, "name": "collect", "start_ms": 15},
                    {"execution": 4, "name": "count", "start_ms": 70}] if traced else [],
    }


class MetricsTest(unittest.TestCase):
    def test_end_to_end_takes_medians(self):
        values, samples = benchlib.end_to_end(record(False))
        self.assertEqual(values["infine_s"], 2.0)
        self.assertEqual(values["setup_s"], 1.2)
        self.assertEqual(values["infine_heap_mb"], 102.0)
        self.assertEqual(samples["infine_s"]["n"], 3)
        self.assertEqual(set(values), set(spec.units(False)))

    def test_per_layer_splits_infine_time(self):
        m, trace = benchlib.per_layer(record(True))
        self.assertEqual(set(m), set(spec.units(True)))
        self.assertEqual(m["spark.infine.jobs"], 3)
        self.assertAlmostEqual(m["spark.infine.busy_s"], 0.023)
        self.assertAlmostEqual(m["spark.infine.busy_s"] + m["spark.infine.driver_s"], 0.04)
        stages = sum(m[f"core.infine.{s}_s"] for s in benchlib.STAGES) + m["core.infine.other_s"]
        self.assertAlmostEqual(stages, 0.04)
        self.assertEqual(m["spark.infine.actions.count"], 1)
        self.assertEqual(m["spark.infine.actions.collect"], 1)
        self.assertEqual(m["spark.straightforward.jobs"], 1)
        self.assertEqual(m["core.infine.fds.upstaged_left"], 0)
        self.assertAlmostEqual(m["core.infine_over_tane"], 2.0)
        self.assertAlmostEqual(trace["tracing_overhead_s"], 0.04 - 2.0)


class OutputTest(unittest.TestCase):
    def test_result_line_shape(self):
        units = {"a_s": "s", "b": "count"}
        line = benchlib.result_line(True, 12, 0, {"a_s": 1.25, "b": 3, "extra": 9}, units)
        doc = json.loads(line)
        self.assertEqual(set(doc), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(doc["metrics"], {"a_s": {"value": 1.25, "unit": "s"},
                                          "b": {"value": 3, "unit": "count"}})
        self.assertIs(doc["correct"], True)
        self.assertEqual((doc["attempted"], doc["failed"]), (12, 0))
        self.assertNotIn("\n", line)


class BenchmarkJsonTest(unittest.TestCase):
    def test_file_matches_spec(self):
        self.assertEqual((ROOT / "BENCHMARK.json").read_text(), spec.benchmark_json())

    def test_contract_limits(self):
        doc = json.loads(spec.benchmark_json())
        self.assertEqual(set(doc), {"command", "paths", "run_seconds", "workloads",
                                    "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(doc["workloads"]) <= 8)
        self.assertTrue(1 <= doc["run_seconds"] <= 60)
        names = [w["name"] for w in doc["workloads"]]
        metrics = doc["end_to_end"] + doc["per_layer"]
        names += [m["name"] for m in metrics]
        self.assertTrue(all(NAME.match(n) for n in names))
        self.assertEqual(len(set(m["name"] for m in metrics)), len(metrics))
        self.assertTrue(all(UNIT.match(m["unit"]) for m in metrics))
        self.assertTrue(all(len(w["why"]) <= 200 for w in doc["workloads"]))
        bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class SmokeTest(unittest.TestCase):
    def run_smoke(self, trace):
        done = subprocess.run(RUN + ["--workload", "smoke", "--seed", "3", "--seconds", "1",
                                     "--trace", str(trace)],
                              cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=300)
        self.assertEqual(done.returncode, 0, done.stderr[-3000:])
        return json.loads(done.stdout.strip().splitlines()[-1])

    def check(self, trace):
        doc = self.run_smoke(trace)
        self.assertTrue(doc["correct"])
        self.assertEqual(doc["failed"], 0)
        self.assertGreaterEqual(doc["attempted"], 1)
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        wanted = declared["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(doc["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            self.assertEqual(doc["metrics"][m["name"]]["unit"], m["unit"])
        return doc["metrics"]

    def test_end_to_end_metrics_emitted(self):
        metrics = self.check(0)
        self.assertTrue(all(v["value"] > 0 for v in metrics.values()))

    def test_per_layer_metrics_emitted(self):
        metrics = self.check(1)
        self.assertEqual(metrics["core.infine.fds"]["value"], 8)

    def test_fails_without_program_sources(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(ROOT / "BENCHMARK.json", d)
            shutil.copytree(ROOT / "perfbench", Path(d) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(RUN + ["--workload", "chem-joins", "--seed", "1",
                                         "--seconds", "1", "--trace", "0"],
                                  cwd=d, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True, timeout=120)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
