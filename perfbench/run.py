#!/usr/bin/env python3
"""The InFine benchmark. One run measures one workload:

    python3 perfbench/run.py --workload chem-joins --seed 1 --seconds 10 --trace 0

builds the program and the harness from source (perfbench/build.py), runs the
harness JVM, checks the FD sets, and prints as its last line one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer ones with `--trace 1`. A summary of every
metric with its unit and sample count goes to standard error; a traced run
also writes its spans and self times to .bench_build/trace/.

    python3 perfbench/run.py --all                   # every workload, seed 1
    python3 perfbench/run.py --describe              # metrics and predictions
    python3 perfbench/run.py --write-benchmark-json  # regenerate BENCHMARK.json
    python3 perfbench/spread.py RESULTS.jsonl        # run-to-run spread
    python3 -m unittest discover -s perfbench -p 'test_*.py'   # its tests
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import benchlib  # noqa: E402
import build  # noqa: E402
import spec  # noqa: E402

# A run must end within this many seconds, builds included.
RUN_LIMIT_S = 170
# Pinned run environment, recorded in every raw record.
HEAP = "2g"
YOUNG = "256m"
# Two task threads leave cores to the driver thread, the JIT and the GC; with
# four on a 4-vCPU machine the heap and Spark-path timings spread far more.
CORES = min(2, os.cpu_count() or 1)
SHUFFLE_PARTITIONS = "64"

JVM_FLAGS = [
    f"-Xms{HEAP}", f"-Xmx{HEAP}", f"-Xmn{YOUNG}",
    "-XX:+IgnoreUnrecognizedVMOptions",
    # No hsperfdata file outside the checkout.
    "-XX:-UsePerfData",
    # Spark on JDK 17 needs the launcher's module openings (as in build.sbt).
    *[f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar")],
    "-Djdk.reflect.useDirectMethodHandleAccessor=false",
    "-Dspark.driver.host=127.0.0.1",
    "-Dspark.ui.enabled=false",
]


def run_jvm(classpath, workload, seed, seconds, trace, deadline):
    out_dir = build.BUILD_DIR / "out"
    work = build.BUILD_DIR / "work"
    tmp = build.BUILD_DIR / "tmp"
    for d in (out_dir, work, tmp):
        d.mkdir(parents=True, exist_ok=True)
    out = out_dir / f"{workload}-seed{seed}-trace{trace}.json"
    log = out_dir / f"{workload}-seed{seed}-trace{trace}.log"
    out.unlink(missing_ok=True)
    env = dict(os.environ,
               SPARK_MASTER=f"local[{CORES}]",
               SPARK_SHUFFLE_PARTITIONS=SHUFFLE_PARTITIONS,
               SPARK_DRIVER_MEM=HEAP,
               SPARK_LOCAL_DIRS=str(tmp))
    cmd = ["java", *JVM_FLAGS, f"-Djava.io.tmpdir={tmp}", "-cp", classpath,
           "perfbench.Main", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    with open(log, "w") as log_file:
        proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=log_file,
                                stderr=subprocess.STDOUT, start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise RuntimeError(f"harness exceeded the run limit; log: {log}")
    if code != 0 or not out.is_file():
        tail = log.read_text(errors="replace").splitlines()[-30:]
        raise RuntimeError(f"harness exited with {code}; log: {log}\n" + "\n".join(tail))
    return json.loads(out.read_text())


def write_trace(record, trace):
    trace_dir = build.BUILD_DIR / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    path = trace_dir / f"{record['workload']}-seed{record['seed']}.json"
    path.write_text(json.dumps(trace, indent=1))
    return path


def measure(workload, seed, seconds, trace):
    """Run one workload; return (result line, summary lines)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    classpath = build.build()
    record = run_jvm(classpath, workload, seed, seconds, trace, deadline)
    units = spec.units(trace)
    summary = [f"workload {workload}  seed {seed}  env {json.dumps(record['env'])}"]
    if trace:
        metrics, trace_doc = benchlib.per_layer(record)
        trace_doc["env"] = record["env"]
        path = write_trace(record, trace_doc)
        summary.append(f"trace: {path}  tracing overhead "
                       f"{trace_doc['tracing_overhead_s']:.4f} s on infine_s")
        for name, s in sorted(trace_doc["self_time_s"].items()):
            summary.append(f"  self time {name:<32} {s:10.4f} s")
    else:
        metrics, samples = benchlib.end_to_end(record)
        for name, s in samples.items():
            extra = "  ".join(f"{k} {v:.4f}" for k, v in s.items() if k.startswith("p"))
            summary.append(f"  {name:<24} median over n={s['n']}  {extra}")
        gcs = [p["heap_gcs"] for p in record["passes"] if p["kind"] == "timed"]
        summary.append(f"  infine_heap_mb: collections inside the InFine block, per pass {gcs}")
    for name, unit in units.items():
        summary.append(f"  {name:<40} {metrics[name]:>14.4f} {unit}")
    summary.append(f"  ops {record['ops']}  failed_ops {record['failed_ops']}")
    summary += [f"  failure: {f}" for f in record["failures"]]
    line = benchlib.result_line(record["failed_ops"] == 0, record["ops"],
                                record["failed_ops"], metrics, units)
    return line, summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--describe", action="store_true")
    ap.add_argument("--write-benchmark-json", action="store_true")
    args = ap.parse_args(argv)

    if args.describe:
        print(spec.describe())
        return 0
    if args.write_benchmark_json:
        (build.ROOT / "BENCHMARK.json").write_text(spec.benchmark_json())
        return 0
    names = spec.workload_names() if args.all else [args.workload]
    if names == [None]:
        ap.error("--workload or --all is required")
    for name in names:
        if name not in spec.runnable_names():
            ap.error(f"unknown workload {name}")
    try:
        for name in names:
            line, summary = measure(name, args.seed, args.seconds, args.trace)
            print("\n".join(summary), file=sys.stderr)
            print(line, flush=True)
    except (build.BuildError, RuntimeError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
