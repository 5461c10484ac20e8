#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    for s in 1 2 3 4 5 6 7 8 9 10; do
      python3 perfbench/run.py --workload chem-joins --seed $s | tail -1 >> chem.jsonl
    done
    python3 perfbench/spread.py chem.jsonl

Each file holds result lines of one workload. For every end-to-end metric
this prints the median, the quartiles, and the spread: the interquartile
distance as a share of the median, next to the metric's bound.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import benchlib  # noqa: E402
import spec  # noqa: E402


def main(paths):
    bounds = {m["name"]: m["bound"] for m in spec.END_TO_END}
    for path in paths:
        lines = [json.loads(l) for l in Path(path).read_text().splitlines() if l.startswith("{")]
        failed = sum(doc["failed"] for doc in lines)
        attempted = sum(doc["attempted"] for doc in lines)
        print(f"{path}: {len(lines)} runs, {failed} of {attempted} operations failed")
        for name, bound in bounds.items():
            values = [doc["metrics"][name]["value"] for doc in lines if name in doc["metrics"]]
            if not values:
                continue
            q1, q2, q3 = benchlib.quartiles(values)
            spread = benchlib.relative_spread(values)
            print(f"  {name:<24} median {q2:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {spread:6.3f}  bound {bound}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
