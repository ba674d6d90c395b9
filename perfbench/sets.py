#!/usr/bin/env python3
"""Run the benchmark over a set of seeds and summarise each metric.

    python3 perfbench/sets.py --runs 10 --first-seed 1 --label A

For each workload in BENCHMARK.json it runs `run.py` once per seed, one run at
a time, with the file's run_seconds, and prints for each metric the median,
the first and third quartiles (statistics.quantiles, n=4) and their distance
as a share of the median. The runs and the summary are written to
.perfbench/sets-<label>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="at least 2")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--label", default="A")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()

    record = {"python": sys.version.split()[0], "runs": {}, "summary": {}}
    for workload in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        record["runs"][workload] = results
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: correct={all(r['correct'] for r in results)} "
              f"failed share={sorted(shares)}", flush=True)
        record["summary"][workload] = {}
        for name in results[0]["metrics"]:
            s = summary([r["metrics"][name]["value"] for r in results])
            record["summary"][workload][name] = s
            print(f"  {name:28s} median {s['median']:12.4f}  q1 {s['q1']:12.4f}  "
                  f"q3 {s['q3']:12.4f}  spread {s['spread']:.3f}", flush=True)
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    (out / f"sets-{args.label}.json").write_text(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
