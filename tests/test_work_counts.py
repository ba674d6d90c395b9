"""Each benchmark workload does the work the newest BENCH_<n>.json recorded.

A traced run of perfbench/run.py (5 rounds, at the record's first seed) counts
the calls into each layer and the series products inside the solvers, per
round. These counts repeat exactly for a given seed, so every `*.calls` and
`*.products` must equal `layer_counts.change` of the newest record: a change
that does more or less work, or a different work, records a new benchmark.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def newest(paths):
    """The record with the largest number: BENCH_18 is newer than BENCH_9."""
    return max(paths, key=lambda p: int(Path(p).stem.split("_")[1]))


RECORD = json.loads(newest(ROOT.glob("BENCH_*.json")).read_text())
RECORDED = RECORD["layer_counts"]["change"]


def work_counts(values: dict) -> dict:
    return {name: v for name, v in values.items() if name.endswith((".calls", ".products"))}


def test_the_newest_record_is_the_largest_number():
    names = ["BENCH_7.json", "BENCH_9.json", "BENCH_18.json", "BENCH_24.json"]
    assert newest(names) == "BENCH_24.json"
    assert newest(names[:3]) == "BENCH_18.json"


@pytest.mark.parametrize("workload", sorted(RECORDED))
def test_traced_work_counts_equal_the_newest_record(workload):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(RECORD["method"]["seeds"][0]), "--seconds", "0", "--trace", "1"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    counted = work_counts({name: m["value"] for name, m in result["metrics"].items()})
    recorded = work_counts(RECORDED[workload])
    differences = [f"{workload} {name}: recorded {recorded.get(name)}, counted {counted.get(name)}"
                   for name in sorted(recorded.keys() | counted.keys())
                   if recorded.get(name) != counted.get(name)]
    assert not differences, "; ".join(differences)
