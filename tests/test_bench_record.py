"""The recorded benchmark files at the repository root keep one key set:
kernel timings are required from BENCH_9.json on, and absent before it; the
lambda_log and geom_inv kernels are required from BENCH_11.json on, the
wall times of the acceptance bounds from BENCH_13.json on, the per-round
work counts of a traced run from BENCH_17.json on, and closed_solve on the
right-handed equation and x*y at cap 30 after BENCH_18.json. From
BENCH_36.json on, the add, scale and eq kernels and the gcd passes per round
(reduce_calls) are required, and each acceptance bound is recorded as the
workloads' metrics are, over at least 10 alternated pairs; from
BENCH_38.json on, the parts of each workload's set-up (setup_ms). The
recorder's in-process loader builds and runs every layer call on this
checkout and on one whose package imports its modules itself, as a
re-exporting rbseries/__init__.py did."""

import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SIDES = {"parent", "change"}


def _load_recorder():
    path = ROOT / "tools" / "bench_record.py"
    spec = importlib.util.spec_from_file_location("rbseries_bench_record", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


recorder = _load_recorder()
FACADE = """from .rings import rational
from .series import TruncatedSeries
from .operators import apply
from .solvers import closed_solve
"""


@pytest.mark.parametrize("layout", ("this checkout", "re-exporting package"))
def test_every_layer_call_builds_and_runs(layout, tmp_path):
    root = ROOT
    if layout != "this checkout":
        root = tmp_path
        shutil.copytree(ROOT / "src" / "rbseries", root / "src" / "rbseries")
        (root / "src" / "rbseries" / "__init__.py").write_text(FACADE)
    name = f"rbseries_layers_{tmp_path.name}"
    try:
        calls = recorder._layer_calls(recorder._load(name, root))
        assert Path(sys.modules[f"{name}.series"].__file__).parent == root / "src" / "rbseries"
        for by_name in calls.values():
            for call in by_name.values():
                call()
    finally:
        recorder._drop(name)
    assert set(calls) == set(recorder.LAYER_KEYS)
    assert set(calls["solvers_fastest_ms"]) == {
        f"{s} {d}x{d} cap {cap}"
        for s in recorder.SOLVERS for d in recorder.DIMS for cap in recorder.CAPS}
    assert set(calls["kernels_fastest_ms"]) == {
        f"{k} {d}x{d} cap {cap}"
        for k in recorder.KERNELS for d in recorder.KERNEL_DIMS for cap in recorder.CAPS
    } | {f"mul {d}x{d} cap {recorder.MUL_CAP}" for d in recorder.KERNEL_DIMS}


def test_reduce_calls_counts_one_round_and_restores_the_pass():
    name = "rbseries_reduce_calls"
    try:
        rb = recorder._load(name, ROOT)
        gcd_pass = rb.series._reduce
        counts = recorder.reduce_calls({"change": rb}, recorder._load_workloads(ROOT),
                                       ["cli-small"], 1)
        assert rb.series._reduce is gcd_pass
    finally:
        recorder._drop(name)
    assert set(counts) == {"change"} and set(counts["change"]) == {"cli-small"}
    assert counts["change"]["cli-small"] > 0


def test_setup_parts_time_each_part_of_every_workload_once_per_try():
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    parts = recorder.setup_parts({"change": ROOT}, recorder._load_workloads(ROOT), workloads, 1,
                                 tries=1)
    assert not [m for m in sys.modules if m.startswith("rbseries_setup_")]
    _check_setup_parts(parts, {"change"}, workloads)


def test_a_record_exists():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_key_set(path):
    record = json.loads(path.read_text())
    keys = {"environment", "method", "workloads", "solvers_fastest_ms"}
    number = int(path.stem.split("_")[1])
    if number >= 9:
        keys.add("kernels_fastest_ms")
    if number >= 13:
        keys.add("bounds_s")
    if number >= 17:
        keys.add("layer_counts")
    if number >= 36:
        keys.add("reduce_calls")
    if number >= 38:
        keys.add("setup_ms")
    assert set(record) == keys
    assert set(record["environment"]) == {"python", "cpu_count", "backend", "parent", "change"}
    assert set(record["method"]) == {"command", "seconds", "pairs", "seeds", "order"}
    pairs = record["method"]["pairs"]
    assert pairs >= 10 and len(record["method"]["seeds"]) == pairs

    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    metrics = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(record["workloads"]) == workloads
    for entry in record["workloads"].values():
        assert set(entry) == metrics | {"failed", "attempted"}
        assert set(entry["failed"]) == set(entry["attempted"]) == SIDES
        for name in metrics:
            _check_paired(entry[name], pairs)

    timings = record["solvers_fastest_ms"]
    assert set(timings) == SIDES
    solvers = ("picard_solve", "chi_lambda", "chi_zero", "closed_solve")
    if number > 18:
        solvers += ("closed_solve right",)
    expected = {f"{solver} {d}x{d} cap {cap}"
                for solver in solvers for d in (2, 3) for cap in (6, 10, 16)}
    for side in SIDES:
        assert set(timings[side]) == expected
        assert all(ms > 0 for ms in timings[side].values())

    if "kernels_fastest_ms" in keys:
        kernels = record["kernels_fastest_ms"]
        assert set(kernels) == SIDES
        names = ("mul", "apply", "tilde_apply", "exp")
        if number >= 11:
            names += ("lambda_log", "geom_inv")
        if number >= 36:
            names += ("add", "scale", "eq")
        expected = {f"{kernel} {d}x{d} cap {cap}"
                    for kernel in names for d in (1, 2, 3) for cap in (6, 10, 16)}
        if number > 18:
            expected |= {f"mul {d}x{d} cap 30" for d in (1, 2, 3)}
        for side in SIDES:
            assert set(kernels[side]) == expected
            assert all(ms > 0 for ms in kernels[side].values())

    if "bounds_s" in keys:
        bounds = record["bounds_s"]
        names = {"test_criterion_1_rota_baxter_axiom",
                 "test_criterion_4_noncommutative_inhomogeneous", "rbseries suite"}
        if number >= 36:
            assert set(bounds) == names
            for m in bounds.values():
                _check_paired(m, pairs)
                assert m["unit"] == "s" and m["parent"]["q1"] > 0 and m["change"]["q1"] > 0
        else:
            assert set(bounds) == SIDES
            for side in SIDES:
                assert set(bounds[side]) == names
                assert all(secs > 0 for secs in bounds[side].values())

    if "layer_counts" in keys:
        counts = record["layer_counts"]
        names = {m["name"] for m in BENCHMARK["per_layer"] if m["unit"] == "count"}
        assert set(counts) == SIDES
        for side in SIDES:
            assert set(counts[side]) == workloads
            for by_name in counts[side].values():
                assert set(by_name) == names
                assert all(n >= 0 for n in by_name.values())

    if "reduce_calls" in keys:
        calls = record["reduce_calls"]
        assert set(calls) == SIDES
        for side in SIDES:
            assert set(calls[side]) == workloads
            assert all(isinstance(n, int) and n >= 0 for n in calls[side].values())

    if "setup_ms" in keys:
        _check_setup_parts(record["setup_ms"], SIDES, workloads)


def _check_setup_parts(parts: dict, sides: set, workloads) -> None:
    """side: workload: part: the median and fastest milliseconds of the
    part, none of them negative and the fastest at most the median."""
    assert set(parts) == sides
    for side in sides:
        assert set(parts[side]) == set(workloads)
        for by_part in parts[side].values():
            assert set(by_part) == set(recorder.SETUP_PARTS)
            for m in by_part.values():
                assert set(m) == {"median", "fastest"} and 0 <= m["fastest"] <= m["median"]


def _check_paired(m: dict, pairs: int) -> None:
    """One metric recorded over `pairs` alternated pairs of runs."""
    assert set(m) == {"unit", "parent", "change", "change_wins", "runs"}
    for side in SIDES:
        assert set(m[side]) == {"median", "q1", "q3"}
        assert m[side]["q1"] <= m[side]["median"] <= m[side]["q3"]
        assert len(m["runs"][side]) == pairs
    assert 0 <= m["change_wins"] <= pairs
