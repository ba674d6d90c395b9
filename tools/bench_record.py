#!/usr/bin/env python3
"""Record a paired parent/change benchmark as BENCH_<n>.json:

    python3 tools/bench_record.py --parent DIR --change DIR \\
        --parent-rev REV --change-rev REV --pairs 10 --seconds 30 --seed 101 \\
        --out BENCH_7.json

DIR is the root of a source checkout (with perfbench/ and src/). For pair i,
every workload in the change's BENCHMARK.json runs once on each side with
`perfbench/run.py --seed <seed + i>`, the parent first on even i and the
change first on odd i. The file holds, per workload and end-to-end metric,
each side's median, quartiles and runs, the pairs the change won (ties count
for neither) and the failed operations; then per-call timings on each side
of the solvers at caps 6, 10 and 16 over 2x2 and 3x3 matrices (closed_solve on
the left- and the right-handed equation), and of the kernels (x*y, apply,
tilde_apply, exp, lambda_log(1), geom_inv(1), x+y, a scale by -5/7, and
x == x scaled by -5/7 and back, whose pair stays unreduced where a scale
makes no gcd pass) at the same caps, and of x*y at cap 30 too, over scalars
and 2x2 and 3x3 matrices, each the fastest of 15 timeit batches of at least
10 ms, made in 15 rounds over every layer. Both sides' rbseries are
imported into this one process under two package names, and per layer
their batches alternate, so a drift in the machine's speed reaches both
sides alike. Then the wall time of each acceptance bound (the pytest nodes
of criteria 1 and 4, and `python -m rbseries.cli suite`), run as a
subprocess once per side in each of --pairs pairs, alternated as the
workloads are, with each side's median, quartiles and runs and the pairs
the change won; the exact work counts per round (every metric of unit
count: the layers' calls and products) of one traced run
(`perfbench/run.py --trace 1`) per side and workload, at the first pair's
seed; the gcd passes (calls of series._reduce) of one round of each
workload at that seed, counted in this process on each side's package after
a warm-up round; the parts of each workload's set-up (setup_parts); and the
environment. Standard library only.

    python3 tools/bench_record.py --layers DIR

prints only those per-call timings and set-up parts for the checkout at DIR,
as one JSON object with the keys solvers_fastest_ms, kernels_fastest_ms and
setup_ms.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
import timeit
from pathlib import Path

CAPS = (6, 10, 16)
DIMS = (2, 3)
SOLVERS = ("picard_solve", "chi_lambda", "chi_zero", "closed_solve", "closed_solve right")
KERNEL_DIMS = (1, 2, 3)
KERNELS = ("mul", "apply", "tilde_apply", "exp", "lambda_log", "geom_inv", "add", "scale", "eq")
MUL_CAP = 30  # the product alone is also timed at this cap
LAYER_KEYS = ("solvers_fastest_ms", "kernels_fastest_ms")
# the parts of perfbench/run.py's set_up, in its order
SETUP_PARTS = ("import", "build", "warm_up")
# the modules the layer calls and the workloads read (perfbench/run.py's MODULES)
LOADED = ("rings", "series", "operators", "solvers", "checks", "cli")
CRITERIA = ("test_criterion_1_rota_baxter_axiom", "test_criterion_4_noncommutative_inhomogeneous")
BOUNDS = {  # name: interpreter arguments
    **{node: ("-m", "pytest", "-q", "-p", "no:cacheprovider", f"tests/test_acceptance.py::{node}")
       for node in CRITERIA},
    "rbseries suite": ("-m", "rbseries.cli", "suite"),
}
COUNT_SECONDS = 3  # length of the traced run that gives the layer counts
TRIES = 15  # rounds of alternated timeit batches, one per side and layer; set-up tries


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def order(i: int) -> tuple:
    """The sides of pair i in running order: the parent first on even i."""
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


def paired(values: dict, better: str, unit: str) -> dict:
    """One metric's runs on both sides (side: list, pair by pair) as each
    side's median and quartiles, the pairs the change won (ties count for
    neither) and the runs."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
    return {
        "unit": unit,
        "parent": quartiles(values["parent"]),
        "change": quartiles(values["change"]),
        "change_wins": wins,
        "runs": {side: [round(v, 4) for v in runs] for side, runs in values.items()},
    }


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, check=True, capture_output=True, text=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if result["correct"] is not True:
        raise SystemExit(f"{root}: {workload} seed {seed} gave an incorrect output")
    return result


def layer_counts(root: Path, workload: str, seed: int) -> dict:
    """The per-round work counts (each metric of unit count) of one traced run
    from root. They repeat exactly for a given seed, whatever the run's length,
    so a short run gives them."""
    metrics = run_workload(root, workload, seed, COUNT_SECONDS, trace=1)["metrics"]
    return {name: m["value"] for name, m in metrics.items() if m["unit"] == "count"}


def bound_times(root: Path) -> dict:
    """Seconds of wall time of each BOUNDS command, run once from root, which
    must succeed."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    times = {}
    for name, argv in BOUNDS.items():
        start = time.perf_counter()
        subprocess.run([sys.executable, *argv], cwd=root, env=env, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        times[name] = time.perf_counter() - start
    return times


def _one_round(ops) -> None:
    """One call of every operation of a workload, as perfbench/run.py's
    warm-up makes it."""
    for op in ops:
        try:
            op.call()
        except Exception:
            pass  # a known fault, counted as perfbench/run.py counts it


def reduce_calls(packages: dict, workloads_module, workloads: list, seed: int) -> dict:
    """Calls of series._reduce, the gcd pass, in one round of each workload
    at `seed` on each package in `packages` (side: package, as _load gives
    it), after an uncounted warm-up round: side: workload: calls."""
    counts = {}
    for side, rb in packages.items():
        series, counts[side] = rb.series, {}
        gcd_pass = series._reduce

        def counted(*args):
            nonlocal calls
            calls += 1
            return gcd_pass(*args)

        for w in workloads:
            ops = workloads_module.build(w, seed, rb)
            _one_round(ops)
            calls, series._reduce = 0, counted
            try:
                _one_round(ops)
            finally:
                series._reduce = gcd_pass
            counts[side][w] = calls
    return counts


def _load_workloads(root: Path):
    """perfbench/workloads.py of the checkout at `root`, with its directory on
    sys.path for its own imports, as perfbench/run.py puts it."""
    sys.path.insert(0, str(root / "perfbench"))
    spec = importlib.util.spec_from_file_location("rbseries_bench_workloads",
                                                  root / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclass reads its module from here
    spec.loader.exec_module(module)
    return module


def _load(name: str, root: Path):
    """rbseries of the checkout at `root`, imported as the package `name`,
    with each module of LOADED imported as its attribute. src/rbseries
    imports its own modules by relative imports only, so two checkouts load
    side by side under two names."""
    package = root / "src" / "rbseries"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for submodule in LOADED:
        importlib.import_module(f"{name}.{submodule}")
    return module


def _drop(name: str) -> None:
    """Forget the package `name` and its modules, as _load imported them."""
    for module in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[module]


def _fresh_load(name: str, root: Path):
    """_load(name, root) after _drop(name), compiling every module from
    source: no bytecode cache is read or written, as in a fresh checkout run
    under PYTHONDONTWRITEBYTECODE=1, where each perfbench set-up compiles
    src/ again."""
    _drop(name)
    saved = sys.dont_write_bytecode, sys.pycache_prefix
    # a cache directory that does not exist: nothing is read from it, and
    # with dont_write_bytecode nothing is written to it
    sys.dont_write_bytecode, sys.pycache_prefix = True, str(root / ".no-bytecode-cache")
    try:
        return _load(name, root)
    finally:
        sys.dont_write_bytecode, sys.pycache_prefix = saved


def setup_parts(roots: dict, workloads_module, workloads: list, seed: int,
                tries: int = TRIES) -> dict:
    """Milliseconds of each part of perfbench/run.py's set-up of each
    workload at `seed`, on each checkout in `roots` (side: root): the fresh
    import of rbseries (_fresh_load), building the workload's operations,
    and the warm-up round (SETUP_PARTS). A try sets up every workload once
    on each side, the sides alternating and their order flipping each try,
    so a drift in the machine's speed reaches both sides alike. Each part's
    median and fastest of `tries`: side: workload: part: {median, fastest}."""
    times = {side: {w: {part: [] for part in SETUP_PARTS} for w in workloads} for side in roots}
    for i in range(tries):
        for w in workloads:
            for side in list(roots)[:: 1 if i % 2 == 0 else -1]:
                start = time.perf_counter()
                rb = _fresh_load(f"rbseries_setup_{side}", roots[side])
                imported = time.perf_counter()
                ops = workloads_module.build(w, seed, rb)
                built = time.perf_counter()
                _one_round(ops)
                ends = (imported, built, time.perf_counter())
                for part, begin, end in zip(SETUP_PARTS, (start,) + ends, ends):
                    times[side][w][part].append((end - begin) * 1000)
    for side in roots:
        _drop(f"rbseries_setup_{side}")
    return {side: {w: {part: {"median": round(statistics.median(ms), 3),
                              "fastest": round(min(ms), 3)}
                       for part, ms in by_part.items()}
                   for w, by_part in by_workload.items()}
            for side, by_workload in times.items()}


def _batch(timer: timeit.Timer) -> int:
    """The least power of two of calls that `timer` takes at least 10 ms to
    make, measured, since a first single call pays one-time costs and a
    batch sized from it runs short."""
    number = 1
    while timer.timeit(number) < 0.01:
        number *= 2
    return number


def _fastest(layers: dict) -> dict:
    """Seconds per call of each side's call of each layer in `layers` (name:
    side: call), under the same keys. A call takes microseconds to tens of
    milliseconds, so each try times a batch of calls lasting at least 10 ms.
    A round makes one try of every layer, the sides' batches alternating and
    their order flipping each round, and each side's fastest of TRIES rounds
    gives its per-call time. So a layer's tries spread over the whole run:
    the machine's speed can drift for seconds at a time, and 5 tries made
    back to back read a layer of 7-30 us per call 10-70 % apart from one run
    to the next."""
    timers = {name: {side: timeit.Timer(call) for side, call in calls.items()}
              for name, calls in layers.items()}
    numbers = {name: {side: _batch(timer) for side, timer in by_side.items()}
               for name, by_side in timers.items()}
    best = {name: dict.fromkeys(by_side, math.inf) for name, by_side in timers.items()}
    for i in range(TRIES):
        for name, by_side in timers.items():
            for side in list(by_side)[:: 1 if i % 2 == 0 else -1]:
                best[name][side] = min(best[name][side],
                                       by_side[side].timeit(numbers[name][side]))
    return {name: {side: best[name][side] / numbers[name][side] for side in by_side}
            for name, by_side in timers.items()}


def _layer_calls(rb) -> dict:
    """The solver and kernel calls on the package `rb`, under LAYER_KEYS:
    name: call."""
    rings, operators, solvers = rb.rings, rb.operators, rb.solvers

    def series(ring, cap, rng):
        """A series with zero constant term and entries p/q, |p| <= 3, q <= 3."""
        def entry():
            return rings.Q(rng.randint(-3, 3), rng.randint(1, 3))
        d = ring.dim
        return rb.series.TruncatedSeries.from_coeffs(ring, cap, [0] + [
            entry() if d == 1 else [[entry() for _ in range(d)] for _ in range(d)]
            for _ in range(cap)])

    qint = operators.OperatorSpec(operators.QINT, rings.rational("1/2"))
    ratio = rings.rational("-5/7")
    antider = operators.OperatorSpec(operators.ANTIDER)
    solver_calls = {}
    for d in DIMS:
        for cap in CAPS:
            rng = random.Random(100 * d + cap)
            a0, a1 = series(rings.matrix_ring(d), cap, rng), series(rings.matrix_ring(d), cap, rng)
            eq = solvers.EquationSpec(solvers.INHOM_LEFT, qint, a1, a0)
            right = solvers.EquationSpec(solvers.INHOM_RIGHT, qint, a1, a0)
            calls = {
                "picard_solve": lambda eq=eq: solvers.picard_solve(eq),
                "chi_lambda": lambda a1=a1: solvers.chi_lambda(qint, a1),
                "chi_zero": lambda a1=a1: solvers.chi_zero(antider, a1),
                "closed_solve": lambda eq=eq: solvers.closed_solve(eq),
                "closed_solve right": lambda right=right: solvers.closed_solve(right),
            }
            for name in SOLVERS:
                solver_calls[f"{name} {d}x{d} cap {cap}"] = calls[name]

    kernel_calls = {}
    for d in KERNEL_DIMS:
        ring = rings.RingDescriptor(d)
        for cap in CAPS + (MUL_CAP,):
            rng = random.Random(1000 + 100 * d + cap)
            x, y = series(ring, cap, rng), series(ring, cap, rng)
            round_trip = x.scale(ratio).scale(1 / ratio)
            calls = {
                "mul": lambda x=x, y=y: x * y,
                "apply": lambda x=x: operators.apply(qint, x),
                "tilde_apply": lambda x=x: operators.tilde_apply(qint, x),
                "exp": lambda x=x: x.exp(),
                "lambda_log": lambda x=x: x.lambda_log(1),
                "geom_inv": lambda x=x: x.geom_inv(1),
                "add": lambda x=x, y=y: x + y,
                "scale": lambda x=x: x.scale(ratio),
                "eq": lambda x=x, round_trip=round_trip: x == round_trip,
            }
            for name in KERNELS if cap in CAPS else ("mul",):
                kernel_calls[f"{name} {d}x{d} cap {cap}"] = calls[name]
    return dict(zip(LAYER_KEYS, (solver_calls, kernel_calls)))


def _layers(packages: dict) -> dict:
    """Fastest-batch milliseconds per call of each solver and kernel on each
    side's package in `packages` (side: package, as _load gives it), under
    LAYER_KEYS: side: key: name: ms. The sides' batches alternate per call,
    and the tries of every layer are made in rounds over all of them
    (_fastest)."""
    calls = {side: _layer_calls(rb) for side, rb in packages.items()}
    first = calls[next(iter(packages))]
    seconds = _fastest({(key, name): {side: calls[side][key][name] for side in packages}
                        for key in LAYER_KEYS for name in first[key]})
    timings = {side: {key: {} for key in LAYER_KEYS} for side in packages}
    for key, digits in zip(LAYER_KEYS, (3, 5)):
        for name in first[key]:
            for side, secs in seconds[key, name].items():
                timings[side][key][name] = round(secs * 1000, digits)
    return timings


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--layers", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--parent-rev")
    parser.add_argument("--change-rev")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    if args.layers is not None:
        layers = _layers({"change": _load("rbseries_change", args.layers)})["change"]
        names = [w["name"] for w in json.loads((args.layers / "BENCHMARK.json").read_text())
                 ["workloads"]]
        layers["setup_ms"] = setup_parts({"change": args.layers},
                                         _load_workloads(args.layers), names, args.seed)["change"]
        print(json.dumps(layers))
        return 0
    if None in (args.parent, args.change, args.parent_rev, args.change_rev, args.out):
        parser.error("--parent, --change, --parent-rev, --change-rev and --out are required")

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    workloads = [w["name"] for w in bench["workloads"]]
    runs = {w: {side: [] for side in sides} for w in workloads}
    for i in range(args.pairs):
        for w in workloads:
            for side in order(i):
                result = run_workload(sides[side], w, args.seed + i, args.seconds)
                runs[w][side].append(result)
                print(f"pair {i} {w} {side}: {result['metrics']['ops_per_s']['value']:.1f} ops/s",
                      file=sys.stderr)

    report = {}
    for w, by_side in runs.items():
        entry = {}
        for name, better in metrics.items():
            values = {side: [r["metrics"][name]["value"] for r in by_side[side]] for side in sides}
            entry[name] = paired(values, better, by_side["change"][0]["metrics"][name]["unit"])
        entry["failed"] = {side: sum(r["failed"] for r in by_side[side]) for side in sides}
        entry["attempted"] = {side: sum(r["attempted"] for r in by_side[side]) for side in sides}
        report[w] = entry

    sys.path.insert(0, str(args.change / "src"))
    from rbseries.rings import Q

    record = {
        "environment": {
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "backend": f"{Q.__module__}.{Q.__qualname__}",
            "parent": args.parent_rev,
            "change": args.change_rev,
        },
        "method": {
            "command": "python3 perfbench/run.py --trace 0",
            "seconds": args.seconds,
            "pairs": args.pairs,
            "seeds": [args.seed + i for i in range(args.pairs)],
            "order": "parent first on even pairs, change first on odd pairs",
        },
        "workloads": report,
    }
    packages = {side: _load(f"rbseries_{side}", root) for side, root in sides.items()}
    layers = _layers(packages)
    for key in LAYER_KEYS:
        record[key] = {side: layers[side][key] for side in sides}
    bounds = {name: {side: [] for side in sides} for name in BOUNDS}
    for i in range(args.pairs):
        for side in order(i):
            for name, secs in bound_times(sides[side]).items():
                bounds[name][side].append(secs)
    record["bounds_s"] = {name: paired(values, "lower", "s") for name, values in bounds.items()}
    record["layer_counts"] = {side: {w: layer_counts(root, w, args.seed) for w in workloads}
                              for side, root in sides.items()}
    workloads_module = _load_workloads(args.change)
    record["reduce_calls"] = reduce_calls(packages, workloads_module, workloads, args.seed)
    record["setup_ms"] = setup_parts(sides, workloads_module, workloads, args.seed)
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
