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
for neither) and the failed operations; then fastest-of-k timings on each side
of the solvers at caps 6, 10 and 16 over 2x2 and 3x3 matrices (closed_solve on
the left- and the right-handed equation), and of the kernels (x*y, apply,
tilde_apply, exp, lambda_log(1), geom_inv(1)) at the same caps, and of x*y at
cap 30 too, over scalars and 2x2 and 3x3 matrices, taken in two runs per side
(parent, change, change, parent) and each the faster of its side's two; the
wall time of each acceptance bound (the pytest nodes of criteria 1 and 4, and
`python -m rbseries.cli suite`), run as a subprocess three times per side in
the order parent, change, change, parent, parent, change, as each side's
median; the exact work counts per round (every metric of unit count: the
layers' calls and products) of one traced run (`perfbench/run.py --trace 1`)
per side and workload, at the first pair's seed; and the environment. Standard
library only.

    python3 tools/bench_record.py --layers DIR

prints only those fastest-of-k timings for the checkout at DIR, as one JSON
object with the keys solvers_fastest_ms and kernels_fastest_ms.
"""

from __future__ import annotations

import argparse
import json
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
KERNELS = ("mul", "apply", "tilde_apply", "exp", "lambda_log", "geom_inv")
MUL_CAP = 30  # the product alone is also timed at this cap
LAYER_KEYS = ("solvers_fastest_ms", "kernels_fastest_ms")
CRITERIA = ("test_criterion_1_rota_baxter_axiom", "test_criterion_4_noncommutative_inhomogeneous")
BOUNDS = {  # name: interpreter arguments
    **{node: ("-m", "pytest", "-q", "-p", "no:cacheprovider", f"tests/test_acceptance.py::{node}")
       for node in CRITERIA},
    "rbseries suite": ("-m", "rbseries.cli", "suite"),
}
BOUND_ORDER = ("parent", "change", "change", "parent", "parent", "change")
COUNT_SECONDS = 3  # length of the traced run that gives the layer counts


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


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


def layer_timings(root: Path) -> dict:
    """This script's --layers mode, run on the checkout at `root`."""
    out = subprocess.run(
        [sys.executable, __file__, "--layers", str(root)],
        check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out)


def _layers(root: Path) -> dict:
    """Fastest-of-k milliseconds of each solver and kernel, importing rbseries
    from root, under LAYER_KEYS."""
    sys.path.insert(0, str(root / "src"))
    import rbseries as rb
    from rbseries import solvers

    def series(ring, cap, rng):
        """A series with zero constant term and entries p/q, |p| <= 3, q <= 3."""
        def entry():
            return rb.rational(rng.randint(-3, 3), rng.randint(1, 3))
        d = ring.dim
        return rb.TruncatedSeries.from_coeffs(ring, cap, [0] + [
            entry() if d == 1 else [[entry() for _ in range(d)] for _ in range(d)]
            for _ in range(cap)])

    qint = rb.OperatorSpec(rb.QINT, rb.rational("1/2"))
    antider = rb.OperatorSpec(rb.ANTIDER)
    solver_ms = {}
    for d in DIMS:
        for cap in CAPS:
            rng = random.Random(100 * d + cap)
            a0, a1 = series(rb.matrix_ring(d), cap, rng), series(rb.matrix_ring(d), cap, rng)
            eq = solvers.EquationSpec(solvers.INHOM_LEFT, qint, a1, a0)
            right = solvers.EquationSpec(solvers.INHOM_RIGHT, qint, a1, a0)
            calls = {
                "picard_solve": lambda: solvers.picard_solve(eq),
                "chi_lambda": lambda: solvers.chi_lambda(qint, a1),
                "chi_zero": lambda: solvers.chi_zero(antider, a1),
                "closed_solve": lambda: solvers.closed_solve(eq),
                "closed_solve right": lambda: solvers.closed_solve(right),
            }
            k = 7 if cap < 16 else 3
            for name in SOLVERS:
                best = float("inf")
                for _ in range(k):
                    start = time.perf_counter()
                    calls[name]()
                    best = min(best, time.perf_counter() - start)
                solver_ms[f"{name} {d}x{d} cap {cap}"] = round(best * 1000, 3)

    # A kernel call takes microseconds, so each of 5 tries times a batch of
    # calls lasting about 10 ms, and the fastest batch gives the per-call time.
    kernel_ms = {}
    for d in KERNEL_DIMS:
        ring = rb.RingDescriptor(d)
        for cap in CAPS + (MUL_CAP,):
            rng = random.Random(1000 + 100 * d + cap)
            x, y = series(ring, cap, rng), series(ring, cap, rng)
            calls = {
                "mul": lambda: x * y,
                "apply": lambda: rb.apply(qint, x),
                "tilde_apply": lambda: rb.tilde_apply(qint, x),
                "exp": lambda: x.exp(),
                "lambda_log": lambda: x.lambda_log(1),
                "geom_inv": lambda: x.geom_inv(1),
            }
            for name in KERNELS if cap in CAPS else ("mul",):
                timer = timeit.Timer(calls[name])
                number = max(1, round(0.01 / timer.timeit(1)))
                best = min(timer.repeat(5, number)) / number
                kernel_ms[f"{name} {d}x{d} cap {cap}"] = round(best * 1000, 5)
    return dict(zip(LAYER_KEYS, (solver_ms, kernel_ms)))


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
        print(json.dumps(_layers(args.layers)))
        return 0
    if None in (args.parent, args.change, args.parent_rev, args.change_rev, args.out):
        parser.error("--parent, --change, --parent-rev, --change-rev and --out are required")

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    workloads = [w["name"] for w in bench["workloads"]]
    runs = {w: {side: [] for side in sides} for w in workloads}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in workloads:
            for side in order:
                result = run_workload(sides[side], w, args.seed + i, args.seconds)
                runs[w][side].append(result)
                print(f"pair {i} {w} {side}: {result['metrics']['ops_per_s']['value']:.1f} ops/s",
                      file=sys.stderr)

    report = {}
    for w, by_side in runs.items():
        entry = {}
        for name, better in metrics.items():
            values = {side: [r["metrics"][name]["value"] for r in by_side[side]] for side in sides}
            sign = 1 if better == "higher" else -1
            wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
            entry[name] = {
                "unit": by_side["change"][0]["metrics"][name]["unit"],
                "parent": quartiles(values["parent"]),
                "change": quartiles(values["change"]),
                "change_wins": wins,
                "runs": {side: [round(v, 4) for v in values[side]] for side in sides},
            }
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
    # Two layer runs per side, in the order parent, change, change, parent, so
    # a drift in the machine's speed reaches both sides alike; each figure is
    # the faster of its side's two.
    layers = {side: [] for side in sides}
    for side in ("parent", "change", "change", "parent"):
        layers[side].append(layer_timings(sides[side]))
    for key in LAYER_KEYS:
        record[key] = {side: {name: min(run[key][name] for run in runs)
                              for name in runs[0][key]}
                       for side, runs in layers.items()}
    bounds = {side: [] for side in sides}
    for side in BOUND_ORDER:
        bounds[side].append(bound_times(sides[side]))
    record["bounds_s"] = {side: {name: round(statistics.median(run[name] for run in runs), 3)
                                 for name in BOUNDS}
                          for side, runs in bounds.items()}
    record["layer_counts"] = {side: {w: layer_counts(root, w, args.seed) for w in workloads}
                              for side, root in sides.items()}
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
