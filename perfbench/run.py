#!/usr/bin/env python3
"""Benchmark of rbseries, run from the root of a source checkout:

    python3 perfbench/run.py --workload axiom --seed 1 --seconds 10 --trace 0

It imports the package from ./src, builds the workload's operations from the
seed, and repeats them over whole rounds after an untimed warm-up. The number
of rounds follows from --seconds and a fixed nominal round time per workload,
so a run does a fixed list of work for given arguments, whatever the machine's
speed. Every output is checked against a result computed apart from the
program. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones; with --trace 1 they are per-layer figures from a run
whose calls into each layer are wrapped in spans (spans.py), and the spans are
written to .perfbench/ at the checkout root.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

# Seconds one round took on the reference machine (README); fixes the round
# count for a given --seconds.
NOMINAL_ROUND_S = {"axiom": 0.08, "noncomm-solve": 0.2, "suite": 2.0, "cli-small": 0.07}
MIN_ROUNDS = 5
SETUPS = 7  # set-ups per run; setup_s is their median
MODULES = ("rings", "series", "operators", "solvers", "checks", "cli")


def import_program() -> SimpleNamespace:
    """A fresh import of rbseries from ./src, with empty module-level caches."""
    for name in [n for n in sys.modules if n == "rbseries" or n.startswith("rbseries.")]:
        del sys.modules[name]
    package = importlib.import_module("rbseries")
    if Path(package.__file__).resolve().parent != (SRC / "rbseries").resolve():
        raise ImportError(f"rbseries was imported from {package.__file__}, not from {SRC}")
    mods = {name: importlib.import_module(f"rbseries.{name}") for name in MODULES}
    return SimpleNamespace(package=package, **mods)


def set_up(workload: str, seed: int):
    """Import, build the inputs (the manifest too) and warm up with one round."""
    start = time.perf_counter()
    rb = import_program()
    ops = workloads.build(workload, seed, rb)
    for op in ops:
        try:
            op.call()
        except Exception:
            pass  # a failing operation is counted in the timed rounds
    return time.perf_counter() - start, rb, ops


def attempt(op, run=None, perturb=None) -> tuple[bool, float]:
    """Time one operation; True when it returned and its output checks out.

    `run(call)` runs the call (the tracer passes its own); `perturb` alters the
    output before the check, for the self-test.
    """
    start = time.perf_counter()
    try:
        out = op.call() if run is None else run(op.call)
    except Exception:
        return False, time.perf_counter() - start
    elapsed = time.perf_counter() - start
    if perturb is not None:
        out = perturb(out)
    try:
        return bool(op.check(out)), elapsed
    except Exception:
        return False, elapsed


def measure(ops, rounds: int, tracer: Tracer | None = None):
    """All ops over `rounds` rounds: per-op latencies and the failed ops."""
    latencies = [[] for _ in ops]
    failures = []
    for r in range(rounds):
        gc.collect()
        for i, op in enumerate(ops):
            run = None
            if tracer is not None:
                op_id = r * len(ops) + i
                run = lambda call, op_id=op_id, name=op.name: tracer.operation(op_id, name, call)
            ok, elapsed = attempt(op, run)
            latencies[i].append(elapsed)
            if not ok:
                failures.append(op)
    return latencies, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rbseries" / "__init__.py").is_file():
        print(f"error: no rbseries package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setups = []
    for _ in range(SETUPS):
        seconds, rb, ops = set_up(args.workload, args.seed)
        setups.append(seconds)
    rounds = max(MIN_ROUNDS, round(args.seconds / NOMINAL_ROUND_S[args.workload]))

    tracer = None
    if args.trace:
        # Spans slow a round down 1.4-3.1x; the per-layer figures are per
        # round, so a third of the rounds keeps the traced run about as long.
        rounds = max(MIN_ROUNDS, rounds // 3)
        tracer = Tracer()
        tracer.install(rb)
    started = time.perf_counter()
    latencies, failures = measure(ops, rounds, tracer)
    wall = time.perf_counter() - started
    if tracer is not None:
        tracer.uninstall()

    # An operation's latency is its fastest round. On a shared host the speed
    # of the same code swings by up to 1.8x with neighbouring load, in bursts
    # of milliseconds to seconds; the fastest of many rounds repeats across
    # runs far better than the mean or the median round does (README).
    estimates = [min(s) for s in latencies]
    completed = len(ops) - len(failures) / rounds
    ops_per_s = completed / sum(estimates)
    known = {op.name for op in ops if op.known_fault}
    correct = all(op.name in known for op in failures)
    for op in sorted({op.name for op in failures}):
        print(f"failed: {op}" + (" (known fault)" if op in known else ""), file=sys.stderr)
    print(f"{args.workload}: {rounds} rounds of {len(ops)} ops in {wall:.1f} s, "
          f"set-ups {', '.join(f'{s:.3f}' for s in setups)} s", file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "op_p50_ms": (statistics.median(estimates) * 1000, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json.gz")
        metrics = {name: (value, "ms" if name.endswith(".ms") else
                          "bits" if name.endswith("bits") else "count")
                   for name, value in tracer.metrics(rounds).items()}
        metrics["traced.ops_per_s"] = (ops_per_s, "1/s")
    print(json.dumps({
        "correct": correct,
        "attempted": rounds * len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
