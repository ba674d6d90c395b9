#!/usr/bin/env python3
"""Self-test of the benchmark's output checks, run from the checkout root:

    python3 perfbench/selftest.py

For operations of every workload it runs the program once, requires the true
output to pass its check, then alters the output the way a fault would (one
coefficient of a solution moved by 10^-30, one status flipped, one printed
mismatch value moved) and requires `run.attempt`, the function the benchmark
counts failures with, to report the operation as failed. Exits 1 on any miss.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction

import run
import workloads

DELTA = Fraction(1, 10**30)
FLIP = {"pass": "fail", "fail": "pass", "domain-error": "pass"}


def nudge(text: str) -> str:
    return str(Fraction(text) + DELTA)


def perturb_series(series):
    """The series with entry (0, 0) of its last coefficient moved by DELTA."""
    coeffs = list(series.coeffs)
    last = coeffs[-1]
    if isinstance(last.value, tuple):
        rows = [list(row) for row in last.value]
        rows[0][0] += DELTA
        coeffs[-1] = series.ring.element(rows)
    else:
        coeffs[-1] = series.ring.element(last.value + DELTA)
    return type(series)(series.ring, series.cap, coeffs)


def perturb_report(report):
    return dataclasses.replace(report, status=FLIP[report.status])


def perturb_mismatch(report):
    mm = dataclasses.replace(report.first_mismatch, lhs=nudge(report.first_mismatch.lhs))
    return dataclasses.replace(report, first_mismatch=mm)


def perturb_cli(op):
    """An output alteration matched to what the call prints."""
    def perturb(res):
        if op.name.startswith("solve"):
            if res.out.lstrip().startswith("["):
                values = json.loads(res.out)
                values[-1] = nudge(values[-1])
                out = json.dumps(values)
            else:
                values = res.out.strip().split(",")
                values[-1] = nudge(values[-1])
                out = ",".join(values)
        elif "printed" in op.name:
            if res.out.lstrip().startswith("["):
                reports = json.loads(res.out)
                mm = reports[0]["first_mismatch"]
                mm["lhs"] = nudge(mm["lhs"])
                out = json.dumps(reports)
            else:
                lhs = workloads.MISMATCH.search(res.out)[2]
                out = res.out.replace(f"lhs={lhs}", f"lhs={nudge(lhs)}")
        elif res.out.lstrip().startswith("["):
            reports = json.loads(res.out)
            reports[0]["status"] = FLIP[reports[0]["status"]]
            out = json.dumps(reports)
        else:
            out = res.out.replace(" PASS", " FAIL")
        return dataclasses.replace(res, out=out)

    return perturb


def perturbations(workload: str, op) -> list:
    if workload == "noncomm-solve":
        return [perturb_series]
    if workload == "cli-small":
        return [perturb_cli(op)]
    if workload == "suite" and op.name.endswith("-printed"):
        return [perturb_report, perturb_mismatch]
    return [perturb_report]


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    rb = run.import_program()
    misses = checked = 0
    for workload in workloads.BUILDERS:
        ops = workloads.build(workload, 1, rb)
        if workload in ("axiom", "noncomm-solve"):
            ops = ops[::4]  # a spread of the operations keeps this quick
        for op in ops:
            ok, _ = run.attempt(op)
            if ok == op.known_fault:
                print(f"MISS {workload} {op.name}: true output judged "
                      f"{'right' if ok else 'wrong'}")
                misses += 1
            if op.known_fault:
                continue
            for perturb in perturbations(workload, op):
                ok, _ = run.attempt(op, perturb=perturb)
                checked += 1
                if ok:
                    print(f"MISS {workload} {op.name}: {perturb.__name__} not caught")
                    misses += 1
    print(f"self-test: {checked} altered outputs, {misses} misses")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
