"""The four workloads: each is a fixed list of operations made from a seed.

An operation calls public functions of rbseries and returns their output; its
check compares that output with a result computed apart from the program
(oracle.py) or with a property the output must have. Checks read coefficient
values through `to_json` or the CLI's printed text, never through the
program's own `==`.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracle

Q_SET = ("1/2", "2/3", "-1/2", "3")
AXIOM_CAP = 16
AXIOM_SAMPLES = 2
NONCOMM_CAP = 6
NONCOMM_INPUTS = 2  # equations per (dimension, operator)
CLI_ORDER = 6


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], bool]  # True when the output is right
    known_fault: bool = False  # fails every time because of a known program fault


@dataclass(frozen=True)
class CliResult:
    code: object
    out: str
    err: str


def build(workload: str, seed: int, rb) -> list[Op]:
    """The operations of one round; `rb` holds the imported rbseries modules."""
    return BUILDERS[workload](seed, rb)


# ---------------------------------------------------------------------- axiom


def axiom_ops(seed: int, rb) -> list[Op]:
    """rb-axiom at cap 16 over the criterion-1 operators, dims 1 and 2."""
    ops = []
    for dim in (1, 2):
        configs = [(kind, q) for kind in ("qint", "qscale") for q in Q_SET]
        configs.append(("antider", None))
        for kind, q in configs:
            params = {"operator": kind, "order": AXIOM_CAP, "dim": dim,
                      "samples": AXIOM_SAMPLES, "seed": seed * 1000 + len(ops)}
            if q is not None:
                params["q"] = q
            ops.append(Op(
                f"rb-axiom {kind} q={q} dim={dim}",
                functools.partial(lambda p: rb.checks.run_check("rb-axiom", p), params),
                lambda report: report.status == "pass",
            ))
    return ops


# -------------------------------------------------------------- noncomm-solve


def random_matrix_series(rng: random.Random, d: int, cap: int, bound: int = 3) -> list:
    """cap+1 coefficients with a zero constant term, entries p/q, |p|, q <= bound."""
    series = [oracle.zero(d)]
    for _ in range(cap):
        series.append([[Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
                        for _ in range(d)] for _ in range(d)])
    return series


def series_check(expected: Callable[[], list]) -> Callable[[object], bool]:
    """Compare a program series, read through to_json, with the oracle's."""
    expected = functools.cache(expected)
    return lambda out: oracle.from_json(out.to_json()) == expected()


def noncomm_ops(seed: int, rb) -> list[Op]:
    """Left and right inhomogeneous equations over 2x2 and 3x3 matrices, cap 10.

    Each equation is solved by its closed form and, as a separate operation,
    by Picard iteration. The weight-0 closed form has no right-handed version.
    """
    rng = random.Random(seed)
    ops = []
    for d in (2, 3):
        ring = rb.rings.matrix_ring(d)
        for kind, q in (("qint", "1/2"), ("qscale", "1/2"), ("antider", None)):
            op = rb.operators.OperatorSpec(kind, q)
            for k in range(NONCOMM_INPUTS):
                a0 = random_matrix_series(rng, d, NONCOMM_CAP)
                a1 = random_matrix_series(rng, d, NONCOMM_CAP)
                s0 = rb.series.TruncatedSeries.from_coeffs(ring, NONCOMM_CAP, a0)
                s1 = rb.series.TruncatedSeries.from_coeffs(ring, NONCOMM_CAP, a1)
                for side in ("left", "right"):
                    form = rb.solvers.INHOM_LEFT if side == "left" else rb.solvers.INHOM_RIGHT
                    eq = rb.solvers.EquationSpec(form, op, s1, s0)
                    check = series_check(functools.partial(oracle.solve, kind, q, a1, a0, side))
                    label = f"{d}x{d} {kind} {side} #{k}"
                    if kind == "antider":
                        if side == "left":
                            closed = functools.partial(lambda e: rb.solvers.inhom_closed_weight0(e), eq)
                            ops.append(Op(f"{label} closed", closed, check))
                    else:
                        closed = functools.partial(
                            lambda e, s: rb.solvers.inhom_closed_noncommutative(e, s), eq, side)
                        ops.append(Op(f"{label} closed", closed, check))
                    picard = functools.partial(lambda e: rb.solvers.picard_solve(e), eq)
                    ops.append(Op(f"{label} picard", picard, check))
    return ops


# ---------------------------------------------------------------------- suite


def suite_check(entry) -> Callable[[object], bool]:
    """Status as the manifest expects; printed Eulerian forms fail at t^1 with
    the lhs and rhs their closed forms in q give."""
    variant = entry.identity_id.removeprefix("eulerian-")

    def check(report) -> bool:
        if report.status != entry.expected:
            return False
        if not variant.endswith("-printed"):
            return True
        mm = report.first_mismatch
        if mm is None or mm.power != 1:
            return False
        lhs, rhs = oracle.eulerian_printed_t1(variant, entry.params["q"])
        return (Fraction(mm.lhs), Fraction(mm.rhs)) == (lhs, rhs)

    return check


def suite_ops(seed: int, rb) -> list[Op]:
    """Every entry of the default manifest, with its own params and seeds.

    The manifest fixes its inputs, so the seed does not change this workload.
    """
    ops = []
    for i, entry in enumerate(rb.checks.default_manifest().entries):
        call = functools.partial(
            lambda e: rb.checks.run_check(e.identity_id, e.params), entry)
        ops.append(Op(f"{i:02d} {entry.identity_id}", call, suite_check(entry)))
    return ops


# ------------------------------------------------------------------ cli-small


def cli_call(rb, argv: list[str]) -> Callable[[], CliResult]:
    def call() -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = rb.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return CliResult(code, out.getvalue(), err.getvalue())

    return call


def random_scalar_series(rng: random.Random, cap: int) -> list:
    return [[[Fraction(0)]]] + [[[Fraction(rng.randint(-4, 4), rng.randint(1, 4))]]
                                for _ in range(cap)]


def csv(series: list) -> str:
    return ",".join(str(c[0][0]) for c in series)


def solve_check(fmt: str, expected: Callable[[], list]) -> Callable[[CliResult], bool]:
    expected = functools.cache(expected)

    def check(res: CliResult) -> bool:
        if res.code != 0:
            return False
        got = oracle.from_json(json.loads(res.out)) if fmt == "json" else oracle.from_csv(res.out)
        return got == expected()

    return check


def verify_check(fmt: str, status: str) -> Callable[[CliResult], bool]:
    def check(res: CliResult) -> bool:
        if res.code != 0:
            return False
        if fmt == "json":
            return [r["status"] for r in json.loads(res.out)] == [status]
        return res.out.rstrip("\n").endswith(f" {status.upper()}")

    return check


MISMATCH = re.compile(r"first mismatch at t\^(\d+): lhs=(\S+), rhs=(\S+)\)")


def printed_check(fmt: str, variant: str, q: str) -> Callable[[CliResult], bool]:
    """`verify <printed form> --expect fail`: exit 0, mismatch at t^1 with the
    closed-form lhs and rhs."""
    want = (1, *oracle.eulerian_printed_t1(variant, q))

    def check(res: CliResult) -> bool:
        if res.code != 0:
            return False
        if fmt == "json":
            mm = json.loads(res.out)[0]["first_mismatch"]
            got = (mm["power"], Fraction(mm["lhs"]), Fraction(mm["rhs"]))
        else:
            found = MISMATCH.search(res.out)
            if found is None:
                return False
            got = (int(found[1]), Fraction(found[2]), Fraction(found[3]))
        return got == want

    return check


def usage_error_check(res: CliResult) -> bool:
    """A bad argument exits 2 with a one-line message and prints nothing else."""
    lines = res.err.strip().splitlines()
    return res.code == 2 and res.out == "" and len(lines) == 1 and lines[0].startswith("error:")


def cli_ops(seed: int, rb) -> list[Op]:
    """Small scalar `solve` and `verify` calls through cli.main, in process.

    Three calls pass a bad --dim or --samples; they must exit 2 with a one-line
    message, and fail every time until the CLI validates those flags.
    """
    rng = random.Random(seed)
    ops = []
    for kind in ("qint", "qscale", "antider"):
        q = rng.choice(Q_SET + ("5/7",)) if kind != "antider" else None
        for equation in ("inhom-left", "homogeneous"):
            a1 = random_scalar_series(rng, CLI_ORDER)
            a0 = random_scalar_series(rng, CLI_ORDER) if equation != "homogeneous" else None
            expected = functools.partial(oracle.solve, kind, q, a1, a0, "left")
            for method in ("picard", "closed"):
                for fmt in ("text", "json"):
                    argv = ["solve", "--equation", equation, "--operator", kind,
                            "--a1", csv(a1), "--order", str(CLI_ORDER),
                            "--method", method, "--format", fmt]
                    if a0 is not None:
                        argv += ["--a0", csv(a0)]
                    if q is not None:
                        argv.append(f"--q={q}")  # argparse reads "--q -1/2" as two flags
                    ops.append(Op(f"solve {kind} {equation} {method} {fmt}",
                                  cli_call(rb, argv), solve_check(fmt, expected)))
    for ident, extra in (("rb-axiom", ["--operator", "qint", "--q", "1/2", "--order", "6",
                                      "--samples", "2"]),
                         ("spitzer", ["--operator", "qscale", "--q", "2/3", "--order", "8",
                                      "--samples", "2"]),
                         ("eulerian-prop-two", ["--q", "1/2", "--order", "10"])):
        for fmt in ("text", "json"):
            argv = ["verify", ident, *extra, "--seed", str(rng.randrange(10**6)),
                    "--format", fmt]
            ops.append(Op(f"verify {ident} {fmt}", cli_call(rb, argv), verify_check(fmt, "pass")))
    for variant, fmt in (("prop-one-printed", "text"), ("qbinomial-printed", "json")):
        argv = ["verify", f"eulerian-{variant}", "--q", "2/3", "--order", "8",
                "--expect", "fail", "--format", fmt]
        ops.append(Op(f"verify eulerian-{variant} {fmt}", cli_call(rb, argv),
                      printed_check(fmt, variant, "2/3")))
    for argv in (["verify", "rb-axiom", "--dim", "0", "--order", "4"],
                 ["solve", "--dim", "-2", "--operator", "antider", "--a0", "0,1",
                  "--a1", "0,1", "--order", "4"],
                 ["verify", "rb-axiom", "--samples", "-3", "--order", "4"]):
        ops.append(Op("bad " + " ".join(argv[:4]), cli_call(rb, argv), usage_error_check,
                      known_fault=True))
    return ops


BUILDERS = {
    "axiom": axiom_ops,
    "noncomm-solve": noncomm_ops,
    "suite": suite_ops,
    "cli-small": cli_ops,
}
