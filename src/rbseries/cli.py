"""Command-line front end: run single checks, full suites, or solvers.

Exit codes: 0 all statuses matched expectations, 1 on mismatch, 2 on usage
errors. Rationals are always rendered as exact 'p/q' strings, never floats.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from typing import Optional, Sequence

from .checks import (
    DOMAIN_ERROR,
    FAIL,
    PASS,
    CheckReport,
    IDENTITIES,
    ManifestError,
    UnknownIdentityError,
    default_manifest,
    int_param,
    load_manifest_file,
    run_check,
    run_suite,
    suite_ok,
)
from .operators import ANTIDER, KINDS, QINT, OperatorSpec
from .rings import RingDescriptor, matrix_ring, rational, scalar_ring
from .series import DomainError, TruncatedSeries, parse_series
from .solvers import FORMS, HOMOGENEOUS, INHOM_LEFT, EquationSpec, closed_solve, picard_solve


class UsageError(ValueError):
    pass


def _parse_rational(text: str, flag: str):
    try:
        return rational(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{flag}: malformed rational {text!r}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one. Do not mutate it: parse_args only reads it, filling a fresh
    Namespace per call."""
    parser = argparse.ArgumentParser(
        prog="rbseries",
        description="Exact verification and solving of Rota-Baxter series identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--operator", choices=KINDS, default="qint")
        p.add_argument("--q", default="1/2", help="rational parameter, e.g. 1/2")
        p.add_argument("--order", type=int, default=16, help="truncation cap")
        p.add_argument("--dim", type=int, default=1, help="matrix dimension (1 = scalar)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=10)
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_verify = sub.add_parser("verify", help="run a single identity check")
    p_verify.add_argument("identity", help="identity id, e.g. eulerian-prop-two")
    common(p_verify)
    p_verify.add_argument(
        "--expect", choices=(PASS, FAIL, DOMAIN_ERROR), default=PASS
    )

    p_suite = sub.add_parser("suite", help="run a check manifest")
    p_suite.add_argument("--manifest", help="path to a manifest JSON file")
    p_suite.add_argument("--format", choices=("text", "json"), default="text")

    p_solve = sub.add_parser("solve", help="solve a linear equation")
    p_solve.add_argument("--equation", choices=FORMS, default=INHOM_LEFT)
    p_solve.add_argument(
        "--method", choices=("picard", "closed"), default="picard"
    )
    common(p_solve)
    p_solve.add_argument("--a0", help="series coefficients c0,c1,... e.g. 0,1")
    p_solve.add_argument("--a1", help="series coefficients c0,c1,...")
    return parser


def _check_params(args: argparse.Namespace, reads: frozenset) -> dict:
    """The flags among `reads`, the params a check reads; q only if the check
    takes no operator flag or the operator takes a q."""
    has_q = "operator" not in reads or args.operator != ANTIDER
    return {name: getattr(args, name)
            for name in ("operator", "order", "dim", "seed", "samples", "q")
            if name in reads and (name != "q" or has_q)}


def _parse_series(text: str, flag: str, ring: RingDescriptor, cap: int) -> TruncatedSeries:
    try:
        return parse_series(text, ring, cap)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{flag}: malformed series {text!r}")


def _validate(args: argparse.Namespace, kind: Optional[str] = None) -> OperatorSpec:
    """Reject out-of-range values of the flags common to verify and solve, and
    return the operator of `kind` (by default the one they name) and --q."""
    for flag in ("order", "dim", "samples"):
        try:
            int_param(flag, getattr(args, flag))
        except ValueError as exc:
            raise UsageError(f"--{exc}")
    kind = kind or args.operator
    if kind == ANTIDER:
        return OperatorSpec(ANTIDER)
    q = _parse_rational(args.q, "--q")
    try:
        return OperatorSpec(kind, q)
    except ValueError as exc:
        raise UsageError(f"--q: {exc}")


def report_to_dict(report: CheckReport) -> dict:
    mm = None
    if report.first_mismatch is not None:
        mm = {
            "power": report.first_mismatch.power,
            "lhs": report.first_mismatch.lhs,
            "rhs": report.first_mismatch.rhs,
        }
    return {
        "identity_id": report.identity_id,
        "params": {k: str(v) for k, v in report.params.items()},
        "status": report.status,
        "first_mismatch": mm,
        "elapsed_ms": round(report.elapsed * 1000, 3),
    }


def emit_report(reports: Sequence[CheckReport], fmt: str) -> str:
    if fmt == "json":
        return json.dumps([report_to_dict(r) for r in reports], indent=2)
    lines = []
    for r in reports:
        params = " ".join(f"{k}={v}" for k, v in r.params.items())
        line = f"{r.identity_id} [{params}] {r.status.upper()}"
        if r.first_mismatch is not None:
            mm = r.first_mismatch
            line += f" (first mismatch at t^{mm.power}: lhs={mm.lhs}, rhs={mm.rhs})"
        lines.append(line)
    return "\n".join(lines)


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.identity not in IDENTITIES:
        raise UsageError(f"unknown identity id: {args.identity!r}")
    reads = IDENTITIES[args.identity].reads
    # a check that takes no operator flag reads q as the q-integral's
    _validate(args, None if "operator" in reads else QINT)
    report = run_check(args.identity, _check_params(args, reads))
    print(emit_report([report], args.format))
    return 0 if report.status == args.expect else 1


def _cmd_suite(args: argparse.Namespace) -> int:
    if args.manifest:
        try:
            manifest = load_manifest_file(args.manifest)
        except ManifestError as exc:
            raise UsageError(f"--manifest: {exc}")
    else:
        manifest = default_manifest()
    try:
        reports = run_suite(manifest)
    except UnknownIdentityError as exc:
        raise UsageError(f"unknown identity id in manifest: {exc.args[0]!r}")
    print(emit_report(reports, args.format))
    return 0 if suite_ok(manifest, reports) else 1


def _cmd_solve(args: argparse.Namespace) -> int:
    op = _validate(args)
    ring = scalar_ring() if args.dim == 1 else matrix_ring(args.dim)
    if not args.a1:
        raise UsageError("solve requires --a1")
    if args.equation != HOMOGENEOUS and not args.a0:
        raise UsageError(f"--equation {args.equation} requires --a0")
    a1 = _parse_series(args.a1, "--a1", ring, args.order)
    a0 = _parse_series(args.a0, "--a0", ring, args.order) if args.a0 else None
    try:
        eq = EquationSpec(args.equation, op, a1, None if args.equation == HOMOGENEOUS else a0)
        solution = picard_solve(eq) if args.method == "picard" else closed_solve(eq)
    except (ValueError, DomainError) as exc:
        raise UsageError(str(exc))
    if args.format == "json":
        print(json.dumps(solution.to_json()))
    else:
        print(solution)
    return 0


_NEGATIVE_VALUE = re.compile(r"-[\d.]")


def _join_negative_values(argv: Sequence[str]) -> list[str]:
    """Join a value such as -1/2 to the long flag before it (`--q=-1/2`).

    argparse reads an argument that starts with '-' as a flag unless it looks
    like a negative int or decimal; no flag here starts with '-' and a digit.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and _NEGATIVE_VALUE.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "suite":
            return _cmd_suite(args)
        return _cmd_solve(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
