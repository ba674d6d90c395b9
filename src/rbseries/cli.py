"""Command-line front end: run single checks, full suites, or solvers.

Exit codes: 0 all statuses matched expectations, 1 on mismatch, 2 on usage
errors, 130 when interrupted (Ctrl-C). Rationals are always rendered as exact
'p/q' strings, never floats.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import asdict
from typing import Optional, Sequence

from .checks import (
    DOMAIN_ERROR,
    FAIL,
    PASS,
    PARAMS,
    CheckReport,
    IDENTITIES,
    ManifestError,
    ParamError,
    default_manifest,
    load_manifest_file,
    operator_of,
    read_params,
    run_check,
    run_suite,
    suite_ok,
)
from .rings import RingDescriptor
from .series import DomainError, TruncatedSeries, parse_series
from .solvers import FORMS, INHOM_LEFT, EquationError, EquationSpec, closed_solve, picard_solve

# The params of checks.PARAMS that verify and solve take as flags, in the
# order a verify report echoes them.
VERIFY_FLAGS = ("operator", "order", "dim", "seed", "samples", "q")
SOLVE_FLAGS = ("operator", "order", "dim", "q")


class UsageError(ValueError):
    pass


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

    p_verify = sub.add_parser("verify", help="run a single identity check")
    p_verify.add_argument("identity", help="identity id, e.g. eulerian-prop-two")
    p_verify.add_argument(
        "--expect", choices=(PASS, FAIL, DOMAIN_ERROR), default=PASS
    )

    p_suite = sub.add_parser("suite", help="run a check manifest")
    p_suite.add_argument("--manifest", help="path to a manifest JSON file")

    p_solve = sub.add_parser("solve", help="solve a linear equation")
    p_solve.add_argument("--equation", choices=FORMS, default=INHOM_LEFT)
    p_solve.add_argument(
        "--method", choices=("picard", "closed"), default="picard"
    )
    p_solve.add_argument("--a0", help="series coefficients c0,c1,... e.g. 0,1")
    p_solve.add_argument("--a1", help="series coefficients c0,c1,...")

    # values arrive as text, read by checks.PARAMS when the command runs
    for p, flags in ((p_verify, VERIFY_FLAGS), (p_suite, ()), (p_solve, SOLVE_FLAGS)):
        for name in flags:
            param = PARAMS[name]
            p.add_argument(f"--{name}", default=param.default,
                           help=f"{param.help} (default {param.default})")
        p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _parse_series(text: str, flag: str, ring: RingDescriptor, cap: int) -> TruncatedSeries:
    try:
        return parse_series(text, ring, cap)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{flag}: malformed series {text!r}")


def report_to_dict(report: CheckReport) -> dict:
    mm = report.first_mismatch and asdict(report.first_mismatch)
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
    # Every flag is read, but the check gets (and its report echoes) only the
    # ones it reads; run_check reads those.
    flags = {name: getattr(args, name) for name in VERIFY_FLAGS}
    unread = {name: flags.pop(name) for name in VERIFY_FLAGS if name not in reads}
    read_params(unread, unread)
    report = run_check(args.identity, flags)
    print(emit_report([report], args.format))
    return 0 if report.status == args.expect else 1


def _cmd_suite(args: argparse.Namespace) -> int:
    if args.manifest:
        try:
            manifest = load_manifest_file(args.manifest)
        except (ManifestError, OSError) as exc:
            raise UsageError(f"--manifest: {exc}")
    else:
        manifest = default_manifest()
    reports = run_suite(manifest)
    print(emit_report(reports, args.format))
    return 0 if suite_ok(manifest, reports) else 1


def _cmd_solve(args: argparse.Namespace) -> int:
    params = read_params(SOLVE_FLAGS, {name: getattr(args, name) for name in SOLVE_FLAGS})
    if not (args.a1 or "").strip():
        raise UsageError("solve requires --a1")
    ring, cap = RingDescriptor(params["dim"]), params["order"]
    a1 = _parse_series(args.a1, "--a1", ring, cap)
    a0 = None if args.a0 is None else _parse_series(args.a0, "--a0", ring, cap)
    try:
        eq = EquationSpec(args.equation, operator_of(params["operator"], params.get("q")), a1, a0)
        solution = picard_solve(eq) if args.method == "picard" else closed_solve(eq)
    except EquationError as exc:
        raise UsageError(f"--{exc}")
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
    except ParamError as exc:
        print(f"error: --{exc}", file=sys.stderr)
        return 2
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
