"""Command-line front end: run single checks, full suites, or solvers.

Exit codes: 0 all statuses matched expectations, 1 on mismatch, 2 on usage
errors, 130 when interrupted (Ctrl-C). Rationals are always rendered as exact
'p/q' strings, never floats.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import asdict
from types import SimpleNamespace
from typing import Optional, Sequence

from .checks import (
    PASS,
    PARAMS,
    STATUSES,
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
def build_parser() -> dict:
    """The flag table that the reader and --help both read: command -> (the
    function that runs it, its operands, {flag -> (default, help, or the values
    it takes)}). verify's one operand is the identity id. A flag of
    checks.PARAMS takes its default and help from there. Built on the first
    call and shared by every later one; do not mutate it."""
    def flags(params, **own):
        table = {name: (PARAMS[name].default, PARAMS[name].help) for name in params}
        return {**table, **own, "format": ("text", ("text", "json"))}

    series = (None, "series coefficients c0,c1,... e.g. 0,1")
    return {
        "verify": (_cmd_verify, ("IDENTITY",), flags(VERIFY_FLAGS, expect=(PASS, STATUSES))),
        "suite": (_cmd_suite, (), flags((), manifest=(None, "path to a manifest JSON file"))),
        "solve": (_cmd_solve, (), flags(SOLVE_FLAGS, equation=(INHOM_LEFT, FORMS), a0=series,
                                        a1=series, method=("picard", ("picard", "closed")))),
    }


def parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """The command of `argv`, the function that runs it, verify's IDENTITY (an
    identity id, anywhere after the command) and every flag of the command,
    at its default when not given. A flag is `--name value` or `--name=value`
    under its exact name, and its value may begin with '-'. -h or --help
    anywhere prints the help of the command, or of every command, and exits 0;
    any other misuse raises UsageError."""
    table = build_parser()
    command = argv[0] if argv else None
    if "-h" in argv or "--help" in argv:
        for name in [command] if command in table else table:
            print("usage: rbseries", name, *table[name][1], "[--flag value | --flag=value]...")
            for flag, (default, text) in table[name][2].items():
                text = text if isinstance(text, str) else "one of " + ", ".join(text)
                default = "" if default is None else f" (default {default})"
                print(f"  --{flag:8} {text}{default}")
        raise SystemExit(0)
    if command not in table:
        raise UsageError("the first argument must be a command: " + ", ".join(table))
    run, operands, flags = table[command]
    args = SimpleNamespace(run=run, identity=None, **{f: d for f, (d, _) in flags.items()})
    tokens = iter(argv[1:])
    for arg in tokens:
        if operands and args.identity is None and not arg.startswith("-"):
            args.identity = arg
            continue
        flag, sep, value = arg[2:].partition("=")
        if not arg.startswith("--") or flag not in flags:
            raise UsageError(f"{command} takes no argument {arg.partition('=')[0]}")
        value = value if sep else next(tokens, None)
        if value is None:
            raise UsageError(f"--{flag} needs a value")
        choices = flags[flag][1]
        if isinstance(choices, tuple) and value not in choices:
            raise UsageError(f"--{flag} must be one of {', '.join(choices)}, not {value!r}")
        setattr(args, flag, value)
    if operands and args.identity is None:
        raise UsageError(f"{command} needs an identity id, such as eulerian-prop-two")
    return args


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


def _cmd_verify(args: SimpleNamespace) -> int:
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


def _cmd_suite(args: SimpleNamespace) -> int:
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


def _cmd_solve(args: SimpleNamespace) -> int:
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        return args.run(args)
    except (ParamError, UsageError, OSError) as exc:
        flag = "--" if isinstance(exc, ParamError) else ""  # a ParamError begins with its name
        print(f"error: {flag}{exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
