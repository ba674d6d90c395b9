"""cli.main driven by argv lists and manifests drawn from checks.PARAMS and
mutated off it.

Whatever the input: no traceback, and exit 0, 1 or 2. Exit 2 prints nothing
on stdout and exactly one stderr line starting `error:`, except for argparse's
own errors (an unknown flag, a missing value, a bad --format, --expect,
--equation or --method choice), which the drawn case marks. Exit 1 happens
only when a reported status differs from the expected one. A manifest entry
with an unknown id, or a param its check does not read, exits 2; a report
echoes only params its check reads, and no q for antider.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path
from typing import NamedTuple, Optional

from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from rbseries.checks import IDENTITIES, PARAMS
from rbseries.cli import SOLVE_FLAGS, VERIFY_FLAGS, main

STATUSES = ("pass", "fail", "domain-error")
MANIFEST = "MANIFEST"  # stands for the path of the case's manifest file in argv


class Case(NamedTuple):
    argv: tuple
    manifest: Optional[dict] = None
    argparse_error: bool = False  # the case holds an error argparse reports itself


# Values on the table, kept small so that a check takes milliseconds, and the
# largest dim.
ON_TABLE = {
    "operator": st.sampled_from(("qint", "qscale", "antider")),
    "q": st.sampled_from(("1/2", "2/3", "-1/2", "3")),
    "order": st.integers(0, 4),
    "dim": st.sampled_from((1, 2, PARAMS["dim"].most)),
    "seed": st.integers(-3, 3),
    "samples": st.integers(1, 2),
    "nmax": st.integers(0, 2),
    "kmax": st.integers(0, 2),
}
assert set(ON_TABLE) == set(PARAMS)
# Values off it: negative, not an integer, float text, empty, q outside its domain.
OFF_TABLE_TEXT = st.sampled_from(
    ("-1", "-3", "x", "1.5", "-0.5", "", "0", "1", "1/0", "nope", "qint"))
OFF_TABLE_JSON = OFF_TABLE_TEXT | st.sampled_from((-1, 2.5, True, None, [1], {"a": 1}))
# One past a param's largest value.
PAST_MOST = {name: st.just(p.most + 1) for name, p in PARAMS.items() if p.most is not None}
SERIES = st.sampled_from(("0,1", "0,1,1/2", "1,0,-2/3", "0,[[1,2],[0,1]]"))
OFF_SERIES = st.sampled_from(("0,1/0", "0,x", "", "[[1,2]]"))
IDS = st.sampled_from(sorted(IDENTITIES) + ["bogus"])


@st.composite
def _sometimes_off(draw, on, off):
    """A value drawn from `on`, or one time in eight from `off`."""
    return draw(off if draw(st.integers(0, 7)) == 0 else on)


@st.composite
def _flags(draw, names, always):
    argv = []
    for name in names:
        if name in always or draw(st.booleans()):
            off = OFF_TABLE_TEXT | PAST_MOST[name].map(str) if name in PAST_MOST else OFF_TABLE_TEXT
            argv += [f"--{name}", draw(_sometimes_off(ON_TABLE[name].map(str), off))]
    return argv


# Mutations argparse reports itself, by command.
ARGPARSE_ERRORS = {
    "verify": [["--format", "xml"], ["--expect", "maybe"], ["--ordr", "2"], ["--a1", "0,1"],
               ["--order"]],
    "solve": [["--seed", "1"], ["--samples", "1"], ["--equation", "cubic"],
              ["--method", "guess"], ["--order"]],
    "suite": [["--format", "xml"], ["--order", "2"], ["--manifest"]],
}


@st.composite
def _argparse_error(draw, command, argv):
    if draw(st.integers(0, 5)) == 0:
        return argv + draw(st.sampled_from(ARGPARSE_ERRORS[command])), True
    return argv, False


@st.composite
def verify_cases(draw):
    argv = ["verify", draw(IDS), *draw(_flags(VERIFY_FLAGS, ("order", "samples")))]
    if draw(st.booleans()):
        argv += ["--expect", draw(st.sampled_from(STATUSES))]
    argv += ["--format", draw(st.sampled_from(("text", "json")))]
    argv, bad = draw(_argparse_error("verify", argv))
    return Case(tuple(argv), None, bad)


@st.composite
def solve_cases(draw):
    equation = draw(st.sampled_from(("homogeneous", "inhom-left", "inhom-right")))
    argv = ["solve", "--equation", equation,
            "--method", draw(st.sampled_from(("picard", "closed"))),
            *draw(_flags(SOLVE_FLAGS, ("order",)))]
    # --a1 always and --a0 but for the homogeneous equation, or one time in eight not so
    for flag, wanted in (("--a0", equation != "homogeneous"), ("--a1", True)):
        if draw(_sometimes_off(st.just(wanted), st.just(not wanted))):
            argv += [flag, draw(_sometimes_off(SERIES, OFF_SERIES))]
    argv += ["--format", draw(st.sampled_from(("text", "json")))]
    argv, bad = draw(_argparse_error("solve", argv))
    return Case(tuple(argv), None, bad)


@st.composite
def manifest_entries(draw):
    identity_id = draw(IDS)
    reads = IDENTITIES[identity_id].reads if identity_id in IDENTITIES else set(PARAMS)
    params = {}
    for name in sorted(reads, key=list(PARAMS).index):
        if name in ("order", "samples") or draw(st.booleans()):
            off = OFF_TABLE_JSON | PAST_MOST[name] if name in PAST_MOST else OFF_TABLE_JSON
            params[name] = draw(_sometimes_off(ON_TABLE[name], off))
    if draw(st.integers(0, 3)) == 0:  # a name the check does not read, or no param at all
        extra = draw(st.sampled_from(sorted(set(PARAMS) - reads) + ["ordr", "variant", "item"]))
        params[extra] = draw(st.one_of(ON_TABLE.get(extra, st.integers(0, 2)), OFF_TABLE_JSON))
    entry = {"id": identity_id, "params": params}
    if draw(st.booleans()):
        entry["expect"] = draw(st.sampled_from(STATUSES + ("bogus",)))
    return entry


@st.composite
def suite_cases(draw):
    manifest = {"entries": draw(st.lists(manifest_entries(), min_size=1, max_size=2))}
    argv = ["suite", "--manifest", MANIFEST, "--format", draw(st.sampled_from(("text", "json")))]
    argv, bad = draw(_argparse_error("suite", argv))
    return Case(tuple(argv), manifest, bad)


TEXT_REPORT = re.compile(r"^\S+ \[(.*?)\] (PASS|FAIL|DOMAIN-ERROR)(?: |$)")


def _reports(out: str, fmt: str) -> list:
    """The (status, echoed params) of each printed report."""
    if fmt == "json":
        return [(r["status"], r["params"]) for r in json.loads(out)]
    found = [TEXT_REPORT.match(line) for line in out.splitlines()]
    return [(m[2].lower(), dict(kv.split("=", 1) for kv in m[1].split())) for m in found]


def _checks(case: Case) -> list:
    """The (identity id, expected status) of each check the case asks for."""
    if case.manifest is not None:
        return [(e["id"], e.get("expect", "pass")) for e in case.manifest["entries"]]
    argv = list(case.argv)
    return [(argv[1], argv[argv.index("--expect") + 1] if "--expect" in argv else "pass")]


def _reads_every_name(entry: dict) -> bool:
    identity = IDENTITIES.get(entry["id"])
    return identity is not None and set(entry.get("params", {})) <= identity.reads


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("argparse", exc.code)
    return code, out.getvalue(), err.getvalue()


@given(st.one_of(verify_cases(), solve_cases(), suite_cases()))
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
# Each input below was accepted before checks.read_params, or gave argparse's
# usage block or a traceback.
@example(Case(("suite", "--manifest", MANIFEST), {"entries": [
    {"id": "rb-axiom", "params": {"ordr": 2, "samples": 1}}]}))
@example(Case(("suite", "--manifest", MANIFEST), {"entries": [
    {"id": "eulerian-prop-two", "params": {"q": "1/2", "order": 4, "variant": "zzz"}}]}))
@example(Case(("suite", "--manifest", MANIFEST), {"entries": [
    {"id": "spitzer", "params": {"dim": 3, "order": 4, "samples": 1}}]}))
@example(Case(("suite", "--manifest", MANIFEST), {"entries": [
    {"id": "rb-axiom", "params": {"operator": "antider", "q": "1"}}]}))
@example(Case(("suite", "--manifest", MANIFEST), {"entries": [
    {"id": "eulerian-prop-two", "params": {"q": "1/2", "order": 4}}, {"id": "bogus"}]}))
@example(Case(("suite", "--manifest", MANIFEST), {"entries": [
    {"id": "eulerian-prop-two", "params": {"operator": "antider", "q": "1"}}]}))
@example(Case(("verify", "rb-axiom", "--order", "x")))
@example(Case(("verify", "rb-axiom", "--seed", "x", "--order", "2", "--samples", "1")))
@example(Case(("verify", "rb-axiom", "--operator", "nope", "--order", "2")))
@example(Case(("verify", "eulerian-prop-two", "--operator", "antider", "--q", "1")))
@example(Case(("solve", "--seed", "1", "--a0", "0,1", "--a1", "0,1"), argparse_error=True))
@example(Case(("solve", "--samples", "1", "--a0", "0,1", "--a1", "0,1"), argparse_error=True))
@example(Case(("solve", "--equation", "homogeneous", "--a0", "0,5", "--a1", "0,1",
               "--order", "3")))
def test_cli_main_on_drawn_and_mutated_input(case):
    argv = list(case.argv)
    with tempfile.TemporaryDirectory() as tmp:
        if case.manifest is not None:
            path = Path(tmp) / "manifest.json"
            path.write_text(json.dumps(case.manifest))
            argv[argv.index(MANIFEST)] = str(path)
        code, out, err = _run(argv)
    event(f"{argv[0]} exit {code}")
    assert "Traceback" not in err
    if isinstance(code, tuple):  # argparse's own exit
        assert case.argparse_error and code == ("argparse", 2), (argv, err)
        return
    assert code in (0, 1, 2), argv
    if case.manifest is not None and not all(map(_reads_every_name, case.manifest["entries"])):
        assert code == 2, (case.manifest, out)
    if code == 2:
        assert out == "", argv
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (argv, err)
        return
    assert err == "", argv
    if argv[0] == "solve":
        assert code == 0 and out.strip(), argv
        return
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
    reports, checks = _reports(out, fmt), _checks(case)
    assert len(reports) == len(checks)
    for (identity_id, _), (_, params) in zip(checks, reports):
        identity = IDENTITIES[identity_id]
        assert set(params) <= identity.reads | set(identity.fixed), (argv, case.manifest, out)
        assert not (params.get("operator") == "antider" and "q" in params), (argv, out)
    mismatch = [status for status, _ in reports] != [expect for _, expect in checks]
    assert (code == 1) == mismatch, (argv, case.manifest, out)
