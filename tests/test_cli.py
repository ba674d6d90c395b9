import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from rbseries import checks, cli
from rbseries.checks import CheckReport, Mismatch, load_manifest
from rbseries.cli import SOLVE_FLAGS, VERIFY_FLAGS, emit_report, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_inhom_left_antider(capsys):
    code, out, _ = run(capsys, "solve", "--equation", "inhom-left",
                       "--operator", "antider", "--a0", "0,1", "--a1", "0,1",
                       "--order", "4")
    assert code == 0
    assert out.strip() == "0,0,1/2,0,1/8"


def test_solve_homogeneous(capsys):
    code, out, _ = run(capsys, "solve", "--equation", "homogeneous",
                       "--operator", "qint", "--q", "1/2", "--a1", "0,1",
                       "--order", "2")
    assert code == 0
    assert out.strip() == "1,1,1/3"


def test_solve_closed_matches_picard(capsys):
    args = ["solve", "--equation", "inhom-left", "--operator", "qint",
            "--q", "1/2", "--a0", "0,1", "--a1", "0,1", "--order", "6"]
    _, picard_out, _ = run(capsys, *args)
    _, closed_out, _ = run(capsys, *args, "--method", "closed")
    assert picard_out == closed_out


def test_solve_closed_inhom_right_scalar(capsys):
    args = ["solve", "--equation", "inhom-right", "--operator", "qint",
            "--q", "1/2", "--a0", "0,1", "--a1", "0,1", "--order", "4"]
    code, picard_out, _ = run(capsys, *args)
    assert code == 0 and picard_out.strip() == "0,1,2/3,2/21,2/315"
    code, closed_out, _ = run(capsys, *args, "--method", "closed")
    assert code == 0 and closed_out == picard_out


def test_solve_closed_homogeneous_matrix(capsys):
    args = ["solve", "--dim", "2", "--equation", "homogeneous", "--operator",
            "qscale", "--q=-1/2", "--a1", "0,1,1/2", "--order", "5"]
    code, picard_out, _ = run(capsys, *args)
    assert code == 0
    code, closed_out, _ = run(capsys, *args, "--method", "closed")
    assert code == 0 and closed_out == picard_out


def test_solve_json_format(capsys):
    code, out, _ = run(capsys, "solve", "--equation", "inhom-left",
                       "--operator", "antider", "--a0", "0,1", "--a1", "0,1",
                       "--order", "4", "--format", "json")
    assert code == 0
    assert json.loads(out) == ["0", "0", "1/2", "0", "1/8"]


def test_solve_requires_a1(capsys):
    code, _, err = run(capsys, "solve", "--operator", "antider", "--a0", "0,1")
    assert code == 2
    assert "--a1" in err or "a1" in err


@pytest.mark.parametrize("a1", ["", " ", "\t \n"])
def test_solve_reads_a_blank_a1_as_missing(capsys, a1):
    """A blank --a1 is no series, not the zero series."""
    code, out, err = run(capsys, "solve", "--operator", "antider", "--a0", "0,1", "--a1", a1)
    assert (code, out, err) == (2, "", "error: solve requires --a1\n")


def test_interrupt_gives_one_line_and_exit_130(capsys, monkeypatch):
    """Ctrl-C during a check prints one line, not a traceback."""
    def interrupted(*args):
        raise KeyboardInterrupt
    monkeypatch.setattr(cli, "run_check", interrupted)
    code, out, err = run(capsys, "verify", "rb-axiom", "--order", "4")
    assert (code, out, err) == (130, "", "error: interrupted\n")


def test_solve_missing_a0(capsys):
    code, _, err = run(capsys, "solve", "--equation", "inhom-left",
                       "--operator", "antider", "--a1", "0,1")
    assert code == 2


def test_q_guard_usage_error(capsys):
    code, _, err = run(capsys, "verify", "spitzer", "--operator", "qint",
                       "--q", "1")
    assert code == 2
    assert "--q" in err


def test_malformed_rational(capsys):
    code, _, err = run(capsys, "verify", "spitzer", "--operator", "qint",
                       "--q", "nope")
    assert code == 2
    assert "--q" in err


def test_negative_order(capsys):
    code, _, err = run(capsys, "verify", "spitzer", "--order", "-3")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["verify", "rb-axiom", "--dim", "0", "--order", "4"],
    ["solve", "--dim", "-2", "--operator", "antider", "--a0", "0,1", "--a1", "0,1",
     "--order", "4"],
    ["verify", "rb-axiom", "--samples", "-3", "--order", "4"],
    ["verify", "gen-spitzer-noncomm", "--dim", "9", "--order", "4"],
    ["solve", "--dim", "9", "--operator", "antider", "--a0", "0,1", "--a1", "0,1",
     "--order", "4"],
], ids=["verify-dim-0", "solve-dim-negative", "verify-samples-negative", "verify-dim-past-most",
        "solve-dim-past-most"])
def test_out_of_range_common_flag(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: --")


def test_dim_at_its_most_is_accepted(capsys):
    code, out, err = run(capsys, "verify", "rb-axiom", "--dim", "8", "--order", "2",
                         "--samples", "2")
    assert (code, err) == (0, "") and out.rstrip().endswith("PASS")


def test_unknown_identity(capsys):
    code, _, err = run(capsys, "verify", "not-an-identity")
    assert code == 2


def test_verify_passing(capsys):
    code, out, _ = run(capsys, "verify", "eulerian-prop-two", "--q", "1/2",
                       "--order", "10")
    assert code == 0
    assert out.strip().endswith("PASS")


def test_verify_expected_failure(capsys):
    code, out, _ = run(capsys, "verify", "eulerian-prop-one-printed",
                       "--q", "1/2", "--order", "10", "--expect", "fail")
    assert code == 0
    assert "FAIL" in out


def test_verify_unexpected_failure_exits_one(capsys):
    code, out, _ = run(capsys, "verify", "eulerian-prop-one-printed",
                       "--q", "1/2", "--order", "10", "--expect", "pass")
    assert code == 1


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "eulerian-prop-one-printed",
                       "--q", "1/2", "--order", "10", "--format", "json",
                       "--expect", "fail")
    assert code == 0
    (obj,) = json.loads(out)
    assert set(obj) == {"identity_id", "params", "status", "first_mismatch",
                        "elapsed_ms"}
    assert obj["status"] == "fail"
    assert obj["first_mismatch"] == {"power": 1, "lhs": "1", "rhs": "0"}


def test_suite_custom_manifest(tmp_path, capsys):
    manifest = {"entries": [
        {"id": "eulerian-prop-two", "params": {"q": "1/2", "order": 8}},
        {"id": "eulerian-qbinomial-printed", "params": {"q": "1/2", "order": 8},
         "expect": "fail"},
    ]}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    code, out, _ = run(capsys, "suite", "--manifest", str(path))
    assert code == 0
    assert out.count("\n") == 2


def test_suite_mismatched_expectation(tmp_path, capsys):
    manifest = {"entries": [
        {"id": "eulerian-qbinomial-printed", "params": {"q": "1/2", "order": 8}},
    ]}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    code, _, _ = run(capsys, "suite", "--manifest", str(path))
    assert code == 1


def test_suite_unknown_identity(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"entries": [{"id": "bogus"}]}))
    code, _, err = run(capsys, "suite", "--manifest", str(path))
    assert code == 2
    assert "bogus" in err


def test_emit_report_empty_json():
    assert emit_report([], "json") == "[]"


def test_emit_report_text_line():
    report = CheckReport("spitzer", {"q": "1/2"}, "pass")
    assert emit_report([report], "text") == "spitzer [q=1/2] PASS"
    failing = CheckReport("x", {}, "fail", Mismatch(2, "1/3", "0"))
    line = emit_report([failing], "text")
    assert "first mismatch at t^2" in line and "lhs=1/3" in line


def test_matrix_dim_flag(capsys):
    code, out, _ = run(capsys, "verify", "rb-axiom", "--operator", "qscale",
                       "--q", "2/3", "--dim", "2", "--order", "8",
                       "--samples", "3")
    assert code == 0


def test_solve_reads_the_matrix_text_it_prints(capsys):
    """Over a matrix ring a coefficient is a rational (that multiple of the
    identity) or [[a,b],[c,d]]; the printed solution parses back to itself."""
    common = ["solve", "--dim", "2", "--operator", "qint", "--q", "1/2", "--order", "3"]
    code, out, _ = run(capsys, *common, "--a0", "0,[[1,2],[0,1]]", "--a1", "0,1,1/2")
    assert code == 0
    assert out.strip() == "[[0,0],[0,0]],[[1,2],[0,1]],[[2/3,4/3],[0,2/3]],[[5/21,10/21],[0,5/21]]"
    identity = "[[1,0],[0,1]]"
    code, again, _ = run(capsys, *common, "--a0", "[[0,0],[0,0]], [[1,2],[0,1]]",
                         "--a1", f"0,{identity},[[1/2,0],[0,1/2]]")
    assert code == 0 and again == out
    code, _, err = run(capsys, *common, "--a0", "0,[[1,2],[0,1]", "--a1", "0,1")
    assert code == 2 and err.startswith("error: --a0: malformed series")


@pytest.mark.parametrize("text", ["", "{not json", "[1, 2]", '"entries"',
                                  '{"x": 1}', '{"entries": {}}', '{"entries": [1]}',
                                  '{"entries": [{"params": {}}]}',
                                  '{"entries": [{"id": "spitzer", "params": [1]}]}'],
                         ids=["empty", "not-json", "array", "string", "no-entries",
                              "entries-not-a-list", "entry-not-an-object", "entry-without-id",
                              "params-not-an-object"])
def test_suite_rejects_a_bad_manifest(tmp_path, capsys, text):
    path = tmp_path / "manifest.json"
    path.write_text(text)
    code, out, err = run(capsys, "suite", "--manifest", str(path))
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: --manifest")


@pytest.mark.parametrize("entry", [
    {"id": "rb-axiom", "expect": "bogus", "params": {"order": 3}},
    {"id": "rb-axiom", "params": {"q": "1"}},
    {"id": "rb-axiom", "params": {"q": "1/0"}},
    {"id": "rb-axiom", "params": {"q": [1]}},
    {"id": "rb-axiom", "params": {"operator": "nope"}},
    {"id": "rb-axiom", "params": {"order": "x"}},
    {"id": "rb-axiom", "params": {"order": 2.5}},
    {"id": "rb-axiom", "params": {"dim": True}},
    {"id": "rb-axiom", "params": {"order": -3, "samples": 0}},
    {"id": "rb-axiom", "params": {"dim": 0}},
    {"id": "rb-axiom", "params": {"dim": 9}},
    {"id": "kingman", "params": {"nmax": -1}},
    {"id": "lemma-iter-a", "params": {"kmax": -1}},
    {"id": ["rb-axiom"]},
    {"id": "eulerian-prop-one-printed", "params": {"q": 0.1, "order": 2}},
    {"id": "eulerian-prop-one-printed", "params": {"q": 0.5, "order": 2}},
    # a check that reads no operator reads q as the q-integral's
    {"id": "eulerian-prop-two", "params": {"operator": "antider", "q": "1"}},
    {"id": "eulerian-prop-two", "params": {"operator": "antider", "q": "-1"}},
    {"id": "eulerian-prop-two", "params": {"operator": "antider", "q": "0"}},
    # a name the check does not read, or no param at all
    {"id": "rb-axiom", "params": {"ordr": 2, "samples": 1}},
    {"id": "eulerian-prop-two", "params": {"q": "1/2", "variant": "zzz"}},
    {"id": "spitzer", "params": {"dim": 3, "order": 4, "samples": 1}},
    {"id": "eulerian-prop-two", "params": {"q": "1/2", "seed": 1}},
    {"id": "bogus"},
], ids=["expect-bogus", "q-one", "q-zero-denominator", "q-list", "operator-unknown",
        "order-not-a-number", "order-float", "dim-bool", "vacuous-pass", "dim-zero",
        "dim-past-most",
        "nmax-negative", "kmax-negative", "id-not-a-string", "q-float-tenth", "q-float-half",
        "antider-qint-q-one", "antider-qint-q-minus-one", "antider-qint-q-zero",
        "unknown-name", "fixed-name-given", "spitzer-dim", "eulerian-seed",
        "unknown-id-after-a-valid-entry"])
def test_suite_rejects_a_bad_manifest_value_before_any_check(tmp_path, capsys, monkeypatch,
                                                             entry):
    ran = []
    monkeypatch.setattr(checks, "run_check", lambda *args: ran.append(args))
    good = {"id": "eulerian-prop-two", "params": {"q": "1/2", "order": 4}}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"entries": [good, entry]}))
    code, out, err = run(capsys, "suite", "--manifest", str(path))
    assert code == 2 and out == "" and ran == []
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: --manifest: ")
    assert "Traceback" not in err


def test_manifest_integer_params_are_parsed():
    manifest = load_manifest({"entries": [
        {"id": "eulerian-prop-two", "params": {"q": "1/2", "order": "4"}},
        {"id": "rb-axiom", "params": {"order": "4", "seed": "-2"}}]})
    assert [e.params for e in manifest.entries] == [{"q": "1/2", "order": 4},
                                                    {"order": 4, "seed": -2}]


def test_antider_drops_q(tmp_path, capsys):
    """antider reads no q: a manifest's q is dropped, not echoed, as verify's is."""
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"entries": [{"id": "rb-axiom", "params": {
        "operator": "antider", "q": "1", "order": 4, "samples": 1}}]}))
    code, out, _ = run(capsys, "suite", "--manifest", str(path))
    assert (code, out) == (0, "rb-axiom [operator=antider order=4 samples=1] PASS\n")
    code, out, _ = run(capsys, "verify", "rb-axiom", "--operator", "antider", "--q", "1",
                       "--order", "4", "--samples", "1")
    assert (code, out) == (0, "rb-axiom [operator=antider order=4 dim=1 seed=0 samples=1] PASS\n")


@pytest.mark.parametrize("argv", [
    ["verify", "rb-axiom", "--order", "x"],
    ["verify", "rb-axiom", "--seed", "x"],
    ["verify", "rb-axiom", "--operator", "nope"],
    ["verify", "eulerian-prop-two", "--operator", "nope"],
    ["verify", "rb-axiom", "--samples", "1.5"],
    ["solve", "--operator", "nope", "--a0", "0,1", "--a1", "0,1"],
    ["solve", "--order", "", "--a0", "0,1", "--a1", "0,1"],
], ids=["verify-order", "verify-seed", "verify-operator", "verify-unread-operator",
        "verify-samples-float", "solve-operator", "solve-order-empty"])
def test_bad_flag_value_gives_one_line(capsys, argv):
    flag = next(arg for arg in argv if arg.startswith("--"))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith(f"error: {flag}")


@pytest.mark.parametrize("flag", ["--seed", "--samples"])
def test_solve_takes_no_sampling_flags(capsys, flag):
    code, out, err = run(capsys, "solve", "--operator", "antider", "--a0", "0,1", "--a1", "0,1",
                         flag, "1")
    assert (code, out, err) == (2, "", f"error: solve takes no argument {flag}\n")


@pytest.mark.parametrize("command, flags", [("verify", VERIFY_FLAGS), ("solve", SOLVE_FLAGS)])
def test_help_lists_every_generated_flag(capsys, command, flags):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert all(f"--{name} " in out for name in flags)


@pytest.mark.parametrize("argv, message", [
    ([], "the first argument must be a command: verify, suite, solve"),
    (["bogus"], "the first argument must be a command: verify, suite, solve"),
    (["--order", "4"], "the first argument must be a command: verify, suite, solve"),
    (["verify"], "verify needs an identity id, such as eulerian-prop-two"),
    (["verify", "--order", "4"], "verify needs an identity id, such as eulerian-prop-two"),
    (["verify", "rb-axiom", "spitzer"], "verify takes no argument spitzer"),
    (["suite", "extra"], "suite takes no argument extra"),
    (["verify", "rb-axiom", "--bogus", "1"], "verify takes no argument --bogus"),
    (["verify", "rb-axiom", "--bogus=1"], "verify takes no argument --bogus"),
    (["verify", "rb-axiom", "--ord", "4"], "verify takes no argument --ord"),
    (["verify", "rb-axiom", "-q", "1/2"], "verify takes no argument -q"),
    (["suite", "--order", "2"], "suite takes no argument --order"),
    (["solve", "--method", "nope"], "--method must be one of picard, closed, not 'nope'"),
    (["solve", "--equation=cubic"],
     "--equation must be one of homogeneous, inhom-left, inhom-right, not 'cubic'"),
    (["verify", "rb-axiom", "--expect", "maybe"],
     "--expect must be one of pass, fail, domain-error, not 'maybe'"),
    (["suite", "--format", "xml"], "--format must be one of text, json, not 'xml'"),
    (["solve", "--order"], "--order needs a value"),
    (["suite", "--manifest"], "--manifest needs a value"),
    (["solve", "--seed", "1", "--a1", "0,1", "--a0", "0,1"], "solve takes no argument --seed"),
], ids=["bare", "unknown-command", "flag-before-command", "no-identity", "flags-but-no-identity",
        "second-identity", "suite-argument", "unknown-flag", "unknown-flag-joined", "prefix",
        "short-flag", "flag-of-another-command", "method-choice", "equation-choice-joined",
        "expect-choice", "format-choice", "order-no-value", "manifest-no-value", "solve-seed"])
def test_every_misuse_of_the_command_line_gives_one_line(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_identity_is_read_wherever_it_stands(capsys):
    first = run(capsys, "verify", "rb-axiom", "--order", "4", "--samples", "1")
    assert first[0] == 0 and first[1].rstrip().endswith("PASS")
    assert run(capsys, "verify", "--order", "4", "rb-axiom", "--samples", "1") == first
    assert run(capsys, "verify", "--order=4", "--samples", "1", "rb-axiom") == first


@pytest.mark.parametrize("argv, commands", [
    (["--help"], ["verify", "suite", "solve"]),
    (["-h"], ["verify", "suite", "solve"]),
    (["suite", "-h"], ["suite"]),
    (["solve", "--order", "4", "--help"], ["solve"]),
])
def test_help_is_written_from_the_flag_table(capsys, argv, commands):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 0 and out.err == ""
    usages = [line for line in out.out.splitlines() if line.startswith("usage: ")]
    assert usages == [f"usage: rbseries {c}{' IDENTITY' if c == 'verify' else ''} "
                      "[--flag value | --flag=value]..." for c in commands]
    for command in commands:
        _, _, flags = cli.build_parser()[command]
        for flag in flags:
            assert f"--{flag} " in out.out
    if "solve" in commands:
        assert "--method   one of picard, closed (default picard)\n" in out.out
        assert "--order    truncation cap (default 16)\n" in out.out
    assert ("--manifest path to a manifest JSON file\n" in out.out) == ("suite" in commands)


def test_solve_homogeneous_takes_no_a0(capsys):
    code, out, err = run(capsys, "solve", "--equation", "homogeneous", "--a0", "0,5",
                         "--a1", "0,1", "--order", "3")
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: --a0: ")


@pytest.mark.parametrize("argv, message", [
    (["--a1", "1,1", "--a0", "0,1"], "--a1: must have valuation >= 1"),
    (["--a1", "0,1", "--a0", "1,1"], "--a0: must have valuation >= 1"),
    (["--equation", "homogeneous", "--a1", "0,1", "--a0", "0,5"],
     "--a0: the homogeneous equation takes no a0"),
    (["--equation", "inhom-right", "--a1", "0,1"], "--a0: the inhom-right equation requires a0"),
], ids=["a1-valuation", "a0-valuation", "a0-given", "a0-missing"])
def test_solve_names_the_flag_of_a_rejected_coefficient(capsys, argv, message):
    code, out, err = run(capsys, "solve", "--operator", "qint", "--q", "1/2", *argv,
                         "--order", "3")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_suite_rejects_a_manifest_directory(tmp_path, capsys):
    code, out, err = run(capsys, "suite", "--manifest", str(tmp_path))
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: --manifest: ")


def test_suite_rejects_a_missing_manifest_file(tmp_path, capsys):
    path = tmp_path / "missing.json"
    code, out, err = run(capsys, "suite", "--manifest", str(path))
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: --manifest: ")
    assert str(path) in err


def test_suite_without_a_manifest_runs_the_default_one(capsys):
    code, out, err = run(capsys, "suite")
    assert code == 0 and err == ""
    assert out == emit_report(checks.run_suite(checks.default_manifest()), "text") + "\n"


@pytest.mark.parametrize("q_args", [["--q", "-1/2"], ["--q=-1/2"]],
                         ids=["separate", "joined"])
def test_negative_q(capsys, q_args):
    code, out, err = run(capsys, "verify", "rb-axiom", *q_args, "--order", "4",
                         "--samples", "2")
    assert code == 0 and err == ""
    assert "q=-1/2" in out and out.rstrip().endswith("PASS")
    code, out, _ = run(capsys, "solve", "--operator", "qscale", *q_args,
                       "--a0", "0,1", "--a1", "0,1", "--order", "3")
    # b = P((1 - t) t) + P(t b) with P(t^n) = t^n / (1 - (-1/2)^n)
    assert code == 0 and out.strip() == "0,2/3,-4/9,-32/81"



@pytest.mark.parametrize("flag, argv", [
    ("--a1", ["--a1", "0,1/0", "--a0", "0,1"]),
    ("--a0", ["--a0", "0,1/0", "--a1", "0,1"]),
    ("--a0", ["--a0", "0,1/0", "--a1", "0,1", "--dim", "2"]),
    ("--a1", ["--a1", "0,1/0", "--a0", "0,1", "--dim", "2", "--method", "closed"]),
    ("--a1", ["--a1", "0,x", "--a0", "0,1"]),
], ids=["a1", "a0", "a0-2x2", "a1-2x2-closed", "a1-not-a-number"])
def test_solve_rejects_a_malformed_series(capsys, flag, argv):
    code, out, err = run(capsys, "solve", *argv, "--order", "4")
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag}: malformed series")
    assert len(err.strip().splitlines()) == 1


def test_verify_takes_no_series_flags(capsys):
    code, out, err = run(capsys, "verify", "spitzer", "--a1", "0,1", "--order", "3")
    assert (code, out, err) == (2, "", "error: verify takes no argument --a1\n")


def test_verify_echoes_only_the_params_the_check_reads(capsys):
    code, out, _ = run(capsys, "verify", "eulerian-prop-two", "--q", "1/2",
                       "--order", "4", "--dim", "3")
    assert code == 0
    assert out.strip() == "eulerian-prop-two [order=4 q=1/2 variant=prop-two] PASS"


def test_verify_validates_q_of_a_check_without_an_operator(capsys):
    code, out, err = run(capsys, "verify", "eulerian-prop-two", "--operator", "antider",
                         "--q", "1", "--order", "4")
    assert code == 2 and out == ""
    assert err.startswith("error: --q: ") and len(err.strip().splitlines()) == 1


def test_parser_is_built_once_per_process(capsys):
    table = cli.build_parser()
    for argv in (["verify", "eulerian-prop-two", "--order", "4"],
                 ["solve", "--operator", "antider", "--a0", "0,1", "--a1", "0,1", "--order", "4"],
                 ["verify", "not-an-identity"]):
        run(capsys, *argv)
    assert cli.build_parser() is table


def test_calls_in_a_row_do_not_share_state(capsys):
    code, out, _ = run(capsys, "verify", "spitzer", "--samples", "3", "--order", "4",
                       "--format", "json")
    assert code == 0 and json.loads(out)[0]["params"]["samples"] == "3"
    code, out, _ = run(capsys, "verify", "spitzer", "--order", "4")
    assert code == 0 and "samples=10" in out and out.rstrip().endswith("PASS")

    solve = ["solve", "--operator", "antider", "--a0", "0,1", "--a1", "0,1", "--order", "4"]
    code, out, _ = run(capsys, *solve)
    assert code == 0 and out.strip() == "0,0,1/2,0,1/8"
    code, out, err = run(capsys, "verify", "rb-axiom", "--dim", "0", "--order", "4")
    assert code == 2 and out == "" and len(err.strip().splitlines()) == 1
    code, out, err = run(capsys, "solve", "--method", "bogus")
    assert code == 2 and out == "" and len(err.strip().splitlines()) == 1
    assert run(capsys, *solve) == (0, "0,0,1/2,0,1/8\n", "")


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _cli_small_solve_argvs(seeds) -> list:
    """The argv of every `solve` call in the benchmark's cli-small workload for
    these seeds, read by running its operations against a recording cli.main."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    argvs = []
    rb = SimpleNamespace(cli=SimpleNamespace(main=argvs.append))
    for seed in seeds:
        for op in workloads.cli_ops(seed, rb):
            op.call()
    return [argv for argv in argvs if argv[0] == "solve"]


def test_solve_output_is_unchanged_byte_for_byte():
    """Exit code, stdout and stderr of the README example and of every
    cli-small solve call of seeds 1-3, pinned by a digest of the output the
    text writer gave when it formatted each coefficient through Fraction."""
    argvs = [["solve", "--equation", "inhom-left", "--operator", "antider",
              "--a0", "0,1", "--a1", "0,1", "--order", "4"]]
    argvs += _cli_small_solve_argvs((1, 2, 3))
    results = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        results.append([code, out.getvalue(), err.getvalue()])
    assert len(argvs) == 76 and results[0] == [0, "0,0,1/2,0,1/8\n", ""]
    digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
    assert digest == "d89042c96571b53688522ddb07f91d9a7c4525578b615854c62775a15836b876"


@pytest.fixture
def digit_limit_640():
    """The interpreter's limit of integer string conversion at its least,
    640 digits, so that a result too long to write stays small."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("argv", [
    ["solve", "--a1", "0,1e200", "--a0", "0,1"],
    ["solve", "--a1", "0,1e200", "--a0", "0,1", "--format", "json"],
    ["verify", "eulerian-prop-one-printed", "--q", "1e700", "--order", "2", "--expect", "fail"],
], ids=["solve", "solve-json", "verify"])
def test_a_result_too_long_to_write_is_a_usage_error(capsys, digit_limit_640, argv):
    """The solution, or the first mismatch, has an entry of more digits than
    str converts: exit 2 with one error line that names the limit."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: ") and "640 digits" in err
