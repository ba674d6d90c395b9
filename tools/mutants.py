#!/usr/bin/env python3
"""Replayable mutation check of rbseries, run from the root of a source checkout:

    python3 tools/mutants.py            # every mutant
    python3 tools/mutants.py --list     # their names
    python3 tools/mutants.py NAME ...   # the named ones

Each mutant is one textual fault: a (file, old text, new text) triple, with the
test modules that should catch it. For each mutant the script copies src/,
tests/ and perfbench/ (whose workloads a CLI test reads) to a temporary
directory, replaces the old text (which must occur
exactly once) and runs the named modules with pytest. A mutant survives when
the tests still pass (pytest exit 0) and is killed when a test fails (exit 1).
Any other exit (a usage or collection error, no tests collected, a timeout)
shows nothing about the mutant, which is reported as broken. Before the
mutants, the same modules run on an unmutated copy, which must pass. Exit 0
when every mutant is killed, 1 when one survives or the unmutated copy fails,
2 when a mutant is broken or its old text is not found once.

Standard library only, apart from pytest itself. A guard added to the program
brings its mutant here, so later changes can rerun it.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOLVERS = "src/rbseries/solvers.py"
SERIES = "src/rbseries/series.py"
CHECKS = "src/rbseries/checks.py"
CLI = "src/rbseries/cli.py"
OPERATORS = "src/rbseries/operators.py"
RINGS = "src/rbseries/rings.py"
LIFTED = ("tests/test_lifted_solvers.py",)
SOLVING = ("tests/test_lifted_solvers.py", "tests/test_solvers.py")
PARAMS_READ = ("tests/test_checks.py", "tests/test_cli.py")
TIMEOUT_S = 600


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple


MUTANTS = (
    # The relaxed kernel: chi_lambda's product-form split and its proof.
    Mutant("split-proof-removed", SOLVERS,
           '    _require_equal("chi_lambda", p.exp() * (x.scale(-w) - p).exp(), g)\n',
           "", LIFTED),
    # closed_solve builds on (1 + w*a1) a0 and proves its answer once.
    Mutant("closed-unit-shift-dropped", SOLVERS,
           "b = _closed_left(op, a1, shifted)",
           "b = _closed_left(op, a1, eq.a0)", LIFTED),
    Mutant("closed-residual-removed", SOLVERS,
           '    _require_solution("closed_solve", eq, b, _constant(eq, shifted))\n', "",
           LIFTED),
    Mutant("shifted-a0-factor-order", SOLVERS,
           "product = eq.a1 * eq.a0 if", "product = eq.a0 * eq.a1 if", SOLVING),
    Mutant("split-no-factorial", SOLVERS,
           "prev[c] = reduced(prod[0], prod[1] * n)",
           "prev[c] = reduced(*prod)", LIFTED),
    Mutant("split-cross-term-dropped", SOLVERS,
           "reduced_sum((inv_w, cross), ", "reduced_sum(", LIFTED),
    Mutant("split-power-sum-late", SOLVERS,
           "block_product(prev, base, c, d, n - 1)",
           "block_product(prev, base, c, d, n)", LIFTED),
    Mutant("split-multiplier-of-previous-power", SOLVERS,
           "X[c] = X_c = reduced_sum((factor[c], x_c))",
           "X[c] = X_c = reduced_sum((factor[c - 1], x_c))", LIFTED),
    # The homogeneous solution is the exponential exp(P chi) itself.
    Mutant("closed-homogeneous-one-added", SOLVERS,
           "    if a0 is None:\n        return e\n",
           "    if a0 is None:\n        return TruncatedSeries.one(a1.ring, a1.cap) + e\n",
           SOLVING),
    # The right-handed equation as the left one in the opposite algebra.
    Mutant("closed-right-untransposed", SOLVERS,
           "shifted.transpose()).transpose()", "shifted.transpose())", LIFTED),
    # Relaxed Picard, which is one settle (the scalar loop over Q), and chi_zero.
    Mutant("picard-last-term-dropped", SERIES,
           "xs[1 : k + 1], num[k - 1 :: -1]", "xs[1 : k], num[k - 1 :: -1]", SOLVING),
    Mutant("chi-zero-commutator-sign", SOLVERS,
           "reduced_sum((1, block_product(p, prev, c, d, 1, c)),\n"
           "                                           (-1, block_product(prev, p, c, d, 0)))",
           "reduced_sum((-1, block_product(p, prev, c, d, 1, c)),\n"
           "                                           (1, block_product(prev, p, c, d, 0)))",
           LIFTED),
    # The suite holds chi_lambda against the BCH recursion, not only the split.
    Mutant("bch-chl-check-recursion-dropped", CHECKS,
           "yield chi, a + bch(apply(op, chi), tilde_apply(op, chi)).scale(1 / op.weight)",
           "yield chi, chi",
           ("tests/test_checks.py",)),
    # The coefficient kernel and the exponential the proofs use.
    Mutant("block-kernel-right-transposed", SERIES,
           "b{k * d + c}", "b{c * d + k}", ("tests/test_series.py",)),
    # The generated product loop skips a zero left block and goes on.
    Mutant("product-stops-at-zero-left-block", SERIES,
           '"            continue",', '"            break",', ("tests/test_series.py",)),
    Mutant("transpose-keeps-entries", SERIES,
           "self._num[k + c * d + r]", "self._num[k + r * d + c]", ("tests/test_series.py",)),
    # settle reduces each settled coefficient, and rescales the ones settled
    # before when the shared denominator rises: the matrix loop, then the
    # scalar one.
    Mutant("relaxed-set-no-rescale", SERIES,
           "num[:o] = [m * v for v in num[:o]]",
           "num[:o] = num[:o]", ("tests/test_series.py",)),
    Mutant("relaxed-set-no-reduce", SERIES,
           "block, b_den = _reduce(block, b_den)", "block, b_den = block, b_den",
           ("tests/test_series.py",)),
    Mutant("scalar-settle-no-rescale", SERIES,
           "num[:c] = [m * u for u in num[:c]]",
           "num[:c] = num[:c]", ("tests/test_series.py",)),
    Mutant("scalar-settle-no-reduce", SERIES,
           "v, v_den = v // g, v_den // g", "v, v_den = v, v_den",
           ("tests/test_series.py",)),
    Mutant("settle-right-factor-order", SERIES,
           "madd(prod, 0, y, x) if right", "madd(prod, 0, x, y) if right",
           ("tests/test_series.py",)),
    # Sums, scales and applies leave their pair unreduced: == cross-multiplies
    # over different denominators and hash reduces first.
    Mutant("eq-compares-unreduced-numerators", SERIES,
           "return list(map(ma.__mul__, self._num)) == list(map(mb.__mul__, other._num))",
           "return self._num == other._num", ("tests/test_series.py",)),
    Mutant("eq-cofactors-swapped", SERIES,
           "ma, mb = db // g, da // g", "ma, mb = da // g, db // g", ("tests/test_series.py",)),
    Mutant("hash-over-unreduced-pair", SERIES,
           "num, den = _reduce(self._num, self._den)", "num, den = self._num, self._den",
           ("tests/test_series.py",)),
    # Only a product can grow a denominator without bound, so _mul makes the
    # product's one gcd pass.
    Mutant("product-skips-gcd-pass", SERIES,
           "num, den = _reduce(out, self._den * other._den * q)",
           "num, den = out, self._den * other._den * q", ("tests/test_series.py",)),
    Mutant("eq-same-denominator-skips-numerators", SERIES,
           "        if da == db:\n            return self._num == other._num\n",
           "        if da == db:\n            return True\n", ("tests/test_series.py",)),
    Mutant("scale-minus-one-is-identity", SERIES,
           "return -self", "return self", ("tests/test_series.py",)),
    Mutant("log1p-of-weight-minus-one", SERIES,
           "return self.lambda_log(1)", "return self.lambda_log(-1)", ("tests/test_series.py",)),
    # exp, lambda_log and geom_inv on settle or the power sum, each with its
    # ratio.
    Mutant("relaxed-loop-last-term-dropped", SERIES,
           "for j in range(1, k + 1):", "for j in range(1, k):", ("tests/test_series.py",)),
    Mutant("power-sum-ratio-ignored", SERIES,
           "term = term._mul(x, q, p)", "term = term._mul(x)", ("tests/test_series.py",)),
    Mutant("mul-ratio-numerator-ignored", SERIES,
           "out = [p * v for v in out]", "pass", ("tests/test_series.py",)),
    Mutant("exp-no-reciprocal", SERIES,
           "+ self, lambda n: (1, n))", "+ self, lambda n: (1, 1))",
           ("tests/test_series.py",)),
    Mutant("exp-recurrence-unweighted", SERIES,
           "return settle(one, self.termwise(range(self.cap + 1), 1),",
           "return settle(one, self,", ("tests/test_series.py",)),
    Mutant("log-recurrence-weight-sign", SERIES,
           "1), self, lambda n: (-p, q))", "1), self, lambda n: (p, q))",
           ("tests/test_series.py",)),
    Mutant("log-integral-not-divided", SERIES,
           "[den // max(n, 1) for n in", "[den for n in", ("tests/test_series.py",)),
    Mutant("log-power-ratio-numerator-dropped", SERIES,
           "lambda n: (-p * (n - 1), q * n)", "lambda n: (-p, q * n)",
           ("tests/test_series.py",)),
    Mutant("geom-inv-weight-sign", SERIES,
           "self.cap), self, lambda n: (-p, q))", "self.cap), self, lambda n: (p, q))",
           ("tests/test_series.py",)),
    # The text written from the numerators.
    Mutant("text-entry-not-reduced", SERIES,
           "g = gcd(v, den)", "g = 1", ("tests/test_series.py",)),
    Mutant("text-row-brackets-dropped", RINGS,
           'rows = ["[" + ",".join(entries[i : i + dim]) + "]" for',
           'rows = [",".join(entries[i : i + dim]) for', ("tests/test_rings.py",)),
    # One constructor contract, and the one q-product of the Eulerian checks.
    Mutant("constructor-keeps-excess", SERIES,
           "for e in ring.entries(v)][:size]", "for e in ring.entries(v)]",
           ("tests/test_series.py",)),
    # Each gen-spitzer id runs only in its setting.
    Mutant("gen-spitzer-dim-unchecked", CHECKS,
           "if commutative not in (None, ring.commutative):", "if False:",
           ("tests/test_checks.py",)),
    Mutant("gen-spitzer-weight-unchecked", CHECKS,
           "if weight_zero not in (None, op.weight == 0):", "if False:",
           ("tests/test_checks.py",)),
    Mutant("q-product-inverse-ignored", CHECKS,
           "(1 if inverse else -1) * (-sign * a) ** j", "-(-sign * a) ** j",
           ("tests/test_checks.py",)),
    # The q-series on integers: a negative denominator's sign moves onto the
    # numerators.
    Mutant("q-product-negative-denominator-sign-dropped", CHECKS,
           "terms.append((-num, -den) if den < 0 else (num, den))",
           "terms.append((num, abs(den)))", ("tests/test_checks.py",)),
    Mutant("q-sum-negative-product-sign-dropped", CHECKS,
           "num, tail = [-v for v in num], -tail", "tail = -tail",
           ("tests/test_checks.py",)),
    # The bracketed text form read as JSON, each entry quoted.
    Mutant("reader-lets-recursion-error-out", SERIES,
           "except (TypeError, RecursionError) as exc:", "except TypeError as exc:",
           ("tests/test_series.py",)),
    Mutant("reader-admits-quote-into-entry", SERIES,
           r'],"\\]+', r'],\\]+', ("tests/test_series.py",)),
    # Ring elements at the boundary: the identity's multiples, and no floats.
    Mutant("element-scalar-on-every-entry", RINGS,
           "diagonal if i % (d + 1) == 0 else (0, 1)", "diagonal", ("tests/test_rings.py",)),
    Mutant("matrix-string-row-read-as-characters", RINGS,
           "not isinstance(row, (list, tuple)) or len(row) != d", "len(row) != d",
           ("tests/test_rings.py",)),
    Mutant("rational-accepts-float", RINGS,
           "if isinstance(value, (float, bool)):", "if isinstance(value, bool):",
           ("tests/test_rings.py", "tests/test_cli.py")),
    # A ring is its dimension, and only Q commutes; a draw reaches both ends.
    Mutant("commutative-up-to-dim-two", RINGS,
           "return self.dim == 1", "return self.dim <= 2", ("tests/test_rings.py",)),
    Mutant("draw-numerator-misses-plus-bound", RINGS,
           "for p in range(-bound, bound + 1)", "for p in range(-bound, bound)",
           ("tests/test_rings.py",)),
    # rb-axiom in two products: the companion by ring arithmetic, s from the
    # difference of the companion's product and P's.
    Mutant("rb-axiom-products-summed", CHECKS,
           "ptpt - pxpy", "ptpt + pxpy", ("tests/test_checks.py",)),
    Mutant("rb-axiom-companion-weight-sign", CHECKS,
           "x.scale(-w) - px", "x.scale(w) - px", ("tests/test_checks.py",)),
    Mutant("rb-axiom-weight-zero-drops-term", CHECKS,
           "x * py + px * y", "x * py", ("tests/test_checks.py",)),
    # One-pass operator application over cached per-entry factor vectors.
    Mutant("companion-factor-plus-weight", OPERATORS,
           "-w * den - m", "w * den - m", ("tests/test_operators.py",)),
    Mutant("entry-vector-repeated-dim-times", OPERATORS,
           "for _ in range(dim * dim)", "for _ in range(dim)", ("tests/test_operators.py",)),
    # The command line: one flag table per process, read by one reader that
    # takes values beginning with '-', splits `--name=value` and refuses a
    # missing value or one off a flag's choices; and verify's echo of params.
    Mutant("cli-parser-rebuilt-per-call", CLI,
           "@functools.cache\ndef build_parser", "def build_parser", ("tests/test_cli.py",)),
    Mutant("cli-dash-value-read-as-flag", CLI,
           "        if value is None:\n", "        if value is None or value.startswith(\"-\"):\n",
           ("tests/test_cli.py",)),
    Mutant("cli-equals-not-split", CLI,
           'arg[2:].partition("=")', '(arg[2:], "", "")', ("tests/test_cli.py",)),
    Mutant("cli-choices-unchecked", CLI,
           "if isinstance(choices, tuple) and value not in choices:", "if False:",
           ("tests/test_cli.py",)),
    Mutant("cli-missing-value-unchecked", CLI,
           "        if value is None:\n", "        if False:\n", ("tests/test_cli.py",)),
    Mutant("verify-echoes-unread-flags", CLI,
           "flags.pop(name) for name in VERIFY_FLAGS", "flags[name] for name in VERIFY_FLAGS",
           ("tests/test_cli.py",)),
    # A result too long to write is an error line and exit 2, not a traceback.
    Mutant("digit-limit-error-uncaught", CLI,
           "except (ParamError, UsageError, DigitLimitError, OSError) as exc:",
           "except (ParamError, UsageError, OSError) as exc:", ("tests/test_cli.py",)),
    # One reader of params for verify, solve, manifests and run_check.
    Mutant("read-params-accepts-unknown-name", CHECKS,
           "if name not in names:", "if name not in PARAMS:", PARAMS_READ),
    Mutant("read-params-keeps-q-for-antider", CHECKS,
           "params.pop(\"q\", None)", "pass", PARAMS_READ),
    Mutant("integer-bound-unchecked", CHECKS,
           "if least is not None and value < least:", "if False:", PARAMS_READ),
    Mutant("integer-most-unchecked", CHECKS,
           "if most is not None and value > most:", "if False:", PARAMS_READ),
    Mutant("integer-most-refused", CHECKS,
           "value > most:", "value >= most:", PARAMS_READ),
)


def _copy(dest: Path) -> None:
    for part in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / part, dest / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))


def _pytest(where: Path, tests: tuple) -> tuple[int, float]:
    """pytest's exit code on `tests` in the copy at `where` (-1 on timeout),
    and the seconds it took."""
    env = dict(os.environ, PYTHONPATH=str(where / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=where, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S,
        ).returncode
    except subprocess.TimeoutExpired:
        code = -1
    return code, time.perf_counter() - start


def verdict(code: int) -> str:
    """A mutant's verdict from pytest's exit code on its tests."""
    if code == 1:
        return "killed"
    if code == 0:
        return "SURVIVED"
    return "BROKEN"


def run(mutants: list) -> int:
    with tempfile.TemporaryDirectory(prefix="rbseries-mutants-") as tmp:
        base = Path(tmp) / "unmutated"
        _copy(base)
        tests = tuple(sorted({t for m in mutants for t in m.tests}))
        code, secs = _pytest(base, tests)
        print(f"unmutated copy: pytest exit {code} ({secs:.1f} s)")
        if code != 0:
            return 1
        survivors = broken = 0
        for m in mutants:
            where = Path(tmp) / m.name
            _copy(where)
            target = where / m.path
            text = target.read_text()
            if text.count(m.old) != 1:
                print(f"{m.name}: old text found {text.count(m.old)} times in {m.path}")
                return 2
            target.write_text(text.replace(m.old, m.new))
            code, secs = _pytest(where, m.tests)
            found = verdict(code)
            survivors += found == "SURVIVED"
            broken += found == "BROKEN"
            print(f"{m.name}: {found} (pytest exit {code}, {secs:.1f} s)")
            shutil.rmtree(where)
        print(f"{len(mutants)} mutants, {survivors} survived, {broken} broken")
        return 2 if broken else 1 if survivors else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="print the mutant names")
    args = parser.parse_args()
    if args.list:
        for m in MUTANTS:
            print(f"{m.name}  {m.path}  {' '.join(m.tests)}")
        return 0
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        parser.error(f"unknown mutant: {', '.join(unknown)}")
    return run([known[n] for n in args.names] if args.names else list(MUTANTS))


if __name__ == "__main__":
    sys.exit(main())
