"""Acceptance gate: every criterion at its stated size, all equalities exact.

Each test prints one `ACCEPT <n> ... pass` line (visible with pytest -s);
an assertion failure marks the criterion red.
"""

import hashlib
import json
import random
import time
from math import comb

import pytest

from rbseries.checks import (
    FAIL,
    PASS,
    default_manifest,
    run_check,
    run_suite,
    suite_ok,
)
from rbseries.cli import report_to_dict
from rbseries.operators import ANTIDER, QINT, QSCALE, OperatorSpec, apply, tilde_apply
from rbseries.rings import Q, RingDescriptor, matrix_ring, rational
from rbseries.series import TruncatedSeries
from rbseries.solvers import (
    HOMOGENEOUS,
    INHOM_LEFT,
    INHOM_RIGHT,
    EquationSpec,
    bernoulli,
    chi_lambda,
    inhom_closed_commutative,
    inhom_closed_noncommutative,
    inhom_closed_weight0,
    picard_solve,
    spitzer_closed,
)

from conftest import power
from test_series import S, random_series

Q_SET = ("1/2", "2/3", "-1/2", "3")
EULERIAN_Q_SET = ("1/2", "2/3", "-1/2", "3", "5/7")

SCALAR = RingDescriptor()
MAT2 = matrix_ring(2)


def q_operators():
    for q in Q_SET:
        yield OperatorSpec(QINT, rational(q))
    for q in Q_SET:
        yield OperatorSpec(QSCALE, rational(q))


def all_operators():
    yield from q_operators()
    yield OperatorSpec(ANTIDER)


def _done(n, detail=""):
    print(f"ACCEPT {n:2d} {detail} pass")


def test_criterion_1_rota_baxter_axiom():
    started = time.perf_counter()
    for dim in (1, 2):
        for op in all_operators():
            params = {"operator": op.kind, "order": 16, "dim": dim,
                      "samples": 100, "seed": 101}
            if op.kind != ANTIDER:
                params["q"] = str(op.q)
            report = run_check("rb-axiom", params)
            assert report.status == PASS, (op, dim, report.first_mismatch)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"criterion 1 runtime {elapsed:.1f}s exceeds 10s"
    _done(1, f"rb-axiom 18 configs x 100 pairs cap 16 ({elapsed:.1f}s)")


def test_criterion_2_spitzer():
    cap = 20
    rng = random.Random(102)
    for op in all_operators():
        samples = [TruncatedSeries.var(SCALAR, cap)]
        samples += [random_series(SCALAR, cap, rng, 1) for _ in range(20)]
        for a in samples:
            closed = spitzer_closed(op, a)
            iterated = picard_solve(EquationSpec(HOMOGENEOUS, op, a))
            assert closed == iterated, op
    _done(2, "spitzer closed = picard, cap 20, 21 series x 9 operators")


def test_criterion_3_commutative_inhomogeneous():
    cap = 16
    rng = random.Random(103)
    for op in (OperatorSpec(QINT, rational("1/2")),
               OperatorSpec(QSCALE, rational("1/2")),
               OperatorSpec(ANTIDER)):
        for _ in range(20):
            a0 = random_series(SCALAR, cap, rng, 1)
            a1 = random_series(SCALAR, cap, rng, 1)
            eq = EquationSpec(INHOM_LEFT, op, a1, a0)
            assert inhom_closed_commutative(eq) == picard_solve(eq), op
    _done(3, "commutative closed = picard, cap 16, 20 pairs x 3 operators")


def test_criterion_4_noncommutative_inhomogeneous():
    started = time.perf_counter()
    cap = 10
    rng = random.Random(104)
    ops = (OperatorSpec(QINT, rational("1/2")),
           OperatorSpec(QSCALE, rational("1/2")),
           OperatorSpec(ANTIDER))
    for dim in (2, 3):
        ring = matrix_ring(dim)
        for op in ops:
            for _ in range(10):
                a0 = random_series(ring, cap, rng, 1, 3)
                a1 = random_series(ring, cap, rng, 1, 3)
                eq_l = EquationSpec(INHOM_LEFT, op, a1, a0)
                if op.weight == 0:
                    closed = inhom_closed_weight0(eq_l)
                else:
                    closed = inhom_closed_noncommutative(eq_l, "left")
                assert closed == picard_solve(eq_l), (op, dim)
                if op.weight != 0:
                    eq_r = EquationSpec(INHOM_RIGHT, op, a1, a0)
                    closed_r = inhom_closed_noncommutative(eq_r, "right")
                    assert closed_r == picard_solve(eq_r), (op, dim)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"criterion 4 runtime {elapsed:.1f}s exceeds 60s"
    _done(4, f"non-commutative closed = picard, dims 2/3, cap 10 ({elapsed:.1f}s)")


def test_criterion_5_bch_chl_factorization():
    cap = 10
    rng = random.Random(105)
    for op in (OperatorSpec(QINT, rational("1/2")),
               OperatorSpec(QSCALE, rational("1/2"))):
        for _ in range(10):
            a = random_series(MAT2, cap, rng, 1, 3)
            chi = chi_lambda(op, a)
            lhs = a.scale(-op.weight).exp()
            rhs = apply(op, chi).exp() * tilde_apply(op, chi).exp()
            assert lhs == rhs, op
    _done(5, "exp(-w a) factorization, 10 matrix inputs per q-operator")


def test_criterion_6_kingman():
    cap = 12
    rng = random.Random(106)
    for op in (OperatorSpec(QINT, rational("1/2")),
               OperatorSpec(QSCALE, rational("1/2"))):
        for _ in range(10):
            u = random_series(SCALAR, cap, rng, 1)
            pu = apply(op, u)
            ptu = tilde_apply(op, u)
            for n in range(1, 7):
                lhs = power(pu, n).scale(op.weight)
                rhs = apply(op, power(-ptu, n) - power(pu, n))
                assert lhs == rhs, (op, n)
    _done(6, "kingman n=1..6, both nonzero weights, cap 12")


def test_criterion_7_iteration_lemma():
    cap = 12
    op = OperatorSpec(ANTIDER)
    rng = random.Random(107)
    for _ in range(10):
        a = random_series(SCALAR, cap, rng, 0)
        nested = [TruncatedSeries.one(SCALAR, cap)]
        for _ in range(9):
            nested.append(apply(op, a * nested[-1]))
        pa = apply(op, a)
        fact = 1
        for k in range(9):
            if k:
                fact *= k
            assert nested[k] == power(pa, k).scale(Q(1, fact)), ("A", k)
        for k in range(7):
            acc = TruncatedSeries.zero(SCALAR, cap)
            for l in range(k + 1):
                term = nested[k + 1 - l] * nested[l]
                acc = acc + (term if l % 2 == 0 else -term)
            rhs = nested[k + 1] if k % 2 == 0 else -nested[k + 1]
            assert acc == rhs, ("B", k)
    _done(7, "iteration lemma A k<=8, B k<=6, cap 12")


def test_criterion_8_eulerian_suite():
    for q in EULERIAN_Q_SET:
        for ident in ("eulerian-prop-two", "eulerian-interior-lemma",
                      "eulerian-qbinomial-corrected",
                      "eulerian-prop-one-corrected"):
            assert run_check(ident, {"q": q, "order": 30}).status == PASS, (ident, q)
        for ident in ("computation-one", "eulerian-third",
                      "eulerian-first-partial"):
            assert run_check(ident, {"q": q, "order": 30}).status == PASS, (ident, q)
        qq = rational(q)
        r1 = run_check("eulerian-prop-one-printed", {"q": q, "order": 30})
        assert r1.status == FAIL and r1.first_mismatch.power == 1
        assert r1.first_mismatch.lhs == str(qq / (1 - qq))
        assert r1.first_mismatch.rhs == str((2 * qq - 1) / (1 - qq))
        r2 = run_check("eulerian-qbinomial-printed", {"q": q, "order": 30})
        assert r2.status == FAIL and r2.first_mismatch.power == 1
        assert r2.first_mismatch.lhs == str(1 / (1 - qq))
        assert r2.first_mismatch.rhs == str(qq / (1 - qq))
    _done(8, "eulerian suite at cap 30, five q values, printed forms fail at t^1")


@pytest.fixture(scope="module")
def default_suite():
    started = time.perf_counter()
    manifest = default_manifest()
    reports = run_suite(manifest)
    return manifest, reports, time.perf_counter() - started


def test_criterion_8_default_suite_exits_clean(default_suite):
    manifest, reports, elapsed = default_suite
    assert suite_ok(manifest, reports)
    assert elapsed < 180.0, f"default suite took {elapsed:.1f}s, over 3 minutes"
    _done(8, f"default manifest suite all-expected ({elapsed:.1f}s)")


def test_default_suite_reports_unchanged(default_suite):
    """Every report key but elapsed_ms is pinned by a digest of the reference
    output, so no change to the checks can alter a status, a reported param or
    a mismatch unnoticed."""
    _, reports, _ = default_suite
    dicts = [{k: v for k, v in report_to_dict(r).items() if k != "elapsed_ms"}
             for r in reports]
    digest = hashlib.sha256(json.dumps(dicts, sort_keys=True).encode()).hexdigest()
    assert digest == "45de356bf152f83daee6efc26a995e9a7ae60237c4c5d251d7dc8ac68dd5a621"


def test_criterion_9_special_equality():
    cap = 12
    rng = random.Random(109)
    one = TruncatedSeries.one(SCALAR, cap)
    for op in (OperatorSpec(QINT, rational("1/2")),
               OperatorSpec(QSCALE, rational("1/2"))):
        samples = [TruncatedSeries.var(SCALAR, cap)]
        samples += [random_series(SCALAR, cap, rng, 1) for _ in range(10)]
        for a1 in samples:
            u = a1.lambda_log(op.weight)
            e_minus = (-apply(op, u)).exp()
            inv = a1.geom_inv(op.weight)
            assert one - apply(op, e_minus * inv * a1) == e_minus, op
            assert e_minus == one + apply(op, (-(inv * a1)) * e_minus), op
    _done(9, "special equality and companion equation, cap 12")


def test_criterion_10_bernoulli():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Q(-1, 2)
    assert bernoulli(2) == Q(1, 6)
    for k in range(3, 21, 2):
        assert bernoulli(k) == 0
    for k in range(1, 21):
        assert sum(comb(k + 1, j) * bernoulli(j) for j in range(k + 1)) == 0
    _done(10, "bernoulli B0..B20 recurrence and values")


def test_criterion_11_spot_values():
    t2 = TruncatedSeries.var(SCALAR, 2)
    qi = OperatorSpec(QINT, rational("1/2"))
    assert picard_solve(EquationSpec(INHOM_LEFT, qi, t2, t2)) == S("0,1,2/3")
    t4 = TruncatedSeries.var(SCALAR, 4)
    j = OperatorSpec(ANTIDER)
    assert picard_solve(EquationSpec(INHOM_LEFT, j, t4, t4)) == S("0,0,1/2,0,1/8")
    _done(11, "spot values t + 2/3 t^2 and t^2/2 + t^4/8")
