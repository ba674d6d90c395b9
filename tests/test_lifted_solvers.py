"""The lifted fixed-point solvers against the full-cap iterations they replace,
and the convergence proof that ends every lift."""

import random
from math import factorial

import pytest

from rbseries import solvers
from rbseries.checks import run_check
from rbseries.operators import ANTIDER, QINT, QSCALE, OperatorSpec, apply, tilde_apply
from rbseries.rings import matrix_ring, rational
from rbseries.series import DomainError, TruncatedSeries
from rbseries.solvers import (
    FORMS,
    HOMOGENEOUS,
    INHOM_LEFT,
    INHOM_RIGHT,
    ConvergenceError,
    EquationSpec,
    bch,
    bernoulli,
    chi_lambda,
    chi_zero,
    picard_solve,
)

from conftest import MAT2, SCALAR
from test_series import random_series

MAT3 = matrix_ring(3)
RINGS = {"scalar": SCALAR, "2x2": MAT2, "3x3": MAT3}
OPS = {
    "qint-1/2": OperatorSpec(QINT, rational("1/2")),
    "qscale--1/2": OperatorSpec(QSCALE, rational("-1/2")),
    "antider": OperatorSpec(ANTIDER),
}
CAPS = (0, 1, 2, 6, 10)


# ------------------------------------------- reference: full-cap iterations
#
# The iterations the lifted solvers replaced: every step runs at full cap,
# Picard starts from zero and chi from a, and each stops when a step returns
# its input.


def reference_rhs(eq, b):
    w = eq.op.weight
    one = TruncatedSeries.one(eq.a1.ring, eq.a1.cap)
    if eq.form == HOMOGENEOUS:
        return one + apply(eq.op, eq.a1 * b)
    unit_shift = one + eq.a1.scale(w)
    if eq.form == INHOM_LEFT:
        return apply(eq.op, unit_shift * eq.a0) + apply(eq.op, eq.a1 * b)
    return apply(eq.op, eq.a0 * unit_shift) + apply(eq.op, b * eq.a1)


def reference_picard(eq):
    b = TruncatedSeries.zero(eq.a1.ring, eq.a1.cap)
    for _ in range(eq.a1.cap + 2):
        nxt = reference_rhs(eq, b)
        if nxt == b:
            return b
        b = nxt
    return b


def reference_chi_lambda(op, a):
    inv_w = 1 / op.weight
    x = a
    for _ in range(a.cap + 1):
        nxt = a + bch(apply(op, x), tilde_apply(op, x)).scale(inv_w)
        if nxt == x:
            return x
        x = nxt
    return x


def reference_chi_zero(op, a):
    def step(x):
        p = apply(op, x)
        out = term = a
        for k in range(1, a.cap + 1):
            term = p * term - term * p
            if term.is_zero():
                break
            out = out + term.scale(bernoulli(k) / factorial(k))
        return out

    x = a
    for _ in range(a.cap + 1):
        nxt = step(x)
        if nxt == x:
            return x
        x = nxt
    return x


def inputs(ring_name, op_name, cap, count=2):
    rng = random.Random(f"{ring_name} {op_name} {cap}")
    ring = RINGS[ring_name]
    return [(random_series(ring, cap, rng, 1, 3), random_series(ring, cap, rng, 1, 3))
            for _ in range(count)]


# --------------------------------------------------- lifted == reference


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("op_name", OPS)
@pytest.mark.parametrize("ring_name", RINGS)
def test_lifted_picard_matches_full_cap(ring_name, op_name, cap):
    op = OPS[op_name]
    for a0, a1 in inputs(ring_name, op_name, cap):
        for form in FORMS:
            eq = EquationSpec(form, op, a1, None if form == HOMOGENEOUS else a0)
            b = picard_solve(eq)
            assert b == reference_picard(eq)
            assert reference_rhs(eq, b) == b


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("op_name", OPS)
@pytest.mark.parametrize("ring_name", RINGS)
def test_lifted_chi_matches_full_cap(ring_name, op_name, cap):
    op = OPS[op_name]
    lifted, reference = ((chi_zero, reference_chi_zero) if op.weight == 0
                         else (chi_lambda, reference_chi_lambda))
    for a, _ in inputs(ring_name, op_name, cap):
        x = lifted(op, a)
        assert x == reference(op, a)
        assert x.cap == cap and x.ring == a.ring


@pytest.mark.parametrize("op_name", ["qint-1/2", "qscale--1/2"])
@pytest.mark.parametrize("ring_name", ["scalar", "2x2"])
def test_relaxed_chi_lambda_matches_full_cap_at_cap_16(ring_name, op_name):
    op = OPS[op_name]
    a, _ = inputs(ring_name, op_name, 16, count=1)[0]
    assert chi_lambda(op, a) == reference_chi_lambda(op, a)


@pytest.mark.parametrize("cap", [0, 1, 6])
@pytest.mark.parametrize("op_name", ["qint-1/2", "qscale--1/2"])
def test_chi_lambda_rejects_a_nonzero_constant_term(op_name, cap):
    op = OPS[op_name]
    a = TruncatedSeries.from_coeffs(MAT2, cap, [[[1, 0], [0, 2]], [[1, 1], [0, 1]]])
    with pytest.raises(DomainError, match=f"^{op.kind}: operator undefined on constant term$"):
        chi_lambda(op, a)


# ------------------------------------------------------ non-convergence


def lowering(op, x):
    """A wrong operator: t^n -> t^(n-1) for n >= 2, with t^0 and t^1 dropped.

    It lowers the valuation, so no fixed-point map built on it settles a
    coefficient per step; it keeps every constant term zero, so exp and log
    stay defined and only the convergence proof can catch it.
    """
    zero = x.ring.element(0)
    coeffs = x.coeffs
    return TruncatedSeries(x.ring, x.cap, (zero,) + coeffs[2:] + (zero,) * min(1, x.cap))


def test_lowering_operator_lowers_valuation():
    t = TruncatedSeries.var(MAT2, 4)
    assert lowering(None, t * t * t) == t * t
    assert lowering(None, t).is_zero()


@pytest.fixture
def wrong_operator(monkeypatch):
    monkeypatch.setattr(solvers, "apply", lowering)


@pytest.mark.parametrize("form", FORMS)
def test_picard_raises_on_a_wrong_operator(wrong_operator, form):
    a0, a1 = inputs("2x2", "qint-1/2", 6)[0]
    eq = EquationSpec(form, OPS["qint-1/2"], a1, None if form == HOMOGENEOUS else a0)
    with pytest.raises(ConvergenceError, match="picard_solve"):
        picard_solve(eq)


@pytest.mark.parametrize("op_name", ["qint-1/2", "qscale--1/2"])
def test_chi_lambda_raises_on_a_wrong_operator(wrong_operator, op_name):
    a, _ = inputs("2x2", op_name, 6)[0]
    with pytest.raises(ConvergenceError, match="chi_lambda"):
        chi_lambda(OPS[op_name], a)


def test_chi_zero_raises_on_a_wrong_operator(wrong_operator):
    a, _ = inputs("2x2", "antider", 6)[0]
    with pytest.raises(ConvergenceError, match="chi_zero"):
        chi_zero(OPS["antider"], a)


def test_run_check_does_not_report_non_convergence_as_domain_error(wrong_operator):
    params = {"operator": "qint", "q": "1/2", "dim": 2, "order": 6, "samples": 2}
    with pytest.raises(ConvergenceError):
        run_check("bch-chl-factorization", params)
    with pytest.raises(ConvergenceError):
        run_check("gen-spitzer-noncomm", params)


# ------------------------------------------ the relaxed kernel at cap 16


@pytest.mark.parametrize("op_name", OPS)
@pytest.mark.parametrize("ring_name", ["2x2", "3x3"])
def test_relaxed_picard_matches_full_cap_at_cap_16(ring_name, op_name):
    op = OPS[op_name]
    a0, a1 = inputs(ring_name, op_name, 16, count=1)[0]
    for form in FORMS:
        eq = EquationSpec(form, op, a1, None if form == HOMOGENEOUS else a0)
        assert picard_solve(eq) == reference_picard(eq)


@pytest.mark.parametrize("ring_name", ["2x2", "3x3"])
def test_relaxed_chi_zero_matches_full_cap_at_cap_16(ring_name):
    a, _ = inputs(ring_name, "antider", 16, count=1)[0]
    assert chi_zero(OPS["antider"], a) == reference_chi_zero(OPS["antider"], a)


def test_chi_zero_of_a_series_with_a_constant_term():
    """antider is defined on a constant term; then P(x) starts at t^1."""
    a = TruncatedSeries.from_coeffs(MAT2, 6, [[[1, 2], [0, -1]], [[0, 1], [3, 0]],
                                              [[1, 0], [1, 1]]])
    assert chi_zero(OPS["antider"], a) == reference_chi_zero(OPS["antider"], a)


# ------------------------------------------------ the settles' block towers
#
# _settle_split and _settle_chi_zero settle one reduced block per coefficient
# and skip zero blocks. An input of valuation 3 leaves whole coefficients of
# the towers (P x)^n/n!, (Pt x)^n/n! and ad_P^k(a) zero.

TOWER_CAPS = (0, 1, 2, 16)


def tower_input(ring_name, cap, valuation):
    """A random series whose coefficients below t^valuation are zero."""
    rng = random.Random(f"tower {ring_name} {cap} {valuation}")
    return random_series(RINGS[ring_name], cap, rng, valuation, 3)


@pytest.mark.parametrize("valuation", [1, 3])
@pytest.mark.parametrize("cap", TOWER_CAPS)
@pytest.mark.parametrize("op_name", ["qint-1/2", "qscale--1/2"])
@pytest.mark.parametrize("ring_name", RINGS)
def test_settle_split_factors_its_input(ring_name, op_name, cap, valuation):
    """E = exp(P x), F = exp(Pt x) with Pt x = -w x - P x, and E F = g."""
    op = OPS[op_name]
    w = op.weight
    g = tower_input(ring_name, cap, valuation).geom_inv(w)
    x, e, f = solvers._settle_split(op, g)
    p = apply(op, x)
    assert e == p.exp()
    assert f == (x.scale(-w) - p).exp()
    assert e * f == g
    assert x.valuation() >= min(valuation, cap + 1)


@pytest.mark.parametrize("valuation", [1, 3])
@pytest.mark.parametrize("cap", TOWER_CAPS)
@pytest.mark.parametrize("ring_name", RINGS)
def test_settle_chi_zero_is_fixed_by_its_map(ring_name, cap, valuation):
    op = OPS["antider"]
    a = tower_input(ring_name, cap, valuation)
    x = solvers._settle_chi_zero(op, a)
    assert solvers._chi_zero_map(op, a, x) == x
    assert x.valuation() >= min(valuation, cap + 1)


# --------------------------------- closed_solve on the proved exponentials

CLOSED_OPS = [OperatorSpec(kind, rational(q)) for kind in (QINT, QSCALE)
              for q in ("1/2", "-1/2", "3")] + [OperatorSpec(ANTIDER)]


@pytest.mark.parametrize("cap", [10, 16])
@pytest.mark.parametrize("ring_name", ["2x2", "3x3"])
@pytest.mark.parametrize("op", CLOSED_OPS, ids=lambda op: f"{op.kind}-{op.q}")
def test_closed_solve_matches_picard(op, ring_name, cap):
    a0, a1 = inputs(ring_name, f"{op.kind} {op.q}", cap, count=1)[0]
    for form in FORMS:
        eq = EquationSpec(form, op, a1, None if form == HOMOGENEOUS else a0)
        assert solvers.closed_solve(eq) == picard_solve(eq)


@pytest.mark.parametrize("op_name", ["qint-1/2", "qscale--1/2"])
@pytest.mark.parametrize("form", FORMS)
def test_closed_solve_raises_on_a_wrong_operator(wrong_operator, form, op_name):
    a0, a1 = inputs("2x2", op_name, 6)[0]
    eq = EquationSpec(form, OPS[op_name], a1, None if form == HOMOGENEOUS else a0)
    with pytest.raises(ConvergenceError, match="closed_solve"):
        solvers.closed_solve(eq)


# ------------------------------ closed_solve proves its answer, not its split
#
# Over a matrix ring closed_solve builds its answer from unproved settles and
# proves it once, by the residual of the equation it was given. Each fault
# below changes the answer without touching P, so only that residual can
# catch it.

NONZERO_WEIGHT = ["qint-1/2", "qscale--1/2"]
INHOM = [f for f in FORMS if f != HOMOGENEOUS]


def closed_equation(op_name, form):
    a0, a1 = inputs("2x2", op_name, 6)[0]
    return EquationSpec(form, OPS[op_name], a1, None if form == HOMOGENEOUS else a0)


def wrong_at_t1(s):
    """s with 1 added to the top-left entry of its t^1 coefficient."""
    return s + TruncatedSeries.from_coeffs(s.ring, s.cap, [0, [[1, 0], [0, 0]]])


@pytest.mark.parametrize("op_name,part,form",
                         [(op, "E", form) for op in NONZERO_WEIGHT for form in FORMS]
                         # the homogeneous answer is exp(P chi) alone: F is not used
                         + [(op, "F", form) for op in NONZERO_WEIGHT for form in INHOM]
                         + [("antider", "x", form) for form in FORMS])
def test_closed_solve_raises_on_a_wrong_settled_coefficient(monkeypatch, op_name, part, form):
    """A settle returning E = exp(P chi) or F = exp(Pt chi) of the split, or
    chi_zero's x, with one wrong coefficient."""
    settle_split, settle_chi_zero = solvers._settle_split, solvers._settle_chi_zero

    def split(op, g):
        x, e, f = settle_split(op, g)
        return (x, wrong_at_t1(e), f) if part == "E" else (x, e, wrong_at_t1(f))

    if part == "x":
        monkeypatch.setattr(solvers, "_settle_chi_zero",
                            lambda op, a: wrong_at_t1(settle_chi_zero(op, a)))
    else:
        monkeypatch.setattr(solvers, "_settle_split", split)
    with pytest.raises(ConvergenceError, match="^closed_solve: "):
        solvers.closed_solve(closed_equation(op_name, form))


@pytest.mark.parametrize("op_name", OPS)
def test_closed_solve_raises_on_a_transpose_that_keeps_the_entries(monkeypatch, op_name):
    """Only the right-handed equation is solved through transposes."""
    eq = closed_equation(op_name, INHOM_RIGHT)
    monkeypatch.setattr(TruncatedSeries, "transpose", lambda self: self)
    with pytest.raises(ConvergenceError, match="^closed_solve: "):
        solvers.closed_solve(eq)


@pytest.mark.parametrize("op_name", NONZERO_WEIGHT)
@pytest.mark.parametrize("form", INHOM)
def test_closed_solve_raises_on_a_dropped_unit_shift(monkeypatch, op_name, form):
    """The answer built on exp(-P chi) a0 = exp(Pt chi) a0, not on
    exp(Pt chi)(1 + w a1) a0. At weight 0 the unit shift is 1."""
    eq = closed_equation(op_name, form)
    closed = solvers._closed_left
    a0 = eq.a0 if form == INHOM_LEFT else eq.a0.transpose()
    monkeypatch.setattr(solvers, "_closed_left",
                        lambda op, a1, shifted: closed(op, a1, a0))
    with pytest.raises(ConvergenceError, match="^closed_solve: "):
        solvers.closed_solve(eq)


@pytest.mark.parametrize("ring_name", ["scalar", "2x2", "3x3"])
@pytest.mark.parametrize("op_name", OPS)
@pytest.mark.parametrize("form", FORMS)
def test_closed_solve_proves_once_against_the_equation_given(monkeypatch, form, op_name,
                                                             ring_name):
    """One residual per call over a matrix ring, of the answer returned and
    the equation given, with no proof of the split or of chi_zero; none over
    Q, where no fixed point is settled."""
    a0, a1 = inputs(ring_name, op_name, 6)[0]
    eq = EquationSpec(form, OPS[op_name], a1, None if form == HOMOGENEOUS else a0)
    require_solution, proved = solvers._require_solution, []

    def spy(solver, equation, b, const):
        proved.append((solver, equation, b))
        require_solution(solver, equation, b, const)

    def unused(*args):
        raise AssertionError("closed_solve ran a proof of its split or of chi_zero")

    monkeypatch.setattr(solvers, "_require_solution", spy)
    for name in ("_chi_zero_map", "chi_lambda", "chi_zero"):
        monkeypatch.setattr(solvers, name, unused)
    b = solvers.closed_solve(eq)
    if ring_name == "scalar":
        assert proved == []
    else:
        assert len(proved) == 1
        assert proved[0][0] == "closed_solve" and proved[0][1] is eq and proved[0][2] is b
    assert b == picard_solve(eq)
