import random
from math import comb

import pytest

from rbseries.operators import ANTIDER, QINT, QSCALE, OperatorSpec, apply, tilde_apply
from rbseries.rings import Q, matrix_ring, rational
from rbseries.series import TruncatedSeries
from rbseries.solvers import (
    HOMOGENEOUS,
    INHOM_LEFT,
    INHOM_RIGHT,
    EquationSpec,
    SolverUsageError,
    bch,
    bernoulli,
    chi_lambda,
    chi_zero,
    closed_solve,
    inhom_closed_commutative,
    inhom_closed_noncommutative,
    inhom_closed_weight0,
    picard_solve,
    spitzer_closed,
)

from conftest import MAT2, SCALAR
from test_lifted_solvers import reference_rhs
from test_series import S, random_series

QI = OperatorSpec(QINT, rational("1/2"))
QS = OperatorSpec(QSCALE, rational("1/2"))
J = OperatorSpec(ANTIDER)


def var(cap, ring=SCALAR):
    return TruncatedSeries.var(ring, cap)


# ------------------------------------------------------------------ picard


def test_picard_homogeneous_qint():
    b = picard_solve(EquationSpec(HOMOGENEOUS, QI, var(2)))
    assert b == S("1,1,1/3")


def test_picard_inhom_left_qint():
    t = var(2)
    b = picard_solve(EquationSpec(INHOM_LEFT, QI, t, t))
    assert b == S("0,1,2/3")


def test_picard_inhom_left_antider():
    t = var(4)
    b = picard_solve(EquationSpec(INHOM_LEFT, J, t, t))
    assert b == S("0,0,1/2,0,1/8")


def test_picard_uniqueness_from_any_start():
    t = var(6)
    eq = EquationSpec(INHOM_LEFT, QI, t, t)
    expected = picard_solve(eq)
    for seed in range(3):
        b = random_series(SCALAR, 6, random.Random(seed))
        for _ in range(8):
            b = reference_rhs(eq, b)
        assert b == expected


def test_equation_spec_validation():
    t = var(3)
    with pytest.raises(ValueError):
        EquationSpec(HOMOGENEOUS, QI, S("1,1", 3))
    with pytest.raises(ValueError):
        EquationSpec(INHOM_LEFT, QI, t)
    with pytest.raises(ValueError):
        EquationSpec("inhomogeneous", QI, t, t)


# ------------------------------------------------------------------ spitzer


def test_spitzer_closed_values():
    assert spitzer_closed(QI, var(2)) == S("1,1,1/3")
    assert spitzer_closed(J, var(2)) == S("1,0,1/2")
    zero = TruncatedSeries.zero(SCALAR, 4)
    assert spitzer_closed(QI, zero) == TruncatedSeries.one(SCALAR, 4)


@pytest.mark.parametrize("op", [QI, QS, J], ids=str)
def test_spitzer_matches_picard(op):
    rng = random.Random(21)
    for s in range(5):
        a = var(12) if s == 0 else random_series(SCALAR, 12, rng, 1)
        assert spitzer_closed(op, a) == picard_solve(EquationSpec(HOMOGENEOUS, op, a))


# --------------------------------------------------- commutative closed form


def test_inhom_closed_commutative_values():
    t = var(2)
    assert inhom_closed_commutative(EquationSpec(INHOM_LEFT, QI, t, t)) == S("0,1,2/3")
    t4 = var(4)
    assert inhom_closed_commutative(EquationSpec(INHOM_LEFT, J, t4, t4)) == S(
        "0,0,1/2,0,1/8"
    )


def test_inhom_closed_commutative_zero_a0():
    zero = TruncatedSeries.zero(SCALAR, 4)
    sol = inhom_closed_commutative(EquationSpec(INHOM_LEFT, QI, var(4), zero))
    assert sol.is_zero()


def test_inhom_closed_commutative_rejects_matrix_ring():
    t = var(4, MAT2)
    with pytest.raises(SolverUsageError):
        inhom_closed_commutative(EquationSpec(INHOM_LEFT, QI, t, t))


def test_inhom_closed_commutative_rejects_other_forms():
    t = var(4)
    for eq in (EquationSpec(HOMOGENEOUS, QI, t), EquationSpec(INHOM_RIGHT, QI, t, t)):
        with pytest.raises(SolverUsageError, match="inhomogeneous-left"):
            inhom_closed_commutative(eq)


@pytest.mark.parametrize("op", [QI, QS, J], ids=str)
def test_generalized_spitzer_commutative(op):
    rng = random.Random(33)
    for _ in range(5):
        a0 = random_series(SCALAR, 10, rng, 1)
        a1 = random_series(SCALAR, 10, rng, 1)
        eq = EquationSpec(INHOM_LEFT, op, a1, a0)
        assert inhom_closed_commutative(eq) == picard_solve(eq)


# ---------------------------------------------------------------------- bch


def test_bch_commutative_vanishes():
    rng = random.Random(4)
    x = random_series(SCALAR, 8, rng, 1)
    y = random_series(SCALAR, 8, rng, 1)
    assert bch(x, y).is_zero()


def test_bch_zero_argument():
    x = random_series(MAT2, 6, random.Random(5), 1)
    zero = TruncatedSeries.zero(MAT2, 6)
    assert bch(x, zero).is_zero()
    assert bch(zero, x).is_zero()


def test_bch_leading_term_is_half_commutator():
    a = MAT2.element([[0, 1], [0, 0]])
    b = MAT2.element([[0, 0], [1, 0]])
    x = TruncatedSeries.from_coeffs(MAT2, 4, [0, a])
    y = TruncatedSeries.from_coeffs(MAT2, 4, [0, b])
    z = bch(x, y)
    assert z.valuation() == 2
    # [a, b]/2 with ab = E11 and ba = E22
    assert z.coefficient(2) == MAT2.element([["1/2", 0], [0, "-1/2"]])


def test_bch_valuation_superadditive():
    rng = random.Random(6)
    for _ in range(3):
        x = random_series(MAT2, 6, rng, 1, 3)
        y = random_series(MAT2, 6, rng, 2, 3)
        assert bch(x, y).valuation() >= x.valuation() + y.valuation()


# ---------------------------------------------------------------- chi_lambda


def test_chi_lambda_scalar_is_identity():
    a = random_series(SCALAR, 8, random.Random(7), 1)
    assert chi_lambda(QI, a) == a


def test_chi_lambda_rejects_weight_zero():
    with pytest.raises(SolverUsageError):
        chi_lambda(J, var(4))


def test_chi_lambda_second_order_correction():
    # chi(a) - a starts with (1/(2w)) [P(a), Pt(a)] at t^2
    rng = random.Random(8)
    for op in (QI, QS):
        a = random_series(MAT2, 6, rng, 1, 3)
        corr = chi_lambda(op, a) - a
        expected = apply(op, a) * tilde_apply(op, a) - tilde_apply(op, a) * apply(op, a)
        expected = expected.scale(1 / (2 * op.weight))
        assert corr.coefficient(2) == expected.coefficient(2)


@pytest.mark.parametrize("op", [QI, QS], ids=str)
def test_bch_chl_factorization(op):
    rng = random.Random(9)
    for _ in range(3):
        a = random_series(MAT2, 8, rng, 1, 3)
        chi = chi_lambda(op, a)
        lhs = a.scale(-op.weight).exp()
        assert lhs == apply(op, chi).exp() * tilde_apply(op, chi).exp()


# ----------------------------------------------------------------- bernoulli


def test_bernoulli_small_values():
    assert bernoulli(0) == Q(1)
    assert bernoulli(1) == Q(-1, 2)
    assert bernoulli(2) == Q(1, 6)
    assert bernoulli(4) == Q(-1, 30)
    assert bernoulli(12) == Q(-691, 2730)


def test_bernoulli_rejects_a_negative_index():
    with pytest.raises(ValueError, match="k must be >= 0"):
        bernoulli(-1)


def test_bernoulli_odd_vanish():
    for k in range(3, 21, 2):
        assert bernoulli(k) == 0


def test_bernoulli_recurrence():
    # sum_{j=0}^{k} C(k+1, j) B_j = 0 for k >= 1
    for k in range(1, 21):
        acc = sum(comb(k + 1, j) * bernoulli(j) for j in range(k + 1))
        assert acc == 0


def test_bernoulli_generating_function():
    # x/(e^x - 1) expanded via series division oracle: coefficients B_k/k!
    cap = 12
    one = TruncatedSeries.one(SCALAR, cap)
    t = var(cap)
    # (e^t - 1)/t as a series in t
    g = TruncatedSeries.from_coeffs(
        SCALAR, cap, [Q(1, _fact(n + 1)) for n in range(cap + 1)]
    )
    # invert 1 + (g - 1) by geometric series
    inv = (g - one).geom_inv(1)
    assert (g * inv) == one
    for k in range(cap + 1):
        assert inv.coefficient(k).value == bernoulli(k) / _fact(k)


def _fact(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


# ------------------------------------------------------------------ chi_zero


def test_chi_zero_scalar_is_identity():
    a = random_series(SCALAR, 8, random.Random(10), 1)
    assert chi_zero(J, a) == a


def test_chi_zero_rejects_nonzero_weight():
    with pytest.raises(SolverUsageError):
        chi_zero(QI, var(4))


def test_chi_zero_second_order_correction():
    # chi0(a) - a starts with -1/2 [P(a), a] at t^2
    a = random_series(MAT2, 6, random.Random(11), 1, 3)
    corr = chi_zero(J, a) - a
    pa = apply(J, a)
    expected = (pa * a - a * pa).scale(Q(-1, 2))
    assert corr.coefficient(2) == expected.coefficient(2)


def test_chi_zero_magnus_cross_check():
    rng = random.Random(12)
    for _ in range(3):
        a = random_series(MAT2, 8, rng, 1, 3)
        lhs = apply(J, chi_zero(J, a)).exp()
        rhs = picard_solve(EquationSpec(HOMOGENEOUS, J, a))
        assert lhs == rhs


def test_chi_corrections_agree_across_weights():
    # both recursions correct a by -1/2 [P(a), a] at leading order
    a = random_series(MAT2, 6, random.Random(13), 1, 3)
    for op in (QI, QS, J):
        chi = chi_zero(op, a) if op.weight == 0 else chi_lambda(op, a)
        pa = apply(op, a)
        expected = (pa * a - a * pa).scale(Q(-1, 2))
        assert (chi - a).coefficient(2) == expected.coefficient(2)


# ----------------------------------------------- non-commutative closed forms


def test_noncomm_left_matches_commutative_on_scalars():
    t = var(6)
    eq = EquationSpec(INHOM_LEFT, QI, t, t)
    assert inhom_closed_noncommutative(eq, "left") == inhom_closed_commutative(eq)


@pytest.mark.parametrize("op", [QI, QS], ids=str)
def test_noncomm_closed_matches_picard(op):
    rng = random.Random(14)
    for _ in range(3):
        a0 = random_series(MAT2, 8, rng, 1, 3)
        a1 = random_series(MAT2, 8, rng, 1, 3)
        eq_l = EquationSpec(INHOM_LEFT, op, a1, a0)
        assert inhom_closed_noncommutative(eq_l, "left") == picard_solve(eq_l)
        eq_r = EquationSpec(INHOM_RIGHT, op, a1, a0)
        assert inhom_closed_noncommutative(eq_r, "right") == picard_solve(eq_r)


def test_noncomm_zero_a0():
    zero = TruncatedSeries.zero(MAT2, 6)
    a1 = random_series(MAT2, 6, random.Random(15), 1, 3)
    for side, form in (("left", INHOM_LEFT), ("right", INHOM_RIGHT)):
        eq = EquationSpec(form, QI, a1, zero)
        assert inhom_closed_noncommutative(eq, side).is_zero()


def test_noncomm_rejects_weight_zero():
    t = var(4, MAT2)
    with pytest.raises(SolverUsageError):
        inhom_closed_noncommutative(EquationSpec(INHOM_LEFT, J, t, t), "left")


def test_weight0_closed_values():
    t = var(4)
    eq = EquationSpec(INHOM_LEFT, J, t, t)
    assert inhom_closed_weight0(eq) == S("0,0,1/2,0,1/8")


def test_weight0_closed_matches_picard_matrix():
    rng = random.Random(16)
    for _ in range(3):
        a0 = random_series(MAT2, 8, rng, 1, 3)
        a1 = random_series(MAT2, 8, rng, 1, 3)
        for form in (INHOM_LEFT, INHOM_RIGHT):
            eq = EquationSpec(form, J, a1, a0)
            assert inhom_closed_weight0(eq) == picard_solve(eq), form


def test_weight0_zero_a1():
    zero = TruncatedSeries.zero(SCALAR, 5)
    a0 = random_series(SCALAR, 5, random.Random(17), 1)
    eq = EquationSpec(INHOM_LEFT, J, zero, a0)
    assert inhom_closed_weight0(eq) == apply(J, a0)


def test_weight0_rejects_nonzero_weight():
    t = var(4)
    with pytest.raises(SolverUsageError):
        inhom_closed_weight0(EquationSpec(INHOM_LEFT, QI, t, t))


def test_noncomm_rejects_side_that_does_not_match_the_form():
    t = var(4, MAT2)
    with pytest.raises(SolverUsageError):
        inhom_closed_noncommutative(EquationSpec(INHOM_RIGHT, QI, t, t), "left")
    with pytest.raises(SolverUsageError):
        inhom_closed_noncommutative(EquationSpec(INHOM_LEFT, QI, t, t), "right")


def test_noncomm_rejects_an_unknown_side():
    t = var(4, MAT2)
    with pytest.raises(ValueError, match="unknown side"):
        inhom_closed_noncommutative(EquationSpec(INHOM_LEFT, QI, t, t), "up")


def test_spitzer_closed_rejects_noncommutative_ring():
    with pytest.raises(SolverUsageError):
        spitzer_closed(QI, var(4, MAT2))


# ------------------------------------------------------------- closed_solve


@pytest.mark.parametrize("form", [HOMOGENEOUS, INHOM_LEFT, INHOM_RIGHT])
@pytest.mark.parametrize("op", [QI, QS, J], ids=str)
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_closed_solve_matches_picard(dim, op, form):
    ring = SCALAR if dim == 1 else matrix_ring(dim)
    rng = random.Random(18)
    for _ in range(3):
        a1 = random_series(ring, 6, rng, 1, 3)
        a0 = None if form == HOMOGENEOUS else random_series(ring, 6, rng, 1, 3)
        eq = EquationSpec(form, op, a1, a0)
        assert closed_solve(eq) == picard_solve(eq)
