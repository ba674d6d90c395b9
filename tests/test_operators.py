import random
from math import lcm

import pytest

from rbseries import operators
from rbseries.operators import ANTIDER, QINT, QSCALE, OperatorSpec, apply, tilde_apply
from rbseries.rings import Q, rational
from rbseries.series import DomainError, TruncatedSeries

from conftest import MAT2, SCALAR
from test_series import S, random_series

QI = OperatorSpec(QINT, rational("1/2"))
QS = OperatorSpec(QSCALE, rational("1/2"))
J = OperatorSpec(ANTIDER)

ALL_OPS = [
    OperatorSpec(QINT, rational(q)) for q in ("1/2", "2/3", "-1/2", "3")
] + [
    OperatorSpec(QSCALE, rational(q)) for q in ("1/2", "2/3", "-1/2", "3")
] + [J]


def test_weights():
    assert QI.weight == 1
    assert QS.weight == -1
    assert J.weight == 0


def test_q_guard():
    for bad in ("0", "1", "-1"):
        with pytest.raises(ValueError):
            OperatorSpec(QINT, rational(bad))
    with pytest.raises(ValueError):
        OperatorSpec(QSCALE)
    with pytest.raises(ValueError):
        OperatorSpec(ANTIDER, rational("1/2"))


def test_qint_monomials():
    t = TruncatedSeries.var(SCALAR, 3)
    # q/(1-q) = 1 at q = 1/2
    assert apply(QI, t) == S("0,1,0,0")
    t2 = S("0,0,1", 3)
    assert apply(QI, t2) == S("0,0,1/3,0")


def test_qscale_monomials():
    t = TruncatedSeries.var(SCALAR, 2)
    assert apply(QS, t) == S("0,2,0")


def test_antider():
    assert apply(J, S("1,1", 3)) == S("0,1,1/2,0")


def test_q_operators_reject_constant_term():
    for op in (QI, QS):
        with pytest.raises(DomainError):
            apply(op, S("1,1"))
    # antiderivative accepts units
    assert apply(J, S("1")) == TruncatedSeries.zero(SCALAR, 0)


def test_tilde_values():
    t = TruncatedSeries.var(SCALAR, 2)
    assert tilde_apply(J, t) == -apply(J, t)
    assert tilde_apply(QI, t) == S("0,-2,0")
    assert tilde_apply(QS, t) == S("0,-1,0")


@pytest.mark.parametrize("op", ALL_OPS, ids=str)
@pytest.mark.parametrize("ring", [SCALAR, MAT2], ids=["scalar", "mat2"])
def test_rota_baxter_axiom(op, ring):
    rng = random.Random(7)
    min_val = 0 if op.kind == ANTIDER else 1
    w = op.weight
    for _ in range(5):
        x = random_series(ring, 8, rng, min_val, 4)
        y = random_series(ring, 8, rng, min_val, 4)
        for p in (lambda s: apply(op, s), lambda s: tilde_apply(op, s)):
            assert p(x) * p(y) == p(x * p(y)) + p(p(x) * y) + p(x * y).scale(w)


@pytest.mark.parametrize("op", [QI, QS, J], ids=str)
def test_filtration_preserved(op):
    rng = random.Random(8)
    for _ in range(10):
        x = random_series(SCALAR, 8, rng, rng.randint(1, 3))
        assert apply(op, x).valuation() >= x.valuation()


@pytest.mark.parametrize("op", [QI, QS, J], ids=str)
def test_linearity(op):
    rng = random.Random(9)
    a, b = Q(2, 3), Q(-5, 7)
    for _ in range(5):
        x = random_series(SCALAR, 8, rng, 1)
        y = random_series(SCALAR, 8, rng, 1)
        lhs = apply(op, x.scale(a) + y.scale(b))
        assert lhs == apply(op, x).scale(a) + apply(op, y).scale(b)


@pytest.mark.parametrize("op", ALL_OPS, ids=str)
def test_one_multiplier_table_per_operator_grows_and_is_sliced(op):
    """A larger cap grows the operator's one table of factors, a smaller cap
    reads a prefix of it over that prefix's least common denominator, and
    apply gives the same series as from a fresh table."""
    x = random_series(MAT2, 4, random.Random(39), 1, 5)
    operators._table.cache_clear()
    fresh = apply(op, x)
    nums, den = operators.multipliers(op, 12)
    factors, _ = operators._table(op)
    assert len(factors) == 13
    assert apply(op, x) == fresh
    small, small_den = operators.multipliers(op, 4)
    assert len(factors) == 13
    assert [Q(m, small_den) for m in small] == [Q(m, den) for m in nums[:5]] == factors[:5]
    assert small_den == lcm(*(f.denominator for f in factors[:5]))
    for k, factor in enumerate(factors):
        if op.kind == ANTIDER:
            assert factor == Q(1, k + 1)
        elif k:
            qk = op.q ** k
            assert factor == (qk if op.kind == QINT else 1) / (1 - qk)
        else:
            assert factor == 0
