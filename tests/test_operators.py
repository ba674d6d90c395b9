import random
from math import lcm

import pytest

from rbseries import operators
from rbseries.operators import ANTIDER, QINT, QSCALE, OperatorSpec, apply, tilde_apply
from rbseries.rings import Q, matrix_ring, rational
from rbseries.series import DomainError, TruncatedSeries

from conftest import MAT2, SCALAR
from test_series import S, random_series

MAT3 = matrix_ring(3)

QI = OperatorSpec(QINT, rational("1/2"))
QS = OperatorSpec(QSCALE, rational("1/2"))
J = OperatorSpec(ANTIDER)

ALL_OPS = [
    OperatorSpec(QINT, rational(q)) for q in ("1/2", "2/3", "-1/2", "3")
] + [
    OperatorSpec(QSCALE, rational(q)) for q in ("1/2", "2/3", "-1/2", "3")
] + [J]

TILDE_OPS = [
    OperatorSpec(kind, rational(q)) for kind in (QINT, QSCALE) for q in ("1/2", "-1/2", "3")
] + [J]


def test_weights():
    assert QI.weight == 1
    assert QS.weight == -1
    assert J.weight == 0


def test_weight_is_computed_once():
    """Every read returns the one Fraction built with the operator."""
    for op in (QI, QS, J):
        assert op.weight is op.weight and type(op.weight) is Q


def test_q_guard():
    for bad in ("0", "1", "-1"):
        with pytest.raises(ValueError):
            OperatorSpec(QINT, rational(bad))
    with pytest.raises(ValueError):
        OperatorSpec(QSCALE)
    with pytest.raises(ValueError):
        OperatorSpec(ANTIDER, rational("1/2"))


def test_unknown_kind_is_refused():
    with pytest.raises(ValueError, match="unknown operator kind"):
        OperatorSpec("qshift", rational("1/2"))


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


def _companion_factor(op, k):
    """Pt's factor for t^k, from the closed forms."""
    if op.kind == ANTIDER:
        return -Q(1, k + 1)
    if not k:
        return -op.weight
    qk = op.q**k
    return -1 / (1 - qk) if op.kind == QINT else -qk / (1 - qk)


def _clear_operator_caches():
    operators.factors.cache_clear()
    operators.entry_vector.cache_clear()


@pytest.mark.parametrize("op", ALL_OPS, ids=str)
def test_factors_and_entry_vectors_are_memoised(op):
    """The per-entry vectors of P and of its companion, cached after calls at
    other caps and dims, give the same series as fresh caches, and a second
    pass over the same inputs builds none anew. Each vector holds each power's
    factor once per matrix entry, over the lcm of their denominators."""
    rng = random.Random(39)
    caps = (0, 1, 4, 12)
    inputs = [random_series(ring, cap, rng, 1, 5)
              for ring in (SCALAR, MAT2, MAT3) for cap in caps]
    fresh = []
    for x in inputs:
        _clear_operator_caches()
        fresh.append((apply(op, x), tilde_apply(op, x)))
    _clear_operator_caches()
    for x in reversed(inputs):
        apply(op, x), tilde_apply(op, x)
    misses = operators.entry_vector.cache_info().misses
    assert [(apply(op, x), tilde_apply(op, x)) for x in inputs] == fresh
    assert operators.entry_vector.cache_info().misses == misses

    table = operators.factors(op, 12)
    assert operators.factors(op, 12) is table and len(table) == 13
    for k, factor in enumerate(table):
        if op.kind == ANTIDER:
            assert factor == Q(1, k + 1)
        elif k:
            qk = op.q ** k
            assert factor == (qk if op.kind == QINT else 1) / (1 - qk)
        else:
            assert factor == 0
    shift = operators.power_shift(op)
    for cap in caps:
        for dim in (1, 2, 3):
            for companion in (False, True):
                vector, den = operators.entry_vector(op, cap, dim, companion)
                used = range(cap + 1 - shift)
                want = [_companion_factor(op, k) if companion else table[k] for k in used]
                assert [Q(m, den) for m in vector] == [f for f in want for _ in range(dim * dim)]
                assert den == lcm(*(f.denominator for f in want))


@pytest.mark.parametrize("ring", [SCALAR, MAT2, MAT3], ids=["scalar", "mat2", "mat3"])
@pytest.mark.parametrize("op", TILDE_OPS, ids=str)
def test_tilde_apply_is_minus_weight_times_x_minus_p(op, ring):
    """The one-pass companion against its definition -w*x - P(x)."""
    rng = random.Random(40)
    for cap in (0, 1, 6, 16):
        min_val = 0 if op.kind == ANTIDER else 1
        for x in (random_series(ring, cap, rng, min_val, 5), TruncatedSeries.zero(ring, cap)):
            assert tilde_apply(op, x) == x.scale(-op.weight) - apply(op, x)
    # antider on a series with a constant term
    x = random_series(ring, 6, rng, 0, 5)
    assert x.valuation() == 0
    assert tilde_apply(J, x) == -apply(J, x)


@pytest.mark.parametrize("op", TILDE_OPS[:-1], ids=str)
def test_tilde_apply_rejects_constant_term(op):
    for ring in (SCALAR, MAT2):
        with pytest.raises(DomainError):
            tilde_apply(op, TruncatedSeries.one(ring, 3))


def test_equal_specs_hash_alike_and_share_one_table():
    """The hash is computed once, at construction; specs equal as values hash
    alike and share one factor tuple and one vector, whatever form q was
    given in."""
    a, b = OperatorSpec(QINT, "1/2"), OperatorSpec(QINT, Q(1, 2))
    assert a == b and hash(a) == hash(b) == hash((QINT, Q(1, 2)))
    assert operators.factors(a, 4) is operators.factors(b, 4)
    assert apply(a, S("0,1,1")) == apply(b, S("0,1,1"))
    assert operators.entry_vector(a, 4, 2, False) is operators.entry_vector(b, 4, 2, False)
    assert hash(OperatorSpec(ANTIDER)) == hash(J)
    assert OperatorSpec(QSCALE, "1/2") != a and len({a, b, QS, J}) == 3
