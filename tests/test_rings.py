"""The coefficient rings. A RingElement is a boundary value with no arithmetic,
so the ring axioms are checked on cap-0 series, the code that multiplies and
adds coefficients."""

import random
from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rbseries.rings import (
    Q,
    RingDescriptor,
    RingElement,
    RingMismatchError,
    matrix_ring,
    random_element,
    random_entries,
    rational,
    rational_entry,
    write_coefficients,
)
from rbseries.series import TruncatedSeries

from conftest import MAT2, MAT3, SCALAR, constants


def const(ring, value):
    """The cap-0 series whose one coefficient is ring.element(value)."""
    return TruncatedSeries.from_coeffs(ring, 0, [value])


def commutator(a, b):
    return a * b - b * a


E12 = const(MAT2, [[0, 1], [0, 0]])
E21 = const(MAT2, [[0, 0], [1, 0]])


def test_rational_arithmetic_exact():
    assert rational("1/2") + rational("1/3") == rational("5/6")
    assert rational("2/4") == rational("1/2")
    assert str(rational("-3/6")) == "-1/2"
    assert str(rational(7)) == "7"
    q = Q(-3, 4)
    assert rational(q) is q


def test_rational_parse_errors():
    with pytest.raises(ValueError):
        rational("abc")


@pytest.mark.parametrize("value", [0.1, 0.5, 2.0, True, False])
def test_rational_rejects_float_and_bool(value):
    with pytest.raises(TypeError):
        rational(value)
    for ring in (SCALAR, MAT2):
        with pytest.raises(TypeError):
            ring.element(value)


def test_descriptor_invariants():
    assert [f.name for f in fields(RingDescriptor)] == ["dim"]
    assert RingDescriptor().commutative
    for dim in (2, 3, 4):
        assert not matrix_ring(dim).commutative
    with pytest.raises(ValueError):
        matrix_ring(0)


def test_matrix_ring_of_dim_one_is_the_scalar_ring():
    """A ring is its dimension: the 1x1 matrices are Q, with Q's text."""
    assert matrix_ring(1) == RingDescriptor() == RingDescriptor(1)
    assert hash(matrix_ring(1)) == hash(RingDescriptor())
    x = TruncatedSeries.from_coeffs(matrix_ring(1), 2, [0, "1/2", -3])
    assert str(x) == "0,1/2,-3" and x.to_json() == ["0", "1/2", "-3"]
    assert str(matrix_ring(1).element("1/2")) == "1/2"
    assert x == TruncatedSeries.from_coeffs(SCALAR, 2, [0, Q(1, 2), -3])


def test_ring_element_defines_no_arithmetic():
    a, b = SCALAR.element("1/2"), SCALAR.element("1/3")
    for name in ("__add__", "__sub__", "__neg__", "__mul__", "scale", "is_zero"):
        assert not hasattr(RingElement, name)
    with pytest.raises(TypeError):
        a + b
    with pytest.raises(TypeError):
        a * b


def test_element_of_the_ring_is_returned_as_it_is():
    for ring in (SCALAR, MAT2, MAT3):
        e = ring.element(3)
        assert ring.element(e) is e


def test_one_writer_for_the_text_of_coefficients():
    """Entries row-major, d*d per coefficient, coefficients joined by commas."""
    assert write_coefficients(["1", "-1/2", "0"], 1) == "1,-1/2,0"
    entries = ["1", "-1/2", "0", "3", "5", "6", "7", "8"]
    assert write_coefficients(entries, 2) == "[[1,-1/2],[0,3]],[[5,6],[7,8]]"
    assert write_coefficients([str(v) for v in range(9)], 3) == "[[0,1,2],[3,4,5],[6,7,8]]"


def test_element_is_a_multiple_of_the_identity():
    assert MAT3.element("2/3").value == (
        (Q(2, 3), 0, 0), (0, Q(2, 3), 0), (0, 0, Q(2, 3)))
    assert str(MAT2.element(-1)) == "[[-1,0],[0,-1]]"
    assert MAT2.element(0) == MAT2.element([[0, 0], [0, 0]])
    for ring in (SCALAR, MAT2, MAT3):
        assert const(ring, ring.element(1)) == TruncatedSeries.one(ring, 0)
        assert const(ring, ring.element(0)).is_zero()
    with pytest.raises(ValueError):
        MAT2.element([[1, 2]])


@pytest.mark.parametrize("value", [
    ["12", "34"], ("12", "34"), [[1, 2], "34"], [(1, 2), 34], [Q(1), Q(2)], None, {0: [1, 2]}])
def test_matrix_rows_must_be_lists_or_tuples(value):
    """A matrix and each of its rows is a list or a tuple: a string row is not
    read as its characters, in element and in from_coeffs alike."""
    with pytest.raises(ValueError):
        MAT2.element(value)
    with pytest.raises(ValueError):
        TruncatedSeries.from_coeffs(MAT2, 1, [0, value])


def test_matrix_rows_may_be_lists_or_tuples():
    assert MAT2.element([["1", "2"], ("3", 4)]) == MAT2.element(((1, 2), (3, 4)))
    assert const(MAT2, [("1", "2"), ["3", 4]]) == const(MAT2, [[1, 2], [3, 4]])


def test_scalar_ops():
    a, b = const(SCALAR, "1/2"), const(SCALAR, "1/3")
    assert (a + b).coefficient(0).value == Q(5, 6)
    assert a * b == b * a
    assert (-a).coefficient(0).value == Q(-1, 2)
    assert a.scale("2/3").coefficient(0).value == Q(1, 3)


def test_matrix_product_example():
    # E12 * E21 = E11
    assert E12 * E21 == const(MAT2, [[1, 0], [0, 0]])
    assert E21 * E12 == const(MAT2, [[0, 0], [0, 1]])


def test_commutator_examples():
    a, b = const(SCALAR, "3/7"), const(SCALAR, "-2/5")
    assert commutator(a, b).is_zero()
    assert commutator(E12, E21) == const(MAT2, [[1, 0], [0, -1]])
    assert commutator(E12, E12).is_zero()


def test_ring_mismatch():
    with pytest.raises(RingMismatchError):
        const(SCALAR, 1) + TruncatedSeries.one(MAT2, 0)
    with pytest.raises(RingMismatchError):
        const(SCALAR, 1) * TruncatedSeries.one(MAT3, 0)
    with pytest.raises(RingMismatchError):
        MAT2.element(SCALAR.element(1))


@pytest.mark.parametrize("ring,other", [(MAT2, MAT3), (MAT2, SCALAR), (SCALAR, MAT2)],
                         ids=["mat3-in-mat2", "scalar-in-mat2", "mat2-in-scalar"])
def test_series_of_elements_of_another_ring_raises(ring, other):
    with pytest.raises(RingMismatchError):
        TruncatedSeries(ring, 1, (ring.element(1), other.element(1)))


def test_identities():
    for ring in (SCALAR, MAT2, MAT3):
        x = const(ring, random_element(ring, random.Random(5), 7))
        assert not x.is_zero()
        assert x + TruncatedSeries.zero(ring, 0) == x
        assert x * TruncatedSeries.one(ring, 0) == x
        assert TruncatedSeries.one(ring, 0) * x == x


def test_random_element_deterministic():
    for ring in (SCALAR, MAT2):
        a = random_element(ring, random.Random(99), 10)
        b = random_element(ring, random.Random(99), 10)
        assert a == b


def test_random_element_bound_one():
    rng = random.Random(3)
    for _ in range(50):
        x = random_element(SCALAR, rng, 1)
        assert x.value in (Q(-1), Q(0), Q(1))


def test_random_element_bound_semantics():
    rng = random.Random(17)
    for _ in range(100):
        x = random_element(MAT2, rng, 10)
        for row in x.value:
            for v in row:
                assert abs(v.numerator) <= 10 and v.denominator <= 10


@pytest.mark.parametrize("bound", [1, 2, 3])
def test_random_draws_reach_every_numerator_and_denominator(bound):
    """p runs over -bound..bound and q over 1..bound, both ends included."""
    rng = random.Random(bound)
    pairs = set(random_entries(rng, 400, bound))
    assert pairs == {(p, q) for p in range(-bound, bound + 1) for q in range(1, bound + 1)}
    values = {v for _ in range(200) for row in random_element(MAT2, rng, bound).value
              for v in row}
    assert max(values) == bound and min(values) == -bound


def test_random_element_bad_bound():
    with pytest.raises(ValueError):
        random_element(SCALAR, random.Random(0), 0)


@given(constants(SCALAR, 20, 12), constants(SCALAR, 20, 12), constants(SCALAR, 20, 12))
def test_scalar_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b * c) == (a * b) * c
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


matrix_triples = st.sampled_from([MAT2, MAT3]).flatmap(
    lambda ring: st.tuples(constants(ring), constants(ring), constants(ring)))


@given(matrix_triples)
def test_matrix_ring_axioms(abc):
    a, b, c = abc
    assert (a + b) + c == a + (b + c)
    assert a * (b * c) == (a * b) * c
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@given(matrix_triples)
def test_commutator_antisymmetry(abc):
    a, b, _ = abc
    assert commutator(a, b) == -commutator(b, a)


@given(st.integers(-40, 40), st.integers(1, 30))
def test_canonical_form_stable(p, q):
    x = Q(p, q)
    assert rational(str(x)) == x
    assert x.denominator > 0


def _outcome(read, value):
    """read(value) as a Fraction, or the type of the exception it raised."""
    try:
        out = read(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        return type(exc)
    return out if isinstance(out, Q) else Q(*out)


@pytest.mark.parametrize("value", [
    "0", "-0", "+7", " 3/4 ", "-12/18", "007/010", "\t5\n", "\u0661\u0662/\u0663",
    "1.5", "1e3", "-2.5e-1", "1_000", " 1 / 2", "1/0", "0/0", "1/-2", "1//2", "--1", "", "x",
    "1/2x", 5, -3, Q(-4, 6), True, 0.5, None])
def test_rational_entry_reads_what_rational_reads(value):
    """The pair reader's fast path for integer and p/q strings agrees with
    rational() on every value: the same number, or the same exception."""
    got = _outcome(rational_entry, value)
    assert got == _outcome(rational, value)
    if isinstance(got, Q):
        assert rational_entry(value)[1] > 0
