import itertools
import random
from fractions import Fraction
from math import factorial, gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbseries import checks
from rbseries.checks import first_mismatch
from rbseries.operators import ANTIDER, QINT, QSCALE, OperatorSpec, apply, tilde_apply
from rbseries.rings import Q, RingDescriptor, RingMismatchError, matrix_ring, rational
from rbseries.series import (
    DomainError,
    TruncatedSeries,
    block_product,
    from_blocks,
    parse_series,
    reduced,
    reduced_sum,
    settle,
    to_blocks,
)

from conftest import MAT2, MAT3, SCALAR, power, rationals


def S(text, cap=None, ring=SCALAR):
    coeffs = text.split(",") if text else []
    if cap is None:
        cap = len(coeffs) - 1
    return TruncatedSeries.from_coeffs(ring, cap, coeffs)


def truncated(x, cap):
    """x modulo t^(cap+1), through the constructor."""
    return TruncatedSeries(x.ring, cap, x.coeffs)


def random_series(ring, cap, rng, min_val=0, bound=5):
    """checks.random_series, whose draws are one rings.random_element per
    coefficient from t^min_val up, with this module's argument order."""
    return checks.random_series(ring, cap, rng, bound, min_val)


series_strategy = st.builds(
    lambda seed, cap, mv: random_series(SCALAR, cap, random.Random(seed), mv),
    st.integers(0, 10**6), st.integers(2, 8), st.integers(0, 2),
)

positive_val_series = st.builds(
    lambda seed, cap: random_series(SCALAR, cap, random.Random(seed), 1, 3),
    st.integers(0, 10**6), st.integers(2, 7),
)


def test_difference_of_squares():
    assert S("1,1", 2) * S("1,-1", 2) == S("1,0,-1")


def test_truncation_drops_high_powers():
    t = TruncatedSeries.var(SCALAR, 1)
    assert (t * t).is_zero()


def test_matrix_noncommutative_product():
    a = MAT2.element([[0, 1], [0, 0]])
    b = MAT2.element([[0, 0], [1, 0]])
    x = TruncatedSeries.from_coeffs(MAT2, 3, [0, a])
    y = TruncatedSeries.from_coeffs(MAT2, 3, [0, b])
    assert x * y != y * x
    assert (x * y).coefficient(2) == MAT2.element([[1, 0], [0, 0]])
    assert (y * x).coefficient(2) == MAT2.element([[0, 0], [0, 1]])


def test_valuation():
    assert TruncatedSeries.zero(SCALAR, 5).valuation() == 6
    assert S("1,1").valuation() == 0
    assert S("0,0,0,1,-1").valuation() == 3


def test_exp_values():
    assert TruncatedSeries.zero(SCALAR, 3).exp() == S("1,0,0,0")
    t = TruncatedSeries.var(SCALAR, 3)
    assert t.exp() == S("1,1,1/2,1/6")
    half_t2 = S("0,0,1/2", 4)
    assert half_t2.exp() == S("1,0,1/2,0,1/8")


def test_exp_domain_error():
    with pytest.raises(DomainError):
        S("1,1").exp()
    with pytest.raises(DomainError):
        S("1,1").log1p()


def test_log1p_values():
    assert TruncatedSeries.zero(SCALAR, 3).log1p().is_zero()
    t = TruncatedSeries.var(SCALAR, 3)
    assert t.log1p() == S("0,1,-1/2,1/3")


def test_exp_log_inversion():
    t = TruncatedSeries.var(SCALAR, 6)
    one = TruncatedSeries.one(SCALAR, 6)
    assert (t.exp() - one).log1p() == t


def test_lambda_log_values():
    t = TruncatedSeries.var(SCALAR, 3)
    a = S("0,2,-1,1/3")
    assert a.lambda_log(0) is a  # weight 0 costs no products
    assert t.lambda_log(1) == t.log1p()
    # sum of (-2)^(n-1) t^n / n
    assert t.lambda_log(2) == S("0,1,-1,4/3")


def test_lambda_log_exp_relation():
    # a = (exp(lam*u) - 1)/lam with u = lambda_log(a, lam)
    lam = Q(3, 2)
    for seed in range(5):
        a = random_series(SCALAR, 8, random.Random(seed), 1)
        u = a.lambda_log(lam)
        recovered = (u.scale(lam).exp() - TruncatedSeries.one(SCALAR, 8)).scale(1 / lam)
        assert recovered == a


def test_geom_inv():
    t = TruncatedSeries.var(SCALAR, 3)
    assert t.geom_inv(0) == TruncatedSeries.one(SCALAR, 3)
    assert t.geom_inv(1) == S("1,-1,1,-1")
    t8 = TruncatedSeries.var(SCALAR, 8)
    one = TruncatedSeries.one(SCALAR, 8)
    assert (one + t8.scale(2)) * t8.geom_inv(2) == one


def test_cap_mismatch_rejected():
    with pytest.raises(ValueError):
        S("1,1") + S("1,1,1")
    with pytest.raises(RingMismatchError):
        S("0,1") * TruncatedSeries.var(MAT2, 1)


@given(series_strategy, series_strategy.filter(lambda s: True))
@settings(max_examples=40)
def test_mul_truncation_consistency(x, y):
    cap = min(x.cap, y.cap)
    xs, ys = truncated(x, cap), truncated(y, cap)
    m = min(2, cap)
    assert truncated(xs * ys, m) == truncated(xs, m) * truncated(ys, m)


@given(positive_val_series)
@settings(max_examples=30)
def test_exp_log_roundtrip_random(x):
    one = TruncatedSeries.one(SCALAR, x.cap)
    assert x.log1p().exp() == one + x
    assert (x.exp() - one).log1p() == x


def test_exp_log_roundtrip_matrix():
    for seed in range(3):
        x = random_series(MAT2, 6, random.Random(seed), 1, 3)
        one = TruncatedSeries.one(MAT2, 6)
        assert x.log1p().exp() == one + x
        assert (x.exp() - one).log1p() == x


def test_valuation_additive_on_scalar_products():
    rng = random.Random(12)
    for _ in range(10):
        x = random_series(SCALAR, 8, rng, rng.randint(0, 2))
        y = random_series(SCALAR, 8, rng, rng.randint(0, 2))
        vx, vy = x.valuation(), y.valuation()
        if vx + vy <= 8:
            assert (x * y).valuation() == vx + vy


def test_ring_axioms_for_series():
    rng = random.Random(2)
    for ring in (SCALAR, MAT2):
        a = random_series(ring, 5, rng)
        b = random_series(ring, 5, rng)
        c = random_series(ring, 5, rng)
        assert (a + b) + c == a + (b + c)
        assert a * (b * c) == (a * b) * c
        assert a * (b + c) == a * b + a * c


def test_parse_and_str_roundtrip():
    s = parse_series("0,1,1/2", SCALAR, 4)
    assert s.coefficient(2).value == Q(1, 2)
    assert parse_series(str(s), SCALAR, 4) == s


def test_to_json():
    s = parse_series("0,1,1/2", SCALAR, 2)
    assert s.to_json() == ["0", "1", "1/2"]
    m = TruncatedSeries.from_coeffs(MAT2, 1, [[[0, 1], [0, 0]]])
    assert m.to_json()[0] == [["0", "1"], ["0", "0"]]


# Every acceptance oracle is `==` on series, so equality must be neither too
# strict (same value, different denominators) nor too lenient (one entry off).

EQUALITY_RINGS = [SCALAR, MAT2, matrix_ring(3)]


def _unit(ring, k, cap, entry, value):
    """value times the matrix unit at `entry` (row-major), placed at t^k."""
    d = ring.dim
    rows = [[0] * d for _ in range(d)]
    rows[entry // d][entry % d] = value
    elem = value if ring.dim == 1 else rows
    return TruncatedSeries.from_coeffs(ring, cap, [0] * k + [elem])


@pytest.mark.parametrize("ring", EQUALITY_RINGS, ids=["scalar", "mat2", "mat3"])
def test_one_coefficient_off_compares_unequal(ring):
    cap = 4
    x = random_series(ring, cap, random.Random(31), 0, 7)
    for k in range(cap + 1):
        for entry in range(ring.dim**2):
            for delta in (Q(1), Q(-1, 7), Q(1, 10**30)):
                y = x + _unit(ring, k, cap, entry, delta)
                assert y != x and x != y
                assert first_mismatch(x, y).power == k


@pytest.mark.parametrize("ring", EQUALITY_RINGS, ids=["scalar", "mat2", "mat3"])
def test_equal_values_from_different_denominators_compare_equal(ring):
    cap = 5
    rng = random.Random(32)
    x = random_series(ring, cap, rng, 0, 9)
    y = random_series(ring, cap, rng, 0, 9)
    # the same value reached through other common denominators
    assert (x + y) - y == x
    assert x.scale(Q(6, 35)).scale(Q(35, 6)) == x
    assert x.scale(3) + x.scale(Q(-2)) == x
    assert hash(x.scale(7).scale(Q(1, 7))) == hash(x)
    # an unreduced representation: every numerator and the denominator times 12
    unreduced = TruncatedSeries._no_gcd(ring, cap, [12 * v for v in x._num], 12 * x._den)
    assert unreduced._den == 12 * x._den
    assert unreduced == x and hash(unreduced) == hash(x) and unreduced.coeffs == x.coeffs
    # and entry by entry from fractions that were never over one denominator
    assert TruncatedSeries(ring, cap, tuple(x.coeffs)) == x
    zero = TruncatedSeries.zero(ring, cap)
    assert x - x == zero and x.scale(0) == zero


EQUALITY_OPERATORS = [OperatorSpec(QINT, Q(1, 2)), OperatorSpec(QSCALE, Q(2, 3)),
                      OperatorSpec(ANTIDER)]


@pytest.mark.parametrize("op", EQUALITY_OPERATORS, ids=["qint", "qscale", "antider"])
@pytest.mark.parametrize("ring", EQUALITY_RINGS, ids=["scalar", "mat2", "mat3"])
def test_one_value_by_unreduced_routes_compares_and_hashes_alike(ring, op):
    """Sums, scales and applies make no gcd pass, so one value reached by
    several routes sits over several denominators: == cross-multiplies, hash
    reduces, a set holds the value once, and first_mismatch names the power
    a bump moves."""
    cap = 6
    rng = random.Random(41 + ring.dim)
    x, y = (random_series(ring, cap, rng, 1, 7) for _ in range(2))
    px, r = apply(op, x), Q(-4, 9)

    def lowest(s):
        return TruncatedSeries(ring, cap, s.coeffs)

    values = [
        [px, lowest(px), apply(op, x + y) - apply(op, y), apply(op, x.scale(r)).scale(1 / r)],
        [tilde_apply(op, x), x.scale(-op.weight) - px, lowest(tilde_apply(op, x))],
        [x, (x + y) - y, x.scale(Q(6, 35)).scale(Q(35, 6))],
        [apply(op, x.scale(r)), px.scale(r), lowest(px.scale(r))],
    ]
    var = TruncatedSeries.var(ring, cap)
    for routes in values:
        assert len({s._den for s in routes}) > 1  # more than one representation
        assert any(gcd(s._den, *s._num) > 1 for s in routes)  # one of them unreduced
        assert len(set(routes)) == 1
        for a, b in itertools.product(routes, repeat=2):
            assert a == b and hash(a) == hash(b)
            assert first_mismatch(a, b) is None
            for k in (0, 3, cap):
                bumped = b + power(var, k).scale(Q(1, 3))
                assert a != bumped and bumped != a
                assert first_mismatch(a, bumped).power == k


@st.composite
def unreduced_pairs(draw):
    """Two series over dims 1-3 built by sums and scales, which leave their
    pairs unreduced: b is a's value by another route, or a's value moved by
    another scale or by a multiple of a third series."""
    d = draw(st.integers(1, 3))
    ring, cap = matrix_ring(d), draw(st.integers(0, 4))
    rng = random.Random(draw(st.integers(0, 10**6)))
    x, y = (random_series(ring, cap, rng, 0, 4) for _ in range(2))
    r = draw(rationals(6, 6).filter(bool))
    a = (x + y).scale(r) - y.scale(r)
    route = draw(st.sampled_from(("scale", "sum", "other scale", "plus y")))
    if route == "scale":
        return a, x.scale(r)
    if route == "sum":
        return a, x.scale(r / 3) + x.scale(r * 2 / 3)
    if route == "other scale":
        return a, x.scale(draw(rationals(6, 6)))
    return a, x.scale(r) + y.scale(draw(rationals(2, 3)))


@given(unreduced_pairs())
@settings(max_examples=80)
def test_equality_is_equality_of_fraction_coefficients(pair):
    a, b = pair
    fractions = [[Fraction(v, s._den) for v in s._num] for s in (a, b)]
    assert (a == b) == (fractions[0] == fractions[1]) == (b == a)
    if a == b:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("ring", EQUALITY_RINGS, ids=["scalar", "mat2", "mat3"])
def test_equality_respects_ring_and_cap(ring):
    x = TruncatedSeries.var(ring, 3)
    assert x != TruncatedSeries.var(ring, 4)
    assert x != TruncatedSeries.var(matrix_ring(ring.dim + 1), 3)
    assert x.scale(Q(1, 2)) != x


@pytest.mark.parametrize("ring", EQUALITY_RINGS, ids=["scalar", "mat2", "mat3"])
def test_first_mismatch_strings_match_coefficients(ring):
    cap = 4
    rng = random.Random(33)
    x = random_series(ring, cap, rng, 0, 5)
    y = x + _unit(ring, 2, cap, ring.dim**2 - 1, Q(2, 3)) + _unit(ring, 3, cap, 0, Q(1))
    mm = first_mismatch(x, y)
    assert mm.power == 2
    assert mm.lhs == str(x.coefficient(2)) and mm.rhs == str(y.coefficient(2))
    # the text is the RingElement's, entry by entry in lowest terms
    expected = x.coefficient(2).value
    if ring.dim == 1:
        assert mm.lhs == str(expected)
    else:
        assert mm.lhs == "[" + ",".join(
            "[" + ",".join(str(v) for v in row) + "]" for row in expected) + "]"
    assert first_mismatch(x, x.scale(1)) is None


@pytest.mark.parametrize("ring", EQUALITY_RINGS, ids=["scalar", "mat2", "mat3"])
def test_truncate_drops_the_higher_coefficients(ring):
    y = random_series(ring, 6, random.Random(34), 1, 5)
    x = TruncatedSeries.from_coeffs(ring, 3, y.coeffs[:4])
    assert truncated(y, 3) == x


@pytest.mark.parametrize("ring", EQUALITY_RINGS, ids=["scalar", "mat2", "mat3"])
def test_constructor_reads_what_from_coeffs_reads(ring):
    """TruncatedSeries(ring, cap, v) and from_coeffs share one coercion: short
    and long inputs, RingElements, rows, text and rationals for multiples of
    the identity give the same series, padded with zeros or cut at the cap."""
    d, dd = ring.dim, ring.dim**2
    y = random_series(ring, 6, random.Random(39), 0, 7)
    text = y.to_json()
    rows = text if d == 1 else [[[Q(e) for e in row] for row in c] for c in text]
    identity = [1 if i % (d + 1) == 0 else 0 for i in range(dd)]
    cases = [
        (6, y.coeffs[:2], y._num[: 2 * dd] + [0] * (5 * dd), y._den),
        (3, y.coeffs, y._num[: 4 * dd], y._den),
        (6, y.coeffs, y._num, y._den),
        (6, rows, y._num, y._den),
        (6, text, y._num, y._den),
        (2, [Q(1, 2), "-3", 5, 7], [v * e for v in (1, -6, 10) for e in identity], 2),
    ]
    for cap, values, num, den in cases:
        want = TruncatedSeries.from_numerators(ring, cap, num, den)
        assert TruncatedSeries(ring, cap, values) == want
        assert TruncatedSeries.from_coeffs(ring, cap, values) == want
    other = matrix_ring(d % 3 + 1)
    for build in (TruncatedSeries, TruncatedSeries.from_coeffs):
        # the excess is coerced too, so an element of another ring past the
        # cap is refused as well
        for cap in (0, 1):
            with pytest.raises(RingMismatchError):
                build(ring, cap, (ring.element(1), other.element(1)))
        with pytest.raises(ValueError):
            build(ring, -1, ())


@pytest.mark.parametrize("cap", [0, 1, 6])
@pytest.mark.parametrize("ring", EQUALITY_RINGS, ids=["scalar", "mat2", "mat3"])
def test_repr_is_source_the_constructor_reads_back(ring, cap):
    rng = random.Random(40 + cap)
    unit = TruncatedSeries.one(ring, cap).scale(Q(-3, 4)) + random_series(ring, cap, rng, 1, 7)
    names = {"TruncatedSeries": TruncatedSeries, "RingDescriptor": RingDescriptor}
    for x in (unit, random_series(ring, cap, rng, 0, 7)):
        assert any(x.block(0)[0])
        assert repr(x).startswith(f"TruncatedSeries(RingDescriptor(dim={ring.dim}), {cap}, [")
        assert eval(repr(x), names) == x


@pytest.mark.parametrize("ring", EQUALITY_RINGS, ids=["scalar", "mat2", "mat3"])
def test_from_numerators_reduces_and_validates(ring):
    x = random_series(ring, 4, random.Random(35), 0, 7)
    assert TruncatedSeries.from_numerators(ring, 4, [6 * v for v in x._num], 6 * x._den) == x
    with pytest.raises(ValueError):
        TruncatedSeries.from_numerators(ring, 4, x._num[:-1], x._den)
    with pytest.raises(ValueError):
        TruncatedSeries.from_numerators(ring, 4, x._num, 0)


def test_from_numerators_refuses_a_negative_cap():
    with pytest.raises(ValueError, match="cap must be >= 0"):
        TruncatedSeries.from_numerators(SCALAR, -1, [], 1)


@pytest.mark.parametrize("ring", EQUALITY_RINGS, ids=["scalar", "mat2", "mat3"])
def test_series_is_immutable_and_indexed_within_its_cap(ring):
    x = TruncatedSeries.var(ring, 3)
    with pytest.raises(AttributeError):
        x.cap = 4
    assert x.__eq__(1) is NotImplemented and x != 1
    for k in (-1, 4):
        with pytest.raises(IndexError):
            x.coefficient(k)


@pytest.mark.parametrize("ring", EQUALITY_RINGS, ids=["scalar", "mat2", "mat3"])
def test_negation_and_unit_scales_match_the_generic_path(ring):
    """-x, x.scale(1) and x.scale(-1) build their results without a gcd pass;
    each equals the generic path's result, every numerator and the denominator
    multiplied by 3 and then reduced, and has gcd 1 with its denominator."""
    rng = random.Random(37)
    inputs = [TruncatedSeries.zero(ring, 3)]
    inputs += [random_series(ring, cap, rng, v, 7) for cap, v in ((0, 0), (5, 0), (5, 2))]
    for x in inputs:
        def generic(sign):
            return TruncatedSeries.from_numerators(
                ring, x.cap, [3 * sign * v for v in x._num], 3 * x._den)

        for got, want in ((-x, generic(-1)), (x.scale(-1), generic(-1)),
                          (x.scale(Q(-1)), generic(-1)), (x.scale(1), generic(1)),
                          (x.scale(Q(1)), generic(1))):
            assert got == want
            assert gcd(got._den, *got._num) == 1
        assert x.scale(1) is x
        assert -(-x) == x


@pytest.mark.parametrize("ring", EQUALITY_RINGS, ids=["scalar", "mat2", "mat3"])
def test_scale_reads_its_factor_as_rational_does(ring):
    """A Fraction and its text, padded or unreduced, scale alike; floats and
    bools raise TypeError and a zero denominator ZeroDivisionError."""
    x = random_series(ring, 5, random.Random(38), 0, 7)
    want = TruncatedSeries.from_numerators(ring, x.cap, [3 * v for v in x._num], 4 * x._den)
    for r in (Q(3, 4), "3/4", " 3/4 ", "6/8"):
        assert x.scale(r) == want
    assert x.scale(2) == x + x
    assert x.scale("-1") == -x
    for bad in (0.5, True):
        with pytest.raises(TypeError):
            x.scale(bad)
    with pytest.raises(ZeroDivisionError):
        x.scale("1/0")


@pytest.mark.parametrize("ring", EQUALITY_RINGS, ids=["scalar", "mat2", "mat3"])
def test_exp_and_geom_inv_match_their_defining_sums(ring):
    """The fused product-and-scale terms against x^n/n!, (-lam x)^n and
    (-lam)^(n-1) x^n/n built by plain products and scale."""
    cap = 7
    x = random_series(ring, cap, random.Random(36), 1, 5)
    exp_sum = geom_sum = log_sum = TruncatedSeries.zero(ring, cap)
    lam = Q(-3, 2)
    for n in range(cap + 1):
        exp_sum = exp_sum + power(x, n).scale(Q(1, factorial(n)))
        geom_sum = geom_sum + power(x, n).scale((-lam) ** n)
        if n:
            log_sum = log_sum + power(x, n).scale((-lam) ** (n - 1) / n)
    assert x.exp() == exp_sum
    assert x.geom_inv(lam) == geom_sum
    assert x.lambda_log(lam) == log_sum


# The block kernel of x*y and of settle, held against products of Fraction
# matrices built from the coefficients alone.

KERNEL_DIMS = [1, 2, 3, 4, 5]


def _fraction_blocks(s):
    """Each coefficient of s as a d x d list of rows of Fractions."""
    d = s.ring.dim
    blocks = (s.block(k) for k in range(s.cap + 1))
    return [[[Fraction(v, den) for v in num[r * d : (r + 1) * d]] for r in range(d)]
            for num, den in blocks]


def _fraction_sum(xs, ys, c, js):
    """The sum of xs[j] ys[c - j] over j in js, as Fraction matrices."""
    d = len(xs[0])
    out = [[Fraction(0)] * d for _ in range(d)]
    for j in js:
        a, b = xs[j], ys[c - j]
        for r in range(d):
            for col in range(d):
                out[r][col] += sum(a[r][k] * b[k][col] for k in range(d))
    return out


def _with_zero_blocks(s, zero):
    """s with the coefficients of the powers in `zero` set to 0."""
    dd = s.ring.dim ** 2
    num = [v for k in range(s.cap + 1) for v in ([0] * dd if k in zero else s.block(k)[0])]
    return TruncatedSeries.from_numerators(s.ring, s.cap, num, s.block(0)[1])


@pytest.mark.parametrize("d", KERNEL_DIMS)
def test_mul_matches_a_fraction_matrix_product(d):
    """Nonzero constant terms, zero blocks on either side, an all-zero factor
    on either side (no nonzero right block, or no nonzero left one), caps 0
    and 1, where the loop runs once or twice, and exp's divisor q."""
    ring = matrix_ring(d)
    rng = random.Random(40 + d)
    for cap in (6, 0, 1):
        x = _with_zero_blocks(random_series(ring, cap, rng, 0, 7), {2, 5})
        y = _with_zero_blocks(random_series(ring, cap, rng, 0, 7), {1, 3})
        assert any(x.block(0)[0]) and any(y.block(0)[0])
        zero = TruncatedSeries.zero(ring, cap)
        for left, right in ((x, y), (y, x), (x, zero), (zero, y)):
            ls, rs = _fraction_blocks(left), _fraction_blocks(right)
            for q in (1, 6):
                want = [[[v / q for v in row] for row in _fraction_sum(ls, rs, c, range(c + 1))]
                        for c in range(cap + 1)]
                assert _fraction_blocks(left._mul(right, q)) == want


def _fraction_settle(const, a, ratio, shift, right):
    """The recurrence settle solves, in Fraction matrices: b[c] = const[c] +
    (p/q)*(a*b)[k], or (p/q)*(b*a)[k] when right, for k = c - shift and
    (p, q) = ratio(k), with every product term that reads b below c."""
    cs, xs, b = _fraction_blocks(const), _fraction_blocks(a), []
    for c in range(const.cap + 1):
        k, out = c - shift, cs[c]
        if k > 0:
            p, q = ratio(k)
            prod = _fraction_sum(b, xs, k, range(k)) if right else _fraction_sum(
                xs, b, k, range(1, k + 1))
            out = [[u + Fraction(p, q) * v for u, v in zip(*rows)] for rows in zip(out, prod)]
        b.append(out)
    return b


def _denominator_rises(s):
    """How often the least common denominator of s's coefficients, each in
    lowest terms, rises after the first nonzero coefficient, read from t^0
    upward: each rise rescales the coefficients settle settled before."""
    dens = [reduced(*s.block(k)) for k in range(s.cap + 1)]
    seen, den, rises = False, 1, 0
    for b in dens:
        if b:
            rises += seen and den % b[1] != 0
            den, seen = lcm(den, b[1]), True
    return rises


# (p, q) for the ratio r_k: integers and fractions, p and q both unlike 1.
SETTLE_RATIOS = {
    "minus-three-halves": lambda k: (-3, 2),
    "one-over-k": lambda k: (1, k),
    "moving": lambda k: (2 * k - 5, 3 * k + 1),
}


@pytest.mark.parametrize("right", (False, True), ids=("left", "right"))
@pytest.mark.parametrize("shift", (0, 1))
@pytest.mark.parametrize("d", KERNEL_DIMS)
def test_settle_matches_a_fraction_recurrence(d, shift, right):
    """Fraction inputs, whose denominators make the shared one rise, and
    integer ones with an integer ratio, where it never does; const has
    nonzero blocks above t^0 and a has zero blocks."""
    ring, cap = matrix_ring(d), 6
    rng = random.Random(110 + 10 * d + shift)
    const = _with_zero_blocks(random_series(ring, cap, rng, 0, 7), {2})
    a = _with_zero_blocks(random_series(ring, cap, rng, 1, 7), {3})
    assert any(any(const.block(k)[0]) for k in range(1, cap + 1))
    for name, ratio in SETTLE_RATIOS.items():
        got = settle(const, a, ratio, shift, right)
        assert _fraction_blocks(got) == _fraction_settle(const, a, ratio, shift, right), name
        assert gcd(got._den, *got._num) == 1  # in lowest terms, with no gcd pass at the end
        assert _denominator_rises(got) > 0, name
    integral = [TruncatedSeries.from_numerators(ring, cap, s._num, 1) for s in (const, a)]
    got = settle(*integral, lambda k: (-2, 1), shift, right)
    assert got._den == 1
    assert _fraction_blocks(got) == _fraction_settle(*integral, lambda k: (-2, 1), shift, right)


@pytest.mark.parametrize("d", KERNEL_DIMS[1:])
def test_settle_keeps_the_factor_order(d):
    """b = 1 + E_10 t + (b*a) for a = E_01 t has b[2] = b[1] a[1] = E_11,
    and the left-handed b = 1 + E_10 t + (a*b) has b[2] = E_00: a kernel
    that swaps the factors of either side reads the other."""
    ring, cap, dd = matrix_ring(d), 2, d * d
    unit = [int(e % (d + 1) == 0) for e in range(dd)]
    const = TruncatedSeries.from_numerators(ring, cap, unit + [int(e == d) for e in range(dd)]
                                            + [0] * dd, 1)
    a = TruncatedSeries.from_numerators(ring, cap, [0] * dd + [int(e == 1) for e in range(dd)]
                                        + [0] * dd, 1)
    e00 = [int(e == 0) for e in range(dd)]
    e11 = [int(e == d + 1) for e in range(dd)]
    assert settle(const, a, lambda k: (1, 1), right=True).block(2) == (e11, 1)
    assert settle(const, a, lambda k: (1, 1)).block(2) == (e00, 1)


@pytest.mark.parametrize("shift", (0, 1))
def test_scalar_settle_matches_a_fraction_recurrence(shift):
    """Over Q settle runs its own loop on ints. Consts zero, one (as exp's),
    and with zero and nonzero coefficients above t^0; a with Fraction
    entries, so settled coefficients reduce and the shared denominator
    rises, rescaling the prefix; and integral inputs, where it never does."""
    cap = 8
    rng = random.Random(170 + shift)
    a = _with_zero_blocks(random_series(SCALAR, cap, rng, 1, 7), {3})
    consts = {"zero": TruncatedSeries.zero(SCALAR, cap), "one": TruncatedSeries.one(SCALAR, cap),
              "sparse": _with_zero_blocks(random_series(SCALAR, cap, rng, 0, 7), {1, 4, 5})}
    assert any(consts["sparse"]._num[1:]) and a._den > 1
    for (name, ratio), (kind, const) in itertools.product(SETTLE_RATIOS.items(), consts.items()):
        got = settle(const, a, ratio, shift)
        assert _fraction_blocks(got) == _fraction_settle(const, a, ratio, shift, False), name
        assert gcd(got._den, *got._num) == 1, (name, kind)
        assert (_denominator_rises(got) > 0) == (kind != "zero"), (name, kind)
    integral = [TruncatedSeries.from_numerators(SCALAR, cap, s._num, 1)
                for s in (consts["sparse"], a)]
    got = settle(*integral, lambda k: (-2, 1), shift)
    assert got._den == 1
    assert _fraction_blocks(got) == _fraction_settle(*integral, lambda k: (-2, 1), shift, False)


@pytest.mark.parametrize("d", KERNEL_DIMS[1:])
def test_block_kernel_keeps_the_factor_order(d):
    """E_01 t and E_10 t do not commute: xy = E_00 t^2 and yx = E_11 t^2, so a
    kernel that reads either factor transposed gives 0 for both."""
    ring, cap, dd = matrix_ring(d), 2, d * d
    x = TruncatedSeries.from_numerators(ring, cap, [0] * dd + [int(e == 1) for e in range(dd)]
                                        + [0] * dd, 1)
    y = TruncatedSeries.from_numerators(ring, cap, [0] * dd + [int(e == d) for e in range(dd)]
                                        + [0] * dd, 1)
    e00 = [int(e == 0) for e in range(dd)]
    e11 = [int(e == d + 1) for e in range(dd)]
    assert (x * y).block(2) == (e00, 1) and (y * x).block(2) == (e11, 1)


@pytest.mark.parametrize("d", (2, 3, 4))
def test_transpose_reverses_products(d):
    """Nonzero constant terms and zero blocks on either side: transpose is an
    involution onto the opposite algebra, and it moves entries."""
    ring, cap = matrix_ring(d), 6
    rng = random.Random(60 + d)
    x = _with_zero_blocks(random_series(ring, cap, rng, 0, 7), {2, 5})
    y = _with_zero_blocks(random_series(ring, cap, rng, 0, 7), {1, 3})
    assert any(x.block(0)[0]) and any(y.block(0)[0])
    assert x * y != y * x and x.transpose() != x
    assert (x * y).transpose() == y.transpose() * x.transpose()
    assert x.transpose().transpose() == x


@pytest.mark.parametrize("d", (2, 3, 4))
def test_transpose_transposes_every_coefficient(d):
    ring, cap = matrix_ring(d), 5
    x = random_series(ring, cap, random.Random(70 + d), 0, 7)
    rows = [[list(col) for col in zip(*block)] for block in _fraction_blocks(x)]
    assert x.transpose() == TruncatedSeries.from_coeffs(ring, cap, rows)


@pytest.mark.parametrize("cap", (0, 1, 8))
def test_transpose_is_the_identity_over_q(cap):
    x = random_series(SCALAR, cap, random.Random(80 + cap), 0, 7)
    assert x.transpose() == x


def _block_values(block):
    num, den = block
    return [Fraction(v, den) for v in num]


# Block lists: one reduced Block per coefficient, None for a zero one.


@pytest.mark.parametrize("d", (1, 2, 3))
@pytest.mark.parametrize("cap", (0, 1, 6))
def test_block_lists_round_trip(d, cap):
    ring = matrix_ring(d)
    x = _with_zero_blocks(random_series(ring, cap, random.Random(90 + cap), 0, 7), {1})
    blocks = to_blocks(x)
    assert len(blocks) == cap + 1
    for k, b in enumerate(blocks):
        if k == 1 or not any(x.block(k)[0]):
            assert b is None
        else:
            num, den = b
            assert gcd(den, *num) == 1
            assert _block_values(b) == _block_values(x.block(k))
    assert from_blocks(ring, cap, blocks) == x
    zero = TruncatedSeries.zero(ring, cap)
    assert to_blocks(zero) == [None] * (cap + 1)
    assert from_blocks(ring, cap, [None] * (cap + 1)) == zero


@pytest.mark.parametrize("d, blocks", [
    # 3**2 only in the first block, 2**2 only in the last
    (1, [([2], 9), None, ([1], 2), ([5], 4)]),
    (2, [([2, 0, 0, 1], 9), ([3, 6, 0, 3], 2), None, ([1, 2, 3, 4], 6)]),
    # rescaled over 50, one entry alone is odd (25) and one alone prime to 5 (6)
    (2, [([4, 0, 0, 4], 1), ([1, 10, 4, 2], 2), ([5, 10, 3, 0], 25)]),
])
def test_from_blocks_is_in_lowest_terms(d, blocks):
    """Over reduced blocks with differing denominators the common one needs
    no gcd pass: each prime's full power sits in a block with an entry prime
    to it, whose multiplier is prime to it too."""
    ring, cap = matrix_ring(d), len(blocks) - 1
    got = from_blocks(ring, cap, blocks)
    assert gcd(got._den, *got._num) == 1
    assert got._den == lcm(*(b[1] for b in blocks if b))
    for k, b in enumerate(blocks):
        assert _block_values(got.block(k)) == (_block_values(b) if b else [0] * (d * d))


@pytest.mark.parametrize("d", (1, 2, 3))
def test_builders_without_a_gcd_pass_give_lowest_terms(d):
    ring, cap = matrix_ring(d), 5
    x = random_series(ring, cap, random.Random(70 + d), 0, 7)
    for s in (TruncatedSeries.zero(ring, cap), TruncatedSeries.one(ring, cap),
              TruncatedSeries.var(ring, cap), x.transpose()):
        assert gcd(s._den, *s._num) == 1
    assert TruncatedSeries.zero(ring, cap)._den == 1


@pytest.mark.parametrize("d", (1, 2, 3))
def test_products_of_unreduced_factors_are_in_lowest_terms(d):
    """Applies and scale round trips make no gcd pass, so their pairs keep a
    common factor; a product of two of them makes its one pass, and its pair
    is the reduced one of the product of their reduced copies."""
    ring, cap = matrix_ring(d), 6
    rng = random.Random(80 + d)
    x, y = (random_series(ring, cap, rng, 1, 7) for _ in range(2))
    r = Q(-5, 7)
    qscale = EQUALITY_OPERATORS[1]
    factors = [apply(qscale, x), apply(qscale, y), y.scale(r).scale(1 / r)] + [
        apply(op, x.scale(r)).scale(1 / r) for op in EQUALITY_OPERATORS]
    for a, b in itertools.product(factors, repeat=2):
        assert gcd(a._den, *a._num) > 1 and gcd(b._den, *b._num) > 1
        got = a * b
        assert gcd(got._den, *got._num) == 1
        want = TruncatedSeries(ring, cap, a.coeffs) * TruncatedSeries(ring, cap, b.coeffs)
        assert (got._num, got._den) == (want._num, want._den)


@pytest.mark.parametrize("d", (1, 2, 3))
def test_block_product_matches_a_fraction_matrix_sum(d):
    """Every c and lo..hi over block lists with zero blocks on either side,
    each term over its own denominator, summed over their lcm unreduced."""
    ring, cap = matrix_ring(d), 5
    rng = random.Random(95 + d)
    x = _with_zero_blocks(random_series(ring, cap, rng, 0, 7), {3})
    y = _with_zero_blocks(random_series(ring, cap, rng, 0, 7), {2})
    xs, ys = _fraction_blocks(x), _fraction_blocks(y)
    bx, by = to_blocks(x), to_blocks(y)
    rescaled = False
    for c in range(cap + 1):
        bounds = [(lo, hi) for lo in range(c + 1) for hi in range(lo - 1, c + 1)]
        for lo, hi in bounds + [(1, None)]:
            got = block_product(bx, by, c, d, lo, hi)
            js = [j for j in range(lo, c if hi is None else hi + 1) if bx[j] and by[c - j]]
            if not js:
                assert got is None
                continue
            num, den = got
            dens = [bx[j][1] * by[c - j][1] for j in js]
            assert den == lcm(*dens)
            rescaled |= den != min(dens)
            assert [[Fraction(v, den) for v in num[r * d : (r + 1) * d]]
                    for r in range(d)] == _fraction_sum(xs, ys, c, js)
    assert rescaled  # some sum had terms over differing denominators


def test_reduced_and_reduced_sum():
    """Reduced blocks, None for zero; None blocks are skipped and a lone term
    is scaled by its ratio."""
    assert reduced([2, 4], 6) == ([1, 2], 3)
    assert reduced([0, 0], 6) is None
    assert reduced_sum() is None and reduced_sum((1, None), (Q(1, 2), None)) is None
    assert reduced_sum((1, ([2], 4))) == ([1], 2)
    assert reduced_sum((Q(-2, 3), ([3, 6, 0, 9], 4)), (5, None)) == ([-1, -2, 0, -3], 2)
    assert reduced_sum((1, ([1], 2)), (1, ([2], 6)), (7, None)) == ([5], 6)
    assert reduced_sum((Q(3, 5), ([1], 2)), (-1, ([3], 10))) is None


# exp, lambda_log and geom_inv settle one coefficient at a time; the
# references below sum the defining powers with plain products and scale.

ROUND_TRIP_RINGS = [SCALAR, MAT2, MAT3]
RING_IDS = ["scalar", "mat2", "mat3"]


def _power_sum(x, weight):
    """The sum of weight(n) * x^n for n = 0..cap."""
    out = TruncatedSeries.zero(x.ring, x.cap)
    power = TruncatedSeries.one(x.ring, x.cap)
    for n in range(x.cap + 1):
        out = out + power.scale(weight(n))
        power = power * x
    return out


@pytest.mark.parametrize("cap", [0, 1, 6, 16, 30])
def test_commutative_exp_and_lambda_log_match_their_power_sums(cap):
    ring = SCALAR
    rng = random.Random(40 + cap)
    inputs = [TruncatedSeries.zero(ring, cap), TruncatedSeries.var(ring, cap),
              random_series(ring, cap, rng, 1, 5),
              random_series(ring, cap, rng, min(2, cap + 1), 9)]
    for x in inputs:
        assert x.exp() == _power_sum(x, lambda n: Q(1, factorial(n)))
        for lam in (Q(-1), Q(0), Q(1), Q(1, 2)):
            want = _power_sum(x, lambda n: (-lam) ** (n - 1) / n if n else 0)
            assert x.lambda_log(lam) == want
        assert x.log1p() == x.lambda_log(1)


@pytest.mark.parametrize("lam", [Q(-1), Q(1), Q(2, 3)])
def test_noncommutative_lambda_log_stops_at_a_zero_power(lam):
    """t*N with N nilpotent of order 3: the power sum stops at the zero
    x^3 and still equals the defining sum."""
    x = TruncatedSeries.from_coeffs(MAT3, 6, [0, [[0, 1, 0], [0, 0, 1], [0, 0, 0]]])
    assert not (x * x).is_zero() and (x * x * x).is_zero()
    assert x.lambda_log(lam) == _power_sum(x, lambda n: (-lam) ** (n - 1) / n if n else 0)


@pytest.mark.parametrize("ring", ROUND_TRIP_RINGS, ids=RING_IDS)
def test_the_analytic_maps_at_cap_zero(ring):
    """Neither loop runs: exp and geom_inv give 1 and lambda_log gives 0."""
    zero, one = TruncatedSeries.zero(ring, 0), TruncatedSeries.one(ring, 0)
    assert zero.exp() == one
    for lam in (Q(-3, 2), Q(0), Q(1)):
        assert zero.geom_inv(lam) == one
        assert zero.lambda_log(lam) == zero
    assert zero.log1p() == zero


@pytest.mark.parametrize("ring", [SCALAR, MAT2, MAT3], ids=["scalar", "mat2", "mat3"])
def test_geom_inv_is_a_two_sided_inverse(ring):
    rng = random.Random(41)
    for cap in (0, 1, 6):
        one = TruncatedSeries.one(ring, cap)
        for x in (TruncatedSeries.var(ring, cap), random_series(ring, cap, rng, 1, 5)):
            for lam in (Q(-1), Q(0), Q(1), Q(1, 2), Q(-3, 2)):
                y = x.geom_inv(lam)
                shifted = one + x.scale(lam)
                assert shifted * y == one and y * shifted == one


def _coeffs_text(x):
    """The reference text form: str of each RingElement `coeffs` returns."""
    return ",".join(str(c) for c in x.coeffs)


def _coeffs_json(x):
    if x.ring.dim == 1:
        return [str(c.value) for c in x.coeffs]
    return [[[str(a) for a in row] for row in c.value] for c in x.coeffs]


@pytest.mark.parametrize("ring", ROUND_TRIP_RINGS, ids=RING_IDS)
def test_text_from_numerators_matches_the_coefficients(ring):
    rng = random.Random(42)
    inputs = [TruncatedSeries.zero(ring, 4), TruncatedSeries.one(ring, 0)]
    inputs += [random_series(ring, cap, rng, v, bound)
               for cap, v, bound in ((0, 0, 7), (4, 0, 9), (6, 2, 12), (3, 0, 1))]
    inputs.append(inputs[-2].scale(Q(-10**20, 3)))
    for x in inputs:
        assert str(x) == _coeffs_text(x)
        assert x.to_json() == _coeffs_json(x)
        for k in range(x.cap + 1):
            assert x.coefficient_text(k) == str(x.coefficient(k))
    with pytest.raises(IndexError):
        inputs[0].coefficient_text(5)


def _series_of_entries(ring, entries):
    d = ring.dim
    if ring.dim == 1:
        return TruncatedSeries.from_coeffs(ring, len(entries) - 1, entries)
    blocks = [entries[i : i + d * d] for i in range(0, len(entries), d * d)]
    return TruncatedSeries.from_coeffs(
        ring, len(blocks) - 1, [[b[r * d : (r + 1) * d] for r in range(d)] for b in blocks])


@given(st.integers(0, 6).flatmap(lambda n: st.lists(
    rationals(10**6, 10**4), min_size=n + 1, max_size=n + 1)))
@settings(max_examples=60)
def test_parse_of_str_round_trips_scalar(entries):
    x = _series_of_entries(SCALAR, entries)
    assert parse_series(str(x), SCALAR, x.cap) == x


@given(st.integers(0, 4).flatmap(lambda n: st.lists(
    rationals(10**6, 10**4), min_size=4 * (n + 1), max_size=4 * (n + 1))))
@settings(max_examples=60)
def test_parse_of_str_round_trips_matrix(entries):
    x = _series_of_entries(MAT2, entries)
    assert parse_series(str(x), MAT2, x.cap) == x


@pytest.mark.parametrize("ring", ROUND_TRIP_RINGS, ids=RING_IDS)
def test_parse_reads_blank_text_as_the_zero_series(ring):
    for text in ("", " \t\n"):
        assert parse_series(text, ring, 3) == TruncatedSeries.zero(ring, 3)


def test_parse_reads_matrices_and_identity_multiples():
    x = parse_series(" [[1, 2/4],[-3,0]] , 5 ,[[0,0],[0,1/3]]", MAT2, 3)
    assert x.coefficient(0) == MAT2.element([[1, Q(1, 2)], [-3, 0]])
    assert x.coefficient(1) == MAT2.element(5)
    assert x.coefficient(2) == MAT2.element([[0, 0], [0, Q(1, 3)]])
    assert x.coefficient(3) == MAT2.element(0)
    # whitespace str.split() knows, non-breaking spaces too, is read as a space
    assert parse_series("\u00a0[[1,2],[3,4]]\u00a0", MAT2, 0) == TruncatedSeries.from_coeffs(
        MAT2, 0, [[[1, 2], [3, 4]]])
    # forms rings.rational reads beyond p/q still parse as before
    assert parse_series("0.5, 1e2, +3, -0", SCALAR, 3) == TruncatedSeries.from_coeffs(
        SCALAR, 3, [Q(1, 2), 100, 3, 0])


@pytest.mark.parametrize("ring,text", [
    (MAT2, "[[1,2],[3,4]"), (MAT2, "[[1,2],[3,4]]]"), (MAT2, "[[1,2],[3]]"),
    (MAT2, "[1,2]"), (MAT2, "[12,34]"), (MAT2, "[[[1,2]],[3,4]]"), (MAT2, "[[1,2],[3,x]]"),
    (MAT2, "[[1,2],[3,4]]x"), (MAT2, "[]"), (MAT2, "1/0"), (SCALAR, "[[1]]"),
    (SCALAR, "0,,1"), (SCALAR, "1/0"), (SCALAR, "1/-2"), (SCALAR, "0,1,x"),
    pytest.param(MAT2, "[" * 10**5, id="deep-brackets"), (MAT2, '[["1",2],[3,4]]'), (MAT2, r"[[\u0031,2],[3,4]]"),
    (MAT2, "[[1,2],[3,4]]\\"), (MAT2, "[[[1],2],[3,4]]"), (SCALAR, "[[7]],1/2"),
])
def test_parse_rejects_malformed_text(ring, text):
    with pytest.raises((ValueError, ZeroDivisionError)):
        parse_series(text, ring, 1)


@pytest.mark.parametrize("second", ["2", "x", '""', '" "'])
def test_parse_raises_zero_division_at_a_first_zero_denominator(second):
    """Entries are coerced in order, so a zero denominator ahead of any other
    fault raises ZeroDivisionError. A quote is no entry character: a quoted
    run of separators is one more entry, coerced after it."""
    with pytest.raises(ZeroDivisionError):
        parse_series(f"[[1/0,{second}],[3,4]]", MAT2, 1)


def test_from_coeffs_coerces_every_kind_of_value():
    a = MAT2.element([[1, 2], [3, 4]])
    x = TruncatedSeries.from_coeffs(MAT2, 4, [a, 2, "1/3", Q(1, 5), [["1", Q(1, 2)], [0, -1]]])
    assert x.coeffs == (a, MAT2.element(2), MAT2.element("1/3"), MAT2.element(Q(1, 5)),
                        MAT2.element([[1, Q(1, 2)], [0, -1]]))
    assert TruncatedSeries.from_coeffs(SCALAR, 1, [SCALAR.element(3)]).coeffs == (
        SCALAR.element(3), SCALAR.element(0))
    for bad in (0.5, True):
        with pytest.raises(TypeError):
            TruncatedSeries.from_coeffs(SCALAR, 0, [bad])
        with pytest.raises(TypeError):
            TruncatedSeries.from_coeffs(MAT2, 0, [bad])
    with pytest.raises(RingMismatchError):
        TruncatedSeries.from_coeffs(MAT2, 0, [MAT3.element(1)])
    with pytest.raises(ValueError):
        TruncatedSeries.from_coeffs(MAT2, 0, [[[1, 2, 3], [4, 5, 6]]])
    with pytest.raises(ValueError):
        TruncatedSeries.from_coeffs(SCALAR, -1, [])
