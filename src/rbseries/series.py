"""Truncated formal power series in t over an exact coefficient ring.

A series holds coefficients c_0..c_N modulo t^(N+1), compared exactly. The
valuation val(x), the least k with c_k != 0 (N+1 for 0), is the filtration.

Storage follows FLINT's fmpq_poly: one flat list of Python int numerators
over one shared positive denominator. Entry e of the d x d coefficient of t^k
sits at index k*d*d + e (row-major), so a scalar series is the d = 1 case. The
pair is reduced (gcd 1, the zero series over 1) where denominators multiply:
by one _reduce call in each of __init__, from_numerators, from_coeffs and the
product _mul, and per coefficient in the settles. Sums, scales and applies
(termwise) are not reduced: a sum's denominator is an lcm, and a scale or an
apply multiplies it by one fixed factor, so a linear map cannot grow it
without bound (Knuth, TAOCP vol. 2, 4.5.1). So == cross-multiplies over
different denominators, hash reduces first, and the text form, JSON and
block lists reduce what they read. Against a gcd pass after every new series
this took the rb-axiom round at cap 16 from 13.6 to 10.8 ms, and one
generated call per matrix product with random series drawn over one
denominator took it from 11.3 to 10.5 ms (2-vCPU KVM guest, Python 3.11.7;
two runs, each against its own parent). Arithmetic, the text form and JSON
run on the integers alone; RingElement values are built only when
`coefficient` or `coeffs` is read. A block list (to_blocks) keeps one
reduced Block per coefficient instead, each over its own denominator: the
towers of powers and commutators that the solvers' split and chi_0 settle
run 1.2-1.5x faster on it over 2x2 and 3x3 matrices, since on a shared
denominator nearly every settled coefficient rescales its whole series.

Every linear settle of the kernel is one call of `settle`, which solves
b = c + R(a*b) one coefficient at a time for a diagonal R, on the flat
layout over one shared denominator. Its callers and their R: Picard's solver
(the operator P); exp over Q (J: t^n -> t^n/n, weight 0); geom_inv over every
ring and the lambda-log over Q (-lambda*id, weight lambda). The power sum
_power_sum adds t_n = t_(n-1)*x*r_n for exp and the lambda-log over a
non-commutative ring. settle runs one loop per dimension. Over Q it is
_settle_scalar, on plain ints: a step is one sum(map(mul, ...)) and one gcd.
1 x 1 blocks paid a slice, a generator sum and a _reduce call per step,
which cost more than the convolution; against them exp, geom_inv and the
lambda-log over Q take 0.60-0.69x the time at caps 6-16, and the whole
scalar Picard solve 0.72-0.78x (medians of 9 alternated timeit batches,
2-vCPU KVM guest, Python 3.11.7). Over d x d matrices, d >= 2, it is the
block loop. There, and in block_product at every d, Q's 1 x 1 blocks too,
every block product is one call of a straight-line multiply-add generated
for the dimension (_block_madd), so no Python loop runs per entry; `x * y`
over matrices is one call of a product generated from the same source, so
no call is made per block pair.
"""

from __future__ import annotations

import json
import re
import sys
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .rings import (Q, RingDescriptor, RingElement, RingMismatchError, rational, rational_entry,
                    write_coefficients)


class DomainError(ValueError):
    """Input outside an operation's domain (e.g. exp of a unit series)."""


class DigitLimitError(ValueError):
    """An exact entry too long to write as text."""


@lru_cache(maxsize=16)
def _block_madd(d: int):
    """(madd, product), two straight-line functions generated for row-major
    d x d blocks from one source. madd(out, o, a, b) adds the product of the
    blocks a and b to out[o : o + d*d]. product(xs, ys, end) is the Cauchy
    product of the flat layouts xs and ys truncated to its first `end`
    entries: madd's body inlined in a loop over the nonzero blocks of ys, so
    `x * y` makes one call, not one per block pair.

    The source holds d*d statements of d multiplies each, twice, so it grows
    as d^3, like one block product; it is compiled once per d and cached.
    Generating and compiling both took 0.19 ms at d = 2, 0.33 ms at 3 and
    2.9 ms at 8, against 0.06, 0.13 and 1.35 ms for madd alone (medians of
    101, 2-vCPU KVM guest, Python 3.11.7).
    """
    dd = d * d
    a = ", ".join(f"a{e}" for e in range(dd))
    b = ", ".join(f"b{e}" for e in range(dd))
    body = [f"out[o + {r * d + c}] += "
            + " + ".join(f"a{r * d + k} * b{k * d + c}" for k in range(d))
            for r in range(d) for c in range(d)]
    lines = ["def madd(out, o, a, b):", f"    {a}, = a", f"    {b}, = b"]
    lines += ["    " + s for s in body]
    lines += [
        "def product(xs, ys, end):",
        "    out = [0] * end",
        f"    right = [(j, *ys[j : j + {dd}]) for j in range(0, end, {dd})"
        f" if any(ys[j : j + {dd}])]",
        f"    for i in range(0, end, {dd}):",
        f"        {a}, = xs[i : i + {dd}]",
        f"        if not ({a.replace(',', ' or')}):",
        "            continue",
        f"        for j, {b} in right:",
        "            o = i + j",
        "            if o >= end:",
        "                break",
    ]
    lines += ["            " + s for s in body]
    lines.append("    return out")
    namespace = {}
    exec("\n".join(lines), namespace)
    return namespace["madd"], namespace["product"]


class TruncatedSeries:
    """Immutable series over `ring`, truncated modulo t^(cap+1)."""

    __slots__ = ("ring", "cap", "_num", "_den")

    def __init__(self, ring: RingDescriptor, cap: int, values: Iterable):
        """The series with coefficients `values` from c_0 upward: missing ones
        are zero and the excess is dropped. A value is what
        RingDescriptor.entries reads: a RingElement of `ring` (one of another
        ring raises RingMismatchError), rows of entries, or a rational or its
        text for that multiple of the identity."""
        self._fill(ring, cap, *_reduce(*_numerators(ring, cap, values)))

    def _fill(self, ring: RingDescriptor, cap: int, num: list, den: int) -> "TruncatedSeries":
        """self, with its fields set to `ring`, `cap` and the pair num/den,
        taken as given: every series is built here, through __init__ or
        _no_gcd. The callers that need a gcd pass (__init__,
        from_numerators, from_coeffs and _mul) make it with _reduce first."""
        _set = object.__setattr__
        _set(self, "ring", ring)
        _set(self, "cap", cap)
        _set(self, "_num", num)
        _set(self, "_den", den)
        return self

    @classmethod
    def _no_gcd(
        cls, ring: RingDescriptor, cap: int, num: list, den: int
    ) -> "TruncatedSeries":
        """Series with numerators `num` over the positive `den`, taken as
        given: a pair reduced by the caller (from_numerators, from_coeffs and
        _mul call _reduce first), a pair in lowest terms by construction, or
        the result of a sum, scale or termwise, which cannot grow a
        denominator without bound (see the module docstring)."""
        return object.__new__(cls)._fill(ring, cap, num, den)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    # ---------------------------------------------------------------- builders

    @classmethod
    def zero(cls, ring: RingDescriptor, cap: int) -> "TruncatedSeries":
        return cls._no_gcd(ring, cap, [0] * ((cap + 1) * ring.dim**2), 1)

    @classmethod
    def one(cls, ring: RingDescriptor, cap: int) -> "TruncatedSeries":
        return cls._monomial(ring, cap, 0)

    @classmethod
    def var(cls, ring: RingDescriptor, cap: int) -> "TruncatedSeries":
        """The series t."""
        return cls._monomial(ring, cap, 1)

    @classmethod
    def _monomial(cls, ring: RingDescriptor, cap: int, k: int) -> "TruncatedSeries":
        """The identity times t^k (zero when k > cap)."""
        d = ring.dim
        num = [0] * ((cap + 1) * d * d)
        if k <= cap:
            for r in range(d):
                num[k * d * d + r * d + r] = 1
        return cls._no_gcd(ring, cap, num, 1)

    @classmethod
    def from_numerators(
        cls, ring: RingDescriptor, cap: int, num: Sequence[int], den: int
    ) -> "TruncatedSeries":
        """The series with integer numerators `num`, laid out as in the module
        docstring, over the positive integer `den`."""
        if cap < 0:
            raise ValueError("cap must be >= 0")
        if len(num) != (cap + 1) * ring.dim**2:
            raise ValueError("expected (cap+1)*dim*dim numerators")
        if den < 1:
            raise ValueError("the denominator must be positive")
        num, den = _reduce(list(num), den)
        return cls._no_gcd(ring, cap, num, den)

    @classmethod
    def from_coeffs(
        cls, ring: RingDescriptor, cap: int, values: Iterable
    ) -> "TruncatedSeries":
        """TruncatedSeries(ring, cap, values): the same coercion, building the
        series without running __init__."""
        num, den = _reduce(*_numerators(ring, cap, values))
        return cls._no_gcd(ring, cap, num, den)

    # --------------------------------------------------------------- structure

    def _check(self, other: "TruncatedSeries") -> None:
        if self.ring != other.ring:
            raise RingMismatchError("series over different rings")
        if self.cap != other.cap:
            raise ValueError("series with different truncation caps")

    def __eq__(self, other: object) -> bool:
        """Equal values: over different denominators, the numerators are
        cross-multiplied, since a sum, scale or apply leaves its pair
        unreduced. The multipliers are the denominators over their gcd: at
        cap 128 over Q, a product against an unreduced copy of it compared
        in 0.13 ms so and in 13.7 ms with the whole denominators."""
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.cap != other.cap or self.ring != other.ring:
            return False
        da, db = self._den, other._den
        if da == db:
            return self._num == other._num
        g = gcd(da, db)
        ma, mb = db // g, da // g
        return list(map(ma.__mul__, self._num)) == list(map(mb.__mul__, other._num))

    def __hash__(self) -> int:
        """The hash of the reduced pair, so equal values hash alike."""
        num, den = _reduce(self._num, self._den)
        return hash((self.ring, self.cap, den, tuple(num)))

    def valuation(self) -> int:
        dd = self.ring.dim**2
        for i, v in enumerate(self._num):
            if v:
                return i // dd
        return self.cap + 1

    def is_zero(self) -> bool:
        return not any(self._num)

    def transpose(self) -> "TruncatedSeries":
        """Every coefficient transposed; a copy over Q. It reverses products and
        commutes with each operator, which acts on each coefficient, so it
        carries an equation to its mirror in the opposite algebra. The
        numerators are permuted, so a pair in lowest terms stays so."""
        d = self.ring.dim
        num = [self._num[k + c * d + r] for k in range(0, len(self._num), d * d)
               for r in range(d) for c in range(d)]
        return TruncatedSeries._no_gcd(self.ring, self.cap, num, self._den)

    def coefficient(self, k: int) -> RingElement:
        """The coefficient of t^k as a RingElement."""
        if not 0 <= k <= self.cap:
            raise IndexError("coefficient index out of range")
        num, den = self.block(k)
        return RingElement(self.ring, self.ring.shape([Q(v, den) for v in num]))

    def coefficient_text(self, k: int) -> str:
        """The coefficient of t^k as text: str(self.coefficient(k)), written
        from the numerators."""
        if not 0 <= k <= self.cap:
            raise IndexError("coefficient index out of range")
        return write_coefficients(_entry_texts(*self.block(k)), self.ring.dim)

    def block(self, k: int) -> "Block":
        """The coefficient of t^k as a Block: its numerators over the series'
        denominator."""
        dd = self.ring.dim**2
        return self._num[k * dd : (k + 1) * dd], self._den

    @property
    def coeffs(self) -> tuple:
        """cap+1 RingElements, coefficient of t^k at index k."""
        return tuple(self.coefficient(k) for k in range(self.cap + 1))

    # -------------------------------------------------------------- arithmetic

    def _combine(self, other: "TruncatedSeries", sign: int) -> "TruncatedSeries":
        """self + sign*other over the least common denominator."""
        self._check(other)
        da, db = self._den, other._den
        g = gcd(da, db)
        ma, mb = db // g, sign * (da // g)
        num = [ma * a + mb * b for a, b in zip(self._num, other._num)]
        return TruncatedSeries._no_gcd(self.ring, self.cap, num, da * ma)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self._combine(other, 1)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self._combine(other, -1)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries._no_gcd(self.ring, self.cap, [-v for v in self._num], self._den)

    def _mul(self, other: "TruncatedSeries", q: int = 1, p: int = 1) -> "TruncatedSeries":
        """Cauchy product truncated at cap, times the ratio p/q (q > 0):
        integer multiply-adds on the numerators, then one gcd pass over the
        product of denominators. `x * y` is the case p = q = 1, which makes no
        pass for the ratio; the power sum passes its term's ratio, so the
        product and the scaling share the one gcd pass."""
        self._check(other)
        n = self.cap + 1
        d = self.ring.dim
        xs, ys = self._num, other._num
        if d == 1:
            out = [0] * n
            for i, a in enumerate(xs):
                if a:
                    for j in range(n - i):
                        out[i + j] += a * ys[j]
        else:
            out = _block_madd(d)[1](xs, ys, n * d * d)
        if p != 1:
            out = [p * v for v in out]
        num, den = _reduce(out, self._den * other._den * q)
        return TruncatedSeries._no_gcd(self.ring, self.cap, num, den)

    __mul__ = _mul

    def scale(self, r) -> "TruncatedSeries":
        """Multiply every coefficient by a central rational, read as
        rings.rational_entry reads it: no Fraction is built."""
        p, q = rational_entry(r)
        if q == 1 and p == 1:
            return self
        if q == 1 and p == -1:
            return -self
        return TruncatedSeries._no_gcd(
            self.ring, self.cap, [p * v for v in self._num], self._den * q
        )

    def termwise(
        self, vector: Sequence[int], den: int, shift: int = 0
    ) -> "TruncatedSeries":
        """Numerator entry i times vector[i]/den, moved up `shift` powers.

        The vector holds one multiplier per numerator entry that stays below
        the cap, so entries of t^k share the operator's factor for t^k (see
        operators.entry_vector); den must be positive. This is the kernel of
        every coefficientwise operator: one multiply per entry, no gcd pass.
        """
        num = [m * v for m, v in zip(vector, self._num)]
        if shift:
            num[:0] = [0] * (min(shift, self.cap + 1) * self.ring.dim**2)
        return TruncatedSeries._no_gcd(self.ring, self.cap, num, self._den * den)

    # ------------------------------------------------------------ analytic maps

    def _require_positive_valuation(self, what: str) -> None:
        if any(self._num[: self.ring.dim**2]):
            raise DomainError(f"{what}: series with zero constant term required")

    def exp(self) -> "TruncatedSeries":
        """Sum of x^n/n! for n = 0..cap; needs valuation >= 1.

        Over a commutative ring y = exp(x) solves t*y' = (t*x')*y, that is
        y = 1 + J((t*x')*y) for J: t^n -> t^n/n, which settle solves.
        Elsewhere y' = x'*y fails, and the power sum adds the terms x^n/n!,
        each the one before times x/n.
        """
        self._require_positive_valuation("exp")
        one = TruncatedSeries.one(self.ring, self.cap)
        if self.ring.commutative:
            return settle(one, self.termwise(range(self.cap + 1), 1), lambda n: (1, n))
        return _power_sum(self, one + self, lambda n: (1, n))

    def log1p(self) -> "TruncatedSeries":
        """log(1 + x) = sum of (-1)^(n-1) x^n / n, the weight-1 logarithm;
        needs valuation >= 1."""
        return self.lambda_log(1)

    def lambda_log(self, lam) -> "TruncatedSeries":
        """The weight-lambda logarithm sum of (-lam)^(n-1) x^n / n.

        At lam = 0 only the n = 1 term survives and the result is x itself.
        Over a commutative ring it is the integral L of x'*(1 + lam*x)^(-1):
        u = t*L' solves u = t*x' - lam*x*u, which settle solves, and
        L_n = u_n/n. Elsewhere the power sum adds the terms, each the one
        before times -lam*x*(n-1)/n.
        """
        self._require_positive_valuation("lambda_log")
        lam = rational(lam)
        if lam == 0:
            return self
        p, q = lam.numerator, lam.denominator
        if self.ring.commutative:
            tdlog = settle(self.termwise(range(self.cap + 1), 1), self, lambda n: (-p, q))
            den = lcm(*range(1, self.cap + 1))  # coefficient n times (den/n)/den
            return tdlog.termwise([den // max(n, 1) for n in range(self.cap + 1)], den)
        return _power_sum(self, self, lambda n: (-p * (n - 1), q * n))

    def geom_inv(self, lam) -> "TruncatedSeries":
        """(1 + lam*x)^(-1) = sum of (-lam*x)^n; needs valuation >= 1.

        y = 1 - lam*x*y over every ring, which settle solves.
        """
        self._require_positive_valuation("geom_inv")
        lam = rational(lam)
        p, q = lam.numerator, lam.denominator
        return settle(TruncatedSeries.one(self.ring, self.cap), self, lambda n: (-p, q))

    # ------------------------------------------------------------------- text

    def __str__(self) -> str:
        return write_coefficients(_entry_texts(self._num, self._den), self.ring.dim)

    def __repr__(self) -> str:
        """Python source that evaluates back to this series where the names
        TruncatedSeries and RingDescriptor are bound."""
        return f"TruncatedSeries({self.ring!r}, {self.cap}, {self.to_json()!r})"

    def to_json(self) -> list:
        """Array of rational strings, or of row-major matrices of strings."""
        entries = _entry_texts(self._num, self._den)
        d = self.ring.dim
        if d == 1:
            return entries
        return [[entries[i : i + d] for i in range(k, k + d * d, d)]
                for k in range(0, len(entries), d * d)]


def settle(
    const: TruncatedSeries, a: TruncatedSeries, ratio, shift: int = 0, right: bool = False
) -> TruncatedSeries:
    """The series b with b[c] = const[c] + r_k*(a*b)[k], or r_k*(b*a)[k] when
    right, for c = 0..cap and k = c - shift, where ratio(k) is (p, q) for
    r_k = p/q, q > 0: the fixed point of b = const + R(a*b) for the diagonal
    R that takes t^k to r_k*t^(k + shift).

    a has zero constant term, so (a*b)[k] and (b*a)[k] read b below k <= c
    alone, and step c settles b[c] from the coefficients settled before it
    (relaxed evaluation, O(cap^2) work; van der Hoeven, "Relax, but don't be
    too lazy", JSC 2002). b's numerators are kept over one shared
    denominator; each settled coefficient is reduced, and when its
    denominator is new the shared one is raised to their least common
    multiple, rescaling the coefficients settled before. So the pair stays
    in lowest terms, and the result needs no gcd pass. Over Q the loop is
    _settle_scalar's, over matrices the block loop below.
    """
    ring, cap, d = a.ring, a.cap, a.ring.dim
    if d == 1:
        return _settle_scalar(const, a, ratio, shift)
    dd = d * d
    xs, x_den = a._num, a._den
    cs, c_den = const._num, const._den
    madd = _block_madd(d)[0]
    num, den = [0] * ((cap + 1) * dd), 1
    for c in range(cap + 1):
        o, k = c * dd, c - shift
        block, b_den = cs[o : o + dd], c_den
        if k > 0:
            prod = [0] * dd
            for j in range(1, k + 1):  # a[j]*b[k - j]; a[0] is zero
                x, y = xs[j * dd : (j + 1) * dd], num[(k - j) * dd : (k - j + 1) * dd]
                if any(x):
                    madd(prod, 0, y, x) if right else madd(prod, 0, x, y)
            p, q = ratio(k)
            p_den = q * x_den * den
            if any(block):
                b_den = c_den * p_den // gcd(c_den, p_den)
                mc, mp = b_den // c_den, p * (b_den // p_den)
                block = [mc * u + mp * v for u, v in zip(block, prod)]
            else:
                block, b_den = [p * v for v in prod], p_den
        block, b_den = _reduce(block, b_den)
        if den % b_den:
            m = b_den // gcd(den, b_den)
            num[:o] = [m * v for v in num[:o]]
            den *= m
        m = den // b_den
        num[o : o + dd] = block if m == 1 else [m * v for v in block]
    return TruncatedSeries._no_gcd(ring, cap, num, den)


def _settle_scalar(
    const: TruncatedSeries, a: TruncatedSeries, ratio, shift: int
) -> TruncatedSeries:
    """settle over Q, on plain ints: the product commutes, so `right` is moot.
    Step c's value is const[c] plus r_k*(a*b)[k] over the product of their
    denominators, reduced by one gcd."""
    cap = a.cap
    xs, x_den = a._num, a._den
    cs, c_den = const._num, const._den
    num, den = [0] * (cap + 1), 1
    for c in range(cap + 1):
        k = c - shift
        v, v_den = cs[c], c_den
        if k > 0:
            p, q = ratio(k)
            p_den = q * x_den * den
            v = v * p_den + p * c_den * sum(map(mul, xs[1 : k + 1], num[k - 1 :: -1]))
            v_den = c_den * p_den
        g = gcd(v, v_den)
        v, v_den = v // g, v_den // g
        if den % v_den:
            m = v_den // gcd(den, v_den)
            num[:c] = [m * u for u in num[:c]]
            den *= m
        num[c] = v * (den // v_den)
    return TruncatedSeries._no_gcd(a.ring, cap, num, den)


def _power_sum(x: TruncatedSeries, total: TruncatedSeries, ratio) -> TruncatedSeries:
    """total plus t_2 + ... + t_cap, where t_1 = x, t_n = t_(n-1)*x*r_n and
    ratio(n) is (p, q) for r_n = p/q, q > 0: one product per term, sharing its
    gcd pass with r_n. The sum stops at the first zero term."""
    term = x
    for n in range(2, x.cap + 1):
        p, q = ratio(n)
        term = term._mul(x, q, p)
        if term.is_zero():
            break
        total = total + term
    return total


def _numerators(ring: RingDescriptor, cap: int, values: Iterable) -> tuple[list, int]:
    """The (cap+1)*dim*dim numerators of coefficients `values` from c_0 upward
    over their least common denominator. Every value, the excess too, is
    coerced by RingDescriptor.entries; missing ones are zero and the excess is
    dropped."""
    if cap < 0:
        raise ValueError("cap must be >= 0")
    size = (cap + 1) * ring.dim**2
    entries = [e for v in values for e in ring.entries(v)][:size]
    den = lcm(*(q for _, q in entries))
    return [p * (den // q) for p, q in entries] + [0] * (size - len(entries)), den


def _entry_texts(num: Sequence[int], den: int) -> list:
    """Each numerator over den in lowest terms, as str(Fraction) writes it:
    one gcd per entry. DigitLimitError when an integer has more digits than
    the interpreter writes (sys.get_int_max_str_digits)."""
    try:
        if den == 1:
            return [str(v) for v in num]
        out = []
        for v in num:
            g = gcd(v, den)
            out.append(str(v // g) if g == den else f"{v // g}/{den // g}")
        return out
    except ValueError:  # only str of an int raises it here
        raise DigitLimitError(
            f"an exact entry has more than {sys.get_int_max_str_digits()} digits, the limit"
            " of integer string conversion (sys.set_int_max_str_digits)") from None


# A Block is one coefficient: its d*d numerators (row-major) over a positive
# denominator.
Block = tuple[list, int]


def _reduce(num: list, den: int) -> Block:
    """The numerators `num` over the positive `den` in lowest terms: the one
    gcd pass of a constructed series, a product, a settled coefficient or a
    hash."""
    g = gcd(den, *num)
    if g == 1:
        return num, den
    return [v // g for v in num], den // g


# A block list holds a series as one reduced Block per coefficient, or None
# for a zero one, so each coefficient keeps its own denominator (see the
# module docstring for where that pays).


def reduced(num: list, den: int) -> Block | None:
    """The block num/den in lowest terms; None when it is zero."""
    return _reduce(num, den) if any(num) else None


def to_blocks(series: TruncatedSeries) -> list:
    """`series` as a block list."""
    return [reduced(*series.block(k)) for k in range(series.cap + 1)]


def from_blocks(ring: RingDescriptor, cap: int, blocks: list) -> TruncatedSeries:
    """The series of the block list `blocks`, over the least common
    denominator of its blocks, which must each be reduced (as `reduced` and
    `reduced_sum` leave them). The result is then in lowest terms with no gcd
    pass: for each prime p of the common denominator, a block whose
    denominator carries p's full power holds an entry prime to p, and that
    block's multiplier is prime to p too."""
    dd = ring.dim**2
    den = lcm(*(b[1] for b in blocks if b))
    num = []
    for b in blocks:
        if b is None:
            num += [0] * dd
        else:
            k = den // b[1]
            num += b[0] if k == 1 else [k * v for v in b[0]]
    return TruncatedSeries._no_gcd(ring, cap, num, den)


def block_product(
    xs: list, ys: list, c: int, d: int, lo: int = 1, hi: int | None = None
) -> Block | None:
    """Sum of xs[j]*ys[c-j] for j = lo..hi (hi = c - 1 by default) over the
    d x d block lists xs and ys, skipping zero blocks; each term is scaled to
    the terms' least common denominator. Not reduced; None when every term
    has a zero block.

    When both lists have zero constant term and lo is xs's valuation, this is
    coefficient c of the product, read from coefficients below c alone.
    """
    top = c if hi is None else hi + 1
    pairs, dens = [], []
    for j in range(lo, top):
        a, b = xs[j], ys[c - j]
        if a and b:
            pairs.append((a[0], b[0]))
            dens.append(a[1] * b[1])
    if not pairs:
        return None
    den = lcm(*dens)
    out = [0] * (d * d)
    madd = _block_madd(d)[0]
    for (a, b), e in zip(pairs, dens):
        m = den // e
        madd(out, 0, a if m == 1 else [m * v for v in a], b)
    return out, den


def reduced_sum(*terms: tuple) -> Block | None:
    """The sum of r*block over the (r, block) pairs whose block is not None,
    r an int or a Fraction, over the least common denominator and reduced;
    None when the sum is zero. A lone term is scaled, not summed."""
    terms = [t for t in terms if t[1]]
    if not terms:
        return None
    if len(terms) == 1:
        r, (num, den) = terms[0]
        if r == 1:
            return reduced(num, den)
        return reduced([r.numerator * v for v in num], den * r.denominator)
    den = lcm(*(d * r.denominator for r, (_, d) in terms))
    out = [0] * len(terms[0][1][0])
    for r, (num, d) in terms:
        m = r.numerator * (den // (d * r.denominator))
        if m:
            for e, v in enumerate(num):
                out[e] += m * v
    return reduced(out, den)


# An entry token of the bracketed text form: a run of characters that are not
# whitespace, brackets, commas, or JSON's quote and escape characters.
_ENTRY = re.compile(r'[^\s\[\],"\\]+')


def parse_series(text: str, ring: RingDescriptor, cap: int) -> TruncatedSeries:
    """Parse the text form str() writes: comma-separated coefficients from c_0
    upward. Over a matrix ring a coefficient is [[a,b],[c,d]] (rows of
    entries), or a rational for that multiple of the identity."""
    text = text.strip()
    if not text:
        values = []
    elif ring.dim == 1 or "[" not in text:
        values = text.split(",")
    else:
        # Quote each entry and read the brackets and commas as JSON. A value
        # nested too deep fails coercion with a TypeError, and very deep
        # brackets fail json.loads with a RecursionError.
        quoted = _ENTRY.sub(r'"\g<0>"', " ".join(text.split()))
        try:
            return TruncatedSeries.from_coeffs(ring, cap, json.loads(f"[{quoted}]"))
        except (TypeError, RecursionError) as exc:
            raise ValueError("series text nested too deep") from exc
    return TruncatedSeries.from_coeffs(ring, cap, values)
