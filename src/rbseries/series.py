"""Truncated formal power series in t over an exact coefficient ring.

A series holds coefficients c_0..c_N modulo t^(N+1), compared exactly. The
valuation val(x), the least k with c_k != 0 (N+1 for 0), is the filtration.

Storage follows FLINT's fmpq_poly: one flat list of Python int numerators
over one shared positive denominator. Entry e of the d x d coefficient of t^k
sits at index k*d*d + e (row-major), so a scalar series is the d = 1 case. The
pair is kept reduced (gcd 1, the zero series over 1), so equal series have
equal representations. Arithmetic, the text form and JSON run on the integers
alone; RingElement values are built only when `coefficient` or `coeffs` is
read. RelaxedSeries keeps the same layout for a series settled one coefficient
at a time, as Picard and _relaxed settle it. A block list (to_blocks) keeps
one reduced Block per coefficient instead, each over its own denominator:
the towers of powers and commutators that the solvers' split and chi_0
settle run 1.2-1.5x faster on it over 2x2 and 3x3 matrices, since on a shared
denominator nearly every settled coefficient rescales its whole series, while
_relaxed on it ran scalar exp 1.4x slower.

Over a matrix ring every block product, in `x * y`, in
RelaxedSeries.product_coefficient and in block_product, runs one
straight-line multiply-add generated for the dimension (_block_madd), so no
Python loop runs per entry.
exp, lambda_log and geom_inv run on two loops: _relaxed settles y_0 = 1,
y_n = r_n*(a*y)_n, and _power_sum adds t_n = t_(n-1)*x*r_n.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Sequence

from .rings import Q, RingDescriptor, RingElement, RingMismatchError, rational, write_coefficients


class DomainError(ValueError):
    """Input outside an operation's domain (e.g. exp of a unit series)."""


@lru_cache(maxsize=16)
def _block_madd(d: int):
    """madd(out, o, a, b) adds the product of the row-major d x d blocks a and
    b to out[o : o + d*d], as one straight-line function generated for d.

    The source holds d*d statements of d multiplies each, so it grows as d^3,
    like one block product; it is compiled once per d and cached. Generating
    and compiling took 0.13 ms at d = 2, 0.26 ms at 3, 2.7 ms at 8 and 20 ms
    at 16 (2-vCPU KVM guest, Python 3.11.7).
    """
    a = ", ".join(f"a{e}" for e in range(d * d))
    b = ", ".join(f"b{e}" for e in range(d * d))
    lines = ["def madd(out, o, a, b):", f"    {a}, = a", f"    {b}, = b"]
    for r in range(d):
        for c in range(d):
            terms = " + ".join(f"a{r * d + k} * b{k * d + c}" for k in range(d))
            lines.append(f"    out[o + {r * d + c}] += {terms}")
    namespace = {}
    exec("\n".join(lines), namespace)
    return namespace["madd"]


class TruncatedSeries:
    """Immutable series over `ring`, truncated modulo t^(cap+1)."""

    __slots__ = ("ring", "cap", "_num", "_den")

    def __init__(self, ring: RingDescriptor, cap: int, values: Iterable):
        """The series with coefficients `values` from c_0 upward: missing ones
        are zero and the excess is dropped. A value is what
        RingDescriptor.entries reads: a RingElement of `ring` (one of another
        ring raises RingMismatchError), rows of entries, or a rational or its
        text for that multiple of the identity."""
        self._init(ring, cap, *_numerators(ring, cap, values))

    def _init(self, ring: RingDescriptor, cap: int, num: list, den: int) -> None:
        num, den = _reduce(num, den)
        _set = object.__setattr__
        _set(self, "ring", ring)
        _set(self, "cap", cap)
        _set(self, "_num", num)
        _set(self, "_den", den)

    @classmethod
    def _make(
        cls, ring: RingDescriptor, cap: int, num: list, den: int
    ) -> "TruncatedSeries":
        """Series with numerators `num` over the positive `den`, reduced here."""
        self = object.__new__(cls)
        self._init(ring, cap, num, den)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    # ---------------------------------------------------------------- builders

    @classmethod
    def zero(cls, ring: RingDescriptor, cap: int) -> "TruncatedSeries":
        return cls._make(ring, cap, [0] * ((cap + 1) * ring.dim**2), 1)

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
        return cls._make(ring, cap, num, 1)

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
        return cls._make(ring, cap, list(num), den)

    @classmethod
    def from_coeffs(
        cls, ring: RingDescriptor, cap: int, values: Iterable
    ) -> "TruncatedSeries":
        """TruncatedSeries(ring, cap, values): the same coercion, building the
        series without running __init__."""
        return cls._make(ring, cap, *_numerators(ring, cap, values))

    # --------------------------------------------------------------- structure

    def _check(self, other: "TruncatedSeries") -> None:
        if self.ring != other.ring:
            raise RingMismatchError("series over different rings")
        if self.cap != other.cap:
            raise ValueError("series with different truncation caps")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self._den == other._den
            and self.cap == other.cap
            and self.ring == other.ring
            and self._num == other._num
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.cap, self._den, tuple(self._num)))

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
        carries an equation to its mirror in the opposite algebra."""
        d = self.ring.dim
        num = [self._num[k + c * d + r] for k in range(0, len(self._num), d * d)
               for r in range(d) for c in range(d)]
        return TruncatedSeries._make(self.ring, self.cap, num, self._den)

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
        return TruncatedSeries._make(self.ring, self.cap, num, da * ma)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self._combine(other, 1)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self._combine(other, -1)

    def __neg__(self) -> "TruncatedSeries":
        # Negating a reduced pair leaves it reduced, so no gcd pass.
        out = object.__new__(TruncatedSeries)
        _set = object.__setattr__
        _set(out, "ring", self.ring)
        _set(out, "cap", self.cap)
        _set(out, "_num", [-v for v in self._num])
        _set(out, "_den", self._den)
        return out

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
            dd = d * d
            end = n * dd
            out = [0] * end
            madd = _block_madd(d)
            starts = range(0, end, dd)
            right = [(j, ys[j : j + dd]) for j in starts if any(ys[j : j + dd])]
            for i in starts:
                a = xs[i : i + dd]
                if not any(a):
                    continue
                for j, b in right:
                    o = i + j
                    if o >= end:
                        break
                    madd(out, o, a, b)
        if p != 1:
            out = [p * v for v in out]
        return TruncatedSeries._make(self.ring, self.cap, out, self._den * other._den * q)

    __mul__ = _mul

    def scale(self, r) -> "TruncatedSeries":
        """Multiply every coefficient by a central rational."""
        r = rational(r)
        p, q = r.numerator, r.denominator
        if q == 1 and p == 1:
            return self
        if q == 1 and p == -1:
            return -self
        return TruncatedSeries._make(
            self.ring, self.cap, [p * v for v in self._num], self._den * q
        )

    def termwise(
        self, vector: Sequence[int], den: int, shift: int = 0
    ) -> "TruncatedSeries":
        """Numerator entry i times vector[i]/den, moved up `shift` powers.

        The vector holds one multiplier per numerator entry that stays below
        the cap, so entries of t^k share the operator's factor for t^k (see
        operators.entry_vector); den must be positive. This is the kernel of
        every coefficientwise operator: one multiply per entry, one gcd pass.
        """
        num = [m * v for m, v in zip(vector, self._num)]
        if shift:
            num[:0] = [0] * (min(shift, self.cap + 1) * self.ring.dim**2)
        return TruncatedSeries._make(self.ring, self.cap, num, self._den * den)

    # ------------------------------------------------------------ analytic maps

    def _require_positive_valuation(self, what: str) -> None:
        if any(self._num[: self.ring.dim**2]):
            raise DomainError(f"{what}: series with zero constant term required")

    def exp(self) -> "TruncatedSeries":
        """Sum of x^n/n! for n = 0..cap; needs valuation >= 1.

        Over a commutative ring y = exp(x) solves t*y' = (t*x')*y, so the
        relaxed loop settles y_n = ((t*x')*y)_n/n. Elsewhere y' = x'*y fails,
        and the power sum adds the terms x^n/n!, each the one before times x/n.
        """
        self._require_positive_valuation("exp")
        if self.ring.commutative:
            return _relaxed(self.termwise(range(self.cap + 1), 1), lambda n: (1, n))
        return _power_sum(self, TruncatedSeries.one(self.ring, self.cap) + self, lambda n: (1, n))

    def log1p(self) -> "TruncatedSeries":
        """log(1 + x) = sum of (-1)^(n-1) x^n / n, the weight-1 logarithm;
        needs valuation >= 1."""
        return self.lambda_log(1)

    def lambda_log(self, lam) -> "TruncatedSeries":
        """The weight-lambda logarithm sum of (-lam)^(n-1) x^n / n.

        At lam = 0 only the n = 1 term survives and the result is x itself.
        Over a commutative ring it is the integral L of x'*(1 + lam*x)^(-1):
        t*L' is t*x' times geom_inv's relaxed loop, and L_n = (t*L')_n/n.
        Elsewhere the power sum adds the terms, each the one before times
        -lam*x*(n-1)/n.
        """
        self._require_positive_valuation("lambda_log")
        lam = rational(lam)
        if lam == 0:
            return self
        p, q = lam.numerator, lam.denominator
        if self.ring.commutative:
            tdlog = self.termwise(range(self.cap + 1), 1)._mul(_relaxed(self, lambda n: (-p, q)))
            den = lcm(*range(1, self.cap + 1))  # coefficient n times (den/n)/den
            return tdlog.termwise([den // max(n, 1) for n in range(self.cap + 1)], den)
        return _power_sum(self, self, lambda n: (-p * (n - 1), q * n))

    def geom_inv(self, lam) -> "TruncatedSeries":
        """(1 + lam*x)^(-1) = sum of (-lam*x)^n; needs valuation >= 1.

        y = 1 - lam*x*y over every ring: the relaxed loop settles
        y_n = -lam*(x*y)_n.
        """
        self._require_positive_valuation("geom_inv")
        lam = rational(lam)
        p, q = lam.numerator, lam.denominator
        return _relaxed(self, lambda n: (-p, q))

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


def _relaxed(a: TruncatedSeries, ratio) -> TruncatedSeries:
    """y with y_0 = 1 and y_n = r_n*(a*y)_n for n = 1..cap, where ratio(n) is
    (p, q) for r_n = p/q, q > 0. With a of zero constant term, (a*y)_n reads
    y below n alone: y is settled one coefficient at a time (relaxed
    evaluation; Brent and Kung, JACM 1978)."""
    a = RelaxedSeries.of(a)
    y = RelaxedSeries.of(TruncatedSeries.one(a.ring, a.cap))
    for n in range(1, a.cap + 1):
        p, q = ratio(n)
        num, den = a.product_coefficient(y, n, 1, n)
        y.set(n, (num if p == 1 else [p * v for v in num], den * q))
    return y.series()


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
    one gcd per entry."""
    if den == 1:
        return [str(v) for v in num]
    out = []
    for v in num:
        g = gcd(v, den)
        out.append(str(v // g) if g == den else f"{v // g}/{den // g}")
    return out


# A Block is one coefficient: its d*d numerators (row-major) over a positive
# denominator.
Block = tuple[list, int]


def _reduce(num: list, den: int) -> Block:
    """The numerators `num` over the positive `den` in lowest terms: the one
    gcd pass of a new series or a settled coefficient."""
    g = gcd(den, *num)
    if g == 1:
        return num, den
    return [v // g for v in num], den // g


def combine(*terms: tuple) -> Block:
    """The sum of r*block over (r, block) pairs, r an int or a Fraction, over
    the least common denominator and not reduced: RelaxedSeries.set or
    reduced_sum, which settles it, makes the one gcd pass."""
    den = lcm(*(d * r.denominator for r, (_, d) in terms))
    out = [0] * len(terms[0][1][0])
    for r, (num, d) in terms:
        m = r.numerator * (den // (d * r.denominator))
        if m:
            for e, v in enumerate(num):
                out[e] += m * v
    return out, den


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
    denominator of its blocks."""
    dd = ring.dim**2
    den = lcm(*(b[1] for b in blocks if b))
    num = []
    for b in blocks:
        if b is None:
            num += [0] * dd
        else:
            k = den // b[1]
            num += b[0] if k == 1 else [k * v for v in b[0]]
    return TruncatedSeries._make(ring, cap, num, den)


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
    if d == 1:
        return [sum(den // e * a[0] * b[0] for (a, b), e in zip(pairs, dens))], den
    out = [0] * (d * d)
    madd = _block_madd(d)
    for (a, b), e in zip(pairs, dens):
        m = den // e
        madd(out, 0, a if m == 1 else [m * v for v in a], b)
    return out, den


def reduced_sum(*terms: tuple) -> Block | None:
    """combine(*terms) over the (r, block) pairs whose block is not None,
    reduced; None when the sum is zero. A lone term is scaled, not combined."""
    terms = [t for t in terms if t[1]]
    if len(terms) > 1:
        return reduced(*combine(*terms))
    if not terms:
        return None
    r, (num, den) = terms[0]
    if r == 1:
        return reduced(num, den)
    return reduced([r.numerator * v for v in num], den * r.denominator)


class RelaxedSeries:
    """A series modulo t^(cap+1) settled one coefficient at a time, in order.

    This is the state of relaxed evaluation: each coefficient is set once,
    from coefficients settled before it, and unsettled ones read as zero. The
    numerators are laid out as in TruncatedSeries over one positive
    denominator, which is raised to the least common one, rescaling the
    settled numerators, when a coefficient over a new denominator is set.
    """

    __slots__ = ("ring", "cap", "_num", "_den")

    def __init__(self, ring: RingDescriptor, cap: int):
        self.ring = ring
        self.cap = cap
        self._num = [0] * ((cap + 1) * ring.dim**2)
        self._den = 1

    @classmethod
    def of(cls, series: TruncatedSeries) -> "RelaxedSeries":
        """A known series, with every coefficient settled."""
        self = cls(series.ring, series.cap)
        self._num, self._den = list(series._num), series._den
        return self

    def product_coefficient(
        self, other: "RelaxedSeries", c: int, lo: int = 1, hi: int | None = None
    ) -> Block:
        """Sum of self[j]*other[c-j] for j = lo..hi (hi = c - 1 by default),
        not reduced.

        When both series have zero constant term and lo is self's valuation,
        this is coefficient c of self*other, read from coefficients below c
        alone.
        """
        d = self.ring.dim
        xs, ys = self._num, other._num
        top = c if hi is None else hi + 1
        if d == 1:
            out = [sum(xs[j] * ys[c - j] for j in range(lo, top))]
        else:
            dd = d * d
            out = [0] * dd
            madd = _block_madd(d)
            for j in range(lo, top):
                a = xs[j * dd : (j + 1) * dd]
                if any(a):
                    madd(out, 0, a, ys[(c - j) * dd : (c - j + 1) * dd])
        return out, self._den * other._den

    def set(self, c: int, block: Block) -> Block:
        """Settle coefficient c to `block`; return the block reduced."""
        num, den = _reduce(*block)
        if self._den % den:
            # A new denominator: raise the shared one to the least common one
            # and rescale every entry, since RelaxedSeries.of settles them all.
            k = lcm(self._den, den) // self._den
            self._num = [k * v for v in self._num]
            self._den *= k
        dd = len(num)
        k = self._den // den
        self._num[c * dd : (c + 1) * dd] = num if k == 1 else [k * v for v in num]
        return num, den

    def series(self) -> TruncatedSeries:
        return TruncatedSeries._make(self.ring, self.cap, list(self._num), self._den)


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
