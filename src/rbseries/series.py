"""Truncated formal power series in t over an exact coefficient ring.

A series holds coefficients c_0..c_N modulo t^(N+1). Equality is exact,
coefficient by coefficient. The t-adic valuation realizes the filtration:
val(x) is the least k with c_k != 0, or N+1 for the zero series.

Storage follows FLINT's fmpq_poly: one flat list of Python ints, the
numerators, over one shared positive denominator. Entry e of the d x d
coefficient of t^k sits at index k*d*d + e (row-major), so a scalar series is
the d = 1 case. The pair (numerators, denominator) is kept reduced, gcd 1
and the zero series over 1, so equal series have equal representations and
equality is a plain compare. Arithmetic runs on the integers alone;
RingElement values are built only at the API and text boundary. RelaxedSeries
keeps the same layout for a series settled one coefficient at a time.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Sequence

from .rings import (
    Q,
    SCALAR,
    RingDescriptor,
    RingElement,
    RingMismatchError,
    rational,
)


class DomainError(ValueError):
    """Input outside an operation's domain (e.g. exp of a unit series)."""


@lru_cache(maxsize=16)
def _products(d: int) -> tuple:
    """(out, left, right) entry offsets of a d x d matrix product."""
    return tuple(
        (r * d + c, r * d + k, k * d + c)
        for r in range(d)
        for c in range(d)
        for k in range(d)
    )


class TruncatedSeries:
    """Immutable series over `ring`, truncated modulo t^(cap+1)."""

    __slots__ = ("ring", "cap", "_num", "_den")

    def __init__(self, ring: RingDescriptor, cap: int, coeffs: Sequence[RingElement]):
        """Build from cap+1 RingElements, coefficient of t^k at index k."""
        if cap < 0:
            raise ValueError("cap must be >= 0")
        if len(coeffs) != cap + 1:
            raise ValueError("expected cap+1 coefficients")
        values = []
        for c in coeffs:
            if c.ring != ring:
                raise RingMismatchError("coefficient belongs to a different ring")
            if ring.kind == SCALAR:
                values.append(c.value)
            else:
                for row in c.value:
                    values.extend(row)
        den = lcm(*(v.denominator for v in values))
        num = [v.numerator * (den // v.denominator) for v in values]
        self._init(ring, cap, num, den)

    def _init(self, ring: RingDescriptor, cap: int, num: list, den: int) -> None:
        g = gcd(den, *num)
        if g != 1:
            num = [v // g for v in num]
            den //= g
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
        """Coefficients c_0 upward; missing ones are zero, excess is truncated."""
        vals = [ring.element(v) for v in values][: cap + 1]
        vals += [ring.zero()] * (cap + 1 - len(vals))
        return cls(ring, cap, vals)

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

    def truncate(self, cap: int) -> "TruncatedSeries":
        """Discard coefficients above a smaller cap."""
        if cap > self.cap:
            raise ValueError("cannot extend a truncated series")
        if cap < 0:
            raise ValueError("cap must be >= 0")
        if cap == self.cap:
            return self
        num = self._num[: (cap + 1) * self.ring.dim**2]
        return TruncatedSeries._make(self.ring, cap, num, self._den)

    def coefficient(self, k: int) -> RingElement:
        """The coefficient of t^k as a RingElement."""
        if not 0 <= k <= self.cap:
            raise IndexError("coefficient index out of range")
        d = self.ring.dim
        den = self._den
        block = self._num[k * d * d : (k + 1) * d * d]
        if self.ring.kind == SCALAR:
            return RingElement(self.ring, Q(block[0], den))
        rows = tuple(
            tuple(Q(v, den) for v in block[r * d : (r + 1) * d]) for r in range(d)
        )
        return RingElement(self.ring, rows)

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

    def _mul(self, other: "TruncatedSeries", q: int = 1) -> "TruncatedSeries":
        """Cauchy product truncated at cap, divided by the positive integer q:
        integer multiply-adds on the numerators, then one gcd pass over the
        product of denominators. `x * y` is the case q = 1; exp passes its
        term's 1/n, so the product and the scaling share the one pass."""
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
            out = [0] * (n * dd)
            prods = _products(d)
            starts = range(0, n * dd, dd)
            right = [(j, ys[j : j + dd]) for j in starts if any(ys[j : j + dd])]
            for i in starts:
                a = xs[i : i + dd]
                if not any(a):
                    continue
                for j, b in right:
                    base = i + j
                    if base >= n * dd:
                        break
                    for o, l, r in prods:
                        out[base + o] += a[l] * b[r]
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

    def pow(self, n: int) -> "TruncatedSeries":
        if n < 0:
            raise ValueError("negative powers are not defined")
        result = TruncatedSeries.one(self.ring, self.cap)
        for _ in range(n):
            result = result * self
        return result

    # ------------------------------------------------------------ analytic maps

    def _require_positive_valuation(self, what: str) -> None:
        if any(self._num[: self.ring.dim**2]):
            raise DomainError(f"{what}: series with zero constant term required")

    def exp(self) -> "TruncatedSeries":
        """Sum of x^n/n! for n = 0..cap; needs valuation >= 1."""
        self._require_positive_valuation("exp")
        result = TruncatedSeries.one(self.ring, self.cap)
        term = result
        for n in range(1, self.cap + 1):
            term = term._mul(self, n)
            if term.is_zero():
                break
            result = result + term
        return result

    def log1p(self) -> "TruncatedSeries":
        """log(1 + x) = sum of (-1)^(n-1) x^n / n, the weight-1 logarithm;
        needs valuation >= 1."""
        return self.lambda_log(1)

    def lambda_log(self, lam) -> "TruncatedSeries":
        """The weight-lambda logarithm sum of (-lam)^(n-1) x^n / n.

        At lam = 0 only the n = 1 term survives and the result is x itself.
        """
        self._require_positive_valuation("lambda_log")
        lam = rational(lam)
        if lam == 0:
            return self
        result = TruncatedSeries.zero(self.ring, self.cap)
        power = TruncatedSeries.one(self.ring, self.cap)
        sign = Q(1)
        for n in range(1, self.cap + 1):
            power = power * self
            if power.is_zero():
                break
            result = result + power.scale(sign / n)
            sign = sign * (-lam)
        return result

    def geom_inv(self, lam) -> "TruncatedSeries":
        """(1 + lam*x)^(-1) = sum of (-lam*x)^n; needs valuation >= 1."""
        self._require_positive_valuation("geom_inv")
        ratio = self.scale(-rational(lam))
        result = TruncatedSeries.one(self.ring, self.cap)
        power = result
        for _ in range(self.cap):
            power = power * ratio
            if power.is_zero():
                break
            result = result + power
        return result

    # ------------------------------------------------------------------- text

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coeffs)

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.ring!r}, {self.cap}, '{self}')"

    def to_json(self) -> list:
        """Array of rational strings, or of row-major matrices of strings."""
        if self.ring.kind == SCALAR:
            return [str(c.value) for c in self.coeffs]
        return [[[str(a) for a in row] for row in c.value] for c in self.coeffs]


# A Block is one coefficient: its d*d numerators (row-major) over a positive
# denominator.
Block = tuple[list, int]


def combine(*terms: tuple) -> Block:
    """The sum of r*block over (r, block) pairs, r an int or a Fraction, reduced."""
    den = lcm(*(d * r.denominator for r, (_, d) in terms))
    out = [0] * len(terms[0][1][0])
    for r, (num, d) in terms:
        m = r.numerator * (den // (d * r.denominator))
        if m:
            for e, v in enumerate(num):
                out[e] += m * v
    g = gcd(den, *out)
    return [v // g for v in out], den // g


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

    # Coefficient c as a Block, over the current denominator.
    block = TruncatedSeries.block

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
            prods = _products(d)
            for j in range(lo, top):
                a = xs[j * dd : (j + 1) * dd]
                if not any(a):
                    continue
                b = ys[(c - j) * dd : (c - j + 1) * dd]
                for o, l, r in prods:
                    out[o] += a[l] * b[r]
        return out, self._den * other._den

    def set(self, c: int, block: Block) -> Block:
        """Settle coefficient c to `block`; return the block reduced."""
        num, den = block
        g = gcd(den, *num)
        den //= g
        old = self._den
        new = lcm(old, den)
        if new != old:
            k = new // old
            self._num = [k * v for v in self._num]
            self._den = new
        dd = len(num)
        k = new // den
        num = [v // g for v in num]
        self._num[c * dd : (c + 1) * dd] = [k * v for v in num]
        return num, den

    def series(self) -> TruncatedSeries:
        return TruncatedSeries._make(self.ring, self.cap, list(self._num), self._den)


def parse_series(text: str, ring: RingDescriptor, cap: int) -> TruncatedSeries:
    """Parse the CLI text form: comma-separated coefficients from c_0 upward."""
    text = text.strip()
    values = [] if not text else [v.strip() for v in text.split(",")]
    return TruncatedSeries.from_coeffs(ring, cap, values)
