"""Exact coefficient rings: arbitrary-precision rationals and square rational matrices.

A RingDescriptor selects the coefficient ring of a series by its dimension d,
Q itself at d = 1 and d x d matrices over Q above, and coerces values into its
entries. A RingElement is one coefficient at the API boundary, as a
series' `coefficient` and `coeffs` return it: it has a value, equality and a
text form, and no arithmetic, since every sum and product runs on the integer
numerators of a series (see series.py). One writer, write_coefficients,
writes the text of coefficients, a RingElement's and a series' alike. No
floating point anywhere: rational() rejects floats. Rationals are the
standard library's Fraction.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction as Q


class RingMismatchError(ValueError):
    """Values of different rings used together."""


def rational(value=0, den: int | None = None) -> Q:
    """Build an exact rational. Accepts ints, 'p/q' strings and rationals; a
    float or a bool raises TypeError, as a float is not the number written."""
    if isinstance(value, (float, bool)):
        raise TypeError(
            f"expected an int, a 'p/q' string or a rational, not {type(value).__name__} {value!r}")
    if den is not None:
        return Q(value, den)
    if isinstance(value, str):
        return Q(value.strip())
    return Q(value)


# An integer or p/q, the forms str() writes: read without building a Fraction.
_RATIONAL = re.compile(r"\s*([-+]?\d+)(?:/(\d+))?\s*\Z")


def rational_entry(value) -> tuple[int, int]:
    """rational(value) as a (numerator, positive denominator) pair, not
    reduced. An int, a Fraction, or an integer or 'p/q' string builds no
    Fraction; other values go through rational() and raise as it does."""
    if type(value) is int:
        return value, 1
    if isinstance(value, Q):
        return value.numerator, value.denominator
    if isinstance(value, str):
        found = _RATIONAL.match(value)
        if found and found[2] is None:
            return int(found[1]), 1
        if found and int(found[2]):
            return int(found[1]), int(found[2])
    value = rational(value)
    return value.numerator, value.denominator


@dataclass(frozen=True)
class RingDescriptor:
    """Selects the coefficient ring: Q itself at dim 1, else dim x dim
    matrices over Q. Q is commutative; no matrix ring of dim 2 or more is."""

    dim: int = 1

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("ring dimension must be positive")

    @property
    def commutative(self) -> bool:
        return self.dim == 1

    def shape(self, values: list):
        """The d*d row-major entries `values` as one coefficient: the entry
        itself at dim 1, else a tuple of row tuples."""
        d = self.dim
        if d == 1:
            return values[0]
        return tuple(tuple(values[r * d : (r + 1) * d]) for r in range(d))

    def element(self, value) -> "RingElement":
        """Coerce a RingElement of this ring, or what `entries` coerces."""
        if isinstance(value, RingElement) and value.ring == self:
            return value
        return RingElement(self, self.shape([Q(p, q) for p, q in self.entries(value)]))

    def entries(self, value) -> list:
        """The d*d entries of `value` in this ring, row-major, each a pair
        from rational_entry. Coerces ints, rationals, strings, nested row
        lists and RingElements of this ring; a single number in a matrix ring
        is that multiple of the identity. A matrix and each of its rows must
        be a list or a tuple: a string row is not read as its characters."""
        if isinstance(value, RingElement):
            if value.ring != self:
                raise RingMismatchError("element belongs to a different ring")
            value = value.value
        d = self.dim
        if d == 1:
            return [rational_entry(value)]
        if isinstance(value, (int, str, float, Q)):
            diagonal = rational_entry(value)
            return [diagonal if i % (d + 1) == 0 else (0, 1) for i in range(d * d)]
        if not isinstance(value, (list, tuple)) or len(value) != d:
            raise ValueError(f"expected a {d}x{d} matrix as a list of rows")
        out = []
        for row in value:
            if not isinstance(row, (list, tuple)) or len(row) != d:
                raise ValueError(f"expected a {d}x{d} matrix, each row a list of {d}")
            out += [rational_entry(v) for v in row]
        return out


def matrix_ring(dim: int) -> RingDescriptor:
    """The ring of dim x dim rational matrices; matrix_ring(1) is Q itself."""
    return RingDescriptor(dim)


@dataclass(frozen=True)
class RingElement:
    """One coefficient of a fixed ring, as the API and the text form see it."""

    ring: RingDescriptor
    value: object  # Q for scalar rings, tuple of row tuples of Q for matrices

    def __str__(self) -> str:
        rows = self.value if self.ring.dim > 1 else [[self.value]]
        return write_coefficients([str(v) for row in rows for v in row], self.ring.dim)


def write_coefficients(entries: list, dim: int) -> str:
    """The text of consecutive coefficients from the texts of their entries,
    dim*dim per coefficient, row-major: over Q each entry, over matrices each
    coefficient as [[a,b],[c,d]], joined by commas."""
    if dim == 1:
        return ",".join(entries)
    rows = ["[" + ",".join(entries[i : i + dim]) + "]" for i in range(0, len(entries), dim)]
    return ",".join("[" + ",".join(rows[i : i + dim]) + "]" for i in range(0, len(rows), dim))


@lru_cache(maxsize=16)
def _pairs(bound: int) -> tuple:
    """Every (p, q) with -bound <= p <= bound and 1 <= q <= bound."""
    return tuple((p, q) for p in range(-bound, bound + 1) for q in range(1, bound + 1))


def random_entries(rng: random.Random, count: int, bound: int) -> list:
    """`count` (p, q) pairs drawn by one rng.choices: p uniform on
    -bound..bound and, independently, q uniform on 1..bound."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    return rng.choices(_pairs(bound), k=count)


def random_element(ring: RingDescriptor, rng: random.Random, bound: int = 10) -> RingElement:
    """Deterministic (given rng state) random element: each entry, row by row,
    is p/q drawn by random_entries."""
    drawn = random_entries(rng, ring.dim**2, bound)
    return RingElement(ring, ring.shape([Q(p, q) for p, q in drawn]))
