"""Exact coefficient rings: arbitrary-precision rationals and square rational matrices.

A RingDescriptor selects the coefficient ring of a series and coerces values
into its entries. A RingElement is one coefficient at the API boundary, as a
series' `coefficient` and `coeffs` return it: it has a value, equality and a
text form, and no arithmetic, since every sum and product, and the text form
of a series, run on the integer numerators of a series (see series.py). No
floating point anywhere: rational() rejects floats. Rationals are the standard
library's Fraction.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction as Q

SCALAR = "scalar-rational"
MATRIX = "matrix-rational"


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
    """Selects the coefficient ring: Q itself or d x d matrices over Q."""

    kind: str = SCALAR
    dim: int = 1

    def __post_init__(self) -> None:
        if self.kind not in (SCALAR, MATRIX):
            raise ValueError(f"unknown ring kind: {self.kind!r}")
        if self.dim < 1:
            raise ValueError("ring dimension must be positive")
        if self.kind == SCALAR and self.dim != 1:
            raise ValueError("scalar ring has dimension 1")

    @property
    def commutative(self) -> bool:
        return self.kind == SCALAR or self.dim == 1

    def zero(self) -> "RingElement":
        return self.element(0)

    def one(self) -> "RingElement":
        return self.element(1)

    def element(self, value) -> "RingElement":
        """Coerce a RingElement of this ring, or what `entries` coerces."""
        if isinstance(value, RingElement) and value.ring == self:
            return value
        values = [Q(p, q) for p, q in self.entries(value)]
        if self.kind == SCALAR:
            return RingElement(self, values[0])
        d = self.dim
        return RingElement(self, tuple(tuple(values[r * d : (r + 1) * d]) for r in range(d)))

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
        if self.kind == SCALAR:
            return [rational_entry(value)]
        d = self.dim
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


def scalar_ring() -> RingDescriptor:
    return RingDescriptor(SCALAR, 1)


def matrix_ring(dim: int) -> RingDescriptor:
    return RingDescriptor(MATRIX, dim)


def ring_of(dim: int) -> RingDescriptor:
    return scalar_ring() if dim == 1 else matrix_ring(dim)


@dataclass(frozen=True)
class RingElement:
    """One coefficient of a fixed ring, as the API and the text form see it."""

    ring: RingDescriptor
    value: object  # Q for scalar rings, tuple of row tuples of Q for matrices

    def __str__(self) -> str:
        if self.ring.kind == SCALAR:
            return str(self.value)
        return "[" + ",".join("[" + ",".join(map(str, row)) + "]" for row in self.value) + "]"


def random_element(ring: RingDescriptor, rng: random.Random, bound: int = 10) -> RingElement:
    """Deterministic (given rng state) random element: each entry, row by row,
    is p/q with p drawn from -bound..bound, then q from 1..bound."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    d = ring.dim
    entries = [Q(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(d * d)]
    if ring.kind == SCALAR:
        return RingElement(ring, entries[0])
    return RingElement(ring, tuple(tuple(entries[r * d : (r + 1) * d]) for r in range(d)))
