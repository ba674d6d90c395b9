"""The three Rota-Baxter operators on truncated series, plus the tilde companion.

kinds and weights:
  qint    t^n -> q^n t^n / (1 - q^n)   weight  1
  qscale  t^n -> t^n / (1 - q^n)       weight -1
  antider t^n -> t^(n+1) / (n + 1)     weight  0

The two q kinds are only defined on series with zero constant term (the
n = 0 formula divides by 1 - q^0 = 0); q must avoid {0, 1, -1} so that
1 - q^n is invertible for every n >= 1. Over matrix rings all three act
coefficientwise. Each operator and its tilde companion Pt = -w*id - P is
diagonal: t^n goes to a factor times t^(n + shift), so applying one is a single
multiply of the numerators by a per-entry vector. `factors` and `entry_vector`
are pure functions of (operator, cap[, dim, companion]), memoised by
functools.lru_cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lcm

from .rings import Q, rational
from .series import DomainError, TruncatedSeries

QINT = "qint"
QSCALE = "qscale"
ANTIDER = "antider"

KINDS = (QINT, QSCALE, ANTIDER)

# Entries kept by each of the two caches below. The default suite asks for
# the most distinct keys of any run: 57 vectors and 26 factor tuples.
CACHE_SIZE = 128


@dataclass(frozen=True)
class OperatorSpec:
    """An operator kind and its q. The hash is computed once, as every apply
    looks the operator's cached vector up by it, and so is the weight, which a
    scalar solve reads three or four times."""

    kind: str
    q: object = None  # rational; None for antider

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown operator kind: {self.kind!r}")
        if self.kind == ANTIDER:
            if self.q is not None:
                raise ValueError("antider takes no q parameter")
        else:
            if self.q is None:
                raise ValueError(f"{self.kind} requires a q parameter")
            q = rational(self.q)
            if q in (Q(0), Q(1), Q(-1)):
                raise ValueError("q must avoid {0, 1, -1}")
            object.__setattr__(self, "q", q)
        object.__setattr__(self, "_hash", hash((self.kind, self.q)))
        object.__setattr__(self, "weight", Q({QINT: 1, QSCALE: -1}.get(self.kind, 0)))

    def __hash__(self) -> int:
        return self._hash


def _factor(op: OperatorSpec, n: int) -> Q:
    """The operator's factor for t^n."""
    if op.kind == ANTIDER:
        return Q(1, n + 1)
    if n == 0:
        return Q(0)
    qn = op.q**n
    return qn / (1 - qn) if op.kind == QINT else 1 / (1 - qn)


@lru_cache(maxsize=CACHE_SIZE)
def factors(op: OperatorSpec, cap: int) -> tuple:
    """The factors for t^0..t^cap. The tuple is cached, as every caller
    shares it."""
    return tuple(_factor(op, n) for n in range(cap + 1))


@lru_cache(maxsize=CACHE_SIZE)
def entry_vector(
    op: OperatorSpec, cap: int, dim: int, companion: bool
) -> tuple[tuple[int, ...], int]:
    """The multiplier of every numerator entry of a series at this cap over
    dim x dim matrices, as integers over a common denominator: the vector
    TruncatedSeries.termwise takes. Entry e of t^k gets factor k of P, or of
    its companion Pt = -w*id - P, for k = 0..cap - shift.

    Pt is diagonal with P's shift: its factor for t^n is -w - f_n, where f_n
    is P's. That is -1/(1 - q^n) for qint, -q^n/(1 - q^n) for qscale and
    -1/(n + 1) for antider. The weight is an integer, so -w - f_n has f_n's
    denominator, and over P's common denominator D its multiplier is
    -w*D - m_n. Every vector is cached; a matrix vector repeats the scalar
    one's multipliers, not copies of them. The vectors are tuples, as every
    caller shares them.
    """
    if dim > 1:
        scalar, den = entry_vector(op, cap, 1, companion)
        return tuple(m for m in scalar for _ in range(dim * dim)), den
    if companion:
        mults, den = entry_vector(op, cap, 1, False)
        w = int(op.weight)
        return tuple(-w * den - m for m in mults), den
    used = factors(op, cap - power_shift(op))
    den = lcm(*(f.denominator for f in used))
    return tuple(f.numerator * (den // f.denominator) for f in used), den


def require_domain(op: OperatorSpec, x: TruncatedSeries) -> None:
    """Raise DomainError unless the operator is defined on x."""
    if op.kind != ANTIDER and x.valuation() == 0:
        raise DomainError(f"{op.kind}: operator undefined on constant term")


def power_shift(op: OperatorSpec) -> int:
    """The power the operator adds to t^n: 1 for antider, 0 for the q kinds."""
    return 1 if op.kind == ANTIDER else 0


def _diagonal_apply(op: OperatorSpec, x: TruncatedSeries, companion: bool) -> TruncatedSeries:
    """P(x), or Pt(x) when companion: one multiply over the cached entry vector."""
    require_domain(op, x)
    vector, den = entry_vector(op, x.cap, x.ring.dim, companion)
    return x.termwise(vector, den, power_shift(op))


def apply(op: OperatorSpec, x: TruncatedSeries) -> TruncatedSeries:
    """Coefficientwise action of the operator; preserves the filtration."""
    return _diagonal_apply(op, x, False)


def tilde_apply(op: OperatorSpec, x: TruncatedSeries) -> TruncatedSeries:
    """The companion -w*x - P(x), Rota-Baxter of the same weight.

    Pt is the diagonal operator with factors -w - f_n and P's shift (see
    entry_vector), so it is applied in one pass, like P, on P's domain.
    """
    return _diagonal_apply(op, x, True)
