"""The three Rota-Baxter operators on truncated series, plus the tilde companion.

kinds and weights:
  qint    t^n -> q^n t^n / (1 - q^n)   weight  1
  qscale  t^n -> t^n / (1 - q^n)       weight -1
  antider t^n -> t^(n+1) / (n + 1)     weight  0

The two q kinds are only defined on series with zero constant term (the
n = 0 formula divides by 1 - q^0 = 0); q must avoid {0, 1, -1} so that
1 - q^n is invertible for every n >= 1. Over matrix rings all three act
coefficientwise.
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


@dataclass(frozen=True)
class OperatorSpec:
    kind: str
    q: object = None  # rational; None for antider

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown operator kind: {self.kind!r}")
        if self.kind == ANTIDER:
            if self.q is not None:
                raise ValueError("antider takes no q parameter")
            return
        if self.q is None:
            raise ValueError(f"{self.kind} requires a q parameter")
        q = rational(self.q)
        if q in (Q(0), Q(1), Q(-1)):
            raise ValueError("q must avoid {0, 1, -1}")
        object.__setattr__(self, "q", q)

    @property
    def weight(self) -> Q:
        if self.kind == QINT:
            return Q(1)
        if self.kind == QSCALE:
            return Q(-1)
        return Q(0)


def _factor(op: OperatorSpec, n: int) -> Q:
    """The operator's factor for t^n."""
    if op.kind == ANTIDER:
        return Q(1, n + 1)
    if n == 0:
        return Q(0)
    qn = op.q**n
    return qn / (1 - qn) if op.kind == QINT else 1 / (1 - qn)


@lru_cache(maxsize=64)
def _table(op: OperatorSpec) -> tuple[list, dict]:
    """One operator's factors, grown by multipliers, and the integer form of
    each prefix of them asked for, by cap."""
    return [], {}


def multipliers(op: OperatorSpec, cap: int) -> tuple[tuple[int, ...], int]:
    """The factors for t^0..t^cap as integers over their least common denominator.

    Each operator keeps one table of factors, grown when a larger cap is asked
    for; a cap reads the prefix of it up to that cap.
    """
    factors, by_cap = _table(op)
    found = by_cap.get(cap)
    if found is None:
        factors.extend(_factor(op, n) for n in range(len(factors), cap + 1))
        prefix = factors[: cap + 1]
        den = lcm(*(f.denominator for f in prefix))
        found = by_cap[cap] = tuple(f.numerator * (den // f.denominator) for f in prefix), den
    return found


def require_domain(op: OperatorSpec, x: TruncatedSeries) -> None:
    """Raise DomainError unless the operator is defined on x."""
    if op.kind != ANTIDER and x.valuation() == 0:
        raise DomainError(f"{op.kind}: operator undefined on constant term")


def power_shift(op: OperatorSpec) -> int:
    """The power the operator adds to t^n: 1 for antider, 0 for the q kinds."""
    return 1 if op.kind == ANTIDER else 0


def apply(op: OperatorSpec, x: TruncatedSeries) -> TruncatedSeries:
    """Coefficientwise action of the operator; preserves the filtration."""
    require_domain(op, x)
    nums, den = multipliers(op, x.cap)
    return x.termwise(nums, den, shift=power_shift(op))


def tilde_apply(op: OperatorSpec, x: TruncatedSeries) -> TruncatedSeries:
    """The companion operator -weight*x - P(x), Rota-Baxter of the same weight."""
    return x.scale(-op.weight) - apply(op, x)
