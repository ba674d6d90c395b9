"""Reference results computed apart from rbseries, in plain fractions.Fraction.

Nothing here imports the package under test. A coefficient of a series is a
d x d matrix given as a list of row lists of Fraction, so a scalar series is
the d = 1 case, and a series is the list of its cap+1 coefficients.
"""

from __future__ import annotations

from fractions import Fraction

WEIGHT = {"qint": 1, "qscale": -1, "antider": 0}


def identity(d: int) -> list:
    return [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]


def zero(d: int) -> list:
    return [[Fraction(0)] * d for _ in range(d)]


def mat_add(a: list, b: list) -> list:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: list, s: Fraction) -> list:
    return [[x * s for x in row] for row in a]


def mat_mul(a: list, b: list) -> list:
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols] for row in a]


def series_mul(x: list, y: list) -> list:
    """Cauchy product truncated at the common cap."""
    d = len(x[0])
    out = []
    for n in range(len(x)):
        acc = zero(d)
        for k in range(n + 1):
            acc = mat_add(acc, mat_mul(x[k], y[n - k]))
        out.append(acc)
    return out


def operator_factor(kind: str, q: Fraction, n: int) -> Fraction:
    """The factor of a q-operator on t^n, from its definition."""
    qn = q**n
    return qn / (1 - qn) if kind == "qint" else 1 / (1 - qn)


def solve(kind: str, q, a1: list, a0: list | None, side: str) -> list:
    """The unique b with b = 1 + P(a1 b) (a0 is None) or b = P(u) + P(a1 b).

    u = (1 + w a1) a0 on the left side, a0 (1 + w a1) on the right, where the
    right side also multiplies b a1 in place of a1 b. P acts coefficientwise
    and a1 has no constant term, so b_n needs only b_0 .. b_(n-1): this is a
    single triangular pass, with no fixed-point iteration.
    """
    q = None if q is None else Fraction(q)
    d = len(a1[0])
    cap = len(a1) - 1
    w = WEIGHT[kind]
    if a0 is None:
        u = [zero(d)] * (cap + 1)
    else:
        shift = [mat_add(identity(d) if n == 0 else zero(d), mat_scale(a1[n], Fraction(w)))
                 for n in range(cap + 1)]
        u = series_mul(shift, a0) if side == "left" else series_mul(a0, shift)

    def inner(m: int, b: list) -> list:
        """Coefficient m of u + a1 b (or u + b a1), from b_0 .. b_(m-1)."""
        acc = u[m]
        for k in range(1, m + 1):
            prod = mat_mul(a1[k], b[m - k]) if side == "left" else mat_mul(b[m - k], a1[k])
            acc = mat_add(acc, prod)
        return acc

    b: list = []
    for n in range(cap + 1):
        if kind == "antider":
            coeff = zero(d) if n == 0 else mat_scale(inner(n - 1, b), Fraction(1, n))
        else:
            coeff = zero(d) if n == 0 else mat_scale(inner(n, b), operator_factor(kind, q, n))
        if a0 is None and n == 0:
            coeff = mat_add(coeff, identity(d))
        b.append(coeff)
    return b


def from_json(values: list) -> list:
    """A series read from rbseries' to_json form (or the CLI's JSON output)."""
    out = []
    for v in values:
        if isinstance(v, str):
            out.append([[Fraction(v)]])
        else:
            out.append([[Fraction(x) for x in row] for row in v])
    return out


def from_csv(text: str) -> list:
    """A scalar series read from the CLI's comma-separated text output."""
    return [[[Fraction(v)]] for v in text.strip().split(",")]


def eulerian_printed_t1(variant: str, q) -> tuple[Fraction, Fraction]:
    """lhs and rhs coefficients of t^1 of a printed Eulerian form, in q.

    prop-one: 1 + sum q^(2n-1) t^n / (q;q)_n against (1 - t) prod 1/(1 - q^n t),
    giving q/(1-q) against q/(1-q) - 1. qbinomial: the exponent n(n+1)/2 - 1
    against prod (1 + q^n t), giving 1/(1-q) against q/(1-q).
    """
    q = Fraction(q)
    if variant == "prop-one-printed":
        return q / (1 - q), (2 * q - 1) / (1 - q)
    if variant == "qbinomial-printed":
        return 1 / (1 - q), q / (1 - q)
    raise ValueError(f"no printed form named {variant!r}")
