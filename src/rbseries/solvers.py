"""Solvers for the linear equations in a complete filtered Rota-Baxter algebra.

The fixed-point maps here (Picard's, and the chi recursions) raise the
t-valuation of differences: coefficient c of the image depends only on the
coefficients below c. Each fixed point is therefore lifted one coefficient at a
time (relaxed evaluation, van der Hoeven, "Relax, but don't be too lazy", JSC
2002) and then proved by one step at full cap that must return its input.
Picard and chi_zero run lift step c at truncation c; chi_lambda settles only
coefficient c of each series inside its BCH map. The closed forms implement
the exponential solutions: Spitzer for the homogeneous equation and the
generalized identities for the inhomogeneous ones, with the chi recursions
handling the non-commutative cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial
from typing import Callable, Optional

from .operators import OperatorSpec, apply, multipliers, require_domain, tilde_apply
from .rings import Q, RingDescriptor
from .series import RelaxedSeries, TruncatedSeries, combine

HOMOGENEOUS = "homogeneous"
INHOM_LEFT = "inhom-left"
INHOM_RIGHT = "inhom-right"

FORMS = (HOMOGENEOUS, INHOM_LEFT, INHOM_RIGHT)


class SolverUsageError(ValueError):
    """Solver invoked outside its stated setting (weight, commutativity, form)."""


class ConvergenceError(RuntimeError):
    """A lifted iterate is not fixed by its map at full cap.

    The maps raise the valuation of differences, so this signals a fault in the
    operator or the map, never a bad input.
    """


@dataclass(frozen=True)
class EquationSpec:
    """One of the three linear equations, with its operator and coefficients.

    homogeneous   b = 1 + P(a1*b)
    inhom-left    b = P((1 + w*a1)*a0) + P(a1*b)
    inhom-right   b = P(a0*(1 + w*a1)) + P(b*a1)

    where w is the operator weight. The right-handed equation is the
    opposite-algebra mirror of the left one; in a commutative ring the two
    coincide.
    """

    form: str
    op: OperatorSpec
    a1: TruncatedSeries
    a0: Optional[TruncatedSeries] = None

    def __post_init__(self) -> None:
        if self.form not in FORMS:
            raise ValueError(f"unknown equation form: {self.form!r}")
        if self.a1.valuation() < 1:
            raise ValueError("a1 must have valuation >= 1")
        if self.form == HOMOGENEOUS:
            if self.a0 is not None:
                raise ValueError("homogeneous equation takes no a0")
        else:
            if self.a0 is None:
                raise ValueError(f"{self.form} equation requires a0")
            if self.a0.valuation() < 1:
                raise ValueError("a0 must have valuation >= 1")


def _lift(
    step: Callable[[TruncatedSeries], TruncatedSeries], ring: RingDescriptor, cap: int
) -> TruncatedSeries:
    """The fixed point of `step` modulo t^(cap+1), one coefficient per step.

    `step` maps a series to one at the same truncation, and coefficient c of
    its image must depend only on the coefficients below c of its argument.
    Step c runs at truncation c on the iterate extended by one zero
    coefficient, so it settles coefficient c and repeats the settled ones.
    """
    x = TruncatedSeries.zero(ring, 0)
    for c in range(cap + 1):
        x = step(x.extend(c))
    return x


def _require_fixed(solver: str, x: TruncatedSeries, image: TruncatedSeries) -> TruncatedSeries:
    """x, once its image under one full-cap step is shown to be x itself."""
    if image != x:
        raise ConvergenceError(
            f"{solver}: the lifted iterate is not a fixed point; "
            f"the full-cap step changes t^{(image - x).valuation()}"
        )
    return x


def _constant(eq: EquationSpec) -> TruncatedSeries:
    """The term of the equation's right-hand side that does not depend on b."""
    one = TruncatedSeries.one(eq.a1.ring, eq.a1.cap)
    if eq.form == HOMOGENEOUS:
        return one
    unit_shift = one + eq.a1.scale(eq.op.weight)
    if eq.form == INHOM_LEFT:
        return apply(eq.op, unit_shift * eq.a0)
    return apply(eq.op, eq.a0 * unit_shift)


def _picard_step(eq: EquationSpec, const: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """const + P(a1*b), or const + P(b*a1) on the right, at b's truncation."""
    a1 = eq.a1.truncate(b.cap)
    return const.truncate(b.cap) + apply(eq.op, b * a1 if eq.form == INHOM_RIGHT else a1 * b)


def _rhs(eq: EquationSpec, b: TruncatedSeries) -> TruncatedSeries:
    """The right-hand side of the equation at b, at full cap."""
    return _picard_step(eq, _constant(eq), b)


def picard_solve(eq: EquationSpec) -> TruncatedSeries:
    """Unique fixed point of the equation at the truncation cap.

    P acts coefficientwise and val(a1) >= 1, so coefficient c of the right-hand
    side depends only on b below t^c: the lift computes the constant term once
    and settles one coefficient per step. Raises ConvergenceError if the
    result is not fixed by the full right-hand side.
    """
    const = _constant(eq)
    b = _lift(lambda b: _picard_step(eq, const, b), eq.a1.ring, eq.a1.cap)
    return _require_fixed("picard_solve", b, _rhs(eq, b))


def spitzer_closed(op: OperatorSpec, a: TruncatedSeries) -> TruncatedSeries:
    """exp(P(w^-1 log(1 + w*a))); for weight 0 this is exp(P(a)). Commutative rings only."""
    if not a.ring.commutative:
        raise SolverUsageError(
            "Spitzer's exponential over a non-commutative ring; use closed_solve"
        )
    return apply(op, a.lambda_log(op.weight)).exp()


def inhom_closed_commutative(eq: EquationSpec) -> TruncatedSeries:
    """Closed solution of the inhomogeneous-left equation over a commutative ring."""
    if not eq.a1.ring.commutative:
        raise SolverUsageError(
            "commutative closed form over a non-commutative ring; "
            "use inhom_closed_noncommutative or inhom_closed_weight0"
        )
    if eq.form != INHOM_LEFT:
        raise SolverUsageError("closed form applies to the inhomogeneous-left equation")
    return closed_solve(eq)


def bch(x: TruncatedSeries, y: TruncatedSeries) -> TruncatedSeries:
    """Baker-Campbell-Hausdorff remainder: log(exp(x)exp(y)) - x - y."""
    one = TruncatedSeries.one(x.ring, x.cap)
    return (x.exp() * y.exp() - one).log1p() - x - y


def _settle_powers(base: RelaxedSeries, terms: list, c: int, exp: bool) -> list:
    """Settle coefficient c of base^n, or of base^n/n! when exp, in terms[n - 2]
    for n = 2..c, each from coefficients below c of base and of the power
    before it; return those coefficients."""
    prev, out = base, []
    for n in range(2, c + 1):
        num, den = prev.product_coefficient(base, c, n - 1)
        prev = terms[n - 2]
        out.append(prev.set(c, (num, den * n if exp else den)))
    return out


def chi_lambda(op: OperatorSpec, a: TruncatedSeries) -> TruncatedSeries:
    """BCH-recursion: fixed point of x = a + w^-1 BCH(P(x), Pt(x)).

    Splits exp(-w*a) into exp(P(chi)) * exp(Pt(chi)); requires nonzero weight
    and val(a) >= 1. BCH has no term of degree below 2, so the map raises the
    valuation of differences and the fixed point is settled one coefficient
    per step by _relaxed_chi. Raises ConvergenceError if the result is not
    fixed by one full-cap step of the map.
    """
    w = op.weight
    if w == 0:
        raise SolverUsageError("chi_lambda requires nonzero weight; use chi_zero")
    require_domain(op, a)
    x = _relaxed_chi(op, a)
    return _require_fixed(
        "chi_lambda", x, a + bch(apply(op, x), tilde_apply(op, x)).scale(1 / w)
    )


def _relaxed_chi(op: OperatorSpec, a: TruncatedSeries) -> TruncatedSeries:
    """The fixed point of x = a + w^-1 BCH(X, Y), X = P(x), Y = Pt(x) = -w*x - X.

    With E = exp(X) - 1, F = exp(Y) - 1 and Z = (1 + E)(1 + F) - 1,
    BCH = log(1 + Z) - X - Y is the sum of the X^n/n! and Y^n/n! for n >= 2,
    the cross term E*F, and the (-1)^(n-1) Z^n/n for n >= 2. Step c settles
    coefficient c of every one of these series. Its nonlinear part reads only
    coefficients below c, and the linear X[c] and Y[c] cancel against -X - Y,
    so BCH[c] is known before x[c]; then x[c] = a[c] + BCH[c]/w, and P,
    diagonal for both nonzero weights, gives X[c] = m_c*x[c].
    """
    ring, cap = a.ring, a.cap
    w = op.weight
    mults, den = multipliers(op, cap)
    x, X, Y, E, F, Z = (RelaxedSeries(ring, cap) for _ in range(6))
    # X^n/n!, Y^n/n! and Z^n for n = 2..cap, at index n - 2
    x_terms, y_terms, z_terms = ([RelaxedSeries(ring, cap) for _ in range(cap - 1)]
                                 for _ in range(3))
    log_scales = [Q((-1) ** (n - 1), n) for n in range(2, cap + 1)]
    for c in range(1, cap + 1):
        x_pow = _settle_powers(X, x_terms, c, exp=True)
        y_pow = _settle_powers(Y, y_terms, c, exp=True)
        z_pow = _settle_powers(Z, z_terms, c, exp=False)
        cross = E.product_coefficient(F, c)
        bch_c = combine((1, cross), *((1, b) for b in x_pow + y_pow),
                        *zip(log_scales, z_pow))
        x_c = x.set(c, combine((1, a.block(c)), (1 / w, bch_c)))
        X_c = X.set(c, combine((Q(mults[c], den), x_c)))
        Y_c = Y.set(c, combine((-w, x_c), (-1, X_c)))
        E_c = E.set(c, combine((1, X_c), *((1, b) for b in x_pow)))
        F_c = F.set(c, combine((1, Y_c), *((1, b) for b in y_pow)))
        Z.set(c, combine((1, E_c), (1, F_c), (1, cross)))
    return x.series()


_BERNOULLI_CACHE = [Q(1)]


def bernoulli(k: int) -> Q:
    """Bernoulli number B_k in the x/(e^x - 1) convention (B_1 = -1/2)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    while len(_BERNOULLI_CACHE) <= k:
        m = len(_BERNOULLI_CACHE)
        acc = Q(0)
        for j in range(m):
            acc += comb(m + 1, j) * _BERNOULLI_CACHE[j]
        _BERNOULLI_CACHE.append(-acc / (m + 1))
    return _BERNOULLI_CACHE[k]


def chi_zero(op: OperatorSpec, a: TruncatedSeries) -> TruncatedSeries:
    """Magnus-type recursion for weight 0.

    Fixed point of x = (1 + sum_k (B_k/k!) ad_{P(x)}^k)(a); then exp(P(chi0(a)))
    solves the homogeneous equation b = 1 + P(a*b). With val(a) >= 1 every
    ad term has degree at least 2, so the fixed point is lifted one
    coefficient per step. Raises ConvergenceError if the result is not fixed
    at full cap.
    """
    if op.weight != 0:
        raise SolverUsageError("chi_zero requires weight 0")

    def step(x: TruncatedSeries) -> TruncatedSeries:
        p = apply(op, x)
        out = term = a.truncate(x.cap)
        for k in range(1, x.cap + 1):
            term = p * term - term * p
            if term.is_zero():
                break
            out = out + term.scale(bernoulli(k) / factorial(k))
        return out

    x = _lift(step, a.ring, a.cap)
    return _require_fixed("chi_zero", x, step(x))


def inhom_closed_noncommutative(eq: EquationSpec, side: str = "left") -> TruncatedSeries:
    """Closed non-commutative solutions for nonzero weight.

    side='left' solves the inhomogeneous-left equation; side='right' the
    right-handed mirror, and it must name the form of eq.
    """
    if eq.op.weight == 0:
        raise SolverUsageError("weight 0: use inhom_closed_weight0")
    if side not in ("left", "right"):
        raise ValueError(f"unknown side: {side!r}")
    if eq.form != (INHOM_LEFT if side == "left" else INHOM_RIGHT):
        raise SolverUsageError(f"side {side!r} does not match the {eq.form} equation")
    return closed_solve(eq)


def inhom_closed_weight0(eq: EquationSpec) -> TruncatedSeries:
    """Closed non-commutative solution of an equation of weight 0."""
    if eq.op.weight != 0:
        raise SolverUsageError("inhom_closed_weight0 requires weight 0")
    return closed_solve(eq)


def closed_solve(eq: EquationSpec) -> TruncatedSeries:
    """Closed-form solution of any of the three equations over any ring.

    An inhomogeneous equation is solved by exp(P(chi)) P(exp(-P(chi)) a0), or
    on the right by its mirror P(a0 exp(-P(chi))) exp(P(chi)). With
    u = w^-1 log(1 + w*a1), chi is u itself over a commutative ring, where
    both recursions reduce to the identity; otherwise it is chi(u) on the left
    and -chi(-u) on the right, with chi_lambda or
    chi_zero chosen by the weight. The reversed recursion splits exp(-w*a) with
    the exponential factors in the opposite order (BCH(-x,-y) = -BCH(y,x)).

    The homogeneous equation b = 1 + P(a1*b) is Spitzer's exponential over a
    commutative ring. Otherwise b = 1 + c, where c solves the
    inhomogeneous-left equation with a0 = (1 + w*a1)^-1 * a1.
    """
    if eq.form == HOMOGENEOUS:
        if eq.a1.ring.commutative:
            return spitzer_closed(eq.op, eq.a1)
        a0 = eq.a1.geom_inv(eq.op.weight) * eq.a1
        one = TruncatedSeries.one(eq.a1.ring, eq.a1.cap)
        return one + closed_solve(EquationSpec(INHOM_LEFT, eq.op, eq.a1, a0))
    left = eq.form == INHOM_LEFT
    chi = eq.a1.lambda_log(eq.op.weight)
    if not eq.a1.ring.commutative:
        recursion = chi_lambda if eq.op.weight != 0 else chi_zero
        chi = recursion(eq.op, chi) if left else -recursion(eq.op, -chi)
    p_chi = apply(eq.op, chi)
    e_plus = p_chi.exp()
    e_minus = (-p_chi).exp()
    if left:
        return e_plus * apply(eq.op, e_minus * eq.a0)
    return apply(eq.op, eq.a0 * e_minus) * e_plus
