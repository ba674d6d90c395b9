"""Solvers for the linear equations in a complete filtered Rota-Baxter algebra.

The fixed-point maps here (Picard's, and the chi recursions) raise the
t-valuation of differences: coefficient c of the image depends only on the
coefficients below c. Each fixed point is therefore settled one coefficient
at a time (relaxed evaluation, van der Hoeven, "Relax, but don't be too
lazy", JSC 2002): step c computes only coefficient c of every series the map
builds, from the coefficients below c. Picard's map is linear: it is one
series.settle of b = const + P(a1 b) (P(b a1) on the right), with R = P,
the operator, diagonal with its shift, as for every linear settle of the
kernel. The split behind chi_lambda and the chi_zero settle build towers of
series (powers and commutators), which settle on block lists, one reduced
block per coefficient (series.to_blocks): that made them 1.2-1.5x faster
over 2x2 and 3x3 matrices, where a shared denominator rescaled a whole tower
series on nearly every settled coefficient.

What each solver proves at full cap, through the module-level `apply`, before
it returns, or else raises ConvergenceError:
- picard_solve: its result solves the equation (_require_solution, the
  equation's residual; the fixed point is unique at the cap);
- chi_lambda: exp(P x) exp(Pt x) = exp(-w a), both exponentials computed
  afresh from x. chi_lambda is settled in that product form: x = a + w^-1
  BCH(P x, Pt x) holds exactly when it does, since Pt x = -w x - P x and log
  is a bijection;
- chi_zero: one step of its map returns x unchanged;
- closed_solve over a matrix ring: its answer solves the equation as given,
  by the same residual as Picard's, and nothing of the settles it is built
  from. Over Q closed_solve proves nothing: it settles no fixed point there.

The closed forms implement the exponential solutions, written once in the
builder _closed_left: exp(P(chi)) solves the homogeneous equation (Spitzer's
identity over Q), and exp(P(chi)) P(exp(-P(chi)) a0) the inhomogeneous-left
one. Only chi depends on the setting, by one of three routes: the lambda-log
w^-1 log(1 + w a1) over Q, chi_zero(a1) at weight 0, and at nonzero weight
over matrices chi_lambda, whose settled split of (1 + w a1)^-1 gives both
exponentials. closed_solve, spitzer_closed and the inhom_closed_* wrappers
all reach that builder.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial
from typing import Optional

from .operators import OperatorSpec, apply, factors, power_shift, require_domain
from .rings import Q
from .series import (
    Block,
    TruncatedSeries,
    block_product,
    from_blocks,
    reduced,
    reduced_sum,
    settle,
    to_blocks,
)

HOMOGENEOUS = "homogeneous"
INHOM_LEFT = "inhom-left"
INHOM_RIGHT = "inhom-right"

FORMS = (HOMOGENEOUS, INHOM_LEFT, INHOM_RIGHT)


class SolverUsageError(ValueError):
    """Solver invoked outside its stated setting (weight, commutativity, form)."""


class EquationError(ValueError):
    """A coefficient missing from, extra to or out of range in an equation;
    the message begins with its name, a1 or a0."""


class ConvergenceError(RuntimeError):
    """A settled result fails its full-cap check.

    The maps raise the valuation of differences, so this signals a fault in the
    operator or the map, never a bad input.
    """


@dataclass(frozen=True)
class EquationSpec:
    """One of the three linear equations, with its operator and coefficients.

    homogeneous   b = 1 + P(a1*b)
    inhom-left    b = P((1 + w*a1)*a0) + P(a1*b)
    inhom-right   b = P(a0*(1 + w*a1)) + P(b*a1)

    where w is the operator weight. The right-handed equation is the left one
    in the opposite algebra: over d x d matrices, transposing every
    coefficient reverses products and commutes with P, which acts on each
    coefficient, so b solves the right-handed equation in a1, a0 exactly when
    its transpose solves the left one in their transposes. In a commutative
    ring the two coincide.
    """

    form: str
    op: OperatorSpec
    a1: TruncatedSeries
    a0: Optional[TruncatedSeries] = None

    def __post_init__(self) -> None:
        if self.form not in FORMS:
            raise ValueError(f"unknown equation form: {self.form!r}")
        if self.a1.valuation() < 1:
            raise EquationError("a1: must have valuation >= 1")
        if self.form == HOMOGENEOUS:
            if self.a0 is not None:
                raise EquationError("a0: the homogeneous equation takes no a0")
        else:
            if self.a0 is None:
                raise EquationError(f"a0: the {self.form} equation requires a0")
            if self.a0.valuation() < 1:
                raise EquationError("a0: must have valuation >= 1")


def _require_equal(solver: str, got: TruncatedSeries, want: TruncatedSeries) -> None:
    """Pass if the full-cap check of a settled result gives `want`."""
    if got != want:
        raise ConvergenceError(
            f"{solver}: the settled result fails its full-cap check "
            f"at t^{(got - want).valuation()}"
        )


def _require_solution(
    solver: str, eq: EquationSpec, b: TruncatedSeries, const: TruncatedSeries
) -> None:
    """Pass if b solves eq at full cap: const + P(a1 b), or const + P(b a1) on
    the right, is b, with const the equation's constant term. The equation's
    fixed point is unique at the cap, so this proves b, whatever built it."""
    right = eq.form == INHOM_RIGHT
    _require_equal(solver, const + apply(eq.op, b * eq.a1 if right else eq.a1 * b), b)


def _shifted_a0(eq: EquationSpec) -> Optional[TruncatedSeries]:
    """(1 + w*a1)*a0 of an inhomogeneous equation, or a0*(1 + w*a1) on the
    right, as a0 + w*(a1*a0): one product of two series of valuation >= 1,
    and none at weight 0, where it is a0. None for the homogeneous one."""
    if eq.form == HOMOGENEOUS:
        return None
    if eq.op.weight == 0:
        return eq.a0
    product = eq.a1 * eq.a0 if eq.form == INHOM_LEFT else eq.a0 * eq.a1
    return eq.a0 + product.scale(eq.op.weight)


def _constant(eq: EquationSpec, shifted: Optional[TruncatedSeries]) -> TruncatedSeries:
    """The term of the equation's right-hand side that does not depend on b,
    given the equation's _shifted_a0."""
    if shifted is None:
        return TruncatedSeries.one(eq.a1.ring, eq.a1.cap)
    return apply(eq.op, shifted)


def picard_solve(eq: EquationSpec) -> TruncatedSeries:
    """Unique fixed point of the equation at the truncation cap.

    P acts coefficientwise and val(a1) >= 1, so coefficient c of the right-hand
    side depends only on b below t^c. series.settle settles
    b[c] = const[c] + m*(a1 b)[c - shift], with m the factor P puts on that
    power, or (b a1) on the right. Raises ConvergenceError unless the result
    solves the equation at full cap (_require_solution).
    """
    const = _constant(eq, _shifted_a0(eq))
    factor = factors(eq.op, const.cap)
    b = settle(const, eq.a1, lambda k: (factor[k].numerator, factor[k].denominator),
               power_shift(eq.op), eq.form == INHOM_RIGHT)
    _require_solution("picard_solve", eq, b, const)
    return b


def spitzer_closed(op: OperatorSpec, a: TruncatedSeries) -> TruncatedSeries:
    """exp(P(w^-1 log(1 + w*a))) by _closed_left; for weight 0 this is exp(P(a)).
    Commutative rings only."""
    if not a.ring.commutative:
        raise SolverUsageError(
            "Spitzer's exponential over a non-commutative ring; use closed_solve"
        )
    return _closed_left(op, a, None)


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


def _settle_powers(base: list, terms: list, c: int, d: int) -> Block | None:
    """Settle coefficient c of base^n/n! in terms[n - 2] for n = 2..c, each
    from coefficients below c of base and of the power before it, all block
    lists; return the sum of those coefficients, reduced (None when zero)."""
    prev, out = base, []
    for n in range(2, c + 1):
        prod = block_product(prev, base, c, d, n - 1)
        prev = terms[n - 2]
        if prod:
            prev[c] = reduced(prod[0], prod[1] * n)
            out.append((1, prev[c]))
    return reduced_sum(*out)


def _settle_split(
    op: OperatorSpec, g: TruncatedSeries
) -> tuple[TruncatedSeries, TruncatedSeries, TruncatedSeries]:
    """(x, E, F) with E F = g, where E = exp(X) and F = exp(Y) for X = P(x) and
    Y = Pt(x) = -w*x - X; g must have constant term 1. Nothing is proved
    here. The split in the opposite order is this one of the transpose of g,
    transposed.

    Coefficient c of E F is X[c] + Y[c] = -w*x[c], plus the X^n/n! and Y^n/n!
    for n >= 2 and the cross term sum E[j] F[c-j] for 0 < j < c, all read
    from coefficients below c. So step c settles x[c] = w^-1 (sum of those -
    g[c]), and P, diagonal for both nonzero weights, gives X[c] = m_c*x[c].
    Every series here is a block list (series.to_blocks).
    """
    ring, cap, d = g.ring, g.cap, g.ring.dim
    w = op.weight
    inv_w = 1 / w
    factor = factors(op, cap)
    x, X, Y = ([None] * (cap + 1) for _ in range(3))
    one = TruncatedSeries.one(ring, cap).block(0)
    E, F = [one] + [None] * cap, [one] + [None] * cap
    # X^n/n! and Y^n/n! for n = 2..cap, at index n - 2
    x_terms, y_terms = ([[None] * (cap + 1) for _ in range(cap - 1)] for _ in range(2))
    for c in range(1, cap + 1):
        x_pow = _settle_powers(X, x_terms, c, d)
        y_pow = _settle_powers(Y, y_terms, c, d)
        cross = block_product(E, F, c, d)
        x[c] = x_c = reduced_sum((inv_w, cross), (inv_w, x_pow), (inv_w, y_pow),
                                 (-inv_w, g.block(c)))
        X[c] = X_c = reduced_sum((factor[c], x_c))
        Y[c] = Y_c = reduced_sum((-w - factor[c], x_c))
        E[c] = reduced_sum((1, X_c), (1, x_pow))
        F[c] = reduced_sum((1, Y_c), (1, y_pow))
    return tuple(from_blocks(ring, cap, s) for s in (x, E, F))


def chi_lambda(op: OperatorSpec, a: TruncatedSeries) -> TruncatedSeries:
    """BCH-recursion: fixed point of x = a + w^-1 BCH(P(x), Pt(x)).

    Splits g = exp(-w*a) into exp(P(chi)) * exp(Pt(chi)), which is the same
    equation; requires nonzero weight and val(a) >= 1. The split is settled
    one coefficient per step by _settle_split, and then proved at full cap:
    exp(P x) and exp(Pt x) are computed afresh from x alone, and their
    product must be g, or ConvergenceError is raised.
    """
    w = op.weight
    if w == 0:
        raise SolverUsageError("chi_lambda requires nonzero weight; use chi_zero")
    require_domain(op, a)
    g = a.scale(-w).exp()
    x = _settle_split(op, g)[0]
    p = apply(op, x)
    _require_equal("chi_lambda", p.exp() * (x.scale(-w) - p).exp(), g)
    return x


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


def _chi_zero_map(op: OperatorSpec, a: TruncatedSeries, x: TruncatedSeries) -> TruncatedSeries:
    """(1 + sum_k (B_k/k!) ad_{P(x)}^k)(a) at full cap."""
    p = apply(op, x)
    out = term = a
    for k in range(1, x.cap + 1):
        term = p * term - term * p
        if term.is_zero():
            break
        out = out + term.scale(bernoulli(k) / factorial(k))
    return out


def _settle_chi_zero(op: OperatorSpec, a: TruncatedSeries) -> TruncatedSeries:
    """The fixed point x = (1 + sum_k (B_k/k!) ad_{P(x)}^k)(a) of weight 0,
    settled and not proved. P = P(x) raises the power by one, so coefficient
    c of ad_P^k(a) = P ad_P^(k-1)(a) - ad_P^(k-1)(a) P reads P[1..c] =
    P(x)[1..c], known from x below c, and ad_P^(k-1)(a) below c; it is zero
    for k > c and while ad_P^(k-1)(a) is zero below c. Step c settles P[c],
    then coefficient c of each ad_P^k(a) that can be nonzero, then x[c].
    Every series here is a block list (series.to_blocks).
    """
    ring, cap, d = a.ring, a.cap, a.ring.dim
    shift, factor = power_shift(op), factors(op, cap)
    scales = [bernoulli(k) / factorial(k) for k in range(cap + 1)]
    x, p = [None] * (cap + 1), [None] * (cap + 1)
    # ad_P^k(a) at index k; those from index `live` on are zero so far
    ads = [to_blocks(a)] + [[None] * (cap + 1) for _ in range(cap)]
    live = 1
    for c in range(cap + 1):
        if c >= shift:
            p[c] = reduced_sum((factor[c - shift], x[c - shift]))
        terms = [(1, ads[0][c])]
        for k in range(1, min(live, c) + 1):
            prev = ads[k - 1]
            ad_c = ads[k][c] = reduced_sum((1, block_product(p, prev, c, d, 1, c)),
                                           (-1, block_product(prev, p, c, d, 0)))
            if ad_c:
                live = max(live, k + 1)
                terms.append((scales[k], ad_c))
        x[c] = reduced_sum(*terms)
    return from_blocks(ring, cap, x)


def chi_zero(op: OperatorSpec, a: TruncatedSeries) -> TruncatedSeries:
    """Magnus-type recursion for weight 0: the fixed point of
    x = (1 + sum_k (B_k/k!) ad_{P(x)}^k)(a), settled by _settle_chi_zero; then
    exp(P(chi0(a))) solves the homogeneous equation b = 1 + P(a*b). Raises
    ConvergenceError if the result is not fixed at full cap.
    """
    if op.weight != 0:
        raise SolverUsageError("chi_zero requires weight 0")
    x = _settle_chi_zero(op, a)
    _require_equal("chi_zero", _chi_zero_map(op, a, x), x)
    return x


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


def _closed_left(
    op: OperatorSpec, a1: TruncatedSeries, a0: Optional[TruncatedSeries]
) -> TruncatedSeries:
    """The paper's left-handed closed solution, not proved: E = exp(P chi)
    for the homogeneous equation (a0 None), and else E P(F a0) with
    F = exp(-P chi).

    Only chi depends on the setting. Over Q chi = w^-1 log(1 + w*a1) (the
    lambda-log), and over a matrix ring at weight 0 chi = chi_zero(a1); then
    p = P(chi), E = exp(p) and, for an inhomogeneous equation only,
    F = exp(-p). Over a matrix ring at nonzero weight chi = chi_lambda(u),
    u = w^-1 log(1 + w*a1), splits (1 + w*a1)^-1 = exp(-w*u) as
    exp(P chi) exp(Pt chi), so the settled split gives E and F = exp(Pt chi)
    = exp(-P chi) (1 + w*a1)^-1, and no log of a1 is taken: there the caller
    passes (1 + w*a1) a0 (_shifted_a0) as a0.
    """
    w = op.weight
    if w != 0 and not a1.ring.commutative:
        _, e, f = _settle_split(op, a1.geom_inv(w))
    else:
        p = apply(op, a1.lambda_log(w) if a1.ring.commutative else _settle_chi_zero(op, a1))
        e = p.exp()
        f = None if a0 is None else (-p).exp()
    if a0 is None:
        return e
    return e * apply(op, f * a0)


def closed_solve(eq: EquationSpec) -> TruncatedSeries:
    """Closed-form solution of any of the three equations over any ring, by
    the one builder _closed_left: the exponential exp(P(chi)) for the
    homogeneous equation, and the left-handed formula exp(P(chi))
    P(exp(-P(chi)) a0) for the inhomogeneous ones.

    Over Q the right-handed equation is the left one, and the answer is
    returned unproved: no fixed point is settled there, and the spitzer and
    gen-spitzer-comm checks compare it with a proved Picard answer.

    Over a matrix ring the right-handed equation is solved as the left one
    in the transposes of a1 and a0, the solution transposed back (see
    EquationSpec). The answer is built from settles that are not proved (the
    split of (1 + w*a1)^-1, or chi_zero(a1)) and is then proved once,
    against the equation as given (_require_solution), or ConvergenceError
    is raised. picard_solve, the oracle the closed forms are checked
    against, solves each equation on its own side.
    """
    op, a1 = eq.op, eq.a1
    if a1.ring.commutative:
        return _closed_left(op, a1, eq.a0)
    shifted = _shifted_a0(eq)
    if eq.form == INHOM_RIGHT:
        b = _closed_left(op, a1.transpose(), shifted.transpose()).transpose()
    else:
        b = _closed_left(op, a1, shifted)
    _require_solution("closed_solve", eq, b, _constant(eq, shifted))
    return b
