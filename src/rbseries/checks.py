"""Executable verification of the algebra identities, with structured reports.

Every check expands both sides of an identity exactly at the truncation cap
and compares coefficient by coefficient; a failure reports the smallest power
where the sides differ. q-dependent identities are checked at rational q
values rather than symbolically (both sides' coefficients are bounded-degree
rational functions of q, so agreement at several points is strong evidence;
this limitation is deliberate).

Two of the q-series statements verified here are recorded as expected
failures in the default manifest together with corrected variants that pass;
the checker reports facts, not intentions.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field
from functools import lru_cache, partial
from math import factorial, lcm
from typing import Callable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .operators import ANTIDER, KINDS, QINT, OperatorSpec, apply, tilde_apply
from .rings import Q, RingDescriptor, random_entries, rational
from .series import DomainError, TruncatedSeries
from .solvers import (
    HOMOGENEOUS,
    INHOM_LEFT,
    INHOM_RIGHT,
    EquationSpec,
    SolverUsageError,
    bch,
    chi_lambda,
    closed_solve,
    picard_solve,
    spitzer_closed,
)

PASS = "pass"
FAIL = "fail"
DOMAIN_ERROR = "domain-error"
STATUSES = (PASS, FAIL, DOMAIN_ERROR)  # what a check reports, and what a caller may expect


@dataclass(frozen=True)
class Mismatch:
    power: int
    lhs: str
    rhs: str


@dataclass
class CheckReport:
    identity_id: str
    params: dict
    status: str
    first_mismatch: Optional[Mismatch] = None
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return self.status == PASS


def first_mismatch(lhs: TruncatedSeries, rhs: TruncatedSeries) -> Optional[Mismatch]:
    """The least power where the sides differ, with both coefficients' text."""
    if lhs == rhs:
        return None
    k = (lhs - rhs).valuation()
    return Mismatch(k, lhs.coefficient_text(k), rhs.coefficient_text(k))


# ----------------------------------------------------------------- the params
#
# Every param of a check, `verify` or `solve`: how a value is read, its default
# (for order, the command line's: a check given no order takes Identity.order)
# and the help of its flag.


class Param(NamedTuple):
    kind: str  # "operator", "integer" or "rational" (q, read against the operator)
    default: object
    help: str
    least: Optional[int] = None  # an integer's least value; None for no bound
    most: Optional[int] = None  # an integer's largest value; None for no bound


PARAMS = {
    "operator": Param("operator", QINT, "qint, qscale or antider"),
    "order": Param("integer", 16, "truncation cap", 0),
    # each product over dim d runs a multiply-add generated for d, of d^3 terms
    "dim": Param("integer", 1, "matrix dimension, at most 8 (1 = scalar)", 1, 8),
    "seed": Param("integer", 0, "seed of the random samples"),
    "samples": Param("integer", 10, "number of random samples", 1),
    "q": Param("rational", "1/2", "a rational such as 2/3, not 0, 1 or -1; antider reads none"),
    "nmax": Param("integer", 6, "largest power n", 0),
    "kmax": Param("integer", 6, "largest nesting k", 0),
}


class ParamError(ValueError):
    """An unknown, unread, malformed or out-of-range param; the message
    begins with the param's name."""


@lru_cache(maxsize=64, typed=True)
def operator_of(kind: str, q) -> OperatorSpec:
    """The operator of `kind` at the rational `q` (none for antider), built
    once per (kind, q): read_params builds it to check q, the check reuses it."""
    return OperatorSpec(ANTIDER) if kind == ANTIDER else OperatorSpec(kind, q)


def read_params(names, given: Mapping) -> dict:
    """The params `given`, each read by PARAMS and all of them among `names`:
    integers parsed and bounded, the operator a kind, and q admissible for the
    operator (the q-integral when none is given), or dropped for antider.
    Raises ParamError on the first that is not."""
    params = {}
    for name, value in given.items():
        if name not in names:
            raise ParamError(f"{name!r} is not a param of this check, which reads "
                             + ", ".join(n for n in PARAMS if n in names))
        kind, _, _, least, most = PARAMS[name]
        if kind == "integer":
            if isinstance(value, bool) or not isinstance(value, (int, str)):
                raise ParamError(f"{name} must be an integer, not {value!r}")
            try:
                value = int(value)
            except ValueError:
                raise ParamError(f"{name} must be an integer, not {value!r}") from None
            if least is not None and value < least:
                raise ParamError(f"{name} must be >= {least}")
            if most is not None and value > most:
                raise ParamError(f"{name} must be <= {most}")
        elif kind == "operator" and value not in KINDS:
            raise ParamError(f"operator must be one of {', '.join(KINDS)}, not {value!r}")
        params[name] = value
    if params.get("operator") == ANTIDER:
        params.pop("q", None)
    elif "q" in params:
        operator = params.get("operator", QINT)
        try:
            operator_of(operator, params["q"])
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ParamError(f"q: {params['q']!r} is not a q of {operator} ({exc})") from None
    return params


def _nonzero_weight(params: Mapping) -> OperatorSpec:
    op = operator_of(params["operator"], params["q"])
    if op.weight == 0:
        raise DomainError("the identity needs an operator of nonzero weight")
    return op


# ------------------------------------------------------------------ utilities


def random_series(
    ring: RingDescriptor,
    cap: int,
    rng: random.Random,
    bound: int = 5,
    min_valuation: int = 1,
) -> TruncatedSeries:
    """Random series whose coefficients below t^min_valuation are zero.

    Every other entry is p/q with |p| <= bound and 1 <= q <= bound, drawn by
    rings.random_entries in the order rings.random_element draws them, so a
    seed gives the same series. The numerators are built over one common
    denominator directly.
    """
    dd = ring.dim * ring.dim
    drawn = random_entries(rng, (cap + 1 - min_valuation) * dd, bound)
    den = lcm(*(q for _, q in drawn))
    num = [0] * (min_valuation * dd) + [p * (den // q) for p, q in drawn]
    return TruncatedSeries.from_numerators(ring, cap, num, den)


def _samples(params: Mapping, ring: RingDescriptor, cap: int, count: int = 1,
             min_valuation: int = 1, var_first: bool = True) -> Iterator[tuple]:
    """`samples` tuples of `count` seeded random series; the first tuple is
    (t, ..., t) when var_first is set."""
    rng = random.Random(params["seed"])
    for s in range(params["samples"]):
        if s == 0 and var_first:
            yield (TruncatedSeries.var(ring, cap),) * count
        else:
            yield tuple(random_series(ring, cap, rng, min_valuation=min_valuation)
                        for _ in range(count))


def poch(q: Q, n: int) -> Q:
    """(1-q)(1-q^2)...(1-q^n)."""
    out = Q(1)
    qk = Q(1)
    for _ in range(n):
        qk = qk * q
        out = out * (1 - qk)
    return out


def q_product(q, cap: int, sign: int, inverse: bool) -> TruncatedSeries:
    """The product over n >= 1 of (1 + sign*q^n t), or its inverse when
    `inverse` is set, truncated at cap, via its logarithm. The Eulerian
    identities read (1 + q^n t) (sign 1), 1/(1 - q^n t) (sign -1, inverse)
    and 1/(1 + q^n t) (sign 1, inverse).

    log prod (1 + s q^n t) = sum_j (-1)^(j-1) s^j p_j t^j / j with the power
    sums p_j = sum_n q^(jn) evaluated in closed form as q^j/(1-q^j). This is
    exact for every rational q with |q| != 1, including |q| > 1 where partial
    products do not converge coefficientwise.
    """
    q = rational(q)
    ring = RingDescriptor()
    coeffs = [Q(0)]
    qj = Q(1)
    for j in range(1, cap + 1):
        qj = qj * q
        pj = qj / (1 - qj)
        coeffs.append(Q((-1) ** (j - 1) * sign**j, j) * pj)
    log_series = TruncatedSeries.from_coeffs(ring, cap, coeffs)
    if inverse:
        log_series = -log_series
    return log_series.exp()


# ----------------------------------------------------------------- the checks
#
# Each check yields the (lhs, rhs) pairs of its identity; run_check compares
# them in order and stops at the first pair that differs.

Pairs = Iterator[tuple[TruncatedSeries, TruncatedSeries]]


def _rb_axiom(params: Mapping) -> Pairs:
    """P(x)P(y) = P(s) with s = xP(y) + P(x)y + w xy, for P and its companion
    Pt = -w id - P: two products (three at weight 0) and six applications per
    sample.

    Pt(x) and Pt(y) are built by ring arithmetic as -w x - P(x) and
    -w y - P(y). Over any ring Pt(x)Pt(y) - P(x)P(y) = w s, so at nonzero
    weight s is that difference over w, from the two products the identities
    of P and Pt multiply anyway; at weight 0 it is xP(y) + P(x)y. Each sample
    yields P's identity in this canonical form, then the applied Pt(x) and
    Pt(y) against the built ones, then Pt(x)Pt(y) against Pt(-s). Since
    xPt(y) + Pt(x)y + w xy = -s, once the middle pairs hold the last pair is
    Pt's own identity on (x, y).
    """
    op = operator_of(params["operator"], params["q"])
    ring = RingDescriptor(params["dim"])
    cap = params["order"]
    w = op.weight
    min_val = 0 if op.kind == ANTIDER else 1
    for x, y in _samples(params, ring, cap, 2, min_val, var_first=False):
        px, py = apply(op, x), apply(op, y)
        ptx, pty = x.scale(-w) - px, y.scale(-w) - py
        pxpy = px * py
        if w:
            ptpt = ptx * pty
            s = (ptpt - pxpy).scale(1 / w)
        else:
            ptpt, s = pxpy, x * py + px * y
        yield pxpy, apply(op, s)
        yield tilde_apply(op, x), ptx
        yield tilde_apply(op, y), pty
        yield ptpt, tilde_apply(op, -s)


def _kingman(params: Mapping) -> Pairs:
    """w P(u)^n = P((-Pt(u))^n - P(u)^n) for n = 1..nmax."""
    op = _nonzero_weight(params)
    ring = RingDescriptor(params["dim"])
    cap = params["order"]
    nmax = params["nmax"]
    for (u,) in _samples(params, ring, cap):
        pu = apply(op, u)
        minus_ptu = -tilde_apply(op, u)
        pu_n, minus_ptu_n = pu, minus_ptu  # running powers, n = 1 first
        for n in range(1, nmax + 1):
            if n > 1:
                pu_n, minus_ptu_n = pu_n * pu, minus_ptu_n * minus_ptu
            yield pu_n.scale(op.weight), apply(op, minus_ptu_n - pu_n)


def _lemma_iteration(params: Mapping) -> Pairs:
    """Weight-0 commutative iteration lemma, items A and B."""
    op = OperatorSpec(ANTIDER)
    ring = RingDescriptor()
    cap = params["order"]
    kmax = params["kmax"]
    for (a,) in _samples(params, ring, cap, min_valuation=0):
        # nested[k] is P(a P(a ... P(a) ...)) with k nestings of a, 1 for k = 0.
        nested = [TruncatedSeries.one(ring, cap)]
        for _ in range(kmax + 1):
            nested.append(apply(op, a * nested[-1]))
        pa, pa_k = nested[1], nested[0]  # pa_k: a running power of P(a), k = 0 first
        for k in range(kmax + 1):
            if params["item"] == "A":
                if k:
                    pa_k = pa_k * pa
                yield nested[k], pa_k.scale(Q(1, factorial(k)))
            else:
                acc = TruncatedSeries.zero(ring, cap)
                for l in range(k + 1):
                    term = nested[k + 1 - l] * nested[l]
                    acc = acc + (term if l % 2 == 0 else -term)
                yield acc, nested[k + 1] if k % 2 == 0 else -nested[k + 1]


def _spitzer(params: Mapping) -> Pairs:
    """Closed Spitzer exponential against the Picard sum, commutative setting."""
    op = operator_of(params["operator"], params["q"])
    for (a,) in _samples(params, RingDescriptor(), params["order"]):
        yield spitzer_closed(op, a), picard_solve(EquationSpec(HOMOGENEOUS, op, a))


def _generalized_spitzer(params: Mapping, commutative: Optional[bool] = None,
                         weight_zero: Optional[bool] = None) -> Pairs:
    """Closed inhomogeneous solutions, left and right, against the Picard fixed
    point. Over Q the right-handed equation is the left-handed one, so only
    that one is solved. Each id binds its setting: whether the ring is
    commutative (dim 1) and whether the weight is 0, None for either; outside
    it the check is a domain-error."""
    op = operator_of(params["operator"], params["q"])
    ring = RingDescriptor(params["dim"])
    if commutative not in (None, ring.commutative):
        raise DomainError("the identity needs " + ("dim 1" if commutative else "dim >= 2"))
    if weight_zero not in (None, op.weight == 0):
        raise DomainError("the identity needs an operator of "
                          + ("weight 0" if weight_zero else "nonzero weight"))
    forms = (INHOM_LEFT,) if ring.commutative else (INHOM_LEFT, INHOM_RIGHT)
    for a0, a1 in _samples(params, ring, params["order"], 2):
        for form in forms:
            eq = EquationSpec(form, op, a1, a0)
            yield closed_solve(eq), picard_solve(eq)


def _bch_chl_factorization(params: Mapping) -> Pairs:
    """chi(a) is the fixed point of the BCH recursion x = a + w^-1 BCH(P(x), Pt(x)).
    The factorization exp(-w a) = exp(P(chi(a))) exp(Pt(chi(a))) is no pair:
    chi_lambda proves it before it returns and raises ConvergenceError
    otherwise, so a pair that compared it again could never fail."""
    op = _nonzero_weight(params)
    ring = RingDescriptor(params["dim"])
    for (a,) in _samples(params, ring, params["order"], var_first=False):
        chi = chi_lambda(op, a)
        yield chi, a + bch(apply(op, chi), tilde_apply(op, chi)).scale(1 / op.weight)


def _special_equality(params: Mapping) -> Pairs:
    """1 - P(exp(-P(u)) (1+w a1)^-1 a1) = exp(-P(u)), and that element solves
    d = 1 + P(-(1+w a1)^-1 a1 d)."""
    op = _nonzero_weight(params)
    ring = RingDescriptor()
    cap = params["order"]
    one = TruncatedSeries.one(ring, cap)
    for (a1,) in _samples(params, ring, cap):
        u = a1.lambda_log(op.weight)
        e_minus = (-apply(op, u)).exp()
        inv = a1.geom_inv(op.weight)
        yield one - apply(op, e_minus * inv * a1), e_minus
        # d = exp(-P(u)) solves the companion equation
        yield e_minus, one + apply(op, (-(inv * a1)) * e_minus)


def _q_sum(cap: int, q: Q, exponent: Callable[[int], int],
           sign: Callable[[int], int] = lambda n: 1) -> TruncatedSeries:
    """1 + sum over n >= 1 of sign(n) q^exponent(n) t^n / ((1-q)...(1-q^n)),
    with the q-Pochhammer product poch(q, n) kept as a running product."""
    coeffs = [Q(1)]
    qn = pochhammer = Q(1)
    for n in range(1, cap + 1):
        qn *= q
        pochhammer *= 1 - qn
        coeffs.append(sign(n) * q ** exponent(n) / pochhammer)
    return TruncatedSeries.from_coeffs(RingDescriptor(), cap, coeffs)


def _eulerian(params: Mapping) -> Pairs:
    """q-series identities: both printed statements and corrected variants."""
    variant = params["variant"]
    q = operator_of(QINT, params["q"]).q
    cap = params["order"]
    ring = RingDescriptor()
    one = TruncatedSeries.one(ring, cap)
    t = TruncatedSeries.var(ring, cap)
    # the three prop-* variants read it, so each builds it when it runs
    prod_inv = partial(q_product, q, cap, -1, inverse=True)
    if variant == "prop-one-printed":
        yield _q_sum(cap, q, lambda n: 2 * n - 1), (one - t) * prod_inv()
    elif variant == "prop-one-corrected":
        yield (_q_sum(cap, q, lambda n: 2 * n - 1),
               (one.scale(1 / q) - t) * prod_inv() + one.scale(1 - 1 / q))
    elif variant == "prop-two":
        yield _q_sum(cap, q, lambda n: n), prod_inv()
    elif variant == "qbinomial-printed":
        yield _q_sum(cap, q, lambda n: n * (n + 1) // 2 - 1), q_product(q, cap, 1, inverse=False)
    elif variant == "qbinomial-corrected":
        yield _q_sum(cap, q, lambda n: n * (n + 1) // 2), q_product(q, cap, 1, inverse=False)
    elif variant == "interior-lemma":
        # prod 1/(1+q^k t) = (1+t)(1 + sum (-t)^n / ((1-q)...(1-q^n)))
        yield (q_product(q, cap, 1, inverse=True),
               (one + t) * _q_sum(cap, q, lambda n: 0, sign=lambda n: (-1) ** n))


def _computation_one(params: Mapping) -> Pairs:
    """exp(-P(log(1+t))) equals the product of 1/(1+q^k t) for the q-integral."""
    op = operator_of(QINT, params["q"])
    cap = params["order"]
    t = TruncatedSeries.var(RingDescriptor(), cap)
    yield ((-apply(op, t.log1p())).exp(), q_product(op.q, cap, 1, inverse=True))


def _eulerian_third(params: Mapping) -> Pairs:
    """P(exp(-P(log(1+t))) t) as an explicit alternating q-Pochhammer sum."""
    op = operator_of(QINT, params["q"])
    cap = params["order"]
    t = TruncatedSeries.var(RingDescriptor(), cap)
    rhs = _q_sum(cap, op.q, lambda m: 2 * m - 1, sign=lambda m: -((-1) ** m))
    yield apply(op, (-apply(op, t.log1p())).exp() * t), rhs - TruncatedSeries.one(t.ring, cap)


def _eulerian_first_partial(params: Mapping) -> Pairs:
    """The nested inhomogeneous sum for a0 = a1 = t against its explicit
    q-binomial form qt/(1-q) + sum_{n>=2} q^(n(n+1)/2-1) t^n / poch(n)."""
    op = operator_of(QINT, params["q"])
    cap = params["order"]
    t = TruncatedSeries.var(RingDescriptor(), cap)
    rhs = _q_sum(cap, op.q, lambda n: n * (n + 1) // 2 - 1 if n > 1 else 1)
    yield (picard_solve(EquationSpec(INHOM_LEFT, op, t, t)),
           rhs - TruncatedSeries.one(t.ring, cap))


# ------------------------------------------------------------------- registry

class Identity(NamedTuple):
    pairs: Callable[[Mapping], Pairs]
    # the params this id fixes; they override the caller's and appear in the report
    fixed: dict
    # the caller's params the pairs read, each read by PARAMS
    reads: frozenset
    order: int  # the truncation cap when the caller gives none


_SAMPLED = frozenset({"order", "seed", "samples"})
_OPERATOR_SAMPLED = _SAMPLED | {"operator", "q", "dim"}
_Q_SERIES = frozenset({"q", "order"})

IDENTITIES: dict[str, Identity] = {
    "rb-axiom": Identity(_rb_axiom, {}, _OPERATOR_SAMPLED, 16),
    "kingman": Identity(_kingman, {}, _OPERATOR_SAMPLED | {"nmax"}, 12),
    "lemma-iter-a": Identity(_lemma_iteration, {"item": "A"}, _SAMPLED | {"kmax"}, 12),
    "lemma-iter-b": Identity(_lemma_iteration, {"item": "B"}, _SAMPLED | {"kmax"}, 12),
    "spitzer": Identity(_spitzer, {}, _OPERATOR_SAMPLED - {"dim"}, 20),
    "gen-spitzer-comm": Identity(partial(_generalized_spitzer, commutative=True), {},
                                 _OPERATOR_SAMPLED, 12),
    "gen-spitzer-noncomm": Identity(
        partial(_generalized_spitzer, commutative=False, weight_zero=False), {},
        _OPERATOR_SAMPLED, 12),
    "gen-spitzer-weight0": Identity(partial(_generalized_spitzer, weight_zero=True), {},
                                    _OPERATOR_SAMPLED, 12),
    "bch-chl-factorization": Identity(_bch_chl_factorization, {}, _OPERATOR_SAMPLED, 10),
    "special-equality": Identity(_special_equality, {}, _OPERATOR_SAMPLED - {"dim"}, 12),
    **{f"eulerian-{v}": Identity(_eulerian, {"variant": v}, _Q_SERIES, 30)
       for v in ("prop-one-printed", "prop-one-corrected", "prop-two",
                 "qbinomial-printed", "qbinomial-corrected", "interior-lemma")},
    "computation-one": Identity(_computation_one, {}, _Q_SERIES, 16),
    "eulerian-third": Identity(_eulerian_third, {}, _Q_SERIES, 16),
    "eulerian-first-partial": Identity(_eulerian_first_partial, {}, _Q_SERIES, 16),
}


class UnknownIdentityError(KeyError):
    pass


def run_check(identity_id: str, params: Mapping) -> CheckReport:
    """Read `params` (ParamError if one is bad) and compare the identity's
    pairs in order, with each param not given at its default; the first
    mismatching pair fails the check, and a DomainError or SolverUsageError
    makes it a domain-error."""
    try:
        pairs, fixed, reads, order = IDENTITIES[identity_id]
    except KeyError:
        raise UnknownIdentityError(identity_id) from None
    params = {**read_params(reads, params), **fixed}
    values = {**{name: param.default for name, param in PARAMS.items()}, "order": order, **params}
    started = time.perf_counter()
    status, mismatch = PASS, None
    try:
        for lhs, rhs in pairs(values):
            mismatch = first_mismatch(lhs, rhs)
            if mismatch is not None:
                status = FAIL
                break
    except (DomainError, SolverUsageError):
        status = DOMAIN_ERROR
    return CheckReport(identity_id, params, status, mismatch, time.perf_counter() - started)


# -------------------------------------------------------------------- manifest


@dataclass(frozen=True)
class ManifestEntry:
    identity_id: str
    params: dict = field(default_factory=dict)
    expected: str = PASS


@dataclass(frozen=True)
class SuiteManifest:
    entries: tuple


class ManifestError(ValueError):
    """A manifest that is not a JSON object with an `entries` list of objects,
    each with a string `id`, optionally an object of valid `params` and an
    `expect` of pass, fail or domain-error."""


def _entry(e) -> ManifestEntry:
    """The manifest entry `e`, its id known and its params read as the check
    reads them, so that a bad entry stops the suite before any check runs."""
    if not isinstance(e, dict) or not isinstance(e.get("id"), str) \
            or not isinstance(e.get("params", {}), dict):
        raise ManifestError(f"entry {e!r} is not an object with a string 'id' and object 'params'")
    expected = e.get("expect", PASS)
    if expected not in STATUSES:
        raise ManifestError(
            f"entry {e['id']!r}: expect must be pass, fail or domain-error, not {expected!r}")
    if e["id"] not in IDENTITIES:
        raise ManifestError(f"unknown identity id: {e['id']!r}")
    try:
        params = read_params(IDENTITIES[e["id"]].reads, e.get("params", {}))
    except ParamError as exc:
        raise ManifestError(f"entry {e['id']!r}: {exc}") from None
    return ManifestEntry(e["id"], params, expected)


def load_manifest(data: dict) -> SuiteManifest:
    if not isinstance(data, dict) or not isinstance(data.get("entries"), list):
        raise ManifestError("a manifest is a JSON object with an 'entries' list")
    return SuiteManifest(tuple(_entry(e) for e in data["entries"]))


def load_manifest_file(path: str) -> SuiteManifest:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ManifestError(f"{path} is not JSON: {exc}") from None
    return load_manifest(data)


def default_manifest() -> SuiteManifest:
    return load_manifest_file(os.path.join(os.path.dirname(__file__), "data",
                                           "default_manifest.json"))


def run_suite(manifest: SuiteManifest) -> list[CheckReport]:
    return [run_check(e.identity_id, e.params) for e in manifest.entries]


def suite_ok(manifest: SuiteManifest, reports: Sequence[CheckReport]) -> bool:
    return all(r.status == e.expected for e, r in zip(manifest.entries, reports))
