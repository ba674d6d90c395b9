import json
import random

import pytest

from rbseries import checks, operators
from rbseries.checks import (
    DOMAIN_ERROR,
    FAIL,
    IDENTITIES,
    PARAMS,
    PASS,
    ManifestEntry,
    ParamError,
    SuiteManifest,
    UnknownIdentityError,
    default_manifest,
    first_mismatch,
    load_manifest,
    poch,
    q_product,
    random_series,
    run_check,
    run_suite,
    suite_ok,
)
from rbseries.rings import Q, matrix_ring, random_element, rational
from rbseries.series import TruncatedSeries

from conftest import SCALAR
from test_series import S

EULERIAN_QS = ["1/2", "2/3", "-1/2", "3", "5/7"]


def test_q_product_one_plus():
    # elementary symmetric sums of {q^n}: e1 = 1, e2 = 1/3 at q = 1/2
    assert q_product("1/2", 2, 1, inverse=False) == S("1,1,1/3")


def test_q_product_one_minus_inv():
    assert q_product("1/2", 2, -1, inverse=True) == S("1,1,2/3")


def test_q_product_one_plus_inv_inverts_one_plus():
    assert q_product("1/2", 2, 1, inverse=True) == S("1,-1,2/3")
    for q in EULERIAN_QS:
        product = q_product(q, 6, 1, inverse=True) * q_product(q, 6, 1, inverse=False)
        assert product == TruncatedSeries.one(SCALAR, 6)


def test_q_product_cap_zero():
    for sign, inverse in ((1, False), (-1, True), (1, True)):
        assert q_product("1/2", 0, sign, inverse) == S("1")


def test_poch():
    q = Q(1, 2)
    assert poch(q, 0) == 1
    assert poch(q, 2) == Q(1, 2) * Q(3, 4)


@pytest.mark.parametrize("q", EULERIAN_QS)
def test_q_sum_running_product_matches_poch(q):
    """Each coefficient of _q_sum, built on a running q-Pochhammer product,
    against the term computed with poch afresh."""
    q = rational(q)
    cap = 12
    for exponent, sign in ((lambda n: 2 * n - 1, lambda n: 1), (lambda n: 0, lambda n: (-1) ** n),
                           (lambda n: n * (n + 1) // 2, lambda n: -((-1) ** n))):
        got = checks._q_sum(cap, q, exponent, sign)
        for n in range(cap + 1):
            want = sign(n) * q ** exponent(n) / poch(q, n) if n else 1
            assert got.coefficient(n).value == want


def test_first_mismatch_reports_smallest_power():
    mm = first_mismatch(S("1,2,3"), S("1,5,9"))
    assert mm.power == 1 and mm.lhs == "2" and mm.rhs == "5"
    assert first_mismatch(S("1,2"), S("1,2")) is None


def test_rb_axiom_check():
    r = run_check("rb-axiom", {"operator": "qint", "q": "1/2", "order": 8,
                               "dim": 2, "samples": 5, "seed": 0})
    assert r.status == PASS
    assert r.first_mismatch is None


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", ["qint", "qscale", "antider"])
@pytest.mark.parametrize("companion", [True, False], ids=["companion", "operator"])
def test_rb_axiom_fails_at_a_perturbed_multiplier(monkeypatch, companion, kind, dim):
    """rb-axiom passes, and fails with its first mismatch at t^5 once the
    multiplier that the companion's table, or P's, puts on t^5 is off by one.

    The scalar vector is perturbed; the dim-2 vectors repeat its multipliers,
    so the vector cache is cleared before and after, lest a poisoned vector
    stay."""
    params = {"operator": kind, "q": "2/3", "order": 8, "dim": dim, "samples": 2, "seed": 3}
    assert run_check("rb-axiom", params).status == PASS
    power = 5
    original = operators.entry_vector

    def perturbed(op, cap, d, comp=False):
        vector, den = original(op, cap, d, comp)
        if d == 1 and comp == companion:
            vector = list(vector)
            vector[power - operators.power_shift(op)] += 1
            vector = tuple(vector)
        return vector, den

    operators.entry_vector.cache_clear()
    monkeypatch.setattr(operators, "entry_vector", perturbed)
    try:
        report = run_check("rb-axiom", params)
    finally:
        monkeypatch.undo()
        operators.entry_vector.cache_clear()
    assert report.status == FAIL
    assert report.first_mismatch.power == power


def _four_product_pairs(params):
    """rb-axiom's pairs as four products per sample build them: s from x*y,
    x*P(y) and P(x)*y, and P(x)*P(y); the last pair is Pt(-s) against
    w s + P(x)P(y). The reference the check's two-product form is held to."""
    op = checks.operator_of(params["operator"], params["q"])
    w = op.weight
    min_val = 0 if op.kind == "antider" else 1
    for x, y in checks._samples(params, matrix_ring(params["dim"]), params["order"], 2,
                                min_val, var_first=False):
        px, py = operators.apply(op, x), operators.apply(op, y)
        pxpy = px * py
        s = x * py + px * y + (x * y).scale(w)
        yield pxpy, operators.apply(op, s)
        yield operators.tilde_apply(op, x), x.scale(-w) - px
        yield operators.tilde_apply(op, y), y.scale(-w) - py
        yield s.scale(w) + pxpy, operators.tilde_apply(op, -s)


def _first_failure(pairs):
    for lhs, rhs in pairs:
        mismatch = first_mismatch(lhs, rhs)
        if mismatch is not None:
            return FAIL, mismatch
    return PASS, None


RB_AXIOM_OPERATORS = [("antider", "1/2")] + [
    (kind, q) for kind in ("qint", "qscale") for q in ("1/2", "-1/2", "2/3", "3")]


@pytest.mark.parametrize("perturbed", [None, False, True], ids=["exact", "operator", "companion"])
@pytest.mark.parametrize("kind, q", RB_AXIOM_OPERATORS)
def test_rb_axiom_matches_the_four_product_pairs(monkeypatch, kind, q, perturbed):
    """run_check("rb-axiom") gives the status and first mismatch (power, lhs
    and rhs) of the four-product pairs, at dims 1-3 and orders 0, 1, 4 and 10,
    exactly and with one multiplier of P, or of its companion, off by one:
    the scalar vector's fourth, or its last when it is shorter. The vector
    cache is cleared before and after, lest a poisoned vector stay."""
    original = operators.entry_vector

    def off_by_one(op, cap, d, comp=False):
        vector, den = original(op, cap, d, comp)
        if d == 1 and comp == perturbed and vector:
            vector = list(vector)
            vector[min(len(vector) - 1, 3)] += 1
            vector = tuple(vector)
        return vector, den

    operators.entry_vector.cache_clear()
    if perturbed is not None:
        monkeypatch.setattr(operators, "entry_vector", off_by_one)
    statuses = set()
    try:
        for dim in (1, 2, 3):
            for order in (0, 1, 4, 10):
                params = {"operator": kind, "q": q, "order": order, "dim": dim,
                          "samples": 2, "seed": 11}
                report = run_check("rb-axiom", params)
                want = _first_failure(_four_product_pairs(params))
                assert (report.status, report.first_mismatch) == want, (dim, order)
                statuses.add(report.status)
    finally:
        monkeypatch.undo()
        operators.entry_vector.cache_clear()
    assert statuses == ({PASS} if perturbed is None else {PASS, FAIL})


@pytest.mark.parametrize("kind, products", [("qint", 2), ("qscale", 2), ("antider", 3)])
def test_rb_axiom_products_and_applications_per_sample(monkeypatch, kind, products):
    """A sample of rb-axiom costs two series products at nonzero weight, three
    at weight 0, and six applications of P or its companion."""
    counts = {"mul": 0, "apply": 0}

    def counted(name, function):
        def wrapper(*args):
            counts[name] += 1
            return function(*args)
        return wrapper

    monkeypatch.setattr(TruncatedSeries, "__mul__", counted("mul", TruncatedSeries.__mul__))
    monkeypatch.setattr(checks, "apply", counted("apply", checks.apply))
    monkeypatch.setattr(checks, "tilde_apply", counted("apply", checks.tilde_apply))
    samples = 3
    report = run_check("rb-axiom", {"operator": kind, "q": "2/3", "order": 6, "dim": 2,
                                    "samples": samples, "seed": 5})
    assert report.passed
    assert counts == {"mul": products * samples, "apply": 6 * samples}


def test_kingman_check():
    for op in ("qint", "qscale"):
        r = run_check("kingman", {"operator": op, "q": "1/2", "order": 8,
                                  "samples": 3, "seed": 0, "nmax": 4})
        assert r.status == PASS


def test_kingman_weight_zero_is_domain_error():
    r = run_check("kingman", {"operator": "antider", "order": 8})
    assert r.status == DOMAIN_ERROR


def test_lemma_iteration_checks():
    assert run_check("lemma-iter-a", {"order": 10, "kmax": 4, "samples": 3}).passed
    assert run_check("lemma-iter-b", {"order": 10, "kmax": 4, "samples": 3}).passed


def test_spitzer_check():
    r = run_check("spitzer", {"operator": "qscale", "q": "1/2", "order": 14,
                              "samples": 3, "seed": 1})
    assert r.passed


def test_bch_chl_check_holds_chi_against_the_bch_recursion(monkeypatch):
    """The check's one pair compares chi with a + w^-1 BCH(P chi, Pt chi)
    itself: the fixed point of the mirrored recursion, exp(Pt x) exp(P x) =
    exp(-w a), fails at the first pair. That x is the transpose of the split
    of the transpose of exp(-w a)."""
    from rbseries import checks, solvers

    settled = []

    def mirrored(op, a):
        g = a.scale(-op.weight).exp()
        settled.append(solvers._split("chi_lambda", op, g.transpose()).transpose())
        return settled[-1]

    params = {"operator": "qint", "q": "1/2", "order": 8, "dim": 2, "samples": 2, "seed": 7}
    assert run_check("bch-chl-factorization", params).passed
    monkeypatch.setattr(checks, "chi_lambda", mirrored)
    pairs = checks.IDENTITIES["bch-chl-factorization"][0](params)
    chi, recursion = next(pairs)
    assert chi is settled[0]
    assert first_mismatch(chi, recursion) is not None
    assert run_check("bch-chl-factorization", params).status == FAIL

def test_special_equality_check():
    for op, q in (("qint", "1/2"), ("qscale", "1/3")):
        r = run_check("special-equality", {"operator": op, "q": q, "order": 12,
                                           "samples": 3, "seed": 1})
        assert r.passed


def test_special_equality_weight0_domain_error():
    r = run_check("special-equality", {"operator": "antider", "order": 8})
    assert r.status == DOMAIN_ERROR


@pytest.mark.parametrize("identity_id,params,status", [
    ("gen-spitzer-comm", {"operator": "qscale"}, PASS),
    ("gen-spitzer-comm", {"operator": "antider"}, PASS),
    ("gen-spitzer-comm", {"operator": "qscale", "dim": 2}, DOMAIN_ERROR),
    ("gen-spitzer-noncomm", {"dim": 2}, PASS),
    ("gen-spitzer-noncomm", {"operator": "qscale", "dim": 3}, PASS),
    ("gen-spitzer-noncomm", {}, DOMAIN_ERROR),
    ("gen-spitzer-noncomm", {"operator": "antider", "dim": 2}, DOMAIN_ERROR),
    ("gen-spitzer-weight0", {"operator": "antider"}, PASS),
    ("gen-spitzer-weight0", {"operator": "antider", "dim": 2}, PASS),
    ("gen-spitzer-weight0", {}, DOMAIN_ERROR),
    ("gen-spitzer-weight0", {"operator": "qint", "dim": 3}, DOMAIN_ERROR),
])
def test_each_gen_spitzer_id_holds_its_setting(identity_id, params, status):
    """comm runs at dim 1, noncomm at dim >= 2 with nonzero weight and weight0
    at weight 0, each at any other params a domain-error; the report echoes
    the params given and no others."""
    given = {"order": 4, "samples": 2, **params}
    r = run_check(identity_id, given)
    assert r.status == status
    assert r.params == given


@pytest.mark.parametrize("q", EULERIAN_QS)
def test_eulerian_passing_variants(q):
    for ident in ("eulerian-prop-two", "eulerian-interior-lemma",
                  "eulerian-qbinomial-corrected", "eulerian-prop-one-corrected"):
        assert run_check(ident, {"q": q, "order": 16}).passed, (ident, q)


@pytest.mark.parametrize("q", EULERIAN_QS)
def test_eulerian_printed_fail_at_power_one(q):
    qq = rational(q)
    r1 = run_check("eulerian-prop-one-printed", {"q": q, "order": 10})
    assert r1.status == FAIL and r1.first_mismatch.power == 1
    assert r1.first_mismatch.lhs == str(qq / (1 - qq))
    assert r1.first_mismatch.rhs == str((2 * qq - 1) / (1 - qq))
    r2 = run_check("eulerian-qbinomial-printed", {"q": q, "order": 10})
    assert r2.status == FAIL and r2.first_mismatch.power == 1
    assert r2.first_mismatch.lhs == str(1 / (1 - qq))
    assert r2.first_mismatch.rhs == str(qq / (1 - qq))


@pytest.mark.parametrize("q", EULERIAN_QS)
def test_section_four_chain(q):
    for ident in ("computation-one", "eulerian-third", "eulerian-first-partial"):
        assert run_check(ident, {"q": q, "order": 16}).passed, (ident, q)


def test_unknown_identity():
    with pytest.raises(UnknownIdentityError):
        run_check("no-such-identity", {})


@pytest.mark.parametrize("params, name", [
    ({"order": -1}, "order"),
    ({"order": "x"}, "order"),
    ({"samples": 0}, "samples"),
    ({"operator": "nope"}, "operator"),
    ({"q": "1"}, "q"),
    ({"ordr": 2}, "'ordr'"),
    ({"variant": "zzz"}, "'variant'"),
], ids=["order-negative", "order-text", "samples-zero", "operator-unknown", "q-one",
        "unknown-name", "name-another-check-fixes"])
def test_run_check_reads_its_params(params, name):
    with pytest.raises(ParamError) as exc:
        run_check("rb-axiom", params)
    assert str(exc.value).startswith(name)


def test_run_check_drops_q_for_antider_and_reads_q_as_the_q_integrals():
    report = run_check("rb-axiom", {"operator": "antider", "q": "1", "order": 2, "samples": 1})
    assert report.passed and report.params == {"operator": "antider", "order": 2, "samples": 1}
    with pytest.raises(ParamError):
        run_check("eulerian-prop-two", {"q": "-1"})


def test_check_determinism():
    params = {"operator": "qint", "q": "1/2", "order": 8, "dim": 2,
              "samples": 3, "seed": 42}
    a = run_check("rb-axiom", params)
    b = run_check("rb-axiom", params)
    assert (a.status, a.first_mismatch) == (b.status, b.first_mismatch)


def test_empty_manifest():
    assert run_suite(SuiteManifest(())) == []


def test_manifest_expectations():
    manifest = SuiteManifest((
        ManifestEntry("eulerian-prop-two", {"q": "1/2", "order": 8}, PASS),
        ManifestEntry("eulerian-prop-one-printed", {"q": "1/2", "order": 8}, FAIL),
    ))
    reports = run_suite(manifest)
    assert suite_ok(manifest, reports)
    flipped = SuiteManifest((
        ManifestEntry("eulerian-prop-one-printed", {"q": "1/2", "order": 8}, PASS),
    ))
    assert not suite_ok(flipped, run_suite(flipped))


def test_load_manifest_roundtrip():
    data = {"entries": [
        {"id": "spitzer", "params": {"operator": "qint", "q": "1/2"}},
        {"id": "eulerian-qbinomial-printed", "params": {"q": "3"}, "expect": "fail"},
    ]}
    manifest = load_manifest(json.loads(json.dumps(data)))
    assert manifest.entries[0].expected == PASS
    assert manifest.entries[1].expected == FAIL


class _Recording(dict):
    """Params that record the names a check reads."""

    def __init__(self, params):
        super().__init__(params)
        self.read = set()

    def __getitem__(self, name):
        self.read.add(name)
        return super().__getitem__(name)

    def get(self, name, default=None):
        self.read.add(name)
        return super().get(name, default)


# the params that move an id whose setting excludes the defaults into it
IN_SETTING = {"gen-spitzer-noncomm": {"dim": 2}, "gen-spitzer-weight0": {"operator": "antider"}}


@pytest.mark.parametrize("identity_id", sorted(IDENTITIES))
def test_identity_declares_the_params_it_reads(identity_id):
    """The names an identity declares are exactly those its pairs read, each
    a param of the table, when every param of the table is at hand."""
    pairs, fixed, reads, _ = IDENTITIES[identity_id]
    params = _Recording({**{name: param.default for name, param in PARAMS.items()},
                         "order": 3, "samples": 2, "nmax": 1, "kmax": 1, **fixed,
                         **IN_SETTING.get(identity_id, {})})
    for _ in pairs(params):
        pass
    assert params.read - set(fixed) == reads
    assert reads <= set(PARAMS)


def test_default_manifest_covers_every_identity():
    manifest = default_manifest()
    ids = {e.identity_id for e in manifest.entries}
    assert ids == set(IDENTITIES)
    # printed errata are expected failures
    for e in manifest.entries:
        if e.identity_id.endswith("-printed"):
            assert e.expected == FAIL
        else:
            assert e.expected == PASS


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("min_valuation", [0, 1, 3])
def test_random_series_draws_as_random_element(dim, min_valuation):
    """The same series and the same RNG state after it as the construction
    from one rings.random_element per coefficient."""
    ring = SCALAR if dim == 1 else matrix_ring(dim)
    for cap in (0, 2, 7):
        fast, slow = random.Random(cap), random.Random(cap)
        for bound in (1, 5):
            coeffs = [ring.element(0)] * min_valuation
            coeffs += [random_element(ring, slow, bound)
                       for _ in range(cap + 1 - min_valuation)]
            if min_valuation > cap + 1:
                with pytest.raises(ValueError):
                    random_series(ring, cap, fast, bound, min_valuation)
                continue
            x = random_series(ring, cap, fast, bound, min_valuation)
            assert x == TruncatedSeries(ring, cap, tuple(coeffs))
        assert fast.random() == slow.random()
    with pytest.raises(ValueError):
        random_series(ring, 2, random.Random(0), bound=0)
