"""Bailey pairs, the lemma specialization, and the stagewise proof chains."""

import random

import pytest

from overq import bailey, products, series
from overq.bailey import (
    CHAIN_STAGE_IDS,
    LEMMA_CASES,
    PAIRS,
    BaileyPair,
    MismatchedRelativeError,
    bailey_check,
    chain_stage_reports,
    lemma_sides,
    pair,
    verify_chain,
    verify_lemma,
)
from overq.cli import RELATION_DEPTH
from overq.products import (
    Monomial,
    Ratio,
    Theta1D,
    Theta2D,
    poch_finite,
    poch_infinite,
    ratio_sum,
    sharing,
    theta1d,
    theta2d,
)
from overq.report import SAME_OBJECT_NOTE, check
from overq.series import (
    QSeries,
    Quotient,
    _div_binomial_inplace,
    _mul_binomial_inplace,
    _plus_scaled,
    divided,
    monomial,
    one,
)

Q = Monomial(1, 1)


def _beta_naive(p, n, order):
    """The defining relation's right side built from whole products."""
    aq = Monomial(p.relative.c, p.relative.e + 1)
    total = None
    for r in range(n + 1):
        den = poch_finite(Q, 1, n - r, order) * poch_finite(aq, 1, n + r, order)
        t = p.alpha(r, order) * den.invert()
        total = t if total is None else total + t
    return total


def _dense_lovejoy_alpha(n, order):
    # alpha_n = q^(n^2+n) (1 - q^(2n+2)) / (1 - q^2) = sum_j q^(n^2+n+2j), j <= n
    cs = [0] * (order + 1)
    base = n * n + n
    for j in range(n + 1):
        e = base + 2 * j
        if e > order:
            break
        cs[e] = 1
    return QSeries(cs, order)


def _dense_slater_alpha(n, order):
    # alpha_0 = 1; alpha_n = q^(n^2+n) - q^(n^2-n) for n >= 1
    cs = [0] * (order + 1)
    if n == 0:
        cs[0] = 1
        return QSeries(cs, order)
    if n * n - n <= order:
        cs[n * n - n] -= 1
    if n * n + n <= order:
        cs[n * n + n] += 1
    return QSeries(cs, order)


@pytest.mark.parametrize("order", (0, 1, 60, 400))
def test_alpha_rows_match_the_dense_alphas(order):
    for name, dense in (("lovejoy-q2", _dense_lovejoy_alpha), ("slater-h1", _dense_slater_alpha)):
        p = pair(name)
        low = 0
        for r in range(201):
            assert p.alpha(r, order).coeffs == dense(r, order).coeffs, (name, r)
            terms = p.alpha_terms(r)
            assert len({e for e, _ in terms}) == len(terms) and all(c for _, c in terms)
            assert all(e >= p.alpha_low(r) for e, _ in terms)
            assert p.alpha_low(r) >= low
            low = p.alpha_low(r)


def test_pair_lookup():
    assert pair("lovejoy-q2").relative == Monomial(1, 2)
    assert pair("slater-h1").relative == Monomial(1, 0)
    with pytest.raises(KeyError):
        pair("nope")


def test_alpha_beta_fixtures():
    lj = pair("lovejoy-q2")
    assert lj.alpha(0, 6).coeffs == one(6).coeffs
    assert lj.alpha(1, 6).coeffs == (monomial(1, 2, 6) + monomial(1, 4, 6)).coeffs
    b1 = monomial(1, 0, 8).div_binomial(1, 1).div_binomial(1, 2)
    assert lj.beta(1, 8).coeffs == b1.coeffs

    sl = pair("slater-h1")
    assert sl.alpha(0, 6).coeffs == one(6).coeffs
    assert sl.alpha(1, 6).coeffs == (monomial(1, 2, 6) - one(6)).coeffs
    s1 = monomial(1, 1, 8).div_binomial(1, 1).div_binomial(1, 1)
    assert sl.beta(1, 8).coeffs == s1.coeffs


def test_first_level_relation_by_hand():
    # n = 1: alpha_0/((q;q)_1 (aq;q)_2-ish denominators) + alpha_1 term
    p = pair("lovejoy-q2")
    n, order = 1, 40
    want = _beta_naive(p, n, order)
    assert p.beta(n, order).equal_up_to(want, order)


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_relation_against_naive_products(name):
    p = pair(name)
    order = 40
    for n in range(7):
        assert p.beta(n, order).equal_up_to(_beta_naive(p, n, order), order), n


def _closed_beta(name, n, order):
    """beta_n in closed form, from poch_finite and invert: 1/((q;q)_n (q^2;q)_n)
    for lovejoy-q2 and q^n/(q;q)_n^2 for slater-h1."""
    qq = poch_finite(Q, 1, n, order)
    if name == "lovejoy-q2":
        return (qq * poch_finite(Monomial(1, 2), 1, n, order)).invert()
    return monomial(1, n, order) * (qq * qq).invert()


def _assert_same(got, want):
    got = divided(got)  # a lemma side whose divides do not all net is a Quotient
    assert got.order == want.order
    assert got.coeffs == want.coeffs
    assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]


@pytest.mark.parametrize("order", (0, 1, 60, 400))
@pytest.mark.parametrize("name", sorted(PAIRS))
def test_betas_match_their_closed_forms(name, order):
    for n, beta in zip(range(41), pair(name).betas(order)):
        _assert_same(beta, _closed_beta(name, n, order))


def _factor(c, e, order):
    """1 - c*q^e as an explicit series."""
    return one(order) - monomial(c, e, order)


@pytest.mark.parametrize("order", (0, 1, 60, 400))
def test_betas_take_a_sign_and_a_multiply(order):
    # beta_(n+1)/beta_n = -q^(n+1) (1 - q^(2n+2)) / ((1 - q^(n+1)) (1 + q^(n+1))):
    # the package pairs' tables have neither a sign -1 nor a multiply
    ratio = Ratio((-1, 1, 1), muls=((1, 2, 2),), divs=((1, 1, 1), (-1, 1, 1)))
    synthetic = BaileyPair("synthetic", Monomial(1, 0), lambda r: ((0, 1),), lambda r: 0, ratio)
    want = one(order)
    for n, beta in zip(range(41), synthetic.betas(order)):
        _assert_same(beta, want)
        want = want * monomial(-1, n + 1, order) * _factor(1, 2 * n + 2, order)
        want = want * _factor(1, n + 1, order).invert() * _factor(-1, n + 1, order).invert()


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_bailey_check(name):
    rep = bailey_check(name, 20, 120)
    assert rep.ok, rep.to_dict()
    assert rep.name == f"bailey:{name}"
    assert bailey_check(name, 0, 10).ok


def test_bailey_check_refuses_a_negative_bound_before_building(monkeypatch):
    def refused(*args):
        raise AssertionError("built a relation for n_max < 0")

    monkeypatch.setattr(bailey, "_relation_pairs", refused)
    with pytest.raises(ValueError, match="n_max"):
        bailey_check("slater-h1", -1, 10)


def test_lemma_sides_agree():
    for name, a in LEMMA_CASES:
        lhs, rhs = lemma_sides(name, a, 150)
        assert lhs.equal_up_to(rhs, 150), name
        assert lhs.is_integral() and rhs.is_integral()
        assert verify_lemma(name, a, 150).ok


def test_lemma_constant_term():
    lhs, rhs = lemma_sides("slater-h1", Monomial(-1, 0), 0)
    assert lhs.coeffs == (1,)
    assert rhs.coeffs == (1,)


def test_lemma_relative_guard():
    with pytest.raises(MismatchedRelativeError):
        lemma_sides("lovejoy-q2", Monomial(-1, 0), 10)
    with pytest.raises(MismatchedRelativeError):
        lemma_sides("slater-h1", Monomial(-1, 1), 10)


def test_lemma_positive_specialization():
    # the lemma holds at a = +q as well; its relative squares to q^2
    lhs, rhs = lemma_sides("lovejoy-q2", Monomial(1, 1), 80)
    assert lhs.equal_up_to(rhs, 80)
    assert lhs.coeffs[:8] == (1, 0, 1, 1, -1, 3, -1, 1)


def _add_shifted(acc, cs, e, c=1):
    """acc += c * q^e * cs, clipped to len(acc), in C-level passes over slices."""
    top = min(len(acc), e + len(cs))
    acc[e:top] = _plus_scaled(acc[e:top], cs, c)


def _reference_lemma_sides(p, a, order):
    """Both lemma sides built apart from lemma_sides' walks: the infinite
    products times the divided ratio sum, and alpha_r for every r <= order
    read as a dense series and added in shifted copies."""
    weight = Ratio(
        (1, 0, 1),
        muls=((a.c, 1, a.e), (1, 2, 2 * a.e + 1)),
        divs=((-a.c, 1, a.e + 1),),
    )
    total = divided(ratio_sum(one(order), weight * p.beta_ratio, order))
    paren = poch_infinite(Monomial(-a.c, a.e + 1), 1, order)
    lhs = poch_infinite(Q, 1, order) * paren * paren * total
    acc = [0] * (order + 1)
    for r in range(order + 1):
        alpha_r = p.alpha(r, order)
        if alpha_r.is_zero():
            continue
        dr = list(alpha_r.coeffs)
        if r:
            _mul_binomial_inplace(dr, a.c, a.e)
            _div_binomial_inplace(dr, a.c, a.e + r)
        n = 0
        while 2 * n * n + 2 * n * r + n + r + 2 * n * a.e <= order:
            e = 2 * n * n + 2 * n * r + n + r + 2 * n * a.e
            _add_shifted(acc, dr, e)
            if e + a.e + r + 2 * n + 1 <= order:
                _add_shifted(acc, dr, e + a.e + r + 2 * n + 1, a.c)
            n += 1
    return lhs, QSeries(acc, order)


#: every lemma parameter the tests use: the derivations' two, a = +q and a = +1
LEMMA_PARAMETERS = LEMMA_CASES + (("lovejoy-q2", Monomial(1, 1)), ("slater-h1", Monomial(1, 0)))


@pytest.mark.parametrize("order", (0, 1, 2, 7, 60, 400, 800))
def test_lemma_sides_match_the_products_and_the_dense_alphas(order):
    for name, a in LEMMA_PARAMETERS:
        for p in (pair(name), _gapped(pair(name)), _scrambled(pair(name), order, 10**6)):
            for got, want in zip(lemma_sides(p, a, order), _reference_lemma_sides(p, a, order)):
                _assert_same(got, want)


def test_chain_stage_reports():
    reps = chain_stage_reports(120)
    assert len(reps) == len(CHAIN_STAGE_IDS)
    assert len(set(CHAIN_STAGE_IDS)) == len(CHAIN_STAGE_IDS)
    for rep in reps:
        assert rep.ok, rep.to_dict()
        assert rep.name.startswith("chain:")


def test_chain_stages_tiny_order():
    assert all(r.ok for r in chain_stage_reports(4))
    assert verify_chain(4).ok


def test_verify_chain_aggregate():
    rep = verify_chain(80)
    assert rep.ok
    assert "stages hold" in rep.note


# -- the relation multiplied through, against a shifted-add loop ----------------


def _shifted_add_relation(p, n_max, order):
    """The relation sums multiplied through by (q;q)_n (aq;q)_n, for
    n = 0 .. n_max: each denominator started at 1, each alpha_r rebuilt and
    added term by shifted term."""
    a = p.relative
    sums = []
    for n in range(n_max + 1):
        acc = [0] * (order + 1)
        den = [1] + [0] * order
        for r in range(n + 1):
            if r:
                _mul_binomial_inplace(den, 1, n - r + 1)
                _div_binomial_inplace(den, a.c, a.e + n + r)
            for e, c in enumerate(p.alpha(r, order).coeffs):
                if c:
                    _add_shifted(acc, den, e, c)
        sums.append(QSeries(acc, order))
    return sums


def _scrambled(p, seed, amplitude=3):
    """p with a random integer alpha, so the relation sums differ from beta
    and the comparison sees every term: alpha_r has up to 3r + 3 terms in
    [-amplitude, amplitude] from q^(r^2-r) up, for r <= 40, the last r
    whose terms reach order 1600, and none past it."""

    def alpha_terms(r):
        if r > 40:
            return ()
        rng = random.Random(seed * 1000 + r)
        terms = [(r * r - r + j, rng.randint(-amplitude, amplitude)) for j in range(3 * r + 3)]
        return tuple((e, c) for e, c in terms if c)

    return BaileyPair(
        f"{p.name}-scrambled", p.relative, alpha_terms, lambda r: r * r - r, p.beta_ratio
    )


def _gapped(p):
    """p with alpha_2 and alpha_5 zero between nonzero rows, so a sum over
    r that stops at the first zero alpha_r misses alpha_3 and alpha_4."""
    gaps = (2, 5)
    return BaileyPair(
        f"{p.name}-gapped",
        p.relative,
        lambda r: () if r in gaps else p.alpha_terms(r),
        p.alpha_low,
        p.beta_ratio,
    )


def _alternating(p):
    """p with alpha_1 = sum (-1)^j 1000 q^j, j < 1000, and every other alpha_r
    zero: a divide in the Horner walk can grow its coefficients by up to
    the row's length, near the packed divide's worst case."""
    row = tuple((j, (-1) ** j * 1000) for j in range(1000))
    return BaileyPair(
        f"{p.name}-alternating",
        p.relative,
        lambda r: row if r == 1 else (),
        lambda r: 0,
        p.beta_ratio,
    )


@pytest.mark.parametrize("order", (0, 1, 7, 60, 400))
@pytest.mark.parametrize("name", sorted(PAIRS))
def test_horner_relation_sums_match_the_shifted_adds(name, order):
    p = pair(name)
    for q in (p, _scrambled(p, order), _scrambled(p, order, 10**6), _gapped(p), _alternating(p)):
        got = [lhs for _, lhs, _ in bailey._relation_pairs(q, 12, order)]
        assert [s.coeffs for s in got] == [s.coeffs for s in _shifted_add_relation(q, 12, order)]


def test_a_stage_with_one_builder_on_both_sides_fails(monkeypatch):
    stages = bailey.CHAIN_STAGES[:1] + (("C:twice-the-same", lambda o: (bailey._poch3(o),) * 2),)
    monkeypatch.setattr(bailey, "CHAIN_STAGES", stages)
    first, same = chain_stage_reports(30)
    assert first.ok
    assert (same.ok, same.mismatch, same.note) == (False, None, SAME_OBJECT_NOTE)
    # outside a sharing scope the two calls build two objects, which agree
    assert check("x", 30, [("", bailey._poch3(30), bailey._poch3(30))]).ok
    with sharing():
        assert not check("x", 30, [("", bailey._poch3(30), bailey._poch3(30))]).ok


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_bailey_check_makes_no_series_product(name, monkeypatch):
    calls = []

    def counted(f):
        def run(*args):
            calls.append(f.__name__)
            return f(*args)

        return run

    monkeypatch.setattr(QSeries, "__mul__", counted(QSeries.__mul__))
    for module, attr in ((series, "_kronecker_mul"), (series, "_sparse_mul"), (products, "_kronecker_mul")):
        monkeypatch.setattr(module, attr, counted(getattr(module, attr)))
    assert bailey_check(name, RELATION_DEPTH, 400).ok
    assert calls == []


def _closed_relation_rhs(name, n, order):
    """(q;q)_n (aq;q)_n beta_n coefficient by coefficient:
    (1 - q^(n+2))/(1 - q^2) = sum_k q^(2k) - q^(n+2) sum_k q^(2k) for
    lovejoy-q2, q^n for slater-h1."""
    if name == "slater-h1":
        return [int(e == n) for e in range(order + 1)]
    return [(e % 2 == 0) - (e >= n + 2 and (e - n) % 2 == 0) for e in range(order + 1)]


@pytest.mark.parametrize("order", (0, 1, 60, 400))
@pytest.mark.parametrize("name", sorted(PAIRS))
def test_relation_right_sides_are_beta_times_the_unit(name, order):
    p = pair(name)
    aq = Monomial(p.relative.c, p.relative.e + 1)
    sides = bailey._relation_pairs(p, 40, order)
    for n, (_, _, rhs), beta in zip(range(41), sides, p.betas(order)):
        assert rhs.order == order
        assert list(rhs.coeffs) == _closed_relation_rhs(name, n, order), n
        assert all(type(c) is int for c in rhs.coeffs)
        unit = poch_finite(Q, 1, n, order) * poch_finite(aq, 1, n, order)
        assert rhs.coeffs == (beta * unit).coeffs, n


def _drop_alpha_7_last_term(p):
    return BaileyPair(
        f"{p.name}-slip",
        p.relative,
        lambda r: p.alpha_terms(r)[:-1] if r == 7 else p.alpha_terms(r),
        p.alpha_low,
        p.beta_ratio,
    )


def _beta_ratio_slipped(p, beta_ratio):
    return BaileyPair(p.name, p.relative, p.alpha_terms, p.alpha_low, beta_ratio)


#: (pair with a slip, n, mismatch): n, the exponent and lhs - rhs there are
#: those of the relation before it is multiplied through
SLIPS = (
    (_beta_ratio_slipped(PAIRS["lovejoy-q2"], Ratio((1, 0, 0), divs=((1, 1, 1), (1, 1, 3)))), 1, (2, 1, 0)),
    (_beta_ratio_slipped(PAIRS["slater-h1"], Ratio((1, 0, 1), divs=((1, 1, 1), (1, 1, 2)))), 1, (2, 0, -1)),
    (_beta_ratio_slipped(PAIRS["slater-h1"], Ratio((-1, 0, 1), divs=((1, 1, 1), (1, 1, 1)))), 1, (1, 1, -1)),
    (_drop_alpha_7_last_term(PAIRS["lovejoy-q2"]), 7, (70, 0, 1)),
    (_drop_alpha_7_last_term(PAIRS["slater-h1"]), 7, (56, -1, 0)),
)


@pytest.mark.parametrize("slip, n, mismatch", SLIPS)
def test_relation_slips_fail_at_their_n_and_exponent(slip, n, mismatch):
    report = bailey_check(slip, 40, 120)
    assert (report.ok, report.mismatch, report.note) == (
        False, mismatch, f"defining relation fails at n={n}"
    )


# -- the D chain's netted core and its square forms ----------------------------


def _divided_d_core(order):
    """(q;q)_inf^3 times the core sum S walked from its n = 1 term
    q^2/(1-q)^2 with nothing netted, and divided."""
    ratio = Ratio(
        (1, 0, 2),
        muls=((-1, 1, 0), (1, 2, 1)),
        divs=((1, 1, 1), (1, 1, 1), (1, 1, 1)),
    )
    init = one(order).div_binomial(1, 1).div_binomial(1, 1)
    p = poch_infinite(Q, 1, order)
    return divided(p * p * p * ratio_sum(init, ratio, order, start=1, at=2))


def _refuse(*args):
    raise AssertionError("built a product or divided")


@pytest.mark.parametrize("order", (0, 1, 2, 3, 60, 400))
def test_d_core_product_nets_the_divided_walk(order, monkeypatch):
    want = _divided_d_core(order)
    tails = []
    real = products._kronecker_mul

    def tail_only(cs, tail, n):
        # the one product ratio_sum may make: the factors left past the
        # walk's last divide, as 1 - sum c*k*q^e with every 2e past the
        # end, as for gen_family("D")
        assert all(2 * e >= len(cs) for e, c in enumerate(tail) if e and c)
        tails.append(n)
        return real(cs, tail, n)

    for module in (products, bailey):
        monkeypatch.setattr(module, "poch_infinite", _refuse)
    monkeypatch.setattr(products, "_kronecker_mul", tail_only)
    monkeypatch.setattr(QSeries, "__mul__", _refuse)
    monkeypatch.setattr(QSeries, "invert", _refuse)
    got = bailey._d_core_product(order)
    assert isinstance(got, QSeries)
    assert len(tails) <= 1
    _assert_same(got, want)


def test_the_ladder_split_compares_a_netted_walk_with_an_un_netted_one():
    # D:ladder-binomial-split keeps two codings: the core nets every divide
    # (test above), the middle ladder multiplies its products into a quotient
    assert isinstance(bailey._d_ladder_middle(60), Quotient)


_A3_ROWS = Theta2D(2, 1, 4, 4, shift=-2, div=8)
_grouped_assembly = bailey._d_grouped_assembly


def _a3_offset_raised(order):
    # the r >= 1 rows with b2 two higher: every exponent stays integral
    return (
        _grouped_assembly(order)
        - theta2d(_A3_ROWS, order).scale(2)
        + theta2d(Theta2D(2, 1, 4, 6, shift=-2, div=8), order).scale(2)
    )


def _a3_column_dropped(order):
    # the r = 0 column, 2n^2+3n+1, left out
    return _grouped_assembly(order) - theta1d(Theta1D((16, 24, 8), div=8), order).scale(2)


@pytest.mark.parametrize(
    "slip, mismatches",
    (
        (_a3_offset_raised, {"eighth-square-forms": (3, 3, 1), "diagonals-paired-up": (3, 1, 3)}),
        (
            _a3_column_dropped,
            {"eighth-square-forms": (1, -3, -5), "diagonals-paired-up": (1, -5, -3)},
        ),
    ),
)
def test_a_slip_in_the_grouped_assembly_fails_its_two_stages(slip, mismatches, monkeypatch):
    monkeypatch.setattr(bailey, "_d_grouped_assembly", slip)
    failed = {r.name: r.mismatch for r in chain_stage_reports(60) if not r.ok}
    assert failed == {f"chain:D:{stage}": m for stage, m in mismatches.items()}
