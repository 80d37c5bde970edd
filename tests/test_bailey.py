"""Bailey pairs, the lemma specialization, and the stagewise proof chains."""

import random

import pytest

from overq import bailey
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
from overq.products import Monomial, poch_finite, sharing
from overq.report import SAME_OBJECT_NOTE, check
from overq.series import (
    QSeries,
    _add_inplace,
    _div_binomial_inplace,
    _mul_binomial_inplace,
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


def test_pair_lookup():
    assert pair("lovejoy-q2").relative == Monomial(1, 2)
    assert pair("slater-h1").relative == Monomial(1, 0)
    with pytest.raises(KeyError):
        pair("nope")


def test_alpha_beta_fixtures():
    lj = pair("lovejoy-q2")
    assert lj.alpha(0, 6).coeffs == one(6).coeffs
    assert lj.alpha(1, 6).coeffs == (monomial(1, 2, 6) + monomial(1, 4, 6)).coeffs
    b1 = monomial(1, 0, 8).div_binomial(-1, 1).div_binomial(-1, 2)
    assert lj.beta(1, 8).coeffs == b1.coeffs

    sl = pair("slater-h1")
    assert sl.alpha(0, 6).coeffs == one(6).coeffs
    assert sl.alpha(1, 6).coeffs == (monomial(1, 2, 6) - one(6)).coeffs
    s1 = monomial(1, 1, 8).div_binomial(-1, 1).div_binomial(-1, 1)
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


# -- the Horner relation sum against the shifted-add loop it replaced ----------


def _shifted_add_relation(p, n_max, order):
    """The relation sums for n = 0 .. n_max: each denominator advanced from
    the last, each alpha_r rebuilt and added term by shifted term."""
    a = p.relative
    p0 = [0] * (order + 1)
    p0[0] = 1
    sums = []
    for n in range(n_max + 1):
        if n:
            _div_binomial_inplace(p0, -1, n)
            _div_binomial_inplace(p0, -a.c, a.e + n)
        acc = [0] * (order + 1)
        den = list(p0)
        for r in range(n + 1):
            if r:
                _mul_binomial_inplace(den, -1, n - r + 1)
                _div_binomial_inplace(den, -a.c, a.e + n + r)
            for e, c in enumerate(p.alpha(r, order).coeffs):
                if c:
                    _add_inplace(acc, den, e, c)
        sums.append(QSeries(acc, order))
    return sums


def _scrambled(p, seed):
    """p with a random integer alpha, so the relation sums differ from beta
    and the comparison sees every term."""

    def alpha(r, order):
        rng = random.Random(seed * 1000 + r)
        lo = r * r - r
        return QSeries(
            [rng.randint(-3, 3) if lo <= i <= lo + 3 * r + 2 else 0 for i in range(order + 1)],
            order,
        )

    return BaileyPair(f"{p.name}-scrambled", p.relative, alpha, p.beta_ratio)


@pytest.mark.parametrize("order", (0, 1, 7, 60, 400))
@pytest.mark.parametrize("name", sorted(PAIRS))
def test_horner_relation_sums_match_the_shifted_adds(name, order):
    for p in (pair(name), _scrambled(pair(name), order)):
        got = [lhs for _, lhs, _ in bailey._relation_pairs(p, 12, order)]
        assert [s.coeffs for s in got] == [s.coeffs for s in _shifted_add_relation(p, 12, order)]


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
