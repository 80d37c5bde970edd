"""The chain's stage table: its names resolve, its sides are pinned, the
two sides of a stage share no @shared builder beyond an audited list, and
no two builders repeat one ratio_sum walk."""

import hashlib
from collections import Counter

import pytest

from overq import bailey, identities, products
from overq.products import sharing
from overq.series import divided

#: SHA-256 over every stage's two sides at orders 0, 1, 60 and 400, taken
#: from the hand-written stage functions the table replaced
SIDE_DIGEST = "ed6a3da896035dd8fe0fb660af629c2309571b9ba212a907a58e25c4bee800fa"

#: leaf products that any two sides may build: a closed-form Pochhammer
#: product, not a step of the derivation
LEAF_BUILDERS = frozenset({"poch_infinite"})

#: (stage, builder) -> why both sides of the stage may build it
SHARED_ON_BOTH_SIDES = {
    ("C:overline-factor-pulled-out", "_c_ladder_tails"): (
        "the display pulls the multiplier (-q;q)_inf out of one ladder; the stage "
        "checks that it cancels the overline ladder's denominator (-q;q)_inf"
    ),
    ("C:euler-reciprocal-swap", "_c_ladder_overline"): (
        "the display swaps the multiplier (-q;q)_inf for 1/(q;q^2)_inf in front "
        "of one ladder; the stage checks Euler's identity on that multiplier"
    ),
    ("C:euler-reciprocal-swap", "_c_ladder_tails"): (
        "the numerator of the overline ladder that both multipliers stand in "
        "front of; the stage checks Euler's identity on the multiplier"
    ),
    ("C:even-odd-tails-merged", "_c_ladder_squared_tails"): (
        "one walk over two denominators: the stage checks that "
        "(q^2;q^2)_inf (q^3;q^2)_inf is (q^2;q)_inf"
    ),
    ("D:extended-to-r0", "_d_v_from"): (
        "one four-term lattice at r0 = 1 against r0 = 0: the stage checks that "
        "the r = 0 row vanishes, which is all the two calls differ by"
    ),
}


def side_digest(orders) -> str:
    h = hashlib.sha256()
    with sharing():
        for order in orders:
            for name, build in bailey.CHAIN_STAGES:
                for side in map(divided, build(order)):
                    h.update(repr((name, order, side.order, side.coeffs)).encode())
    return h.hexdigest()


def shared_builders(side, order: int) -> set[str]:
    """Names of the @shared builders one side calls, built alone in a fresh scope."""
    assert products._MEMO.get() is None
    with sharing():
        bailey._side(side)(order)
        return {builder.__name__ for builder, _ in products._MEMO.get()} - LEAF_BUILDERS


def overlaps(table, order: int) -> set[tuple[str, str]]:
    """(stage, builder) for every @shared builder that both sides of a row call."""
    found = set()
    for name, lhs, rhs in table:
        both = shared_builders(lhs, order) & shared_builders(rhs, order)
        found |= {(name, builder) for builder in both}
    return found


def test_every_named_side_is_a_module_callable():
    sides = [side for _, lhs, rhs in bailey.CHAIN_TABLE for side in (lhs, rhs)]
    names = [side for side in sides if isinstance(side, str)]
    assert names
    for name in names:
        assert callable(vars(bailey).get(name)), name


def test_sides_match_the_pinned_digest():
    assert side_digest((0, 1, 60, 400)) == SIDE_DIGEST


@pytest.mark.parametrize("order", (0, 60))
def test_sides_share_only_the_audited_builders(order):
    assert overlaps(bailey.CHAIN_TABLE, order) == set(SHARED_ON_BOTH_SIDES)


def test_audit_flags_a_builder_on_both_sides():
    row = ("C:scratch", "_c_explicit_sum", lambda o: bailey._c_sum_triple(o).shift(1))
    assert overlaps((row,), 30) == {("C:scratch", "_c_sum_triple")}


def test_no_two_walks_take_equal_arguments(monkeypatch):
    # a builder that repeats another's walk should take that builder's
    # result; two walks that compile to one row set from two transcriptions
    # of the table are different arguments, and kept on purpose: lovejoy's
    # lemma left side and _c_ladder_odd_tail, _d_core_product and
    # gen_family("D")
    calls = []
    real = products.ratio_sum

    def spy(init, ratio, order, start=0, at=0, factors=()):
        calls.append((tuple(init.coeffs), init.order, ratio, order, start, at, tuple(factors)))
        return real(init, ratio, order, start, at, factors)

    monkeypatch.setattr(bailey, "ratio_sum", spy)
    monkeypatch.setattr(identities, "ratio_sum", spy)  # gen_family's walk
    assert all(r.ok for r in bailey.chain_stage_reports(60))
    assert [call[2:] for call, times in Counter(calls).items() if times > 1] == []
    assert len(calls) == 12  # the chain's ten walks and the two gen_family sums


def test_a_slip_in_d_p_fails_the_product_expanded_stage(monkeypatch):
    # _d_v_product_form writes its exponent out rather than calling _d_p, so
    # a slip in _d_p shows on D:product-expanded, not only at other stages
    d_p = bailey._d_p
    monkeypatch.setattr(bailey, "_d_p", lambda r, n: d_p(r, n) + ((r, n) == (2, 1)))
    failed = {r.name for r in bailey.chain_stage_reports(60) if not r.ok}
    assert "chain:D:product-expanded" in failed
