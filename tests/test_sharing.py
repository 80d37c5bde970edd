"""The sharing scope: repeated builder calls return one result, never a
different builder's, and the scope changes no coefficient."""

import pytest

from overq import bailey
from overq.products import Monomial, poch_infinite, shared, sharing
from overq.series import divided

Q = Monomial(1, 1)


def test_repeat_call_in_scope_is_the_same_object():
    with sharing():
        p = poch_infinite(Q, 1, 50)
        assert poch_infinite(Q, 1, 50) is p
        assert poch_infinite(Q, 2, 50) is not p
        assert poch_infinite(Q, 1, 51) is not p
        sides = bailey.lemma_sides(bailey.PAIRS["slater-h1"], Monomial(-1, 0), 30)
        assert bailey.lemma_sides(bailey.PAIRS["slater-h1"], Monomial(-1, 0), 30) is sides


def test_no_scope_builds_afresh():
    p = poch_infinite(Q, 1, 50)
    again = poch_infinite(Q, 1, 50)
    assert again is not p and again.coeffs == p.coeffs
    with sharing():
        inside = poch_infinite(Q, 1, 50)
    assert poch_infinite(Q, 1, 50) is not inside


def test_nested_scope_keeps_the_outer_memo():
    with sharing():
        p = poch_infinite(Q, 1, 40)
        with sharing():
            assert poch_infinite(Q, 1, 40) is p
            inner = poch_infinite(Q, 3, 40)
        assert poch_infinite(Q, 1, 40) is p
        assert poch_infinite(Q, 3, 40) is inner


def test_a_builder_that_raises_is_not_cached():
    runs = []

    @shared
    def flaky(order):
        runs.append(order)
        if len(runs) == 1:
            raise ValueError("first build fails")
        return [order]

    with sharing():
        with pytest.raises(ValueError):
            flaky(3)
        first = flaky(3)
        assert first == [3] and flaky(3) is first
    assert runs == [3, 3]


def _typed(side):
    return [(type(c), c) for c in divided(side).coeffs]


@pytest.mark.parametrize("order", [60, 120])
def test_chain_stages_unchanged_by_the_scope(order):
    alone = [builder(order) for _, builder in bailey.CHAIN_STAGES]
    with sharing():
        together = [builder(order) for _, builder in bailey.CHAIN_STAGES]
    for name, (lhs, rhs), (lhs2, rhs2) in zip(bailey.CHAIN_STAGE_IDS, alone, together):
        assert _typed(lhs) == _typed(lhs2), name
        assert _typed(rhs) == _typed(rhs2), name
