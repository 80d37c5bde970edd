"""Family generating series, theorem sides, and the classical identity suite."""

import random

import pytest

from overq.enumeration import FAMILIES, is_sum_two_triangular, oracle_compare
from overq.identities import (
    _BASIC_FACTS,
    CLASSICAL_IDS,
    MAPPED_FAMILIES,
    aw_sides,
    classical,
    fine_sides,
    gen_family,
    mapped_inner_order,
    psi_product,
    psi_theta,
    rhs_theorem,
    verify_classical,
    verify_theorem,
)
from overq.products import Monomial, NegativeExponentFactor, poch_finite, poch_infinite
from overq.series import divided, monomial, zero

ALL_FAMILIES = tuple(FAMILIES)


def _gen_by_products(name, order):
    """Rebuild the generating sum term by term from whole Pochhammer
    products; slow but structurally independent of the incremental path."""
    spec = FAMILIES[name]
    cf, df = spec.fin_factor
    total = zero(order)
    s = 1
    while spec.prefactor * s <= order:
        term = monomial(1, spec.prefactor * s, order)
        for c, d, m in spec.inf_factors:
            p = poch_infinite(Monomial(c, s + d), 1, order)
            for _ in range(m):
                term = term * p
        term = term * poch_finite(Monomial(cf, s + df), 1, s, order)
        total = total + term
        s += 1
    return total


@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_gen_family_matches_product_rebuild(name):
    order = 60
    assert gen_family(name, order).equal_up_to(_gen_by_products(name, order), order)


@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_gen_family_matches_enumeration(name):
    assert oracle_compare(name, 18).ok


def test_gen_family_spot_values():
    g = gen_family("A", 10)
    assert [g.coeff(n) for n in range(11)] == [0, 1, 0, -2, 0, 0, 3, 0, 0, 0, -4]
    assert gen_family("F", 0).is_zero()


@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_verify_theorem(name):
    order = 162 if name in MAPPED_FAMILIES else 120
    rep = verify_theorem(name, order)
    assert rep.ok, rep.to_dict()


def test_verify_theorem_tiny_order():
    assert verify_theorem("G", 1).ok


def test_rhs_spot_values():
    assert rhs_theorem("A", 3).coeff(3) == -2
    assert rhs_theorem("B", 3).coeff(3) == 1
    assert rhs_theorem("F", 12).coeff(12) == 1
    a2 = rhs_theorem("A2", 12)
    assert [(n, a2.coeff(n)) for n in (1, 3, 6, 10)] == [
        (1, 1), (3, 2), (6, 3), (10, 4)
    ]
    assert sum(1 for c in a2.coeffs if c) == 4


def test_rhs_pentagonal_family_term_level():
    # nonzero only at generalized pentagonal exponents n(3n-1)/2, n >= 1,
    # with value (-1)^(n+1)
    got = rhs_theorem("F", 200)
    want = [0] * 201
    n = 1
    while (3 * n * n - n) // 2 <= 200:
        want[(3 * n * n - n) // 2] = (-1) ** (n + 1)
        n += 1
    assert got.coeffs == tuple(want)


def test_psi_sum_equals_psi_product():
    assert psi_theta(200).equal_up_to(divided(psi_product(200)), 200)


@pytest.mark.parametrize("cid", CLASSICAL_IDS)
def test_verify_classical(cid):
    rep = verify_classical(cid, 150)
    assert rep.ok, rep.to_dict()


def test_classical_sides_unknown_id():
    with pytest.raises(KeyError):
        classical("nope")


def test_two_square_support():
    # the mapped families live on exponents n with 8n+2 a sum of two odd
    # squares, equivalently n a sum of two triangular numbers
    for name in sorted(MAPPED_FAMILIES):
        g = gen_family(name, 120)
        for n in range(121):
            if g.coeff(n) != 0:
                assert is_sum_two_triangular(n), (name, n)
                two_sq = any(
                    (8 * n + 2 - a * a) >= 0
                    and round((8 * n + 2 - a * a) ** 0.5) ** 2 == 8 * n + 2 - a * a
                    for a in range(1, 8 * n + 3)
                    if a * a <= 8 * n + 2
                )
                assert two_sq, (name, n)


def test_mapped_inner_order():
    assert mapped_inner_order(1202) == 150
    assert mapped_inner_order(2) == 0
    assert mapped_inner_order(1) == 0
    assert mapped_inner_order(10) == 1


def test_fine_sides_validation():
    with pytest.raises(NegativeExponentFactor):
        fine_sides(Monomial(1, 0), Monomial(1, 0), 10)
    with pytest.raises(NegativeExponentFactor):
        fine_sides(Monomial(1, -2), Monomial(1, 1), 10)


def test_fine_sides_generic_instances():
    for a, t in (
        (Monomial(1, 1), Monomial(1, 2)),
        (Monomial(-1, 0), Monomial(1, 1)),
        (Monomial(1, -1), Monomial(-1, 2)),
    ):
        lhs, rhs = fine_sides(a, t, 80)
        assert divided(lhs).equal_up_to(divided(rhs), 80), (a, t)


def test_aw_sides_validation():
    with pytest.raises(ValueError):
        aw_sides(0, 10)
    with pytest.raises(ValueError):
        aw_sides(2, 10)


def test_verify_theorem_unknown_family():
    with pytest.raises(KeyError):
        verify_theorem("E", 10)


def test_basic_facts_table_is_the_seeded_draws():
    # the six parameter sets are the draws the checks once made at run time
    rng = random.Random(8232026)
    drawn = [
        (rng.choice((1, -1)), rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 8), rng.randint(0, 8))
        for _ in range(6)
    ]
    assert list(_BASIC_FACTS) == drawn
    labels = [label for label, _, _ in classical("basic-facts")(4)]
    assert len(labels) == 18 and labels[:3] == [
        "finite-split[a=-q^2,base=1,n=5,m=1]",
        "tail-split[a=-q^2,base=1,n=5]",
        "parity-split[a=-q^2,base=1]",
    ]
