"""Pochhammer products, theta sums, and the basic-hypergeometric kernel."""

import random

import pytest

from overq.series import QSeries, monomial, one
from overq.products import (
    Monomial,
    NegativeExponentFactor,
    NonconvergentProduct,
    NonintegralExponent,
    NonterminatingSum,
    Theta1D,
    Theta2D,
    ZeroDenominator,
    lattice_sum,
    phi32,
    poch_finite,
    poch_infinite,
    theta1d,
    theta2d,
)

Q = Monomial(1, 1)


def test_poch_finite_fixtures():
    assert poch_finite(Q, 1, 0, 5).coeffs == one(5).coeffs
    assert poch_finite(Q, 1, 1, 3).coeffs == (1, -1, 0, 0)
    # (-1; q^2)_2 = (1+1)(1+q^2), then a third factor gives (1+q^2)(1+q^4)
    got = poch_finite(Monomial(-1, 2), 2, 2, 6)
    assert got.coeffs == (1, 0, 1, 0, 1, 0, 1)


def test_poch_finite_hand_expansion():
    # (q;q)_5 multiplied out by hand
    want = [0] * 16
    for e, c in (
        (0, 1), (1, -1), (2, -1), (5, 1), (6, 1), (7, 1),
        (8, -1), (9, -1), (10, -1), (13, 1), (14, 1), (15, -1),
    ):
        want[e] = c
    assert poch_finite(Q, 1, 5, 15).coeffs == tuple(want)


def test_poch_infinite_euler_pentagonal_prefix():
    got = poch_infinite(Q, 1, 12)
    want = [0] * 13
    for e, c in ((0, 1), (1, -1), (2, -1), (5, 1), (7, 1), (12, -1)):
        want[e] = c
    assert got.coeffs == tuple(want)


def test_poch_infinite_requires_growth():
    with pytest.raises(NonconvergentProduct):
        poch_infinite(Monomial(1, 0), 1, 10)
    with pytest.raises(NegativeExponentFactor):
        poch_finite(Monomial(1, -2), 1, 3, 10)


def test_monomial_validation():
    with pytest.raises(ValueError):
        Monomial(2, 1)
    with pytest.raises(ValueError):
        Monomial(0, 1)
    assert Monomial(-1, 3).squared() == Monomial(1, 6)


def test_euler_odd_distinct():
    # (-q;q)_inf * (q;q^2)_inf = 1
    n = 100
    lhs = poch_infinite(Monomial(-1, 1), 1, n) * poch_infinite(Q, 2, n)
    assert lhs.equal_up_to(one(n), n)


def test_parity_split_of_euler_product():
    n = 100
    lhs = poch_infinite(Q, 1, n)
    rhs = poch_infinite(Q, 2, n) * poch_infinite(Monomial(1, 2), 2, n)
    assert lhs.equal_up_to(rhs, n)


def test_pochhammer_splitting_random():
    # (a;Q)_{n+m} = (a;Q)_n * (a Q^n;Q)_m
    rng = random.Random(8232026)
    order = 60
    for _ in range(10):
        base = rng.randint(1, 3)
        a = Monomial(rng.choice((1, -1)), rng.randint(0 if rng.random() < 0.5 else 1, 4))
        n, m = rng.randint(0, 8), rng.randint(0, 8)
        lhs = poch_finite(a, base, n + m, order)
        shifted = Monomial(a.c, a.e + base * n)
        rhs = poch_finite(a, base, n, order) * poch_finite(shifted, base, m, order)
        assert lhs.equal_up_to(rhs, order), (a, base, n, m)


def test_tail_splitting_random():
    # (a;Q)_inf = (a;Q)_n * (a Q^n;Q)_inf
    rng = random.Random(20260823)
    order = 100
    for _ in range(10):
        base = rng.randint(1, 3)
        a = Monomial(rng.choice((1, -1)), rng.randint(1, 4))
        n = rng.randint(0, 10)
        lhs = poch_infinite(a, base, order)
        shifted = Monomial(a.c, a.e + base * n)
        rhs = poch_finite(a, base, n, order) * poch_infinite(shifted, base, order)
        assert lhs.equal_up_to(rhs, order), (a, base, n)


def test_theta1d_pentagonal_matches_product():
    n = 300
    # two-sided pentagonal sum folded to n >= 0 terms at (3k^2 +/- k)/2
    left = theta1d(Theta1D((3, 1, 0), div=2, sign="alternating"), n)
    right = theta1d(Theta1D((3, -1, 0), div=2, start=1, sign="alternating-shifted"), n)
    assert (left - right).equal_up_to(poch_infinite(Q, 1, n), n)


def test_theta1d_jacobi_cube():
    n = 300
    p = poch_infinite(Q, 1, n)
    cube = p * p * p
    sum_side = theta1d(
        Theta1D((1, 1, 0), div=2, sign="alternating", weight=(2, 1)), n
    )
    assert sum_side.equal_up_to(cube, n)


def test_theta1d_gauss_psi():
    n = 300
    psi_sum = theta1d(Theta1D((1, 1, 0), div=2), n)
    product = poch_infinite(Monomial(1, 2), 2, n) * poch_infinite(Q, 2, n).invert()
    assert psi_sum.equal_up_to(product, n)


def test_theta1d_truncation_stable():
    spec = Theta1D((3, -1, 0), div=2, start=1, sign="alternating-shifted")
    small = theta1d(spec, 80)
    large = theta1d(spec, 130)
    assert small.equal_up_to(large, 80)


def test_theta1d_weight_and_errors():
    flat = theta1d(Theta1D((1, 1, 0), div=2, weight=(0, 0)), 20)
    assert flat.is_zero()
    with pytest.raises(NonintegralExponent):
        theta1d(Theta1D((1, 0, 1), div=2), 10)
    with pytest.raises(ValueError):
        Theta1D((0, 1, 0))
    with pytest.raises(ValueError):
        Theta1D((1, 1, 0), sign="bogus")
    with pytest.raises(ValueError):
        theta1d(Theta1D((1, -6, 0)), 30)


def test_phi32_below_argument_degree_is_one():
    got = phi32(
        (Monomial(-1, 0), Monomial(1, 1), Monomial(-1, 1)),
        (Monomial(1, 2), Monomial(1, 2)),
        Monomial(1, 2),
        2,
        1,
    )
    assert got.coeffs == (1, 0)


def test_phi32_unit_upper_parameter_terminates():
    # an upper parameter equal to 1 kills every term past n = 0
    got = phi32(
        (Monomial(1, 0), Monomial(1, 1), Monomial(-1, 1)),
        (Monomial(1, 2), Monomial(1, 2)),
        Monomial(1, 1),
        1,
        30,
    )
    assert got.equal_up_to(one(30), 30)


def test_phi32_truncation_stable():
    args = (
        (Monomial(-1, 1), Monomial(1, 2), Monomial(-1, 1)),
        (Monomial(-1, 2), Monomial(-1, 3)),
        Monomial(1, 1),
        2,
    )
    small = phi32(*args, 60)
    large = phi32(*args, 110)
    assert small.equal_up_to(large, 60)


def test_phi32_validation():
    u = (Monomial(1, 1), Monomial(1, 1), Monomial(1, 1))
    with pytest.raises(ValueError):
        phi32(u[:2], (Monomial(1, 2), Monomial(1, 2)), Q, 1, 10)
    with pytest.raises(NonterminatingSum):
        phi32(u, (Monomial(1, 2), Monomial(1, 2)), Monomial(1, 0), 1, 10)
    with pytest.raises(ZeroDenominator):
        phi32(u, (Monomial(1, 0), Monomial(1, 2)), Q, 1, 10)
    with pytest.raises(NegativeExponentFactor):
        phi32((Monomial(1, -1),) + u[:2], (Monomial(1, 2), Monomial(1, 2)), Q, 1, 10)


def test_phi32_q_analog_oracle_alternating():
    # base q^2 with parameters (-1, q, -q; q^2, q^2) at argument q^2 sums to
    # sum_n (-1)^n q^(n^2+n) / (q^2;q^2)_inf^3; checked coefficientwise
    n = 60
    got = phi32(
        (Monomial(-1, 0), Monomial(1, 1), Monomial(-1, 1)),
        (Monomial(1, 2), Monomial(1, 2)),
        Monomial(1, 2),
        2,
        n,
    )
    p2 = poch_infinite(Monomial(1, 2), 2, n)
    theta = theta1d(Theta1D((1, 1, 0), sign="alternating"), n)
    want = theta * (p2 * p2 * p2).invert()
    assert got.equal_up_to(want, n)


def test_phi32_q_analog_oracle_weighted():
    # base q^2 with parameters (-q, -1, q; -q^2, -q^2) at argument q^2 sums to
    # sum_n (2n+1) q^(n^2+n) / psi(q^2); checked coefficientwise
    n = 60
    got = phi32(
        (Monomial(-1, 1), Monomial(-1, 0), Monomial(1, 1)),
        (Monomial(-1, 2), Monomial(-1, 2)),
        Monomial(1, 2),
        2,
        n,
    )
    theta = theta1d(Theta1D((1, 1, 0), weight=(2, 1)), n)
    psi_q2 = theta1d(Theta1D((1, 1, 0), div=2), n).dilate(2)
    assert got.equal_up_to(theta * psi_q2.invert(), n)


def _theta2d_oracle(spec, order):
    cs = [0] * (order + 1)
    sgn = {"plus": lambda n: 1,
           "alternating": lambda n: (-1) ** n,
           "alternating-shifted": lambda n: (-1) ** (n + 1)}[spec.sign]

    def exponent(r, n):
        u = spec.a1 * r + spec.b1
        num = u * u + (u + spec.a2 * n + spec.b2) ** 2 + spec.shift
        assert num % spec.div == 0
        return num // spec.div

    r = 0
    while exponent(r, 0) <= order:
        n = 0
        while exponent(r, n) <= order:
            cs[exponent(r, n)] += sgn(n)
            n += 1
        r += 1
    return QSeries(cs, order)


def test_theta2d_fixtures():
    plain = theta2d(Theta2D(2, 1, 2, 0), 40)
    assert plain.coeff(2) == 1
    shifted = theta2d(Theta2D(2, 3, 2, 0, sign="alternating-shifted"), 40)
    assert shifted.coeff(26) == 0
    # minimum exponent b1^2 past the order leaves nothing
    assert theta2d(Theta2D(1, 9, 1, 0), 40).is_zero()


def test_theta2d_against_double_loop():
    for spec in (
        Theta2D(2, 1, 2, 0),
        Theta2D(2, 1, 2, 0, sign="alternating"),
        Theta2D(2, 3, 2, 0, sign="alternating-shifted"),
        Theta2D(1, 0, 1, 1, shift=3),
        Theta2D(2, 3, 4, 2, shift=-2, div=8),
        Theta2D(2, 1, 2, 0, sign="alternating", shift=-2, div=8),
    ):
        got = theta2d(spec, 120)
        assert got.equal_up_to(_theta2d_oracle(spec, 120), 120), spec


def test_theta2d_validation():
    with pytest.raises(ValueError):
        Theta2D(0, 1, 2, 0)
    with pytest.raises(ValueError):
        Theta2D(2, -1, 2, 0)
    with pytest.raises(ValueError):
        Theta2D(2, 1, 2, 0, sign="nope")
    with pytest.raises(ValueError, match="divisor"):
        Theta2D(2, 1, 2, 0, div=0)
    # the smallest exponent, at r = n = 0, is 0 + 0 - 1
    with pytest.raises(ValueError, match="r = n = 0"):
        Theta2D(1, 0, 1, 0, shift=-1)
    # a negative shift that leaves the smallest exponent at 0 is admitted
    assert theta2d(Theta2D(1, 0, 1, 1, shift=-1), 4).coeffs == (1, 0, 0, 1, 1)
    # (2r+2)^2 + (2r+4n+2)^2 - 2 is 6 at r = n = 0: not a multiple of 8
    with pytest.raises(NonintegralExponent):
        theta2d(Theta2D(2, 2, 4, 0, shift=-2, div=8), 40)


def test_lattice_sum_monotonicity_guard():
    with pytest.raises(ValueError, match="monotone in n"):
        lattice_sum(20, lambda r, n: 10 - n, lambda r, n: ((1, 10),))
    with pytest.raises(ValueError, match="monotone in r"):
        lattice_sum(20, lambda r, n: (30 if r == 0 else 5) + n, lambda r, n: ())
    with pytest.raises(ValueError, match="below its bound"):
        lattice_sum(20, lambda r, n: r + n + 1, lambda r, n: ((1, 0),))


def test_lattice_sum_refuses_a_negative_exponent():
    # the q^-1 term at r = n = 0 would land in the top coefficient
    with pytest.raises(ValueError, match="negative lattice exponent -1"):
        lattice_sum(10, lambda r, n: r + n - 1, lambda r, n: ((1, r + n - 1),))


def test_lattice_sum_emit_matches_monomials():
    got = lattice_sum(
        30,
        lambda r, n: r * r + n * n,
        lambda r, n: ((1, r * r + n * n), (-1, r * r + n * n + 1)),
    )
    want = one(30).scale(0)
    r = 0
    while r * r <= 30:
        n = 0
        while r * r + n * n <= 30:
            e = r * r + n * n
            want = want + monomial(1, e, 30)
            if e + 1 <= 30:
                want = want + monomial(-1, e + 1, 30)
            n += 1
        r += 1
    assert got.equal_up_to(want, 30)
