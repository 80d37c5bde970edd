"""The term-ratio summation kernel against a dense reference.

The reference builds every term from explicit factor series with
QSeries.__mul__ and invert at the full order, so it shares none of the
kernel's list trimming, leading-exponent bookkeeping or factor cancellation.
"""

import random
from fractions import Fraction

import pytest

from overq.products import Monomial, Ratio, poch_finite, ratio_sum
from overq.series import QSeries, monomial, one, zero

ORDERS = (0, 1, 7, 60)
SWEEPS = 8


def _factor(c, e, order):
    """1 - c*q^e as an explicit series."""
    return one(order) - monomial(c, e, order)


def _dense_sum(init, ratio, order, start, at):
    total = zero(order)
    term = monomial(1, at, order) * init.truncate(order)
    n = start
    while at <= order:
        total = total + term
        sign, slope, offset = ratio.shift
        step = slope * n + offset
        for c, a, b in ratio.muls:
            term = term * _factor(c, a * n + b, order)
        for c, a, b in ratio.divs:
            term = term * _factor(c, a * n + b, order).invert()
        term = term * monomial(sign, step, order)
        at += step
        n += 1
    return total


def _random_init(rng, order, fractions):
    cs = [rng.randint(-3, 3) for _ in range(order + 1)]
    cs[0] = rng.choice((1, -1, 2))
    if fractions:
        cs[rng.randrange(order + 1)] = Fraction(rng.randint(-3, 3), rng.randint(2, 5))
    return QSeries(cs, order)


def _random_ratio(rng, sign):
    def factor():
        return rng.choice((1, -1)), rng.randint(0, 2), rng.randint(0, 3)

    def divisor(c, a, b):
        # (1 - q^0) may be multiplied in but never divided out
        return (c, a, max(b, 1)) if c == 1 else (c, a, b)

    muls = tuple(factor() for _ in range(rng.randint(0, 3)))
    divs = tuple(divisor(*factor()) for _ in range(rng.randint(0, 3)))
    if muls and rng.random() < 0.5:
        divs += (divisor(*muls[0]),)  # a pair that cancels wherever it is equal
    return Ratio((sign, rng.randint(0, 2), rng.randint(1, 3)), muls, divs)


def _assert_same(got, want, order):
    assert got.order == want.order == order
    assert got.coeffs == want.coeffs
    assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("fractions", (False, True), ids=("int", "fraction"))
def test_ratio_sum_random_tables(order, fractions):
    rng = random.Random(8232026 + order + 1000 * fractions)
    for sweep in range(SWEEPS):
        ratio = _random_ratio(rng, sign=-1 if sweep % 2 else 1)
        start, at = rng.randint(0, 2), rng.randint(0, 3)
        init = _random_init(rng, order, fractions)
        got = ratio_sum(init, ratio, order, start=start, at=at)
        _assert_same(got, _dense_sum(init, ratio, order, start, at), order)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("sigma", (1, -1))
def test_ratio_sum_cancels_zero_exponent_pair(order, sigma):
    # Fine's left side at a = sigma/q, t = -q^2: its n = 0 ratio has the
    # multiply (1 - a*q) and the divide (1 - a*q) with a*q = sigma, a zero
    # factor over a zero divisor when sigma = 1.  The reference builds each
    # term from its closed form (a*q^(n+1);q)_n t^n / (q;q)_n instead.
    a, t = Monomial(sigma, -1), Monomial(-1, 2)
    ratio = Ratio(
        (t.c, 0, t.e),
        muls=((a.c, 2, a.e + 1), (a.c, 2, a.e + 2)),
        divs=((a.c, 1, a.e + 1), (1, 1, 1)),
    )
    want = zero(order)
    n = 0
    while n * t.e <= order:
        top = poch_finite(a.shifted(n + 1), 1, n, order)
        bottom = poch_finite(Monomial(1, 1), 1, n, order).invert()
        want = want + top * bottom * monomial(t.c**n, n * t.e, order)
        n += 1
    _assert_same(ratio_sum(one(order), ratio, order), want, order)


def test_ratio_sum_needs_an_initial_term_that_reaches_the_order():
    with pytest.raises(IndexError):
        ratio_sum(one(3), Ratio((1, 0, 1)), 5, at=1)
    assert ratio_sum(one(3), Ratio((1, 0, 1)), 5, at=2).coeffs == (0, 0, 1, 1, 1, 1)
