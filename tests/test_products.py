"""Pochhammer products, theta sums, and the basic-hypergeometric kernel."""

import random

import pytest

from overq.series import (
    QSeries,
    _div_binomial_inplace,
    _mul_binomial_inplace,
    _pack,
    _unpack,
    divided,
    monomial,
    one,
)
from overq.products import (
    Monomial,
    NegativeExponentFactor,
    NonconvergentProduct,
    NonintegralExponent,
    NonterminatingSum,
    Theta1D,
    Theta2D,
    ZeroDenominator,
    _binomial_product,
    _horner_sum,
    _shift_div,
    _Slots,
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
    got = divided(phi32(
        (Monomial(1, 0), Monomial(1, 1), Monomial(-1, 1)),
        (Monomial(1, 2), Monomial(1, 2)),
        Monomial(1, 1),
        1,
        30,
    ))
    assert got.equal_up_to(one(30), 30)


def test_phi32_truncation_stable():
    args = (
        (Monomial(-1, 1), Monomial(1, 2), Monomial(-1, 1)),
        (Monomial(-1, 2), Monomial(-1, 3)),
        Monomial(1, 1),
        2,
    )
    small = divided(phi32(*args, 60))
    large = divided(phi32(*args, 110))
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
    got = divided(phi32(
        (Monomial(-1, 0), Monomial(1, 1), Monomial(-1, 1)),
        (Monomial(1, 2), Monomial(1, 2)),
        Monomial(1, 2),
        2,
        n,
    ))
    p2 = poch_infinite(Monomial(1, 2), 2, n)
    theta = theta1d(Theta1D((1, 1, 0), sign="alternating"), n)
    want = theta * (p2 * p2 * p2).invert()
    assert got.equal_up_to(want, n)


def test_phi32_q_analog_oracle_weighted():
    # base q^2 with parameters (-q, -1, q; -q^2, -q^2) at argument q^2 sums to
    # sum_n (2n+1) q^(n^2+n) / psi(q^2); checked coefficientwise
    n = 60
    got = divided(phi32(
        (Monomial(-1, 1), Monomial(-1, 0), Monomial(1, 1)),
        (Monomial(-1, 2), Monomial(-1, 2)),
        Monomial(1, 2),
        2,
        n,
    ))
    theta = theta1d(Theta1D((1, 1, 0), weight=(2, 1)), n)
    psi_q2 = theta1d(Theta1D((1, 1, 0), div=2), n).stretch(2).truncate(n)
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
        lattice_sum(20, lambda r, n: 10 - n, lambda r, n, b: ((1, 10),))
    with pytest.raises(ValueError, match="monotone in r"):
        lattice_sum(20, lambda r, n: (30 if r == 0 else 5) + n, lambda r, n, b: ())
    with pytest.raises(ValueError, match="below its bound"):
        lattice_sum(20, lambda r, n: r + n + 1, lambda r, n, b: ((1, 0),))


def test_lattice_sum_refuses_a_negative_exponent():
    # the q^-1 term at r = n = 0 would land in the top coefficient
    with pytest.raises(ValueError, match="negative lattice exponent -1"):
        lattice_sum(10, lambda r, n: r + n - 1, lambda r, n, b: ((1, b),))


def test_lattice_sum_emit_matches_monomials():
    got = lattice_sum(
        30,
        lambda r, n: r * r + n * n,
        lambda r, n, b: ((1, b), (-1, b + 1)),
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


# -- packed Pochhammer products against the list loop they replaced ------------

POCH_ORDERS = (0, 1, 2, 7, 60, 400, 1000)
POCH_LENGTHS = (0, 1, 2, 5, 40, 2000)


def _list_poch_finite(a, base, n, order):
    """(a; q^base)_n by one list update per factor, the loop before the
    packed product."""
    if base < 1:
        raise ValueError("base must be >= 1")
    if n < 0:
        raise ValueError("length must be >= 0")
    cs = [0] * (order + 1)
    cs[0] = 1
    for j in range(n):
        ex = a.e + j * base
        if ex < 0:
            raise NegativeExponentFactor(f"factor (1 - {a.c}*q^{ex}) in ({a}; q^{base})_{n}")
        if ex > order:
            break
        _mul_binomial_inplace(cs, a.c, ex)
        if ex == 0 and a.c == 1:
            break
    return cs


def _list_poch_infinite(a, base, order):
    if base < 1:
        raise ValueError("base must be >= 1")
    if a.e < 1:
        raise NonconvergentProduct(f"({a}; q^{base})_inf needs a positive leading exponent")
    cs = [0] * (order + 1)
    cs[0] = 1
    ex = a.e
    while ex <= order:
        _mul_binomial_inplace(cs, a.c, ex)
        ex += base
    return cs


def _outcome(build, *args):
    """The coefficient list, or the exception's type and message."""
    try:
        result = build(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return list(getattr(result, "coeffs", result))


@pytest.mark.parametrize("order", POCH_ORDERS)
def test_packed_products_match_the_list_loop(order):
    for c in (1, -1):
        for lead in range(-1, 4):
            a = Monomial(c, lead)
            for base in (1, 2, 3):
                for n in POCH_LENGTHS:
                    got = _outcome(poch_finite, a, base, n, order)
                    assert got == _outcome(_list_poch_finite, a, base, n, order), (a, base, n)
                got = _outcome(poch_infinite, a, base, order)
                assert got == _outcome(_list_poch_infinite, a, base, order), (a, base)


def test_packed_products_raise_where_the_loop_raises():
    assert _outcome(poch_finite, Monomial(1, -1), 1, 3, 10)[0] is NegativeExponentFactor
    assert _outcome(poch_infinite, Monomial(-1, 0), 2, 10)[0] is NonconvergentProduct
    # (1 - q^0) zeroes the product; (1 + q^0) doubles it
    assert poch_finite(Monomial(1, 0), 1, 5, 10).is_zero()
    assert poch_finite(Monomial(-1, 0), 1, 1, 3).coeffs == (2, 0, 0, 0)


def test_packed_product_widens_its_slots():
    # (-q;q)_inf counts partitions into distinct parts: 73 bits at q^1000,
    # more than 8-byte slots hold, so the 4-byte slots the product starts
    # with must widen at least twice
    got = poch_infinite(Monomial(-1, 1), 1, 1000).coeffs
    assert max(got).bit_length() == 73
    assert list(got) == _list_poch_infinite(Monomial(-1, 1), 1, 1000)
    # and a finite product of the same kind through 2000 factors
    want = _list_poch_finite(Monomial(-1, 1), 1, 2000, 1000)
    assert list(poch_finite(Monomial(-1, 1), 1, 2000, 1000).coeffs) == want


@pytest.mark.parametrize("width", (1, 2, 3, 4, 5, 8, 16, 40))
def test_certified_bound_holds_and_frees_slot_bits(width):
    # every coefficient below 2^(w-1) in size, as the product keeps them; a
    # bound the test returns must hold for every coefficient, with
    # -2^t exactly on the edge of the [-2^t, 2^t) it tests.  Each value
    # gets a fresh layout at t = w - 3, the last threshold that leaves room
    # for one more bit: one that failed there would widen on every call
    w = 8 * width
    rng = random.Random(8093 + width)
    top = (1 << (w - 1)) - 1
    values = {0, 1, -1, top, -top}
    for k in range(w - 1):
        values |= {(1 << k) - 1, 1 << k, -(1 << k), -(1 << k) - 1}
    for v in sorted(values):
        if abs(v) > top:
            continue
        for slot in range(6):
            cs = [rng.choice((0, 1, -1)) for _ in range(6)]
            cs[slot] = v
            x = _pack(cs, width)
            slots = _Slots(6, width, w - 3)
            layout, bound, (y,) = slots.reserve(w - 1, 1, x)
            if layout is slots:
                assert y == x
                assert bound <= w - 2, (v, slot)
                assert all(abs(c) < 1 << bound for c in cs), (v, slot, bound)
            else:
                # packed again wider, with the largest coefficient's bound
                assert layout.width > width and bound + 1 < 8 * layout.width
                assert _unpack(y, layout.width, 6) == cs
                assert bound == max(abs(c) for c in cs).bit_length()
    # a new layout's threshold, 1, certifies small coefficients as they are
    slots, small = _Slots(6, width), _pack([1, -1, 0, 1, 0, -1], width)
    assert slots.reserve(w - 1, 1, small) == (slots, 2, (small,))


@pytest.mark.parametrize("width", (1, 2, 3, 4, 8, 11, 16))
def test_the_threshold_test_is_exact_at_every_threshold(width):
    # for every t <= w - 2 the one test passes exactly when every
    # coefficient lies in [-2^t, 2^t): -2^t and 2^t - 1 pass and 2^t and
    # -2^t - 1 fail, in any slot among coefficients that pass, whether the
    # packed integer is reduced to its slots or not
    w = 8 * width
    rng = random.Random(18018 + width)
    for t in range(w - 1):
        slots = _Slots(5, width, t)
        edges = ((-(1 << t), True), ((1 << t) - 1, True), (1 << t, False), (-(1 << t) - 1, False))
        for v, holds in edges:
            for slot in range(5):
                cs = [rng.randint(-(1 << t), (1 << t) - 1) for _ in range(5)]
                cs[slot] = v
                x = _pack(cs, width)
                assert slots.holds(x) is slots.holds(x & slots.mask) is holds, (t, v, slot)


def test_threshold_constants_match_their_bytes_construction():
    # the constants built by shifts from one 1 per slot equal 2^t and
    # 2^w - 2^(t+1) written into every slot byte by byte
    for width in range(1, 10):
        for length in range(1, 51):
            slots = _Slots(length, width)
            for t in range(8 * width - 1):
                slots.threshold(t)
                low = int.from_bytes((1 << t).to_bytes(width, "little") * length, "little")
                top = (1 << (8 * width)) - (2 << t)
                high = int.from_bytes(top.to_bytes(width, "little") * length, "little")
                assert (slots.t, slots.low, slots.high) == (t, low, high), (width, length, t)


def _list_binomial_product(runs, length):
    """The product of (1 - c*q^e) over the runs by one list update per
    binomial."""
    cs = [1] + [0] * (length - 1)
    for c, exponents in runs:
        for e in exponents:
            if e < length:
                _mul_binomial_inplace(cs, c, e)
    return cs


@pytest.mark.parametrize("order", (0, 1, 60, 1000))
def test_binomial_product_over_mixed_sign_runs(order, monkeypatch):
    # (-q;q)_inf (q^2;q^2)_inf (-q^3;q^3)_40 (1 + q^0), an empty run and a
    # binomial past the end: the distinct-part counts widen the slots at
    # least twice by order 1000
    length = order + 1
    runs = (
        (-1, range(1, length)),
        (1, range(2, length, 2)),
        (-1, range(3, 3 * 40 + 1, 3)),
        (-1, (0,)),
        (1, ()),
        (1, (length + 2,)),
    )
    widened = []
    real = _Slots.reserve

    def counted(self, bound, grow, *packed):
        got = real(self, bound, grow, *packed)
        if got[0] is not self:
            widened.append(got[0].width)
        return got

    monkeypatch.setattr(_Slots, "reserve", counted)
    assert _binomial_product(runs, length) == _list_binomial_product(runs, length)
    assert len(widened) >= 2 or order < 1000


@pytest.mark.parametrize("order", (1000, 3200))
def test_binomial_product_top_down_matches_bottom_up(order, monkeypatch):
    # (-q;q)_inf (q;q^2)_inf (q^2;q)_inf, smallest exponent first and largest
    # first: one product, though the slots widen at different steps
    length = order + 1
    runs = [(-1, range(1, length)), (1, range(1, length, 2)), (1, range(2, length))]
    widened = []
    real = _Slots.reserve

    def counted(self, bound, grow, *packed):
        got = real(self, bound, grow, *packed)
        if got[0] is not self:
            widened.append(got[0].width)
        return got

    def product(runs):
        widened.clear()
        return _binomial_product(runs, length), len(widened)

    monkeypatch.setattr(_Slots, "reserve", counted)
    up, up_widened = product(runs)
    down, down_widened = product([(c, e[::-1]) for c, e in reversed(runs)])
    assert up == down == _list_binomial_product(runs, length)
    assert up_widened >= 2 and down_widened >= 1, (up_widened, down_widened)


@pytest.mark.parametrize("length", (1, 2, 7, 61, 401))
def test_packed_divide_matches_the_list_kernel_within_its_bound(length):
    # x / (1 - c*q^e) for c = +-1 and e from 1 to past the end, in slots
    # that hold b + bits((L - 1) // e) bits for inputs below 2^b: the list
    # kernel's quotient, below that bound, which constant and alternating
    # inputs nearly reach
    rng = random.Random(9011 + length)
    for b in (1, 5, 30):
        top = (1 << b) - 1
        inputs = (
            [top] * length,
            [(-1) ** i * top for i in range(length)],
            [rng.randint(-top, top) for _ in range(length)],
        )
        for cs in inputs:
            for c in (1, -1):
                for e in sorted({1, 2, 3, max(1, length // 2), max(1, length - 1), length, length + 3}):
                    grow = ((length - 1) // e).bit_length()
                    width = (b + grow + 1 + 7) // 8
                    mask = (1 << (8 * width * length)) - 1
                    x = _shift_div(_pack(cs, width) & mask, c, e, 8 * width, mask)
                    want = list(cs)
                    _div_binomial_inplace(want, c, e)
                    assert _unpack(x, width, length) == want, (b, c, e)
                    assert max(map(abs, want)) < 1 << (b + grow)
    with pytest.raises(ValueError):
        _shift_div(1, 1, 0, 8, 255)
    with pytest.raises(ValueError):
        _shift_div(1, 2, 1, 8, 255)


def _list_horner_sum(steps, length):
    """h_0 of the steps by one list update per multiply, divide and term."""
    h = [0] * length
    for terms, rho in steps:
        if rho:
            m, c, d = rho
            if m < length:
                _mul_binomial_inplace(h, 1, m)
            if d < length:
                _div_binomial_inplace(h, c, d)
        for e, c in terms:
            h[e] += c
    return h


@pytest.mark.parametrize("length", (1, 2, 61, 401))
@pytest.mark.parametrize("digits", (0, 6, 40))
def test_horner_sum_matches_the_list_updates(length, digits):
    # random steps with terms up to 10^digits in size and multiplies and
    # divides from q^1 to past the end; the many divides by 1 -+ q and
    # 1 -+ q^2 make even unit terms outgrow the slots the walk starts in
    rng = random.Random(4099 * length + digits)
    top = 10 ** digits
    for _ in range(12):
        steps = []
        for r in range(rng.randint(0, 40), -1, -1):
            terms = [(rng.randrange(length), rng.randint(-top, top)) for _ in range(rng.randint(0, 3))]
            d = rng.choice((1, 2, rng.randint(1, length + 3)))
            rho = (rng.randint(1, length + 3), rng.choice((1, -1)), d)
            steps.append((terms, rho if steps else None))
        assert _horner_sum(steps, length) == _list_horner_sum(steps, length)
