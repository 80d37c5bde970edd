"""Ring laws, truncation semantics, and reindexing of the series core."""

import random
import struct
from fractions import Fraction
from math import isqrt

import pytest

import overq.series as series_module
from overq.series import (
    OrderExceededError,
    QSeries,
    Quotient,
    ZeroConstantTermError,
    _div_binomial_inplace,
    _kronecker_mul,
    _mul_binomial_inplace,
    _newton_invert,
    _norm,
    _pack,
    _schoolbook_invert,
    _schoolbook_mul,
    _shifted_sum,
    _unpack,
    divided,
    monomial,
    one,
    zero,
)
from overq.products import Monomial, Theta1D, poch_infinite, theta1d
from overq.report import check

ORDER = 40
SWEEPS = 12


def _random_series(rng, order=ORDER, nonzero_constant=False):
    cs = [rng.randint(-4, 4) for _ in range(order + 1)]
    if rng.random() < 0.3:
        k = rng.randrange(order + 1)
        cs[k] = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
    if nonzero_constant and cs[0] == 0:
        cs[0] = rng.choice((1, -1, 2, Fraction(1, 2)))
    return QSeries(cs, order)


def test_zero_and_monomial_basics():
    assert zero(3).coeffs == (0, 0, 0, 0)
    assert zero(0).coeffs == (0,)
    assert monomial(1, 0, 4).coeffs == (1, 0, 0, 0, 0)
    assert monomial(-1, 1, 4).coeff(1) == -1
    assert monomial(1, 9, 4).is_zero()
    assert (zero(5) + monomial(1, 2, 5)).coeffs == (0, 0, 1, 0, 0, 0)


def test_monomial_rejects_negative_exponent():
    with pytest.raises(ValueError):
        monomial(1, -1, 4)


def test_construction_validates_length_and_order():
    with pytest.raises(ValueError):
        QSeries([1, 2], 3)
    with pytest.raises(ValueError):
        QSeries([], None)
    with pytest.raises(TypeError):
        QSeries([0.5], 0)


def test_whole_fractions_collapse_to_int():
    s = QSeries([Fraction(4, 2), Fraction(1, 3)], 1)
    assert type(s.coeffs[0]) is int and s.coeffs[0] == 2
    assert s.coeffs[1] == Fraction(1, 3)
    # an int subclass is not an int: it is canonicalized too
    assert [type(c) for c in QSeries([True, 3, False], 2).coeffs] == [int, int, int]


def test_immutability():
    s = one(3)
    with pytest.raises(AttributeError):
        s.order = 5


def test_add_sub_neg_scale():
    q = monomial(1, 1, 5)
    assert (q + (-q)).is_zero()
    s = QSeries([1, 1, 0, 0], 3)
    assert s.scale(Fraction(1, 2)).coeffs == (Fraction(1, 2), Fraction(1, 2), 0, 0)
    rng = random.Random(11)
    for _ in range(SWEEPS):
        t = _random_series(rng)
        assert (t - t).is_zero()


def test_mul_basics():
    a = QSeries([1, -1, 0], 2)
    b = QSeries([1, 1, 0], 2)
    assert (a * b).coeffs == (1, 0, -1)
    rng = random.Random(17)
    s = _random_series(rng)
    assert (s * one(ORDER)).equal_up_to(s, ORDER)
    assert (2 * s).equal_up_to(s.scale(2), ORDER)
    assert (s * Fraction(1, 3)).equal_up_to(s.scale(Fraction(1, 3)), ORDER)


def test_order_propagates_as_minimum():
    a = one(10)
    b = one(4)
    assert (a + b).order == 4
    assert (a * b).order == 4
    assert (a - b).order == 4


def test_ring_laws_random_sweep():
    rng = random.Random(8232026)
    for _ in range(SWEEPS):
        s, t, u = (_random_series(rng) for _ in range(3))
        assert (s * (t * u)).equal_up_to((s * t) * u, ORDER)
        assert (s * t).equal_up_to(t * s, ORDER)
        assert (s * (t + u)).equal_up_to(s * t + s * u, ORDER)


def test_coeff_is_exact_on_sums():
    rng = random.Random(23)
    for _ in range(SWEEPS):
        s, t = _random_series(rng), _random_series(rng)
        n = rng.randrange(ORDER + 1)
        assert (s + t).coeff(n) == s.coeff(n) + t.coeff(n)


def test_invert_geometric_and_constant():
    geo = QSeries([1, -1, 0, 0, 0], 4).invert()
    assert geo.coeffs == (1, 1, 1, 1, 1)
    assert QSeries([2], 0).invert().coeffs == (Fraction(1, 2),)


def test_invert_two_sided_random():
    rng = random.Random(31)
    for _ in range(SWEEPS):
        s = _random_series(rng, nonzero_constant=True)
        inv = s.invert()
        assert (s * inv).equal_up_to(one(ORDER), ORDER)
        assert (inv * s).equal_up_to(one(ORDER), ORDER)


def test_invert_requires_constant_term():
    with pytest.raises(ZeroConstantTermError):
        monomial(1, 1, 3).invert()


def test_invert_pochhammer_roundtrip():
    p = poch_infinite(Monomial(1, 1), 1, 100)
    assert (p * p.invert()).equal_up_to(one(100), 100)


def test_partition_counts_via_invert():
    p = poch_infinite(Monomial(1, 1), 1, 10).invert()
    assert p.coeffs == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)


def test_stretch_keeps_every_coefficient():
    s = QSeries([5, 0, 7], 2)
    st = s.stretch(8, 2)
    assert st.order == 8 * 2 + 2
    assert st.coeff(2) == 5 and st.coeff(10) == 0 and st.coeff(18) == 7
    assert sum(1 for c in st.coeffs if c) == 2
    with pytest.raises(ValueError):
        s.stretch(0)
    with pytest.raises(ValueError):
        s.stretch(2, -1)


def test_shift_and_truncate():
    s = QSeries([1, 2, 3], 2)
    assert s.shift(1).coeffs == (0, 1, 2)
    assert s.shift(0) is s
    assert s.shift(5).coeffs == (0, 0, 0)
    assert s.truncate(1).coeffs == (1, 2)
    with pytest.raises(OrderExceededError):
        s.truncate(3)
    with pytest.raises(ValueError):
        s.shift(-1)


def test_coeff_and_comparison_bounds():
    s = one(5)
    with pytest.raises(OrderExceededError):
        s.coeff(6)
    with pytest.raises(ValueError):
        s.coeff(-1)
    t = one(50)
    big = monomial(1, 51, 60) + one(60)
    assert big.order == 60
    assert t.equal_up_to(big, 50)
    with pytest.raises(OrderExceededError):
        t.equal_up_to(big, 55)


def test_first_mismatch_reports_smallest_exponent():
    a = QSeries([1, 0, 2, 9], 3)
    b = QSeries([1, 0, 3, 9], 3)
    assert a.first_mismatch(b, 3) == (2, 2, 3)
    assert a.first_mismatch(a, 3) is None
    assert a.equal_up_to(b, 1)


def test_is_integral():
    assert QSeries([1, 2], 1).is_integral()
    assert not QSeries([0, Fraction(1, 2)], 1).is_integral()
    halves = QSeries([0, Fraction(1, 2)], 1)
    assert halves.scale(2).is_integral()


def test_binomial_shortcuts_match_mul():
    rng = random.Random(43)
    for _ in range(SWEEPS):
        s = _random_series(rng)
        c = rng.choice((1, -1, Fraction(1, 2)))
        e = rng.randrange(1, 6)
        binom = one(ORDER) - monomial(c, e, ORDER)
        assert s.mul_binomial(c, e).equal_up_to(s * binom, ORDER)
        assert s.div_binomial(c, e).mul_binomial(c, e).equal_up_to(s, ORDER)
    # every public entry point reads (c, e) as (1 - c*q^e), at e = 0 and
    # past the order too
    s, den = _random_series(rng), _random_series(rng, nonzero_constant=True)
    for c in (1, -1, 2, Fraction(1, 2)):
        for e in (0, 1, 5, ORDER, ORDER + 1, ORDER + 7):
            binom = one(ORDER) - monomial(c, e, ORDER)
            assert s.mul_binomial(c, e).equal_up_to(s * binom, ORDER)
            side = Quotient(s, den).mul_binomial(c, e)
            assert side.num.equal_up_to(s * binom, ORDER) and side.den is den
            if binom.coeffs[0]:
                assert s.div_binomial(c, e).equal_up_to(s * binom.invert(), ORDER)
    with pytest.raises(ZeroConstantTermError):
        s.div_binomial(1, 0)


# -- the Kronecker product against the schoolbook reference -------------------

KRONECKER_ORDERS = (0, 1, 7, 60, 400)


def _reference_product(s, t):
    n = min(s.order, t.order)
    return _schoolbook_mul(s.coeffs[: n + 1], t.coeffs[: n + 1], n)


def _random_ints(rng, order, bound, density=1.0):
    return QSeries(
        [rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(order + 1)],
        order,
    )


@pytest.mark.parametrize("order", KRONECKER_ORDERS)
def test_kronecker_random_sweep(order):
    rng = random.Random(7919 + order)
    for bound in (1, 9, 2**65, 2**201):  # most draws above 2^64 or 2^200
        for _ in range(3):
            density = rng.choice((1.0, 0.3, 0.05))
            s = _random_ints(rng, order, bound, density)
            t = _random_ints(rng, order, rng.choice((1, bound)))
            product = s * t
            assert product.order == order
            assert list(product.coeffs) == _reference_product(s, t)
            assert product.is_integral()


@pytest.mark.parametrize("order", KRONECKER_ORDERS)
def test_kronecker_extreme_magnitudes(order):
    # every coefficient at the bound, so each product slot is at its largest
    for m in (1, 2**64 + 1, 2**200 + 1):
        for sa, sb in ((1, 1), (1, -1), (-1, -1)):
            s = QSeries([sa * m] * (order + 1), order)
            t = QSeries([sb * m] * (order + 1), order)
            assert list((s * t).coeffs) == _reference_product(s, t)


@pytest.mark.parametrize("order", KRONECKER_ORDERS)
def test_kronecker_sparse_dense_unequal_and_zero(order):
    theta = theta1d(Theta1D((1, 1, 0), div=2), order)  # sparse, all ones
    pent = poch_infinite(Monomial(1, 1), 1, order + 5)  # sparse signs, longer
    dense = poch_infinite(Monomial(1, 1), 2, order)  # (q;q^2)_inf, dense signs
    cube = dense * dense * dense
    for s, t in ((theta, theta), (theta, dense), (pent, cube), (cube, cube), (dense, pent)):
        product = s * t
        assert product.order == min(s.order, t.order)
        assert list(product.coeffs) == _reference_product(s, t)
    assert (zero(order) * cube).coeffs == (0,) * (order + 1)
    assert (cube * zero(order + 3)).coeffs == (0,) * (order + 1)


@pytest.mark.parametrize("width", (1, 2, 3, 4, 5, 8, 16))
@pytest.mark.parametrize("lanes", (True, False))
def test_pack_unpack_round_trip(width, lanes, monkeypatch):
    # 1, 2, 4 and 8 bytes go through struct, 3, 5, 6 and 7 through 8-byte
    # lanes and wider slots one at a time; without the direct struct codes
    # every width below 8 takes the 8-byte lanes and 8 the slot-at-a-time path
    if not lanes:
        monkeypatch.setattr(series_module, "_LANES", {})
    h = 1 << (8 * width - 1)
    rng = random.Random(5077 + width)
    edges = [h - 1, -(h - 1), -h, 0, 1, -1]
    for cs in (edges, edges[::-1], [rng.randrange(-h, h) for _ in range(50)], [-h], [0]):
        x = _pack(cs, width)
        assert x == sum(c << (8 * width * i) for i, c in enumerate(cs))
        assert _unpack(x, width, len(cs)) == cs
        # slots above the ones read back do not disturb them
        junk = rng.randrange(-(1 << 99), 1 << 99) << (8 * width * len(cs))
        assert _unpack(x + junk, width, len(cs)) == cs


def _reference_pack(cs, width):
    """The per-coefficient packing: each slot written by int.to_bytes."""
    data = b"".join(c.to_bytes(width, "little", signed=True) for c in cs)
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * len(cs), "little")
    return (int.from_bytes(data, "little") ^ bias) - bias


def _reference_unpack(x, width, length):
    """The per-coefficient unpacking: each slot read by int.from_bytes."""
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * length, "little")
    size = width * length
    data = (((x + bias) & ((1 << (8 * size)) - 1)) ^ bias).to_bytes(size, "little")
    return [int.from_bytes(data[i : i + width], "little", signed=True) for i in range(0, size, width)]


@pytest.mark.parametrize("width", range(1, 25))
def test_pack_unpack_match_the_per_coefficient_reference(width):
    # every path (struct codes, 8-byte lanes, one slot at a time) against
    # to_bytes/from_bytes per coefficient, at both ends of the slot range
    h = 1 << (8 * width - 1)
    rng = random.Random(2501 + width)
    for length in (0, 1, 2, 7, 100):
        ends = [rng.choice((-h, h - 1, -h + 1, h - 2, 0, -1)) for _ in range(length)]
        spread = [rng.randrange(-h, h) for _ in range(length)]
        for cs in (ends, spread, [-h] * length, [h - 1] * length):
            x = _pack(cs, width)
            assert x == _reference_pack(cs, width)
            assert _unpack(x, width, length) == _reference_unpack(x, width, length) == cs
            junk = rng.randrange(-(1 << 99), 1 << 99) << (8 * width * length)
            assert _unpack(x + junk, width, length) == cs
        if length:
            # a coefficient just outside the slot raises, whichever path it takes
            for v in (h, -h - 1):
                with pytest.raises((OverflowError, struct.error)):
                    _pack(spread[:-1] + [v], width)


def test_integer_products_take_the_kronecker_path(monkeypatch):
    rng = random.Random(4111)
    s = _random_ints(rng, 30, 9)
    t = QSeries([Fraction(1, 2)] + [1] * 30, 30)
    want_int = _reference_product(s, s)
    want_frac = _reference_product(s, t)
    monkeypatch.setattr(series_module, "_schoolbook_mul", None)
    assert list((s * s).coeffs) == want_int
    monkeypatch.undo()
    monkeypatch.setattr(series_module, "_kronecker_mul", None)
    assert list((s * t).coeffs) == want_frac
    assert s.is_integral() and not t.is_integral()


# -- term-by-term products of a sparse operand ---------------------------------

SPARSE_ORDERS = (0, 1, 60, 400)


def _sparse_ints(rng, order, k, bound):
    """k nonzero coefficients (fewer at small orders) of size 1 .. bound."""
    cs = [0] * (order + 1)
    for i in rng.sample(range(order + 1), min(k, order + 1)):
        cs[i] = rng.choice((-1, 1)) * rng.randint(1, bound)
    return QSeries(cs, order)


@pytest.mark.parametrize("order", SPARSE_ORDERS)
def test_sparse_products_match_the_schoolbook(order, monkeypatch):
    rng = random.Random(6007 + order)
    dense = _random_ints(rng, order, 2**40)  # Kronecker slots of more than 16 bits
    cases = [(zero(order), dense), (dense, zero(order + 3))]
    for bound in (1, 2**70):  # c = +-1, and c far past one slot
        sparse = _sparse_ints(rng, order, 3, bound)
        longer = _sparse_ints(rng, order + 5, 2, bound)
        cases += [(sparse, dense), (dense, sparse), (longer, dense), (dense, longer)]
    wide = _sparse_ints(rng, order, 4, 2**70)
    cases += [(wide, wide), (wide, _sparse_ints(rng, order, 3, 1))]
    want = [_reference_product(s, t) for s, t in cases]
    monkeypatch.setattr(series_module, "_kronecker_mul", None)
    for (s, t), expected in zip(cases, want):
        product = s * t
        assert product.order == min(s.order, t.order)
        assert list(product.coeffs) == expected


@pytest.mark.parametrize("order", SPARSE_ORDERS)
def test_narrow_and_rational_products_keep_their_paths(order, monkeypatch):
    rng = random.Random(6011 + order)
    sparse = _sparse_ints(rng, order, 3, 1)
    narrow = _random_ints(rng, order, 3)  # slots of at most 16 bits: Kronecker
    dense = _random_ints(rng, order, 2**40)
    half = QSeries([Fraction(1, 2)] + [0] * order, order)  # sparse and rational
    want_narrow = [_reference_product(sparse, narrow), _reference_product(narrow, sparse)]
    want_half = [_reference_product(half, dense), _reference_product(dense, half)]
    monkeypatch.setattr(series_module, "_sparse_mul", None)
    assert [list((sparse * narrow).coeffs), list((narrow * sparse).coeffs)] == want_narrow
    monkeypatch.setattr(series_module, "_kronecker_mul", None)
    assert [list((half * dense).coeffs), list((dense * half).coeffs)] == want_half


def _schoolbook_shifted_sum(parts, length):
    """The sum of c*q^e*cs through q^(length-1): one schoolbook product per
    part, of its shifts as a sparse series with its cs."""
    total = [0] * length
    for cs, shifts in parts:
        a = [0] * length
        for e, c in shifts:
            if e < length:
                a[e] += c
        b = (list(cs) + [0] * length)[:length]
        total = [x + y for x, y in zip(total, _schoolbook_mul(a, b, length - 1))]
    return total


def _recording_pack(monkeypatch):
    """The slot widths, in bytes, of every _pack call from here on."""
    widths = []
    pack = series_module._pack
    monkeypatch.setattr(series_module, "_pack", lambda cs, width: widths.append(width) or pack(cs, width))
    return widths


@pytest.mark.parametrize("length", (1, 2, 61, 401))
def test_shifted_sums_match_the_schoolbook(length, monkeypatch):
    rng = random.Random(6029 + length)
    scales = (1, -1, 2, -2, 2**64 + 3, -(2**70))
    for bound in (1, 2**20, 2**70):
        parts = []
        for _ in range(5):  # parts of different lengths, shifts past length
            cs = [rng.randint(-bound, bound) for _ in range(rng.randint(0, length + 5))]
            shifts = [(rng.randrange(length + 10), rng.choice(scales)) for _ in range(rng.randint(0, 4))]
            parts.append((cs, shifts))
        assert _shifted_sum(parts, length) == _schoolbook_shifted_sum(parts, length)
    # a part with no shifts adds nothing: it neither widens the slots nor is
    # packed into slots its coefficients would not fit
    widths = _recording_pack(monkeypatch)
    wide = ([2**40, -(2**40)], [])
    assert _shifted_sum([wide, ([1] * length, [(0, 1)])], length) == [1] * length
    assert _shifted_sum([wide], length) == [0] * length
    assert widths == [1]


#: (bits(max|cs|), bits(max|c|), bits(count)), whose sum plus 1 is the slot
#: width w in bits: a whole number of bytes (2, 3, 4, 8 and 12), or one bit
#: past one (17 and 65 bits), where that last bit takes a byte of its own
SLOT_TOPS = ((10, 3, 2), (12, 4, 7), (16, 8, 7), (50, 6, 7), (60, 30, 5), (10, 3, 3), (50, 6, 8))


@pytest.mark.parametrize("bits", SLOT_TOPS)
def test_shifted_sums_reach_the_top_of_their_slots(bits, monkeypatch):
    # count * max|c| * max|cs| just under 2^(w-1)
    b, s, k = bits
    big, scale, count = 2**b - 1, 2**s - 1, 2**k - 1
    w = b + s + k + 1
    widths = _recording_pack(monkeypatch)
    cs = [big, -big, 1, 0, big]
    for sign in (1, -1):
        # count shifts of one part, or one shift of each of count parts,
        # all adding into slots 1 and 2
        one_part = [(cs, [(1, sign * scale)] * count)]
        many = [([0] * j + cs, [(1 - j, sign * scale)]) for j in range(2)] * (count // 2)
        many.append((cs, [(1, sign * scale)]))
        for parts in (one_part, many):
            got = _shifted_sum(parts, 8)
            assert got == _schoolbook_shifted_sum(parts, 8)
            assert got[1] == sign * count * scale * big and abs(got[1]) >= 2 ** (w - 2)
    assert set(widths) == {(w + 7) // 8}


def test_fraction_operand_product_unchanged():
    rng = random.Random(4099)
    for order in (0, 1, 7, 60):
        s = _random_series(rng, order)
        t = QSeries([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(order + 1)], order)
        for x, y in ((s, t), (t, s), (t, t)):
            product = x * y
            expected = [
                sum(x.coeffs[i] * y.coeffs[k - i] for i in range(k + 1)) for k in range(order + 1)
            ]
            assert list(product.coeffs) == expected
            assert [type(c) for c in product.coeffs] == [
                int if Fraction(c).denominator == 1 else Fraction for c in expected
            ]


# -- the binomial kernels against the loops they replaced ---------------------

BINOMIAL_ORDERS = (0, 1, 7, 60, 400)
BINOMIAL_CS = (1, -1, 2, Fraction(1, 3))


def _loop_mul_binomial(cs, c, e):
    """Multiply cs in place by (1 - c*q^e), one coefficient per step, from
    the top down so every step reads a coefficient not yet updated."""
    if e == 0:
        s = 1 - c
        for i in range(len(cs)):
            cs[i] *= s
        return
    for i in range(len(cs) - 1, e - 1, -1):
        lo = cs[i - e]
        if lo:
            cs[i] -= c * lo


def _loop_div_binomial(cs, c, e):
    """Divide cs in place by (1 - c*q^e), one coefficient per step, from the
    bottom up so every step reads a coefficient already updated."""
    if e == 0:
        inv = Fraction(1) / (1 - c)
        for i in range(len(cs)):
            cs[i] *= inv
        return
    for i in range(e, len(cs)):
        lo = cs[i - e]
        if lo:
            cs[i] += c * lo


def _binomial_lists(rng, order):
    """An int list, a sparse int list, and one holding Fractions."""
    dense = [rng.randint(-2**70, 2**70) for _ in range(order + 1)]
    sparse = [rng.choice((0, 0, 0, 1, -1, 5)) for _ in range(order + 1)]
    mixed = [
        Fraction(rng.randint(-9, 9), rng.randint(1, 4)) if rng.random() < 0.4 else rng.randint(-9, 9)
        for _ in range(order + 1)
    ]
    return dense, sparse, mixed


def _canonical(cs):
    # the kernels may leave a whole Fraction on the list for the wrap to collapse
    return [(type(c), c) for c in map(_norm, cs)]


@pytest.mark.parametrize("order", BINOMIAL_ORDERS)
def test_binomial_kernels_match_the_loops(order):
    rng = random.Random(6007 + order)
    n = order + 1
    exponents = {0, 1, 31, 32, 33, n, n + 3}
    exponents |= {max(1, order // 2), max(1, order // 4)}  # a last block of one coefficient
    # exponents near sqrt(n) and sqrt(n)/2, where the divide runs about e and
    # 4e blocks of e coefficients
    root = isqrt(n)
    exponents |= {max(0, x + d) for x in (root, root // 2) for d in (-1, 0, 1)}
    for cs in _binomial_lists(rng, order):
        for c in BINOMIAL_CS:
            for e in sorted(exponents):
                for kernel, loop in (
                    (_mul_binomial_inplace, _loop_mul_binomial),
                    (_div_binomial_inplace, _loop_div_binomial),
                ):
                    got, want = list(cs), list(cs)
                    if kernel is _div_binomial_inplace and e == 0 and c == 1:
                        continue  # the zero constant, refused below
                    kernel(got, c, e)
                    loop(want, c, e)
                    assert _canonical(got) == _canonical(want), (kernel.__name__, c, e)


@pytest.mark.parametrize("order", BINOMIAL_ORDERS)
def test_binomial_kernels_round_trip_and_refuse_a_zero_constant(order):
    rng = random.Random(6101 + order)
    for cs in _binomial_lists(rng, order):
        for e in (1, 31, 32, 65):
            for c in BINOMIAL_CS:
                work = list(cs)
                _div_binomial_inplace(work, c, e)
                _mul_binomial_inplace(work, c, e)
                assert _canonical(work) == _canonical(cs)
        with pytest.raises(ZeroConstantTermError):
            _div_binomial_inplace(list(cs), 1, 0)


# -- Newton inversion against the schoolbook recurrence -----------------------


def _unit_series(rng, order, c0):
    """Integer series with constant term c0: dense, sparse, and a Pochhammer
    product.  The inverse's coefficients grow about geometrically, so the
    dense draws are large only at the small orders."""
    bound = 2**80 if order <= 60 else 2
    dense = [c0] + [rng.randint(-bound, bound) for _ in range(order)]
    sparse = [c0] + [rng.choice((0, 0, 0, 0, 1, -1, 3)) for _ in range(order)]
    poch = poch_infinite(Monomial(1, 2), 1, order).scale(c0).coeffs
    return dense, sparse, list(poch)


@pytest.mark.parametrize("order", BINOMIAL_ORDERS)
@pytest.mark.parametrize("c0", (1, -1))
def test_newton_inversion_matches_the_schoolbook(order, c0, monkeypatch):
    rng = random.Random(6301 + order + c0)
    for cs in _unit_series(rng, order, c0):
        want = _schoolbook_invert(cs, order)
        got = _newton_invert(cs, order)
        assert [(type(c), c) for c in got] == [(type(c), c) for c in want]
    # and invert takes it: the schoolbook path is not reached
    monkeypatch.setattr(series_module, "_schoolbook_invert", None)
    for cs in _unit_series(rng, order, c0):
        assert list(QSeries(cs, order).invert().coeffs) == _newton_invert(cs, order)


@pytest.mark.parametrize("order", BINOMIAL_ORDERS)
def test_other_inversions_keep_the_schoolbook(order, monkeypatch):
    rng = random.Random(6367 + order)
    # sparse, or the schoolbook's exact rationals make this test slow
    two = [2] + [rng.choice((1, -1)) if rng.random() < 0.05 else 0 for _ in range(order)]
    rational = [1] + [Fraction(1, 2) if rng.random() < 0.05 else 0 for _ in range(order)]
    rational[-1] = Fraction(1, 3)  # a Fraction even at order 0
    monkeypatch.setattr(series_module, "_newton_invert", None)  # not reached
    for cs in (two, rational):
        assert list(QSeries(cs, order).invert().coeffs) == _schoolbook_invert(cs, order)


# -- a quotient checked cross-multiplied, against its divided series ----------


def _by_inverse(a, b, order):
    return list((QSeries(a, order) * QSeries(b, order).invert()).coeffs)


def _slipped(cs, k):
    return QSeries(cs[:k] + [cs[k] + 1] + cs[k + 1 :])


@pytest.mark.parametrize("order", BINOMIAL_ORDERS)
@pytest.mark.parametrize("c0", (1, -1))
def test_a_quotient_checks_as_its_divided_series(order, c0, monkeypatch):
    # check passes a/b against the divided series, and fails a slipped one
    # at the slip, with the divided values, although it divides only then
    rng = random.Random(1515 + order + c0)
    small = [rng.randint(-3, 3) for _ in range(order + 1)]
    for b in _unit_series(rng, order, c0):
        for a in (small, one(order).coeffs, _kronecker_mul(b, small, order)):
            side = Quotient(QSeries(a, order), QSeries(b, order))
            want = _by_inverse(a, b, order)
            k = rng.randrange(order + 1)
            slip = check("q", order, [("", side, _slipped(want, k))])
            assert slip.mismatch == (k, want[k], want[k] + 1)
            with monkeypatch.context() as m:
                m.setattr(QSeries, "invert", None)
                assert check("q", order, [("", side, QSeries(want, order))]).ok
                assert check("q", order, [("", side, side * 1)]).ok


def _partition_numbers(n):
    """p(0) .. p(n) by Euler's pentagonal recurrence."""
    p = [1]
    for m in range(1, n + 1):
        total, k = 0, 1
        while k * (3 * k - 1) // 2 <= m:
            sign = 1 if k % 2 else -1
            total += sign * p[m - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= m:
                total += sign * p[m - k * (3 * k + 1) // 2]
            k += 1
        p.append(total)
    return p


def test_a_quotient_wider_than_its_parts():
    # 1/(q;q)_inf: 105-bit coefficients at 1000 from 1-bit num and den
    side = Quotient(one(1000), poch_infinite(Monomial(1, 1), 1, 1000))
    want = _partition_numbers(1000)
    assert list(divided(side).coeffs) == want
    assert want[1000] == 24061467864032622473692149727991
    assert check("p", 1000, [("", side, QSeries(want))]).ok
    slip = check("p", 1000, [("", side, _slipped(want, 1000))])
    assert slip.mismatch == (1000, want[1000], want[1000] + 1)
