"""The term-ratio summation kernel against a dense reference, against the
term-by-term kernel its Horner form replaced, and against the list Horner
walk its packed, division-free walk replaced; and the initial term's
factors, which the walk cancels against its divides, against the same sums
given the initial term times their product.

The dense reference builds every term from explicit factor series with
QSeries.__mul__ and invert at the full order, so it shares none of the
kernel's list trimming, leading-exponent bookkeeping or factor cancellation.
"""

import random
from fractions import Fraction

import pytest

import overq.cli as cli
from overq import bailey, identities, products
from overq.enumeration import FAMILIES
from overq.identities import gen_family
from overq.products import (
    Monomial,
    NegativeExponentFactor,
    NonterminatingSum,
    Ratio,
    ZeroDenominator,
    _paired,
    poch_finite,
    ratio_sum,
)
from overq.report import check
from overq.series import (
    OrderExceededError,
    QSeries,
    Quotient,
    _div_binomial_inplace,
    _mul_binomial_inplace,
    divided,
    monomial,
    one,
    zero,
)

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
    got = divided(got)  # a sum that leaves a divide over is a Quotient
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


# -- the term-by-term kernel the Horner form replaced --------------------------


def _forward_advance(ratio, term, n, at, order):
    """term(n)/q^at -> term(n+1)/q^at' in place, trimmed to the order."""
    sign, slope, offset = ratio.shift
    at += slope * n + offset
    del term[max(0, order + 1 - at):]
    if sign == -1:
        term[:] = [-v for v in term]
    muls = [(c, a * n + b) for c, a, b in ratio.muls]
    divs = []
    for c, a, b in ratio.divs:
        f = (c, a * n + b)
        if f in muls:
            muls.remove(f)
        else:
            divs.append(f)
    for c, e in muls + divs:
        if e < 0:
            raise NegativeExponentFactor(f"factor (1 - {c}*q^{e}) at n={n}")
    for c, e in muls:
        if e < len(term):
            _mul_binomial_inplace(term, c, e)
    for c, e in divs:
        if e == 0 and c == 1:
            raise ZeroDenominator(f"divisor (1 - q^0) at n={n}")
        if e < len(term):
            _div_binomial_inplace(term, c, e)
    return at


def _forward_sum(init, ratio, order, start=0, at=0):
    """Add each term to a running total, then advance it by the ratio."""
    if init.order < order - at:
        raise OrderExceededError(
            f"initial term of order {init.order} at q^{at} cannot reach q^{order}"
        )
    total = [0] * (order + 1)
    term = list(init.coeffs[: max(0, order + 1 - at)])
    _, slope, offset = ratio.shift
    n = start
    while at <= order:
        for i, v in enumerate(term):
            total[at + i] += v
        if slope * n + offset < 1:
            raise NonterminatingSum(f"step n={n} does not raise the term degree")
        at = _forward_advance(ratio, term, n, at, order)
        n += 1
    return QSeries(total, order)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("fractions", (False, True), ids=("int", "fraction"))
def test_horner_sum_matches_the_forward_kernel(order, fractions):
    rng = random.Random(7417 + order + 1000 * fractions)
    for sweep in range(SWEEPS):
        ratio = _random_ratio(rng, sign=-1 if sweep % 2 else 1)
        start, at = rng.randint(0, 2), rng.randint(0, 3)
        for init in (_random_init(rng, order, fractions), one(order)):
            got = ratio_sum(init, ratio, order, start=start, at=at)
            _assert_same(got, _forward_sum(init, ratio, order, start, at), order)


#: (ratio, start, at, order) that each kernel must refuse with one error
REFUSED = [
    # a step that does not raise the degree, at n = 0 and at n = 3
    (Ratio((1, 0, 0)), 0, 0, 9),
    (Ratio((1, -1, 3)), 0, 0, 9),
    # a negative factor exponent, at n = 0 and once n reaches 4
    (Ratio((1, 0, 1), muls=((1, 1, -2),)), 0, 0, 9),
    (Ratio((-1, 0, 1), muls=((1, -1, 3),)), 0, 0, 9),
    # the zero divisor (1 - q^0) at n = 2, and at the last term to reach
    # q^9, whose ratio reaches no coefficient
    (Ratio((1, 0, 1), divs=((1, -1, 2),)), 0, 0, 9),
    (Ratio((1, 0, 1), divs=((1, -1, 9),)), 0, 0, 9),
    # a negative exponent at n = 0 before a flat step at n = 2
    (Ratio((1, -1, 2), muls=((1, 0, -1),)), 0, 0, 9),
    # a flat step and a zero divisor both at n = 2: the step is checked first
    (Ratio((1, -1, 2), divs=((1, -1, 2),)), 0, 0, 9),
    # constant rows: the zero divisor at n = 0, the same zero divisor once
    # the multiply (1 - q^n) that cancels it at n = 0 moves on at n = 1, and
    # a negative constant exponent at the start
    (Ratio((1, 0, 1), divs=((1, 0, 0),)), 0, 0, 9),
    (Ratio((1, 0, 1), muls=((1, 1, 0),), divs=((1, 0, 0),)), 0, 0, 9),
    (Ratio((1, 0, 1), muls=((1, 0, -1),)), 0, 0, 9),
    # a divide of slope 1 that is the zero divisor at n = 2 only
    (Ratio((1, 0, 1), divs=((1, 1, -2),)), 2, 0, 9),
]


def _raised(build):
    try:
        build()
    except Exception as exc:  # the kernels' own errors, compared below
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("case", range(len(REFUSED)))
@pytest.mark.parametrize("fractions", (False, True), ids=("int", "fraction"))
def test_horner_sum_refuses_what_the_forward_kernel_refuses(case, fractions):
    ratio, start, at, order = REFUSED[case]
    init = _random_init(random.Random(case), order, fractions)
    want = _raised(lambda: _forward_sum(init, ratio, order, start, at))
    assert want is not None and want[0] in (NonterminatingSum, NegativeExponentFactor, ZeroDenominator)
    assert _raised(lambda: ratio_sum(init, ratio, order, start=start, at=at)) == want


@pytest.mark.parametrize("fractions", (False, True), ids=("int", "fraction"))
def test_horner_sum_refuses_a_short_initial_term(fractions):
    init = _random_init(random.Random(5), 3, fractions)
    want = _raised(lambda: _forward_sum(init, Ratio((1, 0, 1)), 5, 0, 1))
    assert want[0] is OrderExceededError
    assert _raised(lambda: ratio_sum(init, Ratio((1, 0, 1)), 5, at=1)) == want


# -- gen_family against its inline product loop --------------------------------


def _inline_gen_family(spec, order):
    """The smallest-part sum with its s = 1 summand built one binomial at a
    time, every infinite product as often as its power, then summed term by
    term."""
    cf, df = spec.fin_factor
    cur = [0] * (order + 1)
    cur[0] = 1
    for c, d, m in spec.inf_factors:
        for _ in range(m):
            for ex in range(1 + d, order + 1):
                _mul_binomial_inplace(cur, c, ex)
    _mul_binomial_inplace(cur, cf, 1 + df)
    ratio = Ratio(
        (1, 0, spec.prefactor),
        muls=((cf, 2, df), (cf, 2, df + 1)),
        divs=tuple((c, 1, d) for c, d, m in spec.inf_factors for _ in range(m))
        + ((cf, 1, df),),
    )
    return _forward_sum(QSeries(cur, order), ratio, order, start=1, at=spec.prefactor)


@pytest.mark.parametrize("order", ORDERS + (2, 3, 99, 100, 101))
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_gen_family_matches_the_inline_product_loop(name, order):
    _assert_same(gen_family(name, order), _inline_gen_family(FAMILIES[name], order), order)


# -- paired factors against the unpaired table ---------------------------------


def _unpaired_apply(ratio, cs, muls, divs):
    """Multiply cs in place by the ratio's sign and the rows (c, 0, e) muls
    and divs, each on its own; a factor past the end of cs leaves it as it
    is.  Given _paired lists it applies the pairing too."""
    if ratio.shift[0] == -1:
        cs[:] = [-v for v in cs]
    for c, _, e in muls:
        if e < len(cs):
            _mul_binomial_inplace(cs, c, e)
    for c, _, e in divs:
        if e < len(cs):
            _div_binomial_inplace(cs, c, e)


def _pairable(muls, divs):
    return any(c in (1, -1) and (1, 0, 2 * e) in muls for c, _, e in divs)


def _pairing_ratio(rng):
    """A table whose divides often meet a multiply at twice their exponent;
    c = 2 must never pair."""
    divs = tuple((rng.choice((1, -1, 2)), rng.randint(0, 2), rng.randint(1, 4)) for _ in range(2))
    muls = tuple((1, 2 * a, 2 * b) for c, a, b in divs if rng.random() < 0.7)
    muls += tuple((rng.choice((1, -1)), rng.randint(0, 3), rng.randint(0, 5)) for _ in range(2))
    return Ratio((rng.choice((1, -1)), 1, 1), muls, divs)


@pytest.mark.parametrize("order", (0, 1, 7, 60, 400))
@pytest.mark.parametrize("fractions", (False, True), ids=("int", "fraction"))
def test_paired_apply_matches_the_unpaired(order, fractions):
    rng = random.Random(9011 + order + 1000 * fractions)
    paired_somewhere = False
    for _ in range(4 * SWEEPS):
        ratio = _pairing_ratio(rng)
        # lists as short as 1, so that 2e is often past the end
        length = rng.choice((1, 2, 3, order + 1))
        cs = list(_random_init(rng, max(order, 3), fractions).coeffs[:length])
        for n in range(4):
            muls, divs = ratio.factors(n)
            paired_somewhere |= _pairable(muls, divs)
            got, want = list(cs), list(cs)
            _unpaired_apply(ratio, got, *_paired(muls, divs))
            _unpaired_apply(ratio, want, muls, divs)
            assert QSeries(got).coeffs == QSeries(want).coeffs, (ratio, n, length)
    assert paired_somewhere


def _applied(ratio, order):
    cs = [1] + [0] * order
    _unpaired_apply(ratio, cs, *_paired(*ratio.factors(0)))
    return list(QSeries(cs).coeffs)


def test_pairing_is_exact_and_only_for_unit_c():
    # (1 - q^4) / (1 + q^2) = 1 - q^2
    assert _applied(Ratio((1, 0, 1), muls=((1, 0, 4),), divs=((-1, 0, 2),)), 6) == [
        1, 0, -1, 0, 0, 0, 0
    ]
    # (1 - q^4) / (1 - 2q^2) = (1 - q^4) * sum 2^k q^(2k), not 1 + 2q^2
    assert _applied(Ratio((1, 0, 1), muls=((1, 0, 4),), divs=((2, 0, 2),)), 6) == [
        1, 0, 2, 0, 3, 0, 6
    ]
    # (1 - q^0) / (1 + q^0) = 0 = 1 - q^0, paired at e = 0 too
    assert _applied(Ratio((1, 0, 1), muls=((1, 0, 0),), divs=((-1, 0, 0),)), 3) == [0] * 4
    # the checks in factors see every divide: one zero divisor is left after
    # cancelling (1 - q^0) once, and a negative exponent raises
    with pytest.raises(ZeroDenominator):
        Ratio((1, 0, 1), muls=((1, 0, 0),), divs=((1, 0, 0), (1, 0, 0))).factors(0)
    with pytest.raises(NegativeExponentFactor):
        Ratio((1, 0, 1), muls=((1, 2, -2),), divs=((1, 1, -1),)).factors(0)


# -- the packed walk against the list Horner walk it replaced ------------------


def _list_horner_sum(init, ratio, order, start=0, at=0):
    """S_n = 1 + R_n S_(n+1) on a coefficient list, innermost term first,
    dividing by each ratio's divides in place; init multiplies in at the
    end.  The same first walk checks every ratio's factors."""
    if init.order < order - at:
        raise OrderExceededError(
            f"initial term of order {init.order} at q^{at} cannot reach q^{order}"
        )
    _, slope, offset = ratio.shift
    n = start
    while at <= order:
        step = slope * n + offset
        if step < 1:
            raise NonterminatingSum(f"step n={n} does not raise the term degree")
        ratio.factors(n)
        at += step
        n += 1
    if n == start:
        return zero(order)
    last = n - 1
    at -= slope * last + offset
    s = [1] + [0] * (order - at)
    for k in range(last - 1, start - 1, -1):
        _unpaired_apply(ratio, s, *ratio.factors(k))
        step = slope * k + offset
        s = [1] + [0] * (step - 1) + s
        at -= step
    head = init.coeffs[: len(s)]
    if head[0] != 1 or any(head[1:]):
        top = len(s) - 1
        s = list((QSeries(head, top) * QSeries(s, top)).coeffs)
    return QSeries([0] * at + s, order)


@pytest.mark.parametrize("order", ORDERS + (400,))
@pytest.mark.parametrize("fractions", (False, True), ids=("int", "fraction"))
def test_packed_walk_matches_the_list_walk(order, fractions):
    rng = random.Random(15015 + order + 1000 * fractions)
    for sweep in range(SWEEPS):
        ratio = _random_ratio(rng, sign=-1 if sweep % 2 else 1)
        start, at = rng.randint(0, 2), rng.randint(0, 3)
        for init in (_random_init(rng, order, fractions), one(order)):
            got = ratio_sum(init, ratio, order, start=start, at=at)
            _assert_same(got, _list_horner_sum(init, ratio, order, start, at), order)


@pytest.mark.parametrize("order", ORDERS + (400,))
@pytest.mark.parametrize("sign", (1, -1))
def test_a_constant_divide_leaves_2_to_the_k_in_the_den_undivided(order, sign, monkeypatch):
    # (1 + q^0) = 2 at every n: P_start is 2^k times a unit series, and
    # 2^k stays in the denominator's constant term: the check that takes
    # the quotient divides by nothing, and the sum is not integral
    ratio = Ratio((sign, 1, 1), muls=((-1, 1, 1),), divs=((-1, 0, 0), (1, 1, 1)))
    init = _random_init(random.Random(order), order, False)
    want = _list_horner_sum(init, ratio, order, 1)
    with monkeypatch.context() as m:
        m.setattr(QSeries, "invert", None)
        got = ratio_sum(init, ratio, order, start=1)
        assert check("sum", order, [("", got, want)]).ok
    _assert_same(got, want, order)
    assert isinstance(got, Quotient) == (order >= 2) == (not want.is_integral())
    if order >= 2:
        t = got.den.coeffs[0]
        assert t > 1 and t & (t - 1) == 0


def test_the_walk_widens_its_slots(monkeypatch):
    # (q;q)_n^3 over n: U and P outgrow the slots the walk starts in, and
    # the slots it widens to, by order 300
    widened = []
    real = products._Slots.reserve

    def counted(slots, bound, grow, *packed):
        got = real(slots, bound, grow, *packed)
        if got[0] is not slots:
            widened.append(slots.width)
        return got

    monkeypatch.setattr(products._Slots, "reserve", counted)
    ratio = Ratio((-1, 0, 1), muls=((-1, 1, 3),), divs=((1, 1, 1),) * 3)
    init = _random_init(random.Random(3), 300, False)
    got = ratio_sum(init, ratio, 300, start=1)
    assert len(widened) >= 2 and widened[0] == products._START_WIDTH
    _assert_same(got, _list_horner_sum(init, ratio, 300, 1), 300)


@pytest.mark.parametrize("order", (30, 60, 120))
def test_the_walk_bound_covers_a_table_that_reaches_it(order):
    # U_n = (1 + 3q)^(last-n) + 4q U_(n+1): its coefficients grow by a
    # little more than 2 bits a step, past a bound that left out the add's 1
    ratio = Ratio((1, 0, 1), muls=((-1, 0, 0), (-1, 0, 0)), divs=((-3, 0, 1),))
    got = ratio_sum(one(order), ratio, order)
    _assert_same(got, _list_horner_sum(one(order), ratio, order), order)


def test_every_package_table_matches_the_list_walk(monkeypatch):
    """Every sum gen_family, phi32 and bailey build, at the bench orders."""
    seen = []

    def both(init, ratio, order, start=0, at=0, factors=()):
        got = ratio_sum(init, ratio, order, start, at, factors)
        want = _list_horner_sum(_times(init, factors), ratio, order, start, at)
        _assert_same(got, want, order)
        seen.append(ratio)
        return got

    for module in (products, identities, bailey):
        monkeypatch.setattr(module, "ratio_sum", both)
    for name in FAMILIES:
        gen_family(name, 1000)
    assert len(seen) == len(FAMILIES)
    assert cli.main(["verify", "--target", "all", "--order", "400", "--format", "json"]) == 0
    assert len(set(seen)) > 2 * len(FAMILIES)


# -- each table compiled once, against its factors at every n ------------------


#: (ratio, start) with a coincidence planted at one n: a multiply and a
#: divide with one c and different slopes; a pairing that matches only
#: there; a pair that cancels everywhere but is negative below n = 3; a
#: zero divide cancelled at n = 2; and a divide that pairs, at n = 1 only,
#: with the multiply an earlier divide's pairing made
PLANTED = [
    (Ratio((1, 1, 1), muls=((1, 2, 0), (-1, 1, 1)), divs=((1, 1, 3), (2, 1, 1))), 0),
    (Ratio((-1, 0, 2), muls=((1, 1, 7), (1, 2, 1)), divs=((-1, 1, 2), (1, 2, 1))), 0),
    (Ratio((1, 1, 1), muls=((1, 1, -3), (-1, 2, 0)), divs=((1, 1, -3), (1, 1, 1))), 0),
    (Ratio((1, 0, 1), muls=((1, 2, -4), (-1, 1, 0)), divs=((1, 1, -2),)), 2),
    (Ratio((1, 1, 2), muls=((1, 2, 6),), divs=((-1, 1, 3), (1, 1, 1))), 0),
]


def _tables_to_compile():
    rng = random.Random(18018)
    tables = [(_random_ratio(rng, sign=rng.choice((1, -1))), rng.randint(0, 2)) for _ in range(60)]
    tables += [(_pairing_ratio(rng), rng.randint(0, 2)) for _ in range(20)]
    return tables + PLANTED


def test_a_compiled_table_gives_the_factors_at_every_n():
    per_n = 0
    for ratio, start in _tables_to_compile():
        table = products._compiled(ratio)
        if table is None:
            per_n += 1
            continue
        low, muls, divs = table
        for n in range(max(start, low), start + 41):
            want = _paired(*ratio.factors(n))
            got = ([(c, 0, a * n + b) for c, a, b in muls], [(c, 0, a * n + b) for c, a, b in divs])
            assert [sorted(x) for x in got] == [sorted(x) for x in want], (ratio, n)
    assert per_n < 10  # random rows are never constant and negative
    # every planted coincidence (at n = 3, 3, below 3, 2 and 1) is on the
    # per-n path, below its table's bound, and only a few n are
    assert [products._compiled(ratio)[0] for ratio, _ in PLANTED] == [4, 7, 8, 3, 2]


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("fractions", (False, True), ids=("int", "fraction"))
def test_compiled_tables_sum_as_the_list_walk(order, fractions):
    rng = random.Random(18019 + order + 1000 * fractions)
    for ratio, start in _tables_to_compile()[::4] + PLANTED:
        at = rng.randint(0, 3)
        init = _random_init(rng, order, fractions)
        want = _raised(lambda: _list_horner_sum(init, ratio, order, start, at))
        if want is not None:
            assert _raised(lambda: ratio_sum(init, ratio, order, start=start, at=at)) == want
            continue
        got = ratio_sum(init, ratio, order, start=start, at=at)
        _assert_same(got, _list_horner_sum(init, ratio, order, start, at), order)


def test_a_family_walk_takes_the_factors_at_few_n(monkeypatch):
    # gen_family's tables meet a coincidence only at their first few n
    seen = []
    real = Ratio.factors

    def factors(ratio, n):
        seen.append(n)
        return real(ratio, n)

    monkeypatch.setattr(Ratio, "factors", factors)
    _assert_same(gen_family("A", 300), _inline_gen_family(FAMILIES["A"], 300), 300)
    assert seen and max(seen) <= 2


#: a table with a negative slope, which _compiled refuses, so every n takes
#: the per-n path
NEGATIVE_SLOPE = Ratio((-1, 1, 1), muls=((1, -1, 40), (-1, 1, 2)), divs=((1, 1, 1),))


def test_each_n_s_factors_are_worked_out_once(monkeypatch):
    seen = []
    real = Ratio.factors

    def factors(ratio, n):
        seen.append(n)
        return real(ratio, n)

    monkeypatch.setattr(Ratio, "factors", factors)
    assert products._compiled(NEGATIVE_SLOPE) is None
    sums = [lambda r=r, s=s: ratio_sum(one(60), r, 60, start=s) for r, s in PLANTED]
    sums.append(lambda: ratio_sum(one(60), NEGATIVE_SLOPE, 60))
    sums.append(lambda: gen_family("A", 300))
    for run in sums:
        seen.clear()
        run()
        assert seen and len(seen) == len(set(seen)), seen


# -- the initial term's factors, cancelled against the walk's divides ----------


def _times(init, factors):
    """init times the factors (c, e, m, n), each (c*q^e;q)_n^m, one
    binomial at a time."""
    cs = list(init.coeffs)
    for c, e, m, n in factors:
        for ex in range(e, len(cs) if n is None else min(e + n, len(cs))):
            for _ in range(m):
                _mul_binomial_inplace(cs, c, ex)
    return QSeries(cs, init.order)


def _random_factors(rng, ratio, start):
    """Runs that hold most of the table's unit divides from n = start on,
    an infinite run for a slope-1 row and a single binomial for a constant
    one, some of them twice; plus a few runs no divide meets."""
    factors = []
    for c, a, b in ratio.divs:
        e = a * start + b
        if c in (1, -1) and e >= 1 and rng.random() < 0.8:
            factors.append((c, e, rng.choice((1, 1, 2)), 1 if a == 0 else None))
    for _ in range(rng.randint(0, 2)):
        n = rng.choice((None, 0, 1, 3))
        factors.append((rng.choice((1, -1)), rng.randint(1, 9), rng.randint(1, 2), n))
    rng.shuffle(factors)
    return tuple(factors)


def _spy(monkeypatch, name, calls):
    real = getattr(products, name)

    def spy(*args):
        calls.append(name)
        return real(*args)

    monkeypatch.setattr(products, name, spy)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("fractions", (False, True), ids=("int", "fraction"))
def test_factors_match_the_initial_term_times_their_product(order, fractions, monkeypatch):
    calls = []
    _spy(monkeypatch, "_unmatched", calls)
    _spy(monkeypatch, "_binomial_product", calls)
    rng = random.Random(16016 + order + 1000 * fractions)
    for sweep in range(2 * SWEEPS):
        ratio = _random_ratio(rng, sign=-1 if sweep % 2 else 1)
        start, at = rng.randint(0, 2), rng.randint(0, 3)
        factors = _random_factors(rng, ratio, start)
        for init in (_random_init(rng, order, fractions), one(order)):
            got = ratio_sum(init, ratio, order, start=start, at=at, factors=factors)
            want = _dense_sum(_times(init, factors), ratio, order, start, at)
            _assert_same(got, want, order)
    # both ends are reached: every divide cancelled, and some divide left over
    assert {"_unmatched", "_binomial_product"} <= set(calls) or order < 60


@pytest.mark.parametrize("case", range(len(REFUSED)))
@pytest.mark.parametrize("fractions", (False, True), ids=("int", "fraction"))
def test_factors_leave_every_refusal_as_it_was(case, fractions):
    ratio, start, at, order = REFUSED[case]
    rng = random.Random(case)
    init = _random_init(rng, order, fractions)
    factors = ((1, 1, 2, None), (-1, 1, 1, None), (1, 2, 1, 1))
    factors += _random_factors(rng, ratio, start)
    want = _raised(lambda: ratio_sum(init, ratio, order, start=start, at=at))
    assert want is not None
    got = _raised(lambda: ratio_sum(init, ratio, order, start=start, at=at, factors=factors))
    assert got == want


@pytest.mark.parametrize(
    "bad", [(2, 1, 1, None), (1, 0, 1, None), (-1, 0, 1, 1), (1, 1, -1, None), (1, 1, 1, -1)]
)
def test_a_factor_that_is_not_a_run_of_units_is_refused(bad):
    with pytest.raises(ValueError):
        ratio_sum(one(9), Ratio((1, 0, 1), divs=((1, 1, 1),)), 9, factors=(bad,))


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("fractions", (False, True), ids=("int", "fraction"))
def test_a_divide_with_c_2_is_left_over(order, fractions, monkeypatch):
    # (1 - 2q^(n+1)) is no factor's binomial: the sum builds the product and
    # divides, as it does for a table without factors
    calls = []
    _spy(monkeypatch, "_unmatched", calls)
    _spy(monkeypatch, "_binomial_product", calls)
    ratio = Ratio((1, 1, 1), muls=((-1, 1, 2),), divs=((1, 1, 1), (2, 1, 1)))
    factors = ((1, 1, 1, None), (-1, 3, 2, 4))
    init = _random_init(random.Random(order), order, fractions)
    got = ratio_sum(init, ratio, order, factors=factors)
    _assert_same(got, _dense_sum(_times(init, factors), ratio, order, 0, 0), order)
    # at order 0 no step reaches a coefficient, so no divide is applied
    assert calls == ["_unmatched" if order == 0 else "_binomial_product"]


def test_g_leaves_a_divide_over_and_divides(monkeypatch):
    want = _inline_gen_family(FAMILIES["G"], 400)
    calls = []
    _spy(monkeypatch, "_unmatched", calls)
    _spy(monkeypatch, "_binomial_product", calls)
    assert isinstance(identities._family_sum(FAMILIES["G"], 400), Quotient)
    assert calls == ["_binomial_product"]
    _assert_same(gen_family("G", 400), want, 400)


def _refuse(*args):
    raise AssertionError("called a kernel that a cancelled sum never needs")


@pytest.mark.parametrize("name", ["F", "A", "A2", "B", "C", "D"])
def test_gen_family_builds_no_product_and_divides_nothing(name, monkeypatch):
    want = _inline_gen_family(FAMILIES[name], 300)
    monkeypatch.setattr(products, "poch_infinite", _refuse)
    monkeypatch.setattr(QSeries, "invert", _refuse)
    if name != "D":  # D's tail (q^(L/2);q)_inf^3 is one Kronecker product
        monkeypatch.setattr(products, "_kronecker_mul", _refuse)
        monkeypatch.setattr(QSeries, "__mul__", _refuse)
    _assert_same(gen_family(name, 300), want, 300)


def test_g_builds_its_left_over_product_without_poch_infinite(monkeypatch):
    want = _inline_gen_family(FAMILIES["G"], 1000)
    monkeypatch.setattr(products, "poch_infinite", _refuse)
    _assert_same(gen_family("G", 1000), want, 1000)
