"""Pochhammer products, the term-ratio summation kernel, and theta series.

Product parameters are signed monomials c*q^e with c in {+1, -1}.  A
parameter exponent may be negative (q^-1 is a legal parameter value) as
long as every factor the product actually realizes has a nonnegative
exponent; violations raise rather than truncate.  Infinite products and
sums are truncated at the requested series order, which is sound because
every realized factor exponent grows without bound.

A Pochhammer product of L coefficients is built factor by factor on one
integer x: coefficient i sits in slot i of w bits, as series._pack lays it
out, so x = P(2^w) for the product P so far.  Only x modulo 2^(w*L) is
kept: q -> 2^w maps the series truncated after q^(L-1) into the integers
modulo 2^(w*L), sums and products alike, so the slots above q^(L-1) never
reach the ones below.  Multiplying by (1 - c*q^e) is x - c*(y << w*e) with
y = x & (mask >> w*e), the low L - e slots of x: y and x differ by a
multiple of 2^(w*(L-e)), so the two shifts differ by a multiple of
2^(w*L) and the result is the same residue, while the shift moves only
the L - e slots that stay instead of building L + e.

Exactness rests on one invariant: a bound b <= w - 1 with every
coefficient below 2^b in size, so that series._unpack reads every slot
back exactly.  A binomial (1 - c*q^e) raises b by the bit length of c,
and the sum of two packed integers raises it by 1.  So does a divide by
(1 - c*q^e), c = +-1 and e >= 1, modulo q^L, as _shift_div makes it for
_horner_sum, the Bailey relation's sum over r and the one walk that divides:
1/(1 - q^e) is the product of the (1 + q^(e*2^k)) with e*2^k < L, those
past q^(L-1) being 1 modulo q^L, and 1/(1 + q^e) is (1 - q^e)/(1 - q^(2e)).
Either way that is bits((L - 1) // e) binomials with c = +-1, each one
shift and one sum, so the divide raises b by bits((L - 1) // e), and by 0
when e >= L, where it leaves x as it is.  A _Slots layout of L
slots keeps the invariant for every integer packed in it: before a step
that can raise b by g, reserve(b, g, ...) makes b + g <= w - 1.  If it
does not hold yet, one test certifies a smaller bound.  For a threshold
t <= w - 2, add 2^t to every slot of x and AND with the slot bits
t+1 .. w-1, at least one bit.  The result is 0 exactly when every
coefficient c lies in [-2^t, 2^t).  If they all do, each slot holds
c + 2^t in [0, 2^(t+1)), with no borrow between slots.  If the result is
0, every slot holds some v in [0, 2^(t+1)), the v and the c + 2^t agree
modulo 2^(w*L), and each v differs from its c + 2^t by less than
2^b + 2^t <= 2^(w-1) + 2^(w-2) < 2^w, so they are equal: the lowest slot
where they differed would differ by a multiple of 2^w.  The test proves
|c| <= 2^t, so b becomes t + 1, not t.

A layout holds one threshold t and its two constants.  reserve tests at
the last t that passed, steps t up by 1 after a failure and tests again,
and widens only once t + 1 + g >= w: each integer is decoded, still exact
under the invariant, and packed again with b the largest coefficient's
bit length, in slots of the fewest whole bytes that leave _ROOM bits
above b + g, with t = b.  A value starts at 1 with b = t = 1 in slots of
_START_WIDTH bytes.  So the width and t follow the coefficients the
integers hold, which in a ratio_sum walk stay at a few bits for hundreds
of steps while the bound grows by g every step.

One layout also serves an integer reduced modulo 2^(w*l), l < L, as
ratio_sum's numerator is.  Read as L slots it holds its l coefficients,
then 0 or 1 (a borrow from below), then zeros: for t >= 1 the test passes
on it exactly when its l coefficients pass, as 2^t + 1 < 2^(t+1), and a
failed test is always safe, it only steps t up.  Packed again it still
holds them, with at most that 1 above, which the walk's next shift and
reduction drop.

Every q-hypergeometric sum over n in the package is an initial term plus a
Ratio table: term(n+1)/term(n) is a signed power of q times binomial
factors multiplied in or divided out.  A factor is one row (c, a, b)
everywhere, standing for (1 - c*q^(a*n + b)); a factor realized at one n
is the row (c, 0, e).  ratio_sum sums such a table on the same packing,
as a numerator and a denominator that nothing divides (see ratio_sum);
phi32 is the 3-phi-2 instance.

An initial term may come as factors, runs (c*q^e; q)_n^m of binomials
(1 - c*q^e) with c = +-1 and e >= 1, which ratio_sum nets against the
divides it applies instead of building them (see ratio_sum).

A builder marked @shared runs once per argument set inside a sharing()
scope and hands every later caller in the scope that same immutable
result; outside any scope it runs on every call.  The memo only ever
returns a builder's own output, so sharing never puts one side of an
identity in place of the other.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from contextvars import ContextVar
from itertools import combinations
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from ._frozen import Frozen
from .series import (
    Coeff,
    OrderExceededError,
    QSeries,
    Quotient,
    _div_binomial_inplace,  # unused here; bench/spans.py traces this binding
    _kronecker_mul,
    _mul_binomial_inplace,
    _ones,
    _pack,
    _unpack,
    one,
    zero,
)


#: the open sharing scope's memo, keyed by (builder, positional arguments)
_MEMO: ContextVar[Optional[dict]] = ContextVar("overq_memo", default=None)


@contextmanager
def sharing() -> Iterator[None]:
    """Scope in which each @shared builder runs once per argument set.

    A nested scope reuses the outer memo; the outermost scope releases it
    on exit."""
    if _MEMO.get() is not None:
        yield
        return
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def shared(builder: Callable) -> Callable:
    """Inside a sharing() scope, return builder's own first result for a
    repeated set of positional arguments; outside any scope, just call it.

    Only for pure builders with hashable arguments and immutable results.
    A call that raises stores nothing."""

    @functools.wraps(builder)
    def run(*args):
        memo = _MEMO.get()
        if memo is None:
            return builder(*args)
        key = (builder, args)
        if key not in memo:
            memo[key] = builder(*args)
        return memo[key]

    return run


class NegativeExponentFactor(ValueError):
    """A product factor would realize q to a negative power."""


class NonconvergentProduct(ValueError):
    """An infinite product whose factors do not march past the order."""


class NonterminatingSum(ValueError):
    """A hypergeometric sum whose terms never drop below the order."""


class ZeroDenominator(ZeroDivisionError):
    """A hypergeometric term divides by a factor that is identically zero."""


class NonintegralExponent(ValueError):
    """A theta exponent polynomial that does not divide out to an integer."""


class Monomial(Frozen):
    """A signed power of q: c * q^e with c = +1 or -1."""

    c: int
    e: int

    def __post_init__(self):
        if self.c not in (1, -1):
            raise ValueError("monomial sign must be +1 or -1")

    def shifted(self, k: int) -> "Monomial":
        """Multiply by q^k."""
        return Monomial(self.c, self.e + k)

    def squared(self) -> "Monomial":
        return Monomial(1, 2 * self.e)

    def __repr__(self) -> str:
        s = "" if self.c == 1 else "-"
        return f"{s}q^{self.e}"


#: the slot width, in bytes, that every packed value starts in
_START_WIDTH = 2
#: the bits a widened layout leaves above the largest coefficient and a step
_ROOM = 16


class _Slots:
    """length slots of width bytes, as series._pack lays them out: the mask
    that keeps a packed integer to them, and the threshold t of the test
    that certifies a bound with its two constants (see the module
    docstring)."""

    __slots__ = ("length", "width", "mask", "ones", "t", "low", "high")

    def __init__(self, length: int, width: int = _START_WIDTH, t: int = 1):
        self.length, self.width = length, width
        self.mask = (1 << (8 * width * length)) - 1
        self.ones = _ones(width, length)
        self.threshold(t)

    def threshold(self, t: int) -> None:
        """Test against [-2^t, 2^t) from now on, t <= w - 2: add 2^t to
        every slot, AND with 2^w - 2^(t+1) in every slot."""
        self.t = t
        self.low = self.ones << t
        self.high = self.mask + self.ones - (self.ones << (t + 1))

    def holds(self, *packed: int) -> bool:
        """Whether every coefficient of the packed integers lies in [-2^t, 2^t)."""
        low, high = self.low, self.high
        return not any((x + low) & high for x in packed)

    def reserve(self, bound: int, grow: int, *packed: int) -> tuple["_Slots", int, tuple]:
        """Given bound + grow >= w, the layout, the bound and the packed
        integers, every coefficient of which is below 2^bound in size, with
        room for grow more bits below the slot top: with the smaller bound
        the one test certifies, or packed again in wider slots."""
        w = 8 * self.width
        while self.t + 1 + grow < w:
            if self.holds(*packed):
                return self, self.t + 1, packed
            self.threshold(self.t + 1)
        lists = [_unpack(x, self.width, self.length) for x in packed]
        bound = max(max(map(abs, cs)).bit_length() for cs in lists)
        wider = _Slots(self.length, (bound + grow + _ROOM + 7) // 8, bound)
        return wider, bound, tuple(_pack(cs, wider.width) & wider.mask for cs in lists)


def _bits(factors: Iterable[tuple]) -> int:
    """The bits that factors (c, ...) can add to a coefficient bound: a
    binomial (1 - c*q^e) adds at most the bit length of c."""
    return sum(abs(f[0]).bit_length() for f in factors)


def _shift_add(x: int, y: int, c: int, shift: int) -> int:
    """x - c*(y << shift): a packed series x times (1 - c*q^e), shift = w*e,
    with y = x or y = x modulo 2^(w*L - shift)."""
    if c == 1:
        return x - (y << shift)
    if c == -1:
        return x + (y << shift)
    return x - c * (y << shift)


def _shift_div(x: int, c: int, e: int, w: int, mask: int) -> int:
    """x / (1 - c*q^e) modulo 2^(w*L), for a packed series x of the L slots
    of mask, c = +-1 and e >= 1, by the doubling the module docstring
    proves: bits((L - 1) // e) _shift_adds, raising the bound by as many."""
    if c not in (1, -1) or e < 1:
        raise ValueError(f"packed divide by (1 - {c}*q^{e}) needs c = +-1 and e >= 1")
    shift, top = w * e, mask.bit_length()
    if c == -1:
        x = _shift_add(x, x & (mask >> shift), 1, shift) & mask
        shift *= 2
    while shift < top:
        x = _shift_add(x, x & (mask >> shift), -1, shift) & mask
        shift *= 2
    return x


def _binomial_product(runs: Iterable[tuple[int, Iterable[int]]], length: int) -> list:
    """The first length coefficients of the product of the binomials
    (1 - c*q^e) over the runs (c, exponents), c = +-1 and every e >= 0, on
    one packed integer whose slots widen when the bound needs it.

    The bound holds in any order of the binomials, and callers pass the
    largest e first: the (1 - q^k), k >= K, multiply to signed counts of
    partitions into distinct parts >= K, small until K is."""
    slots, bound, x = _Slots(length), 1, 1
    w, mask = 8 * slots.width, slots.mask
    for c, exponents in runs:
        for e in exponents:
            if bound + 1 >= w:
                slots, bound, (x,) = slots.reserve(bound, 1, x)
                w, mask = 8 * slots.width, slots.mask
            shift = w * e
            x = _shift_add(x, x & (mask >> shift), c, shift) & mask
            bound += 1
    return _unpack(x, slots.width, length)


def _horner_sum(steps: Iterable[tuple], length: int) -> list:
    """The first length coefficients of h_0, where h_top = alpha_top and
    h_r = alpha_r + rho_(r+1) * h_(r+1), from the steps (terms, rho) for
    r = top down to 0: alpha_r's (exponent, coefficient) terms, exponents
    below length, and rho = (1 - q^m)/(1 - c*q^d) as (m, c, d), m, d >= 1
    and c = +-1, or None at r = top.  Each step reserves its growth (module
    docstring): 1 for the _shift_add multiply, bits((length - 1) // d) for
    the _shift_div divide and 1 + bits(max |c|) for the terms."""
    slots, bound, h = _Slots(length), 0, 0
    for terms, rho in steps:
        grow = 1 + max(abs(c) for _, c in terms).bit_length() if terms else 0
        if rho:
            grow += 1 + ((length - 1) // rho[2]).bit_length()
        if bound + grow >= 8 * slots.width:
            slots, bound, (h,) = slots.reserve(bound, grow, h)
        w, mask = 8 * slots.width, slots.mask
        if rho:
            m, c, d = rho
            shift = w * m
            h = _shift_add(h, h & (mask >> shift), 1, shift) & mask
            h = _shift_div(h, c, d, w, mask)
        for e, c in terms:
            h += c << (w * e)
        h &= mask
        bound += grow
    return _unpack(h, slots.width, length)


def poch_finite(a: Monomial, base: int, n: int, order: int) -> QSeries:
    """(a; q^base)_n: the product of (1 - a*q^(j*base)) for j = 0 .. n-1."""
    if base < 1:
        raise ValueError("base must be >= 1")
    if n < 0:
        raise ValueError("length must be >= 0")
    exponents = []
    for j in range(n):
        ex = a.e + j * base
        if ex < 0:
            raise NegativeExponentFactor(
                f"factor (1 - {a.c}*q^{ex}) in ({a}; q^{base})_{n}"
            )
        if ex > order:
            break
        exponents.append(ex)
        if ex == 0 and a.c == 1:
            break  # the factor (1 - q^0) zeroed the whole product
    return QSeries(_binomial_product(((a.c, exponents[::-1]),), order + 1), order)


@shared
def poch_infinite(a: Monomial, base: int, order: int) -> QSeries:
    """(a; q^base)_inf truncated at the order; requires e >= 1 so the
    factor exponents eventually exceed any order."""
    if base < 1:
        raise ValueError("base must be >= 1")
    if a.e < 1:
        raise NonconvergentProduct(
            f"({a}; q^{base})_inf needs a positive leading exponent"
        )
    runs = ((a.c, range(a.e, order + 1, base)[::-1]),)
    return QSeries(_binomial_product(runs, order + 1), order)


class Ratio(Frozen):
    """The term ratio term(n+1)/term(n) of a sum over n:

        sign * q^(slope*n + offset) * prod muls / prod divs

    with shift = (sign, slope, offset), sign +1 or -1, and each factor
    (c, slope, offset) standing for (1 - c*q^(slope*n + offset)).
    """

    shift: tuple[int, int, int]
    muls: tuple[tuple[int, int, int], ...] = ()
    divs: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self):
        if self.shift[0] not in (1, -1):
            raise ValueError("ratio shift sign must be +1 or -1")

    def __mul__(self, other: "Ratio") -> "Ratio":
        """The ratio of the termwise product of two sums."""
        (s1, a1, b1), (s2, a2, b2) = self.shift, other.shift
        return Ratio((s1 * s2, a1 + a2, b1 + b2), self.muls + other.muls, self.divs + other.divs)

    def factors(self, n: int) -> tuple[list, list]:
        """The rows (c, 0, e), each the binomial (1 - c*q^e), that the ratio
        at n multiplies in and divides out, after _cancelled.  No factor left
        may have a negative exponent, and no divide may be the zero factor
        (1 - q^0)."""
        muls, divs = _cancelled(
            [(c, 0, a * n + b) for c, a, b in self.muls],
            [(c, 0, a * n + b) for c, a, b in self.divs],
        )
        for c, _, e in muls + divs:
            if e < 0:
                raise NegativeExponentFactor(f"factor (1 - {c}*q^{e}) at n={n}")
        if (1, 0, 0) in divs:
            raise ZeroDenominator(f"divisor (1 - q^0) at n={n}")
        return muls, divs


def _cancelled(muls: Iterable[tuple], divs: Iterable[tuple]) -> tuple[list, list]:
    """The rows muls and divs with each divide that equals a multiply left
    out, together with that multiply."""
    muls = list(muls)
    left = []
    for f in divs:
        if f in muls:
            muls.remove(f)
        else:
            left.append(f)
    return muls, left


def _paired(muls: Iterable[tuple], divs: Iterable[tuple]) -> tuple[list, list]:
    """The rows muls and divs with each divide (c, a, b), c = +-1, that
    meets a multiply (1, 2a, 2b) replaced, with that multiply, by the
    multiply (-c, a, b): their exact quotient, since c*c = 1."""
    muls = list(muls)
    unpaired = []
    for c, a, b in divs:
        if c in (1, -1) and (1, 2 * a, 2 * b) in muls:
            muls.remove((1, 2 * a, 2 * b))
            muls.append((-c, a, b))
        else:
            unpaired.append((c, a, b))
    return muls, unpaired


@functools.lru_cache(maxsize=None)
def _compiled(ratio: Ratio) -> Optional[tuple[int, tuple, tuple]]:
    """(low, muls, divs): the rows _paired(*_cancelled(ratio.muls,
    ratio.divs)), which realized at n are _paired(*ratio.factors(n)) for
    every n >= low, where factors raises nothing.  None for a table with a
    negative slope or a constant row that is negative or the zero divide
    (1 - q^0), which takes factors and _paired at every n.

    At one n, _cancelled and _paired compare binomials only: each divide
    with the multiplies, and (1 - q^(2e)) for a divide (1 - c*q^e),
    c = +-1, with the multiplies and the (1 + c*q^e) paired before it.  Two
    rows with one c realize one exponent at every n if they are equal, at
    no n if they differ only in b, and at one n at most otherwise.  low
    lies past every such n for any two of the multiplies, the divides, and
    the (-c, a, b) and (1, 2a, 2b) of the unit divides, the zero divide
    among them, and past every n where a row is negative."""
    rows = ratio.muls + ratio.divs
    if any(a < 0 or a == 0 and b < 0 for c, a, b in rows) or (1, 0, 0) in ratio.divs:
        return None
    units = [(c, a, b) for c, a, b in ratio.divs if c in (1, -1)]
    seen = set(rows) | {(-c, a, b) for c, a, b in units} | {(1, 2 * a, 2 * b) for c, a, b in units}
    meets = [
        (b2 - b) // (a - a2) + 1
        for (c, a, b), (c2, a2, b2) in combinations(seen, 2)
        if c == c2 and a != a2 and (b2 - b) % (a - a2) == 0
    ]
    low = max([-(b // a) for c, a, b in rows if a] + meets, default=0)
    muls, divs = _paired(*_cancelled(ratio.muls, ratio.divs))
    return low, tuple(muls), tuple(divs)


def _counts(factors: Iterable[tuple], full: int) -> dict[int, list]:
    """For each sign c = +-1, the multiplicity of (1 - c*q^e) for e < full
    in the product of the factors (c, e, m, n), each (c*q^e; q)_n^m with
    n = None for an infinite product."""
    counts = {1: [0] * full, -1: [0] * full}
    for c, e, m, n in factors:
        if c not in counts or e < 1 or m < 0 or (n is not None and n < 0):
            raise ValueError(f"factor ({c}*q^{e}; q)_{n}^{m} is not a run of units")
        top = full if n is None else min(full, e + n)
        row = counts[c]
        row[e:top] = [k + m for k in row[e:top]]
    return counts


def _unmatched(cs: list, counts: dict[int, list]) -> list:
    """cs times the binomials (1 - c*q^e) that counts still holds, to
    len(cs) coefficients.  Those with 2e >= len(cs) multiply out to
    1 - sum c*k*q^e, k their multiplicity, since any product of two of
    them is past the end: one Kronecker product, built in O(len(cs))."""
    full = len(cs)
    tail = [1] + [0] * (full - 1)
    for c, row in counts.items():
        for e, k in enumerate(row):
            if not k:
                continue
            if 2 * e < full:
                for _ in range(k):
                    _mul_binomial_inplace(cs, c, e)
            else:
                tail[e] -= c * k
    if any(tail[1:]):
        cs = _kronecker_mul(cs, tail, full - 1)
    return cs


def ratio_sum(
    init: QSeries,
    ratio: Ratio,
    order: int,
    start: int = 0,
    at: int = 0,
    factors: Sequence[tuple[int, int, int, Optional[int]]] = (),
) -> Union[QSeries, Quotient]:
    """Sum over n >= start of term(n), truncated at the order, where
    term(start) = q^at * init * F and term(n+1) = term(n) * ratio at n,
    with F the product of the factors (c, e, m, n): (c*q^e; q)_n^m for
    c = +-1 and e >= 1, with n = None for an infinite product.

    init needs only the coefficients that can reach the order from q^at.
    Every step must raise the term's leading exponent, so the sum stops
    once it passes the order.  A first walk over n finds the last term
    that reaches the order and works out the ratio's rows at n, with
    factors and _paired, at every n where _compiled's rows do not stand for
    them, the only n where factors can raise, so it raises what a
    term-by-term sum raises, at the same n.  It keeps those rows for the
    second walk, so each n's rows are worked out once per sum.

    The sum is q^at * init * F * S_start in Horner form, with
    S_n = 1 + R_n S_(n+1) and S_last = 1, and the second walk builds it
    without dividing.  With the ratio at n written sign * q^step * M_n / D_n,
    M_n and D_n the products of the multiply and divide rows at n, let
    P_n = D_n P_(n+1) and U_n = P_n S_n, so P_last = U_last = 1 and

        U_n = P_n + sign * q^step * M_n * U_(n+1).

    Both are shift-and-add on packed integers in one _Slots layout of
    L = order + 1 slots, under one bound on every coefficient of U and P
    (module docstring): a step raises it by at most g, 1 plus the larger of
    the table's multiply and divide bit lengths, so each step that could
    pass w - 1 first reserves g bits.  P keeps all L slots, a denominator
    through the order; U_n only the l <= L - at that still reach the order
    from q^at, by a mask modulo 2^(w*l), a ring map, once a step.

    The sum is q^at * init * F * U_start / P_start.  Every factor of F has
    constant term 1, so it is a unit of the integer series truncated to
    L - at coefficients, a ring in which a factor of F and an equal divide
    of P cancel exactly, whichever way they are paired.  So the walk nets
    each divide (1 - c*q^e) it applies to P, e < L - at, against F's
    binomials, kept as one list of multiplicities per sign.  If every such
    divide is netted, the sum is q^at * init * F' * U_start, where F' is
    what F has left: F itself is never built (see _unmatched for F').
    Otherwise it is the series.Quotient of q^at * init * F * U_start over
    P_start, F built as one packed product; a constant divide (1 - c*q^0)
    stays in P_start's constant term as the scalar 1 - c.
    """
    if init.order < order - at:
        raise OrderExceededError(
            f"initial term of order {init.order} at q^{at} cannot reach q^{order}"
        )
    full = order + 1 - at  # slots of U_start
    sign, slope, offset = ratio.shift
    low, *compiled = _compiled(ratio) or (None, (), ())
    per_n = {}  # the rows at each n the compiled rows do not stand for
    n = start
    while at <= order:
        step = slope * n + offset
        if step < 1:
            raise NonterminatingSum(f"step n={n} does not raise the term degree")
        if low is None or n < low:
            # raises what a term-by-term sum raises at this n
            per_n[n] = _paired(*ratio.factors(n))
        at += step
        n += 1
    if n == start:
        return zero(order)
    size = order + 1 - (at - slope * (n - 1) - offset)  # slots of U_last
    # factors, _paired and the length tests below only drop binomials, or
    # swap one with |c| = 1 for another, so the table's rows bound each step
    grow = 1 + max(_bits(ratio.muls), _bits(ratio.divs))
    slots, bound, u, p = _Slots(order + 1), 1, 1, 1
    w, mask = 8 * slots.width, slots.mask
    # F's binomials by sign and exponent; None once a divide is not one
    counts = _counts(factors, full) if factors else None
    for k in range(n - 2, start - 1, -1):
        muls, divs = per_n.get(k, compiled)
        if bound + grow >= w:
            slots, bound, (p, u) = slots.reserve(bound, grow, p, u)
            w, mask = 8 * slots.width, slots.mask
        for c, a, b in divs:
            e = a * k + b
            if e <= order:
                shift = w * e
                p = _shift_add(p, p & (mask >> shift), c, shift)
                if counts and e < full:
                    row = counts.get(c)
                    if row and row[e]:
                        row[e] -= 1
                    else:
                        counts = None
        p &= mask
        for c, a, b in muls:
            e = a * k + b
            if e < size:
                u = _shift_add(u, u, c, w * e)
        step = slope * k + offset
        shifted = u << (w * step)
        size += step
        u = (p + shifted if sign == 1 else p - shifted) & (mask >> (w * (order + 1 - size)))
        bound += grow
    s = _unpack(u, slots.width, full)
    if counts:
        s = _unmatched(s, counts)
    elif factors:
        runs = [
            (c, range(e, full if n is None else min(full, e + n))[::-1])
            for c, e, m, n in factors
            for _ in range(m)
        ]
        s = _kronecker_mul(_binomial_product(runs, full), s, full - 1)
    head = init.coeffs[:full]
    if head[0] != 1 or any(head[1:]):
        s = (QSeries(head) * QSeries(s)).coeffs
    num = QSeries([0] * (order + 1 - full) + list(s), order)
    if counts or p == 1:
        return num
    return Quotient(num, QSeries(_unpack(p, slots.width, order + 1), order))


def phi32(
    upper: Sequence[Monomial],
    lower: Sequence[Monomial],
    z: Monomial,
    base: int,
    order: int,
) -> Union[QSeries, Quotient]:
    """The 3-phi-2 sum over n >= 0 of

        (u1;Q)_n (u2;Q)_n (u3;Q)_n / ((Q;Q)_n (l1;Q)_n (l2;Q)_n) * z^n

    with Q = q^base, truncated at the order, as ratio_sum returns it.  z
    must carry a positive power of q so the terms eventually drop below the
    truncation."""
    if len(upper) != 3 or len(lower) != 2:
        raise ValueError("phi32 takes three upper and two lower parameters")
    if base < 1:
        raise ValueError("base must be >= 1")
    ratio = Ratio(
        (z.c, 0, z.e),
        muls=tuple((p.c, base, p.e) for p in upper),
        divs=tuple((p.c, base, p.e) for p in lower) + ((1, base, base),),
    )
    return ratio_sum(one(order), ratio, order)


_SIGN_RULES = {
    "plus": lambda n: 1,
    "alternating": lambda n: -1 if n & 1 else 1,
    "alternating-shifted": lambda n: 1 if n & 1 else -1,
}


class Theta1D(Frozen):
    """One-sided theta-style sum: over n >= start of

        sign(n) * (wn*n + wc) * q^((A n^2 + B n + C) / div).
    """

    quad: tuple[int, int, int]
    div: int = 1
    start: int = 0
    sign: str = "plus"
    weight: tuple[int, int] = (0, 1)

    def __post_init__(self):
        if self.quad[0] < 1:
            raise ValueError("quadratic coefficient must be positive")
        if self.div < 1:
            raise ValueError("exponent divisor must be >= 1")
        if self.sign not in _SIGN_RULES:
            raise ValueError(f"unknown sign rule {self.sign!r}")

    def exponent(self, n: int) -> int:
        a, b, c = self.quad
        num = a * n * n + b * n + c
        if num % self.div:
            raise NonintegralExponent(
                f"exponent ({a}n^2+{b}n+{c})/{self.div} not integral at n={n}"
            )
        return num // self.div


def theta1d(spec: Theta1D, order: int) -> QSeries:
    a, b, _ = spec.quad
    sgn = _SIGN_RULES[spec.sign]
    wn, wc = spec.weight
    cs: list[Coeff] = [0] * (order + 1)
    n = spec.start
    while True:
        e = spec.exponent(n)
        if e < 0:
            raise ValueError(f"negative theta exponent {e} at n={n}")
        if e > order and a * (2 * n + 1) + b > 0:
            break  # past the vertex and past the order: done
        if e <= order:
            w = wn * n + wc
            if w:
                cs[e] += sgn(n) * w
        n += 1
    return QSeries(cs, order)


class Theta2D(Frozen):
    """Two-index theta-style sum: over r, n >= 0 of

        sign(n) * q^(((a1 r + b1)^2 + (a1 r + b1 + a2 n + b2)^2 + shift) / div).

    Positive slopes and nonnegative offsets make the exponent strictly
    increasing in each index, which is what lets truncation terminate; the
    exponent at r = n = 0 is then the smallest, and must be >= 0.
    """

    a1: int
    b1: int
    a2: int
    b2: int
    sign: str = "plus"
    shift: int = 0
    div: int = 1

    def __post_init__(self):
        if self.a1 < 1 or self.a2 < 1:
            raise ValueError("index slopes must be positive")
        if self.b1 < 0 or self.b2 < 0:
            raise ValueError("offsets must be nonnegative")
        if self.div < 1:
            raise ValueError("exponent divisor must be >= 1")
        if self.b1 ** 2 + (self.b1 + self.b2) ** 2 + self.shift < 0:
            raise ValueError("exponent at r = n = 0 must be nonnegative")
        if self.sign not in _SIGN_RULES:
            raise ValueError(f"unknown sign rule {self.sign!r}")

    def exponent(self, r: int, n: int) -> int:
        u = self.a1 * r + self.b1
        v = u + self.a2 * n + self.b2
        num = u * u + v * v + self.shift
        if num % self.div:
            raise NonintegralExponent(
                f"exponent ({u}^2+{v}^2+{self.shift})/{self.div} not integral at r={r}, n={n}"
            )
        return num // self.div


def theta2d(spec: Theta2D, order: int) -> QSeries:
    sgn = _SIGN_RULES[spec.sign]
    return lattice_sum(order, spec.exponent, lambda r, n, e: ((sgn(n), e),))


def lattice_sum(
    order: int,
    base_exponent: Callable[[int, int], int],
    emit: Callable[[int, int, int], Iterable[tuple[Coeff, int]]],
) -> QSeries:
    """Sum emit(r, n, b) terms over the quadrant r, n >= 0, where
    b = base_exponent(r, n), evaluated once per point.

    base_exponent(r, n) must lower-bound every exponent emit produces at
    (r, n) and be nondecreasing in each index, so the scan can stop once it
    passes the order.  The monotonicity is spot-checked while scanning, and
    base_exponent(0, 0), the smallest, must be >= 0.
    """
    low = base_exponent(0, 0)
    if low < 0:
        raise ValueError(f"negative lattice exponent {low} at r = n = 0")
    cs: list[Coeff] = [0] * (order + 1)
    r = 0
    while True:
        b0 = base_exponent(r, 0)
        if b0 > order:
            if base_exponent(r + 1, 0) < b0:
                raise ValueError("base_exponent not monotone in r")
            break
        n = 0
        prev = b0
        while True:
            b = base_exponent(r, n)
            if b < prev:
                raise ValueError("base_exponent not monotone in n")
            prev = b
            if b > order:
                break
            for c, e in emit(r, n, b):
                if e < b:
                    raise ValueError("emit produced an exponent below its bound")
                if e <= order:
                    cs[e] += c
            n += 1
        r += 1
    return QSeries(cs, order)
