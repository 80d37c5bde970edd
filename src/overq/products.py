"""Pochhammer products, the term-ratio summation kernel, and theta series.

Product parameters are signed monomials c*q^e with c in {+1, -1}.  A
parameter exponent may be negative (q^-1 is a legal parameter value) as
long as every factor the product actually realizes has a nonnegative
exponent; violations raise rather than truncate.  Infinite products and
sums are truncated at the requested series order, which is sound because
every realized factor exponent grows without bound.

Every q-hypergeometric sum over n in the package is an initial term plus a
Ratio table: term(n+1)/term(n) is a signed power of q times binomial
factors multiplied in or divided out.  ratio_sum sums such a table; phi32
is the 3-phi-2 instance.

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
from dataclasses import dataclass
from operator import neg
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .series import (
    Coeff,
    OrderExceededError,
    QSeries,
    _div_binomial_inplace,
    _mul_binomial_inplace,
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


@dataclass(frozen=True)
class Monomial:
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


def poch_finite(a: Monomial, base: int, n: int, order: int) -> QSeries:
    """(a; q^base)_n: the product of (1 - a*q^(j*base)) for j = 0 .. n-1."""
    if base < 1:
        raise ValueError("base must be >= 1")
    if n < 0:
        raise ValueError("length must be >= 0")
    cs: list[Coeff] = [0] * (order + 1)
    cs[0] = 1
    for j in range(n):
        ex = a.e + j * base
        if ex < 0:
            raise NegativeExponentFactor(
                f"factor (1 - {a.c}*q^{ex}) in ({a}; q^{base})_{n}"
            )
        if ex > order:
            break
        _mul_binomial_inplace(cs, -a.c, ex)
        if ex == 0 and a.c == 1:
            break  # the factor (1 - q^0) zeroed the whole product
    return QSeries(cs, order)


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
    cs: list[Coeff] = [0] * (order + 1)
    cs[0] = 1
    ex = a.e
    while ex <= order:
        _mul_binomial_inplace(cs, -a.c, ex)
        ex += base
    return QSeries(cs, order)


@dataclass(frozen=True)
class Ratio:
    """The term ratio term(n+1)/term(n) of a sum over n:

        sign * q^(slope*n + offset) * prod muls / prod divs

    with shift = (sign, slope, offset), sign +1 or -1, and each factor
    (c, slope, offset) standing for (1 - c*q^(slope*n + offset)).
    """

    shift: tuple[int, int, int]
    muls: tuple[tuple[int, int, int], ...] = ()
    divs: tuple[tuple[int, int, int], ...] = ()

    def __mul__(self, other: "Ratio") -> "Ratio":
        """The ratio of the termwise product of two sums."""
        (s1, a1, b1), (s2, a2, b2) = self.shift, other.shift
        return Ratio((s1 * s2, a1 + a2, b1 + b2), self.muls + other.muls, self.divs + other.divs)

    def factors(self, n: int) -> tuple[list, list]:
        """The (c, e) binomials (1 - c*q^e) the ratio at n multiplies in and
        divides out.  A multiply and a divide that realize the same factor
        cancel; no factor left may have a negative exponent, and no divide
        may be the zero factor (1 - q^0)."""
        muls = [(c, a * n + b) for c, a, b in self.muls]
        divs = []
        for c, a, b in self.divs:
            f = (c, a * n + b)
            if f in muls:
                muls.remove(f)
            else:
                divs.append(f)
        for c, e in muls + divs:
            if e < 0:
                raise NegativeExponentFactor(f"factor (1 - {c}*q^{e}) at n={n}")
        if (1, 0) in divs:
            raise ZeroDenominator(f"divisor (1 - q^0) at n={n}")
        return muls, divs

    def apply(self, cs: list, muls: list, divs: list) -> None:
        """Multiply cs in place by the sign and the factors muls and divs,
        as factors returns them; a factor whose exponent is past the end of
        cs leaves it unchanged.

        A divide (1 - c*q^e) with c = +-1 and a multiply (1 - q^(2e)) run
        as the one multiply (1 + c*q^e), their exact quotient since c*c = 1,
        also when 2e is past the end of cs."""
        if self.shift[0] == -1:
            cs[:] = map(neg, cs)
        muls = list(muls)
        unpaired = []
        for c, e in divs:
            if c in (1, -1) and (1, 2 * e) in muls:
                muls.remove((1, 2 * e))
                muls.append((-c, e))
            else:
                unpaired.append((c, e))
        for c, e in muls:
            if e < len(cs):
                _mul_binomial_inplace(cs, -c, e)
        for c, e in unpaired:
            if e < len(cs):
                _div_binomial_inplace(cs, -c, e)

    def advance(self, term: list, n: int, at: int, order: int) -> int:
        """Turn term = term(n)/q^at into term(n+1)/q^at' in place and return
        at'.  The list keeps only the order + 1 - at' coefficients that can
        still reach the order."""
        _, slope, offset = self.shift
        at += slope * n + offset
        del term[max(0, order + 1 - at):]
        self.apply(term, *self.factors(n))
        return at


def ratio_sum(init: QSeries, ratio: Ratio, order: int, start: int = 0, at: int = 0) -> QSeries:
    """Sum over n >= start of term(n), truncated at the order, where
    term(start) = q^at * init and term(n+1) = term(n) * ratio at n.

    init needs only the coefficients that can reach the order from q^at.
    Every step must raise the term's leading exponent at, so the sum stops
    once at passes the order.

    The sum runs in Horner form: it is q^at * init * S_start, where
    S_n = 1 + R_n * S_(n+1) and R_n is the ratio at n.  A first walk over n
    finds the last term that reaches the order and checks every ratio's
    factors, so it raises what a term-by-term sum raises, at the same n.
    The second walk builds S from the innermost term outward, keeping for
    S_n only the coefficients that can still reach the order from term n.
    init multiplies in once at the end, and not at all when it is 1.
    """
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
        ratio.factors(n)  # raises what a term-by-term sum raises at this n
        at += step
        n += 1
    if n == start:
        return zero(order)
    last = n - 1  # the last term to reach the order, where S is 1
    at -= slope * last + offset
    s: list[Coeff] = [1] + [0] * (order - at)
    for k in range(last - 1, start - 1, -1):
        ratio.apply(s, *ratio.factors(k))
        step = slope * k + offset
        s = [1] + [0] * (step - 1) + s
        at -= step
    head = init.coeffs[: len(s)]
    if head[0] != 1 or any(head[1:]):
        top = len(s) - 1
        s = list((QSeries(head, top) * QSeries(s, top)).coeffs)
    return QSeries([0] * at + s, order)


def phi32(
    upper: Sequence[Monomial],
    lower: Sequence[Monomial],
    z: Monomial,
    base: int,
    order: int,
) -> QSeries:
    """The 3-phi-2 sum over n >= 0 of

        (u1;Q)_n (u2;Q)_n (u3;Q)_n / ((Q;Q)_n (l1;Q)_n (l2;Q)_n) * z^n

    with Q = q^base, truncated at the order.  z must carry a positive power
    of q so the terms eventually drop below the truncation."""
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


@dataclass(frozen=True)
class Theta1D:
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


@dataclass(frozen=True)
class Theta2D:
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
    return lattice_sum(
        order, spec.exponent, lambda r, n: ((sgn(n), spec.exponent(r, n)),)
    )


def lattice_sum(
    order: int,
    base_exponent: Callable[[int, int], int],
    emit: Callable[[int, int], Iterable[tuple[Coeff, int]]],
) -> QSeries:
    """Sum emit(r, n) terms over the quadrant r, n >= 0.

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
            for c, e in emit(r, n):
                if e < b:
                    raise ValueError("emit produced an exponent below its bound")
                if e <= order:
                    cs[e] += c
            n += 1
        r += 1
    return QSeries(cs, order)
