"""Truncated formal power series in q with exact coefficients.

A QSeries of order N stores the coefficients of q^0 .. q^N and makes no
claim about higher exponents.  Coefficients are Python ints, promoted to
fractions.Fraction only when a division forces it; a Fraction that reduces
to a whole number is stored as an int again, so purely integral pipelines
never pay Fraction overhead, and a list of ints is stored without a
per-coefficient check.  All arithmetic is exact; floats are rejected.

Binary operations return a series whose order is the minimum of the two
operand orders: a truncated input cannot pretend to more precision than it
has.  Nothing here extends a series silently.  Equality is only defined up
to an explicit order; use equal_up_to / first_mismatch.

The product of two integer series is one big-integer multiply by Kronecker
substitution (_kronecker_mul), with a slot width of w bits proven wide
enough to keep every coefficient exact, unless the sparser operand has k
nonzero terms with 2k <= w and w > 16: then it runs term by term
(_sparse_mul), k shift-adds of the other operand packed once (_shifted_sum,
which bailey's lemma sums share).  The rule was timed against k list
passes and is kept: the multiply's cost grows with w, the adds' with k,
and in slots of 2 bytes or fewer the multiply is cheapest.  A Fraction
coefficient takes the schoolbook double loop (_schoolbook_mul), the
tests' reference for both fast paths.  _pack and _unpack move a
coefficient list in and out of its packed integer: slots of 1, 2, 4 or 8
bytes go through struct in one C-level pass; slots of 3, 5, 6 or 7 bytes
go through 8-byte struct lanes, one C-level copy per byte column; wider
slots take one coefficient per step.  products builds its Pochhammer
products and its ratio sums on the same packing; a ratio sum that leaves
a divide over is a Quotient, which nothing divides.

The two in-place binomial kernels multiply or divide a coefficient list by
(1 - c*q^e), read as a products Ratio row (c, 0, e) reads it, for builders
in every module and QSeries.mul_binomial and div_binomial.  Each runs as
C-level builtins over slices rather than one Python step per coefficient.
The multiply is one map: every coefficient reads one e below it, none of
them updated yet.  The divide reads coefficients it has already updated, so
it runs one pass per block of e coefficients, each reading the finished
block below it: about L/e calls of e steps for a list of length L.

invert on an integer series with constant term +-1 runs Newton's iteration
g <- g*(2 - a*g) on the Kronecker product, doubling the correct length of g
each step (Brent and Kung, JACM 1978); any other series keeps the
schoolbook recurrence (_schoolbook_invert), which the tests also use as the
reference for the fast path.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from itertools import compress
from operator import add, neg, sub
from typing import Iterable, Optional, Sequence, Union

from ._frozen import Frozen

Coeff = Union[int, Fraction]


class OrderExceededError(IndexError):
    """An exponent or comparison order beyond the stored truncation order."""


class ZeroConstantTermError(ZeroDivisionError):
    """Inversion of, or a quotient over, a series of zero constant term."""


def _norm(x: Coeff) -> Coeff:
    """Canonicalize one coefficient: ints stay ints, whole Fractions collapse."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"coefficients must be int or Fraction, got {type(x).__name__}")


def _all_int(cs: Iterable[Coeff]) -> bool:
    """Whether every coefficient is exactly an int, in one C-level pass."""
    return {int}.issuperset(map(type, cs))


class QSeries:
    """An exact power series in q truncated after the q^order coefficient."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Sequence[Coeff], order: Optional[int] = None):
        cs = tuple(coeffs)
        if not _all_int(cs):
            cs = tuple(map(_norm, cs))
        if order is None:
            if not cs:
                raise ValueError("empty coefficient list and no order given")
            order = len(cs) - 1
        if order < 0:
            raise ValueError("order must be >= 0")
        if len(cs) != order + 1:
            raise ValueError(f"expected {order + 1} coefficients, got {len(cs)}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("QSeries is immutable")

    def __reduce__(self):
        # rebuilt through __init__: copy and pickle never set a slot
        return QSeries, (self.coeffs, self.order)

    # -- inspection ---------------------------------------------------------

    def coeff(self, n: int) -> Coeff:
        """Coefficient of q^n; raises OrderExceededError beyond the order."""
        if n < 0:
            raise ValueError("exponents are nonnegative")
        if n > self.order:
            raise OrderExceededError(f"coefficient q^{n} beyond order {self.order}")
        return self.coeffs[n]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_integral(self) -> bool:
        """True when every stored coefficient is a whole number."""
        return _all_int(self.coeffs)

    def equal_up_to(self, other: "QSeries", through: int) -> bool:
        """Compare coefficients of q^0 .. q^through; order must cover the range."""
        return self.first_mismatch(other, through) is None

    def first_mismatch(
        self, other: "QSeries", through: int
    ) -> Optional[tuple[int, Coeff, Coeff]]:
        """First (exponent, self coeff, other coeff) disagreement, or None."""
        if through > self.order or through > other.order:
            raise OrderExceededError(
                f"comparison through q^{through} needs orders >= {through}, "
                f"have {self.order} and {other.order}"
            )
        if self.coeffs[: through + 1] == other.coeffs[: through + 1]:
            return None
        for n in range(through + 1):
            a, b = self.coeffs[n], other.coeffs[n]
            if a != b:
                return (n, a, b)
        return None

    def __repr__(self) -> str:
        terms = []
        for n, c in enumerate(self.coeffs):
            if c == 0:
                continue
            terms.append(f"{c}*q^{n}" if n else f"{c}")
            if len(terms) == 6:
                terms.append("...")
                break
        body = " + ".join(terms) if terms else "0"
        return f"QSeries({body}; order={self.order})"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return QSeries([self.coeffs[i] + other.coeffs[i] for i in range(n + 1)], n)

    def __sub__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return QSeries([self.coeffs[i] - other.coeffs[i] for i in range(n + 1)], n)

    def __neg__(self) -> "QSeries":
        return QSeries([-c for c in self.coeffs], self.order)

    def scale(self, r: Coeff) -> "QSeries":
        """Multiply every coefficient by the exact scalar r."""
        r = _norm(r)
        return QSeries([r * c for c in self.coeffs], self.order)

    def __mul__(self, other):
        if isinstance(other, QSeries):
            n = min(self.order, other.order)
            a, b = self.coeffs[: n + 1], other.coeffs[: n + 1]
            if not (_all_int(a) and _all_int(b)):
                return QSeries(_schoolbook_mul(a, b, n), n)
            k, kb = len(a) - a.count(0), len(b) - b.count(0)
            if k > kb:  # a is the sparser operand, with k nonzero terms
                a, b, k = b, a, kb
            bits = _slot_bits(a, b, n)
            if bits > 16 and 2 * k <= bits:
                return QSeries(_sparse_mul(a, b, n), n)
            return QSeries(_kronecker_mul(a, b, n), n)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def invert(self) -> "QSeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        a = self.coeffs
        if a[0] == 0:
            raise ZeroConstantTermError("cannot invert a series with zero constant term")
        if a[0] in (1, -1) and _all_int(a):
            return QSeries(_newton_invert(a, self.order), self.order)
        return QSeries(_schoolbook_invert(a, self.order), self.order)

    # -- reindexing ---------------------------------------------------------

    def shift(self, e: int) -> "QSeries":
        """Multiply by q^e (e >= 0); the top e coefficients fall off."""
        if e < 0:
            raise ValueError("shift exponent must be >= 0")
        if e == 0:
            return self
        n = self.order
        kept = max(0, n + 1 - e)
        return QSeries([0] * (n + 1 - kept) + list(self.coeffs[:kept]), n)

    def stretch(self, k: int, shift: int = 0) -> "QSeries":
        """Substitute q -> q^k then multiply by q^shift, keeping every input
        coefficient: the result has order k*order + shift.  Exact, because all
        skipped exponents of the substituted series are identically zero."""
        if k < 1:
            raise ValueError("stretch factor must be >= 1")
        if shift < 0:
            raise ValueError("stretch shift must be >= 0")
        n = k * self.order + shift
        out: list[Coeff] = [0] * (n + 1)
        for i, c in enumerate(self.coeffs):
            out[k * i + shift] = c
        return QSeries(out, n)

    def truncate(self, through: int) -> "QSeries":
        """Drop down to a smaller order."""
        if through > self.order:
            raise OrderExceededError(
                f"cannot truncate order-{self.order} series at {through}"
            )
        return QSeries(self.coeffs[: through + 1], through)

    # -- binomial shortcuts -------------------------------------------------

    def mul_binomial(self, c: Coeff, e: int) -> "QSeries":
        """Multiply by (1 - c*q^e) in one pass."""
        cs = list(self.coeffs)
        _mul_binomial_inplace(cs, c, e)
        return QSeries(cs, self.order)

    def div_binomial(self, c: Coeff, e: int) -> "QSeries":
        """Divide by (1 - c*q^e), one pass per block of e coefficients."""
        cs = list(self.coeffs)
        _div_binomial_inplace(cs, c, e)
        return QSeries(cs, self.order)


class Quotient(Frozen):
    """num/den, two series of one order, den of nonzero constant term, kept
    undivided: report.check compares sides A/P and B/Q as A*Q against B*P.
    P and Q are units of the series truncated after q^N, so A/P and B/Q
    agree through q^N exactly when A*Q and B*P do, and first differ where
    they do, at q^k, by the difference there times P_0*Q_0.

    It multiplies, shifts and takes a binomial factor, which is all its
    builders ask of it.  It does not add or scale: the sides that do (the D
    chain's half split and Jacobi swap) add and scale a sum that nets to a
    series.

    QSeries has no value equality, so a quotient equals only one of the
    same two series objects, never one of equal but distinct series."""

    num: QSeries
    den: QSeries

    def __post_init__(self):
        if self.num.order != self.den.order:
            raise ValueError("a quotient's num and den need one order")
        if self.den.coeffs[0] == 0:
            raise ZeroConstantTermError("a quotient's den needs a nonzero constant term")

    @property
    def order(self) -> int:
        return self.num.order

    def __mul__(self, other):
        if isinstance(other, Quotient):
            return Quotient(self.num * other.num, self.den * other.den)
        return Quotient(self.num * other, self.den)

    __rmul__ = __mul__

    def shift(self, e: int) -> "Quotient":
        return Quotient(self.num.shift(e), self.den)

    def mul_binomial(self, c: Coeff, e: int) -> "Quotient":
        """Multiply by (1 - c*q^e): the num takes the factor."""
        return Quotient(self.num.mul_binomial(c, e), self.den)


def divided(side: Union[QSeries, Quotient]) -> QSeries:
    """A side as a series: a Quotient's num/den divided out once, a QSeries as it is."""
    return side.num * side.den.invert() if isinstance(side, Quotient) else side


# -- factories --------------------------------------------------------------


def zero(order: int) -> QSeries:
    return QSeries([0] * (order + 1), order)


def one(order: int) -> QSeries:
    return monomial(1, 0, order)


def monomial(c: Coeff, e: int, order: int) -> QSeries:
    """The single term c*q^e as a series of the given order."""
    if e < 0:
        raise ValueError("exponents are nonnegative")
    cs: list[Coeff] = [0] * (order + 1)
    if e <= order:
        cs[e] = c
    return QSeries(cs, order)


# -- dense products --------------------------------------------------------


def _schoolbook_mul(a: Sequence[Coeff], b: Sequence[Coeff], n: int) -> list:
    """Coefficients q^0 .. q^n of a*b, for a, b of n + 1 coefficients each,
    by the quadratic double loop; the path for rational input and the
    reference the fast product is tested against."""
    # iterate the sparser operand on the outside
    if sum(1 for c in a if c) > sum(1 for c in b if c):
        a, b = b, a
    out: list = [0] * (n + 1)
    for i in range(n + 1):
        ai = a[i]
        if ai:
            for j in range(n + 1 - i):
                bj = b[j]
                if bj:
                    out[i + j] += ai * bj
    return out


def _sparse_mul(a: Sequence[int], b: Sequence[int], n: int) -> list:
    """Coefficients q^0 .. q^n of a*b for integer a, b of n + 1 coefficients
    each, term by term: b shifted to each nonzero a_i and added a_i times,
    one _shifted_sum."""
    return _shifted_sum([(b, [(i, a[i]) for i in compress(range(n + 1), a)])], n + 1)


#: a signed struct format code for each slot width in bytes, so slots of
#: that width convert to and from ints in one C-level pass; "<" fixes both
#: the sizes and the byte order on every platform
_LANES = {struct.calcsize("<" + code): code for code in "bhiq"}
#: a bytes.translate table from a slot's top byte to the byte that extends
#: its sign: 0x00 below 0x80, 0xff from 0x80 on
_SIGN = bytes(128) + b"\xff" * 128


def _bias(width: int, length: int) -> int:
    """2^(8*width - 1) in each of length slots of width bytes."""
    return _ones(width, length) << (8 * width - 1)


def _ones(width: int, length: int) -> int:
    """1 in each of length slots of width bytes."""
    return int.from_bytes((b"\x01" + bytes(width - 1)) * length, "little")


def _pack(cs: Sequence[int], width: int) -> int:
    """sum(cs[i] * 2^(8*width*i)): cs evaluated at q = 2^(8*width), for
    coefficients in [-2^(8*width - 1), 2^(8*width - 1)).

    The slots are first written in two's complement, where a negative
    coefficient does not borrow from the slot above it.  Slots of 1, 2, 4
    and 8 bytes are struct's own; narrower slots are the low width bytes of
    8-byte struct lanes, copied one byte column at a time, and a lane whose
    upper bytes do not extend its slot's sign does not fit its slot.  XOR
    with the bias flips each slot's top bit, which turns the two's
    complement of c into c + h in [0, 2^(8*width)), with h =
    2^(8*width - 1); subtracting the bias then leaves the sum of the
    c * 2^(8*width*i) themselves."""
    lane = _LANES.get(width)
    if lane is not None:
        data = struct.pack(f"<{len(cs)}{lane}", *cs)
    elif width < 8:
        wide = struct.pack(f"<{len(cs)}q", *cs)
        sign = wide[width - 1 :: 8].translate(_SIGN)
        if any(wide[j::8] != sign for j in range(width, 8)):
            raise OverflowError(f"a coefficient does not fit {width}-byte slots")
        data = bytearray(width * len(cs))
        for j in range(width):
            data[j::width] = wide[j::8]
    else:
        data = b"".join([c.to_bytes(width, "little", signed=True) for c in cs])
    bias = _bias(width, len(cs))
    return (int.from_bytes(data, "little") ^ bias) - bias


def _unpack(x: int, width: int, length: int) -> list:
    """The first length coefficients of x as packed by _pack, read modulo
    2^(8*width*length); each must lie in [-2^(8*width - 1), 2^(8*width - 1)).

    With the bias added, every slot holds c + h in [0, 2^(8*width)), so no
    slot borrows from or carries into its neighbour; XOR with the bias
    leaves each slot in two's complement, read back as a signed int.  Slots
    narrower than 8 bytes, other than 1, 2 and 4, are copied into the low
    bytes of 8-byte lanes, whose upper bytes take the slot top byte's
    sign."""
    bias = _bias(width, length)
    size = width * length
    data = (((x + bias) & ((1 << (8 * size)) - 1)) ^ bias).to_bytes(size, "little")
    lane = _LANES.get(width)
    if lane is None and width < 8:
        wide = bytearray(8 * length)
        for j in range(width):
            wide[j::8] = data[j::width]
        sign = data[width - 1 :: width].translate(_SIGN)
        for j in range(width, 8):
            wide[j::8] = sign
        data, lane = wide, "q"
    if lane is None:
        return [
            int.from_bytes(data[i : i + width], "little", signed=True)
            for i in range(0, size, width)
        ]
    return list(struct.unpack(f"<{length}{lane}", data))


def _slot_bits(a: Sequence[int], b: Sequence[int], n: int) -> int:
    """bits(max|a|) + bits(max|b|) + bits(n+1) + 1: the slot width, in bits,
    that keeps every coefficient of a*b exact (see _kronecker_mul)."""
    return (
        max(map(abs, a)).bit_length()
        + max(map(abs, b)).bit_length()
        + (n + 1).bit_length()
        + 1
    )


def _kronecker_mul(a: Sequence[int], b: Sequence[int], n: int) -> list:
    """Coefficients q^0 .. q^n of a*b for integer a, b of n + 1 coefficients
    each, by Kronecker substitution: evaluate both at q = 2^w, multiply the
    two big integers once, and read the product's coefficients back out of
    its w-bit slots.

    The slot width is w = bits(max|a|) + bits(max|b|) + bits(n+1) + 1,
    rounded up to whole bytes (which only widens it).  Every product
    coefficient is a sum of at most n + 1 terms a_i*b_j, so its magnitude
    is below 2^bits(n+1) * 2^bits(max|a|) * 2^bits(max|b|) <= 2^(w-1); the
    inputs are below that bound too, so _pack and _unpack are exact.  The
    slots above q^n are dropped, which cannot disturb the ones below.
    """
    width = (_slot_bits(a, b, n) + 7) // 8
    return _unpack(_pack(a, width) * _pack(b, width), width, n + 1)


def _shifted_sum(parts: Iterable[tuple[Sequence[int], Sequence[tuple[int, int]]]], length: int) -> list:
    """The first length coefficients of the sum of c*q^e*cs over the parts
    (cs, [(e, c), ...]) of integers, each cs packed once and added at each
    of its shifts into one integer.

    Its slots have w = bits(max|cs|) + bits(max|c|) + bits(count) + 1 bits,
    rounded up to whole bytes, count the number of shifts in all.  A
    coefficient of the sum has at most count terms c*cs_i, each below
    2^(bits(max|c|) + bits(max|cs|)), so it is below 2^(w-1), as is each
    cs_i: _pack and _unpack are exact, and slots past length cannot disturb
    the ones below.  A part with no shifts is not packed: w does not count
    its cs, which need not fit."""
    parts = [(cs, shifts) for cs, shifts in parts if shifts]
    big = max((max(map(abs, cs), default=0) for cs, _ in parts), default=0)
    scale = max((abs(c) for _, shifts in parts for _, c in shifts), default=0)
    count = sum(len(shifts) for _, shifts in parts)
    width = (big.bit_length() + scale.bit_length() + count.bit_length() + 1 + 7) // 8
    acc = 0
    for cs, shifts in parts:
        packed = _pack(cs, width)
        for e, c in shifts:
            copy = packed << (8 * width * e)
            acc = acc + copy if c == 1 else acc - copy if c == -1 else acc + c * copy
    return _unpack(acc, width, length)


def _schoolbook_invert(a: Sequence[Coeff], n: int) -> list:
    """Coefficients q^0 .. q^n of 1/a, one coefficient from all the ones
    below it; the path for a rational series or a constant term other than
    +-1, and the reference Newton inversion is tested against."""
    inv0 = _norm(Fraction(1) / a[0])
    out: list[Coeff] = [inv0]
    for k in range(1, n + 1):
        acc = 0
        for j in range(1, k + 1):
            aj = a[j]
            if aj:
                acc += aj * out[k - j]
        out.append(_norm(-acc * inv0) if acc else 0)
    return out


def _newton_invert(a: Sequence[int], n: int) -> list:
    """Coefficients q^0 .. q^n of 1/a for an integer series a whose constant
    term is +-1, by Newton's iteration g <- g*(2 - a*g).

    When g holds 1/a through q^(k-1), a*g - 1 = q^k * t, so the next
    coefficients k .. 2k-1 of 1/a are those of -g*t: two Kronecker products
    of at most k coefficients each double the length of g.
    """
    g = [a[0]]  # 1/a[0] = a[0]
    while len(g) <= n:
        k = len(g)
        m = min(k, n + 1 - k)  # coefficients this step adds
        t = _kronecker_mul(a[: k + m], g + [0] * m, k + m - 1)[k:]
        g += map(neg, _kronecker_mul(g[:m], t, m - 1))
    return g


# -- in-place kernels -------------------------------------------------------
#
# Builders elsewhere in the package run long chains of binomial updates on a
# plain list and wrap the result in a QSeries once at the end.  (c, e) is the
# binomial (1 - c*q^e) in both kernels, as a Ratio row (c, 0, e) reads it.
# Coefficients are not normalized here: a whole Fraction may linger on the
# list until the QSeries wrap collapses it.


def _plus_scaled(xs: Sequence[Coeff], ys: Sequence[Coeff], c: Coeff) -> list:
    """[x + c*y for x, y in zip(xs, ys)], with no multiply when c = +-1."""
    if c == 1:
        return list(map(add, xs, ys))
    if c == -1:
        return list(map(sub, xs, ys))
    return [x + c * y for x, y in zip(xs, ys)]


def _mul_binomial_inplace(cs: list, c: Coeff, e: int) -> None:
    """Multiply cs by (1 - c*q^e) in place."""
    if e < 0:
        raise ValueError("exponents are nonnegative")
    # the new coefficients are built in full before any is stored, so each
    # reads the old coefficient e below it
    cs[e:] = _plus_scaled(cs[e:], cs, -c)


def _div_binomial_inplace(cs: list, c: Coeff, e: int) -> None:
    """Divide cs by (1 - c*q^e) in place."""
    if e < 0:
        raise ValueError("exponents are nonnegative")
    if e == 0:
        if c == 1:
            raise ZeroConstantTermError("division by the zero constant 1 - 1")
        inv = _norm(Fraction(1) / (1 - c))
        cs[:] = [x * inv for x in cs]
        return
    # every update adds c times the coefficient e below it, already updated:
    # a block of e coefficients reads only the block below it
    for b in range(e, len(cs), e):
        cs[b : b + e] = _plus_scaled(cs[b : b + e], cs[b - e : b], c)
