"""Bailey pairs, the conjugate Bailey lemma, and the two derivation chains
behind the two-square identities.

A Bailey pair relative to a is a sequence pair (alpha_n, beta_n) with

    beta_n = sum_{r=0}^n alpha_r / ((q;q)_(n-r) (a*q;q)_(n+r)).

Each pair stores its closed beta as a term-ratio table (beta_ratio), so
BaileyPair.beta, bailey_check and the lemma all advance beta by the same
step.  It stores alpha as rows: alpha_terms(r) gives alpha_r's nonzero
(exponent, coefficient) terms, and alpha_low(r) a lower bound on their
exponents that does not decrease in r, so every sum over r stops at the
first r whose bound passes the order instead of building each alpha_r as
a series.  bailey_check verifies the defining relation multiplied through
by the unit (q;q)_n (a*q;q)_n (its constant term is 1), so it holds or
fails with the relation at every order; its sum over r is a Horner walk
on one packed integer.  lemma_sides builds both sides of the conjugate
Bailey lemma: for a pair relative to a^2,

    (q;q)_inf (-a*q;q)_inf^2
        * sum_n q^n (a;q)_n (a^2 q;q^2)_n / (-a*q;q)_n * beta_n
    = (1-a) * sum_{r,n} (1 + a q^(r+2n+1)) / (1 - a q^r)
        * a^(2n) q^(2n^2+2nr+n+r) * alpha_r.

At r = 0 the denominator (1 - a q^r) is the normalization (1 - a) itself,
so the two cancel, and every r >= 1 term takes (1 - a) with its divide.
The right side is therefore integral, even at a = -1, where (1 - a) is 2.

The lemma's left side sums the weight's ratio table chained with the
pair's, through the same kernel (products.ratio_sum) as every other sum
over n, with the infinite products netted into that walk as its initial
term's factors; for both lemma instances every divide nets, so nothing is
multiplied or divided.  The right side adds the shifted copies of each
nonzero alpha_r's (1 - a) alpha_r / (1 - a q^r) in one series._shifted_sum,
the packed kernel the sparse series product also runs on.

verify_chain replays the two derivations that turn the lemma into the
two-square identities, one displayed equality per stage, so a transcription
slip is caught at the exact step instead of only end to end.  CHAIN_TABLE
lists the stages as (name, lhs, rhs) rows; a side is a builder's name or a
one-line function of the order.  Names are looked up when the stage runs,
never at import, so a rebound builder (a test's injected fault, a tracer's
wrapper) is the one that runs.  The seven D displays that carry halves are
checked with both sides doubled, so every side is integral.  Consecutive
sum-over-n stages share a ratio table only when the terms are literally
equal; every stage's initial term and every lattice exponent formula is
coded independently.  Every square-form sum is a products.Theta2D spec,
with its r = 0 column a Theta1D where the spec's offset would be negative.

Neighbouring stages share sides: stage k's right side is often stage
k+1's left side.  Those builders are @shared, and chain_stage_reports runs
the stages in one sharing scope, so each is built once per verification.
Within a stage the two sides are coded apart: tests/test_chain_table.py
builds each side alone and fails if both call one @shared builder other
than poch_infinite, outside an audited list.
"""

from __future__ import annotations

from itertools import islice
from operator import neg
from typing import Callable, Iterator, Sequence, Union

from ._frozen import Frozen
from .identities import gen_family, jacobi_theta, mapped_inner_order, rhs_theorem
from .products import (
    Monomial,
    Ratio,
    Theta1D,
    Theta2D,
    _shift_add,
    _shift_div,
    _Slots,
    _START_WIDTH,
    lattice_sum,
    poch_finite,
    poch_infinite,
    ratio_sum,
    shared,
    sharing,
    theta1d,
    theta2d,
)
from .report import Side as SideValue, SidePair, VerificationReport, check, one_pair
from .series import (
    Coeff,
    QSeries,
    Quotient,
    _div_binomial_inplace,
    _mul_binomial_inplace,
    _shifted_sum,
    _unpack,
    one,
)


class MismatchedRelativeError(ValueError):
    """A lemma parameter whose square is not the pair's relative parameter."""


def _terms(ratio: Ratio, order: int) -> Iterator[QSeries]:
    """t_0 = 1, t_1, ... at the order, t_(n+1)/t_n = ratio, each from the last."""
    sign, slope, offset = ratio.shift
    # t_n / q^at, in the order + 1 - at coefficients that reach the order
    term: list[Coeff] = [0] * (order + 1)
    term[0] = 1
    at = n = 0
    while True:
        yield QSeries(([0] * at + term)[: order + 1], order)
        at += slope * n + offset
        del term[max(0, order + 1 - at):]
        if sign == -1:
            term[:] = map(neg, term)
        muls, divs = ratio.factors(n)
        for c, _, e in muls:
            if e < len(term):
                _mul_binomial_inplace(term, c, e)
        for c, _, e in divs:
            if e < len(term):
                _div_binomial_inplace(term, c, e)
        n += 1


class BaileyPair(Frozen):
    """A named Bailey pair with polynomial alpha and closed-form beta.

    alpha is data: alpha_terms(r) gives alpha_r's nonzero terms as
    (exponent, integer coefficient) pairs, and alpha_low(r) a lower bound on
    their exponents that does not decrease in r, so a sum over r stops at
    the first r whose bound passes the order.  beta_ratio is the term ratio
    beta_(n+1)/beta_n; beta_0 = 1 for both stored pairs.
    """

    name: str
    relative: Monomial
    alpha_terms: Callable[[int], Sequence[tuple[int, int]]]
    alpha_low: Callable[[int], int]
    beta_ratio: Ratio

    def alpha(self, r: int, order: int) -> QSeries:
        """alpha_r as a series of the order, built from its terms."""
        cs: list[Coeff] = [0] * (order + 1)
        for e, c in self.alpha_terms(r):
            if e <= order:
                cs[e] += c
        return QSeries(cs, order)

    def betas(self, order: int) -> Iterator[QSeries]:
        """beta_0, beta_1, ... at the order, each advanced from the last."""
        return _terms(self.beta_ratio, order)

    def beta(self, n: int, order: int) -> QSeries:
        return next(islice(self.betas(order), n, None))


def _lovejoy_alpha(r: int) -> tuple[tuple[int, int], ...]:
    # alpha_r = q^(r^2+r) (1 - q^(2r+2)) / (1 - q^2) = sum_j q^(r^2+r+2j), j <= r
    return tuple((r * r + r + 2 * j, 1) for j in range(r + 1))


#: beta_n = 1 / ((q;q)_n (q^2;q)_n)
_LOVEJOY_BETA = Ratio((1, 0, 0), divs=((1, 1, 1), (1, 1, 2)))


def _slater_alpha(r: int) -> tuple[tuple[int, int], ...]:
    # alpha_0 = 1; alpha_r = q^(r^2+r) - q^(r^2-r) for r >= 1
    return ((0, 1),) if r == 0 else ((r * r - r, -1), (r * r + r, 1))


#: beta_n = q^n / (q;q)_n^2
_SLATER_BETA = Ratio((1, 0, 1), divs=((1, 1, 1), (1, 1, 1)))


PAIRS: dict[str, BaileyPair] = {
    "lovejoy-q2": BaileyPair(
        "lovejoy-q2", Monomial(1, 2), _lovejoy_alpha, lambda r: r * r + r, _LOVEJOY_BETA
    ),
    "slater-h1": BaileyPair(
        "slater-h1", Monomial(1, 0), _slater_alpha, lambda r: r * r - r, _SLATER_BETA
    ),
}

PairLike = Union[str, BaileyPair]

#: the lemma instantiation each pair is put through in the derivations
LEMMA_CASES: tuple[tuple[str, Monomial], ...] = (
    ("lovejoy-q2", Monomial(-1, 1)),
    ("slater-h1", Monomial(-1, 0)),
)


def pair(name: PairLike) -> BaileyPair:
    if isinstance(name, BaileyPair):
        return name
    try:
        return PAIRS[name]
    except KeyError:
        raise KeyError(f"unknown Bailey pair {name!r}; know {sorted(PAIRS)}") from None


def bailey_check(p: PairLike, n_max: int, order: int) -> VerificationReport:
    """Verify the defining relation for every n <= n_max at the order."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    p = pair(p)
    note = f"defining relation holds for n <= {n_max}"
    return check(f"bailey:{p.name}", order, _relation_pairs(p, n_max, order), note)


def _relation_pairs(p: BaileyPair, n_max: int, order: int) -> Iterator[SidePair]:
    """(label, relation sum, (q;q)_n (aq;q)_n beta_n) for n = 0 .. n_max:
    the relation multiplied through by the unit (q;q)_n (aq;q)_n,

        sum_r alpha_r * rho_1 * ... * rho_r = (q;q)_n (aq;q)_n beta_n,

    rho_r = (1 - q^(n-r+1)) / (1 - a*q^(n+r)).  The unit is 1 + O(q), so the
    relation's own difference is this one times its inverse: a failure shows
    at the same n and exponent, with the same difference there.  The right
    side is beta's walk with the unit's term ratio chained in; the left side
    comes from the alpha rows and a alone, in Horner form,
    h <- alpha_r + rho_(r+1) * h from the last alpha_r that reaches the
    order down to r = 0, on one packed integer in a products._Slots layout
    of order + 1 slots: the multiply is a _shift_add, the divide a
    _shift_div, and alpha_r's terms are added into their slots.  Before each
    step the layout reserves that step's growth: 1 for the multiply,
    bits(order // e) for the divide by (1 - a*q^e), and 1 + bits(max |c|)
    for the terms about to be added, as the products module docstring
    proves.
    """
    a = p.relative
    length = order + 1
    # alpha_r's terms through the order, for each r <= n_max that reaches it
    rows = []
    for r in range(n_max + 1):
        if p.alpha_low(r) > order:
            break
        rows.append([(e, c) for e, c in p.alpha_terms(r) if e <= order])
    # (q;q)_(n+1) (aq;q)_(n+1) / ((q;q)_n (aq;q)_n), times beta's own ratio
    scaled = p.beta_ratio * Ratio((1, 0, 0), muls=((1, 1, 1), (a.c, 1, a.e + 1)))
    for n, rhs in zip(range(n_max + 1), _terms(scaled, order)):
        slots, bound, h = _Slots(length, _START_WIDTH), 0, 0
        top = min(n, len(rows) - 1)
        for r in range(top, -1, -1):
            terms = rows[r]
            grow = 1 + max(abs(c) for _, c in terms).bit_length() if terms else 0
            if r < top:  # rho_(r+1)
                grow += 1 + (order // (a.e + n + r + 1)).bit_length()
            if bound + grow >= 8 * slots.width:
                slots, bound, (h,) = slots.reserve(bound, grow, h)
            w, mask = 8 * slots.width, slots.mask
            if r < top:
                shift = w * (n - r)
                h = _shift_add(h, h & (mask >> shift), 1, shift) & mask
                h = _shift_div(h, a.c, a.e + n + r + 1, w, mask)
            for e, c in terms:
                h += c << (w * e)
            h &= mask
            bound += grow
        lhs = QSeries(_unpack(h, slots.width, length), order)
        yield f"defining relation fails at n={n}", lhs, rhs


@shared
def lemma_sides(p: PairLike, a: Monomial, order: int) -> tuple[SideValue, QSeries]:
    """Both sides of the conjugate Bailey lemma for any monomial a whose
    square is the pair's relative parameter.

    The left side's walk nets the products (q;q)_inf (-aq;q)_inf^2 against
    its divides.  The right side is one series._shifted_sum, which bounds
    its slots: each nonzero alpha_r's dr = (1 - a) alpha_r / (1 - a*q^r),
    cut to the order + 1 - r coefficients that reach the order from q^r,
    added at every exponent of its n-sum."""
    p = pair(p)
    if a.squared() != p.relative:
        raise MismatchedRelativeError(
            f"a={a} squares to {a.squared()}, pair {p.name} is relative to {p.relative}"
        )

    # the weight q^n (a;q)_n (a^2 q;q^2)_n / (-aq;q)_n, times beta_n
    weight = Ratio(
        (1, 0, 1),
        muls=((a.c, 1, a.e), (1, 2, 2 * a.e + 1)),
        divs=((-a.c, 1, a.e + 1),),
    )
    prefix = ((1, 1, 1, None), (-a.c, a.e + 1, 2, None))  # (q;q)_inf (-aq;q)_inf^2
    lhs = ratio_sum(one(order), weight * p.beta_ratio, order, factors=prefix)

    drs = []  # (dr, the (exponent, sign) of each of its adds)
    for r in range(order + 1):
        if p.alpha_low(r) + r > order:  # the summand exponent contains +r
            break
        terms = p.alpha_terms(r)
        if not terms:
            continue
        dr: list[Coeff] = [0] * (order + 1 - r)
        for e, c in terms:
            if e <= order - r:
                dr[e] += c
        if r:  # at r = 0, (1 - a q^r) cancels the normalization (1 - a)
            _mul_binomial_inplace(dr, a.c, a.e)
            _div_binomial_inplace(dr, a.c, a.e + r)
        adds = []
        n = 0
        while True:
            e = 2 * n * n + 2 * n * r + n + r + 2 * n * a.e  # with a^(2n)
            if e > order:
                break
            adds.append((e, 1))
            hi = e + a.e + r + 2 * n + 1  # the (1 + a q^(r+2n+1)) partner
            if hi <= order:
                adds.append((hi, a.c))
            n += 1
        drs.append((dr, adds))
    return lhs, QSeries(_shifted_sum(drs, order + 1), order)


def verify_lemma(p: PairLike, a: Monomial, order: int) -> VerificationReport:
    p = pair(p)
    return check(f"lemma:{p.name}:a={a}", order, one_pair("", lemma_sides, p, a, order))


# -- derivation chains -------------------------------------------------------


def _lattice(order: int, exponent: Callable[[int, int], int]) -> QSeries:
    return lattice_sum(order, exponent, lambda r, n, e: ((1, e),))


_Q = Monomial(1, 1)
_Q2 = Monomial(1, 2)
_NEG_Q = Monomial(-1, 1)


@shared
def _poch3(order: int) -> QSeries:
    p = poch_infinite(_Q, 1, order)
    return p * p * p


# -- chain of the C two-square identity --------------------------------------

#: shared advance for the product-ladder sums whose factor tables are, after
#: cancellation, termwise identical
_C_LADDER_RATIO = Ratio(
    (1, 0, 1), muls=((-1, 1, 1), (1, 2, 3)), divs=((1, 1, 1), (1, 1, 2), (1, 1, 2))
)
_C_LADDER2_RATIO = Ratio(
    (1, 0, 1),
    muls=((1, 2, 2), (1, 2, 3)),
    divs=((1, 1, 1), (1, 1, 1), (1, 1, 2), (1, 1, 2)),
)
#: the ladders' initial products as factors their walks net against divides
_C_PREFIX = ((1, 1, 1, None), (1, 2, 2, None))  # (q;q)_inf (q^2;q)_inf^2
_C_PREFIX2 = ((1, 1, 2, None), (1, 2, 2, None))  # (q;q)_inf^2 (q^2;q)_inf^2


@shared
def _c_sum_triple(order: int) -> Quotient:
    # sum q^n (-q;q)_n (q^3;q^2)_n / ((q^2;q)_n (q;q)_n (q^2;q)_n)
    return ratio_sum(one(order), _C_LADDER_RATIO, order)


@shared
def _c_explicit_sum(order: int) -> Quotient:
    # (q;q)_inf (q^2;q)_inf^2 times the triple-ratio sum
    p2 = poch_infinite(_Q2, 1, order)
    return poch_infinite(_Q, 1, order) * p2 * p2 * _c_sum_triple(order)


@shared
def _c_ladder_tails(order: int) -> QSeries:
    # sum q^n (-q;q)_n (q;q^2)_(n+1) (q^(n+1);q)_inf (q^(n+2);q)_inf^2
    return ratio_sum(one(order).mul_binomial(1, 1), _C_LADDER_RATIO, order, factors=_C_PREFIX)


@shared
def _c_ladder_overline(order: int) -> Quotient:
    # sum q^n (q;q^2)_(n+1) (q^(n+1);q)_inf (q^(n+2);q)_inf^2 / (-q^(n+1);q)_inf:
    # the tails over (-q;q)_inf, since (-q;q)_n / (-q;q)_inf = 1/(-q^(n+1);q)_inf
    return Quotient(_c_ladder_tails(order), poch_infinite(_NEG_Q, 1, order))


@shared
def _c_ladder_pulled_out(order: int) -> Quotient:
    # (-q;q)_inf times the overline ladder
    return poch_infinite(_NEG_Q, 1, order) * _c_ladder_overline(order)


@shared
def _c_ladder_euler_swapped(order: int) -> Quotient:
    # the overline ladder times 1/(q;q^2)_inf, Euler's form of (-q;q)_inf
    return Quotient(one(order), poch_infinite(_Q, 2, order)) * _c_ladder_overline(order)


@shared
def _c_ladder_odd_tail(order: int) -> Quotient:
    # sum q^n (q^(n+1);q)_inf (q^(n+2);q)_inf^2 / ((-q^(n+1);q)_inf (q^(2n+3);q^2)_inf)
    den = poch_infinite(_NEG_Q, 1, order) * poch_infinite(Monomial(1, 3), 2, order)
    return Quotient(ratio_sum(one(order), _C_LADDER_RATIO, order, factors=_C_PREFIX), den)


@shared
def _c_ladder_squared_tails(order: int) -> QSeries:
    # sum q^n (q^(n+1);q)_inf^2 (q^(n+2);q)_inf^2 times (q^2;q)_2n, the
    # numerator the next two ladders divide by their own products
    return ratio_sum(one(order), _C_LADDER2_RATIO, order, factors=_C_PREFIX2)


@shared
def _c_ladder_squares(order: int) -> Quotient:
    # sum q^n (q^(n+1);q)_inf^2 (q^(n+2);q)_inf^2 / ((q^(2n+2);q^2)_inf (q^(2n+3);q^2)_inf)
    den = poch_infinite(_Q2, 2, order) * poch_infinite(Monomial(1, 3), 2, order)
    return Quotient(_c_ladder_squared_tails(order), den)


@shared
def _c_ladder_merged(order: int) -> Quotient:
    # sum q^n (q^(n+1);q)_inf^2 (q^(n+2);q)_inf^2 / (q^(2n+2);q)_inf
    return Quotient(_c_ladder_squared_tails(order), poch_infinite(_Q2, 1, order))


@shared
def _c_ladder_finite(order: int) -> Quotient:
    # sum q^n (q^(n+1);q)_inf (q^(n+1);q)_(n+1) (q^(n+2);q)_inf^2
    p2 = poch_infinite(_Q2, 1, order)
    init = poch_infinite(_Q, 1, order).mul_binomial(1, 1) * p2 * p2
    return ratio_sum(init, _C_LADDER2_RATIO, order)


@shared
def _c_bpd1_lattice(order: int) -> QSeries:
    # sum over r,n of q^E (1 - q^(r+1)) (1 - q^(2n+r+2)), E = 2n^2+2nr+r^2+3n+2r
    def base(r: int, n: int) -> int:
        return 2 * n * n + 2 * n * r + r * r + 3 * n + 2 * r

    def emit(r: int, n: int, e: int):
        return (
            (1, e),
            (-1, e + r + 1),
            (-1, e + 2 * n + r + 2),
            (1, e + 2 * n + 2 * r + 3),
        )

    return lattice_sum(order, base, emit)


def _c_e1(r: int, n: int) -> int:
    return 2 * n * n + 2 * n * r + r * r + 3 * n + 2 * r + 1


def _c_e2(r: int, n: int) -> int:
    return 2 * n * n + 2 * n * r + r * r + 5 * n + 4 * r + 4


def _c_e3(r: int, n: int) -> int:
    return 2 * n * n + 2 * n * r + r * r + 5 * n + 3 * r + 3


def _c_e4(r: int, n: int) -> int:
    return 2 * n * n + 2 * n * r + r * r + 3 * n + 3 * r + 2


def _c_inner_assembly(order: int) -> QSeries:
    # sum C'(n) q^n as the four-sum combination in eighth-square form
    return (
        theta1d(Theta1D((16, 24, 8), div=8), order)
        + theta2d(Theta2D(2, 3, 4, 2, shift=-2, div=8), order).scale(2)
        - theta2d(Theta2D(2, 3, 4, 0, shift=-2, div=8), order)
        - theta2d(Theta2D(2, 1, 4, 4, shift=-2, div=8), order)
    )


def _c_mapped_assembly(order: int) -> QSeries:
    # sum C'(n) q^(8n+2) as the four-sum combination in integer-square form
    return (
        theta1d(Theta1D((16, 24, 10)), order)
        + theta2d(Theta2D(2, 3, 4, 2), order).scale(2)
        - theta2d(Theta2D(2, 3, 4, 0), order)
        - theta2d(Theta2D(2, 1, 4, 4), order)
    )


# -- chain of the D two-square identity --------------------------------------


@shared
def _d_core_product(order: int) -> QSeries:
    # (q;q)_inf^3 S, S = sum_{n>=1} q^(2n) (-q;q)_(n-1) (q;q^2)_n / (q;q)_n^3:
    # its n = 1 term is q^2 (q;q)_1 (q^2;q)_inf^3, and every divide of the
    # walk nets against (q^2;q)_inf^3, so the sum is a plain series
    ratio = Ratio(
        (1, 0, 2),
        muls=((-1, 1, 0), (1, 2, 1)),
        divs=((1, 1, 1), (1, 1, 1), (1, 1, 1)),
    )
    factors = ((1, 1, 1, 1), (1, 2, 3, None))
    return ratio_sum(one(order), ratio, order, start=1, at=2, factors=factors)


@shared
def _d_ladder_middle(order: int) -> Quotient:
    # sum q^(2n) (-q;q)_(n-1) (q;q)_(2n) (q^(n+1);q)_inf^3 / (q^2;q^2)_n
    p = poch_infinite(_Q2, 1, order)
    init = (poch_finite(_Q, 1, 2, order) * (p * p * p)).div_binomial(1, 2)
    ratio = Ratio(
        (1, 0, 2),
        muls=((-1, 1, 0), (1, 2, 1), (1, 2, 2)),
        divs=((1, 1, 1), (1, 1, 1), (1, 1, 1), (1, 2, 2)),
    )
    return ratio_sum(init, ratio, order, start=1, at=2)


@shared
def _d_ladder_even(order: int) -> Quotient:
    # sum q^(2n) (q^2;q^2)_(n-1) (q^n;q)_(n+1) (q^(n+1);q)_inf^3 / (q^2;q^2)_n
    p = poch_infinite(_Q2, 1, order)
    init = (poch_finite(_Q, 1, 2, order) * (p * p * p)).div_binomial(1, 2)
    ratio = Ratio(
        (1, 0, 2),
        muls=((1, 2, 0), (1, 2, 1), (1, 2, 2)),
        divs=((1, 1, 0), (1, 1, 1), (1, 1, 1), (1, 1, 1), (1, 2, 2)),
    )
    return ratio_sum(init, ratio, order, start=1, at=2)


@shared
def _d_t0(order: int) -> QSeries:
    # sum (1 - q^(2n+1)) q^(2n^2+n)
    return theta1d(Theta1D((2, 1, 0)), order) - theta1d(Theta1D((2, 3, 1)), order)


def _d_p(r: int, n: int) -> int:
    return 2 * n * n + 2 * n * r + r * r + n


def _d_four_terms(r: int, n: int, e: int):
    # -(1 - q^r)(1 - q^(r+2n+1)) q^P expanded, with e = P(r, n)
    return (
        (-1, e),
        (1, e + r),
        (1, e + r + 2 * n + 1),
        (-1, e + 2 * r + 2 * n + 1),
    )


@shared
def _d_v_from(order: int, r0: int) -> QSeries:
    # the four-term sum over r >= r0, n >= 0
    return lattice_sum(
        order,
        lambda r, n: _d_p(r + r0, n),
        lambda r, n, e: _d_four_terms(r + r0, n, e),
    )


@shared
def _d_half_split(order: int) -> QSeries:
    # (q;q)_inf^3 + 2 (q;q)_inf^3 S: the lemma's left side, and twice the
    # halved identity's
    return _poch3(order) + _d_core_product(order).scale(2)


@shared
def _d_r_split(order: int) -> QSeries:
    # T0 + 2 V(1): the lemma's right side, and twice the halved identity's
    return _d_t0(order) + _d_v_from(order, 1).scale(2)


def _d_v_product_form(order: int) -> QSeries:
    # same sum with the product expanded mechanically rather than by hand,
    # and its exponent written out here rather than taken from _d_p, so a
    # slip in _d_p cannot cancel between the two sides of D:product-expanded
    def emit(r: int, n: int, e: int):
        rr = r + 1
        out = []
        for c1, e1 in ((1, 0), (-1, rr)):
            for c2, e2 in ((1, 0), (-1, rr + 2 * n + 1)):
                out.append((-c1 * c2, e + e1 + e2))
        return tuple(out)

    return lattice_sum(order, lambda r, n: (r + 1) ** 2 + 2 * n * (r + 1) + 2 * n * n + n, emit)


def _d_b(r: int, n: int) -> int:
    return _d_p(r, n) + 2 * n + 2 * r + 1


def _d_a2(r: int, n: int) -> int:
    return _d_p(r, n) + r


def _d_a3(r: int, n: int) -> int:
    return _d_p(r, n) + 2 * n + r + 1


@shared
def _d_grouped_sums(order: int) -> QSeries:
    # twice: -1/2 sum q^(2n^2+n) - 1/2 sum q^(2n^2+3n+1) - 2 sum q^B
    #   + sum q^(A+r) + sum q^(A+2n+r+1), with integer exponents
    return (
        -theta1d(Theta1D((2, 1, 0)), order)
        - theta1d(Theta1D((2, 3, 1)), order)
        - _lattice(order, _d_b).scale(4)
        + _lattice(order, _d_a2).scale(2)
        + _lattice(order, _d_a3).scale(2)
    )


@shared
def _d_grouped_assembly(order: int) -> QSeries:
    # twice: -1/2 sum q^(2n^2+n) - 1/2 sum q^(2n^2+3n+1) - 2 sum q^B
    #   + sum q^(A+r) + sum q^(A+2n+r+1), with eighth-square exponents
    return (
        -theta1d(Theta1D((16, 8, 0), div=8), order)
        - theta1d(Theta1D((16, 24, 8), div=8), order)
        - theta2d(Theta2D(2, 1, 4, 2, shift=-2, div=8), order).scale(4)
        + theta2d(Theta2D(2, 1, 4, 0, shift=-2, div=8), order).scale(2)
        + theta2d(Theta2D(2, 1, 4, 4, shift=-2, div=8), order).scale(2)
        + theta1d(Theta1D((16, 24, 8), div=8), order).scale(2)
    )


@shared
def _d_paired_assembly(order: int) -> QSeries:
    # twice: the regrouped form with the n=0/r=0 diagonals absorbed
    return (
        -theta1d(Theta1D((16, 8, 0), div=8), order)
        + theta1d(Theta1D((16, 24, 8), div=8), order)
        - theta1d(Theta1D((8, 8, 0), div=8), order).scale(2)
        - theta2d(Theta2D(2, 1, 4, 2, shift=-2, div=8), order).scale(4)
        + theta2d(Theta2D(2, 1, 4, 0, shift=-2, div=8), order).scale(4)
    )


@shared
def _d_jacobi_swapped(order: int) -> QSeries:
    # twice: the paired form less half of Jacobi's cube sum
    return _d_paired_assembly(order) - jacobi_theta(order)


def _d_inner_final(order: int) -> QSeries:
    # twice: sum D'(n) q^n, the merged alternating form
    return (
        theta2d(Theta2D(2, 1, 2, 0, sign="alternating", shift=-2, div=8), order).scale(4)
        - theta1d(Theta1D((1, 1, 0), div=2, sign="alternating"), order)
        - theta1d(Theta1D((1, 1, 0)), order).scale(2)
        - jacobi_theta(order)
    )


# -- stage table -------------------------------------------------------------

SideFn = Callable[[int], SideValue]
#: one side of a stage: the name of a builder in this module, or a function
#: of the order
Side = Union[str, SideFn]
StageBuilder = Callable[[int], tuple[SideValue, SideValue]]


def _side(side: Side) -> SideFn:
    # a name is looked up now, so a rebound module attribute is what runs
    return globals()[side] if isinstance(side, str) else side


def _lemma(name: str, a: Monomial, k: int) -> SideFn:
    # side k (0 left, 1 right) of the conjugate Bailey lemma
    return lambda order: lemma_sides(PAIRS[name], a, order)[k]


def _mapped(lhs: Side, rhs: Side) -> tuple[SideFn, SideFn]:
    # lhs at the inner order moved onto q^(8n+2), rhs at that scale's order
    return (
        lambda order: _side(lhs)(mapped_inner_order(order)).stretch(8, 2),
        lambda order: _side(rhs)(8 * mapped_inner_order(order) + 2),
    )


def _stage(lhs: Side, rhs: Side) -> StageBuilder:
    return lambda order: (_side(lhs)(order), _side(rhs)(order))


#: (name, lhs, rhs) per displayed equality, in derivation order
CHAIN_TABLE: tuple[tuple[str, Side, Side], ...] = (
    ("C:lemma-lhs-vs-explicit-sum", _lemma("lovejoy-q2", _NEG_Q, 0), "_c_explicit_sum"),
    (
        "C:lemma-rhs-vs-explicit-lattice",
        lambda o: _lemma("lovejoy-q2", _NEG_Q, 1)(o).mul_binomial(1, 1),
        "_c_bpd1_lattice",
    ),
    ("C:specialized-identity", lambda o: _c_explicit_sum(o).mul_binomial(1, 1), "_c_bpd1_lattice"),
    (
        "C:infinite-tails-absorbed",
        lambda o: _c_explicit_sum(o).mul_binomial(1, 1),
        "_c_ladder_tails",
    ),
    ("C:overline-factor-pulled-out", "_c_ladder_tails", "_c_ladder_pulled_out"),
    ("C:euler-reciprocal-swap", "_c_ladder_pulled_out", "_c_ladder_euler_swapped"),
    ("C:odd-tail-folded", "_c_ladder_euler_swapped", "_c_ladder_odd_tail"),
    ("C:difference-of-squares", "_c_ladder_odd_tail", "_c_ladder_squares"),
    ("C:even-odd-tails-merged", "_c_ladder_squares", "_c_ladder_merged"),
    ("C:tail-ratio-to-finite", "_c_ladder_merged", "_c_ladder_finite"),
    (
        "C:reindex-to-family-series",
        lambda o: _c_ladder_finite(o).shift(1),
        lambda o: gen_family("C", o),
    ),
    (
        "C:product-expanded-to-lattices",
        lambda o: _c_bpd1_lattice(o).shift(1),
        lambda o: _lattice(o, _c_e1) + _lattice(o, _c_e2) - _lattice(o, _c_e3) - _lattice(o, _c_e4),
    ),
    (
        "C:first-diagonal-collapse",
        lambda o: _lattice(o, _c_e1) + _lattice(o, _c_e2),
        lambda o: theta1d(Theta1D((2, 3, 1)), o) + _lattice(o, _c_e2).scale(2),
    ),
    (
        "C:eighth-square-forms",
        lambda o: (
            theta1d(Theta1D((2, 3, 1)), o)
            + _lattice(o, _c_e2).scale(2)
            - _lattice(o, _c_e3)
            - _lattice(o, _c_e4)
        ),
        "_c_inner_assembly",
    ),
    ("C:mapped-to-8n-plus-2", *_mapped("_c_inner_assembly", "_c_mapped_assembly")),
    (
        "C:wedge-parity-merge",
        lambda o: theta2d(Theta2D(2, 3, 4, 2), o).scale(2) - theta2d(Theta2D(2, 3, 4, 0), o),
        lambda o: (
            theta2d(Theta2D(2, 3, 2, 0, sign="alternating-shifted"), o).scale(2)
            + theta2d(Theta2D(2, 3, 4, 0), o)
        ),
    ),
    (
        "C:diagonal-remainder",
        lambda o: theta2d(Theta2D(2, 3, 4, 0), o) - theta2d(Theta2D(2, 1, 4, 4), o),
        lambda o: theta1d(Theta1D((8, 24, 18)), o) - theta1d(Theta1D((16, 40, 26)), o),
    ),
    (
        "C:odd-square-merge",
        lambda o: theta1d(Theta1D((16, 24, 10)), o) - theta1d(Theta1D((16, 40, 26)), o),
        lambda o: theta1d(Theta1D((4, 4, 2), start=1, sign="alternating-shifted"), o),
    ),
    (
        "C:assembled-theorem-side",
        lambda o: (
            theta2d(Theta2D(2, 3, 2, 0, sign="alternating-shifted"), o).scale(2)
            + theta1d(Theta1D((4, 4, 2), start=1, sign="alternating-shifted"), o)
            + theta1d(Theta1D((8, 24, 18)), o)
        ),
        lambda o: rhs_theorem("C", o),
    ),
    ("D:lemma-lhs-vs-half-split", _lemma("slater-h1", Monomial(-1, 0), 0), "_d_half_split"),
    ("D:lemma-rhs-vs-r-split", _lemma("slater-h1", Monomial(-1, 0), 1), "_d_r_split"),
    ("D:halved-identity", "_d_half_split", "_d_r_split"),  # twice the display
    ("D:product-expanded", lambda o: _d_v_from(o, 1), "_d_v_product_form"),
    ("D:extended-to-r0", lambda o: _d_v_from(o, 1), lambda o: _d_v_from(o, 0)),
    (
        "D:second-diagonal-collapse",
        lambda o: _lattice(o, _d_p),
        lambda o: theta1d(Theta1D((2, 1, 0)), o) + _lattice(o, _d_b),
    ),
    (
        "D:regrouped-assembly",  # twice the display
        lambda o: _d_t0(o) + _d_v_from(o, 0).scale(2),
        "_d_grouped_sums",
    ),
    ("D:eighth-square-forms", "_d_grouped_sums", "_d_grouped_assembly"),
    ("D:diagonals-paired-up", "_d_grouped_assembly", "_d_paired_assembly"),
    ("D:jacobi-swap", lambda o: _d_core_product(o).scale(2), "_d_jacobi_swapped"),  # twice
    ("D:alternating-merge", "_d_jacobi_swapped", "_d_inner_final"),
    (  # twice the display
        "D:mapped-to-8n-plus-2",
        *_mapped("_d_inner_final", lambda o: rhs_theorem("D", o).scale(2)),
    ),
    ("D:ladder-binomial-split", "_d_core_product", "_d_ladder_middle"),
    ("D:ladder-even-factors", "_d_ladder_middle", "_d_ladder_even"),
    ("D:ladder-vs-family-series", "_d_ladder_even", lambda o: gen_family("D", o)),
)

CHAIN_STAGES: tuple[tuple[str, StageBuilder], ...] = tuple(
    (name, _stage(lhs, rhs)) for name, lhs, rhs in CHAIN_TABLE
)

CHAIN_STAGE_IDS = tuple(name for name, _, _ in CHAIN_TABLE)


def chain_stage_reports(order: int) -> list[VerificationReport]:
    """One report per displayed equality in the two derivation chains.

    The stages run in one sharing scope, so a side that one stage shares
    with its neighbour is built once."""
    with sharing():
        return [
            check(f"chain:{name}", order, one_pair("", build, order))
            for name, build in CHAIN_STAGES
        ]


def chain_summary(reports: list[VerificationReport], order: int) -> VerificationReport:
    """Aggregate over chain stage reports; the note names the first failure,
    whose mismatch and differences it carries, and the elapsed time is the
    stages' total."""
    bad = [r for r in reports if not r.ok]
    mismatch, note, differences = None, f"all {len(reports)} stages hold", None
    if bad:
        mismatch, differences = bad[0].mismatch, bad[0].differences
        note = f"{len(bad)} of {len(reports)} stages fail, first {bad[0].name}"
    elapsed = sum(r.elapsed for r in reports)
    return VerificationReport("chain", order, not bad, mismatch, note, elapsed, differences)


def verify_chain(order: int) -> VerificationReport:
    """Aggregate over all chain stages; the note names the first failure."""
    return chain_summary(chain_stage_reports(order), order)
