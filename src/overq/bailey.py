"""Bailey pairs, the conjugate Bailey lemma, and the two derivation chains
behind the two-square identities.

A Bailey pair relative to a is a sequence pair (alpha_n, beta_n) with

    beta_n = sum_{r=0}^n alpha_r / ((q;q)_(n-r) (a*q;q)_(n+r)).

Each pair stores its closed beta as a term-ratio table (beta_ratio), so
BaileyPair.beta, bailey_check and the lemma all advance beta by the same
step.  bailey_check verifies the defining relation directly.  lemma_sides
builds both sides of the conjugate Bailey lemma: for a pair relative to a^2,

    (q;q)_inf (-a*q;q)_inf^2
        * sum_n q^n (a;q)_n (a^2 q;q^2)_n / (-a*q;q)_n * beta_n
    = (1-a) * sum_{r,n} (1 + a q^(r+2n+1)) / (1 - a q^r)
        * a^(2n) q^(2n^2+2nr+n+r) * alpha_r.

At r = 0 the denominator (1 - a q^r) is the normalization (1 - a) itself,
so the two cancel, and every r >= 1 term takes (1 - a) with its divide.
The right side is therefore integral, even at a = -1, where (1 - a) is 2.

The lemma's left side sums the weight's ratio table chained with the
pair's, through the same kernel (products.ratio_sum) as every other sum
over n.

verify_chain replays the two derivations that turn the lemma into the
two-square identities, one displayed equality per stage, so a transcription
slip is caught at the exact step instead of only end to end.  The seven D
displays that carry halves are checked with both sides doubled, so every
side is integral.  Consecutive sum-over-n stages share a ratio table only
when the terms are literally equal; every stage's initial term and every
lattice exponent formula is coded independently.  The square-form sums are
products.Theta2D specs, each written out on the side that uses it.

Neighbouring stages share sides: stage k's right side is often stage
k+1's left side, and several stages reuse one product or one lemma side.
Those builders are @shared, and chain_stage_reports runs the stages in one
sharing scope, so each is built once per verification.  A stage still
builds its left and right sides through separately coded builders.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, Union

from .identities import gen_family, jacobi_theta, mapped_inner_order, rhs_theorem
from .products import (
    Monomial,
    NonintegralExponent,
    Ratio,
    Theta1D,
    Theta2D,
    lattice_sum,
    poch_finite,
    poch_infinite,
    ratio_sum,
    shared,
    sharing,
    theta1d,
    theta2d,
)
from .report import SidePair, VerificationReport, check, one_pair
from .series import (
    Coeff,
    QSeries,
    _add_inplace,
    _div_binomial_inplace,
    _mul_binomial_inplace,
    one,
)


class MismatchedRelativeError(ValueError):
    """A lemma parameter whose square is not the pair's relative parameter."""


@dataclass(frozen=True)
class BaileyPair:
    """A named Bailey pair with polynomial alpha and closed-form beta.

    beta_ratio is the term ratio beta_(n+1)/beta_n; beta_0 = 1 for both
    stored pairs.
    """

    name: str
    relative: Monomial
    alpha: Callable[[int, int], QSeries]
    beta_ratio: Ratio

    def betas(self, order: int) -> Iterator[QSeries]:
        """beta_0, beta_1, ... at the order, each advanced from the last."""
        term: list[Coeff] = [0] * (order + 1)
        term[0] = 1
        at = n = 0
        while True:
            yield QSeries(([0] * at + term)[: order + 1], order)
            at = self.beta_ratio.advance(term, n, at, order)
            n += 1

    def beta(self, n: int, order: int) -> QSeries:
        return next(islice(self.betas(order), n, None))


def _lovejoy_alpha(n: int, order: int) -> QSeries:
    # alpha_n = q^(n^2+n) (1 - q^(2n+2)) / (1 - q^2) = sum_j q^(n^2+n+2j), j <= n
    cs: list[Coeff] = [0] * (order + 1)
    base = n * n + n
    for j in range(n + 1):
        e = base + 2 * j
        if e > order:
            break
        cs[e] = 1
    return QSeries(cs, order)


#: beta_n = 1 / ((q;q)_n (q^2;q)_n)
_LOVEJOY_BETA = Ratio((1, 0, 0), divs=((1, 1, 1), (1, 1, 2)))


def _slater_alpha(n: int, order: int) -> QSeries:
    # alpha_0 = 1; alpha_n = q^(n^2+n) - q^(n^2-n) for n >= 1
    cs: list[Coeff] = [0] * (order + 1)
    if n == 0:
        cs[0] = 1
        return QSeries(cs, order)
    if n * n - n <= order:
        cs[n * n - n] -= 1
    if n * n + n <= order:
        cs[n * n + n] += 1
    return QSeries(cs, order)


#: beta_n = q^n / (q;q)_n^2
_SLATER_BETA = Ratio((1, 0, 1), divs=((1, 1, 1), (1, 1, 1)))


PAIRS: dict[str, BaileyPair] = {
    "lovejoy-q2": BaileyPair("lovejoy-q2", Monomial(1, 2), _lovejoy_alpha, _LOVEJOY_BETA),
    "slater-h1": BaileyPair("slater-h1", Monomial(1, 0), _slater_alpha, _SLATER_BETA),
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
    """(label, relation sum, beta_n) for n = 0 .. n_max, one n at a time.

    With rho_r = (1 - q^(n-r+1)) / (1 - a*q^(n+r)), the relation sum is

        1/((q;q)_n (aq;q)_n) * sum_r alpha_r * rho_1 * ... * rho_r,

    and the inner sum runs in Horner form, h <- alpha_r + rho_(r+1) * h from
    the last nonzero alpha_r down to r = 0.  h is kept from its lowest
    possible exponent, the smallest one of the alpha_r summed so far, so it
    holds only the coefficients that can reach the order.  The prefactor
    advances by two binomial divides per n and multiplies in once per n.
    """
    a = p.relative
    # each alpha_r's nonzero (exponent, coefficient) terms, lowest first
    alphas = [
        [(e, c) for e, c in enumerate(p.alpha(r, order).coeffs) if c] for r in range(n_max + 1)
    ]
    p0: list[Coeff] = [0] * (order + 1)  # 1 / ((q;q)_n (aq;q)_n)
    p0[0] = 1
    for n, beta in zip(range(n_max + 1), p.betas(order)):
        if n:
            _div_binomial_inplace(p0, -1, n)
            _div_binomial_inplace(p0, -a.c, a.e + n)
        h: list[Coeff] = []
        at = order + 1  # h stands for q^at * h
        for r in range(n, -1, -1):
            if h:
                _mul_binomial_inplace(h, -1, n - r)  # rho_(r+1)
                _div_binomial_inplace(h, -a.c, a.e + n + r + 1)
            terms = alphas[r]
            if terms and terms[0][0] < at:
                h = [0] * (at - terms[0][0]) + h
                at = terms[0][0]
            for e, c in terms:
                h[e - at] += c
        total = QSeries(p0, order) * QSeries([0] * at + h, order)
        yield f"defining relation fails at n={n}", total, beta


@shared
def lemma_sides(p: PairLike, a: Monomial, order: int) -> tuple[QSeries, QSeries]:
    """Both sides of the conjugate Bailey lemma for any monomial a whose
    square is the pair's relative parameter."""
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
    total = ratio_sum(one(order), weight * p.beta_ratio, order)
    neg_aq = Monomial(-a.c, a.e + 1)
    paren = poch_infinite(neg_aq, 1, order)
    lhs = poch_infinite(Monomial(1, 1), 1, order) * paren * paren * total

    acc: list[Coeff] = [0] * (order + 1)
    r = 0
    while r <= order:  # the summand exponent contains +r
        alpha_r = p.alpha(r, order)
        if not alpha_r.is_zero():
            dr = list(alpha_r.coeffs)
            if r:  # at r = 0, (1 - a q^r) cancels the normalization (1 - a)
                _mul_binomial_inplace(dr, -a.c, a.e)
                _div_binomial_inplace(dr, -a.c, a.e + r)
            n = 0
            while True:
                e = 2 * n * n + 2 * n * r + n + r + 2 * n * a.e  # with a^(2n)
                if e > order:
                    break
                _add_inplace(acc, dr, e)
                hi = e + a.e + r + 2 * n + 1  # the (1 + a q^(r+2n+1)) partner
                if hi <= order:
                    _add_inplace(acc, dr, hi, a.c)
                n += 1
        r += 1
    return lhs, QSeries(acc, order)


def verify_lemma(p: PairLike, a: Monomial, order: int) -> VerificationReport:
    p = pair(p)
    return check(f"lemma:{p.name}:a={a}", order, one_pair("", lemma_sides, p, a, order))


# -- derivation chains -------------------------------------------------------


def _lattice(order: int, exponent: Callable[[int, int], int]) -> QSeries:
    return lattice_sum(order, exponent, lambda r, n: ((1, exponent(r, n)),))


def _eighth(value: int) -> int:
    # _d_a3_sq's display carries its exponent as (...)/8; it must divide out
    if value % 8:
        raise NonintegralExponent(f"exponent {value} is not a multiple of 8")
    return value // 8


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


@shared
def _c_sum_triple(order: int) -> QSeries:
    # sum q^n (-q;q)_n (q^3;q^2)_n / ((q^2;q)_n (q;q)_n (q^2;q)_n)
    return ratio_sum(one(order), _C_LADDER_RATIO, order)


@shared
def _c_prefix(order: int) -> QSeries:
    p2 = poch_infinite(_Q2, 1, order)
    return poch_infinite(_Q, 1, order) * p2 * p2


@shared
def _c_explicit_sum(order: int) -> QSeries:
    # (q;q)_inf (q^2;q)_inf^2 times the triple-ratio sum
    return _c_prefix(order) * _c_sum_triple(order)


@shared
def _c_ladder_tails(order: int) -> QSeries:
    # sum q^n (-q;q)_n (q;q^2)_(n+1) (q^(n+1);q)_inf (q^(n+2);q)_inf^2
    init = _c_prefix(order).mul_binomial(-1, 1)
    return ratio_sum(init, _C_LADDER_RATIO, order)


@shared
def _c_ladder_overline(order: int) -> QSeries:
    # sum q^n (q;q^2)_(n+1) (q^(n+1);q)_inf (q^(n+2);q)_inf^2 / (-q^(n+1);q)_inf
    init = _c_prefix(order).mul_binomial(-1, 1) * poch_infinite(_NEG_Q, 1, order).invert()
    return ratio_sum(init, _C_LADDER_RATIO, order)


@shared
def _c_ladder_pulled_out(order: int) -> QSeries:
    # (-q;q)_inf times the overline ladder
    return poch_infinite(_NEG_Q, 1, order) * _c_ladder_overline(order)


@shared
def _c_ladder_euler_swapped(order: int) -> QSeries:
    # the overline ladder times 1/(q;q^2)_inf, Euler's form of (-q;q)_inf
    return poch_infinite(_Q, 2, order).invert() * _c_ladder_overline(order)


@shared
def _c_ladder_odd_tail(order: int) -> QSeries:
    # sum q^n (q^(n+1);q)_inf (q^(n+2);q)_inf^2 / ((-q^(n+1);q)_inf (q^(2n+3);q^2)_inf)
    den = poch_infinite(_NEG_Q, 1, order) * poch_infinite(Monomial(1, 3), 2, order)
    return ratio_sum(_c_prefix(order) * den.invert(), _C_LADDER_RATIO, order)


@shared
def _c_ladder_squares(order: int) -> QSeries:
    # sum q^n (q^(n+1);q)_inf^2 (q^(n+2);q)_inf^2 / ((q^(2n+2);q^2)_inf (q^(2n+3);q^2)_inf)
    p1 = poch_infinite(_Q, 1, order)
    p2 = poch_infinite(_Q2, 1, order)
    den = poch_infinite(_Q2, 2, order) * poch_infinite(Monomial(1, 3), 2, order)
    return ratio_sum(p1 * p1 * p2 * p2 * den.invert(), _C_LADDER2_RATIO, order)


@shared
def _c_ladder_merged(order: int) -> QSeries:
    # sum q^n (q^(n+1);q)_inf^2 (q^(n+2);q)_inf^2 / (q^(2n+2);q)_inf
    p1 = poch_infinite(_Q, 1, order)
    p2 = poch_infinite(_Q2, 1, order)
    init = p1 * p1 * p2 * p2 * poch_infinite(_Q2, 1, order).invert()
    return ratio_sum(init, _C_LADDER2_RATIO, order)


@shared
def _c_ladder_finite(order: int) -> QSeries:
    # sum q^n (q^(n+1);q)_inf (q^(n+1);q)_(n+1) (q^(n+2);q)_inf^2
    p2 = poch_infinite(_Q2, 1, order)
    init = poch_infinite(_Q, 1, order).mul_binomial(-1, 1) * p2 * p2
    return ratio_sum(init, _C_LADDER2_RATIO, order)


@shared
def _c_bpd1_lattice(order: int) -> QSeries:
    # sum over r,n of q^E (1 - q^(r+1)) (1 - q^(2n+r+2)), E = 2n^2+2nr+r^2+3n+2r
    def base(r: int, n: int) -> int:
        return 2 * n * n + 2 * n * r + r * r + 3 * n + 2 * r

    def emit(r: int, n: int):
        e = base(r, n)
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
def _d_core_sum(order: int) -> QSeries:
    # S = sum_{n>=1} q^(2n) (-q;q)_(n-1) (q;q^2)_n / (q;q)_n^3
    init = one(order).div_binomial(-1, 1).div_binomial(-1, 1)
    ratio = Ratio(
        (1, 0, 2),
        muls=((-1, 1, 0), (1, 2, 1)),
        divs=((1, 1, 1), (1, 1, 1), (1, 1, 1)),
    )
    return ratio_sum(init, ratio, order, start=1, at=2)


@shared
def _d_core_product(order: int) -> QSeries:
    # (q;q)_inf^3 * S
    return _poch3(order) * _d_core_sum(order)


@shared
def _d_ladder_middle(order: int) -> QSeries:
    # sum q^(2n) (-q;q)_(n-1) (q;q)_(2n) (q^(n+1);q)_inf^3 / (q^2;q^2)_n
    p = poch_infinite(_Q2, 1, order)
    init = (poch_finite(_Q, 1, 2, order) * (p * p * p)).div_binomial(-1, 2)
    ratio = Ratio(
        (1, 0, 2),
        muls=((-1, 1, 0), (1, 2, 1), (1, 2, 2)),
        divs=((1, 1, 1), (1, 1, 1), (1, 1, 1), (1, 2, 2)),
    )
    return ratio_sum(init, ratio, order, start=1, at=2)


@shared
def _d_ladder_even(order: int) -> QSeries:
    # sum q^(2n) (q^2;q^2)_(n-1) (q^n;q)_(n+1) (q^(n+1);q)_inf^3 / (q^2;q^2)_n
    p = poch_infinite(_Q2, 1, order)
    init = (poch_finite(_Q, 1, 2, order) * (p * p * p)).div_binomial(-1, 2)
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


def _d_four_terms(r: int, n: int):
    # -(1 - q^r)(1 - q^(r+2n+1)) q^P expanded
    e = _d_p(r, n)
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
        lambda r, n: _d_four_terms(r + r0, n),
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
    # same sum with the product expanded mechanically rather than by hand
    def emit(r: int, n: int):
        rr = r + 1
        e = _d_p(rr, n)
        out = []
        for c1, e1 in ((1, 0), (-1, rr)):
            for c2, e2 in ((1, 0), (-1, rr + 2 * n + 1)):
                out.append((-c1 * c2, e + e1 + e2))
        return tuple(out)

    return lattice_sum(order, lambda r, n: _d_p(r + 1, n), emit)


def _d_b(r: int, n: int) -> int:
    return _d_p(r, n) + 2 * n + 2 * r + 1


def _d_a2(r: int, n: int) -> int:
    return _d_p(r, n) + r


def _d_a3(r: int, n: int) -> int:
    return _d_p(r, n) + 2 * n + r + 1


def _d_a3_sq(r: int, n: int) -> int:
    # not a Theta2D spec: its first square's offset, 2r - 1, is negative at r = 0
    return _eighth((2 * r - 1) ** 2 + (2 * r + 4 * n + 3) ** 2 - 2)


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
        + _lattice(order, _d_a3_sq).scale(2)
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


# -- stage registry ----------------------------------------------------------

StageBuilder = Callable[[int], tuple[QSeries, QSeries]]


def _stage_c_lemma_lhs(order: int):
    lhs, _ = lemma_sides(PAIRS["lovejoy-q2"], _NEG_Q, order)
    return lhs, _c_explicit_sum(order)


def _stage_c_lemma_rhs(order: int):
    _, rhs = lemma_sides(PAIRS["lovejoy-q2"], _NEG_Q, order)
    return rhs.mul_binomial(-1, 1), _c_bpd1_lattice(order)


def _stage_c_specialized(order: int):
    lhs = _c_explicit_sum(order).mul_binomial(-1, 1)
    return lhs, _c_bpd1_lattice(order)


def _stage_c_tails(order: int):
    lhs = _c_explicit_sum(order).mul_binomial(-1, 1)
    return lhs, _c_ladder_tails(order)


def _stage_c_overline(order: int):
    return _c_ladder_tails(order), _c_ladder_pulled_out(order)


def _stage_c_euler_swap(order: int):
    return _c_ladder_pulled_out(order), _c_ladder_euler_swapped(order)


def _stage_c_odd_tail(order: int):
    return _c_ladder_euler_swapped(order), _c_ladder_odd_tail(order)


def _stage_c_squares(order: int):
    return _c_ladder_odd_tail(order), _c_ladder_squares(order)


def _stage_c_merge(order: int):
    return _c_ladder_squares(order), _c_ladder_merged(order)


def _stage_c_finite(order: int):
    return _c_ladder_merged(order), _c_ladder_finite(order)


def _stage_c_reindex(order: int):
    return _c_ladder_finite(order).shift(1), gen_family("C", order)


def _stage_c_four_lattices(order: int):
    lhs = _c_bpd1_lattice(order).shift(1)
    rhs = (
        _lattice(order, _c_e1)
        + _lattice(order, _c_e2)
        - _lattice(order, _c_e3)
        - _lattice(order, _c_e4)
    )
    return lhs, rhs


def _stage_c_diagonal(order: int):
    lhs = _lattice(order, _c_e1) + _lattice(order, _c_e2)
    rhs = theta1d(Theta1D((2, 3, 1)), order) + _lattice(order, _c_e2).scale(2)
    return lhs, rhs


def _stage_c_eighths(order: int):
    lhs = (
        theta1d(Theta1D((2, 3, 1)), order)
        + _lattice(order, _c_e2).scale(2)
        - _lattice(order, _c_e3)
        - _lattice(order, _c_e4)
    )
    return lhs, _c_inner_assembly(order)


def _stage_c_mapped(order: int):
    inner = mapped_inner_order(order)
    top = 8 * inner + 2
    return _c_inner_assembly(inner).stretch(8, 2), _c_mapped_assembly(top)


def _stage_c_wedge(order: int):
    lhs = theta2d(Theta2D(2, 3, 4, 2), order).scale(2) - theta2d(Theta2D(2, 3, 4, 0), order)
    rhs = (
        theta2d(Theta2D(2, 3, 2, 0, sign="alternating-shifted"), order).scale(2)
        + theta2d(Theta2D(2, 3, 4, 0), order)
    )
    return lhs, rhs


def _stage_c_remainder(order: int):
    lhs = theta2d(Theta2D(2, 3, 4, 0), order) - theta2d(Theta2D(2, 1, 4, 4), order)
    rhs = theta1d(Theta1D((8, 24, 18)), order) - theta1d(Theta1D((16, 40, 26)), order)
    return lhs, rhs


def _stage_c_odd_squares(order: int):
    lhs = theta1d(Theta1D((16, 24, 10)), order) - theta1d(Theta1D((16, 40, 26)), order)
    rhs = theta1d(Theta1D((4, 4, 2), start=1, sign="alternating-shifted"), order)
    return lhs, rhs


def _stage_c_assembled(order: int):
    lhs = (
        theta2d(Theta2D(2, 3, 2, 0, sign="alternating-shifted"), order).scale(2)
        + theta1d(Theta1D((4, 4, 2), start=1, sign="alternating-shifted"), order)
        + theta1d(Theta1D((8, 24, 18)), order)
    )
    return lhs, rhs_theorem("C", order)


def _stage_d_lemma_lhs(order: int):
    lhs, _ = lemma_sides(PAIRS["slater-h1"], Monomial(-1, 0), order)
    return lhs, _d_half_split(order)


def _stage_d_lemma_rhs(order: int):
    _, rhs = lemma_sides(PAIRS["slater-h1"], Monomial(-1, 0), order)
    return rhs, _d_r_split(order)


def _stage_d_half(order: int):
    return _d_half_split(order), _d_r_split(order)  # twice the display


def _stage_d_expand(order: int):
    return _d_v_from(order, 1), _d_v_product_form(order)


def _stage_d_extend(order: int):
    return _d_v_from(order, 1), _d_v_from(order, 0)


def _stage_d_diagonal(order: int):
    lhs = _lattice(order, _d_p)
    return lhs, theta1d(Theta1D((2, 1, 0)), order) + _lattice(order, _d_b)


def _stage_d_regroup(order: int):
    return _d_t0(order) + _d_v_from(order, 0).scale(2), _d_grouped_sums(order)  # twice


def _stage_d_eighths(order: int):
    return _d_grouped_sums(order), _d_grouped_assembly(order)


def _stage_d_pair_up(order: int):
    return _d_grouped_assembly(order), _d_paired_assembly(order)


def _stage_d_help_b2(order: int):
    return _d_core_product(order).scale(2), _d_jacobi_swapped(order)  # twice


def _stage_d_alt_merge(order: int):
    return _d_jacobi_swapped(order), _d_inner_final(order)


def _stage_d_mapped(order: int):
    inner = mapped_inner_order(order)
    top = 8 * inner + 2
    return _d_inner_final(inner).stretch(8, 2), rhs_theorem("D", top).scale(2)  # twice


def _stage_d_ladder_1(order: int):
    return _d_core_product(order), _d_ladder_middle(order)


def _stage_d_ladder_2(order: int):
    return _d_ladder_middle(order), _d_ladder_even(order)


def _stage_d_ladder_3(order: int):
    return _d_ladder_even(order), gen_family("D", order)


CHAIN_STAGES: tuple[tuple[str, StageBuilder], ...] = (
    ("C:lemma-lhs-vs-explicit-sum", _stage_c_lemma_lhs),
    ("C:lemma-rhs-vs-explicit-lattice", _stage_c_lemma_rhs),
    ("C:specialized-identity", _stage_c_specialized),
    ("C:infinite-tails-absorbed", _stage_c_tails),
    ("C:overline-factor-pulled-out", _stage_c_overline),
    ("C:euler-reciprocal-swap", _stage_c_euler_swap),
    ("C:odd-tail-folded", _stage_c_odd_tail),
    ("C:difference-of-squares", _stage_c_squares),
    ("C:even-odd-tails-merged", _stage_c_merge),
    ("C:tail-ratio-to-finite", _stage_c_finite),
    ("C:reindex-to-family-series", _stage_c_reindex),
    ("C:product-expanded-to-lattices", _stage_c_four_lattices),
    ("C:first-diagonal-collapse", _stage_c_diagonal),
    ("C:eighth-square-forms", _stage_c_eighths),
    ("C:mapped-to-8n-plus-2", _stage_c_mapped),
    ("C:wedge-parity-merge", _stage_c_wedge),
    ("C:diagonal-remainder", _stage_c_remainder),
    ("C:odd-square-merge", _stage_c_odd_squares),
    ("C:assembled-theorem-side", _stage_c_assembled),
    ("D:lemma-lhs-vs-half-split", _stage_d_lemma_lhs),
    ("D:lemma-rhs-vs-r-split", _stage_d_lemma_rhs),
    ("D:halved-identity", _stage_d_half),
    ("D:product-expanded", _stage_d_expand),
    ("D:extended-to-r0", _stage_d_extend),
    ("D:second-diagonal-collapse", _stage_d_diagonal),
    ("D:regrouped-assembly", _stage_d_regroup),
    ("D:eighth-square-forms", _stage_d_eighths),
    ("D:diagonals-paired-up", _stage_d_pair_up),
    ("D:jacobi-swap", _stage_d_help_b2),
    ("D:alternating-merge", _stage_d_alt_merge),
    ("D:mapped-to-8n-plus-2", _stage_d_mapped),
    ("D:ladder-binomial-split", _stage_d_ladder_1),
    ("D:ladder-even-factors", _stage_d_ladder_2),
    ("D:ladder-vs-family-series", _stage_d_ladder_3),
)

CHAIN_STAGE_IDS = tuple(name for name, _ in CHAIN_STAGES)


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
    """Aggregate over chain stage reports; the note names the first failure
    and the elapsed time is the stages' total."""
    bad = [r for r in reports if not r.ok]
    mismatch, note = None, f"all {len(reports)} stages hold"
    if bad:
        mismatch = bad[0].mismatch
        note = f"{len(bad)} of {len(reports)} stages fail, first {bad[0].name}"
    elapsed = sum(r.elapsed for r in reports)
    return VerificationReport("chain", order, not bad, mismatch, note, elapsed)


def verify_chain(order: int) -> VerificationReport:
    """Aggregate over all chain stages; the note names the first failure."""
    return chain_summary(chain_stage_reports(order), order)
