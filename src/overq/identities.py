"""Both sides of the seven smallest-part overpartition identities, plus the
classical identities their derivations rest on.

gen_family builds a family's generating series by summing over the smallest
part s with the term-ratio kernel: consecutive summands differ by a handful
of binomial factors, so the whole sum costs O(order^2) instead of
rebuilding every Pochhammer product from scratch.  rhs_theorem builds the
closed theta-side form of the same family.  The two-square families C and D
state their identities on the q^(8n+2) exponent scale; rhs_theorem returns
that scale directly and verify_theorem maps the generating side onto it.

verify_classical covers the classical ingredients (pentagonal theorem in
both printed forms, Jacobi's cube, Gauss's psi, Euler's reciprocal, the
q-binomial theorem, Fine's identity, the Andrews-Warnaar sum, and the two
Gasper-Rahman 3phi2 transformations III.9/III.10), each at the exact
instantiation the derivations use, plus checks of the three Pochhammer
splitting laws at six fixed parameter sets and Legendre's signed count of
partitions into distinct parts, counted in enumeration apart from the
series machinery.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Callable, Iterator, Union

from .enumeration import FamilySpec, distinct_parts_differences, family
from .products import (
    Monomial,
    NegativeExponentFactor,
    Ratio,
    Theta1D,
    Theta2D,
    phi32,
    poch_finite,
    poch_infinite,
    ratio_sum,
    theta1d,
    theta2d,
)
from .report import Side, SidePair, VerificationReport, check, one_pair
from .series import (
    QSeries,
    Quotient,
    _div_binomial_inplace,  # unused here; bench/spans.py traces this binding
    _mul_binomial_inplace,  # unused here; bench/spans.py traces this binding
    divided,
    one,
)

Family = Union[str, FamilySpec]

#: Families whose identity lives on the q^(8n+2) exponent scale.
MAPPED_FAMILIES = frozenset({"C", "D"})


def _spec(fam: Family) -> FamilySpec:
    return fam if isinstance(fam, FamilySpec) else family(fam)


def gen_family(fam: Family, order: int) -> QSeries:
    """The family's generating series: sum over smallest part s >= 1 of

        q^(p*s) * prod (c*q^(s+d); q)_inf^m * (cf*q^(s+df); q)_s

    per the family's factor table.  The s = 1 summand's products go to
    ratio_sum as factors, not as a built initial term.  Moving s -> s+1
    divides out one binomial per infinite-product factor and re-balances
    the finite factor with two multiplies and one divide.  That divide is
    listed first, so that it pairs with a multiply (see products._paired)
    and the infinite-product divides are left to cancel against the
    factors: for F, A, A2, B, C and D every divide does, and no product is
    built or divided.  G's finite divide (1 + q^s) pairs with nothing, so
    its sum builds the products and is a quotient, divided once here.
    """
    return divided(_family_sum(_spec(fam), order))


def _family_sum(spec: FamilySpec, order: int) -> Side:
    """gen_family's sum as ratio_sum returns it: G's a quotient."""
    ratio, factors = _family_table(spec)
    return ratio_sum(one(order), ratio, order, start=1, at=spec.prefactor, factors=factors)


@lru_cache(maxsize=None)
def _family_table(spec: FamilySpec) -> tuple[Ratio, tuple]:
    """gen_family's term ratio and s = 1 factors for the spec."""
    cf, df = spec.fin_factor
    ratio = Ratio(
        (1, 0, spec.prefactor),
        muls=((cf, 2, df), (cf, 2, df + 1)),
        divs=((cf, 1, df),)
        + tuple((c, 1, d) for c, d, m in spec.inf_factors for _ in range(m)),
    )
    factors = tuple((c, 1 + d, m, None) for c, d, m in spec.inf_factors) + ((cf, 1 + df, 1, 1),)
    return ratio, factors


def psi_theta(order: int) -> QSeries:
    """psi(q) = sum of q^(n(n+1)/2) over n >= 0, as a theta sum."""
    return theta1d(Theta1D((1, 1, 0), div=2), order)


def jacobi_theta(order: int) -> QSeries:
    """Jacobi's cube as a theta sum: (-1)^n (2n+1) q^(n(n+1)/2) over n >= 0."""
    return theta1d(Theta1D((1, 1, 0), div=2, sign="alternating", weight=(2, 1)), order)


def psi_product(order: int) -> Quotient:
    """psi(q) as the product (q^2;q^2)_inf / (q;q^2)_inf."""
    even, odd = Monomial(1, 2), Monomial(1, 1)
    return Quotient(poch_infinite(even, 2, order), poch_infinite(odd, 2, order))


def rhs_theorem(fam: Family, order: int) -> QSeries:
    """The closed theta-side form of the family's identity.

    For C and D this is the three-term combination on the q^(8n+2) scale;
    the printed range of C's middle single sum starts one index too early
    (its first term would undercut the left side's minimal exponent), so
    that sum starts at n=1 here.
    """
    name = _spec(fam).name
    if name == "F":
        return theta1d(
            Theta1D((3, -1, 0), div=2, start=1, sign="alternating-shifted"), order
        )
    if name == "G":
        extra = theta1d(Theta1D((6, 7, 2)), order)
        return rhs_theorem("F", order) + extra.scale(2)
    if name == "A":
        return theta1d(
            Theta1D((1, 1, 0), div=2, start=1, sign="alternating-shifted", weight=(1, 0)),
            order,
        )
    if name == "A2":
        return theta1d(Theta1D((1, 1, 0), div=2, start=1, weight=(1, 0)), order)
    if name == "B":
        p = psi_theta(order)
        return p * p - p
    if name == "C":
        double = theta2d(Theta2D(2, 3, 2, 0, sign="alternating-shifted"), order)
        mid = theta1d(Theta1D((4, 4, 2), start=1, sign="alternating-shifted"), order)
        last = theta1d(Theta1D((8, 8, 2), start=1), order)
        return double.scale(2) + mid + last
    if name == "D":
        double = theta2d(Theta2D(2, 1, 2, 0, sign="alternating"), order)
        mid = theta1d(Theta1D((4, 4, 2), sign="alternating", weight=(1, 1)), order)
        last = theta1d(Theta1D((8, 8, 2)), order)
        return double.scale(2) - mid - last
    raise KeyError(f"no theorem right side for family {name!r}")


def mapped_inner_order(order: int) -> int:
    """Largest inner index range n <= inner with 8*inner + 2 <= order."""
    return max(0, (order - 2) // 8)


def verify_theorem(fam: Family, order: int) -> VerificationReport:
    """Compare gen_family with rhs_theorem.

    F, G, A, A2, B compare directly through the order, G's sum as its
    undivided quotient.  C and D compare on the q^(8n+2) scale: coefficient
    n of the generating side is placed at exponent 8n+2 (exact re-indexing,
    nothing dropped) for all n <= inner where 8*inner+2 <= order.
    """
    spec = _spec(fam)
    mapped = spec.name in MAPPED_FAMILIES
    inner = mapped_inner_order(order)
    top = 8 * inner + 2 if mapped else order
    note = f"coefficients n <= {inner} at exponents 8n+2" if mapped else ""

    def sides():
        lhs = gen_family(spec, inner).stretch(8, 2) if mapped else _family_sum(spec, order)
        return lhs, rhs_theorem(spec, top)

    return check(f"theorem:{spec.name}", top, one_pair(note, sides), note)


# -- classical identities ----------------------------------------------------
#
# Each builder yields labelled (lhs, rhs) pairs, each side a QSeries or a
# Quotient of the requested order.  verify_classical compares the pairs as
# they are built and reports the first mismatching one, building no pair
# after it.

SidePairs = Iterator[SidePair]


def _pentagonal_bilateral_sum(order: int) -> QSeries:
    """Sum of (-1)^n q^(n(3n-1)/2) over all integers n."""
    nonneg = theta1d(Theta1D((3, -1, 0), div=2, sign="alternating"), order)
    neg = theta1d(Theta1D((3, 1, 0), div=2, start=1, sign="alternating"), order)
    return nonneg + neg


def _classical_pentagonal_bilateral(order: int) -> SidePairs:
    lhs = poch_infinite(Monomial(1, 1), 1, order)
    yield "product-vs-bilateral-sum", lhs, _pentagonal_bilateral_sum(order)


def _classical_pentagonal_unilateral(order: int) -> SidePairs:
    lhs = poch_infinite(Monomial(1, 1), 1, order)
    plus = theta1d(Theta1D((3, 1, 0), div=2, start=1, sign="alternating"), order)
    minus = theta1d(Theta1D((3, -1, 0), div=2, start=1, sign="alternating"), order)
    yield "product-vs-three-part-sum", lhs, one(order) + plus + minus


def _classical_jacobi(order: int) -> SidePairs:
    p = poch_infinite(Monomial(1, 1), 1, order)
    yield "cube-sum-vs-product", jacobi_theta(order), p * p * p


def _classical_gauss(order: int) -> SidePairs:
    s = psi_theta(order)
    yield "sum-vs-quotient-product", s, psi_product(order)
    overp = poch_infinite(Monomial(-1, 1), 1, order)
    full = poch_infinite(Monomial(1, 1), 1, order)
    yield "sum-vs-squared-product", s, overp * overp * full


def _classical_euler(order: int) -> SidePairs:
    lhs = poch_infinite(Monomial(-1, 1), 1, order)
    rhs = Quotient(one(order), poch_infinite(Monomial(1, 1), 2, order))
    yield "product-vs-reciprocal", lhs, rhs


def _classical_q_binomial(order: int) -> SidePairs:
    # instantiated at base q^2, a = q, z = q:
    #   sum q^n (q;q^2)_n / (q^2;q^2)_n  =  (q^2;q^2)_inf / (q;q^2)_inf
    ratio = Ratio((1, 0, 1), muls=((1, 2, 1),), divs=((1, 2, 2),))
    yield "sum-vs-product", ratio_sum(one(order), ratio, order), psi_product(order)


def fine_sides(a: Monomial, t: Monomial, order: int) -> tuple[Side, Side]:
    """Both sides of Fine's identity

        sum_{n>=0} (a*q^(n+1);q)_n t^n / (q;q)_n
          = (t;q)_inf^-1 * sum_{n>=0} (t;q)_n / (q;q)_n * (-a*t)^n q^(n(3n+1)/2)

    for monomial parameters.  a may carry exponent -1 (its realized product
    factors stay nonnegative); t must raise the degree so the sums truncate.
    """
    if t.e < 1:
        raise NegativeExponentFactor(f"parameter t={t} does not raise the degree")
    if a.e < -1:
        raise NegativeExponentFactor(f"parameter a={a} realizes a negative exponent")
    if a.e + t.e < 0:
        raise NegativeExponentFactor(f"(-a*t)^n with a={a}, t={t} drops below q^0")

    # at n = 0 the divide (1 - a*q^(n+1)) cancels the multiply (1 - a*q^(2n+1));
    # at a = 1/q both are the zero factor (1 - q^0)
    left = Ratio(
        (t.c, 0, t.e),
        muls=((a.c, 2, a.e + 1), (a.c, 2, a.e + 2)),
        divs=((a.c, 1, a.e + 1), (1, 1, 1)),
    )
    lhs = ratio_sum(one(order), left, order)

    diag = a.e + t.e  # extra exponent per index from (-a*t)^n
    right = Ratio((-a.c * t.c, 3, 2 + diag), muls=((t.c, 1, t.e),), divs=((1, 1, 1),))
    rhs = Quotient(one(order), poch_infinite(t, 1, order)) * ratio_sum(one(order), right, order)
    return lhs, rhs


def _classical_fine(sigma: int, order: int) -> SidePairs:
    lhs, rhs = fine_sides(Monomial(sigma, -1), Monomial(1, 1), order)
    yield f"a={'-' if sigma < 0 else ''}1/q,t=q", lhs, rhs


def aw_sides(zsign: int, order: int) -> tuple[Side, QSeries]:
    """Both sides of the Andrews-Warnaar sum

        sum_{n>=0} (-z*q;q^2)_n (-q/z;q^2)_n q^n / (-q;q)_(2n+1)
          = sum_{n>=0} (1-z^(2n+1))/(1-z) * z^-n q^(n(n+1))

    at z = zsign in {+1, -1}, where the right weight degenerates to 2n+1
    (z=1) or (-1)^n (z=-1).
    """
    if zsign not in (1, -1):
        raise ValueError("z must be +1 or -1")
    tau = -zsign  # both upper products become (tau*q; q^2)_n
    ratio = Ratio(
        (1, 0, 1),
        muls=((tau, 2, 1), (tau, 2, 1)),
        divs=((-1, 2, 2), (-1, 2, 3)),
    )
    lhs = ratio_sum(one(order).div_binomial(-1, 1), ratio, order)  # n = 0: 1/(1 + q)
    if zsign == 1:
        rhs = theta1d(Theta1D((1, 1, 0), weight=(2, 1)), order)
    else:
        rhs = theta1d(Theta1D((1, 1, 0), sign="alternating"), order)
    return lhs, rhs


def _classical_aw(zsign: int, order: int) -> SidePairs:
    lhs, rhs = aw_sides(zsign, order)
    yield f"z={zsign:+d}", lhs, rhs


def _classical_gr_iii10(order: int) -> SidePairs:
    # base q^2, (a,b,c,d,e) = (-1, q, -q, q^2, q^2), argument q^2
    lhs = phi32(
        (Monomial(-1, 0), Monomial(1, 1), Monomial(-1, 1)),
        (Monomial(1, 2), Monomial(1, 2)),
        Monomial(1, 2),
        2,
        order,
    )
    p = poch_infinite(Monomial(1, 2), 2, order)
    prefactor = Quotient(
        poch_infinite(Monomial(1, 1), 2, order)
        * poch_infinite(Monomial(-1, 3), 2, order)
        * poch_infinite(Monomial(-1, 2), 2, order),
        p * p * p,
    )
    rhs = prefactor * phi32(
        (Monomial(1, 1), Monomial(1, 1), Monomial(1, 2)),
        (Monomial(-1, 3), Monomial(-1, 2)),
        Monomial(1, 1),
        2,
        order,
    )
    yield "transformed-vs-direct", lhs, rhs


def _classical_gr_iii9(order: int) -> SidePairs:
    # base q^2, (a,b,c,d,e) = (-q, -1, q, -q^2, -q^2), argument q^2
    lhs = phi32(
        (Monomial(-1, 1), Monomial(-1, 0), Monomial(1, 1)),
        (Monomial(-1, 2), Monomial(-1, 2)),
        Monomial(1, 2),
        2,
        order,
    )
    prefactor = Quotient(
        poch_infinite(Monomial(1, 1), 2, order) * poch_infinite(Monomial(-1, 3), 2, order),
        poch_infinite(Monomial(-1, 2), 2, order) * poch_infinite(Monomial(1, 2), 2, order),
    )
    rhs = prefactor * phi32(
        (Monomial(-1, 1), Monomial(1, 2), Monomial(-1, 1)),
        (Monomial(-1, 2), Monomial(-1, 3)),
        Monomial(1, 1),
        2,
        order,
    )
    yield "transformed-vs-direct", lhs, rhs


#: basic-facts' six parameter sets (c, e, base, n, m), with a = c*q^e: the
#: draws of random.Random(8232026) that the checks were first written with
_BASIC_FACTS = (
    (-1, 2, 1, 5, 1),
    (1, 3, 3, 5, 6),
    (1, 1, 2, 8, 6),
    (-1, 2, 2, 7, 8),
    (1, 3, 1, 1, 6),
    (1, 3, 3, 7, 3),
)


def _classical_basic_facts(order: int) -> SidePairs:
    for c, e, b, n, m in _BASIC_FACTS:
        a = Monomial(c, e)
        tag = f"a={a},base={b}"
        yield (
            f"finite-split[{tag},n={n},m={m}]",
            poch_finite(a, b, n + m, order),
            poch_finite(a, b, m, order) * poch_finite(a.shifted(m * b), b, n, order),
        )
        yield (
            f"tail-split[{tag},n={n}]",
            poch_infinite(a, b, order),
            poch_finite(a, b, n, order) * poch_infinite(a.shifted(n * b), b, order),
        )
        yield (
            f"parity-split[{tag}]",
            poch_infinite(a, b, order),
            poch_infinite(a, 2 * b, order) * poch_infinite(a.shifted(b), 2 * b, order),
        )


def _classical_legendre(order: int) -> SidePairs:
    counted = QSeries(distinct_parts_differences(order), order)
    yield "signed-count-vs-bilateral-sum", counted, _pentagonal_bilateral_sum(order)


CLASSICAL: dict[str, Callable[[int], SidePairs]] = {
    "pentagonal-bilateral": _classical_pentagonal_bilateral,
    "pentagonal-unilateral": _classical_pentagonal_unilateral,
    "jacobi": _classical_jacobi,
    "gauss": _classical_gauss,
    "euler": _classical_euler,
    "q-binomial": _classical_q_binomial,
    "fine-a": partial(_classical_fine, 1),
    "fine-b": partial(_classical_fine, -1),
    "aw-plus": partial(_classical_aw, 1),
    "aw-minus": partial(_classical_aw, -1),
    "gr-iii10": _classical_gr_iii10,
    "gr-iii9": _classical_gr_iii9,
    "basic-facts": _classical_basic_facts,
    "legendre": _classical_legendre,
}

CLASSICAL_IDS = tuple(CLASSICAL)


def classical(cid: str) -> Callable[[int], SidePairs]:
    """The builder of a classical id's labelled (lhs, rhs) pairs: called
    with an order, it yields them one at a time."""
    try:
        return CLASSICAL[cid]
    except KeyError:
        raise KeyError(f"unknown classical id {cid!r}; know {sorted(CLASSICAL)}") from None


def verify_classical(cid: str, order: int) -> VerificationReport:
    """Build and compare every side pair of one classical identity."""
    return check(f"classical:{cid}", order, classical(cid)(order))
