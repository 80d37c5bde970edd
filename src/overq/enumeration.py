"""Brute-force enumeration of the constrained overpartition families.

This module is the combinatorial oracle: it visits every object
(overpartitions and overpartition pairs with a marked smallest part) and
never touches the series machinery.  Each family is a window table: for
every smallest part s, one 0/1-knapsack pass per distinct window builds
that window's distinct subsets, grouped by sum, each subset once.  One
fold over the windows' rows then yields every combination of one entry per
window whose sums add up to the weight, each exactly once.  For
enumerate_family an entry is a subset and each combination builds an
object; for signed_count an entry is the subset's counted size, so each
object is one int whose parity the tally reads.  Agreement between these
counts and the generating-series coefficients is checked in oracle_compare
and throughout the test suite.

Every family here is a distinct-parts family: within one component a size
appears at most once overlined and at most once plain.  Objects are
returned in a fixed canonical order (larger parts first, overlined before
plain at equal size).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product, repeat, starmap
from operator import add, and_
from typing import Iterable, Iterator, Optional, Union


@dataclass(frozen=True, order=True)
class Overpartition:
    """Parts stored as (size, overlined) sorted descending, overlined first
    at equal size.  Overlined sizes are pairwise distinct."""

    parts: tuple[tuple[int, bool], ...]

    @staticmethod
    def of(over: Iterable[int] = (), plain: Iterable[int] = ()) -> "Overpartition":
        over = tuple(over)
        if len(set(over)) != len(over):
            raise ValueError("a size may be overlined at most once")
        ps = [(sz, True) for sz in over] + [(sz, False) for sz in plain]
        if any(sz < 1 for sz, _ in ps):
            raise ValueError("parts are positive")
        ps.sort(key=lambda p: (-p[0], not p[1]))
        return Overpartition(tuple(ps))

    @property
    def weight(self) -> int:
        return sum(sz for sz, _ in self.parts)

    @property
    def total_parts(self) -> int:
        return len(self.parts)

    @property
    def overlined_parts(self) -> int:
        return sum(1 for _, over in self.parts if over)

    @property
    def plain_parts(self) -> int:
        return sum(1 for _, over in self.parts if not over)

    def smallest(self) -> Optional[int]:
        return self.parts[-1][0] if self.parts else None

    def render(self, unicode: bool = False) -> str:
        if not self.parts:
            return "∅" if unicode else "()"
        bits = []
        for sz, over in self.parts:
            if over and unicode:
                bits.append("".join(ch + "̅" for ch in str(sz)))
            else:
                bits.append(f"{sz}~" if over else str(sz))
        return "+".join(bits)


@dataclass(frozen=True, order=True)
class OverpartitionPair:
    first: Overpartition
    second: Overpartition

    @property
    def weight(self) -> int:
        return self.first.weight + self.second.weight

    @property
    def total_parts(self) -> int:
        return self.first.total_parts + self.second.total_parts

    @property
    def overlined_parts(self) -> int:
        return self.first.overlined_parts + self.second.overlined_parts

    @property
    def plain_parts(self) -> int:
        return self.first.plain_parts + self.second.plain_parts

    def render(self, unicode: bool = False) -> str:
        return f"({self.first.render(unicode)}, {self.second.render(unicode)})"


FamilyObject = Union[Overpartition, OverpartitionPair]


# -- subset machinery -------------------------------------------------------


def distinct_subsets(lo: int, hi: Optional[int], total: int) -> Iterator[tuple[int, ...]]:
    """Strictly increasing tuples of integers in [lo, hi] summing to total
    (hi None means unbounded; values above the remaining total cannot occur)."""
    if total == 0:
        yield ()
        return
    top = total if hi is None else min(hi, total)
    for first in range(lo, top + 1):
        for rest in distinct_subsets(first + 1, hi, total - first):
            yield (first,) + rest


# -- the seven families -----------------------------------------------------

Window = tuple[int, Optional[int]]


@dataclass(frozen=True)
class FamilySpec:
    """Everything one family needs: its window table for enumeration, how to
    count its objects, and the factor table its generating series is built
    from.

    A weight-n object has a smallest part s, overlined once as a core in
    each of the first `cores` components.  Each component then draws one
    distinct subset of overlined sizes and one of plain sizes from its
    (overlined window, plain window) in `windows`.  A window (a, b) holds
    the sizes s+a .. 2s+b, with no upper end when b is None.  The windows
    mirror the generating factors but are written out by hand, so the
    oracle stays independent of the series side.

    The series summand over smallest part s is

        q^(prefactor*s) * prod (c*q^(s+d); q)_inf^m  *  (cf*q^(s+df); q)_s

    over inf_factors (c, d, m), with fin_factor = (cf, df).
    """

    name: str
    statistic: str  # total-parts | overlined-parts | plain-parts
    odd_positive: bool  # signed difference is odd-even when True, even-odd otherwise
    prefactor: int
    inf_factors: tuple[tuple[int, int, int], ...]
    fin_factor: tuple[int, int]
    cores: int
    windows: tuple[tuple[Window, Window], ...]


FAMILIES: dict[str, FamilySpec] = {
    "F": FamilySpec("F", "total-parts", True, 1, ((1, 1, 1),), (1, 0), 1, (((1, None), (0, -1)),)),
    "G": FamilySpec("G", "overlined-parts", True, 1, ((1, 1, 1),), (-1, 0),
                    1, (((1, None), (0, -1)),)),
    "A": FamilySpec("A", "total-parts", True, 1, ((1, 1, 3),), (1, 0),
                    1, (((1, None), (1, None)), ((1, None), (0, -1)))),
    "A2": FamilySpec("A2", "plain-parts", False, 1, ((-1, 1, 2), (1, 1, 1)), (1, 0),
                     1, (((1, None), (1, None)), ((1, None), (0, -1)))),
    "B": FamilySpec("B", "plain-parts", False, 1, ((-1, 1, 2), (1, 1, 1)), (1, 1),
                    1, (((1, None), (1, None)), ((1, None), (1, 0)))),
    "C": FamilySpec("C", "total-parts", True, 1, ((1, 1, 2), (1, 0, 1)), (1, 0),
                    1, (((1, None), (0, None)), ((1, None), (0, -1)))),
    "D": FamilySpec("D", "total-parts", False, 2, ((1, 1, 3),), (1, 0),
                    2, (((1, None), (1, None)), ((1, None), (0, -1)))),
}

_ALIASES = {"A''": "A2", "A′′": "A2"}


def family(name: str) -> FamilySpec:
    key = _ALIASES.get(name)
    if key is None:
        # primed names (F', B', ...) denote the signed counts of the same family
        key = name.rstrip("'′")
        key = key.upper() if len(key) == 1 else key
    try:
        return FAMILIES[key]
    except KeyError:
        raise KeyError(f"unknown family {name!r}; know {sorted(FAMILIES)}") from None


def _subset_table(lo: int, hi: Optional[int], top: int) -> list[list[tuple[int, ...]]]:
    """table[t]: every distinct subset of lo..hi with sum t, for t <= top, each
    built once as an increasing tuple (hi None means no upper end)."""
    table: list[list[tuple[int, ...]]] = [[()]] + [[] for _ in range(top)]
    for k in range(lo, top + 1 if hi is None else min(hi, top) + 1):
        # 0/1 knapsack: sweep t downward, so no subset takes k twice
        for t in range(top, k - 1, -1):
            if table[t - k]:
                table[t] += map(add, table[t - k], repeat((k,)))
    return table


def _join_rows(rows: list[list[list]], top: int) -> list[list]:
    """One table over the rows: entry t lists e_1 + .. + e_k for every choice
    of one entry e_i per row whose row sums add up to t <= top."""
    acc = rows[0]
    for row in rows[1:]:
        joined: list[list] = [[] for _ in range(top + 1)]
        for t, xs in enumerate(acc):
            if xs:
                for u, ys in enumerate(row[: top + 1 - t], t):
                    if ys:
                        joined[u] += starmap(add, product(xs, ys))
        acc = joined
    return acc


def _fold(rows: list[list[list]], total: int) -> list:
    """e_1 + .. + e_k for every choice of one entry e_i per row whose row
    sums add up to total, each choice exactly once; rows[i][t] lists row i's
    entries of sum t for t = 0 .. total, and there are at least two rows.
    Each half of the rows is joined into one table and the two halves meet
    only at the total, so partial choices span half the rows, not all but
    the last."""
    half = len(rows) // 2
    left, right = _join_rows(rows[:half], total), _join_rows(rows[half:], total)
    out: list = []
    for xs, ys in zip(left, reversed(right)):
        if xs and ys:
            out += starmap(add, product(xs, ys))
    return out


def _tables(spec: FamilySpec, n: int) -> Iterator[tuple[int, list[Window], dict]]:
    """(s, windows, tables) for every smallest part s of a weight-n object:
    the windows' (lo, hi) bounds in table order, and the subset table of
    each distinct window, summing to at most n - cores*s."""
    for s in range(1, n // spec.cores + 1):
        windows = [(s + a, None if b is None else 2 * s + b) for c in spec.windows for a, b in c]
        yield s, windows, {w: _subset_table(*w, n - spec.cores * s) for w in set(windows)}


def enumerate_family(name: str, n: int) -> list[FamilyObject]:
    """All weight-n objects of the family, canonically ordered, no duplicates."""
    if n < 0:
        raise ValueError("weight must be >= 0")
    spec = family(name)
    objs = []
    for s, windows, tables in _tables(spec, n):
        # 1-tuples, so that + joins one subset per window into a tuple of subsets
        wrapped = {w: [[(sub,) for sub in subs] for subs in table] for w, table in tables.items()}
        for subsets in _fold([wrapped[w] for w in windows], n - spec.cores * s):
            parts = [
                Overpartition.of(((s,) if i < spec.cores else ()) + subsets[2 * i],
                                 subsets[2 * i + 1])
                for i in range(len(spec.windows))
            ]
            objs.append(OverpartitionPair(*parts) if len(parts) == 2 else parts[0])
    if len(set(objs)) != len(objs):
        raise AssertionError(f"family {name} produced duplicate objects at n={n}")
    objs.sort()
    return objs


#: statistic -> (overlined parts counted, plain parts counted); the cores
#: are overlined parts.
_COUNTED = {
    "total-parts": (True, True),
    "overlined-parts": (True, False),
    "plain-parts": (False, True),
}


def signed_count(name: str, n: int) -> tuple[int, int, int]:
    """(even count, odd count, signed difference) for the family statistic.
    Every weight-n object is visited once, as the sum of its counted subset
    sizes; no object is built."""
    if n < 0:
        raise ValueError("weight must be >= 0")
    spec = family(name)
    over, plain = _COUNTED[spec.statistic]
    mask = (over, plain) * len(spec.windows)
    base = spec.cores if over else 0
    tally = [0, 0]
    for s, windows, tables in _tables(spec, n):
        rows = [
            [list(map(len, subs)) if counted else [0] * len(subs) for subs in tables[w]]
            for w, counted in zip(windows, mask)
        ]
        sizes = _fold(rows, n - spec.cores * s)  # one int per object
        odd_sizes = sum(map(and_, sizes, repeat(1)))
        tally[base & 1] += len(sizes) - odd_sizes
        tally[(base + 1) & 1] += odd_sizes
    even, odd = tally
    signed = (odd - even) if spec.odd_positive else (even - odd)
    return (even, odd, signed)


# -- classical partition-side oracles --------------------------------------


def distinct_parts_difference(n: int) -> int:
    """Partitions of n into distinct parts counted with an even number of
    parts, minus those with an odd number."""
    if n < 0:
        raise ValueError("weight must be >= 0")
    even = odd = 0
    for parts in distinct_subsets(1, None, n):
        if len(parts) & 1:
            odd += 1
        else:
            even += 1
    return even - odd


def pentagonal_rule(n: int) -> int:
    """(-1)^k if n = k(3k+-1)/2 for some k >= 0, else 0."""
    if n < 0:
        raise ValueError("index must be >= 0")
    k = 0
    while k * (3 * k - 1) // 2 <= n:
        if n in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            return -1 if k & 1 else 1
        k += 1
    return 0


def is_triangular(n: int) -> bool:
    """n = k(k+1)/2 for some k >= 0."""
    if n < 0:
        return False
    m = 8 * n + 1
    r = math.isqrt(m)
    return r * r == m


def is_sum_two_triangular(n: int) -> bool:
    """n = j(j+1)/2 + k(k+1)/2 for some j, k >= 0."""
    if n < 0:
        return False
    j = 0
    while j * (j + 1) // 2 <= n:
        if is_triangular(n - j * (j + 1) // 2):
            return True
        j += 1
    return False


def oracle_compare(name: str, max_n: int, order: Optional[int] = None):
    """Check the series of signed counts through weight max_n against the
    generating series.  Returns a VerificationReport."""
    if max_n < 0:
        raise ValueError("weight must be >= 0")
    from .identities import gen_family
    from .report import check, one_pair
    from .series import QSeries

    order = max_n if order is None else order
    if order < max_n:
        raise ValueError("series order must cover max_n")

    def sides():
        counts = QSeries([signed_count(name, n)[2] for n in range(max_n + 1)], max_n)
        return counts, gen_family(name, order)

    label = "enumeration vs series coefficient"
    return check(f"oracle:{family(name).name}", max_n, one_pair(label, sides))
