"""Brute-force enumeration of the constrained overpartition families.

This module is the combinatorial oracle: it visits every object
(overpartitions and overpartition pairs with a marked smallest part) and
never touches the series machinery.  Each family is a window table: for
every smallest part s, one 0/1-knapsack pass per distinct window builds
that window's distinct subsets, grouped by sum, each subset once.  One
fold over the windows' rows joins each half of the rows into one table
and meets the two halves at the weights asked for, so it yields every
combination of one entry per window whose sums add up to such a weight,
each exactly once.  signed_counts builds the tables and half-joins once
per smallest part for the largest weight and meets the halves at every
weight up to it; signed_count meets them at its one weight.  For
enumerate_family an entry is a subset of (size, overlined) parts and each
combination's parts, merged in canonical order, are one object; for the
counts an entry is the subset's counted size, so each object is one int
whose parity the tally reads.  Agreement between these counts and the
generating-series coefficients is checked in oracle_compare and
throughout the test suite.

The classical oracle distinct_parts_differences counts rather than lists,
one (1 - q^k) pass per part size on a plain list.

Every family here is a distinct-parts family: within one component a size
appears at most once overlined and at most once plain.  Objects are
returned in a fixed canonical order (larger parts first, overlined before
plain at equal size).
"""

from __future__ import annotations

import math
from itertools import product, repeat, starmap
from operator import add, and_, attrgetter, sub
from typing import Callable, Iterable, Iterator, Optional, Union

from ._frozen import Frozen


#: (size, overlined) parts
Parts = tuple[tuple[int, bool], ...]


class Overpartition(Frozen, order=True):
    """Parts stored as (size, overlined) sorted descending, overlined first
    at equal size.  Overlined sizes are pairwise distinct."""

    parts: Parts

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


class OverpartitionPair(Frozen, order=True):
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


# -- the seven families -----------------------------------------------------

Window = tuple[int, Optional[int]]


class FamilySpec(Frozen):
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
    key = name.upper()
    # primed names (F', B', ...) denote the signed counts of the same family
    key = _ALIASES.get(key, key.rstrip("'′"))
    try:
        return FAMILIES[key]
    except KeyError:
        raise KeyError(f"unknown family {name!r}; know {sorted(FAMILIES)}") from None


def _knapsack(
    lo: int, hi: Optional[int], top: int, empty, adds: Callable[[int], object]
) -> list[list]:
    """table[t]: one entry per distinct subset of lo..hi with sum t <= top,
    each subset met once (hi None means no upper end).  The empty subset's
    entry is `empty`, and a subset's entry gains adds(k) for its part k."""
    table: list[list] = [[empty]] + [[] for _ in range(top)]
    for k in range(lo, top + 1 if hi is None else min(hi, top) + 1):
        step = adds(k)
        # 0/1 knapsack: sweep t downward, so no subset takes k twice
        for t in range(top, k - 1, -1):
            if table[t - k]:
                table[t] += map(add, table[t - k], repeat(step))
    return table


def _subset_table(over: bool, lo: int, hi: Optional[int], top: int) -> list[list[tuple[Parts]]]:
    """table[t]: every distinct subset of lo..hi with sum t <= top, built
    once as an increasing tuple of (size, over) parts and held in a 1-tuple,
    so that + joins one subset per window into a tuple of subsets."""
    table = _knapsack(lo, hi, top, (), lambda k: ((k, over),))
    return [[(sub,) for sub in subs] for subs in table]


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


def _fold(rows: list[list[list]], totals: range) -> Iterator[tuple[int, list]]:
    """(total, entries) for each total in totals, where entries holds
    e_1 + .. + e_k for every choice of one entry e_i per row whose row sums
    add up to total, each choice exactly once; rows[i][t] lists row i's
    entries of sum t for t = 0 .. totals[-1], and there are at least two
    rows.  Each half of the rows is joined into one table, once for all
    totals, and the two halves meet only at the totals asked for, so
    partial choices span half the rows, not all but the last."""
    top = totals[-1]
    half = len(rows) // 2
    left, right = _join_rows(rows[:half], top), _join_rows(rows[half:], top)
    for total in totals:
        entries: list = []
        for xs, ys in zip(left[: total + 1], reversed(right[: total + 1])):
            if xs and ys:
                entries += starmap(add, product(xs, ys))
        yield total, entries


def _walk(
    spec: FamilySpec, weights: range, table: Callable[..., list[list]]
) -> Iterator[tuple[int, int, list]]:
    """(s, n, entries) for every smallest part s and every weight n in
    `weights` (a non-empty range of weights >= 0): entries holds one entry
    per object of weight n and smallest part s, the sum of its windows'
    entries.  table(over, lo, hi, top) lists the entries of the window
    lo..hi by sum up to top, where over tells an overlined window (the
    first of a component's pair) from a plain one; per s it is called once
    for each distinct window, for the largest weight."""
    low, high = weights[0], weights[-1]
    for s in range(1, high // spec.cores + 1):
        top = high - spec.cores * s
        windows = [
            (over, s + a, None if b is None else 2 * s + b)
            for component in spec.windows
            for over, (a, b) in zip((True, False), component)
        ]
        tables = {w: table(*w, top) for w in set(windows)}
        totals = range(max(low - spec.cores * s, 0), top + 1)
        for t, entries in _fold([tables[w] for w in windows], totals):
            yield s, spec.cores * s + t, entries


def enumerate_family(name: str, n: int) -> list[FamilyObject]:
    """All weight-n objects of the family, canonically ordered, no duplicates.
    Each component's parts are the fold's subsets plus its core, merged into
    the canonical order; no object is re-validated."""
    if n < 0:
        raise ValueError("weight must be >= 0")
    spec = family(name)
    pair = len(spec.windows) == 2
    objs: list[FamilyObject] = []
    for s, _, entries in _walk(spec, range(n, n + 1), _subset_table):
        core = ((s, True),)
        second_core = core if spec.cores == 2 else ()
        for subsets in entries:
            first = Overpartition(tuple(sorted(core + subsets[0] + subsets[1], reverse=True)))
            if pair:
                second = tuple(sorted(second_core + subsets[2] + subsets[3], reverse=True))
                objs.append(OverpartitionPair(first, Overpartition(second)))
            else:
                objs.append(first)
    # the classes compare objects as these plain-tuple keys do, but in
    # Python; hashing and sorting the keys runs in C
    key = attrgetter("first.parts", "second.parts") if pair else attrgetter("parts")
    if len(set(map(key, objs))) != len(objs):
        raise AssertionError(f"family {name} produced duplicate objects at n={n}")
    objs.sort(key=key)
    return objs


#: statistic -> (overlined parts counted, plain parts counted); the cores
#: are overlined parts.
_COUNTED = {
    "total-parts": (True, True),
    "overlined-parts": (True, False),
    "plain-parts": (False, True),
}


def _signed_counts(spec: FamilySpec, weights: range) -> list[tuple[int, int, int]]:
    """(even, odd, signed) for every weight in `weights`.  Every object is
    visited once, as the number of its counted parts outside the cores; no
    object is built."""
    over_counted, plain_counted = _COUNTED[spec.statistic]
    base = spec.cores if over_counted else 0

    def table(over, lo, hi, top):
        step = int(over_counted if over else plain_counted)
        return _knapsack(lo, hi, top, 0, lambda k: step)

    tally = [[0, 0] for _ in weights]
    for _, n, sizes in _walk(spec, weights, table):  # one int per object
        odd_sizes = sum(map(and_, sizes, repeat(1)))
        row = tally[n - weights[0]]
        row[base & 1] += len(sizes) - odd_sizes
        row[(base + 1) & 1] += odd_sizes
    return [(even, odd, (odd - even) if spec.odd_positive else (even - odd)) for even, odd in tally]


def signed_count(name: str, n: int) -> tuple[int, int, int]:
    """(even count, odd count, signed difference) for the family statistic
    at weight n; the halves of the fold meet at n only."""
    if n < 0:
        raise ValueError("weight must be >= 0")
    return _signed_counts(family(name), range(n, n + 1))[0]


def signed_counts(name: str, max_n: int) -> list[tuple[int, int, int]]:
    """signed_count(name, n) for n = 0 .. max_n, from one walk: each
    smallest part's tables and half-joins are built once, for the largest
    weight, and the halves meet at every weight."""
    if max_n < 0:
        raise ValueError("weight must be >= 0")
    return _signed_counts(family(name), range(max_n + 1))


# -- classical partition-side oracles --------------------------------------


def distinct_parts_differences(max_n: int) -> list[int]:
    """distinct_parts_difference(n) for n = 0 .. max_n, counted, not listed:
    the pass for part size k multiplies by (1 - q^k), as taking part k adds
    one part and flips the sign; O(max_n^2) time and O(max_n) memory."""
    if max_n < 0:
        raise ValueError("weight must be >= 0")
    counts = [1] + [0] * max_n
    for k in range(1, max_n + 1):
        counts[k:] = map(sub, counts[k:], counts)
    return counts


def distinct_parts_difference(n: int) -> int:
    """Partitions of n into distinct parts counted with an even number of
    parts, minus those with an odd number."""
    return distinct_parts_differences(n)[n]


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


def oracle_compare(name: str, max_n: int):
    """Check the series of signed counts through weight max_n against the
    generating series.  Returns a VerificationReport."""
    if max_n < 0:
        raise ValueError("weight must be >= 0")
    from .identities import gen_family
    from .report import check, one_pair
    from .series import QSeries

    def sides():
        counts = QSeries([signed for _, _, signed in signed_counts(name, max_n)], max_n)
        return counts, gen_family(name, max_n)

    label = "enumeration vs series coefficient"
    return check(f"oracle:{family(name).name}", max_n, one_pair(label, sides))
