"""Brute-force object enumeration, signed counts, and parity helpers."""

import itertools

import pytest

import overq.enumeration as enumeration
from overq.enumeration import (
    _COUNTED,
    FAMILIES,
    Overpartition,
    OverpartitionPair,
    distinct_parts_difference,
    distinct_subsets,
    enumerate_family,
    family,
    is_sum_two_triangular,
    is_triangular,
    oracle_compare,
    pentagonal_rule,
    signed_count,
)


def _pair(first, second):
    return OverpartitionPair(first=first, second=second)


def test_single_family_members_weight_four():
    want = {
        Overpartition.of([4]),
        Overpartition.of([3, 1]),
        Overpartition.of([2], [2]),
        Overpartition.of([2, 1], [1]),
    }
    assert set(enumerate_family("F", 4)) == want


def test_pair_family_members_weight_three():
    got = enumerate_family("A", 3)
    assert len(got) == 4
    assert _pair(Overpartition.of([1]), Overpartition.of([2])) in got
    assert _pair(Overpartition.of([3]), Overpartition.of([])) in got


def test_pair_family_with_plain_seconds():
    got = enumerate_family("C", 3)
    assert len(got) == 5
    assert _pair(Overpartition.of([1], [1]), Overpartition.of([], [1])) in got


def test_two_triangular_family_sizes():
    assert enumerate_family("D", 1) == []
    assert len(enumerate_family("D", 4)) == 4
    assert len(enumerate_family("D", 5)) == 6


def test_enumeration_is_canonical():
    a = enumerate_family("B", 6)
    b = enumerate_family("B", 6)
    assert a == b
    assert a == sorted(a)
    assert len(set(a)) == len(a)


def _distinct(total, below):
    """Strictly decreasing tuples of positive integers below `below` summing
    to total."""
    if total == 0:
        yield ()
        return
    for first in range(min(total, below - 1), 0, -1):
        for rest in _distinct(total - first, first):
            yield (first,) + rest


def _components(weight):
    """Every (overlined set, plain set) of the given weight, each distinct."""
    for k in range(weight + 1):
        for over in _distinct(k, k + 1):
            for plain in _distinct(weight - k, weight - k + 1):
                yield over, plain


def _within(parts, lo, hi=None):
    return all(lo <= p and (hi is None or p <= hi) for p in parts)


def _member(name, comps):
    """Family membership written per object: the smallest part s is
    overlined in the first component, and the plain parts lie in the
    family's ranges."""
    parts = [p for over, plain in comps for p in over + plain]
    if not parts or min(parts) not in comps[0][0]:
        return False
    s = min(parts)
    if name in ("F", "G"):
        ((_, plain),) = comps
        return _within(plain, s, 2 * s - 1)
    (_, plain1), (over2, plain2) = comps
    second_core = s in over2
    if name == "B":
        return not second_core and _within(plain1, s + 1) and _within(plain2, s + 1, 2 * s)
    if name == "C":
        return not second_core and _within(plain2, s, 2 * s - 1)
    # A and A2 share their objects; D also marks s overlined in the second component
    return second_core == (name == "D") and _within(plain1, s + 1) and _within(plain2, s, 2 * s - 1)


def _brute_force(name, n):
    if name in ("F", "G"):
        candidates = ((c,) for c in _components(n))
    else:
        candidates = (
            (first, second)
            for w in range(n + 1)
            for first in _components(w)
            for second in _components(n - w)
        )
    found = set()
    for comps in candidates:
        if _member(name, comps):
            objs = [Overpartition.of(over, plain) for over, plain in comps]
            found.add(_pair(*objs) if len(objs) == 2 else objs[0])
    return found


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_window_table_matches_brute_force(name):
    for n in range(11):
        assert set(enumerate_family(name, n)) == _brute_force(name, n), (name, n)


def test_object_totals_to_weight_22():
    totals = {name: sum(sum(signed_count(name, n)[:2]) for n in range(1, 23)) for name in FAMILIES}
    want = {"F": 1236, "G": 1236, "A": 37481, "A2": 37481, "B": 32564, "C": 62010, "D": 24529}
    assert totals == want


# -- reference walk: the sum-split walk the subset tables and the fold replaced --


def _ref_walk(spec, n):
    """Every weight-n object exactly once, as (s, subsets) with one distinct
    subset per window, windows in table order."""
    for s in range(1, n // spec.cores + 1):
        rest = n - spec.cores * s
        bounds = [(s + a, None if b is None else 2 * s + b) for c in spec.windows for a, b in c]
        by_sum = {w: [list(distinct_subsets(*w, t)) for t in range(rest + 1)] for w in set(bounds)}
        rows = [by_sum[w] for w in bounds]
        for split in _ref_splits(rows, rest):
            for subsets in itertools.product(*[row[t] for row, t in zip(rows, split)]):
                yield s, subsets


def _ref_splits(rows, total):
    """Sums (t_1, .., t_k) adding up to total with every rows[i][t_i] non-empty."""
    if len(rows) == 1:
        if rows[0][total]:
            yield (total,)
        return
    for t in range(total + 1):
        if rows[0][t]:
            for rest in _ref_splits(rows[1:], total - t):
                yield (t,) + rest


def _ref_enumerate(name, n):
    spec = family(name)
    objs = []
    for s, subsets in _ref_walk(spec, n):
        parts = [
            Overpartition.of(((s,) if i < spec.cores else ()) + subsets[2 * i], subsets[2 * i + 1])
            for i in range(len(spec.windows))
        ]
        objs.append(_pair(*parts) if len(parts) == 2 else parts[0])
    return sorted(objs)


def _ref_signed_count(name, n):
    spec = family(name)
    over, plain = _COUNTED[spec.statistic]
    mask = (over, plain) * len(spec.windows)
    base = spec.cores if over else 0
    tally = [0, 0]
    for _, subsets in _ref_walk(spec, n):
        tally[(base + sum(map(len, itertools.compress(subsets, mask)))) & 1] += 1
    even, odd = tally
    return (even, odd, (odd - even) if spec.odd_positive else (even - odd))


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_signed_count_matches_the_reference_walk(name):
    for n in range(23):
        assert signed_count(name, n) == _ref_signed_count(name, n), (name, n)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_enumerate_family_matches_the_reference_walk(name):
    for n in range(13):
        assert enumerate_family(name, n) == _ref_enumerate(name, n), (name, n)


@pytest.mark.parametrize("lo, hi", [(1, None), (2, None), (3, 5), (4, 4), (5, 3)])
def test_subset_table_lists_each_subset_once(lo, hi):
    top = 14
    table = enumeration._subset_table(lo, hi, top)
    assert len(table) == top + 1
    for t, subs in enumerate(table):
        assert sorted(subs) == sorted(distinct_subsets(lo, hi, t)), (lo, hi, t)


def test_object_totals_at_the_weight_cap():
    # family C is the largest; the cli refuses weights above 30 (cli.MAX_WEIGHT)
    totals = [sum(signed_count("C", n)[:2]) for n in (20, 25, 30)]
    assert totals == [9289, 41940, 165843]


def test_negative_weights_are_refused_before_any_work(monkeypatch):
    with pytest.raises(ValueError, match="weight must be >= 0"):
        signed_count("F", -3)

    def untouched(*args):
        raise AssertionError("work started for a negative weight")

    monkeypatch.setattr(enumeration, "signed_count", untouched)
    monkeypatch.setattr(enumeration, "family", untouched)
    with pytest.raises(ValueError, match="weight must be >= 0"):
        oracle_compare("F", -1)


def test_signed_count_fixtures():
    assert signed_count("A", 3) == (3, 1, -2)
    assert signed_count("A2", 3) == (3, 1, 2)
    assert signed_count("D", 5) == (3, 3, 0)
    assert signed_count("D", 4) == (1, 3, -2)
    assert signed_count("F", 4) == (2, 2, 0)
    assert signed_count("B", 3) == (3, 2, 1)
    assert signed_count("C", 3) == (3, 2, -1)


def test_family_name_resolution():
    assert family("F'") is FAMILIES["F"]
    assert family("b'") is FAMILIES["B"]
    assert family("A''") is FAMILIES["A2"]
    assert family("A2") is FAMILIES["A2"]
    with pytest.raises(KeyError):
        family("E")
    with pytest.raises(ValueError):
        enumerate_family("F", -1)


def test_overpartition_validation():
    with pytest.raises(ValueError):
        Overpartition.of([0])
    with pytest.raises(ValueError):
        Overpartition.of([2, 2])  # overlined sizes must be distinct
    ok = Overpartition.of([2], [2, 2, 1])
    assert ok.weight == 7
    assert ok.total_parts == 4
    assert ok.overlined_parts == 1
    assert ok.plain_parts == 3
    assert ok.smallest() == 1


def test_render():
    assert Overpartition.of([]).render(False) == "()"
    assert Overpartition.of([]).render(True) == "∅"
    o = Overpartition.of([2, 1], [1])
    assert o.render(False) == "2~+1~+1"
    assert o.render(True) == "2̅+1̅+1"
    p = _pair(Overpartition.of([1]), Overpartition.of([]))
    assert p.render(False) == "(1~, ())"


def test_distinct_parts_difference_small_values():
    assert distinct_parts_difference(0) == 1
    assert distinct_parts_difference(4) == 0
    assert distinct_parts_difference(5) == 1


def test_distinct_parts_difference_matches_pentagonal_rule():
    for n in range(41):
        assert distinct_parts_difference(n) == pentagonal_rule(n), n


def test_triangular_predicates():
    assert is_triangular(0) and is_triangular(1) and is_triangular(3)
    assert not is_triangular(2) and not is_triangular(4)
    assert is_sum_two_triangular(4)
    assert not is_sum_two_triangular(5)
    assert is_sum_two_triangular(0)


def test_oracle_compare_smoke():
    rep = oracle_compare("F", 8)
    assert rep.ok
