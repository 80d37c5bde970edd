"""report.check: the one comparison path every verifier goes through."""

import pytest

import overq.report as report
from overq.identities import verify_classical
from overq.report import NO_PAIRS_NOTE, SAME_OBJECT_NOTE, check, one_pair
from overq.series import QSeries


def series(coeffs, order=None):
    order = len(coeffs) - 1 if order is None else order
    return QSeries(list(coeffs) + [0] * (order + 1 - len(coeffs)), order)


def test_stops_at_first_failing_pair_without_advancing():
    def pairs():
        yield "first", series([1, 2, 3]), series([1, 2, 3])
        yield "second", series([1, 2, 3]), series([1, 5, 3])
        raise AssertionError("advanced past the failing pair")

    r = check("demo", 2, pairs())
    assert (r.ok, r.mismatch, r.note) == (False, (1, 2, 5), "second")


def test_failure_reports_label_and_that_pairs_order():
    pairs = [
        ("short", series([1, 1], 1), series([1, 1], 1)),
        ("long", series([1, 1, 1, 7], 6), series([1, 1, 1, 8], 6)),
    ]
    r = check("demo", 10, pairs, note="ignored on failure")
    assert (r.name, r.order, r.ok, r.mismatch, r.note) == ("demo", 6, False, (3, 7, 8), "long")


def test_pass_reports_smallest_order_and_default_note():
    pairs = [
        ("a", series([1], 8), series([1], 8)),
        ("b", series([2], 3), series([2], 5)),
        ("c", series([3], 9), series([3], 9)),
    ]
    r = check("demo", 7, pairs)
    assert (r.order, r.ok, r.mismatch, r.note) == (
        3, True, None, "3 comparisons; compared through 3 of 7"
    )


def test_pass_note():
    one = [("a", series([1]), series([1]))]
    assert check("demo", 0, one).note == ""
    assert check("demo", 0, one, note="given").note == "given"
    assert check("demo", 0, one * 2, note="given").note == "given"
    assert check("demo", 5, []).order == 5


@pytest.mark.parametrize("order, lhs_order, rhs_order", [(4, 9, 9), (9, 4, 9), (9, 9, 4)])
def test_clips_at_smallest_order(order, lhs_order, rhs_order):
    # the sides differ from exponent 5 on, wherever both reach it
    lhs = series([1] * (lhs_order + 1))
    rhs = series([1] * 5 + [2] * (rhs_order - 4))
    r = check("demo", order, [("x", lhs, rhs)])
    assert (r.ok, r.order) == (True, 4)
    unclipped = check("demo", 5, [("x", series([1] * 10), series([1] * 5 + [2] * 5))])
    assert unclipped.mismatch == (5, 1, 2)


def test_elapsed_covers_building(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(report.time, "perf_counter", lambda: clock[0])

    def build():
        clock[0] += 5.0
        return series([1]), series([1])

    def pairs():
        yield ("x", *build())

    assert check("demo", 0, one_pair("x", build)).elapsed == 5.0
    assert check("demo", 0, pairs()).elapsed == 5.0


def test_helpers_build_lazily():
    calls = []

    def build(tag):
        calls.append(tag)
        return [(tag, series([1]), series([1]))]

    def many():
        yield from build("many")

    pending = [one_pair("label", lambda: build("one")[0][1:]), many()]
    assert calls == []
    assert [p[0] for gen in pending for p in gen] == ["label", "many"]
    assert calls == ["one", "many"]


def test_one_object_on_both_sides_fails_with_a_fixed_note():
    s = series([1, 2, 3])
    r = check("demo", 2, [("first", series([1]), series([1])), ("twice", s, s)])
    assert (r.ok, r.order, r.mismatch, r.note) == (False, 2, None, f"twice: {SAME_OBJECT_NOTE}")
    assert check("demo", 2, [("", s, s)]).note == SAME_OBJECT_NOTE
    # equal coefficients in two objects still pass
    assert check("demo", 2, [("", s, series([1, 2, 3]))]).ok


def test_an_empty_pair_source_fails():
    def nothing():
        yield from ()

    for pairs in ([], iter(()), nothing()):
        r = check("x", 10, pairs)
        assert (r.ok, r.order, r.mismatch, r.note) == (False, 10, None, NO_PAIRS_NOTE)
    assert not check("x", 10, [], note="given").ok


def test_pass_says_when_less_was_compared_than_asked():
    short = [("x", series([1], 3), series([1], 5))]
    assert check("demo", 3, short).note == ""
    assert (check("demo", 4, short).order, check("demo", 4, short).note) == (
        3, "compared through 3 of 4"
    )
    assert check("demo", 9, short, note="given").note == "given; compared through 3 of 9"
    # classical:legendre compares through the order asked
    legendre = verify_classical("legendre", 60)
    assert (legendre.ok, legendre.order, legendre.note) == (True, 60, "")
