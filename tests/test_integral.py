"""One coefficient domain: every series a verification builds is integral.

The D chain checks its halved displays doubled, and the lemma's r = 0
denominator cancels the (1 - a) normalization, so no check needs a
Fraction; rationals reach a QSeries only when a caller passes them in.
"""

import json

import pytest

import overq.cli as cli
from overq.bailey import CHAIN_STAGES, lemma_sides
from overq.identities import psi_theta
from overq.products import Monomial, sharing
from overq.report import check
from overq.series import QSeries, Quotient


def _series_of(side):
    """The series a side is built from: a quotient's num and den."""
    return (side.num, side.den) if isinstance(side, Quotient) else (side,)


def test_verify_all_builds_no_fraction(capsys, monkeypatch):
    integral = []
    init = QSeries.__init__

    def census(self, *args, **kwargs):
        init(self, *args, **kwargs)
        integral.append(self.is_integral())

    sides = []
    compare = QSeries.first_mismatch

    def compared(self, other, *args, **kwargs):
        sides.extend((self, other))
        return compare(self, other, *args, **kwargs)

    monkeypatch.setattr(QSeries, "__init__", census)
    monkeypatch.setattr(QSeries, "first_mismatch", compared)
    assert cli.main(["verify", "--target", "all", "--order", "60", "--format", "json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert reports and all(r["ok"] for r in reports)
    assert integral.count(False) == 0
    # every side a report compares was wrapped in this run, at least once
    assert len(sides) >= 2 * len(reports)
    assert len(integral) >= len({id(side) for side in sides})
    assert {type(c) for side in sides for c in side.coeffs} == {int}


def test_chain_sides_are_integral():
    with sharing():
        for name, build in CHAIN_STAGES:
            assert all(s.is_integral() for side in build(400) for s in _series_of(side)), name


@pytest.mark.parametrize("order", [0, 1, 60])
def test_lemma_at_a_equal_one(order):
    # (1 - a) = 0 leaves only the r = 0 terms, and (a;q)_n only n = 0: psi(q)
    lhs, rhs = lemma_sides("slater-h1", Monomial(1, 0), order)
    assert all(s.is_integral() for side in (lhs, rhs) for s in _series_of(side))
    assert check("lemma", order, [("", lhs, rhs), ("", rhs, psi_theta(order))]).ok
