"""Sides kept as numerator over denominator, compared cross-multiplied.

A slip in a verification gives the same report whether check compares a
quotient side cross-multiplied or a reference check first divides every
side with QSeries.invert: the same verdict and the same (exponent, lhs,
rhs).  And no verification divides.
"""

import json

import pytest

import overq.cli as cli
from overq import bailey, identities
from overq.products import Monomial, Ratio
from overq.report import SAME_OBJECT_NOTE, check
from overq.series import QSeries, Quotient, ZeroConstantTermError, divided, monomial, one

ORDERS = (0, 1, 60, 400)


def _refuse(*args):
    raise AssertionError("a verification divided")


@pytest.mark.parametrize("order", ORDERS)
def test_verify_all_divides_nothing(order, capsys, monkeypatch):
    monkeypatch.setattr(QSeries, "invert", _refuse)
    assert cli.main(["verify", "--target", "all", "--order", str(order), "--format", "json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert len(reports) == 26 and all(r["ok"] for r in reports)


def _dividing_check(name, order, pairs, note=""):
    """The reference: check on sides divided with QSeries.invert first."""
    return check(name, order, ((label, divided(l), divided(r)) for label, l, r in pairs), note)


def _fields(report):
    return report.name, report.order, report.ok, report.mismatch, report.note


def _reports(order):
    reports = [identities.verify_classical(cid, order) for cid in identities.CLASSICAL_IDS]
    reports += [identities.verify_theorem(f, order) for f in ("G", "B")]
    return reports + bailey.chain_stage_reports(order)


def _fine_right_offset(monkeypatch):
    # fine-a's right sum with its ratio's offset one too high
    real = identities.ratio_sum

    def slipped(init, ratio, order, *args, **kwargs):
        if ratio.shift == (-1, 3, 2):
            ratio = Ratio((-1, 3, 3), ratio.muls, ratio.divs)
        return real(init, ratio, order, *args, **kwargs)

    monkeypatch.setattr(identities, "ratio_sum", slipped)


def _ladder_c_flipped(monkeypatch):
    # the second ladder's multiply (1 - q^(2n+2)) as (1 + q^(2n+2))
    r = bailey._C_LADDER2_RATIO
    monkeypatch.setattr(bailey, "_C_LADDER2_RATIO", Ratio(r.shift, ((-1, 2, 2),) + r.muls[1:], r.divs))


def _numerator_factor_dropped(monkeypatch):
    # (-q^3;q^2)_inf left out of the III.10 and III.9 prefactors' numerators
    real = identities.poch_infinite

    def poch(a, base, order):
        return one(order) if (a, base) == (Monomial(-1, 3), 2) else real(a, base, order)

    monkeypatch.setattr(identities, "poch_infinite", poch)


def _denominator_factor_dropped(monkeypatch):
    # (q^3;q^2)_inf left out of the odd-tail ladder's denominator
    real = bailey._c_ladder_odd_tail

    def odd_tail(order):
        return Quotient(real(order).num, bailey.poch_infinite(Monomial(-1, 1), 1, order))

    monkeypatch.setattr(bailey, "_c_ladder_odd_tail", odd_tail)


SLIPS = {
    "row-offset": _fine_right_offset,
    "c-flipped": _ladder_c_flipped,
    "numerator-factor": _numerator_factor_dropped,
    "denominator-factor": _denominator_factor_dropped,
}


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("slip", sorted(SLIPS))
def test_a_slip_reports_alike_cross_multiplied_and_divided(slip, order, monkeypatch):
    SLIPS[slip](monkeypatch)
    got = [_fields(r) for r in _reports(order)]
    monkeypatch.setattr(identities, "check", _dividing_check)
    monkeypatch.setattr(bailey, "check", _dividing_check)
    want = [_fields(r) for r in _reports(order)]
    assert got == want
    assert order < 60 or not all(ok for _, _, ok, _, _ in got)


def test_the_slips_fail_where_expected(monkeypatch):
    with monkeypatch.context() as m:
        _fine_right_offset(m)
        assert identities.verify_classical("fine-a", 60).mismatch == (2, 1, 2)
    SLIPS["denominator-factor"](monkeypatch)
    reports = {r.name: r.mismatch for r in bailey.chain_stage_reports(60)}
    assert reports["chain:C:odd-tail-folded"] == (3, 2, 1)
    assert reports["chain:C:difference-of-squares"] == (3, 1, 2)


def test_a_zero_constant_denominator_is_refused():
    with pytest.raises(ZeroConstantTermError):
        Quotient(one(5), monomial(1, 1, 5))
    with pytest.raises(ValueError):
        Quotient(one(5), one(4))


def test_two_quotients_of_one_num_and_den_fail_as_one_object():
    side = Quotient(one(5).mul_binomial(-1, 2), one(5).mul_binomial(1, 1))
    report = check("q", 5, [("x", side, Quotient(side.num, side.den))])
    assert (report.ok, report.mismatch, report.note) == (False, None, f"x: {SAME_OBJECT_NOTE}")
    assert check("q", 5, [("x", side, side * 1)]).ok
