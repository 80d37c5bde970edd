"""Failing reports from every verifier kind.

Each test corrupts one builder by flipping a single coefficient and pins
the report's (name, order, ok, mismatch, note): the mismatch exponent, the
pair label in the note and the order a failure reports.  Some also pin the
differences: how many coefficients differ and the first lhs - rhs.
"""

import json

import overq.bailey as bailey
import overq.cli as cli
import overq.identities as identities
from overq.enumeration import oracle_compare
from overq.report import check
from overq.series import QSeries, Quotient, divided, one


def flip(side, at):
    """side, divided if a quotient, with coefficient `at` (if within its
    order) raised by one."""
    series = divided(side)
    if at > series.order:
        return series
    cs = list(series.coeffs)
    cs[at] += 1
    return QSeries(cs, series.order)


def flipped(build, at, when=lambda *args: True):
    """build with its result flipped at `at` for the calls whose arguments
    satisfy `when`."""
    return lambda *args: flip(build(*args), at) if when(*args) else build(*args)


def fields(report):
    return report.name, report.order, report.ok, report.mismatch, report.note


def test_direct_theorem(monkeypatch):
    monkeypatch.setattr(identities, "rhs_theorem", flipped(identities.rhs_theorem, 6))
    report = identities.verify_theorem("A", 20)
    assert fields(report) == ("theorem:A", 20, False, (6, 3, 4), "")
    assert report.differences == (1, ((6, -1),))
    assert report.render().endswith(
        " first mismatch at 6: 3 != 4; differing coefficients: 1, lhs - rhs at 6: -1"
    )


def test_quotient_side_differences():
    # 1/(1 - q) = 1 + q + q^2 + ..., against ones with q^4 raised and q^7 dropped
    lhs = Quotient(one(10), QSeries([1, -1] + [0] * 9))
    rhs = QSeries([1, 1, 1, 1, 2, 1, 1, 0, 1, 1, 1])
    report = check("quotient", 10, [("label", lhs, rhs)])
    assert fields(report) == ("quotient", 10, False, (4, 1, 2), "label")
    assert report.differences == (2, ((4, -1), (7, 1)))
    # every coefficient differs: eleven counted, the first five listed
    report = check("quotient", 10, [("label", lhs, QSeries([0] * 11))])
    assert report.differences == (11, tuple((e, 1) for e in range(5)))
    assert report.to_dict()["mismatch"] == {
        "at": 0, "lhs": "1", "rhs": "0", "differing": 11,
        "first_differences": [[e, "1"] for e in range(5)],
    }


def test_cli_json_nests_the_differences(monkeypatch, capsys):
    monkeypatch.setattr(identities, "rhs_theorem", flipped(identities.rhs_theorem, 6))
    assert cli.main(["verify", "--target", "theorem:A", "--order", "20", "--format", "json"]) == 1
    (doc,) = json.loads(capsys.readouterr().out)
    assert doc["mismatch"] == {
        "at": 6, "lhs": "3", "rhs": "4", "differing": 1, "first_differences": [[6, "-1"]]
    }


def test_mapped_theorem(monkeypatch):
    monkeypatch.setattr(identities, "gen_family", flipped(identities.gen_family, 2))
    report = identities.verify_theorem("C", 45)
    assert fields(report) == (
        "theorem:C", 42, False, (18, 0, -1), "coefficients n <= 5 at exponents 8n+2"
    )


def test_classical_second_pair(monkeypatch):
    # only (-q;q)_inf is corrupted, so gauss's first pair holds and its second fails
    neg_q = identities.Monomial(-1, 1)
    corrupt = flipped(identities.poch_infinite, 3, lambda a, base, order: a == neg_q)
    monkeypatch.setattr(identities, "poch_infinite", corrupt)
    report = identities.verify_classical("gauss", 30)
    assert fields(report) == ("classical:gauss", 30, False, (3, 1, 3), "sum-vs-squared-product")


def test_classical_builds_no_pair_after_a_failing_one(monkeypatch):
    # gauss's first pair fails, so its second pair's (-q;q)_inf is never built
    monkeypatch.setattr(identities, "psi_product", flipped(identities.psi_product, 3))
    built = []
    poch_infinite = identities.poch_infinite
    monkeypatch.setattr(
        identities, "poch_infinite", lambda a, *rest: built.append(a) or poch_infinite(a, *rest)
    )
    report = identities.verify_classical("gauss", 30)
    assert fields(report) == ("classical:gauss", 30, False, (3, 1, 2), "sum-vs-quotient-product")
    assert built and identities.Monomial(-1, 1) not in built


def test_bailey_relation_at_n(monkeypatch):
    p = bailey.PAIRS["slater-h1"]

    def alpha_terms(r):  # alpha_3's row gains the term q^13
        return tuple(p.alpha_terms(r)) + (((13, 1),) if r == 3 else ())

    slipped = bailey.BaileyPair(p.name, p.relative, alpha_terms, p.alpha_low, p.beta_ratio)
    monkeypatch.setitem(bailey.PAIRS, "slater-h1", slipped)
    report = bailey.bailey_check("slater-h1", n_max=10, order=30)
    assert fields(report) == (
        "bailey:slater-h1", 30, False, (13, 1, 0), "defining relation fails at n=3"
    )


def test_lemma(monkeypatch):
    original = bailey.lemma_sides

    def lemma_sides(p, a, order):
        lhs, rhs = original(p, a, order)
        return lhs, flip(rhs, 5)

    monkeypatch.setattr(bailey, "lemma_sides", lemma_sides)
    report = bailey.verify_lemma("lovejoy-q2", bailey.Monomial(-1, 1), 20)
    assert fields(report) == ("lemma:lovejoy-q2:a=-q^1", 20, False, (5, 1, 2), "")


def test_chain_stage_and_summary(monkeypatch):
    monkeypatch.setattr(bailey, "_c_ladder_squares", flipped(bailey._c_ladder_squares, 4))
    reports = {r.name: r for r in bailey.chain_stage_reports(30)}
    assert fields(reports["chain:C:difference-of-squares"]) == (
        "chain:C:difference-of-squares", 30, False, (4, 0, 1), ""
    )
    assert fields(bailey.chain_summary(list(reports.values()), 30)) == (
        "chain", 30, False, (4, 0, 1),
        "2 of 34 stages fail, first chain:C:difference-of-squares",
    )
    assert bailey.chain_summary(list(reports.values()), 30).differences == (
        reports["chain:C:difference-of-squares"].differences
    )


def test_oracle(monkeypatch):
    monkeypatch.setattr(identities, "gen_family", flipped(identities.gen_family, 4))
    report = oracle_compare("B", 10)
    assert fields(report) == (
        "oracle:B", 10, False, (4, 2, 3), "enumeration vs series coefficient"
    )


def test_doubled_chain_stage(monkeypatch):
    # the doubled eighth-square form is the right side of one stage and the left of the next
    monkeypatch.setattr(bailey, "_d_grouped_assembly", flipped(bailey._d_grouped_assembly, 3))
    reports = {r.name: r for r in bailey.chain_stage_reports(30)}
    assert fields(reports["chain:D:eighth-square-forms"]) == (
        "chain:D:eighth-square-forms", 30, False, (3, 3, 4), ""
    )
    assert fields(reports["chain:D:diagonals-paired-up"]) == (
        "chain:D:diagonals-paired-up", 30, False, (3, 4, 3), ""
    )
    assert fields(bailey.chain_summary(list(reports.values()), 30)) == (
        "chain", 30, False, (3, 3, 4),
        "2 of 34 stages fail, first chain:D:eighth-square-forms",
    )
