"""Command-line surface: series ids, output formats, env handling, exit codes."""

import csv
import io
import json
from fractions import Fraction

import pytest

import overq.bailey as bailey
import overq.cli as cli
from overq.report import VerificationReport


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_coeffs_gen_json(capsys):
    code, out, _ = run(capsys, "coeffs", "--series", "gen:A", "--order", "10")
    assert code == 0
    doc = json.loads(out)
    assert doc["series"] == "gen:A" and doc["order"] == 10
    assert doc["coeffs"] == [[1, "1"], [3, "-2"], [6, "3"], [10, "-4"]]


def test_coeffs_empty_series(capsys):
    code, out, _ = run(capsys, "coeffs", "--series", "gen:F", "--order", "0")
    assert code == 0
    assert json.loads(out)["coeffs"] == []


def test_coeffs_rhs_primed_alias(capsys):
    code, out, _ = run(capsys, "coeffs", "--series", "rhs:A''", "--order", "12")
    assert code == 0
    got = json.loads(out)["coeffs"]
    for pair in ([1, "1"], [3, "2"], [6, "3"], [10, "4"]):
        assert pair in got


def test_coeffs_pochhammer_series(capsys):
    code, out, _ = run(capsys, "coeffs", "--series", "poch:-q^2:2:2", "--order", "8")
    assert code == 0
    assert json.loads(out)["coeffs"] == [[0, "1"], [2, "1"], [4, "1"], [6, "1"]]


def test_coeffs_csv(capsys):
    code, out, _ = run(
        capsys, "coeffs", "--series", "gen:A", "--order", "10", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["exponent", "coefficient"]
    assert ["3", "-2"] in rows


def test_coeffs_fractions_roundtrip(capsys):
    code, out, _ = run(
        capsys, "coeffs", "--series", "classical:gr-iii9:lhs", "--order", "20"
    )
    assert code == 0
    doc = json.loads(out)
    vals = {e: Fraction(s) for e, s in doc["coeffs"]}
    assert vals[0] == 1
    assert all(v.denominator >= 1 for v in vals.values())


def test_coeffs_unknown_series(capsys):
    code, _, err = run(capsys, "coeffs", "--series", "nope:A", "--order", "5")
    assert code == 2
    assert "error:" in err


def test_coeffs_bad_monomial(capsys):
    code, _, err = run(capsys, "coeffs", "--series", "poch:2q:1:1", "--order", "5")
    assert code == 2
    assert "error:" in err


def test_verify_theorem_ok(capsys):
    code, out, _ = run(capsys, "verify", "--target", "theorem:B", "--order", "60")
    assert code == 0
    assert "theorem:B" in out and "ok" in out


def test_verify_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--target", "classical:gauss", "--order", "80",
        "--format", "json",
    )
    assert code == 0
    docs = json.loads(out)
    assert docs[0]["name"] == "classical:gauss" and docs[0]["ok"] is True


def test_verify_unknown_target(capsys):
    code, _, err = run(capsys, "verify", "--target", "theorem:bogus")
    assert code == 2
    assert "error:" in err


def test_verify_failure_exit_code(capsys, monkeypatch):
    bad = VerificationReport(
        name="theorem:B", order=5, ok=False, mismatch=(3, 1, 2), note="", elapsed=0.0
    )
    monkeypatch.setattr(cli, "verify_theorem", lambda fam, order: bad)
    code, out, _ = run(capsys, "verify", "--target", "theorem:B", "--order", "5")
    assert code == 1
    assert "FAIL" in out or "false" in out


def test_enum_list_ascii_and_unicode(capsys):
    code, out, _ = run(capsys, "enum", "--family", "A", "--n", "1", "--list")
    assert code == 0 and out == "(1~, ())\n"
    code, out, _ = run(
        capsys, "enum", "--family", "A", "--n", "1", "--list", "--unicode"
    )
    assert code == 0 and out == "(1̅, ∅)\n"


def test_enum_list_line_count(capsys):
    code, out, _ = run(capsys, "enum", "--family", "D", "--n", "4", "--list")
    assert code == 0
    assert len(out.strip().splitlines()) == 4


def test_enum_counts(capsys):
    code, out, _ = run(capsys, "enum", "--family", "F", "--n", "4", "--counts")
    assert code == 0 and out.strip() == "(2, 2, 0)"


def test_enum_counts_json(capsys):
    code, out, _ = run(
        capsys, "enum", "--family", "F", "--n", "4", "--counts", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["family"] == "F" and doc["counts"] == [2, 2, 0]


def test_enum_rejects_nonpositive_weight(capsys):
    code, _, err = run(capsys, "enum", "--family", "F", "--n", "0", "--counts")
    assert code == 2 and "error:" in err


def test_enum_unknown_family(capsys):
    code, _, err = run(capsys, "enum", "--family", "E", "--n", "3", "--counts")
    assert code == 2 and "error:" in err


def test_oracle_single_family(capsys):
    code, out, _ = run(capsys, "oracle", "--family", "C", "--max-n", "12")
    assert code == 0
    assert "oracle:C" in out


def test_oracle_rejects_nonpositive_bound(capsys):
    code, _, err = run(capsys, "oracle", "--family", "F", "--max-n", "0")
    assert code == 2 and "error:" in err


def test_order_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv(cli.ORDER_ENV, "10")
    code, out, _ = run(capsys, "coeffs", "--series", "gen:A")
    assert code == 0
    assert json.loads(out)["order"] == 10


def test_order_env_invalid(capsys, monkeypatch):
    monkeypatch.setenv(cli.ORDER_ENV, "ten")
    code, _, err = run(capsys, "coeffs", "--series", "gen:A")
    assert code == 2 and "error:" in err


def test_order_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv(cli.ORDER_ENV, "10")
    code, out, _ = run(capsys, "coeffs", "--series", "gen:A", "--order", "6")
    assert code == 0
    assert json.loads(out)["order"] == 6


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "series.json"
    code, out, _ = run(
        capsys, "coeffs", "--series", "gen:A", "--order", "10", "--out", str(target)
    )
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["coeffs"][0] == [1, "1"]


@pytest.mark.parametrize(
    "builder, argv",
    [
        ("verify_theorem", ("verify", "--target", "theorem:B", "--order", "5")),
        ("gen_family", ("coeffs", "--series", "gen:A", "--order", "5")),
    ],
)
def test_internal_fault_is_not_a_usage_error(capsys, monkeypatch, builder, argv):
    def broken(*args, **kwargs):
        raise ValueError("fault inside a builder")

    monkeypatch.setattr(cli, builder, broken)
    code, _, err = run(capsys, *argv)
    assert code != 2
    assert code == 3
    assert "Traceback" in err and "fault inside a builder" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("enum", "--family", "C", "--n", str(cli.MAX_WEIGHT + 1), "--counts"),
        ("enum", "--family", "C", "--n", str(cli.MAX_WEIGHT + 1), "--list"),
        ("oracle", "--family", "C", "--max-n", str(cli.MAX_WEIGHT + 1)),
    ],
)
def test_weight_cap_refuses_before_enumerating(capsys, monkeypatch, argv):
    def refused(*args, **kwargs):
        raise AssertionError("enumeration started above the weight cap")

    for name in ("enumerate_family", "signed_count", "oracle_compare"):
        monkeypatch.setattr(cli, name, refused)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"1 .. {cli.MAX_WEIGHT}" in err


@pytest.mark.parametrize(
    "argv, env",
    [
        (("verify", "--target", "theorem:C", "--order", str(cli.MAX_ORDER + 1)), None),
        (("verify", "--target", "all"), str(cli.MAX_ORDER + 1)),
        (("coeffs", "--series", "gen:A", "--order", str(cli.MAX_ORDER + 1)), None),
        (("coeffs", "--series", "gen:A"), str(cli.MAX_ORDER + 1)),
    ],
)
def test_order_cap_refuses_before_building(capsys, monkeypatch, argv, env):
    def refused(*args, **kwargs):
        raise AssertionError("built above the order cap")

    for name in ("_verify_reports", "_series_for", "oracle_compare"):
        monkeypatch.setattr(cli, name, refused)
    if env is not None:
        monkeypatch.setenv(cli.ORDER_ENV, env)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and f".. {cli.MAX_ORDER}" in err
    assert "Traceback" not in err


def test_order_cap_admits_the_deepest_theorem(capsys):
    assert cli.MAX_ORDER >= 8002
    code, out, _ = run(
        capsys, "verify", "--target", "theorem:C", "--order", str(cli.MAX_ORDER), "--format", "json"
    )
    assert code == 0 and json.loads(out)[0]["ok"]


def test_verify_chain_builds_each_stage_once(capsys, monkeypatch):
    calls = {}

    def counted(name, builder):
        def run_stage(order):
            calls[name] = calls.get(name, 0) + 1
            return builder(order)

        return run_stage

    stages = tuple((name, counted(name, builder)) for name, builder in bailey.CHAIN_STAGES)
    monkeypatch.setattr(bailey, "CHAIN_STAGES", stages)
    code, out, _ = run(capsys, "verify", "--target", "chain", "--order", "20", "--format", "json")
    assert code == 0
    assert calls == {name: 1 for name in bailey.CHAIN_STAGE_IDS}
    reports = json.loads(out)
    assert [r["name"] for r in reports] == [f"chain:{n}" for n in bailey.CHAIN_STAGE_IDS] + ["chain"]


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify", "--target", "all", "--order", "30", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert all(r["ok"] for r in reports)
    assert [r["name"] for r in reports] == [
        *(f"theorem:{f}" for f in ("F", "G", "A", "A2", "B", "C", "D")),
        *(
            f"classical:{cid}"
            for cid in (
                "pentagonal-bilateral", "pentagonal-unilateral", "jacobi", "gauss",
                "euler", "q-binomial", "fine-a", "fine-b", "aw-plus", "aw-minus",
                "gr-iii10", "gr-iii9", "basic-facts", "legendre",
            )
        ),
        "bailey:lovejoy-q2",
        "lemma:lovejoy-q2:a=-q^1",
        "bailey:slater-h1",
        "lemma:slater-h1:a=-q^0",
        "chain",
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--target", "all", "--order", "200"),
        ("coeffs", "--series", "gen:A", "--order", "10"),
        ("enum", "--family", "D", "--n", "5", "--counts"),
        ("oracle", "--family", "B", "--max-n", "5"),
    ],
)
@pytest.mark.parametrize("where", ["missing-directory", "directory", "empty"])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, monkeypatch, argv, where):
    def refused(*args, **kwargs):
        raise AssertionError("built before --out was checked")

    for name in ("_verify_reports", "_series_for", "signed_count", "oracle_compare"):
        monkeypatch.setattr(cli, name, refused)
    out = {"missing-directory": tmp_path / "missing" / "x.json", "directory": tmp_path}
    code, stdout, err = run(capsys, *argv, "--out", str(out.get(where, "")))
    assert code == 2 and stdout == ""
    assert err.startswith("error: --out ") and "Traceback" not in err
