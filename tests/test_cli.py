"""Command-line surface: series ids, output formats, env handling, exit codes."""

import csv
import hashlib
import io
import json
from fractions import Fraction

import pytest

import overq.bailey as bailey
import overq.cli as cli
import overq.enumeration as enumeration
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
    assert out == "exponent,coefficient\r\n1,1\r\n3,-2\r\n6,3\r\n10,-4\r\n"


@pytest.mark.parametrize("sid", ["gen:A", "rhs:D", "classical:gr-iii9:lhs", "classical:euler:rhs"])
def test_coeffs_bytes_match_the_csv_and_json_writers(capsys, sid):
    # coeffs writes its CSV rows by hand; they and its JSON must be byte for
    # byte what csv.writer and json.dumps(indent=2) write
    table = [(e, str(c)) for e, c in enumerate(cli._series_for(sid, 40).coeffs) if c]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["exponent", "coefficient"])
    writer.writerows(table)
    code, out, _ = run(capsys, "coeffs", "--series", sid, "--order", "40", "--format", "csv")
    assert code == 0 and out == buf.getvalue()
    code, out, _ = run(capsys, "coeffs", "--series", sid, "--order", "40", "--format", "json")
    payload = {"series": sid, "order": 40, "coeffs": [[e, v] for e, v in table]}
    assert code == 0 and out == json.dumps(payload, indent=2) + "\n"


def test_coeffs_fractions_roundtrip(capsys):
    code, out, _ = run(
        capsys, "coeffs", "--series", "classical:gr-iii9:lhs", "--order", "20"
    )
    assert code == 0
    doc = json.loads(out)
    vals = {e: Fraction(s) for e, s in doc["coeffs"]}
    assert vals[0] == 1
    assert all(v.denominator >= 1 for v in vals.values())


def test_coeffs_divides_a_quotient_side_for_display(capsys):
    # Euler's 1/(q;q^2)_inf, a quotient side, prints as the series (-q;q)_inf
    tables = []
    for side in ("lhs", "rhs"):
        code, out, _ = run(capsys, "coeffs", "--series", f"classical:euler:{side}", "--order", "30")
        assert code == 0
        tables.append(json.loads(out)["coeffs"])
    assert tables[0] == tables[1] and [30, "296"] in tables[1]


def test_coeffs_unknown_series(capsys):
    code, _, err = run(capsys, "coeffs", "--series", "nope:A", "--order", "5")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "sid, says", [("classical::lhs", "names no identity"), ("classical:euler:mid", "end in :lhs or :rhs")]
)
def test_coeffs_bad_classical_id_says_what_is_wrong(capsys, sid, says):
    code, out, err = run(capsys, "coeffs", "--series", sid, "--order", "5")
    assert code == 2 and out == ""
    assert says in err and sid in err


@pytest.mark.parametrize(
    "sid, coeffs",
    [
        # (q;q)_inf: Euler's pentagonal numbers
        ("poch:q:1", [[0, "1"], [1, "-1"], [2, "-1"], [5, "1"], [7, "1"]]),
        # (-1;q)_3 = 2(1 + q)(1 + q^2), the monomial -1 read as -q^0
        ("poch:-1:1:3", [[0, "2"], [1, "2"], [2, "2"], [3, "2"]]),
    ],
)
def test_coeffs_infinite_and_constant_pochhammer(capsys, sid, coeffs):
    code, out, _ = run(capsys, "coeffs", "--series", sid, "--order", "8")
    assert code == 0
    assert json.loads(out) == {"series": sid, "order": 8, "coeffs": coeffs}


@pytest.mark.parametrize(
    "sid, says",
    [
        ("poch:q", "poch:<mono>:<base>[:<n>]"),
        ("poch:q:x", "non-integer base or length"),
        ("poch:q:0", "base >= 1"),
    ],
)
def test_coeffs_bad_pochhammer_id_says_what_is_wrong(capsys, sid, says):
    code, out, err = run(capsys, "coeffs", "--series", sid, "--order", "5")
    assert code == 2 and out == ""
    assert says in err and sid in err


def test_coeffs_bad_monomial(capsys):
    code, _, err = run(capsys, "coeffs", "--series", "poch:2q:1:1", "--order", "5")
    assert code == 2
    assert "error:" in err


def test_verify_theorem_ok(capsys):
    code, out, _ = run(capsys, "verify", "--target", "theorem:B", "--order", "60")
    assert code == 0
    assert "theorem:B" in out and "ok" in out


@pytest.mark.parametrize("name", ["a''", "a′′", "a2", "a2'"])
def test_verify_theorem_folds_a_lower_case_alias(capsys, name):
    code, out, _ = run(
        capsys, "verify", "--target", f"theorem:{name}", "--order", "30", "--format", "json"
    )
    assert code == 0
    assert [doc["name"] for doc in json.loads(out)] == ["theorem:A2"]


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


@pytest.mark.parametrize("name", ["lovejoy-q2", "slater-h1"])
def test_verify_one_pairs_relation_and_lemma(capsys, name):
    a = dict(bailey.LEMMA_CASES)[name]
    code, out, _ = run(capsys, "verify", "--target", f"bailey:{name}", "--order", "30", "--format", "json")
    assert code == 0
    [doc] = json.loads(out)
    assert (doc["name"], doc["order"], doc["ok"]) == (f"bailey:{name}", 30, True)
    assert doc["note"] == f"defining relation holds for n <= {cli.RELATION_DEPTH}"
    code, out, _ = run(capsys, "verify", "--target", f"lemma:{name}", "--order", "30", "--format", "json")
    assert code == 0
    [doc] = json.loads(out)
    assert (doc["name"], doc["order"], doc["ok"]) == (f"lemma:{name}:a={a}", 30, True)
    assert "note" not in doc


@pytest.mark.parametrize("target", ["bogus", "chain:C", "bailey:", "lemma:nope"])
def test_verify_an_unknown_target_form_is_a_usage_error(capsys, target):
    code, out, err = run(capsys, "verify", "--target", target, "--order", "5")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


#: SHA-256 of verify --target all's JSON at each order, elapsed dropped and
#: written again by json.dumps(indent=2), taken before the Bailey relation's
#: Horner walk moved into products
VERIFY_ALL_DIGESTS = {
    0: "9bfc21e3808a027848a597167ec3540ded5c5247dd0175688399a28c209fdeda",
    1: "df9e2dccc9996752b8481a0c7e0b716605686e507d0cb418b5634608ae001ff5",
    60: "c2849bbba43a109a56597eb6e2e282ccadb2c9bb9dbf16c9551bc6608624e273",
    400: "268157872c881db6d41d3f85fe4ae300d7214f57eab8cfd91b27d0e6af0acd27",
}


@pytest.mark.parametrize("order", sorted(VERIFY_ALL_DIGESTS))
def test_verify_all_json_is_pinned(capsys, order):
    code, out, _ = run(capsys, "verify", "--target", "all", "--order", str(order), "--format", "json")
    assert code == 0
    docs = json.loads(out)
    for doc in docs:
        del doc["elapsed"]
    digest = hashlib.sha256(json.dumps(docs, indent=2).encode()).hexdigest()
    assert digest == VERIFY_ALL_DIGESTS[order]


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


def test_enum_list_json(capsys):
    code, out, _ = run(capsys, "enum", "--family", "D", "--n", "4", "--list", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "family": "D",
        "n": 4,
        "objects": ["(1~, 2~+1~)", "(2+1~, 1~)", "(2~, 2~)", "(2~+1~, 1~)"],
    }


def test_enum_list_line_count(capsys):
    code, out, _ = run(capsys, "enum", "--family", "D", "--n", "4", "--list")
    assert code == 0
    assert len(out.strip().splitlines()) == 4


@pytest.mark.parametrize(
    "fam, n, lines, sha256",
    [
        ("C", 16, 2450, "af8aa3d31a8fd69de46ce1dd2612b3a6bd506d95b26f2339f544f23aaf5d3c00"),
        ("D", 14, 454, "e97bdd81968f425d0ae33bd5df053a003f2b4f34d7ab43a31c0fd716909d54bc"),
    ],
    ids=["C-16", "D-14"],
)
def test_enum_list_is_pinned(capsys, fam, n, lines, sha256):
    # digests of the listings as the Overpartition.of-based builder printed
    # them; a change in object order, rendering or membership shows here
    code, out, _ = run(capsys, "enum", "--family", fam, "--n", str(n), "--list")
    assert code == 0 and out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


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
    monkeypatch.setattr(enumeration, "signed_counts", refused)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"1 .. {cli.MAX_WEIGHT}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--target", "theorem:C", "--order", str(cli.MAX_ORDER + 1)),
        ("coeffs", "--series", "gen:A", "--order", str(cli.MAX_ORDER + 1)),
    ],
)
def test_order_cap_refuses_before_building(capsys, monkeypatch, argv):
    def refused(*args, **kwargs):
        raise AssertionError("built above the order cap")

    for name in ("_verify_reports", "_series_for", "oracle_compare"):
        monkeypatch.setattr(cli, name, refused)
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
    monkeypatch.setattr(enumeration, "signed_counts", refused)
    out = {"missing-directory": tmp_path / "missing" / "x.json", "directory": tmp_path}
    code, stdout, err = run(capsys, *argv, "--out", str(out.get(where, "")))
    assert code == 2 and stdout == ""
    assert err.startswith("error: --out ") and "Traceback" not in err
