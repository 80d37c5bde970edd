"""Acceptance suite: the nine end-to-end guarantees the package makes.

Each test prints one pass/fail line (past the capture) before asserting, so a
plain pytest run shows the per-criterion verdicts.
"""

import time

from overq.bailey import LEMMA_CASES, PAIRS, bailey_check, chain_stage_reports, verify_lemma
from overq.cli import RELATION_DEPTH
from overq.enumeration import (
    FAMILIES,
    distinct_parts_difference,
    enumerate_family,
    is_sum_two_triangular,
    is_triangular,
    oracle_compare,
    pentagonal_rule,
    signed_count,
)
from overq.series import divided
from overq.identities import (
    CLASSICAL_IDS,
    gen_family,
    psi_product,
    psi_theta,
    rhs_theorem,
    verify_classical,
    verify_theorem,
)


def _verdict(capsys, number, ok, text):
    with capsys.disabled():
        print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {text}")


def test_criterion_1_smallest_part_families(capsys):
    checks = []
    for name in ("F", "G"):
        t0 = time.perf_counter()
        rep = verify_theorem(name, 300)
        elapsed = time.perf_counter() - t0
        checks.append((f"{name} holds", rep.ok))
        checks.append((f"{name} under 5s ({elapsed:.2f}s)", elapsed < 5.0))
    f = gen_family("F", 5)
    g = gen_family("G", 2)
    checks.append(("F signed count at 1", f.coeff(1) == 1))
    checks.append(("F signed count at 5", f.coeff(5) == -1))
    checks.append(("F signed count at 4", f.coeff(4) == 0))
    checks.append(("G signed count at 2", g.coeff(2) == 2))
    ok = all(c for _, c in checks)
    _verdict(capsys, 1, ok, "families F and G at order 300 with spot values")
    assert ok, [t for t, c in checks if not c]


def test_criterion_2_overlined_pair_families(capsys):
    checks = [
        ("A holds", verify_theorem("A", 300).ok),
        ("A2 holds", verify_theorem("A2", 300).ok),
        ("A signed count at 3", gen_family("A", 3).coeff(3) == -2),
        ("A2 signed count at 3", gen_family("A2", 3).coeff(3) == 2),
    ]
    ok = all(c for _, c in checks)
    _verdict(capsys, 2, ok, "families A and A'' at order 300 with spot values")
    assert ok, [t for t, c in checks if not c]


def test_criterion_3_psi_square_family(capsys):
    psi_ok = psi_theta(300).equal_up_to(divided(psi_product(300)), 300)
    rep = verify_theorem("B", 300)
    ok = psi_ok and rep.ok
    _verdict(capsys, 3, ok, "psi built two ways agrees; family B at order 300")
    assert ok, ("psi agreement" if not psi_ok else rep.to_dict())


def test_criterion_4_two_square_families(capsys):
    checks = []
    for name in ("C", "D"):
        t0 = time.perf_counter()
        rep = verify_theorem(name, 1202)
        elapsed = time.perf_counter() - t0
        checks.append((f"{name} holds", rep.ok))
        checks.append((f"{name} covers n<=150", rep.order == 1202))
        checks.append((f"{name} under 60s ({elapsed:.2f}s)", elapsed < 60.0))
    ok = all(c for _, c in checks)
    _verdict(capsys, 4, ok, "families C and D through inner index 150")
    assert ok, [t for t, c in checks if not c]


def test_criterion_5_enumeration_oracle(capsys):
    checks = [(name, oracle_compare(name, 25).ok) for name in FAMILIES]
    worked = (
        ("F count 4", len(enumerate_family("F", 4)) == 4),
        ("F signed 4", signed_count("F", 4)[2] == 0),
        ("A count 3", len(enumerate_family("A", 3)) == 4),
        ("A signed 3", signed_count("A", 3)[2] == -2),
        ("A2 signed 3", signed_count("A2", 3)[2] == 2),
        ("B count 3", len(enumerate_family("B", 3)) == 5),
        ("B signed 3", signed_count("B", 3)[2] == 1),
        ("C count 3", len(enumerate_family("C", 3)) == 5),
        ("C signed 3", signed_count("C", 3)[2] == -1),
        ("D signed 4", signed_count("D", 4)[2] == -2),
        ("D count 5", len(enumerate_family("D", 5)) == 6),
        ("D signed 5", signed_count("D", 5)[2] == 0),
    )
    checks.extend(worked)
    ok = all(c for _, c in checks)
    _verdict(capsys, 5, ok, "every family matches enumeration to weight 25")
    assert ok, [t for t, c in checks if not c]


def test_criterion_6_classical_suite(capsys):
    checks = [(cid, verify_classical(cid, 250).ok) for cid in CLASSICAL_IDS]
    ok = all(c for _, c in checks)
    _verdict(capsys, 6, ok, f"all {len(CLASSICAL_IDS)} classical identities at order 250")
    assert ok, [t for t, c in checks if not c]


def test_criterion_7_bailey_machinery(capsys):
    checks = []
    for name in PAIRS:
        checks.append((f"pair {name}", bailey_check(name, RELATION_DEPTH, 200).ok))
    for name, a in LEMMA_CASES:
        checks.append((f"lemma {name}", verify_lemma(name, a, 150).ok))
    for rep in chain_stage_reports(120):
        checks.append((rep.name, rep.ok))
    ok = all(c for _, c in checks)
    _verdict(capsys, 7, ok, f"both pairs to n={RELATION_DEPTH}, lemma sides, every chain stage")
    assert ok, [t for t, c in checks if not c]


def test_criterion_8_support_structure(capsys):
    checks = []
    a, a2 = gen_family("A", 200), gen_family("A2", 200)
    for n in range(201):
        if not is_triangular(n):
            checks.append((f"A at {n}", a.coeff(n) == 0))
            checks.append((f"A2 at {n}", a2.coeff(n) == 0))
    for name in ("B", "C", "D"):
        g = gen_family(name, 200)
        for n in range(201):
            if not is_sum_two_triangular(n):
                checks.append((f"{name} at {n}", g.coeff(n) == 0))
    for n in range(41):
        checks.append(
            (f"legendre at {n}", distinct_parts_difference(n) == pentagonal_rule(n))
        )
    ok = all(c for _, c in checks)
    _verdict(capsys, 8, ok, "vanishing off triangular supports; signed Legendre")
    assert ok, [t for t, c in checks if not c][:10]


def test_criterion_9_integrality(capsys):
    checks = []
    for name in FAMILIES:
        checks.append((f"gen {name}", gen_family(name, 80).is_integral()))
        checks.append((f"rhs {name}", rhs_theorem(name, 80).is_integral()))
    from overq.bailey import lemma_sides

    for name, av in LEMMA_CASES:
        lhs, rhs = lemma_sides(name, av, 80)
        checks.append((f"lemma lhs {name}", lhs.is_integral()))
        checks.append((f"lemma rhs {name}", rhs.is_integral()))
    ok = all(c for _, c in checks)
    _verdict(capsys, 9, ok, "every theorem-level series has integer coefficients")
    assert ok, [t for t, c in checks if not c]
