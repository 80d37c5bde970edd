"""The benchmark's workloads: inputs from a seed, one timed pass, digests.

Every workload runs the paper's fixed statements through the package's
public modules; the seed only shuffles the order of the checks (and leaves
verify-all in the CLI's own order), so no seed makes a check easier.  Calls
go through module attributes at call time, so a traced run sees them.

A digest is the SHA-256 of the canonical [(exponent, coefficient string)]
list of a series the workload checks.  A whole-number Fraction is written
as n/1, so a result that leaks a non-collapsed Fraction changes the digest
even though it compares equal to the int.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import time
import traceback
from contextlib import redirect_stdout
from fractions import Fraction

from overq import cli, enumeration, identities
from overq.series import QSeries

import spans

FAMILIES = ("F", "G", "A", "A2", "B", "C", "D")

VERIFY_ALL_ORDER = 400
VERIFY_ALL_ARGV = ("verify", "--target", "all", "--order", str(VERIFY_ALL_ORDER), "--format", "json")

#: the 26 reports `overq verify --target all` produces, in the CLI's order
VERIFY_ALL_REPORTS = (
    *(f"theorem:{f}" for f in FAMILIES),
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
)

#: family -> (generating-series order, theorem order); C and D state their
#: identity on the q^(8n+2) scale, so order 8002 is inner order 1000
THEOREMS = {
    "F": (1000, 1000),
    "G": (1000, 1000),
    "A": (1000, 1000),
    "A2": (1000, 1000),
    "B": (1000, 1000),
    "C": (1000, 8002),
    "D": (1000, 8002),
}

ORACLE_WEIGHT = 22


def inputs(workload: str, seed: int) -> list:
    if workload == "verify-all":
        return list(VERIFY_ALL_ARGV)
    if workload in ("theorems-deep", "oracle"):
        order = list(FAMILIES)
        random.Random(seed).shuffle(order)
        return order
    raise KeyError(f"unknown workload {workload!r}")


def _timed(name: str, check) -> tuple[str, bool, float]:
    start = time.perf_counter()
    try:
        report = check()
        ok = report.ok and report.name == name
    except Exception:
        traceback.print_exc()
        ok = False
    return name, ok, time.perf_counter() - start


def run_pass(workload: str, args: list) -> tuple[float, list[tuple[str, bool, float]]]:
    """One full pass: (wall seconds, [(check name, ok, seconds)])."""
    start = time.perf_counter()
    if workload == "verify-all":
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(args)
        reports = json.loads(out.getvalue())
        wall = time.perf_counter() - start
        by_name = {r["name"]: r for r in reports}
        checks = [
            (name, code == 0 and by_name.get(name, {}).get("ok") is True,
             float(by_name.get(name, {}).get("elapsed", 0.0)))
            for name in VERIFY_ALL_REPORTS
        ]
        checks += [(r["name"], False, 0.0) for r in reports if r["name"] not in VERIFY_ALL_REPORTS]
        return wall, checks
    if workload == "theorems-deep":
        checks = [
            _timed(f"theorem:{f}", lambda f=f: identities.verify_theorem(f, THEOREMS[f][1]))
            for f in args
        ]
    else:
        checks = [
            _timed(f"oracle:{f}", lambda f=f: enumeration.oracle_compare(f, ORACLE_WEIGHT))
            for f in args
        ]
    return time.perf_counter() - start, checks


# -- digests -----------------------------------------------------------------


def _canon(c) -> str:
    if type(c) is int:
        return str(c)
    if type(c) is Fraction:
        return f"{c.numerator}/{c.denominator}"
    return f"{type(c).__name__}:{c!r}"


def digest(coeffs) -> str:
    terms = [[e, _canon(c)] for e, c in enumerate(coeffs)]
    return hashlib.sha256(json.dumps(terms, separators=(",", ":")).encode()).hexdigest()


def _builds(workload: str) -> list:
    """(label, thunk giving the coefficients) for every series a workload's
    digests cover: both theorem sides, or for the oracle the generating
    series and the series of signed counts it is compared with."""
    out = []
    for f in FAMILIES:
        if workload == "oracle":
            w = ORACLE_WEIGHT
            out.append((f"gen_family:{f}@{w}", lambda f=f: identities.gen_family(f, w).coeffs))
            out.append((
                f"signed_count:{f}@{w}",
                lambda f=f: [0] + [enumeration.signed_count(f, n)[2] for n in range(1, w + 1)],
            ))
            continue
        gen, rhs = (VERIFY_ALL_ORDER, VERIFY_ALL_ORDER) if workload == "verify-all" else THEOREMS[f]
        out.append((f"gen_family:{f}@{gen}", lambda f=f, n=gen: identities.gen_family(f, n).coeffs))
        out.append((f"rhs_theorem:{f}@{rhs}", lambda f=f, n=rhs: identities.rhs_theorem(f, n).coeffs))
    return out


def digests(workload: str) -> dict[str, str]:
    """Rebuild the checked series through the public modules and hash them."""
    out = {}
    for label, build in _builds(workload):
        try:
            out[label] = digest(build())
        except Exception:
            traceback.print_exc()
            out[label] = "error"
    return out


# -- fault injection for the benchmark's self-tests ---------------------------


def _flip(series: QSeries) -> QSeries:
    cs = list(series.coeffs)
    cs[min(1, series.order)] += 1
    return QSeries(cs, series.order)


def _leak_fraction(series: QSeries) -> QSeries:
    leaked = QSeries(series.coeffs, series.order)
    object.__setattr__(leaked, "coeffs", (Fraction(series.coeffs[0]),) + series.coeffs[1:])
    return leaked


FAULTS = {
    # one coefficient of gen_family's output is off by one
    "flip": (("identities.gen_family",), _flip),
    # both theorem sides keep their values but coefficient 0 is a whole Fraction
    "fraction": (("identities.gen_family", "identities.rhs_theorem"), _leak_fraction),
}


def install_fault(kind: str) -> None:
    metrics, corrupt = FAULTS[kind]

    def wrap(fn, name, metric):
        def faulty(*args, **kwargs):
            return corrupt(fn(*args, **kwargs))

        return faulty

    spans.patch([row for row in spans.TRACE_TABLE if row[2] in metrics], wrap)
