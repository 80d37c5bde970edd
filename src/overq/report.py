"""Result record shared by every verification entry point, and check, the
one comparison path that fills it in.

Every verifier is a producer of labelled side pairs (label, lhs, rhs);
check builds them as it goes, compares them and times the whole.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable, Iterator, Optional, Union

from ._frozen import Frozen
from .series import QSeries, Quotient, divided

Side = Union[QSeries, Quotient]
SidePair = tuple[str, Side, Side]


class VerificationReport(Frozen):
    """Outcome of one coefficientwise comparison.

    order is the highest exponent compared.  mismatch, when present, is
    (exponent, left value, right value) for the first disagreeing
    coefficient; mismatch[0] is always an exponent (the Bailey relation
    names its index n in the note).  On a failure the note is the failing
    pair's label.  differences, when present, is (count, first): how many
    coefficients of the two sides differ through order, and the first five
    (exponent, lhs - rhs) among them.
    """

    name: str
    order: int
    ok: bool
    mismatch: Optional[tuple[int, Any, Any]] = None
    note: str = ""
    elapsed: float = 0.0
    differences: Optional[tuple[int, tuple[tuple[int, Any], ...]]] = None

    def render(self) -> str:
        tag = "ok  " if self.ok else "FAIL"
        line = f"{tag} {self.name} (order {self.order}, {self.elapsed:.2f}s)"
        if self.mismatch is not None:
            e, a, b = self.mismatch
            line += f" first mismatch at {e}: {a} != {b}"
        if self.differences is not None:
            count, first = self.differences
            shown = ", ".join(f"{e}: {d}" for e, d in first)
            line += f"; differing coefficients: {count}, lhs - rhs at {shown}"
        if self.note:
            line += f" [{self.note}]"
        return line

    def to_dict(self) -> dict:
        out: dict[str, Any] = {
            "name": self.name,
            "order": self.order,
            "ok": self.ok,
        }
        if self.mismatch is not None:
            e, a, b = self.mismatch
            out["mismatch"] = {"at": e, "lhs": str(a), "rhs": str(b)}
            if self.differences is not None:
                count, first = self.differences
                out["mismatch"]["differing"] = count
                out["mismatch"]["first_differences"] = [[e, str(d)] for e, d in first]
        if self.note:
            out["note"] = self.note
        out["elapsed"] = round(self.elapsed, 3)
        return out


#: the note of a pair whose two sides are one object: such a comparison
#: cannot fail, so it shows nothing
SAME_OBJECT_NOTE = "both sides are one object"

#: the note of a check whose pair source was empty: it compared nothing
NO_PAIRS_NOTE = "no pair was compared"


def check(name: str, order: int, pairs: Iterable[SidePair], note: str = "") -> VerificationReport:
    """Compare each labelled pair through min(order, lhs.order, rhs.order),
    stopping at the first that differs.  A side is a series or a
    series.Quotient, compared as lhs.num * rhs.den against rhs.num *
    lhs.den (a series is itself over 1); only a failing pair is divided.

    pairs may be a lazy generator: it is not advanced past a failing pair,
    and the elapsed time covers building the sides as well as comparing
    them.  A failure reports the pair's label as the note and the pair's
    order.  A pair whose two sides are one object, or two quotients of one
    num and one den, fails too, with SAME_OBJECT_NOTE after its label and
    no mismatch; so does a source with no pair, with NO_PAIRS_NOTE.  A pass
    reports the smallest order compared and the note, which defaults to
    "k comparisons" when more than one pair was compared; when that order
    is below the requested one, "compared through k of N" is appended.
    """
    start = time.perf_counter()
    compared, count = order, 0
    for label, lhs, rhs in pairs:
        through = min(order, lhs.order, rhs.order)
        ln, ld = (lhs.num, lhs.den) if isinstance(lhs, Quotient) else (lhs, None)
        rn, rd = (rhs.num, rhs.den) if isinstance(rhs, Quotient) else (rhs, None)
        if ln is rn and ld is rd:
            bad = f"{label}: {SAME_OBJECT_NOTE}" if label else SAME_OBJECT_NOTE
            return VerificationReport(name, through, False, None, bad, time.perf_counter() - start)
        left = ln if rd is None else ln * rd
        right = rn if ld is None else rn * ld
        if left.first_mismatch(right, through) is not None:
            a, b = divided(lhs), divided(rhs)
            diffs = [
                (e, x - y) for e, (x, y) in enumerate(zip(a.coeffs[: through + 1], b.coeffs)) if x != y
            ]
            return VerificationReport(
                name, through, False, a.first_mismatch(b, through), label,
                time.perf_counter() - start, (len(diffs), tuple(diffs[:5])),
            )
        compared, count = min(compared, through), count + 1
    if not count:
        elapsed = time.perf_counter() - start
        return VerificationReport(name, order, False, None, NO_PAIRS_NOTE, elapsed)
    if not note and count > 1:
        note = f"{count} comparisons"
    if compared < order:
        short = f"compared through {compared} of {order}"
        note = f"{note}; {short}" if note else short
    return VerificationReport(name, compared, True, None, note, time.perf_counter() - start)


def one_pair(
    label: str, build: Callable[..., tuple[Side, Side]], *args: Any
) -> Iterator[SidePair]:
    """The single pair (label, *build(*args)), built when check asks for it."""
    yield (label, *build(*args))
