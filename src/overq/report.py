"""Result record shared by every verification entry point, and check, the
one comparison path that fills it in.

Every verifier is a producer of labelled side pairs (label, lhs, rhs);
check builds them as it goes, compares them and times the whole.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional

from .series import QSeries

SidePair = tuple[str, QSeries, QSeries]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one coefficientwise comparison.

    order is the highest exponent compared.  mismatch, when present, is
    (exponent, left value, right value) for the first disagreeing
    coefficient; mismatch[0] is always an exponent (the Bailey relation
    names its index n in the note).  On a failure the note is the failing
    pair's label.
    """

    name: str
    order: int
    ok: bool
    mismatch: Optional[tuple[int, Any, Any]] = None
    note: str = ""
    elapsed: float = 0.0

    def render(self) -> str:
        tag = "ok  " if self.ok else "FAIL"
        line = f"{tag} {self.name} (order {self.order}, {self.elapsed:.2f}s)"
        if self.mismatch is not None:
            e, a, b = self.mismatch
            line += f" first mismatch at {e}: {a} != {b}"
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
    stopping at the first that differs.

    pairs may be a lazy generator: it is not advanced past a failing pair,
    and the elapsed time covers building the sides as well as comparing
    them.  A failure reports the pair's label as the note and the pair's
    order.  A pair whose two sides are one object fails too, with
    SAME_OBJECT_NOTE after its label and no mismatch; so does a source with
    no pair, with NO_PAIRS_NOTE.  A pass reports the smallest order compared
    and the note, which defaults to "k comparisons" when more than one pair
    was compared; when that order is below the requested one, "compared
    through k of N" is appended.
    """
    start = time.perf_counter()
    compared, count = order, 0
    for label, lhs, rhs in pairs:
        through = min(order, lhs.order, rhs.order)
        if lhs is rhs:
            bad = f"{label}: {SAME_OBJECT_NOTE}" if label else SAME_OBJECT_NOTE
            return VerificationReport(name, through, False, None, bad, time.perf_counter() - start)
        mismatch = lhs.first_mismatch(rhs, through)
        if mismatch is not None:
            return VerificationReport(
                name, through, False, mismatch, label, time.perf_counter() - start
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


def deferred(build: Callable[..., Iterable[SidePair]], *args: Any) -> Iterator[SidePair]:
    """The pairs build(*args) returns, built when check asks for the first."""
    yield from build(*args)


def one_pair(
    label: str, build: Callable[..., tuple[QSeries, QSeries]], *args: Any
) -> Iterator[SidePair]:
    """The single pair (label, *build(*args)), built when check asks for it."""
    yield (label, *build(*args))
