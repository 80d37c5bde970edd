"""Command-line front end: verification, coefficient tables, enumeration,
and oracle comparison.

Exit codes are a stable contract: 0 success, 1 a verification compared
unequal, 2 usage error (unknown id, malformed argument), 3 any other
error, with its traceback on stderr.  Ids and arguments, the --out path
among them, are validated before any series is built, so a fault raised
inside a builder is never reported as a usage error.  Data goes to stdout
(or --out), diagnostics to stderr.  Coefficients serialize as exact
decimal strings so arbitrary-precision values survive a round trip.

Each verify command runs its checks in one sharing scope, so a series that
several checks build (a lemma side, a Pochhammer product) is built once.
enum and oracle refuse a weight above MAX_WEIGHT, and verify and coeffs an
order above MAX_ORDER, as a usage error before anything is enumerated or
built.  oracle compares through its --max-n weight and reads no order.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
import traceback
from typing import Any, Callable, Optional, Sequence

from . import bailey as _bailey
from .enumeration import FAMILIES, enumerate_family, family, oracle_compare, signed_count
from .identities import (
    CLASSICAL_IDS,
    classical,
    gen_family,
    rhs_theorem,
    verify_classical,
    verify_theorem,
)
from .products import Monomial, poch_finite, poch_infinite, sharing
from .report import VerificationReport
from .series import QSeries

DEFAULT_ORDER = 120
ORDER_ENV = "OVERQ_ORDER"

#: the largest weight `enum --n` and `oracle --max-n` accept.  The number
#: of objects grows about 4x per 5 more weight: family C has 165,843 at
#: weight 30.  Counting them builds no object and takes about 0.3 s, and
#: `oracle` to weight 30 about 1 s; listing them builds every object and
#: takes about 7 s and 180 MB.
MAX_WEIGHT = 30

#: the largest order `verify` and `coeffs` accept, from --order or
#: OVERQ_ORDER.  It is the q^(8n+2) scale's top exponent for 1000
#: generating coefficients, so `verify --target theorem:C --order 8002`
#: runs, in about 0.3 s.  A family on the plain scale builds 8003
#: coefficients there: `verify --target theorem:B --order 8002` takes about
#: 12 s and 26 MB.  Most work grows about 4x per doubling of the order.
MAX_ORDER = 8002

class UsageError(Exception):
    """Bad input that should exit 2."""


def _known(lookup: Callable[[str], Any], key: str) -> Any:
    """lookup(key), with an unknown key reported as a usage error."""
    try:
        return lookup(key)
    except KeyError as exc:
        raise UsageError(exc.args[0]) from None


def _resolve_order(value: Optional[int]) -> int:
    if value is None:
        env = os.environ.get(ORDER_ENV)
        if env is not None:
            try:
                value = int(env)
            except ValueError:
                raise UsageError(f"{ORDER_ENV} must be an integer, got {env!r}") from None
        else:
            value = DEFAULT_ORDER
    if not 0 <= value <= MAX_ORDER:
        raise UsageError(f"order must be in 0 .. {MAX_ORDER}")
    return value


def _check_out(out: Optional[str]) -> None:
    """Refuse an --out path that is empty, a directory, or in a missing one."""
    if out is None:
        return
    if not out or os.path.isdir(out):
        raise UsageError(f"--out {out!r} is not a file name")
    if not os.path.isdir(os.path.dirname(out) or "."):
        raise UsageError(f"--out {out!r} lies in a missing directory")


def _emit(text: str, out: Optional[str]) -> None:
    if text and not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _emit_reports(reports: list[VerificationReport], args: argparse.Namespace) -> int:
    """Write the reports in the requested format; exit 1 if any failed."""
    if args.format == "json":
        _emit(json.dumps([r.to_dict() for r in reports], indent=2), args.out)
    else:
        _emit("\n".join(r.render() for r in reports), args.out)
    return 0 if all(r.ok for r in reports) else 1


# -- series id grammar -------------------------------------------------------

_MONO_RE = re.compile(r"(-?)(?:q(?:\^(\d+))?|1)")


def _parse_monomial(text: str) -> Monomial:
    m = _MONO_RE.fullmatch(text)
    if not m:
        raise UsageError(f"bad monomial {text!r}; expected forms like q, -q, q^3, -1")
    c = -1 if m.group(1) else 1
    if text.lstrip("-") == "1":
        return Monomial(c, 0)
    return Monomial(c, int(m.group(2)) if m.group(2) else 1)


def _series_for(sid: str, order: int) -> QSeries:
    """Resolve a series id.

    gen:<family>              signed counting series of a family
    rhs:<family>              its closed theta side
    classical:<id>:<lhs|rhs>  one side of a classical identity (first pair)
    poch:<mono>:<base>        infinite product (a; q^base)_inf
    poch:<mono>:<base>:<n>    finite product (a; q^base)_n
    """
    head, _, rest = sid.partition(":")
    if head == "gen" and rest:
        return gen_family(_known(family, rest), order)
    if head == "rhs" and rest:
        return rhs_theorem(_known(family, rest), order)
    if head == "classical" and rest:
        cid, _, side = rest.rpartition(":")
        if side not in ("lhs", "rhs") or not cid:
            raise UsageError(f"classical series id must end in :lhs or :rhs, got {sid!r}")
        pairs = _known(classical, cid)(order)
        _, lhs, rhs = pairs[0]
        return lhs if side == "lhs" else rhs
    if head == "poch" and rest:
        bits = rest.split(":")
        if len(bits) not in (2, 3):
            raise UsageError(f"poch series id is poch:<mono>:<base>[:<n>], got {sid!r}")
        a = _parse_monomial(bits[0])
        try:
            base = int(bits[1])
            n = int(bits[2]) if len(bits) == 3 else None
        except ValueError:
            raise UsageError(f"non-integer base or length in {sid!r}") from None
        if base < 1 or (n is not None and n < 0) or (n is None and a.e < 1):
            raise UsageError(
                f"poch needs base >= 1, length >= 0 and, when infinite, a positive "
                f"exponent; got {sid!r}"
            )
        if n is None:
            return poch_infinite(a, base, order)
        return poch_finite(a, base, n, order)
    raise UsageError(f"unknown series id {sid!r}; see `overq coeffs --help`")


# -- verify ------------------------------------------------------------------


def _verify_reports(target: str, order: int) -> list[VerificationReport]:
    head, _, rest = target.partition(":")
    if head == "theorem" and rest:
        return [verify_theorem(_known(family, rest), order)]
    if head == "classical" and rest:
        _known(classical, rest)
        return [verify_classical(rest, order)]
    if head == "bailey" and rest:
        return [_bailey.bailey_check(_known(_bailey.pair, rest), n_max=40, order=order)]
    if head == "lemma" and rest:
        p = _known(_bailey.pair, rest)
        return [_bailey.verify_lemma(p, dict(_bailey.LEMMA_CASES)[p.name], order)]
    if target == "chain":
        reports = _bailey.chain_stage_reports(order)
        return reports + [_bailey.chain_summary(reports, order)]
    if target == "all":
        reports = [verify_theorem(fam, order) for fam in FAMILIES]
        reports += [verify_classical(cid, order) for cid in CLASSICAL_IDS]
        for pair_name, a in _bailey.LEMMA_CASES:
            reports.append(_bailey.bailey_check(pair_name, n_max=40, order=order))
            reports.append(_bailey.verify_lemma(pair_name, a, order))
        reports.append(_bailey.verify_chain(order))
        return reports
    raise UsageError(
        f"unknown verify target {target!r}; expected theorem:<family>, "
        "classical:<id>, bailey:<pair>, lemma:<pair>, chain, or all"
    )


def _cmd_verify(args: argparse.Namespace) -> int:
    order = _resolve_order(args.order)
    with sharing():
        reports = _verify_reports(args.target, order)
    return _emit_reports(reports, args)


# -- coeffs ------------------------------------------------------------------


def _cmd_coeffs(args: argparse.Namespace) -> int:
    order = _resolve_order(args.order)
    series = _series_for(args.series, order)
    table = [(e, str(c)) for e, c in enumerate(series.coeffs) if c]
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["exponent", "coefficient"])
        writer.writerows(table)
        _emit(buf.getvalue(), args.out)
    else:
        payload = {
            "series": args.series,
            "order": series.order,
            "coeffs": [[e, v] for e, v in table],
        }
        _emit(json.dumps(payload, indent=2), args.out)
    return 0


# -- enum --------------------------------------------------------------------


def _cmd_enum(args: argparse.Namespace) -> int:
    spec = _known(family, args.family)
    if not 1 <= args.n <= MAX_WEIGHT:
        raise UsageError(f"weight must be in 1 .. {MAX_WEIGHT}")
    if args.list:
        objs = enumerate_family(args.family, args.n)
        lines = [obj.render(unicode=args.unicode) for obj in objs]
        if args.format == "json":
            payload = {"family": spec.name, "n": args.n, "objects": lines}
            _emit(json.dumps(payload, indent=2), args.out)
        else:
            _emit("\n".join(lines), args.out)
    else:
        even, odd, signed = signed_count(args.family, args.n)
        if args.format == "json":
            payload = {"family": spec.name, "n": args.n, "counts": [even, odd, signed]}
            _emit(json.dumps(payload, indent=2), args.out)
        else:
            _emit(f"({even}, {odd}, {signed})", args.out)
    return 0


# -- oracle ------------------------------------------------------------------


def _cmd_oracle(args: argparse.Namespace) -> int:
    if not 1 <= args.max_n <= MAX_WEIGHT:
        raise UsageError(f"--max-n must be in 1 .. {MAX_WEIGHT}")
    names = list(FAMILIES) if args.family == "all" else [_known(family, args.family).name]
    return _emit_reports([oracle_compare(name, args.max_n) for name in names], args)


# -- parser ------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="overq",
        description="Exact q-series verification and overpartition enumeration.",
        epilog=f"The default order is {DEFAULT_ORDER}, overridable via {ORDER_ENV}.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify",
        help="compare both sides of an identity coefficient by coefficient",
        description=(
            "Targets: theorem:<family> (F, G, A, A'', B, C, D; primed aliases "
            "accepted), classical:<id>, bailey:<pair>, lemma:<pair>, chain, all."
        ),
    )
    p_verify.add_argument("--target", required=True)
    p_verify.add_argument("--order", type=int, default=None)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_coeffs = sub.add_parser(
        "coeffs",
        help="print the nonzero coefficients of a series as exact strings",
        description=(
            "Series ids: gen:<family>, rhs:<family>, classical:<id>:<lhs|rhs>, "
            "poch:<mono>:<base>[:<n>] with monomials like q, -q, q^3, -1."
        ),
    )
    p_coeffs.add_argument("--series", required=True)
    p_coeffs.add_argument("--order", type=int, default=None)
    p_coeffs.add_argument("--format", choices=("json", "csv"), default="json")
    p_coeffs.add_argument("--out", default=None)
    p_coeffs.set_defaults(func=_cmd_coeffs)

    p_enum = sub.add_parser(
        "enum",
        help="list or count the weight-n objects of a family",
        description=(
            "Overlined parts render with a trailing ~ (2~+1~+1); --unicode "
            "switches to combining overlines."
        ),
    )
    p_enum.add_argument("--family", required=True)
    p_enum.add_argument("--n", type=int, required=True)
    mode = p_enum.add_mutually_exclusive_group(required=True)
    mode.add_argument("--list", action="store_true")
    mode.add_argument("--counts", action="store_true")
    p_enum.add_argument("--unicode", action="store_true")
    p_enum.add_argument("--format", choices=("text", "json"), default="text")
    p_enum.add_argument("--out", default=None)
    p_enum.set_defaults(func=_cmd_enum)

    p_oracle = sub.add_parser(
        "oracle",
        help="compare enumeration counts with series coefficients",
    )
    p_oracle.add_argument("--family", default="all")
    p_oracle.add_argument("--max-n", type=int, default=20)
    p_oracle.add_argument("--format", choices=("text", "json"), default="text")
    p_oracle.add_argument("--out", default=None)
    p_oracle.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_out(args.out)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
