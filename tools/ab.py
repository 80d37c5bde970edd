"""A/B timing of two overq source trees in one process.

    python3 tools/ab.py BASE CHANGE --workload theorems-deep --rounds 10

BASE and CHANGE are directories that each hold an ``overq`` package, such
as ``src`` of two checkouts.  Both are imported in this one process, under
the names ``overq_base`` and ``overq_change``, so the two sides share the
interpreter, the heap and the machine's speed of the moment; a difference
between two checkouts that fresh processes would add is absent here.  The
tool uses the standard library only.

Each round runs the workload once per side and alternates which side runs
first.  One untimed call per side comes first, so imports and lazy set-up
are not timed.  Every call must verify: a failing report stops the run with
exit 1.  The workloads take their inputs from bench/workloads.py, which
is imported from this checkout's bench/ (with its src/ on the path, as
workloads imports overq):

- verify-all: ``verify --target all --order 400 --format json`` through
  the side's cli.main, output discarded;
- theorems-deep: verify_theorem for the seven families at the bench
  orders (1000, and 8002 for C and D);
- oracle: oracle_compare for the seven families to weight 22.

The output gives each side's median and quartiles over the rounds, the
ratio of the medians (change / base), and in how many rounds the change
was faster.  Two more untimed calls per side, after the rounds, run under
tracemalloc and give the side's traced peak, in bytes: the peak of the
second call above what was traced when the first ended.  Freed dicts,
tuples and lists wait on CPython's free lists and stay traced; the first
call fills those lists, so the second reuses their entries rather than
reading as new memory.  No gc.collect() runs between the calls: a full
collection empties the free lists.  What the free lists take on beyond
the first call's end still counts.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import statistics
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads


def load(src: Path, name: str):
    """Import the overq package found in src under the given module name."""
    init = src / "overq" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no overq package in {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def workload(package, kind: str) -> Callable[[], bool]:
    """One call of the workload on this package; returns whether it verified."""
    name = package.__name__
    if kind == "verify-all":
        cli = importlib.import_module(f"{name}.cli")

        def run() -> bool:
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(list(workloads.VERIFY_ALL_ARGV)) == 0

    elif kind == "theorems-deep":
        identities = importlib.import_module(f"{name}.identities")

        def run() -> bool:
            reports = [
                identities.verify_theorem(f, workloads.THEOREMS[f][1]) for f in workloads.FAMILIES
            ]
            return all(r.ok for r in reports)

    else:
        enumeration = importlib.import_module(f"{name}.enumeration")

        def run() -> bool:
            reports = [
                enumeration.oracle_compare(f, workloads.ORACLE_WEIGHT) for f in workloads.FAMILIES
            ]
            return all(r.ok for r in reports)

    return run


def timed(label: str, run: Callable[[], bool]) -> float:
    gc.collect()
    start = time.perf_counter()
    ok = run()
    elapsed = time.perf_counter() - start
    if not ok:
        raise SystemExit(f"error: {label} did not verify")
    return elapsed


def traced_peak(label: str, run: Callable[[], bool]) -> int:
    """The traced peak, in bytes, of a second untimed call above what the
    first left traced, free lists included."""
    gc.collect()
    tracemalloc.start()
    try:
        ok = run()
        # no gc.collect() here: a full collection empties the free lists
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ok = run() and ok
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    if not ok:
        raise SystemExit(f"error: {label} did not verify")
    return peak


def summary(times: list[float]) -> str:
    if len(times) > 1:
        q1, med, q3 = statistics.quantiles(times, n=4, method="inclusive")
    else:
        q1 = med = q3 = times[0]
    return f"median {med:.3f} s (q1 {q1:.3f}, q3 {q3:.3f})"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="directory holding the base overq package")
    parser.add_argument("change", type=Path, help="directory holding the changed overq package")
    parser.add_argument(
        "--workload", choices=("verify-all", "theorems-deep", "oracle"), required=True
    )
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")

    sides = {
        "base": workload(load(args.base, "overq_base"), args.workload),
        "change": workload(load(args.change, "overq_change"), args.workload),
    }
    for label, run in sides.items():
        timed(label, run)  # warm-up
    times: dict[str, list[float]] = {"base": [], "change": []}
    for i in range(args.rounds):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for label in order:
            times[label].append(timed(label, sides[label]))

    peaks = {label: traced_peak(label, run) for label, run in sides.items()}
    wins = sum(c < b for b, c in zip(times["base"], times["change"]))
    base_med = statistics.median(times["base"])
    change_med = statistics.median(times["change"])
    print(f"workload {args.workload}, {args.rounds} rounds, alternating which side runs first")
    print(f"base   {args.base}: {summary(times['base'])}")
    print(f"change {args.change}: {summary(times['change'])}")
    print(
        f"ratio change/base {change_med / base_med:.3f}; "
        f"change faster in {wins} of {args.rounds} rounds"
    )
    print(
        f"traced peak of a warm call: base {peaks['base']:,} B, "
        f"change {peaks['change']:,} B"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
