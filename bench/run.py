"""The overq benchmark: end-to-end and per-layer numbers for one workload.

    python3 bench/run.py --workload verify-all --seed 1 --seconds 30 --trace 0

Run it from a checkout of the repository; it imports the package from src/
and needs nothing beyond the standard library.  BENCHMARK.json at the root
declares the workloads, every metric and its unit, and the regression
bounds; this script reports exactly the metrics declared there.

Workloads (each pass is one user-visible verification, in a fresh process,
one at a time, so one core does the work):

- verify-all: ``overq verify --target all --order 400 --format json`` run
  in-process through cli.main, with the JSON parsed back (26 reports).
- theorems-deep: verify_theorem for the seven families with about 1000
  generating coefficients each (orders 1000, and 8002 for C and D).
- oracle: oracle_compare for the seven families up to weight 22.

The run starts passes until the next one would end past --seconds (at
least one pass; a traced run makes at least one untraced and one traced).
With --trace 0 it reports the medians over passes of

- setup_s: from process start until overq is imported and the inputs are
  built, read as the time until the worker prints "ready";
- wall_s: one full pass over the workload's checks;
- slowest_check_s: the longest single check of a pass;
- peak_rss_mb: ru_maxrss of the process that ran the pass.

With --trace 1 the passes alternate untraced and traced, and it reports
the per-layer metrics of the traced passes (see spans.py), the source line
count of each package module, and the tracing overhead (traced minus
untraced wall_s).

Correctness: a check fails if its report is not ok, if it raises, or if a
digest of the series it checks differs from the one pinned in
digests.json (taken from the seed code).  The first pass (the first traced
pass when tracing) also rebuilds and hashes those series.  Failures count
in ``failed``; fail_ratio is failed / attempted, printed above the result,
and any failure makes the exit status 1.  The last stdout line is the
result object; a full record goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "overq"
OUT = ROOT / ".bench_out"
MODULES = ("series", "products", "identities", "enumeration", "bailey", "cli", "report")

#: every run ends well inside the 180 s a run may take
RUN_BUDGET_S = 150.0


def _child(workload: str, seed: int, index: int, traced: bool, digests: bool, fault: str, timeout: float) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"), workload, str(seed), str(index),
        "1" if traced else "0", "1" if digests else "0",
    ] + ([fault] if fault else [])
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED="0")
    )
    killer = threading.Timer(max(1.0, timeout), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        line = proc.stdout.readline()
        proc.stdout.read()
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0 or not line.strip():
        return {"pass": index, "traced": traced, "crashed": True, "exit": proc.returncode}
    result = json.loads(line)
    result["setup_s"] = setup
    result["child_s"] = time.perf_counter() - start
    return result


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _spread(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _src_lines() -> dict[str, int]:
    lines = {f"{m}.src_lines": len((PACKAGE / f"{m}.py").read_text().splitlines()) for m in MODULES}
    lines["overq.src_lines"] = sum(len(p.read_text().splitlines()) for p in PACKAGE.glob("*.py"))
    return lines


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for row in (git / "packed-refs").read_text().splitlines():
            if row.endswith(" " + ref):
                return row.split()[0]
    except OSError:
        pass
    return None


def _digest_failures(got: dict | None, pinned: dict[str, str]) -> list[str]:
    if got is None:
        return sorted(pinned)
    bad = [label for label, sha in pinned.items() if got.get(label) != sha]
    return bad + sorted(set(got) - set(pinned))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # self-test hook: corrupt series outputs in every pass (workloads.FAULTS)
    parser.add_argument("--inject-fault", choices=("flip", "fraction"), default="", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no package source at {PACKAGE.relative_to(ROOT)}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in why:
        print(f"error: unknown workload {args.workload!r}; know {sorted(why)}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    pinned = json.loads((BENCH / "digests.json").read_text())[args.workload]

    start = time.perf_counter()
    passes: list[dict] = []
    digest_pass = 1 if args.trace else 0
    while True:
        index = len(passes)
        traced = bool(args.trace) and index % 2 == 1
        remaining = RUN_BUDGET_S - (time.perf_counter() - start)
        passes.append(
            _child(args.workload, args.seed, index, traced, index == digest_pass, args.inject_fault, remaining)
        )
        if passes[-1].get("crashed"):
            break
        elapsed = time.perf_counter() - start
        longest = max(p["child_s"] for p in passes)
        if len(passes) > digest_pass and elapsed + longest > min(args.seconds, RUN_BUDGET_S):
            break

    done = [p for p in passes if not p.get("crashed")]
    attempted = sum(len(p["checks"]) for p in done) + len(passes) - len(done)
    failed = sum(1 for p in done for _, ok, _ in p["checks"] if not ok) + len(passes) - len(done)
    digests = next((p["digests"] for p in done if "digests" in p), None)
    bad_digests = _digest_failures(digests, pinned)
    attempted += len(pinned)
    failed += len(bad_digests)

    untraced = [p for p in done if not p["traced"] and p["wall_s"] is not None]
    traced = [p for p in done if p["traced"] and "layers" in p]
    walls = [p["wall_s"] for p in untraced]
    if args.trace:
        # median_low keeps each value one that was measured, and counts whole
        metrics = {name: statistics.median_low(p["layers"][name] for p in traced) for name in (traced[0]["layers"] if traced else {})}
        metrics.update(_src_lines())
        metrics["trace.overhead_s"] = _median([p["wall_s"] for p in traced]) - _median(walls)
        samples = {"traced": len(traced), "untraced": len(untraced)}
    else:
        per_pass = {
            "setup_s": [p["setup_s"] for p in done],
            "wall_s": walls,
            "slowest_check_s": [max(s for _, _, s in p["checks"]) for p in untraced],
            "peak_rss_mb": [p["peak_rss_mb"] for p in untraced],
        }
        metrics = {name: _median(values) for name, values in per_pass.items()}
        samples = {name: len(values) for name, values in per_pass.items()}
    if failed == 0 and set(metrics) != set(units):
        print(
            f"error: measured metrics differ from BENCHMARK.json: missing {sorted(set(units) - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - set(units))}",
            file=sys.stderr,
        )
        return 2

    fail_ratio = failed / attempted
    record = {
        "workload": args.workload,
        "why": why[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "git_sha": _git_sha(),
        },
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": fail_ratio,
        "bad_digests": bad_digests,
        "digests": digests,
        "metrics": metrics,
        "passes": [{k: v for k, v in p.items() if k not in ("layers", "digests")} for p in passes],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(f"# {args.workload} seed={args.seed} trace={args.trace} passes={len(passes)} samples={samples}")
    print(f"# attempted={attempted} failed={failed} fail_ratio={fail_ratio}" + (f" bad digests: {bad_digests}" if bad_digests else ""))
    if not args.trace:
        for name, values in per_pass.items():
            q1, q3 = _spread(values)
            print(f"# {name}: median {metrics[name]:.6g} {units[name]} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
