"""One pass of one workload in a fresh process; run.py starts it.

    python3 bench/worker.py WORKLOAD SEED PASS TRACE DIGESTS [FAULT]

The worker imports overq from the checkout's src/, builds the workload's
inputs, and prints "ready" (run.py times set-up up to that line).  It then
runs one pass and prints the result as one JSON line: the pass wall time,
each check's name, verdict and seconds, and ru_maxrss of this process.
TRACE=1 wraps the package's layers first (see spans.py), adds per-layer
metrics and writes the spans under .bench_out/spans/.  DIGESTS=1 rebuilds
the checked series after the pass and adds their digests.  FAULT names a
corruption from workloads.FAULTS, used only by the self-tests.

A fresh process per pass means nothing the package caches in one pass can
serve the next, as for a user who runs one verification per process.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv: list[str]) -> int:
    workload, seed, index, trace, want_digests = argv[0], int(argv[1]), int(argv[2]), argv[3] == "1", argv[4] == "1"
    fault = argv[5] if len(argv) > 5 else ""

    sys.path.insert(0, str(SRC))
    import overq

    if Path(overq.__file__).resolve().parent != SRC / "overq":
        print(f"error: imported overq from {overq.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    args = workloads.inputs(workload, seed)
    if fault:
        workloads.install_fault(fault)
    tracer = None
    if trace:
        tracer = spans.Tracer()
        tracer.install()
    print("ready", flush=True)

    result: dict = {"pass": index, "traced": trace}
    try:
        wall, checks = workloads.run_pass(workload, args)
    except Exception:
        traceback.print_exc()
        wall, checks = None, [(f"{workload}:pass", False, 0.0)]
    result["wall_s"] = wall
    result["checks"] = checks
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None and wall is not None:
        result["layers"] = tracer.metrics(wall)
        out = ROOT / ".bench_out" / "spans"
        out.mkdir(parents=True, exist_ok=True)
        # one file per workload and seed: a later traced pass replaces it
        tracer.write(out / f"{workload}-seed{seed}.jsonl", workload, f"seed{seed}-pass{index}")
    if want_digests:
        # rebuilt with the tracer still installed, so a traced run's digests
        # show that tracing changes no result
        result["digests"] = workloads.digests(workload)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
