"""Summarize the run records in .bench_out/ into one baseline document.

    python3 bench/summarize.py > bench/baseline.json

Only records made with BENCHMARK.json's run_seconds count, so the short
runs of the self-tests stay out.  For each workload it takes every untraced
record (one per seed) and reports, per end-to-end metric, the median over
runs, the quartiles, and the spread (q3 - q1) / median that BENCHMARK.json's
bounds are judged against.  Traced records give the per-layer medians.  It
also evaluates the predictions the benchmark was defined with, so a later
run shows whether they still hold.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


def _stats(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0, "runs": len(values)}


def _predictions(layers: dict[str, dict]) -> dict[str, bool]:
    def largest_self(workload: str) -> str:
        selfs = {k: v for k, v in layers.get(workload, {}).items() if k.endswith(".self_s")}
        return max(selfs, key=selfs.get) if selfs else ""

    va, td = layers.get("verify-all", {}), layers.get("theorems-deep", {})
    return {
        "theorems-deep: series.binomial.self_s is the largest self time": largest_self("theorems-deep") == "series.binomial.self_s",
        "oracle: enumeration.signed_count.self_s is the largest self time": largest_self("oracle") == "enumeration.signed_count.self_s",
        "verify-all: products.poch_infinite.distinct < calls": va.get("products.poch_infinite.distinct", 0) < va.get("products.poch_infinite.calls", 0),
        "theorems-deep: identities.gen_family.distinct == calls": td.get("identities.gen_family.distinct", -1) == td.get("identities.gen_family.calls"),
    }


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc: dict = {"run_seconds": spec["run_seconds"], "workloads": {}}
    layers: dict[str, dict] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        records = {
            t: [r for p in sorted(OUT.glob(f"{workload}-seed*-trace{t}.json"))
                if (r := json.loads(p.read_text()))["seconds"] == spec["run_seconds"]]
            for t in (0, 1)
        }
        if not records[0]:
            continue
        doc.setdefault("machine", records[0][0]["machine"])
        entry = {
            "why": records[0][0]["why"],
            "seeds": [r["seed"] for r in records[0]],
            "attempted": sum(r["attempted"] for r in records[0]),
            "failed": sum(r["failed"] for r in records[0]),
            "passes_per_run": _stats([r["samples"]["wall_s"] for r in records[0]]),
            "end_to_end": {m["name"]: _stats([r["metrics"][m["name"]] for r in records[0]]) for m in spec["end_to_end"]},
        }
        if records[1]:
            layers[workload] = {
                m["name"]: statistics.median_low(r["metrics"][m["name"]] for r in records[1]) for m in spec["per_layer"]
            }
            entry["trace_seeds"] = [r["seed"] for r in records[1]]
            entry["per_layer"] = layers[workload]
        doc["workloads"][workload] = entry
    doc["predictions"] = _predictions(layers)
    print(json.dumps(doc, indent=1))


if __name__ == "__main__":
    main()
