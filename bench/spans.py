"""Layer tracing from outside the package: wrap module bindings, record spans.

TRACE_TABLE is the single map of what the traced run measures.  Each row
names a module binding (a module of ``overq``, or a class inside one), an
attribute of it, and the layer metric its calls count towards.  A function
imported into several modules is listed at every binding, because a call
goes through whichever binding the caller's module holds.  A row whose
attribute no longer exists makes ``patch`` raise, so a refactor that renames
a kernel fails the traced run instead of reporting zeros.

Spans live in memory: (metric, start_ns, end_ns, parent index).  A layer's
self time is its span durations minus the time covered by child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from typing import Any, Callable, Iterable

TRACE_TABLE: tuple[tuple[str, str, str], ...] = (
    ("series", "_mul_binomial_inplace", "series.binomial"),
    ("series", "_div_binomial_inplace", "series.binomial"),
    ("products", "_mul_binomial_inplace", "series.binomial"),
    ("products", "_div_binomial_inplace", "series.binomial"),
    ("identities", "_mul_binomial_inplace", "series.binomial"),
    ("identities", "_div_binomial_inplace", "series.binomial"),
    ("bailey", "_mul_binomial_inplace", "series.binomial"),
    ("bailey", "_div_binomial_inplace", "series.binomial"),
    ("series.QSeries", "__mul__", "series.mul"),
    ("series.QSeries", "invert", "series.invert"),
    ("series.QSeries", "__init__", "series.wrap"),
    ("products", "poch_infinite", "products.poch_infinite"),
    ("identities", "poch_infinite", "products.poch_infinite"),
    ("bailey", "poch_infinite", "products.poch_infinite"),
    ("cli", "poch_infinite", "products.poch_infinite"),
    ("products", "poch_finite", "products.poch_finite"),
    ("identities", "poch_finite", "products.poch_finite"),
    ("bailey", "poch_finite", "products.poch_finite"),
    ("cli", "poch_finite", "products.poch_finite"),
    ("products", "phi32", "products.phi32"),
    ("identities", "phi32", "products.phi32"),
    ("products", "theta1d", "products.theta"),
    ("identities", "theta1d", "products.theta"),
    ("bailey", "theta1d", "products.theta"),
    ("products", "theta2d", "products.theta"),
    ("identities", "theta2d", "products.theta"),
    ("bailey", "theta2d", "products.theta"),
    ("products", "lattice_sum", "products.theta"),
    ("bailey", "lattice_sum", "products.theta"),
    ("identities", "gen_family", "identities.gen_family"),
    ("bailey", "gen_family", "identities.gen_family"),
    ("cli", "gen_family", "identities.gen_family"),
    ("identities", "rhs_theorem", "identities.rhs_theorem"),
    ("bailey", "rhs_theorem", "identities.rhs_theorem"),
    ("cli", "rhs_theorem", "identities.rhs_theorem"),
    ("identities", "verify_theorem", "identities.verify_theorem"),
    ("cli", "verify_theorem", "identities.verify_theorem"),
    ("identities", "verify_classical", "identities.verify_classical"),
    ("cli", "verify_classical", "identities.verify_classical"),
    ("enumeration", "signed_count", "enumeration.signed_count"),
    ("cli", "signed_count", "enumeration.signed_count"),
    ("enumeration", "oracle_compare", "enumeration.oracle_compare"),
    ("cli", "oracle_compare", "enumeration.oracle_compare"),
    ("bailey", "lemma_sides", "bailey.lemma_sides"),
    ("bailey", "bailey_check", "bailey.bailey_check"),
    ("bailey", "verify_lemma", "bailey.verify_lemma"),
    ("bailey", "verify_chain", "bailey.chain"),
    ("bailey", "chain_stage_reports", "bailey.chain"),
    ("cli", "main", "cli.main"),
)

#: layers that count distinct argument sets: the reuse a cache could capture
DISTINCT = frozenset(
    {
        "products.poch_infinite",
        "products.poch_finite",
        "products.phi32",
        "products.theta",
        "identities.gen_family",
        "bailey.lemma_sides",
    }
)


#: the 34 chain stages, each reported as bailey.stage.<C|D>.<stage-name>.s
CHAIN_STAGES = (
    "C:lemma-lhs-vs-explicit-sum",
    "C:lemma-rhs-vs-explicit-lattice",
    "C:specialized-identity",
    "C:infinite-tails-absorbed",
    "C:overline-factor-pulled-out",
    "C:euler-reciprocal-swap",
    "C:odd-tail-folded",
    "C:difference-of-squares",
    "C:even-odd-tails-merged",
    "C:tail-ratio-to-finite",
    "C:reindex-to-family-series",
    "C:product-expanded-to-lattices",
    "C:first-diagonal-collapse",
    "C:eighth-square-forms",
    "C:mapped-to-8n-plus-2",
    "C:wedge-parity-merge",
    "C:diagonal-remainder",
    "C:odd-square-merge",
    "C:assembled-theorem-side",
    "D:lemma-lhs-vs-half-split",
    "D:lemma-rhs-vs-r-split",
    "D:halved-identity",
    "D:product-expanded",
    "D:extended-to-r0",
    "D:second-diagonal-collapse",
    "D:regrouped-assembly",
    "D:eighth-square-forms",
    "D:diagonals-paired-up",
    "D:jacobi-swap",
    "D:alternating-merge",
    "D:mapped-to-8n-plus-2",
    "D:ladder-binomial-split",
    "D:ladder-even-factors",
    "D:ladder-vs-family-series",
)


class TraceTableError(LookupError):
    """A TRACE_TABLE row names a binding the package no longer has."""


def resolve(binding: str) -> Any:
    """The object behind a binding such as ``series`` or ``series.QSeries``."""
    module, _, attr = binding.partition(".")
    obj = importlib.import_module(f"overq.{module}")
    return getattr(obj, attr) if attr else obj


def patch(
    rows: Iterable[tuple[str, str, str]],
    wrap: Callable[[Callable, str, str], Callable],
) -> None:
    """Replace each row's attribute with wrap(original, name, metric) for the
    rest of the process; every row is checked before anything is replaced."""
    targets = []
    for binding, name, metric in rows:
        try:
            owner = resolve(binding)
            original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        except (ImportError, AttributeError, KeyError):
            raise TraceTableError(f"overq.{binding}.{name} is gone; update TRACE_TABLE") from None
        targets.append((owner, name, original, metric))
    for owner, name, original, metric in targets:
        setattr(owner, name, wrap(original, name, metric))


# -- observers: per-call counters beyond calls and self time -----------------


def _arg_key(x: Any) -> Any:
    """A hashable stand-in for one argument, equal for equal inputs.

    Family and pair objects collapse to their names, so gen_family(spec, N)
    and gen_family("C", N) count as one argument set; a closure is its code
    plus its captured values, because the callers build fresh lambdas.
    """
    if type(x).__name__ in ("FamilySpec", "BaileyPair"):
        return x.name
    code = getattr(x, "__code__", None)
    if code is not None:
        return (code, tuple(_arg_key(c.cell_contents) for c in x.__closure__ or ()))
    if isinstance(x, (list, tuple)):
        return tuple(_arg_key(v) for v in x)
    return x


def _coeff_updates(layer: dict, name: str, args: tuple, result: Any) -> None:
    cs, _, e = args[:3]
    layer["coeff_updates"] += max(0, len(cs) - e)


def _mul_order(layer: dict, name: str, args: tuple, result: Any) -> None:
    a, b = args[:2]
    if type(b) is type(a):
        layer["max_order"] = max(layer["max_order"], min(a.order, b.order))


def _coeff_bits(layer: dict, name: str, args: tuple, result: Any) -> None:
    bits = 0
    for c in result.coeffs:
        if c:
            bits = max(bits, abs(c.numerator).bit_length(), c.denominator.bit_length())
    layer["max_coeff_bits"] = max(layer["max_coeff_bits"], bits)


def _objects(layer: dict, name: str, args: tuple, result: Any) -> None:
    layer["objects"] += result[0] + result[1]


def _stages(layer: dict, name: str, args: tuple, result: Any) -> None:
    if name == "chain_stage_reports":
        stages = layer.setdefault("stages", {})
        for report in result:
            stages[report.name] = stages.get(report.name, 0.0) + report.elapsed


OBSERVERS: dict[str, Callable[[dict, str, tuple, Any], None]] = {
    "series.binomial": _coeff_updates,
    "series.mul": _mul_order,
    "identities.gen_family": _coeff_bits,
    "enumeration.signed_count": _objects,
    "bailey.chain": _stages,
}


class Tracer:
    """Records one span per wrapped call and aggregates per-layer counters."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int]] = []
        self.layers: dict[str, dict] = {}
        self._stack: list[list[int]] = []  # [span index, child ns]

    def install(self) -> None:
        stages = resolve("bailey").CHAIN_STAGE_IDS
        if tuple(stages) != CHAIN_STAGES:
            raise TraceTableError("overq.bailey.CHAIN_STAGE_IDS changed; update CHAIN_STAGES")
        for _, _, metric in TRACE_TABLE:
            self.layers.setdefault(
                metric,
                {"calls": 0, "self_ns": 0, "keys": set(), "coeff_updates": 0,
                 "max_order": 0, "max_coeff_bits": 0, "objects": 0},
            )
        patch(TRACE_TABLE, self._wrap)

    def _wrap(self, fn: Callable, name: str, metric: str) -> Callable:
        layer = self.layers[metric]
        observe = OBSERVERS.get(metric)
        qualname = fn.__qualname__
        distinct = metric in DISTINCT
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            frame = [index, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if distinct:
                    layer["keys"].add((qualname, _arg_key(args), _arg_key(tuple(kwargs.items()))))
                if observe is not None:
                    observe(layer, name, args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                layer["calls"] += 1
                layer["self_ns"] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                spans[index] = (metric, start, end, stack[-1][0] if stack else -1)

        return traced

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far, by metric name."""
        out: dict[str, float] = {}
        for metric, layer in self.layers.items():
            out[f"{metric}.calls"] = layer["calls"]
            out[f"{metric}.self_s"] = layer["self_ns"] / 1e9
            if metric in DISTINCT:
                out[f"{metric}.distinct"] = len(layer["keys"])
        out["series.binomial.coeff_updates"] = self.layers["series.binomial"]["coeff_updates"]
        out["series.mul.max_order"] = self.layers["series.mul"]["max_order"]
        out["identities.gen_family.max_coeff_bits"] = self.layers["identities.gen_family"]["max_coeff_bits"]
        counting = self.layers["enumeration.signed_count"]
        out["enumeration.objects"] = counting["objects"]
        out["enumeration.objects_per_s"] = (
            counting["objects"] / (counting["self_ns"] / 1e9) if counting["self_ns"] else 0.0
        )
        stages = self.layers["bailey.chain"].get("stages", {})
        for stage in CHAIN_STAGES:
            out[f"bailey.stage.{stage.replace(':', '.')}.s"] = stages.get(f"chain:{stage}", 0.0)
        covered = sum(end - start for _, start, end, parent in self.spans if parent == -1)
        out["trace.span_share"] = covered / 1e9 / wall_s
        return out

    def write(self, path, workload: str, run: str) -> None:
        """Write every span as one JSON array per line, after a header line."""
        fields = ["id", "name", "start_ns", "end_ns", "parent", "workload", "run"]
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"fields": fields}) + "\n")
            for i, (metric, start, end, parent) in enumerate(self.spans):
                out.write(json.dumps([i, metric, start, end, parent, workload, run]) + "\n")
