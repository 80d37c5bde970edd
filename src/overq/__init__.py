"""Exact q-series arithmetic and overpartition enumeration.

The package builds truncated power series over exact rationals, provides
the product/theta toolkit on top of them, enumerates seven families of
constrained overpartitions and overpartition pairs, and verifies that
each family's signed counting series equals its closed theta form.  A
Bailey-pair layer replays the underlying derivations stage by stage.

Each public name is written once, in _EXPORTS under the module that
defines it.  Nothing is imported until a name (or a module) is first read
from the package (PEP 562), so ``import overq`` loads no submodule and
``import overq.enumeration`` loads no arithmetic.
"""

__version__ = "0.1.0"

#: each public module and the public names it defines
_EXPORTS = {
    "series": (
        "Coeff", "OrderExceededError", "QSeries", "Quotient", "ZeroConstantTermError",
        "monomial", "one", "zero",
    ),
    "products": (
        "Monomial", "NegativeExponentFactor", "NonconvergentProduct", "NonintegralExponent",
        "NonterminatingSum", "Theta1D", "Theta2D", "ZeroDenominator", "lattice_sum", "phi32",
        "poch_finite", "poch_infinite", "theta1d", "theta2d",
    ),
    "report": ("VerificationReport",),
    "enumeration": (
        "FAMILIES", "FamilySpec", "Overpartition", "OverpartitionPair",
        "distinct_parts_difference", "distinct_parts_differences", "enumerate_family", "family",
        "is_sum_two_triangular", "is_triangular", "oracle_compare", "pentagonal_rule",
        "signed_count", "signed_counts",
    ),
    "identities": (
        "CLASSICAL_IDS", "MAPPED_FAMILIES", "aw_sides", "fine_sides", "gen_family",
        "mapped_inner_order", "psi_product", "psi_theta", "rhs_theorem", "verify_classical",
        "verify_theorem",
    ),
    "bailey": (
        "CHAIN_STAGE_IDS", "LEMMA_CASES", "PAIRS", "BaileyPair", "MismatchedRelativeError",
        "bailey_check", "chain_stage_reports", "chain_summary", "lemma_sides", "pair",
        "verify_chain", "verify_lemma",
    ),
}

#: public name -> the module that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    """Import a public name's module on first access and keep the name here."""
    module = name if name in _EXPORTS else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_HOME})
