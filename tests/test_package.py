"""The package's export table: each public name written once, resolved on
first use, and importing one layer loads no other."""

import importlib
import os
import subprocess
import sys
import types

import pytest

import overq

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SPANS = os.path.join(os.path.dirname(SRC), "bench", "spans.py")

#: the 60 public names, as the package exported them from eager imports
PUBLIC = frozenset(
    """
    CHAIN_STAGE_IDS CLASSICAL_IDS Coeff FAMILIES FamilySpec LEMMA_CASES MAPPED_FAMILIES
    MismatchedRelativeError Monomial NegativeExponentFactor NonconvergentProduct
    NonintegralExponent NonterminatingSum OrderExceededError Overpartition OverpartitionPair
    BaileyPair PAIRS QSeries Quotient Theta1D Theta2D VerificationReport ZeroConstantTermError
    ZeroDenominator aw_sides bailey_check chain_stage_reports chain_summary
    distinct_parts_difference distinct_parts_differences enumerate_family family fine_sides
    gen_family is_sum_two_triangular is_triangular lattice_sum lemma_sides mapped_inner_order
    monomial one oracle_compare pair pentagonal_rule phi32 poch_finite poch_infinite psi_product
    psi_theta rhs_theorem signed_count signed_counts theta1d theta2d verify_chain
    verify_classical verify_lemma verify_theorem zero
    """.split()
)


def _fresh(code: str) -> str:
    """stdout of code run in a new interpreter on this checkout's src."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_all_is_the_pinned_surface():
    assert len(PUBLIC) == 60
    assert set(overq.__all__) == PUBLIC and len(overq.__all__) == len(PUBLIC)


@pytest.mark.parametrize("module", list(overq._EXPORTS))
def test_each_name_is_its_modules_object(module):
    mod = importlib.import_module("overq." + module)
    assert overq.__getattr__(module) is mod is getattr(overq, module)
    for name in overq._EXPORTS[module]:
        assert getattr(overq, name) is getattr(mod, name)


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from overq import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(overq.__all__)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        overq.nope
    with pytest.raises(ImportError):
        exec("from overq import nope", {})


def test_dir_lists_the_table():
    assert set(overq.__all__) | set(overq._EXPORTS) <= set(dir(overq))


def test_importing_the_package_loads_no_submodule():
    code = "import sys, overq; print(sorted(m for m in sys.modules if m.startswith('overq')))"
    assert _fresh(code) == "['overq']"


def test_enumeration_counts_without_the_arithmetic():
    code = (
        "import sys, overq.enumeration as e; print(e.signed_count('D', 12)); "
        "print(sorted(m for m in sys.modules if m.startswith('overq')))"
    )
    assert _fresh(code).splitlines() == ["(101, 100, 1)", "['overq', 'overq._frozen', 'overq.enumeration']"]


def test_the_cli_imports_neither_json_nor_csv():
    code = "import sys, overq.cli; print(sorted({'json', 'csv'} & set(sys.modules)))"
    assert _fresh(code) == "[]"


def test_every_traced_binding_resolves():
    # the traced bench run patches each TRACE_TABLE row and refuses a row
    # whose binding is gone, such as an import kept only for the tracer;
    # spans.py is compiled from its text, so no bytecode is written beside it
    spans = types.ModuleType("spans")
    with open(SPANS) as f:
        exec(compile(f.read(), SPANS, "exec"), spans.__dict__)
    assert len(spans.TRACE_TABLE) > 40
    for binding, name, _ in spans.TRACE_TABLE:
        assert hasattr(spans.resolve(binding), name), f"overq.{binding}.{name}"
