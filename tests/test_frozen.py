"""The package's value classes against the frozen dataclasses they replace.

Each of the ten classes built on _frozen.Frozen gets a twin from
dataclasses.make_dataclass with the same fields and defaults (frozen, and
ordered for the two overpartition classes), carrying the class's own
__post_init__ and __repr__.  Construction, validation, equality, hashing,
repr and ordering must match the twin's.  QSeries, a slotted value that
is not a Frozen class, must copy and pickle like them; having no value
equality, it makes a Quotient equal only to one of the same two series.
The last tests check that the package imports without dataclasses or
inspect, and that _frozen imports no other module of the package.
"""

import copy
import dataclasses
import operator
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from overq import series
from overq._frozen import Frozen
from overq.bailey import PAIRS, BaileyPair, _lovejoy_alpha
from overq.enumeration import FAMILIES, FamilySpec, Overpartition, OverpartitionPair, enumerate_family
from overq.products import Monomial, Ratio, Theta1D, Theta2D
from overq.report import VerificationReport
from overq.series import QSeries, Quotient, ZeroConstantTermError

ORDERED = (Overpartition, OverpartitionPair)


def _twin(cls):
    """A frozen dataclass with cls's fields, defaults, __post_init__ and __repr__."""
    fields = [
        (f, object, dataclasses.field(default=cls._defaults[f])) if f in cls._defaults else (f, object)
        for f in cls._fields
    ]
    own = {k: v for k, v in vars(cls).items() if k in ("__post_init__", "__repr__")}
    return dataclasses.make_dataclass(cls.__name__, fields, namespace=own, frozen=True, order=cls in ORDERED)


_NUM, _DEN = QSeries([1, 2, 3]), QSeries([1, 0, 1])
_OVER = Overpartition.of((3,), (1, 1))

#: class -> (valid field tuples, two of which are equal; invalid field
#: tuples with the error their validation raises)
CASES = {
    Quotient: (
        [(_NUM, _DEN), (_NUM, _DEN), (_DEN, _NUM), (_NUM, _NUM)],
        [((_NUM, QSeries([1, 2])), ValueError), ((_NUM, QSeries([0, 1, 1])), ZeroConstantTermError)],
    ),
    Monomial: ([(1, 2), (1, 2), (-1, 2), (1, 3)], [((2, 1), ValueError), ((0, 1), ValueError)]),
    Ratio: (
        [((1, 0, 0),), ((1, 0, 0), (), ()), ((1, 0, 0), ((1, 1, 1),)), ((-1, 2, 1), (), ((1, 1, 2),))],
        [],
    ),
    Theta1D: (
        [((1, 0, 0),), ((1, 0, 0), 1, 0, "plus", (0, 1)), ((2, 1, 0), 2, 1, "alternating", (1, 0))],
        [
            (((0, 1, 0),), ValueError),
            (((1, 0, 0), 0), ValueError),
            (((1, 0, 0), 1, 0, "bogus"), ValueError),
        ],
    ),
    Theta2D: (
        [(1, 0, 1, 0), (1, 0, 1, 0, "plus", 0, 1), (2, 1, 4, 4, "plus", -2, 8), (1, 0, 1, 0, "alternating")],
        [
            ((0, 0, 1, 0), ValueError),
            ((1, -1, 1, 0), ValueError),
            ((1, 0, 1, 0, "plus", 0, 0), ValueError),
            ((1, 0, 1, 0, "plus", -1), ValueError),
            ((1, 0, 1, 0, "bogus"), ValueError),
        ],
    ),
    VerificationReport: (
        [
            ("theorem:A", 20, True),
            ("theorem:A", 20, True, None, "", 0.0, None),
            ("theorem:A", 20, False, (6, 3, 4), "", 0.5, (1, ((6, -1),))),
        ],
        [],
    ),
    Overpartition: ([(_OVER.parts,), (_OVER.parts,), (((2, False),),), ((),)], []),
    OverpartitionPair: (
        [(_OVER, Overpartition(())), (_OVER, Overpartition(())), (Overpartition(()), _OVER)],
        [],
    ),
    FamilySpec: ([FAMILIES["A"]._values, FAMILIES["A"]._values, FAMILIES["D"]._values], []),
    BaileyPair: ([PAIRS["slater-h1"]._values, PAIRS["slater-h1"]._values, PAIRS["lovejoy-q2"]._values], []),
}

CLASSES = list(CASES)


def test_every_value_class_is_covered():
    package = {c for c in Frozen.__subclasses__() if c.__module__.startswith("overq.")}
    assert package == set(CLASSES) and len(CLASSES) == 10


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_construction_matches_the_dataclass(cls):
    twin = _twin(cls)
    for args in CASES[cls][0]:
        by_keyword = dict(zip(cls._fields, args))
        made = cls(*args)
        assert made == cls(**by_keyword) == cls(*args[:1], **dict(list(by_keyword.items())[1:]))
        assert [getattr(made, f) for f in cls._fields] == [getattr(twin(*args), f) for f in cls._fields]
    required = [f for f in cls._fields if f not in cls._defaults]
    assert cls._fields[: len(required)] == tuple(required)
    full = CASES[cls][0][-1] + tuple(cls._defaults[f] for f in cls._fields[len(CASES[cls][0][-1]):])
    for make in (cls, twin):
        with pytest.raises(TypeError):
            make(*full[: len(required) - 1])  # a missing field
        with pytest.raises(TypeError):
            make(*full, bogus=1)  # an unknown field
        with pytest.raises(TypeError):
            make(*full, **{cls._fields[0]: full[0]})  # a repeated field
        with pytest.raises(TypeError):
            make(*full, 0)  # one field too many


@pytest.mark.parametrize("cls", [c for c in CLASSES if CASES[c][1]], ids=lambda c: c.__name__)
def test_validations_still_fire(cls):
    twin = _twin(cls)
    for args, error in CASES[cls][1]:
        for make in (cls, twin):
            with pytest.raises(error) as raised:
                make(*args)
            assert type(raised.value) is error


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equality_hash_and_repr_match_the_dataclass(cls):
    twin = _twin(cls)
    values = CASES[cls][0]
    for a in values:
        x, tx = cls(*a), twin(*a)
        assert hash(x) == hash(tx)
        assert repr(x) == repr(tx)
        for b in values:
            assert (x == cls(*b)) == (tx == twin(*b))
            assert (x != cls(*b)) == (tx != twin(*b))
    assert repr(Monomial(-1, 3)) == "-q^3"


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_never_equal_to_another_class_with_the_same_fields(cls):
    other = type("Other", (Frozen,), {"__annotations__": dict.fromkeys(cls._fields, "object")})
    twin = _twin(cls)
    for args in CASES[cls][0]:
        x = cls(*args)
        assert x != other(*x._values) and other(*x._values) != x
        assert x != twin(*args) and twin(*args) != x
        assert x != x._values and x._values != x


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_assignment_and_deletion_raise(cls):
    x = cls(*CASES[cls][0][0])
    for f in cls._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(x, f, None)
        with pytest.raises(AttributeError):
            delattr(x, f)
    assert x == cls(*CASES[cls][0][0])


#: a picklable instance of each class: BaileyPair's stored alpha_low is a
#: lambda, so its instance takes two module-level functions instead
PICKLABLE = {cls: cls(*CASES[cls][0][-1]) for cls in CLASSES}
PICKLABLE[BaileyPair] = BaileyPair("p", Monomial(1, 2), _lovejoy_alpha, abs, Ratio((1, 0, 0)))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_pickle_and_deepcopy_round_trip(cls):
    x = PICKLABLE[cls]
    copies = [pickle.loads(pickle.dumps(x, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for y in copies + [copy.deepcopy(x), copy.copy(x)]:
        assert type(y) is cls
        if cls is Quotient:
            # a QSeries equals only itself, so compare the series' contents
            assert [(s.order, s.coeffs) for s in y._values] == [(s.order, s.coeffs) for s in x._values]
        else:
            assert y == x and hash(y) == hash(x)
    assert copy.copy(x) == x


def test_a_quotient_equals_only_a_quotient_of_the_same_series_objects():
    x = Quotient(_NUM, _DEN)
    twin = Quotient(QSeries(_NUM.coeffs), QSeries(_DEN.coeffs))
    assert x != twin  # QSeries has no value equality
    assert x == x and x == Quotient(_NUM, _DEN)
    assert hash(x) == hash(x) == hash(Quotient(_NUM, _DEN))


@pytest.mark.parametrize("x", [QSeries([1, 2, 3]), QSeries([0, Fraction(1, 2)], 1), QSeries([7])], ids=repr)
def test_qseries_pickles_and_copies(x):
    copies = [pickle.loads(pickle.dumps(x, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(x), copy.deepcopy(x)]
    for y in copies:
        assert type(y) is QSeries and (y.order, y.coeffs) == (x.order, x.coeffs)
        with pytest.raises(AttributeError, match="immutable"):
            y.order = 0


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_only_the_overpartition_classes_order(cls):
    twin = _twin(cls)
    values = CASES[cls][0]
    for a in values:
        for b in values:
            for op in (operator.lt, operator.le, operator.gt, operator.ge):
                if cls in ORDERED:
                    assert op(cls(*a), cls(*b)) == op(twin(*a), twin(*b))
                else:
                    with pytest.raises(TypeError):
                        op(cls(*a), cls(*b))


@pytest.mark.parametrize("name", ["F", "D"])
def test_sorted_objects_match_the_dataclass_order(name):
    twins = {cls: _twin(cls) for cls in ORDERED}

    def as_twin(obj):
        if isinstance(obj, OverpartitionPair):
            return twins[OverpartitionPair](as_twin(obj.first), as_twin(obj.second))
        return twins[Overpartition](obj.parts)

    objs = enumerate_family(name, 10)
    assert len(objs) >= 20
    shuffled = random.Random(7).sample(objs, len(objs))
    assert sorted(shuffled) == objs
    assert list(map(as_twin, sorted(shuffled))) == sorted(map(as_twin, shuffled))


def test_the_package_imports_without_dataclasses_or_inspect():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import sys, overq, overq.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_frozen_lives_in_a_leaf_module():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = "import sys, overq._frozen; print(sorted(m for m in sys.modules if m.startswith('overq')))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "['overq', 'overq._frozen']"
    assert series.Frozen is Frozen
