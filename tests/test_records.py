"""Value semantics of the package's immutable records and of EmptySeries,
and the import footprint of the package."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from zhat.brieskorn import brieskorn_data
from zhat.compare import ComparisonRow
from zhat.engine import SpinCRep, ZhatResult
from zhat.errors import EmptySeries
from zhat.plumbing import PlumbingGraph, TreeElimination
from zhat.qseries import QSeries

SRC = Path(__file__).resolve().parents[1] / "src"


def series(order=4):
    return QSeries(((Fraction(0), Fraction(1)), (Fraction(1, 2), Fraction(-3, 2))), Fraction(order))


SERIES_REPR = "QSeries(terms=((Fraction(0, 1), Fraction(1, 1)), (Fraction(1, 2), Fraction(-3, 2))), order=Fraction(4, 1))"

# name: (make a record, make one of the same type with other values, the
# repr of the first as the frozen dataclasses printed it)
RECORDS = {
    "TreeElimination": (
        lambda: TreeElimination((-7, 3, -2), (1, -2, 1)),
        lambda: TreeElimination((-7, 3, -2), (1, -2, 2)),
        "TreeElimination(subtree_dets=(-7, 3, -2), stripped_dets=(1, -2, 1))",
    ),
    "PlumbingGraph": (
        lambda: PlumbingGraph((-2, -2, -2), ((1, 0), (1, 2))),
        lambda: PlumbingGraph((-2, -3, -2), ((0, 1), (1, 2))),
        "PlumbingGraph(weights=(-2, -2, -2), edges=((0, 1), (1, 2)))",
    ),
    "QSeries": (series, lambda: series(5), SERIES_REPR),
    "SpinCRep": (
        lambda: SpinCRep((1, -1, 0), 2),
        lambda: SpinCRep((1, -1, 0), 3),
        "SpinCRep(vector=(1, -1, 0), class_index=2)",
    ),
    "ZhatResult": (
        lambda: ZhatResult(SpinCRep((1,), 0), Fraction(-1, 2), series(), 1, -1, Fraction(4)),
        lambda: ZhatResult(SpinCRep((1,), 0), Fraction(-1, 2), series(), 1, 1, Fraction(4)),
        "ZhatResult(spinc=SpinCRep(vector=(1,), class_index=0), delta=Fraction(-1, 2), "
        f"tail={SERIES_REPR}, eta_pow2=1, prefactor_sign=-1, truncation_order=Fraction(4, 1))",
    ),
    "BrieskornData": (
        lambda: brieskorn_data(2, 3, 7),
        lambda: brieskorn_data(2, 3, 11),
        "BrieskornData(b=(2, 3, 7), seifert_b=-1, a=(1, 1, 1), p=42, alphas=(1, 13, 29, 41), "
        "leg_fractions=((2,), (3,), (7,)), h=(11, 5, 1), xi=Fraction(83, 168), delta0=Fraction(1, 2))",
    ),
    "ComparisonRow": (
        lambda: ComparisonRow((2, 3, 7), Fraction(1, 2), None, series(), True),
        lambda: ComparisonRow((2, 3, 7), Fraction(1, 2), 0, series(), True),
        f"ComparisonRow(triple=(2, 3, 7), delta0=Fraction(1, 2), d_value=None, series_prefix={SERIES_REPR}, mod1_check=True)",
    ),
}

EMPTY_REPR = "EmptySeries('no terms')"


def empty_series():
    return EmptySeries("no terms", spinc=3)


def fields(record) -> dict:
    return {name: getattr(record, name) for name in type(record)._fields}


def state(value):
    """What a copy must keep: the record itself, or an exception's type,
    message and class."""
    if isinstance(value, EmptySeries):
        return type(value), value.args, value.spinc
    return value


records = pytest.mark.parametrize("make, make_other, expected_repr", list(RECORDS.values()), ids=list(RECORDS))
with_empty_series = pytest.mark.parametrize(
    "make, expected_repr",
    [(make, text) for make, _, text in RECORDS.values()] + [(empty_series, EMPTY_REPR)],
    ids=[*RECORDS, "EmptySeries"],
)


@records
def test_equal_values_are_equal_with_equal_hashes(make, make_other, expected_repr):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@records
def test_other_values_are_unequal(make, make_other, expected_repr):
    a, other = make(), make_other()
    assert a != other and not a == other
    assert type(a) is type(other)


@records
def test_not_equal_to_a_tuple_or_another_type(make, make_other, expected_repr):
    a = make()
    values = tuple(fields(a).values())
    assert a != values and values != a
    twin_type = type("Twin", (type(a),), {"__slots__": ()})
    twin = twin_type(*values)
    assert fields(twin) == fields(a)
    assert a != twin and twin != a


@records
def test_immutable_and_slotted(make, make_other, expected_repr):
    a = make()
    for name, value in fields(a).items():
        with pytest.raises(AttributeError):
            setattr(a, name, value)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert not hasattr(a, "__dict__")
    assert a == make()


@with_empty_series
def test_repr_as_before(make, expected_repr):
    assert repr(make()) == expected_repr


@with_empty_series
def test_copy_and_pickle_round_trip(make, expected_repr):
    a = make()
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is type(a)
        assert state(b) == state(a)


@with_empty_series
def test_keyword_construction(make, expected_repr):
    a = make()
    if isinstance(a, EmptySeries):
        b = EmptySeries(message="no terms", spinc=3)
    else:
        b = type(a)(**fields(a))
    assert state(b) == state(a)


def test_empty_series_keeps_its_class_in_a_slot():
    e = empty_series()
    assert (str(e), e.spinc) == ("no terms", 3)
    assert vars(e) == {}
    assert EmptySeries().spinc is None and str(EmptySeries()) == ""


def test_import_loads_no_code_introspection_modules():
    """A fresh interpreter: pytest itself loads these modules."""
    code = (
        "import sys, zhat, zhat.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'ast', 'dis') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
