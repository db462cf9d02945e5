"""CLI outputs byte for byte against the recording in tests/data/golden,
and the CLI's JSON writer against ``json.dumps(obj, indent=2, default=str)``.

``tests/golden.py`` holds the cases and runs the same checks without
pytest; see its docstring for re-recording.
"""

from collections import OrderedDict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden


@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_golden_bytes(name):
    assert golden.mismatches(name) == []


TEXT = st.lists(st.sampled_from(golden.TRICKY_TEXT + ["a", " "]) | st.characters(), max_size=8).map("".join)
LEAVES = (
    TEXT
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.booleans()
    | st.none()
    | st.fractions()
    # subclasses take the writer's isinstance path
    | TEXT.map(golden.Text)
    | st.sampled_from(golden.Level)
)
OBJECTS = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.lists(inner, max_size=4).map(golden.Items)
    | st.dictionaries(TEXT, inner, max_size=4)
    | st.dictionaries(TEXT | TEXT.map(golden.Text), inner, max_size=4).map(OrderedDict),
    max_leaves=25,
)


class TestJsonWriter:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(OBJECTS)
    def test_matches_json_dumps(self, obj):
        assert golden.writer_mismatch({"results": obj}) is None

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(OBJECTS)
    def test_matches_json_dumps_at_the_top(self, obj):
        assert golden.writer_mismatch(obj) is None

    def test_edge_cases(self):
        for obj in ({}, [], (), {"a": {}}, [[], {}, ()], {"x": Fraction(-7, 3)}, 2**100, -5, True, None, "é\"\\\n"):
            assert golden.writer_mismatch(obj) is None
        subclassed = (
            golden.Text("é\""),
            golden.Level.HIGH,
            [golden.Level.LOW, golden.Text("x"), True, None],
            OrderedDict([("b", golden.Items([1, golden.Items()])), ("a", OrderedDict())]),
            {golden.Text("key"): golden.Items([golden.Text("v"), golden.Level.LOW])},
            golden.Items([(), OrderedDict([("k", False)])]),
        )
        for obj in subclassed:
            assert golden.writer_mismatch(obj) is None
            assert golden.writer_mismatch({"results": obj}) is None
