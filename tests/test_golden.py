"""CLI outputs byte for byte against the recording in tests/data/golden,
the CLI's JSON writer against ``json.dumps(obj, indent=2, default=str)``,
and the per-class output of ``graph --all`` / ``delta --all`` against
``json.dumps`` of the classes' records.

``tests/golden.py`` holds the cases and runs the same checks without
pytest; see its docstring for re-recording.
"""

import contextlib
from collections import OrderedDict
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from zhat.cli import main


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


class TestPerClassWriter:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_json_dumps_of_the_records(self, tmp_path, seed):
        cases = golden.differential_cases(tmp_path, golden.DIFFERENTIAL_TREES, seed)
        assert [bad for case in cases for bad in [golden.streamed_mismatch(*case)] if bad] == []

    def test_one_write_per_class(self):
        writes = []
        path = str(golden.DATA / "lens_chain.plumb")
        with contextlib.redirect_stdout(SimpleNamespace(write=writes.append)):
            assert main(["graph", path, "--all", "--order", "10", "--format", "json"]) == 0
        per_write = [text.count('"classIndex"') for text in writes]
        assert per_write.count(1) == 22 and set(per_write) <= {0, 1}
        assert "".join(writes) == golden.oracle_output("graph", path, "10", weakly=False)
