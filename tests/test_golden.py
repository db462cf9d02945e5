"""CLI outputs byte for byte against the recording in tests/data/golden,
and the per-class output of ``graph --all`` / ``delta --all``, JSON and
text, against the classes' records from ``compute_zhat_all``, and the
one-class output of ``--spinc`` against ``compute_zhat``.

``tests/golden.py`` holds the cases and runs the same checks without
pytest; see its docstring for re-recording.
"""

import contextlib
from types import SimpleNamespace

import pytest

import golden
from zhat.cli import main


@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_golden_bytes(name):
    assert golden.mismatches(name) == []


class TestPerClassWriter:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_json_dumps_of_the_records(self, tmp_path, seed):
        cases = golden.differential_cases(tmp_path, golden.DIFFERENTIAL_TREES, seed)
        assert [bad for case in cases for bad in [golden.streamed_mismatch(*case)] if bad] == []

    def test_extra_graphs(self, tmp_path):
        # every zero rule, "raise order" included, and thousands of classes
        cases = golden.extra_cases(tmp_path)
        assert [bad for case in cases for bad in [golden.streamed_mismatch(*case)] if bad] == []

    def test_one_class_matches_compute_zhat(self):
        # graph and delta --spinc i read the one-class table compute_zhat reads
        cases = golden.spinc_cases()
        assert len(cases) == 2 * 205
        assert [bad for case in cases for bad in [golden.streamed_mismatch(*case)] if bad] == []

    def test_one_write_per_class(self):
        writes = []
        path = str(golden.DATA / "lens_chain.plumb")
        with contextlib.redirect_stdout(SimpleNamespace(write=writes.append)):
            assert main(["graph", path, "--all", "--order", "10", "--format", "json"]) == 0
        per_write = [text.count('"classIndex"') for text in writes]
        assert per_write.count(1) == 22 and set(per_write) <= {0, 1}
        assert "".join(writes) == golden.oracle_output("graph", path, "10", weakly=False)
