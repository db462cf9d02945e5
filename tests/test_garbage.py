"""Every entry point leaves nothing for the cyclic garbage collector and no
allocator drift.

After one warm call, a call made with the collector off leaves
``gc.collect() == 0``: it made no reference cycle, such as a nested
function that refers to itself or an exception held by a local of the
frame that raised it.  And 1,000 calls with the collector off grow
``sys.getallocatedblocks()`` by fewer than 1,000 blocks.  A tuple built
from an iterator with no length (``tuple(map(...))``, ``tuple(genexpr)``)
is allocated at a guessed size and resized, and on free it goes to
CPython's free list for its final size, so each such tuple per call
shows here as one more block per call, until that free list holds 2,000.

On CPython 3.11 a tuple of exactly 20 items also goes to a free list
that allocation never takes from, one block per such tuple until it
holds 2,000, however the tuple was built.  That is the interpreter's, not
the package's, so the inputs here make no 20-item tuple: the
``hom-cob-family`` table, whose Sigma(2, 81, 83) has a leg of 20
vertices, is checked for cycles only.
"""

import contextlib
import gc
import io
import sys

import pytest

from zhat.brieskorn import brieskorn_data, build_plumbing, zhat0_brieskorn
from zhat.cli import main
from zhat.compare import generate_table
from zhat.engine import compute_zhat, compute_zhat_all, delta_a
from zhat.errors import EmptySeries
from zhat.plumbing import PlumbingGraph, format_plumb, parse_plumb

CALLS = 1000

SPHERES = [brieskorn_data(*triple) for triple in [(2, 3, 7), (2, 5, 7), (3, 4, 5)]]
# the one-node tree whose class 2 escalates to the bound B* and is zero
ONE_NODE = PlumbingGraph((-3, -2, -2, -1), ((0, 1), (0, 2), (0, 3)))
TWO_NODES = PlumbingGraph((-3, -3, -2, -2, -2, -2), ((0, 1), (0, 2), (0, 3), (1, 4), (1, 5)))
LENS = PlumbingGraph((-5,), ())
SIGMA_2_9_11 = PlumbingGraph((-1, -2, -5, -2, -4, -3), ((0, 1), (0, 2), (2, 3), (0, 4), (4, 5)))


def spheres():
    for d in SPHERES:
        compute_zhat(build_plumbing(d), 0, 20)


def zero_class():
    try:
        compute_zhat(ONE_NODE, 2, 0)
    except EmptySeries:
        return
    raise AssertionError("class 2 of the one-node tree has terms")


def cli(*argv):
    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(list(argv)) == 0

    return call


ENTRY_POINTS = {
    "compute_zhat_of_spheres": lambda files: spheres,
    "compute_zhat_of_two_nodes": lambda files: lambda: compute_zhat(TWO_NODES, 5, 0),
    "compute_zhat_of_a_zero_class": lambda files: zero_class,
    "compute_zhat_all_of_one_node": lambda files: lambda: compute_zhat_all(ONE_NODE, 2),
    "compute_zhat_all_of_a_lens_space": lambda files: lambda: compute_zhat_all(LENS, 3),
    "delta_a": lambda files: lambda: delta_a(SIGMA_2_9_11, 0),
    "graph_all_json": lambda files: cli("graph", files["one_node"], "--all", "--order", "2", "--format", "json"),
    "graph_all_text": lambda files: cli("graph", files["lens"], "--all", "--order", "3"),
    "graph_spinc": lambda files: cli("graph", files["two_nodes"], "--spinc", "5", "--order", "0"),
    "graph_spinc_of_a_zero_class": lambda files: cli("graph", files["one_node"], "--spinc", "2", "--order", "0"),
    "delta_all_json": lambda files: cli("delta", files["lens"], "--all", "--format", "json"),
    "delta_spinc": lambda files: cli("delta", files["two_nodes"], "--spinc", "3", "--format", "json"),
    "parse_plumb": lambda files: lambda: parse_plumb(format_plumb(TWO_NODES)),
    "brieskorn_data": lambda files: lambda: brieskorn_data(2, 9, 11),
    "zhat0_brieskorn": lambda files: lambda: zhat0_brieskorn(2, 9, 11, 50),
    "generate_table_d_family": lambda files: lambda: generate_table("d-family"),
}


def garbage_and_growth(call, calls: int) -> tuple[int, int]:
    """(objects ``gc.collect`` finds after one call, blocks allocated over
    ``calls`` more), all with the collector off, after one warm call."""
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        cyclic = gc.collect()
        before = sys.getallocatedblocks()
        for _ in range(calls):
            call()
        return cyclic, sys.getallocatedblocks() - before
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The PLUMB files of the CLI cases, by name."""
    root = tmp_path_factory.mktemp("plumb")
    paths = {}
    for name, g in [("one_node", ONE_NODE), ("two_nodes", TWO_NODES), ("lens", LENS)]:
        path = root / f"{name}.plumb"
        path.write_text(format_plumb(g), encoding="utf-8")
        paths[name] = str(path)
    return paths


class TestNoGarbage:
    @pytest.mark.parametrize("name", list(ENTRY_POINTS))
    def test_no_cycles_and_no_drift(self, files, name):
        cyclic, growth = garbage_and_growth(ENTRY_POINTS[name](files), CALLS)
        assert cyclic == 0
        assert growth < CALLS, f"{growth} blocks over {CALLS} calls"

    @pytest.mark.parametrize("table", ["brieskorn-batch", "hom-cob-family"])
    def test_other_tables_make_no_cycles(self, table):
        assert garbage_and_growth(lambda: generate_table(table), 0)[0] == 0
