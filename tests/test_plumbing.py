import copy
import pickle
import random
import re
from fractions import Fraction

import pytest

from conftest import SIGMA_2_9_11_ROWS
from zhat.errors import FormatError, NotATree, Record
from zhat.exact import ExactMatrix
from zhat.plumbing import PlumbingGraph, format_plumb, parse_plumb

SIGMA_2_9_11_FILE = """\
# Sigma(2, 9, 11)
6
-1 -2 -5 -2 -4 -3
1 2
1 3
3 4
1 5
5 6
"""


def random_tree(rng: random.Random, n: int) -> PlumbingGraph:
    edges = tuple((rng.randrange(v), v) for v in range(1, n))
    weights = tuple(-rng.randint(1, 9) for _ in range(n))
    return PlumbingGraph(weights, edges)


class TestParse:
    def test_single_vertex(self):
        g = parse_plumb("1\n-1\n")
        assert g.weights == (-1,)
        assert g.edges == ()

    def test_sigma_2_9_11(self, g_2_9_11):
        assert parse_plumb(SIGMA_2_9_11_FILE) == g_2_9_11

    def test_two_vertices_no_edge(self):
        with pytest.raises(NotATree):
            parse_plumb("2\n-1 -2\n")

    def test_malformed(self):
        with pytest.raises(FormatError):
            parse_plumb("x\n-1\n")
        with pytest.raises(FormatError):
            parse_plumb("2\n-1\n1 2\n")  # wrong weight count
        with pytest.raises(FormatError):
            parse_plumb("2\n-1 -2\n1 5\n")  # edge out of range

    def test_cycle(self):
        with pytest.raises(NotATree):
            PlumbingGraph((-1, -1, -1), ((0, 1), (1, 2), (0, 2)))

    def test_self_loop_and_duplicate(self):
        with pytest.raises(NotATree):
            PlumbingGraph((-1, -1), ((0, 0), (0, 1)))
        with pytest.raises(NotATree):
            PlumbingGraph((-1, -1, -2), ((0, 1), (1, 0)))

    def test_round_trip(self, g_2_9_11):
        rng = random.Random(2)
        for g in [g_2_9_11] + [random_tree(rng, rng.randint(1, 10)) for _ in range(50)]:
            assert parse_plumb(format_plumb(g)) == g


    @pytest.mark.parametrize("text, edge", [("2\n-1 -2\n1 5\n", "(1, 5)"), ("2\n-1 -2\n0 2\n", "(0, 2)")])
    def test_edge_out_of_range_is_named_1_based(self, text, edge):
        with pytest.raises(FormatError, match=f"^edge {re.escape(edge)} out of range$"):
            parse_plumb(text)


class Doubled(Record):
    """A field and a private slot that ``__init__`` derives from it."""

    __slots__ = ("value", "_double")

    def __init__(self, value):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_double", 2 * value)


class TestPrivateSlots:
    def test_a_private_slot_is_not_a_field(self):
        a, b = Doubled(3), Doubled(3)
        object.__setattr__(b, "_double", -1)  # same field, other private state
        assert Doubled._fields == ("value",)
        assert a == b and hash(a) == hash(b) and repr(b) == "Doubled(value=3)"
        assert a != Doubled(4)
        for rebuilt in (copy.copy(b), copy.deepcopy(b), pickle.loads(pickle.dumps(b))):
            assert rebuilt == b and rebuilt._double == 6  # rebuilt by __init__, not copied

    def test_copied_and_pickled_graphs_keep_their_traversal(self, g_2_9_11):
        rng = random.Random(5)
        for g in [g_2_9_11] + [random_tree(rng, rng.randint(1, 12)) for _ in range(20)]:
            for other in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
                assert other == g and hash(other) == hash(g) and repr(other) == repr(g)
                assert other.elimination() == g.elimination()
                assert other.support_adjugate() == g.support_adjugate()
                assert other.degree_vector() == g.degree_vector()
                assert other.high_degree_vertices() == g.high_degree_vertices()


class TestLinkingMatrix:
    def test_sigma_2_9_11(self, g_2_9_11):
        m = g_2_9_11.linking_matrix()
        assert m == ExactMatrix(SIGMA_2_9_11_ROWS)
        assert m.trace() == -17
        assert g_2_9_11.linking_rows() == SIGMA_2_9_11_ROWS

    def test_single_vertex(self):
        assert PlumbingGraph((-7,), ()).linking_matrix() == ExactMatrix([[-7]])

    def test_two_vertices(self):
        g = PlumbingGraph((-2, -3), ((0, 1),))
        assert g.linking_matrix() == ExactMatrix([[-2, 1], [1, -3]])

    def test_symmetric_with_unit_edges(self):
        rng = random.Random(6)
        for _ in range(25):
            g = random_tree(rng, rng.randint(2, 9))
            m = g.linking_matrix()
            assert m.is_symmetric()
            for i in range(g.vertex_count):
                for j in range(i + 1, g.vertex_count):
                    expected = 1 if (i, j) in g.edges else 0
                    assert m.entry(i, j) == expected


class TestDegrees:
    def test_single_vertex(self):
        assert PlumbingGraph((-1,), ()).degree_vector() == (0,)

    def test_sigma_2_9_11(self, g_2_9_11):
        assert g_2_9_11.degree_vector() == (3, 1, 2, 1, 2, 1)

    def test_star(self):
        g = PlumbingGraph((-1, -2, -2, -2), ((0, 1), (0, 2), (0, 3)))
        assert g.degree_vector() == (3, 1, 1, 1)


class TestIntegerInput:
    @pytest.mark.parametrize(
        "weights, edges, entry",
        [
            ((-2.0, -3), ((0, 1),), "-2.0"),
            ((Fraction(-5, 2), -3), ((0, 1),), "Fraction(-5, 2)"),
            (("-2", -3), ((0, 1),), "'-2'"),
            ((-2, -3), ((0, 1.0),), "1.0"),
            ((-2, -3), ((Fraction(0), 1),), "Fraction(0, 1)"),
        ],
    )
    def test_non_integer_entry_rejected(self, weights, edges, entry):
        # no float, rational or string entry reaches the integer elimination
        with pytest.raises(TypeError, match=f"^(weight|edge) entry {re.escape(entry)} is not an integer$"):
            PlumbingGraph(weights, edges)

    def test_integers_of_any_int_type_are_stored_as_a_tuple_of_ints(self):
        # lists and iterators are stored as tuples of ints, so the record stays hashable
        g = PlumbingGraph([-2, -3], [[0, True]])
        assert g == PlumbingGraph((-2, -3), ((0, 1),)) and hash(g) == hash(PlumbingGraph((-2, -3), ((0, 1),)))
        assert g.weights == (-2, -3) and type(g.edges[0][1]) is int and g.elimination().det == 5
        assert PlumbingGraph(iter([-2, -3]), ((a, b) for a, b in [(1, 0)])) == g
