"""Integer tree elimination against the dense oracles.

The production code never builds a dense matrix for a plumbing tree; the
dense ``ExactMatrix`` routines and the cofactor expansion serve here as
independent oracles on random trees with mixed-sign weights, so
indefinite and singular linking matrices are covered too.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings

from conftest import det_cofactor, trees
from oracles import adjugate, dense_smith_normal_form
from zhat.brieskorn import brieskorn_data, build_plumbing
from zhat.cli import main
from zhat.engine import _SpinCContext
from zhat.exact import ExactMatrix, is_negative_definite, smith_normal_form
from zhat.plumbing import PlumbingGraph


def int_rows(g: PlumbingGraph) -> list[list[int]]:
    return [[int(x) for x in row] for row in g.linking_matrix().rows]


SINGULAR = PlumbingGraph((1, 1), ((0, 1),))
# singular, with the pivots before the last one negative
SEMIDEFINITE = PlumbingGraph((-1, -1), ((0, 1),))
# nonsingular, but the leaf below the root has weight 0: a zero pivot
ZERO_PIVOT = PlumbingGraph((1, 0), ((0, 1),))
# det -1 with a zero pivot at vertex 5, two levels below the root: its
# parent 3 takes -1/2 and drops out of the pivot of vertex 2
ZERO_PIVOT_INSIDE = PlumbingGraph((-2, -1, -2, 0, -3, 0), ((0, 1), (0, 2), (0, 4), (2, 3), (3, 5)))

DATA = Path(__file__).parent / "data"

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)


class TestAgainstDenseOracles:
    @PROPERTY
    @given(trees())
    @example(SINGULAR)
    @example(ZERO_PIVOT)
    def test_det_matches_cofactor(self, g):
        assert g.elimination().det == det_cofactor(int_rows(g))

    @PROPERTY
    @given(trees())
    @example(SINGULAR)
    @example(SEMIDEFINITE)
    @example(ZERO_PIVOT)
    @example(ZERO_PIVOT_INSIDE)
    def test_inertia_matches_signature(self, g):
        # zero pivots included: only a singular matrix has no inertia here
        elim = g.elimination()
        m = g.linking_matrix()
        assert elim.is_negative_definite == is_negative_definite(m)
        if elim.det == 0:
            with pytest.raises(ValueError, match="singular"):
                elim.inertia()
        else:
            assert elim.inertia() == m.signature_and_positive_count()

    @PROPERTY
    @given(trees())
    @example(SINGULAR)
    @example(ZERO_PIVOT)
    def test_adjugate_matches_inverse(self, g):
        det = g.elimination().det
        adj = ExactMatrix(adjugate(g))
        m = g.linking_matrix()
        assert m.matmul(adj) == ExactMatrix.diagonal([det] * g.vertex_count)
        if det != 0:
            assert ExactMatrix([[Fraction(x, det) for x in row] for row in adj.rows]) == m.inverse()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(trees())
    def test_adjugate_diagonal_is_the_minor(self, g):
        # adj(M)[v][v] = det(M - v); for a leaf v, the tree without v
        rows = int_rows(g)
        full = adjugate(g)
        for v in range(g.vertex_count):
            minor = [[x for j, x in enumerate(row) if j != v] for i, row in enumerate(rows) if i != v]
            assert full[v][v] == (det_cofactor(minor) if minor else 1)

    @PROPERTY
    @given(trees())
    @example(SINGULAR)
    @example(ZERO_PIVOT)
    def test_adjugate_columns_are_rows_of_the_full_adjugate(self, g):
        full = adjugate(g)
        s = g.vertex_count
        mixed = sorted(range(s), key=lambda v: (g.weights[v], -v))  # unsorted in general
        lists = [[], list(range(s)), list(range(s))[::-1], mixed, mixed[::2], [s - 1, 0, s - 1]]
        for columns in lists + [[v] for v in range(s)]:
            assert adjugate(g, columns) == tuple(full[v] for v in columns)

    @PROPERTY
    @given(trees())
    @example(ZERO_PIVOT)
    def test_integer_smith_inverse_matches_dense(self, g):
        if g.elimination().det == 0:
            return
        ctx = _SpinCContext(g.linking_rows(), g.degree_vector())
        assert_uinv_is_dense_columns(ctx, g.linking_matrix())

    @PROPERTY
    @given(trees())
    @example(SINGULAR)
    @example(SEMIDEFINITE)
    @example(ZERO_PIVOT)
    @example(ZERO_PIVOT_INSIDE)
    def test_smith_form_makes_the_dense_steps(self, g):
        # every signature, singular trees too: the same (U, D, V)
        rows = g.linking_rows()
        assert smith_normal_form(rows) == dense_smith_normal_form(rows)

    @PROPERTY
    @given(trees())
    def test_representatives_step_through_every_index(self, g):
        if g.elimination().det == 0:
            return
        check_representatives(_SpinCContext(g.linking_rows(), g.degree_vector()))


def assert_uinv_is_dense_columns(ctx: _SpinCContext, m) -> None:
    """The context keeps the factors d_j > 1 of the Smith form U m V = D,
    their rows of U and their columns of the dense U^-1."""
    u, dmat, _v = smith_normal_form(m)
    keep = [j for j, row in enumerate(dmat) if row[j] > 1]
    inverse = ExactMatrix(u).inverse()
    assert ctx.d == [dmat[j][j] for j in keep] and ctx.u_int == [u[j] for j in keep]
    assert ctx.uinv == [[inverse.entry(i, j) for j in keep] for i in range(len(u))]


def check_representatives(ctx: _SpinCContext) -> None:
    """The odometer gives vector_of_index of every index, in index order,
    and each vector's index is its own."""
    reps = ctx.representatives()
    assert [(r.class_index, r.vector) for r in reps] == [(i, ctx.vector_of_index(i)) for i in range(ctx.count)]
    assert [ctx.index_of_vector(r.vector) for r in reps] == list(range(ctx.count))


def test_integer_smith_inverse_general_matrices():
    # Spin^c classes are also offered for integer matrices that are not trees
    rng = random.Random(5)
    checked = 0
    while checked < 40:
        n = rng.randint(1, 5)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        m = ExactMatrix(rows)
        if m.determinant() == 0:
            continue
        ctx = _SpinCContext(rows, [rng.randint(-3, 3) for _ in range(n)])
        assert_uinv_is_dense_columns(ctx, m)
        check_representatives(ctx)
        checked += 1


@pytest.mark.parametrize("triple", [(2, 9, 11), (3, 7, 8), (8, 35, 93)])
def test_brieskorn_stars(triple):
    g = build_plumbing(brieskorn_data(*triple))
    elim = g.elimination()
    assert abs(elim.det) == 1  # an integral homology sphere
    assert elim.is_negative_definite and elim.inertia() == (-g.vertex_count, 0)
    assert elim.det == g.linking_matrix().determinant()


def test_wide_random_tree_inverse():
    rng = random.Random(17)
    n = 40
    edges = tuple((rng.randrange(v), v) for v in range(1, n))
    weights = [-rng.randint(1, 6) for _ in range(n)]
    for a, b in edges:
        weights[a] -= 1
        weights[b] -= 1
    g = PlumbingGraph(tuple(weights), edges)
    det = g.elimination().det
    inv = ExactMatrix([[Fraction(x, det) for x in row] for row in adjugate(g)])
    assert inv == g.linking_matrix().inverse()


def expected_entries(g: PlumbingGraph) -> dict:
    """The entries ``support_adjugate`` holds, as row -> its columns: with a
    node, every node row over the support and each leaf's diagonal; without
    one, the whole support block."""
    degrees = g.degree_vector()
    support = [v for v, d in enumerate(degrees) if d != 2]
    nodes = [v for v in support if degrees[v] >= 3]
    return {u: support if u in nodes or not nodes else [u] for u in support}


class TestSupportAdjugate:
    """adj(M) on the node rows and leaf diagonals (the whole support block
    without a node) from one rooted traversal: every entry it holds against
    the per-column rerooting oracle, and no entry besides."""

    def test_block_matches_the_oracle_on_random_trees(self):
        rng = random.Random(41)
        seen = {"single vertex": 0, "chain": 0, "zero subtree det": 0, "two or more nodes": 0}
        for _ in range(2500):
            n = rng.choice([1, 2, 3, rng.randint(4, 14)])
            label = list(range(n))
            rng.shuffle(label)
            edges = tuple((label[rng.randrange(v)], label[v]) for v in range(1, n))
            g = PlumbingGraph(tuple(rng.randint(-3, 3) for _ in range(n)), edges)
            degrees = g.degree_vector()
            full = adjugate(g)
            elim, block = g.support_adjugate()
            assert elim == g.elimination()
            assert block == {u: {v: full[u][v] for v in row} for u, row in expected_entries(g).items()}
            seen["single vertex"] += n == 1
            seen["chain"] += n > 2 and max(degrees) == 2
            seen["zero subtree det"] += 0 in elim.subtree_dets
            seen["two or more nodes"] += sum(d >= 3 for d in degrees) >= 2
        assert min(seen.values()) >= 100, seen

    def test_wide_star(self):
        # twelve legs of three vertices: one node, 13 stops, chains between
        weights, edges = [-13], []
        for leg in range(12):
            weights += [-2, -3 - leg % 3, -2]
            edges += [(0, 3 * leg + 1), (3 * leg + 1, 3 * leg + 2), (3 * leg + 2, 3 * leg + 3)]
        g = PlumbingGraph(tuple(weights), tuple(edges))
        support = [0] + [3 * leg + 3 for leg in range(12)]
        full = adjugate(g)
        block = g.support_adjugate()[1]
        # the node row and the twelve leaf diagonals: 25 entries, not 13^2
        assert block == {0: {v: full[0][v] for v in support}, **{u: {u: full[u][u]} for u in support[1:]}}
        assert sum(map(len, block.values())) == 25

    @pytest.mark.parametrize("vertex", [-1, 3, 5])
    def test_vertex_out_of_range(self, vertex):
        # a negative index does not wrap around, and a large one names the vertex
        g = PlumbingGraph((-2, -2, -2), ((0, 1), (1, 2)))
        message = f"^vertex {vertex} is out of range for a tree on 3 vertices$"
        with pytest.raises(ValueError, match=message):
            adjugate(g, [0, vertex])

    def test_each_path_roots_and_eliminates_the_tree_once(self, monkeypatch, capsys):
        # the construction of the graph is its one traversal: no reader,
        # and no support column, roots or eliminates the tree again
        calls = []
        for name in ("_rooted", "_eliminate"):

            def counted(self, *args, name=name, method=getattr(PlumbingGraph, name)):
                calls.append(name)
                return method(self, *args)

            monkeypatch.setattr(PlumbingGraph, name, counted)
        star = str(DATA / "d4_star.plumb")
        for run in (
            lambda: main(["graph", star, "--spinc", "0", "--order", "2"]),
            lambda: main(["graph", star, "--all", "--order", "2"]),
            lambda: brieskorn_data(2, 9, 11),
        ):
            calls.clear()
            run()
            assert calls == ["_rooted", "_eliminate"]
        assert "class 3" in capsys.readouterr().out
