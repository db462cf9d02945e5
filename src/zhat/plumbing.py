"""Weighted-tree plumbing descriptions.

A plumbing graph is a finite tree with an integer weight on every
vertex.  Vertices are indexed 0-based in the API; the PLUMB v1 text
format uses 1-based indices:

    line 1:        vertex count s
    line 2:        s space-separated integer weights
    next s-1 lines: one edge per line, two 1-based vertex indices

Lines starting with ``#`` are comments; encoding is UTF-8 with LF
newlines.

Weights and edge endpoints are integers (read through
``operator.index``).  Construction is the one traversal of a tree: rooted
at vertex 0, it eliminates the linking matrix in integers, leaf first.
:meth:`PlumbingGraph.elimination` gives det M and the inertia, and
:meth:`PlumbingGraph.support_adjugate` adds one pass up for adj(M) on
the node rows and the leaf diagonals.
:meth:`PlumbingGraph.linking_matrix` gives the dense
:class:`~zhat.exact.ExactMatrix`, which no computation here builds.
"""

from __future__ import annotations

from operator import index
from typing import Sequence

from .errors import FormatError, NotATree, Record
from .exact import ExactMatrix

_set = object.__setattr__


def _integers(values: Sequence, what: str) -> tuple[int, ...]:
    """``values`` read through ``operator.index``: a float, a Fraction or a
    string raises TypeError naming the entry, instead of being truncated."""
    try:
        return tuple(map(index, values))
    except TypeError:
        for x in values:
            if not hasattr(type(x), "__index__"):
                raise TypeError(f"{what} entry {x!r} is not an integer") from None
        raise


class TreeElimination(Record):
    """Leaf-first elimination of a tree's linking matrix, in integers.

    With the tree rooted at vertex 0 and T_v the linking matrix of the
    subtree below v, ``subtree_dets[v]`` is det T_v and
    ``stripped_dets[v]`` is det(T_v - v), the product of det T_c over the
    children c of v.  Eliminating leaf first meets the pivot
    det T_v / det(T_v - v) at v, so the pivot signs give the inertia
    (Sylvester's law).
    """

    __slots__ = ("subtree_dets", "stripped_dets")
    subtree_dets: tuple[int, ...]
    stripped_dets: tuple[int, ...]

    def __init__(self, subtree_dets, stripped_dets):
        _set(self, "subtree_dets", subtree_dets)
        _set(self, "stripped_dets", stripped_dets)

    @property
    def det(self) -> int:
        return self.subtree_dets[0]

    @property
    def is_negative_definite(self) -> bool:
        """det M != 0 and no eigenvalue is positive."""
        return self.det != 0 and self.inertia()[1] == 0

    def inertia(self) -> tuple[int, int]:
        """(sigma, pi) = (#positive - #negative eigenvalues, #positive).

        A zero pivot (det T_v = 0) is diagonalized as Jacobs and Trevisan
        (2011) do: v takes 2 and its parent p, whose det(T_p - p) is then
        0, takes -1/2 and drops out of its own parent's pivot (the
        det(T_p - p) / det T_p that pivot subtracts is 0).  Raises
        ValueError when det M = 0.
        """
        if self.det == 0:
            raise ValueError("the linking matrix is singular")
        pos = sum(d == 0 or (e != 0 and (d > 0) == (e > 0)) for d, e in zip(self.subtree_dets, self.stripped_dets))
        return 2 * pos - len(self.subtree_dets), pos


class PlumbingGraph(Record):
    """Immutable weighted tree, validated at construction, which is its one
    traversal: the readers take the neighbour lists and the leaf-first
    elimination it keeps in private slots."""

    __slots__ = ("weights", "edges", "_nbrs", "_elimination")
    weights: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def __init__(self, weights, edges):
        weights = _integers(weights, "weight")
        _set(self, "weights", weights)
        s = len(weights)
        if s == 0:
            raise NotATree("graph needs at least one vertex")
        ends = iter(_integers([x for a, b in edges for x in (a, b)], "edge"))
        norm, nbrs = [], [[] for _ in weights]
        for a, b in zip(ends, ends):  # the endpoints two by two
            if not (0 <= a < s and 0 <= b < s):
                raise FormatError(f"edge ({a + 1}, {b + 1}) out of range")
            if a == b:
                raise NotATree("self-loop")
            norm.append((min(a, b), max(a, b)))
            nbrs[a].append(b)
            nbrs[b].append(a)
        if len(set(norm)) != len(norm):
            raise NotATree("repeated edge")
        if len(norm) != s - 1:
            raise NotATree(f"a tree on {s} vertices needs {s - 1} edges, got {len(norm)}")
        _set(self, "edges", tuple(sorted(norm)))
        order, parent = self._rooted(nbrs)
        # s - 1 distinct edges leave a vertex unreached exactly when they close a cycle
        if len(order) != s:
            raise NotATree("cycle detected")
        _set(self, "_nbrs", nbrs)
        _set(self, "_elimination", self._eliminate(order, parent))

    @property
    def vertex_count(self) -> int:
        return len(self.weights)

    def degree_vector(self) -> tuple[int, ...]:
        return tuple(map(len, self._nbrs))

    def _rooted(self, nbrs) -> tuple[list[int], list[int]]:
        """Breadth-first order from vertex 0, and the parents (-1 for the root and the vertices not reached)."""
        parent = [-1] * len(nbrs)
        order = [0]
        for v in order:
            for c in nbrs[v]:
                if c and parent[c] < 0:  # not reached yet
                    parent[c] = v
                    order.append(c)
        return order, parent

    def _eliminate(self, order, parent) -> TreeElimination:
        """One post-order pass: det T_v and det(T_v - v) for every v, from
        det T_v = w_v * prod_c det T_c - sum_c det(T_c - c) * prod_{c' != c} det T_c'."""
        s = self.vertex_count
        prod = [1] * s  # det(T_v - v) over the children of v finished so far
        acc = [0] * s  # sum over those c of det(T_c - c) * prod_{c' != c} det T_c'
        sub = [0] * s
        for v in reversed(order):
            sub[v] = self.weights[v] * prod[v] - acc[v]
            p = parent[v]
            if p >= 0:
                acc[p] = acc[p] * sub[v] + prod[v] * prod[p]
                prod[p] *= sub[v]
        return TreeElimination(tuple(sub), tuple(prod))

    def elimination(self) -> TreeElimination:
        """det M and the pivots of leaf-first elimination, made at construction."""
        return self._elimination

    def support_adjugate(self) -> tuple[TreeElimination, dict]:
        """The elimination, and adj(M) = det(M) * M^-1 as ``block[u][v]`` on
        the support (every vertex of degree != 2), from the traversal of the
        tree rooted at 0 that construction made: with a node (degree >= 3),
        the node rows over the support and each leaf's diagonal alone;
        without one, the whole block of at most 2x2.

        adj(M)[u][v] is (-1)^k times the product of det C over the
        components C hanging off the path of k edges from u to v.  The pass
        down gives det T_c below each c; the pass up gives det(T - T_c)
        above it by the (product, sum) pairs of ``_eliminate``, so no
        determinant is divided and zero ones stay exact.  Nothing hangs off
        a degree-2 vertex inside the path, so an entry is a product over
        its stops alone: the support and the root.  A leaf's diagonal,
        det(M - leaf), is the det of the component through its one link.
        """
        nbrs, elim = self._nbrs, self._elimination
        sub, stripped = elim.subtree_dets, elim.stripped_dets
        support = {v for v, n in enumerate(nbrs) if len(n) != 2}
        # Down from the root, stop p carries the (product, sum) pair of the
        # tree above it.  links[x]: per neighbour n of x, (n, det of the
        # component through n, the stop y that the chain from n reaches,
        # y's neighbour on it, its edges).
        stops = support | {0}
        links = {x: [] for x in stops}
        todo = [(0, -1, 1, 0)]  # (stop, its parent, the pair)
        for p, parent, prod, acc in todo:
            kids = [c for c in nbrs[p] if c != parent]
            tails = [(1, 0)]  # tails[j]: the pair of the last j kids
            for c in reversed(kids[1:]):
                tail_prod, tail_acc = tails[-1]
                tails.append((sub[c] * tail_prod, stripped[c] * tail_prod + sub[c] * tail_acc))
            for c, (tail_prod, tail_acc) in zip(kids, reversed(tails)):
                # det(T - T_c - p) and det(T - T_c), then down the chain from c
                off = prod * tail_prod
                up = self.weights[p] * off - acc * tail_prod - prod * tail_acc
                last, y, k = p, c, 1
                while y not in stops:  # y has degree 2: on to its child
                    last, y, k = y, nbrs[y][nbrs[y][0] == last], k + 1
                    off, up = up, self.weights[last] * up - off
                links[p].append((c, sub[c], y, last, k))
                links[y].append((last, up, p, c, k))
                todo.append((y, last, up, off))
                prod, acc = prod * sub[c], acc * sub[c] + prod * stripped[c]
        block = {}
        for u in [v for v in support if len(nbrs[v]) > 2] or support:
            row = block[u] = {}
            # (stop, its neighbour towards u, (-1)^k times the components off the path so far)
            todo = [(u, -1, 1)]
            for x, entry, acc in todo:
                out = [link for link in links[x] if link[0] != entry]
                tails = [acc]  # tails[j]: acc times the components of the last j ways on
                for link in reversed(out[1:]):
                    tails.append(tails[-1] * link[1])
                head = 1  # the components of the ways on before this one
                for (_, det_c, y, last, k), tail in zip(out, reversed(tails)):
                    todo.append((y, last, -head * tail if k % 2 else head * tail))
                    head *= det_c
                if x in support:
                    row[x] = acc * head
        for x in support - block.keys():  # the leaves of a tree with a node
            block[x] = {x: links[x][0][1]}
        return elim, block

    def linking_rows(self) -> list[list[int]]:
        """The linking matrix as int rows: weights on the diagonal, 1 for every edge."""
        s = self.vertex_count
        rows = [[0] * s for _ in range(s)]
        for i, w in enumerate(self.weights):
            rows[i][i] = w
        for a, b in self.edges:
            rows[a][b] = 1
            rows[b][a] = 1
        return rows

    def linking_matrix(self) -> ExactMatrix:
        """The linking matrix as an ExactMatrix."""
        return ExactMatrix(self.linking_rows())

    def high_degree_vertices(self) -> tuple[int, ...]:
        return tuple(v for v, n in enumerate(self._nbrs) if len(n) >= 3)


def parse_plumb(text: str) -> PlumbingGraph:
    """Parse the PLUMB v1 format."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise FormatError("empty input")
    try:
        s = int(lines[0])
    except ValueError as exc:
        raise FormatError(f"bad vertex count: {lines[0]!r}") from exc
    if s < 1:
        raise FormatError("vertex count must be positive")
    if len(lines) < 2:
        raise FormatError("missing weights line")
    try:
        weights = tuple(int(tok) for tok in lines[1].split())
    except ValueError as exc:
        raise FormatError(f"bad weight in {lines[1]!r}") from exc
    if len(weights) != s:
        raise FormatError(f"expected {s} weights, got {len(weights)}")
    edges = []
    for ln in lines[2:]:
        toks = ln.split()
        if len(toks) != 2:
            raise FormatError(f"bad edge line {ln!r}")
        try:
            a, b = int(toks[0]), int(toks[1])
        except ValueError as exc:
            raise FormatError(f"bad edge line {ln!r}") from exc
        edges.append((a - 1, b - 1))
    return PlumbingGraph(weights, tuple(edges))


def format_plumb(g: PlumbingGraph) -> str:
    """Canonical PLUMB v1 text (edges sorted, 1-based, LF newlines)."""
    lines = [str(g.vertex_count), " ".join(str(w) for w in g.weights)]
    for a, b in g.edges:
        lines.append(f"{a + 1} {b + 1}")
    return "\n".join(lines) + "\n"
