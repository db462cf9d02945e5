"""Weighted-tree plumbing descriptions.

A plumbing graph is a finite tree with an integer weight on every
vertex.  Vertices are indexed 0-based in the API; the PLUMB v1 text
format uses 1-based indices:

    line 1:        vertex count s
    line 2:        s space-separated integer weights
    next s-1 lines: one edge per line, two 1-based vertex indices

Lines starting with ``#`` are comments; encoding is UTF-8 with LF
newlines.

The linking matrix of a tree is eliminated in integers, leaf first
(:meth:`PlumbingGraph.elimination`, which gives det M and the inertia,
and :meth:`PlumbingGraph.adjugate`, which also gives selected columns
alone); :meth:`PlumbingGraph.linking_matrix` gives the dense
:class:`~zhat.exact.ExactMatrix`, which no computation here builds.
"""

from __future__ import annotations

from typing import Sequence

from .errors import FormatError, NotATree, Record
from .exact import ExactMatrix

_set = object.__setattr__


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
    """Immutable weighted tree; validated at construction."""

    __slots__ = ("weights", "edges")
    weights: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def __init__(self, weights, edges):
        _set(self, "weights", weights)
        s = len(weights)
        if s == 0:
            raise NotATree("graph needs at least one vertex")
        norm = []
        for a, b in edges:
            if not (0 <= a < s and 0 <= b < s):
                raise FormatError(f"edge ({a + 1}, {b + 1}) out of range")
            if a == b:
                raise NotATree("self-loop")
            norm.append((min(a, b), max(a, b)))
        if len(set(norm)) != len(norm):
            raise NotATree("repeated edge")
        if len(norm) != s - 1:
            raise NotATree(f"a tree on {s} vertices needs {s - 1} edges, got {len(norm)}")
        _set(self, "edges", tuple(sorted(norm)))
        # connectivity (with s-1 edges and no repeats this also rules out cycles)
        parent = list(range(s))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in self.edges:
            ra, rb = find(a), find(b)
            if ra == rb:
                raise NotATree("cycle detected")
            parent[ra] = rb
        if len({find(v) for v in range(s)}) != 1:
            raise NotATree("graph is disconnected")

    @property
    def vertex_count(self) -> int:
        return len(self.weights)

    def degree_vector(self) -> tuple[int, ...]:
        deg = [0] * self.vertex_count
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return tuple(deg)

    def _neighbours(self) -> list[list[int]]:
        nbrs: list[list[int]] = [[] for _ in self.weights]
        for a, b in self.edges:
            nbrs[a].append(b)
            nbrs[b].append(a)
        return nbrs

    def _rooted(self, nbrs, root: int) -> tuple[list[int], list[int]]:
        """Breadth-first order from ``root`` and the parent of each vertex
        (-1 for the root)."""
        parent = [-1] * len(nbrs)
        order = [root]
        for v in order:
            for c in nbrs[v]:
                if c != parent[v]:
                    parent[c] = v
                    order.append(c)
        return order, parent

    def _eliminate(self, order, parent) -> tuple[list[int], list[int]]:
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
        return sub, prod

    def elimination(self) -> TreeElimination:
        """det M and the pivots of leaf-first elimination, in O(s)."""
        sub, stripped = self._eliminate(*self._rooted(self._neighbours(), 0))
        return TreeElimination(tuple(sub), tuple(stripped))

    def adjugate(self, columns: Sequence[int] | None = None) -> tuple[tuple[int, ...], ...]:
        """adj(M) = det(M) * M^-1 in integers, one O(s) tree solve per column.

        For a tree with 1 on every edge, adj(M)[u][v] = (-1)^k det(M - P)
        where P is the path of k edges from v to u.  With the tree rooted
        at v, M - P splits into the subtrees of the path's vertices that
        hang off the path, so one elimination rooted at v and one pass
        down from v give column v.

        ``columns`` lists the columns wanted, in the order returned (all
        of them by default); k columns cost O(k * s).  adj(M) is
        symmetric, so column v is also row v.
        """
        nbrs = self._neighbours()
        s = self.vertex_count
        rows = []
        for v in range(s) if columns is None else columns:
            order, parent = self._rooted(nbrs, v)
            sub, _ = self._eliminate(order, parent)
            col = [0] * s
            # (-1)^k times the subtrees hanging off the path from v to u, above u
            above = [0] * s
            above[v] = 1
            for u in order:
                kids = [c for c in nbrs[u] if c != parent[u]]
                prefix = above[u]
                for c in kids:
                    above[c] = -prefix
                    prefix *= sub[c]
                col[u] = prefix
                suffix = 1
                for c in reversed(kids):
                    above[c] *= suffix
                    suffix *= sub[c]
            rows.append(tuple(col))
        return tuple(rows)

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
        return tuple(v for v, d in enumerate(self.degree_vector()) if d >= 3)


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
        if not (1 <= a <= s and 1 <= b <= s):
            raise FormatError(f"edge ({a}, {b}) out of range")
        edges.append((a - 1, b - 1))
    return PlumbingGraph(weights, tuple(edges))


def format_plumb(g: PlumbingGraph) -> str:
    """Canonical PLUMB v1 text (edges sorted, 1-based, LF newlines)."""
    lines = [str(g.vertex_count), " ".join(str(w) for w in g.weights)]
    for a, b in g.edges:
        lines.append(f"{a + 1} {b + 1}")
    return "\n".join(lines) + "\n"
