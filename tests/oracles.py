"""Independent coset enumeration, kept only for the tests.

The engine walks the support of a plumbing tree in integers
(``zhat.engine``).  This module answers the same question from the dense
rational matrix: every vector of one Spin^c coset under a quadratic
bound, by a rational Cholesky-type decomposition and a Fincke-Pohst
recursion.  It shares no code with the walk beyond the definiteness
test, so the two can check each other; ``brute_force_coset`` checks the
recursion in turn by scanning a box point by point.

``run_vectors`` expands the runs of the engine walk
(``_SupportForm.walk``) into its vectors one at a time, each listed
vector l followed by -l, which the walk leaves out and the engine credits
through its own conjugate map.  Every run carries its class, and here
each listed l must lie in it, and -l gets its class, both read from the
full vector by the Smith form's ``index_of_vector``.
``per_vector_terms`` sums their coefficients vector by vector, the
reference for the engine's flat loop over each run
(``_GraphSetup._walk``).

``classes_missing_support`` decides which classes the support of c_l
never meets in the group prod Z/2d_i of all Smith rows, from the full
rows of U on every listed leaf assignment; the engine lists the met
classes from one class map on its walk's class digits, coset by coset
(``_ClassMap``).

``leaf_schur_complement`` is the Schur complement of the engine's form
B = |det M| * (-M^-1) on the leaves given the nodes, from the dense
rational inverse: the engine takes it to be diagonal on every tree with
a node, and lists its trace as the one M_0 of every leaf assignment.

``zero_bound_from_definition`` is the one-node bound B* past which a
class still empty is zero, from its definition on the dense inverse and
the dense Smith form, against the engine's ``_SupportForm.zero_bound``.

``dense_smith_normal_form`` is the Smith normal form as every step of it
was once made in full: each pivot search scans the whole remaining
matrix and each row and column operation touches every row.
``zhat.exact.smith_normal_form`` makes the same steps with only the work
each one needs, and must give the identical (U, D, V).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterator, Sequence

from zhat.engine import vertex_factor_coefficient
from zhat.errors import NotNegativeDefinite
from zhat.exact import ExactMatrix, is_negative_definite


def _range_under_quadratic(d: Fraction, t: Fraction, budget: Fraction) -> tuple[int, int]:
    """Integer range [lo, hi] of y with d*(y + t)^2 <= budget (d > 0).

    Solved exactly with integer square roots; an empty range is
    returned as (1, 0).
    """
    if budget < 0:
        return 1, 0
    r = budget / d
    tn, td = t.numerator, t.denominator
    # (y + t)^2 <= r  <=>  z^2 <= r*td^2  where z = y*td + tn is an integer
    zmax = math.isqrt((r.numerator * td * td) // r.denominator)
    lo = -((zmax + tn) // td)  # ceil((-zmax - tn) / td)
    hi = (zmax - tn) // td
    return lo, hi


def _rational_ldl(g: ExactMatrix) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Decompose a positive definite form for recursive enumeration:
    Q(x) = sum_p d[p] * (x_p + sum_{q<p} u[p][q] * x_q)^2.

    The last variable is eliminated first, so the recursion that fixes
    x_0 first, then x_1, ..., sees at each level a pivot in the
    already-fixed coordinates only.

    Raises NotNegativeDefinite when a pivot fails positivity.
    """
    n = g.size
    a = [list(row) for row in g.rows]
    d: list[Fraction] = [Fraction(0)] * n
    u = [[Fraction(0)] * n for _ in range(n)]
    for p in reversed(range(n)):
        piv = a[p][p]
        if piv <= 0:
            raise NotNegativeDefinite("quadratic form is not positive definite")
        d[p] = piv
        for q in range(p):
            u[p][q] = a[q][p] / piv
        for i in range(p):
            for j in range(i + 1):
                a[i][j] -= u[p][i] * u[p][j] * piv
                a[j][i] = a[i][j]
    return d, u


def enumerate_coset_under_bound(m: ExactMatrix, rep: Sequence[int], bound) -> Iterator[tuple[int, ...]]:
    """Yield every vector l in rep + 2*m*Z^s with -l^T m^{-1} l <= bound.

    Requires m negative definite so Q(l) = -l^T m^{-1} l is positive
    definite.  Each vector is produced exactly once, in lexicographic
    order of the integer parameter n where l = rep + 2*m*n (recursive
    Fincke-Pohst style bounds from an exact rational Cholesky-type
    decomposition; no heuristic boxes).
    """
    if not m.is_symmetric():
        raise ValueError("enumeration requires a symmetric matrix")
    if not is_negative_definite(m):
        raise NotNegativeDefinite("matrix is not negative definite")
    n = m.size
    bound = Fraction(bound)
    rep = [int(x) for x in rep]
    g = ExactMatrix([[-x for x in row] for row in m.rows])  # positive definite
    # l = rep + 2*m*x  gives  Q(l) = 4*(x - c)^T g (x - c),  c = -m^{-1} rep / 2
    c = [-x / 2 for x in m.inverse().matvec(rep)]
    d, u = _rational_ldl(g)
    m_rows = [[int(x) for x in row] for row in m.rows]
    xs = [0] * n

    def rec(i: int, budget: Fraction) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(rep[r] + 2 * sum(m_rows[r][j] * xs[j] for j in range(n)) for r in range(n))
            return
        t = -c[i] + sum(u[i][j] * (xs[j] - c[j]) for j in range(i) if u[i][j])
        lo, hi = _range_under_quadratic(d[i], t, budget)
        for x in range(lo, hi + 1):
            xs[i] = x
            yield from rec(i + 1, budget - d[i] * (x + t) ** 2)
        xs[i] = 0

    yield from rec(0, bound / 4)


def brute_force_coset(m: ExactMatrix, rep, bound) -> set:
    """Box-scan oracle: solve the coset condition directly per point."""
    n = m.size
    minv = m.inverse()
    radii = [math.isqrt(int(Fraction(bound) * (-m.rows[i][i]))) + 1 for i in range(n)]
    found = set()

    def points(i, acc):
        if i == n:
            yield tuple(acc)
            return
        for x in range(-radii[i], radii[i] + 1):
            yield from points(i + 1, acc + [x])

    for l in points(0, []):
        q = -sum(minv.rows[i][j] * l[i] * l[j] for i in range(n) for j in range(n))
        if q > Fraction(bound):
            continue
        t = minv.matvec([a - b for a, b in zip(l, rep)])
        if all(x.denominator == 1 and int(x) % 2 == 0 for x in t):
            found.add(l)
    return found


_PROBE_GROUP_LIMIT = 200_000
_PROBE_ASSIGNMENT_LIMIT = 4096


def classes_missing_support(u, d, windows, high, reps) -> set[int]:
    """Exact emptiness test for the support/coset intersection, for many
    classes at once: the indices of ``reps`` whose coset the support
    provably never meets.

    Membership of l in a + 2MZ^s reduces mod the group G = prod Z/2d_i
    (Smith form U M V = D, ``u`` every row of U and ``d`` the diagonal of
    D, the factors d_i = 1 included: their rows carry the parity of the
    coordinates): it needs U a = U l in G.  Letting the degree >= 3
    coordinates range over all of Z, U l lies in U x + S for some
    finite-window assignment x of the other coordinates, S the subgroup
    of G generated by the columns of U on ``high``.  One closure of those
    U x under the generators gives that set, and a class whose U a lies
    outside it never meets the support.  Nothing is decided (empty set)
    when the group or assignment count is too large to scan.
    """
    mods = [2 * di for di in d]
    group_size = 1
    for m in mods:
        group_size *= m
    if group_size > _PROBE_GROUP_LIMIT:
        return set()
    low = [v for v in range(len(windows)) if v not in set(high)]
    n_assign = 1
    for v in low:
        n_assign *= len(windows[v])
    if n_assign > _PROBE_ASSIGNMENT_LIMIT:
        return set()

    def image(vec) -> tuple[int, ...]:
        return tuple(sum(r * x for r, x in zip(row, vec)) % m for row, m in zip(u, mods))

    cols = [tuple(u[i][h] % mods[i] for i in range(len(mods))) for h in high]
    reached = set()
    l = [0] * len(windows)
    for combo in itertools.product(*[windows[v] for v in low]):
        for v, x in zip(low, combo):
            l[v] = x
        reached.add(image(l))
    frontier = list(reached)
    while frontier:
        base = frontier.pop()
        for col in cols:
            for sgn in (1, -1):
                nxt = tuple((b + sgn * c) % m for b, c, m in zip(base, col, mods))
                if nxt not in reached:
                    reached.add(nxt)
                    frontier.append(nxt)
    return {rep.class_index for rep in reps if image(rep.vector) not in reached}


def adjugate(graph, columns: Sequence[int] | None = None) -> tuple[tuple[int, ...], ...]:
    """adj(M) = det(M) * M^-1 of a plumbing tree in integers, one O(s)
    tree solve per column, as rows in the order of ``columns`` (all of
    them by default); adj(M) is symmetric, so column v is also row v.

    For a tree with 1 on every edge, adj(M)[u][v] = (-1)^k det(M - P)
    where P is the path of k edges from v to u.  With the tree rerooted
    at v, M - P splits into the subtrees of the path's vertices that hang
    off the path, so one elimination rooted at v and one pass down from v
    give column v.  Raises ValueError for a vertex out of range.
    """
    s = graph.vertex_count
    nbrs = [[] for _ in range(s)]
    for a, b in graph.edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    rows = []
    for v in range(s) if columns is None else columns:
        if not 0 <= v < s:
            raise ValueError(f"vertex {v} is out of range for a tree on {s} vertices")
        parent, order = [-1] * s, [v]
        for x in order:
            for c in nbrs[x]:
                if c != parent[x]:
                    parent[c] = x
                    order.append(c)
        # det of the subtree below each vertex, leaf first
        sub = [0] * s
        for x in reversed(order):
            kids = [c for c in nbrs[x] if c != parent[x]]
            prod = math.prod(sub[c] for c in kids)
            # det T_x = w_x prod_c det T_c - sum_c det(T_c - c) prod_{c' != c} det T_c'
            rest = sum(
                math.prod(sub[d] for d in kids if d != c) * math.prod(sub[e] for e in nbrs[c] if e != x) for c in kids
            )
            sub[x] = graph.weights[x] * prod - rest
        col = [0] * s
        # (-1)^k times the subtrees hanging off the path from v to u, above u
        above = [0] * s
        above[v] = 1
        for u in order:
            kids = [c for c in nbrs[u] if c != parent[u]]
            col[u] = above[u] * math.prod(sub[c] for c in kids)
            for c in kids:
                above[c] = -above[u] * math.prod(sub[d] for d in kids if d != c)
        rows.append(tuple(col))
    return tuple(rows)


def run_vectors(form, ctx, runs, want=None) -> Iterator[tuple[int, tuple[int, ...], tuple[int, ...], int]]:
    """The vectors of ``runs``, the runs of the last coordinate that
    ``form.walk`` gives, one at a time as (class index, l on ``form.low``,
    l on ``form.high``, S).  Each run steps y = first, first + step, ...
    up to last, with S = (M + (D y - centre)^2) / D, which must divide
    exactly, and each l must lie in the run's class, read by
    ``ctx.index_of_vector`` from the full vector.  On a graph of more than
    one vertex the walk lists one of each pair l, -l (same S, same c_l),
    so each listed l is followed by -l, its class read from the full
    vector too and kept when in ``want`` (all classes when None); the
    run's own class of -l is not read."""
    size, support = len(ctx.delta), form.low + form.high

    def full(x, ys, sign):
        l = [0] * size
        for v, t in zip(support, x + ys):
            l[v] = sign * t
        return l

    for idx, _, a, head, first, last, step, m, det_p, center in runs:
        x = form.assignments[a][0]
        for y in range(first, last + 1, step):
            s, rest = divmod(m + (det_p * y - center) ** 2, det_p)
            assert rest == 0, (m, det_p, center, y)
            ys = head + (y,) if form.high else ()
            assert ctx.index_of_vector(full(x, ys, 1)) == idx, (idx, x, ys)
            yield idx, x, ys, s
            if size > 1:
                cls = ctx.index_of_vector(full(x, ys, -1))
                if want is None or cls in want:
                    yield cls, tuple(-t for t in x), tuple(-t for t in ys), s


def per_vector_terms(graph, form, ctx, bound: int, lower: int | None = None, want=None) -> dict[int, dict[int, int]]:
    """class -> {S: 2^#high * c_l summed over the vectors l of that class
    and S} for one walk of ``form`` (the support form of ``graph``, with
    Spin^c context ``ctx``), accumulated one expanded vector at a time,
    l and -l each, with c_l the product of the public vertex factors at
    -l_v; zero sums and classes left with none are dropped."""
    degrees = graph.degree_vector()
    scale = 2 ** len(form.high)
    terms: dict[int, dict[int, int]] = {}
    for idx, xs, ys, s in run_vectors(form, ctx, form.walk(bound, lower, want), want):
        c = Fraction(scale)
        for v, x in zip(form.low + form.high, xs + ys):
            c *= vertex_factor_coefficient(degrees[v], -x)
        assert c.denominator == 1
        acc = terms.setdefault(idx, {})
        acc[s] = acc.get(s, 0) + int(c)
    return {idx: {s: c for s, c in acc.items() if c} for idx, acc in terms.items() if any(acc.values())}


def leaf_schur_complement(graph) -> tuple[Fraction, list[list[Fraction]]]:
    """(D_0, Q) with D_0 = det B_hh and Q = D_0 (B_xx - B_xh B_hh^-1 B_hx)
    on the leaves x, for B = |det M| * (-M^-1) from the dense rational
    inverse of the linking matrix and h the vertices of degree >= 3, both
    in vertex order.  The engine's M_0 of a leaf assignment x is x^T Q x."""
    m = graph.linking_matrix()
    scale = -abs(m.determinant())
    inv = m.inverse()
    degrees = graph.degree_vector()
    leaves = [v for v, d in enumerate(degrees) if d == 1]
    nodes = [v for v, d in enumerate(degrees) if d >= 3]

    def b(u, v):
        return scale * inv.entry(u, v)

    b_hh = ExactMatrix([[b(u, v) for v in nodes] for u in nodes])
    d0, hh_inv = b_hh.determinant(), b_hh.inverse()

    def q(x, y):
        through = sum(b(x, g) * hh_inv.entry(i, j) * b(h, y) for i, g in enumerate(nodes) for j, h in enumerate(nodes))
        return d0 * (b(x, y) - through)

    return d0, [[q(x, y) for y in leaves] for x in leaves]


def zero_bound_from_definition(graph) -> int:
    """B* = ceil((N*^2 + E) / b), N* = b m + max |V_x| + 2 m b P, of a tree
    with one node h of degree m + 2, for B = |det M| * (-M^-1) from the
    dense rational inverse: b = D_0 = B_hh and E = trace Q, the one M_0 of
    every leaf assignment, from ``leaf_schur_complement``; V_x = -sum_j
    B_hj x_j over the leaves j, largest in size at x_j = sign of B_hj; and
    P the order of h's column of U modulo the invariant factors of the
    dense Smith form U M V = D, which is the period of the class along y_h."""
    m = graph.linking_matrix()
    scale = -abs(m.determinant())
    inv = m.inverse()
    degrees = graph.degree_vector()
    (node,) = [v for v, d in enumerate(degrees) if d >= 3]
    b, q = leaf_schur_complement(graph)
    v_max = sum(abs(scale * inv.entry(node, v)) for v, d in enumerate(degrees) if d == 1)
    u, d, _ = dense_smith_normal_form(graph.linking_rows())
    period = math.lcm(*(row[j] // math.gcd(row[j], u[j][node]) for j, row in enumerate(d)))
    n_star = b * (degrees[node] - 2) + v_max + 2 * (degrees[node] - 2) * b * period
    return math.ceil((n_star * n_star + sum(q[i][i] for i in range(len(q)))) / b)


def dense_smith_normal_form(rows) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """(U, D, V) with U*m*V = D for the square integer ``rows`` of m, by
    dense steps: the pivot is the first entry of least |a_ij| != 0 in
    row-major order, its column and row are reduced by row and column
    operations, and a row with an entry the pivot does not divide is
    added to the pivot row, until the pivot divides the rest."""
    a = [list(row) for row in rows]
    n = len(a)
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, f):
        a[dst] = [x + f * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + f * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, f):
        for row in a:
            row[dst] += f * row[src]
        for row in v:
            row[dst] += f * row[src]

    for t in range(n):
        while True:
            # the first entry of least |a[i][j]| != 0 in row-major order
            best = min(((abs(x), i, j) for i in range(t, n) for j, x in enumerate(a[i][t:], t) if x), default=None)
            if best is None:
                break
            swap_rows(t, best[1])
            swap_cols(t, best[2])
            dirty = False
            for i in range(t + 1, n):
                if a[i][t] != 0:
                    add_row(t, i, -(a[i][t] // a[t][t]))
                    if a[i][t] != 0:
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    add_col(t, j, -(a[t][j] // a[t][t]))
                    if a[t][j] != 0:
                        dirty = True
            if dirty:
                continue
            witness = None
            for i in range(t + 1, n):
                if any(a[i][j] % a[t][t] != 0 for j in range(t + 1, n)):
                    witness = i
                    break
            if witness is None:
                break
            add_row(witness, t, 1)  # pull a non-divisible entry into the pivot row
        if t < n and a[t][t] < 0:
            for row in a:
                row[t] = -row[t]
            for row in v:
                row[t] = -row[t]
    return u, a, v
