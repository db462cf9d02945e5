"""Independent coset enumeration, kept only for the tests.

The engine walks the support of a plumbing tree in integers
(``zhat.engine``).  This module answers the same question from the dense
rational matrix: every vector of one Spin^c coset under a quadratic
bound, by a rational Cholesky-type decomposition and a Fincke-Pohst
recursion.  It shares no code with the walk beyond the definiteness
test, so the two can check each other; ``brute_force_coset`` checks the
recursion in turn by scanning a box point by point.

``classes_missing_support`` decides which classes the support of c_l
never meets in the group prod Z/2d_i of all Smith rows, from the full
rows of U on every listed leaf assignment; the engine decides the same
from its walk's class digits (``_SupportForm.classes_met``).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterator, Sequence

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


def classes_missing_support(ctx, windows, high, reps) -> set[int]:
    """Exact emptiness test for the support/coset intersection, for many
    classes at once: the indices of ``reps`` whose coset the support
    provably never meets.

    Membership of l in a + 2MZ^s reduces mod the group G = prod Z/2d_i
    (Smith form of M): it needs U a = U l in G.  Letting the degree >= 3
    coordinates range over all of Z, U l lies in U x + S for some
    finite-window assignment x of the other coordinates, S the subgroup
    of G generated by the columns of U on ``high``.  One closure of those
    U x under the generators gives that set, and a class whose U a lies
    outside it never meets the support.  Nothing is decided (empty set)
    when the group or assignment count is too large to scan.
    """
    mods = [2 * di for di in ctx.d]
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
        return tuple(sum(r * x for r, x in zip(row, vec)) % m for row, m in zip(ctx.u_int, mods))

    cols = [tuple(ctx.u_int[i][h] % mods[i] for i in range(len(mods))) for h in high]
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
