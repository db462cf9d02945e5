"""General computation of the Zhat q-series for plumbed manifolds.

The series attached to a plumbing tree and a Spin^c class is

    (-1)^pi * q^((3*sigma - Tr M)/4) * sum_l c_l * q^(-(l, M^-1 l)/4)

summed over the coset l in 2*M*Z^s + a, where c_l is a product over
vertices of Laurent coefficients of (z - 1/z)^(2 - deg), expanded as a
principal value (the average of the two expansions from inside and
outside the unit circle) when deg >= 3.  The leading exponent of the
aggregated series is the delta invariant.

Only vectors l whose every coordinate lies in the support of its vertex
factor can contribute: l_v = 0 on degree-2 vertices, l_v = +-1 on
leaves, and |l_v| >= deg - 2 of the right parity on degree >= 3
vertices.  One enumeration serves every tree: the finitely many
assignments of the leaves are listed outright, and for each one a
Fincke-Pohst walk over the degree >= 3 coordinates alone (the principal
block of -M^-1 there is positive definite) finds the rest under the
quadratic bound and yields each exponent with it.  Filtering by coset
membership then gives the same series as enumerating the full coset,
since everything dropped has c_l = 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Iterator, Sequence

from .errors import EmptySeries, NotNegativeDefinite, SingularMatrix
from .exact import (
    ExactMatrix,
    _ldl_ordered,
    _range_under_quadratic,
    is_negative_definite,
    smith_normal_form,
)
from .plumbing import PlumbingGraph
from .qseries import QSeries

# Empty enumeration passes double the quadratic bound up to this many
# times before concluding the series has no surviving term.  Every
# integer homology sphere finds its leading term well before the cap;
# other classes may legitimately have the zero series.
_MAX_BOUND_DOUBLINGS = 20


@dataclass(frozen=True)
class SpinCRep:
    """Representative vector of a Spin^c class, with its canonical index."""

    vector: tuple[int, ...]
    class_index: int

    def to_json_obj(self) -> dict:
        return {"classIndex": self.class_index, "vector": list(self.vector)}

    @staticmethod
    def from_json_obj(obj: dict) -> "SpinCRep":
        return SpinCRep(tuple(int(x) for x in obj["vector"]), int(obj["classIndex"]))


@dataclass(frozen=True)
class ZhatResult:
    """Normalized series q^delta * tail with bookkeeping.

    ``tail`` has nonzero constant term and exponents in Z>=0; its
    coefficients times 2^eta_pow2 are integers.  ``prefactor_sign`` is
    (-1)^pi for pi positive eigenvalues of the linking matrix (already
    multiplied into the tail).  ``truncation_order`` bounds the tail
    exponents that are fully determined.
    """

    spinc: SpinCRep | None
    delta: Fraction
    tail: QSeries
    eta_pow2: int
    prefactor_sign: int
    truncation_order: Fraction

    def to_json_obj(self) -> dict:
        return {
            "spinc": self.spinc.to_json_obj() if self.spinc is not None else None,
            "delta": str(self.delta),
            "tail": self.tail.to_json_obj(),
            "eta": self.eta_pow2,
            "prefactorSign": self.prefactor_sign,
            "truncationOrder": str(self.truncation_order),
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "ZhatResult":
        return ZhatResult(
            SpinCRep.from_json_obj(obj["spinc"]) if obj.get("spinc") is not None else None,
            Fraction(obj["delta"]),
            QSeries.from_json_obj(obj["tail"]),
            int(obj["eta"]),
            int(obj["prefactorSign"]),
            Fraction(obj["truncationOrder"]),
        )


def vertex_factor_coefficient(deg: int, k: int) -> Fraction:
    """Coefficient of z^k in the expansion of (z - 1/z)^(2 - deg).

    For deg <= 2 this is the finite binomial expansion.  For m = deg - 2
    >= 1 the factor 1/(z - 1/z)^m is singular on |z| = 1 and is taken as
    the principal value: the average of the |z| > 1 expansion (support
    k = -m - 2j, coefficient C(m-1+j, j)) and the |z| < 1 expansion
    (support k = m + 2j, coefficient (-1)^m * C(m-1+j, j)).
    """
    if deg < 0:
        raise ValueError("degree must be nonnegative")
    if deg <= 2:
        n = 2 - deg
        if (n - k) % 2 != 0:
            return Fraction(0)
        j = (n - k) // 2
        if 0 <= j <= n:
            return Fraction((-1) ** j * comb(n, j))
        return Fraction(0)
    m = deg - 2
    if (k - m) % 2 != 0:
        return Fraction(0)
    if k <= -m:
        j = (-k - m) // 2
        return Fraction(comb(m - 1 + j, j), 2)
    if k >= m:
        j = (k - m) // 2
        return Fraction((-1) ** m * comb(m - 1 + j, j), 2)
    return Fraction(0)


def _support_window(deg: int):
    """Support of l_v (note c_l evaluates the factor at -l_v; the
    supports are parity-symmetric so the window is the same)."""
    if deg == 0:
        return ("set", (-2, 0, 2))
    if deg == 1:
        return ("set", (-1, 1))
    if deg == 2:
        return ("set", (0,))
    return ("parity", deg - 2)  # |k| >= m, k = m mod 2


def _window_values(window, lo: int, hi: int) -> Iterator[int]:
    kind, data = window
    if kind == "set":
        for k in data:
            if lo <= k <= hi:
                yield k
    else:
        m = data
        k = lo if (lo - m) % 2 == 0 else lo + 1
        while k <= min(hi, -m):
            yield k
            k += 2
        k = max(m, lo)
        if (k - m) % 2 != 0:
            k += 1
        while k <= hi:
            yield k
            k += 2


def _fp_enumerate(
    d: list[Fraction],
    u: list[list[Fraction]],
    center: list[Fraction],
    windows: list,
    budget: Fraction,
) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """All integer points x (one per window slot) with
    Q(x) = sum_i d[i]*((x_i - center_i) + sum_{j<i} u[i][j]*(x_j - center_j))^2 <= budget
    and x_i in its window, each with the leftover budget - Q(x).  With no
    slot the empty point is yielded once, whatever the budget."""
    n = len(d)
    xs = [0] * n

    def rec(i: int, left: Fraction) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        if i == n:
            yield tuple(xs), left
            return
        t = -center[i] + sum(u[i][j] * (xs[j] - center[j]) for j in range(i) if u[i][j])
        lo, hi = _range_under_quadratic(d[i], t, left)
        for x in _window_values(windows[i], lo, hi):
            xs[i] = x
            yield from rec(i + 1, left - d[i] * (x + t) ** 2)

    yield from rec(0, budget)


class _SupportForm:
    """The form N = -M^{-1} of one computation on the support of c_l,
    factored once so that every enumeration pass (each bound escalation)
    reuses the factors.

    Only leaves (l_v = +-1), an isolated vertex (l_v in {-2, 0, 2}) and
    the degree >= 3 vertices ``high`` can carry l_v != 0.  The principal
    block N_hh of N on ``high`` is positive definite for negative definite
    and weakly negative definite trees alike; it is factored here.  The
    finitely many assignments x of the other coordinates are enumerated
    outright.  With y the coordinates on ``high``, completing the square
    gives

        l^T N l = q0(x) + (y - c(x))^T N_hh (y - c(x)),

    with the center c(x) = G x, G = -N_hh^{-1} N_hx, and q0(x) = x^T S x
    for the Schur complement S = N_xx + N_xh G; the block form is walked
    around c(x) for each x.  G and S are kept as integers over one common
    denominator, so each assignment costs integer sums and one Fraction
    per value.
    """

    def __init__(self, block: ExactMatrix, adj: Sequence[Sequence[int]], det: int, high: Sequence[int], windows: list):
        self.high = list(high)
        in_high = set(self.high)
        # degree-2 windows are {0}: those coordinates stay 0
        self.low = [v for v in range(len(windows)) if v not in in_high and windows[v][1] != (0,)]
        self.low_values = [windows[v][1] for v in self.low]
        self.high_windows = [windows[h] for h in self.high]
        self.size = len(windows)
        inv = block.inverse().rows
        n_hx = [[Fraction(-adj[h][v], det) for v in self.low] for h in self.high]
        g = [[-sum(r * col[j] for r, col in zip(row, n_hx)) for j in range(len(self.low))] for row in inv]
        schur = [
            [Fraction(-adj[v][w], det) + sum(nh[i] * gh[j] for nh, gh in zip(n_hx, g)) for j, w in enumerate(self.low)]
            for i, v in enumerate(self.low)
        ]
        self.den = lcm(1, *(x.denominator for row in g + schur for x in row))
        self.g_int = [[int(x * self.den) for x in row] for row in g]
        self.schur_int = [[int(x * self.den) for x in row] for row in schur]
        self.ldl = _ldl_ordered(block)

    def enumerate(self, bound: Fraction) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        """Window-feasible vectors l with l^T N l <= bound, each with l^T N l.
        Without degree >= 3 vertices every assignment is yielded, unbounded."""
        d, u = self.ldl
        den = self.den
        l = [0] * self.size
        for combo in itertools.product(*self.low_values):
            for v, x in zip(self.low, combo):
                l[v] = x
            q0 = Fraction(sum(x * sum(a * y for a, y in zip(row, combo)) for x, row in zip(combo, self.schur_int)), den)
            center = [Fraction(sum(a * x for a, x in zip(row, combo)), den) for row in self.g_int]
            for xs, left in _fp_enumerate(d, u, center, self.high_windows, bound - q0):
                for h, x in zip(self.high, xs):
                    l[h] = x
                # l^T N l = q0 + (budget - left) with budget = bound - q0
                yield tuple(l), bound - left


_PROBE_GROUP_LIMIT = 200_000
_PROBE_ASSIGNMENT_LIMIT = 4096


def _support_provably_misses_coset(ctx, windows, high, a_vec) -> bool:
    """Exact emptiness test for the support/coset intersection.

    Membership of l in a + 2MZ^s reduces mod the group G = prod Z/2d_i
    (Smith form of M).  The degree >= 3 coordinates range over all of Z,
    so for each finite-window assignment of the other coordinates the
    intersection is nonempty iff the target class lies in the subgroup
    of G generated by the corresponding columns of U.  Returns True only
    when that fails for every assignment; skipped (False) when the group
    or assignment count is too large to scan.
    """
    mods = [2 * di for di in ctx.d]
    group_size = 1
    for m in mods:
        group_size *= m
    if group_size > _PROBE_GROUP_LIMIT:
        return False
    low = [v for v in range(len(windows)) if v not in set(high)]
    n_assign = 1
    for v in low:
        n_assign *= len(windows[v][1])
    if n_assign > _PROBE_ASSIGNMENT_LIMIT:
        return False
    cols = [tuple(ctx.u_int[i][h] % mods[i] for i in range(len(mods))) for h in high]
    subgroup = {tuple(0 for _ in mods)}
    frontier = [tuple(0 for _ in mods)]
    while frontier:
        base = frontier.pop()
        for col in cols:
            for sgn in (1, -1):
                nxt = tuple((b + sgn * c) % m for b, c, m in zip(base, col, mods))
                if nxt not in subgroup:
                    subgroup.add(nxt)
                    frontier.append(nxt)
    for combo in itertools.product(*[windows[v][1] for v in low]):
        l = [0] * len(windows)
        for v, x in zip(low, combo):
            l[v] = x
        diff = [x - y for x, y in zip(l, a_vec)]
        target = tuple(
            (-sum(row[j] * diff[j] for j in range(len(diff)))) % m
            for row, m in zip(ctx.u_int, mods)
        )
        if target in subgroup:
            return False
    return True


# -- Spin^c bookkeeping ----------------------------------------------------


class _SpinCContext:
    """Smith-form data for canonicalizing Spin^c classes of one matrix."""

    def __init__(self, m: ExactMatrix, delta_vec: Sequence[int]):
        self.delta = tuple(int(x) for x in delta_vec)
        u, dmat, v = smith_normal_form(m)
        self.u_int = [[int(x) for x in row] for row in u.rows]
        self.d = [int(dmat.rows[i][i]) for i in range(m.size)]
        if any(di == 0 for di in self.d):
            raise SingularMatrix("Spin^c classes need an invertible linking matrix")
        # U m V = D gives U^-1 = m V D^-1: column j of m V divides exactly
        # by d_j.  Only the nonzero entries of m are touched (3s - 2 for a tree).
        v_int = [[int(x) for x in row] for row in v.rows]
        m_nonzero = [[(k, int(x)) for k, x in enumerate(row) if x] for row in m.rows]
        self.uinv = [
            [sum(x * v_int[k][j] for k, x in row) // dj for j, dj in enumerate(self.d)]
            for row in m_nonzero
        ]
        self.count = 1
        for di in self.d:
            self.count *= di

    def coset_member(self, l: Sequence[int], a: Sequence[int]) -> bool:
        """l = a (mod 2mZ^s), tested through the Smith form: with UmV = D
        the condition is 2*d_i | (U(l - a))_i for every i."""
        diff = [x - y for x, y in zip(l, a)]
        return all(
            sum(row[j] * diff[j] for j in range(len(diff))) % (2 * di) == 0
            for row, di in zip(self.u_int, self.d)
        )

    def index_of_vector(self, vector: Sequence[int]) -> int:
        x = []
        for lv, dv in zip(vector, self.delta):
            if (lv - dv) % 2 != 0:
                raise ValueError("vector is not in 2Z^s + delta")
            x.append((lv - dv) // 2)
        y = [sum(a * b for a, b in zip(row, x)) % d for row, d in zip(self.u_int, self.d)]
        idx = 0
        for yi, di in zip(reversed(y), reversed(self.d)):
            idx = idx * di + yi
        return idx

    def vector_of_index(self, idx: int) -> tuple[int, ...]:
        if not (0 <= idx < self.count):
            raise ValueError(f"class index {idx} out of range [0, {self.count})")
        y = []
        for di in self.d:
            y.append(idx % di)
            idx //= di
        x = [sum(a * b for a, b in zip(row, y)) for row in self.uinv]
        return tuple(dv + 2 * xi for dv, xi in zip(self.delta, x))

    def canonical(self, vector: Sequence[int]) -> SpinCRep:
        idx = self.index_of_vector(vector)
        return SpinCRep(self.vector_of_index(idx), idx)


def spin_c_representatives(m: ExactMatrix, delta_vec: Sequence[int]) -> list[SpinCRep]:
    """One canonical representative per class of (2Z^s + delta)/2mZ^s.

    There are exactly |det m| classes; the canonical choice comes from
    reducing through the Smith normal form of m.
    """
    ctx = _SpinCContext(m, delta_vec)
    return [SpinCRep(ctx.vector_of_index(i), i) for i in range(ctx.count)]


def conjugate_spin_c(rep: SpinCRep, m: ExactMatrix, delta_vec: Sequence[int]) -> SpinCRep:
    """The class of -a, canonicalized."""
    ctx = _SpinCContext(m, delta_vec)
    return ctx.canonical([-x for x in rep.vector])


def delta_orientation_reversal(delta: Fraction) -> Fraction:
    """Leading exponent of the orientation-reversed manifold."""
    return -delta


# -- the main computation --------------------------------------------------


def compute_zhat(
    graph: PlumbingGraph,
    spinc,
    order=Fraction(200),
    allow_weakly: bool = False,
) -> ZhatResult:
    """Compute the normalized series for one Spin^c class.

    ``spinc`` is a SpinCRep, a class index, or a representative vector in
    2Z^s + delta.  ``order`` is how far above the leading exponent the
    tail is computed (tail exponents <= order are exact).

    The linking matrix must be negative definite; weakly negative
    definite input is accepted only with ``allow_weakly=True``
    (experimental).  Raises EmptySeries when every coefficient cancels
    below the order, with a message saying whether raising the order can
    help.
    """
    order = Fraction(order)
    if order < 0:
        raise ValueError("order must be nonnegative")
    m = graph.linking_matrix()
    degrees = graph.degree_vector()
    high = graph.high_degree_vertices()
    # The tree's linking matrix is eliminated in integers: its pivots
    # decide negative definiteness and give the inertia, and
    # M^-1 = adj(M) / det M comes one tree walk per column.
    elim = graph.elimination()
    weakly = not elim.is_negative_definite
    if weakly and not allow_weakly:
        raise NotNegativeDefinite(
            "linking matrix is not negative definite (pass allow_weakly=True for weakly negative definite input)"
        )
    if elim.det == 0:
        raise SingularMatrix("matrix is singular")
    adj = graph.adjugate()
    # -M^-1 on the degree >= 3 vertices: positive definite in both cases
    block = ExactMatrix([[Fraction(-adj[i][j], elim.det) for j in high] for i in high])
    if not weakly:
        sigma, pi_count = elim.inertia()
    else:
        if not is_negative_definite(block.neg()):
            raise NotNegativeDefinite("linking matrix is not weakly negative definite")
        # pivots may be zero off the negative definite path: dense signature
        sigma, pi_count = m.signature_and_positive_count()

    ctx = _SpinCContext(m, degrees)
    if isinstance(spinc, SpinCRep):
        rep = ctx.canonical(spinc.vector)
    elif isinstance(spinc, int):
        rep = SpinCRep(ctx.vector_of_index(spinc), spinc)
    else:
        rep = ctx.canonical(list(spinc))
    a_vec = rep.vector

    e0 = Fraction(3 * sigma - sum(graph.weights), 4)
    sign = -1 if pi_count % 2 else 1
    windows = [_support_window(d) for d in degrees]
    form = _SupportForm(block, adj, elim.det, high, windows)
    factor_tables = [
        {k: vertex_factor_coefficient(deg, -k) for k in w[1]} if w[0] == "set" else None
        for deg, w in zip(degrees, windows)
    ]

    def aggregate(bound: Fraction) -> dict[Fraction, Fraction]:
        acc: dict[Fraction, Fraction] = {}
        for l, q in form.enumerate(bound):
            if not ctx.coset_member(l, a_vec):
                continue
            c = Fraction(1)
            for v, lv in enumerate(l):
                c *= factor_tables[v][lv] if factor_tables[v] is not None else vertex_factor_coefficient(degrees[v], -lv)
            e = e0 + q / 4
            acc[e] = acc.get(e, Fraction(0)) + c
        return {e: c for e, c in acc.items() if c != 0}

    finite_support = not high
    bound = 4 * (order + 1)
    surviving = aggregate(bound)
    if finite_support:
        if not surviving:
            raise EmptySeries("series is identically zero (finite support exhausted)")
    else:
        if not surviving:
            # before escalating, settle emptiness exactly where feasible
            if _support_provably_misses_coset(ctx, windows, high, a_vec):
                raise EmptySeries("series is identically zero (support never meets the coset)")
            for _ in range(_MAX_BOUND_DOUBLINGS):
                bound = 2 * bound + 4
                surviving = aggregate(bound)
                if surviving:
                    break
        if not surviving:
            raise EmptySeries(
                "every coefficient cancels below the escalated bound; raise order"
            )
        delta_min = min(surviving)
        needed = 4 * (delta_min - e0) + 4 * order
        if needed > bound:
            surviving = aggregate(needed)

    delta_min = min(surviving)
    window_top = delta_min + order
    series = QSeries.from_terms(
        [(e, sign * c) for e, c in surviving.items() if e <= window_top],
        window_top,
    )
    delta, tail, eta = series.leading_exponent_and_normalize()
    return ZhatResult(rep, delta, tail, eta, sign, order)


def delta_a(graph: PlumbingGraph, spinc, allow_weakly: bool = False) -> Fraction:
    """Leading exponent only (order-0 computation)."""
    return compute_zhat(graph, spinc, order=Fraction(0), allow_weakly=allow_weakly).delta
