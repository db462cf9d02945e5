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
quadratic bound and yields each exponent with it.  Every support vector
lies in 2Z^s + delta, so sorting the walk by Spin^c class gives the
same series as enumerating each full coset, since everything dropped
has c_l = 0.

All classes of a graph share one walk.  The class-independent set-up
(elimination, adjugate, Smith form, factored form, vertex-factor
tables) is built once, and each walked vector goes to its class by
residues of the Smith form's U on the leaves and nodes, O(k) per
vector.  The quadratic bound starts at 4(order + 1) for every class;
classes still empty are settled exactly where the probe can, the rest
escalate together, and every later pass (each doubling and the last
top-up to order above the leading term) walks only the new shell
floor < q <= bound.  A result depends only on its class's series, so
computing one class or all of them gives the same answer.
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
    gap: Fraction | None = None,
) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """All integer points x (one per window slot) with
    Q(x) = sum_i d[i]*((x_i - center_i) + sum_{j<i} u[i][j]*(x_j - center_j))^2 <= budget
    and x_i in its window, each with the leftover budget - Q(x).  With no
    slot the empty point is yielded once, whatever the budget.

    With ``gap`` only the points whose leftover is below it are yielded
    (the shell Q(x) > budget - gap): the last level skips the inner
    interval of values that would leave at least ``gap``."""
    n = len(d)
    xs = [0] * n

    def rec(i: int, left: Fraction) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        if i == n:
            yield tuple(xs), left
            return
        t = -center[i] + sum(u[i][j] * (xs[j] - center[j]) for j in range(i) if u[i][j])
        lo, hi = _range_under_quadratic(d[i], t, left)
        spans = [(lo, hi)]
        if gap is not None and i == n - 1:
            inner_lo, inner_hi = _range_under_quadratic(d[i], t, left - gap)
            if inner_lo <= inner_hi:
                spans = [(lo, inner_lo - 1), (inner_hi + 1, hi)]
        for a, b in spans:
            for x in _window_values(windows[i], a, b):
                xs[i] = x
                yield from rec(i + 1, left - d[i] * (x + t) ** 2)

    if n or gap is None or budget < gap:
        yield from rec(0, budget)


class _SupportForm:
    """The form N = -M^{-1} of one graph on the support of c_l, factored
    once so that every enumeration pass (each bound escalation) reuses
    the factors.

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

    def enumerate(self, bound: Fraction, floor: Fraction | None = None) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        """Window-feasible vectors l with l^T N l <= bound, each with l^T N l;
        with ``floor``, only those with l^T N l > floor (one shell).
        Without degree >= 3 vertices every assignment is yielded (above
        the floor, if one is given), whatever the bound."""
        d, u = self.ldl
        den = self.den
        gap = None if floor is None else bound - floor
        l = [0] * self.size
        for combo in itertools.product(*self.low_values):
            for v, x in zip(self.low, combo):
                l[v] = x
            q0 = Fraction(sum(x * sum(a * y for a, y in zip(row, combo)) for x, row in zip(combo, self.schur_int)), den)
            center = [Fraction(sum(a * x for a, x in zip(row, combo)), den) for row in self.g_int]
            for xs, left in _fp_enumerate(d, u, center, self.high_windows, bound - q0, gap):
                for h, x in zip(self.high, xs):
                    l[h] = x
                # l^T N l = q0 + (budget - left) with budget = bound - q0
                yield tuple(l), bound - left


_PROBE_GROUP_LIMIT = 200_000
_PROBE_ASSIGNMENT_LIMIT = 4096


def _classes_missing_support(ctx, windows, high, reps) -> set[int]:
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
        n_assign *= len(windows[v][1])
    if n_assign > _PROBE_ASSIGNMENT_LIMIT:
        return set()

    def image(vec) -> tuple[int, ...]:
        return tuple(sum(r * x for r, x in zip(row, vec)) % m for row, m in zip(ctx.u_int, mods))

    cols = [tuple(ctx.u_int[i][h] % mods[i] for i in range(len(mods))) for h in high]
    reached = set()
    l = [0] * len(windows)
    for combo in itertools.product(*[windows[v][1] for v in low]):
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


class _FactorTable(dict):
    """k -> 2 * (coefficient of z^-k in the factor of a degree >= 3
    vertex), an integer; filled on first use."""

    def __init__(self, deg: int):
        super().__init__()
        self.deg = deg

    def __missing__(self, k: int) -> int:
        value = self[k] = int(2 * vertex_factor_coefficient(self.deg, -k))
        return value


class _GraphSetup:
    """Everything one graph's series share across Spin^c classes: the
    tree elimination and inertia, the adjugate, one Smith form, one
    factored support form, e0, the sign and the vertex-factor tables.

    ``series`` computes any set of classes from shared walks of the
    support.  Each walked vector l goes to its class by the residues of U
    (Smith form U M V = D) mod 2d_i on the support coordinates, for the
    rows with d_i > 1: the class index has digits (U(l - delta))_i / 2
    mod d_i, O(k) per vector for k leaves and nodes.
    """

    def __init__(self, graph: PlumbingGraph, allow_weakly: bool):
        m = graph.linking_matrix()
        degrees = graph.degree_vector()
        high = graph.high_degree_vertices()
        # The tree's linking matrix is eliminated in integers: its pivots
        # decide negative definiteness and give the inertia, and
        # M^-1 = adj(M) / det M comes one tree walk per column.
        elim = graph.elimination()
        if elim.det == 0:
            raise SingularMatrix("Spin^c classes need an invertible linking matrix")
        weakly = not elim.is_negative_definite
        if weakly and not allow_weakly:
            raise NotNegativeDefinite(
                "linking matrix is not negative definite (pass allow_weakly=True for weakly negative definite input)"
            )
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

        self.ctx = _SpinCContext(m, degrees)
        self.e0 = Fraction(3 * sigma - sum(graph.weights), 4)
        self.sign = -1 if pi_count % 2 else 1
        self.high = high
        self.windows = [_support_window(d) for d in degrees]
        self.form = _SupportForm(block, adj, elim.det, high, self.windows)
        # c_l = prod over the support of the tables below, / 2^#high
        self.support = self.form.low + list(high)
        self.tables = [
            _FactorTable(degrees[v]) if degrees[v] >= 3
            else {k: int(vertex_factor_coefficient(degrees[v], -k)) for k in self.windows[v][1]}
            for v in self.support
        ]
        self.scale = 2 ** len(high)
        self.residues = []
        stride = 1
        for row, di in zip(self.ctx.u_int, self.ctx.d):
            if di > 1:
                mod = 2 * di
                offset = sum(r * x for r, x in zip(row, degrees)) % mod
                self.residues.append(([row[v] % mod for v in self.support], offset, mod, stride))
            stride *= di

    def _walk(self, terms: dict[int, dict], bound: Fraction, floor: Fraction | None = None) -> None:
        """Add every support vector l with floor < q = l^T N l <= bound
        (no floor: q <= bound) to ``terms[class of l][q]`` as 2^#high * c_l,
        for the classes that are keys of ``terms``; then drop the zeros."""
        support, tables, residues = self.support, self.tables, self.residues
        for l, q in self.form.enumerate(bound, floor):
            idx = 0
            for cols, offset, mod, stride in residues:
                idx += (sum(a * l[v] for a, v in zip(cols, support)) - offset) % mod // 2 * stride
            acc = terms.get(idx)
            if acc is None:
                continue
            c = 1
            for v, table in zip(support, tables):
                c *= table[l[v]]
            acc[q] = acc.get(q, 0) + c
        for acc in terms.values():
            for q in [q for q, c in acc.items() if not c]:
                del acc[q]

    def series(self, reps: Sequence[SpinCRep], order: Fraction) -> list[ZhatResult | EmptySeries]:
        """ZhatResult, or the EmptySeries to raise, for each of ``reps``
        (distinct classes).

        One walk to 4(order + 1) serves every class.  Classes still empty
        are settled exactly where the probe can; the rest escalate
        together, each pass walking only the new shell, and a last shell
        tops every class up to 4 * order above its leading term.  Every
        q below a walked bound is complete, so each result depends only
        on its class's series, not on which other classes share the walk.
        """
        terms: dict[int, dict] = {rep.class_index: {} for rep in reps}
        notes: dict[int, str] = {}
        bound = 4 * (order + 1)
        self._walk(terms, bound)
        if not self.high:
            # the walk listed the whole (finite) support
            for idx, acc in terms.items():
                if not acc:
                    notes[idx] = "series is identically zero (finite support exhausted)"
        else:
            empty = [rep for rep in reps if not terms[rep.class_index]]
            # before escalating, settle emptiness exactly where feasible
            missed = _classes_missing_support(self.ctx, self.windows, self.high, empty) if empty else set()
            for idx in missed:
                notes[idx] = "series is identically zero (support never meets the coset)"
            pending = [rep.class_index for rep in empty if rep.class_index not in missed]
            # the bound each class's terms must be complete to
            needed = {idx: min(acc) + 4 * order for idx, acc in terms.items() if acc}
            for _ in range(_MAX_BOUND_DOUBLINGS):
                if not pending:
                    break
                floor, bound = bound, 2 * bound + 4
                walked = pending + [idx for idx, need in needed.items() if need > floor]
                self._walk({idx: terms[idx] for idx in walked}, bound, floor)
                for idx in pending:
                    if terms[idx]:
                        needed[idx] = min(terms[idx]) + 4 * order
                pending = [idx for idx in pending if not terms[idx]]
            for idx in pending:
                notes[idx] = "every coefficient cancels below the escalated bound; raise order"
            top = max(needed.values(), default=bound)
            if top > bound:
                self._walk({idx: terms[idx] for idx, need in needed.items() if need > bound}, top, bound)
        return [
            EmptySeries(notes[rep.class_index]) if rep.class_index in notes
            else self._result(rep, terms[rep.class_index], order)
            for rep in reps
        ]

    def _result(self, rep: SpinCRep, acc: dict, order: Fraction) -> ZhatResult:
        top = min(acc) + 4 * order
        series = QSeries.from_terms(
            [(self.e0 + q / 4, Fraction(self.sign * c, self.scale)) for q, c in acc.items() if q <= top],
            self.e0 + top / 4,
        )
        delta, tail, eta = series.leading_exponent_and_normalize()
        return ZhatResult(rep, delta, tail, eta, self.sign, order)


def _checked_order(order) -> Fraction:
    order = Fraction(order)
    if order < 0:
        raise ValueError("order must be nonnegative")
    return order


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
    help.  This is the one-class case of :func:`compute_zhat_all`.
    """
    order = _checked_order(order)
    setup = _GraphSetup(graph, allow_weakly)
    ctx = setup.ctx
    if isinstance(spinc, SpinCRep):
        rep = ctx.canonical(spinc.vector)
    elif isinstance(spinc, int):
        rep = SpinCRep(ctx.vector_of_index(spinc), spinc)
    else:
        rep = ctx.canonical(list(spinc))
    (result,) = setup.series([rep], order)
    if isinstance(result, EmptySeries):
        raise result
    return result


def compute_zhat_all(
    graph: PlumbingGraph,
    order=Fraction(200),
    allow_weakly: bool = False,
) -> list[tuple[SpinCRep, ZhatResult | EmptySeries]]:
    """Every Spin^c class with its series, in class order, from one
    shared enumeration.

    Each entry is what :func:`compute_zhat` gives for that class: its
    result, or the EmptySeries it would raise.
    """
    order = _checked_order(order)
    setup = _GraphSetup(graph, allow_weakly)
    reps = [SpinCRep(setup.ctx.vector_of_index(i), i) for i in range(setup.ctx.count)]
    return list(zip(reps, setup.series(reps, order)))


def delta_a(graph: PlumbingGraph, spinc, allow_weakly: bool = False) -> Fraction:
    """Leading exponent only (order-0 computation)."""
    return compute_zhat(graph, spinc, order=Fraction(0), allow_weakly=allow_weakly).delta
