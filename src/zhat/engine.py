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
assignments of the leaves are listed once per graph, and for each one a
Fincke-Pohst walk over the degree >= 3 coordinates alone (the principal
block of -M^-1 there is positive definite) finds the rest under the
quadratic bound.  With a node the leaves decouple (deleting the nodes
leaves paths, no two leaves on one), so every assignment starts the walk
at one minimum M_0; only its centres and class residues differ.  The
vector -l has the S and the c_l of l (each vertex factor has
f(-k) = (-1)^deg f(k), and the degrees of a tree sum to an even number)
and lies in the conjugate class -a, so only the half of the
assignments whose first leaf is +1 is listed, and each walked vector is
credited to its class and to that of -l (Zhat_{-a} = Zhat_a).  The walk
is integer throughout: it runs on the form
B = |det M| * (-M^-1) = -sign(det M) * adj(M), factored fraction-free
(trailing minors and their adjugates), so each level's range is one
integer square root.  The walk hands out runs of its last coordinate,
not vectors: each run carries its class, that of -l, and the integers
that give every vector's exponent S = l^T B l by one square and one
exact division, and the series steps each run in one flat loop.  The
series keeps bounds, exponents and coefficients in integers and gives
each class as an integer record; Fractions (delta, c_l / 2^#high) are
made only at the API edge, and the CLI quotes the record's integers
straight.  Every support vector lies in 2Z^s + delta, so sorting
the walk by Spin^c class gives the same series as enumerating each full
coset, since everything dropped has c_l = 0.

All classes of a graph share one walk.  The class-independent set-up
(elimination, adjugate, Smith form, factored form, leaf assignments,
vertex-factor tables) is built once.  A vector's class has the digits
(U l - U delta)_j / 2 mod d_j, from the rows of the Smith form's U on
the leaves and nodes, one per invariant factor d_j > 1, and -l has the
digits -x_j - (U delta)_j; the class is affine in the last walked
coordinate, with some period P, so each run of the walk is cut into at
most P progressions, one per class it meets, and carries that class and
its conjugate, read once.  When fewer classes are wanted than a stretch
meets, each wanted class's first value in it is one linear congruence
in the number of steps, solved digit by digit and joined by the CRT, so
nothing of size P is built.  The graph's one rooted traversal, made when
it is built, gives the elimination; one pass up from it gives the
adjugate on the node rows and the leaf diagonals alone, each entry a
product over the nodes of a path, and the Smith form runs only when
|H_1| = |det M| > 1.  The quadratic bound starts at 4(order + 1), and
with one degree >= 3 vertex at least at the least S of the support plus
the span, so a class whose leading term does not cancel is walked once.
A class still empty that the support never meets is zero: the classes it
meets are the cosets, one per leaf assignment and one per its conjugate,
of the subgroup G of H_1 the node columns span.  One class map lists
them, each seed's coset stepped through a triangular basis of G, so no
class is tested by itself.  The met classes still empty escalate
together: with one degree >= 3 vertex up to a bound B* past which a
class still empty is provably zero, with more for a fixed number of
doublings.  Every later pass (each doubling and the last top-up to
order above the leading term) walks only the new shell floor < q <=
bound of the classes it still needs: the class is affine in the last
walked coordinate, so that level hands out runs stepped straight
through the values in those classes.  A result depends only on its
class's series, so computing one class or all of them gives the same
answer.

Only the classes with terms hold anything after the walks.  A class gets
its dict of terms at its first walked vector, and a zero class stores
nothing: one rule decides nearly all of them (no node: finite support;
else: never met), and only the classes escalated in vain (one node, more
nodes) are listed with a note of their own.  Every class is then read in
order as the row (index, *representative): the first Smith digit runs
through one zip of ranges stepped by a column of 2U^-1, and only the
higher digits step an odometer.  One table of rows, records and notes
(``_class_stream``) serves every entry point: ``compute_zhat_all`` reads
it in full and ``compute_zhat`` reads the one entry of a one-class
table, each result made from its record or note by one conversion
(``_GraphSetup.result``); the CLI writes each class with terms or a note
of its own by itself and maps one %-template over the rows between
them.  On L(100000,1), where 99,997 of the 100,000 classes are zero,
``zhat graph --all --format json`` takes about 0.2 s and peaks at about
17 MB RSS on Python 3.11 (x86-64 Linux), 1 MB above importing
``zhat.cli`` alone.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from fractions import Fraction
from itertools import chain, repeat
from math import comb, gcd, lcm, prod
from operator import add, mul
from typing import Iterator, Mapping, Sequence

from .errors import ConsistencyError, EmptySeries, NotNegativeDefinite, Record, SingularMatrix
from .exact import _integer_rows, _ldl_ordered, _range_under_square, smith_normal_form
from .exact import is_negative_definite  # noqa: F401  (bench/tracing.py wraps it here)
from .plumbing import PlumbingGraph, _integers
from .qseries import QSeries, json_fraction, json_ints, json_value, reading_json

_set = object.__setattr__

# With two or more degree >= 3 vertices, empty enumeration passes double
# the quadratic bound up to this many times before asking for a higher
# order.  One-node graphs stop at their certified bound instead, and
# graphs without a node list their finite support outright.
_MAX_BOUND_DOUBLINGS = 20

# The note of a zero class, one per rule that decides it, shared by every
# class the rule decides.
_FINITE_SUPPORT = "series is identically zero (finite support exhausted)"
_NEVER_MET = "series is identically zero (support never meets the coset)"
_BELOW_ZERO_BOUND = "series is identically zero (every coefficient cancels below the one-node bound)"
_RAISE_ORDER = "every coefficient cancels below the escalated bound; raise order"


class SpinCRep(Record):
    """Representative vector of a Spin^c class, with its canonical index."""

    __slots__ = ("vector", "class_index")
    vector: tuple[int, ...]
    class_index: int

    def __init__(self, vector, class_index):
        _set(self, "vector", vector)
        _set(self, "class_index", class_index)

    def to_json_obj(self) -> dict:
        return {"classIndex": self.class_index, "vector": list(self.vector)}

    @staticmethod
    def from_json_obj(obj: dict) -> "SpinCRep":
        with reading_json("SpinCRep"):
            return SpinCRep(json_ints(obj["vector"]), json_value(obj["classIndex"], int))


class ZhatResult(Record):
    """Normalized series q^delta * tail with bookkeeping.

    ``tail`` has nonzero constant term and exponents in Z>=0; its
    coefficients times 2^eta_pow2 are integers.  ``prefactor_sign`` is
    (-1)^pi for pi positive eigenvalues of the linking matrix (already
    multiplied into the tail).  ``truncation_order`` bounds the tail
    exponents that are fully determined.
    """

    __slots__ = ("spinc", "delta", "tail", "eta_pow2", "prefactor_sign", "truncation_order")
    spinc: SpinCRep | None
    delta: Fraction
    tail: QSeries
    eta_pow2: int
    prefactor_sign: int
    truncation_order: Fraction

    def __init__(self, spinc, delta, tail, eta_pow2, prefactor_sign, truncation_order):
        _set(self, "spinc", spinc)
        _set(self, "delta", delta)
        _set(self, "tail", tail)
        _set(self, "eta_pow2", eta_pow2)
        _set(self, "prefactor_sign", prefactor_sign)
        _set(self, "truncation_order", truncation_order)

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
        with reading_json("ZhatResult"):
            return ZhatResult(
                SpinCRep.from_json_obj(obj["spinc"]) if obj.get("spinc") is not None else None,
                json_fraction(obj["delta"]),
                QSeries.from_json_obj(obj["tail"]),
                json_value(obj["eta"], int),
                json_value(obj["prefactorSign"], int),
                json_fraction(obj["truncationOrder"]),
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
    return Fraction(_twice_vertex_factor(deg, k), 2)


def _twice_vertex_factor(deg: int, k: int) -> int:
    """2 * (coefficient of z^k in (z - 1/z)^(2 - deg)), a signed binomial
    (see :func:`vertex_factor_coefficient`)."""
    if deg <= 2:
        n = 2 - deg
        j, odd = divmod(n - k, 2)
        return 0 if odd or not 0 <= j <= n else 2 * (-1) ** j * comb(n, j)
    m = deg - 2
    j, odd = divmod(abs(k) - m, 2)
    if odd or j < 0:
        return 0
    return comb(m - 1 + j, j) * (-1 if k > 0 and m % 2 else 1)


def _support_window(deg: int) -> tuple[int, ...] | int:
    """Support of l_v: its values for deg <= 2, else m = deg - 2 for the
    values |k| >= m with k = m (mod 2).  (c_l evaluates the factor at
    -l_v; the supports are symmetric, so the window is the same.)"""
    return ((-2, 0, 2), (-1, 1), (0,))[deg] if deg <= 2 else deg - 2


def _parity_runs(m: int, lo: int, hi: int) -> list[tuple[int, int]]:
    """The values k = m (mod 2) with |k| >= m in [lo, hi], the support of
    a degree m + 2 vertex, as runs (first, last) stepped by 2; first has
    the right parity, last may not."""
    runs = []
    first, last = lo + (lo - m) % 2, min(hi, -m)
    if first <= last:
        runs.append((first, last))
    first = max(lo, m)
    first += (first - m) % 2
    if first <= hi:
        runs.append((first, hi))
    return runs


class _SupportForm:
    """The integer form B = |det M| * N, N = -M^{-1}, of one graph on the
    support of c_l, with everything every enumeration pass (each bound
    escalation) shares.

    Only leaves (l_v = +-1), an isolated vertex (l_v in {-2, 0, 2}) and
    the degree >= 3 vertices ``high`` can carry l_v != 0, and
    B = -sign(det M) * adj(M) is an integer matrix, read on the node
    rows and the leaf diagonals only (``adj[u][v]``; without a node, on
    the whole low block).  The principal block B_hh on ``high``
    is positive definite for negative definite and weakly negative
    definite trees alike; it is factored fraction-free once (trailing
    minors D_p and their adjugates).  The finitely many assignments x of
    the other coordinates are listed once, each with the integers the
    walk needs, and with a leaf first (``halved``, every graph but a lone
    vertex) only those with x_0 = +1: the rest are the -x, and the walk
    of -x is that of x with y -> -y.  With y the coordinates on ``high``,

        S = l^T B l = x^T B_xx x + 2 y^T B_hx x + y^T B_hh y,

    and M_0 = D_0 * min_y S (over real y) = x^T Q x, with Q the Schur
    complement D_0 B_xx - B_xh adj(B_hh) B_hx, and the scaled centers
    V_p^0 follow from B_hx x.  With a node Q is diagonal (the leaves
    decouple), so M_0 = trace Q is one constant of every assignment.

    The walk fixes y_0, y_1, ... in turn.  At level p the minimum of S
    over the later coordinates, times D_p, is M_p, and fixing y_p = v
    costs (D_p v - V_p)^2 / (D_p D_(p+1)) on top of it, so each level's
    range is one integer square root and M_(p+1) follows by one exact
    division.  Exponents come out as the integers S, l^T N l = S/|det M|.

    The last level hands out each stretch of its coordinate as runs
    (see ``walk``) instead of one vector per value, each with its class
    and that of -l from the Spin^c context ``ctx``, which owns the digit
    arithmetic.  Each assignment starts its residues U l - U delta at
    -U delta, and each level adds its column of U: adding 2 to the last
    coordinate adds that column mod d to the digits, so the class is
    affine in it with some ``period``, and ``ctx.solve`` gives the least
    number j of such additions that steps the digits by a given amount.
    """

    def __init__(self, adj: Mapping[int, Sequence[int]], det: int, high: Sequence[int], windows: list, ctx: _SpinCContext):
        self.ctx = ctx
        self.high = list(high)
        # degree-2 windows are {0}: those coordinates stay 0
        self.low = [v for v in range(len(windows)) if v not in self.high and windows[v] != (0,)]
        self.det = abs(det)
        sign = 1 if det > 0 else -1
        k = len(self.high)
        # B on the node rows: the block B_hh, and B_hx by its columns
        hh = [[-sign * adj[h][g] for g in self.high] for h in self.high]
        bx = [[-sign * adj[h][v] for h in self.high] for v in self.low]
        factors = _ldl_ordered(hh)
        minors = [det_p for det_p, _ in factors] + [1]
        # per level: D_p, D_(p+1), the row giving V_p from the earlier y, the window, the U column
        centers = [adj_p[0] for _, adj_p in factors]
        self.levels = [
            (
                minors[p],
                minors[p + 1],
                [-sum(r * hh[p + j][q] for j, r in enumerate(centers[p])) for q in range(p)],
                windows[h],
                [row[h] for row in ctx.u_int],
            )
            for p, h in enumerate(self.high)
        ]
        if k:
            # the digit step of the last coordinate and the cyclic group it spans
            step = self.levels[-1][4]
            self.period = 1
            for c, d in zip(step, ctx.d):
                self.period = lcm(self.period, d // gcd(d, c))
        # M_0 = x^T Q x (see above).  With a node each x_j^2 = 1 gives trace Q,
        # Q_jj = D_0 B_jj - b_j^T adj(B_hh) b_j for column b_j of B_hx.
        m0 = 0
        for v, b in zip(self.low, bx) if k else ():
            m0 += minors[0] * -sign * adj[v][v] - sum(x * sum(map(mul, row, b)) for x, row in zip(b, factors[0][1]))
        # V^0 = W x and the class residues U x - U delta grow by one term per
        # low coordinate x_j: column j of W and the U column.  -l has the S
        # and the c_l of l, so with a leaf first only its value +1 is listed;
        # a lone vertex has no leaf, and its value 0 is its own conjugate.
        partial = [((), m0, [0] * k, [-offset for offset in ctx.offsets])]
        self.halved = windows[self.low[0]] == (-1, 1)
        for j, v in enumerate(self.low):
            wcol = [-sum(map(mul, c, bx[j][p:])) for p, c in enumerate(centers)]
            ucol = [row[v] for row in ctx.u_int]
            partial = [
                (combo + (x,), m, [y + x * a for y, a in zip(v0, wcol)], [r + x * u for r, u in zip(res, ucol)])
                for combo, m, v0, res in partial
                for x in ((1,) if self.halved and not j else windows[v])
            ]
        if not k:  # M_0 = S = x^T B_xx x on a chain's two leaves or a lone vertex
            form = [[-sign * adj[u][w] for w in self.low] for u in self.low]
            partial = [(c, sum(x * sum(map(mul, row, c)) for x, row in zip(c, form)), v0, r) for c, _, v0, r in partial]
        self.assignments = partial

    def walk(self, bound: int, lower: int | None = None, want: Sequence[int] | None = None) -> list[tuple]:
        """Every window-feasible support vector l of the listed assignments
        with S = l^T B l <= bound (with ``lower`` only those with S > lower:
        one shell; with ``want``, which must be closed under conjugation,
        only those in the listed classes), as runs of its last coordinate
        y_(k-1) = first, first + step, ..., <= last, each

            (class index, class of -l, assignment index, y_0 .. y_(k-2),
             first, last, step, M, D, centre),

        with S = (M + (D y_(k-1) - centre)^2) / D exactly.  With ``halved``
        the other half of the support is -l, of the same S.  Every run
        carries its class and that of -l.  When the last column of U steps
        no digit (period 1, always so for a homology sphere) a stretch of
        y_(k-1) is one run of step 2, its class read once per last-level
        call.  Else the class at y_(k-1) repeats with period P, and a
        stretch becomes one progression of step 2P per class it meets, at
        most min(P, length) of them; when ``want`` holds fewer classes than
        that, one progression per wanted class the stretch meets, its
        first value found by solving one congruence (``ctx.solve``).
        Without degree >= 3 vertices each assignment is one run of the
        single value 0, with D = 1, centre 0 and M = S, whatever the bound
        (above ``lower``, if given); a lone vertex lists all its values,
        and its runs carry None as the class of -l."""
        wanted = None if want is None else set(want)
        assignments, levels = self.assignments, self.levels
        index, conjugate = self.ctx.index, self.ctx.conjugate
        runs = []
        k = len(levels)
        if not k:
            for a, (_, s, _, res) in enumerate(assignments):
                idx = index([r // 2 for r in res])
                if (lower is None or s > lower) and (wanted is None or idx in wanted):
                    runs.append((idx, conjugate(idx) if self.halved else None, a, (), 0, 0, 1, s, 1, 0))
            return runs
        digits, solve, period = self.ctx.digits, self.ctx.solve, self.period
        ys = [0] * k
        last = k - 1

        def level(p: int, m: int, res: list[int], v0: list[int], a: int) -> None:
            det_p, det_next, row, parity, cols = levels[p]
            center = v0[p] + sum(map(mul, row, ys))
            lo, hi = _range_under_square(det_p, -center, det_next * (det_p * bound - m))
            if p < last:
                for first, end in _parity_runs(parity, lo, hi):
                    for v in range(first, end + 1, 2):
                        ys[p] = v
                        z = det_p * v - center
                        level(p + 1, (det_next * m + z * z) // det_p, [r + c * v for r, c in zip(res, cols)], v0, a)
                return
            if period == 1:
                # every v here has the parity of the window, so one class, and -l one
                fixed = mirror = 0
                if res:
                    fixed = index([(r + c * parity) // 2 for r, c in zip(res, cols)])
                    if wanted is not None and fixed not in wanted:
                        return
                    mirror = conjugate(fixed)
            spans = [(lo, hi)]
            if lower is not None:
                inner_lo, inner_hi = _range_under_square(det_p, -center, det_p * lower - m)
                if inner_lo <= inner_hi:
                    spans = [(lo, inner_lo - 1), (inner_hi + 1, hi)]
            head = tuple(ys[:last])
            for span_lo, span_hi in spans:
                for first, end in _parity_runs(parity, span_lo, span_hi):
                    if period == 1:
                        runs.append((fixed, mirror, a, head, first, end, 2, m, det_p, center))
                        continue
                    # the first period of values meets every class of the stretch
                    stop = min(end, first + 2 * period - 2)
                    if wanted is not None and len(wanted) <= (stop - first) // 2:
                        base = [(r + c * first) // 2 for r, c in zip(res, cols)]
                        for idx in want:
                            j = solve(cols, [x - y for x, y in zip(digits[idx], base)])
                            if j is not None and first + 2 * j <= end:
                                runs.append((idx, conjugate(idx), a, head, first + 2 * j, end, 2 * period, m, det_p, center))
                        continue
                    for y in range(first, stop + 1, 2):
                        idx = index([(r + c * y) // 2 for r, c in zip(res, cols)])
                        if wanted is None or idx in wanted:
                            runs.append((idx, conjugate(idx), a, head, y, end, 2 * period, m, det_p, center))

        for a, (_, m0, v0, res) in enumerate(assignments):
            level(0, m0, res, v0, a)
        return runs

    def zero_bound(self) -> int:
        """One node: B* such that a class with no term at S <= B* is zero.
        With b = D_0 and n = b y - V_x, b S = n^2 + E, E the M_0 every
        assignment shares (so D = max E - min E, past which a term comes
        from one E and +-n only, is 0).  For |n| > N_1 = b m + max |V_x|
        (m = deg - 2) a term's node factor is a polynomial of degree m - 1
        in n on each class mod L = 2 b P, and B* reaches m points of each
        class above N_1."""
        ((b, _, _, m, _),) = self.levels
        n_star = b * m + max(abs(v) for _, _, (v,), _ in self.assignments) + 2 * m * b * self.period
        return -(-(n_star * n_star + self.assignments[0][1]) // b)

    def least(self) -> int:
        """One node: the least S over every support vector.  On each
        assignment b S = (b y - V_x)^2 + E (E the one M_0) is least at the
        y = m (mod 2) nearest V_x / b, or, when that lies in the gap
        |y| < m, at the nearer end +-m."""
        ((b, _, _, m, _),) = self.levels
        least = []
        for _, _, (v,), _ in self.assignments:
            y = m + 2 * ((v + b - b * m) // (2 * b))
            if abs(y) < m:
                y = m if v > 0 else -m
            least.append((b * y - v) ** 2)
        return (min(least) + self.assignments[0][1]) // b


class _ClassMap:
    """The Spin^c classes the support of one form meets.  Each listed
    assignment seeds the class of its digits at y_h = m_h mod 2, and its
    conjugate -l the conjugate class (``ctx.conjugate``), both split into
    digits by the context; adding 2 to y_h adds its column of U, so
    the support meets the seeds' cosets of the subgroup G the node columns
    span mod d, and no other class.  G + (d_i e_i) gets an upper-triangular
    basis, one Euclid pass per column and node; reducing each digit in
    turn into [0, pivot) by its row gives the canonical point of a coset,
    kept once per distinct seed.  ``in`` reduces one class; ``listed``
    costs about one step per met class, never one per class of H_1."""

    def __init__(self, form: _SupportForm):
        self.ctx = ctx = form.ctx
        mods = ctx.d
        self.basis = basis = [[d * (i == j) for j in range(len(mods))] for i, d in enumerate(mods)]
        for _, _, _, _, cols in form.levels:
            g = list(cols)
            for i in range(len(mods)):
                while g[i]:
                    q = g[i] // basis[i][i]
                    g = [(x - q * y) % d for x, y, d in zip(g, basis[i], mods)]
                    if g[i]:
                        basis[i], g = g, basis[i]
        odd = [sum(cols[i] for _, _, _, m, cols in form.levels if m % 2) for i in range(len(mods))]
        reduced, digits, seeds = self.reduced, ctx.digits, set()
        for _, _, _, res in form.assignments:
            idx = ctx.index([(r + o) // 2 for r, o in zip(res, odd)])
            seeds.add(reduced(digits[idx]))
            seeds.add(reduced(digits[ctx.conjugate(idx)]))
        self.seeds = seeds

    def reduced(self, digits: list[int]) -> tuple[int, ...]:
        """The canonical point of the coset of G through ``digits``."""
        for i, row in enumerate(self.basis):
            q = digits[i] // row[i]
            if q:
                digits = [x - q * y for x, y in zip(digits, row)]
        return tuple(digits)

    def __contains__(self, idx: int) -> bool:
        return self.reduced(self.ctx.digits[idx]) in self.seeds

    def listed(self) -> Iterator[int]:
        """Every met class, each once: row i of the basis, pivot p_i, steps
        digit i through the d_i / p_i values of its residue mod p_i, and
        the last digit's values are one range of indices."""
        if not self.ctx.d:
            return iter([0])
        *rows, (row, d, stride) = zip(self.basis, self.ctx.d, self.ctx.strides)
        points = [(0, seed) for seed in self.seeds]
        for i, (step, d_i, stride_i) in enumerate(rows):
            p = step[i]
            points = [
                (idx + y[i] % d_i * stride_i, y)
                for idx, x in points
                for y in ([a + k * b for a, b in zip(x, step)] for k in range(d_i // p))
            ]
        p = row[-1]
        return chain.from_iterable(range(idx + x[-1] % p * stride, idx + d * stride, p * stride) for idx, x in points)


# -- Spin^c bookkeeping ----------------------------------------------------


class _SpinCContext:
    """The group H_1 = (+) Z/d_j of the Spin^c classes of one integer matrix
    m.  With U m V = D its Smith form, only the invariant factors d_j > 1
    are kept: the r factors ``d``, their rows ``u_int`` of U and columns
    ``uinv`` of U^-1.  It owns the class arithmetic: a class index reads
    the digits (U(l - delta))_j / 2 mod d_j in mixed radix, the first
    lowest (``index``, place values ``strides``; ``digits`` splits an
    index, once per class asked for), and -l has the digits
    -x_j - (U delta)_j (``conjugate``, offsets U delta); ``solve`` counts
    the steps of a column that move the digits by a given amount.  So the
    d_0 classes of each value of the higher digits are consecutive and their
    representatives step by one column of 2U^-1 (``blocks``).  ``m`` None
    stands for |det m| = 1: the empty group (r = 0, one class, delta), no
    Smith form.
    """

    def __init__(self, m: Sequence[Sequence[int]] | None, delta_vec: Sequence[int]):
        self.delta = _integers(delta_vec, "Spin^c offset")
        self.u_int, self.d, self.uinv = [], [], [[] for _ in self.delta]
        if m is not None:
            if len(m) != len(self.delta):
                raise ValueError(f"Spin^c offset has length {len(self.delta)}, the matrix has size {len(m)}")
            u, dmat, v = smith_normal_form(m)
            factors = [row[j] for j, row in enumerate(dmat)]
            if 0 in factors:
                raise SingularMatrix("Spin^c classes need an invertible linking matrix")
            keep = [j for j, dj in enumerate(factors) if dj > 1]
            self.u_int, self.d = [u[j] for j in keep], [factors[j] for j in keep]
            # U m V = D gives U^-1 = m V D^-1: column j of m V divides exactly
            # by d_j.  Only the nonzero entries of m are touched (3s - 2 for a tree).
            m_nonzero = [[(k, x) for k, x in enumerate(row) if x] for row in m]
            self.uinv = [[sum(x * v[k][j] for k, x in row) // factors[j] for j in keep] for row in m_nonzero]
        self.count = prod(self.d)
        # the place value of each digit, and U delta, from which -l's digits mirror l's
        self.strides = [prod(self.d[:j]) for j in range(len(self.d))]
        self.offsets = [sum(map(mul, row, self.delta)) for row in self.u_int]
        radix = list(zip(self.d, self.strides))
        self.digits = _Memo(lambda idx: [idx // stride % d for d, stride in radix])

    def index(self, digits: Sequence[int]) -> int:
        """The class whose digits are ``digits`` mod d_j."""
        idx = 0
        for x, d, stride in zip(digits, self.d, self.strides):
            idx += x % d * stride
        return idx

    def solve(self, step: Sequence[int], target: Sequence[int]) -> int | None:
        """The least j >= 0 with j * step_i = target_i (mod d_i) for every
        digit i, or None when there is none.  Per digit, with g = gcd(step_i,
        d_i), j is a residue mod d_i / g when g divides target_i (none
        else), and the digits' residues are combined by the CRT, which needs
        them to agree mod the gcd of their moduli."""
        j, n = 0, 1  # the digits so far hold for j mod n alone
        for c, t, d in zip(step, target, self.d):
            g = gcd(c, d)
            if t % g:
                return None
            m = d // g
            r = t // g * pow(c // g, -1, m) % m  # this digit holds for r mod m alone
            g = gcd(n, m)
            if (r - j) % g:
                return None
            k = m // g
            j += n * ((r - j) // g * pow(n // g, -1, k) % k)
            n *= k
        return j

    def conjugate(self, idx: int) -> int:
        """The class of -l for every l in class ``idx``: digit -x - (U delta)_j mod d_j."""
        mirror = 0
        for d, stride, offset in zip(self.d, self.strides, self.offsets):
            mirror += (-(idx // stride) - offset) % d * stride
        return mirror

    def index_of_vector(self, vector: Sequence[int]) -> int:
        if len(vector) != len(self.delta):
            raise ValueError(f"vector has length {len(vector)}, not {len(self.delta)}")
        x = []
        for lv, dv in zip(_integers(vector, "Spin^c vector"), self.delta):
            if (lv - dv) % 2 != 0:
                raise ValueError("vector is not in 2Z^s + delta")
            x.append((lv - dv) // 2)
        return self.index([sum(map(mul, row, x)) for row in self.u_int])

    def vector_of_index(self, idx: int) -> tuple[int, ...]:
        if not (0 <= idx < self.count):
            raise ValueError(f"class index {idx} out of range [0, {self.count})")
        if not self.d:
            return self.delta
        y = self.digits[idx]
        return tuple(dv + 2 * sum(map(mul, row, y)) for dv, row in zip(self.delta, self.uinv))

    def blocks(self) -> Iterator[Iterator[tuple[int, ...]]]:
        """Every class as the row (i, *vector_of_index(i)), in order, one
        zip per run of the first digit y_0 = 0 .. d_0 - 1: in a run each
        coordinate is a range stepped by its entry of column 0 of 2U^-1,
        or a repeat where that entry is 0.  Between runs the higher digits
        step like an odometer: each step adds one column of 2U^-1 to the
        run's first vector, or takes d_j - 1 of them away where digit j
        wraps to 0."""
        digits = [(dj, [2 * row[j] for row in self.uinv]) for j, dj in enumerate(self.d)]
        (n, step), *digits = digits or [(1, [0] * len(self.delta))]
        y = [0] * len(digits)
        vector = self.delta
        for first in range(0, self.count, n):
            coordinates = (range(x, x + n * c, c) if c else repeat(x, n) for x, c in zip(vector, step))
            yield zip(range(first, first + n), *coordinates)
            for j, (dj, col) in enumerate(digits):
                if y[j] + 1 < dj:
                    y[j] += 1
                    vector = tuple(map(add, vector, col))
                    break
                y[j] = 0
                vector = tuple(a - (dj - 1) * b for a, b in zip(vector, col))

    def representatives(self) -> list[SpinCRep]:
        """``SpinCRep(vector_of_index(i), i)`` for every i in order."""
        return [SpinCRep(row[1:], row[0]) for row in chain.from_iterable(self.blocks())]

    def canonical(self, spinc) -> SpinCRep:
        """The class of ``spinc``, a SpinCRep, an index or a vector in
        2Z^s + delta, with its representative."""
        if isinstance(spinc, SpinCRep):
            spinc = spinc.vector
        idx = spinc if isinstance(spinc, int) else self.index_of_vector(spinc)
        return SpinCRep(self.vector_of_index(idx), idx)


def spin_c_representatives(m, delta_vec: Sequence[int]) -> list[SpinCRep]:
    """One canonical representative per class of (2Z^s + delta)/2mZ^s.

    There are exactly |det m| classes (m an ExactMatrix or integer rows);
    the canonical choice comes from reducing through its Smith form.
    """
    return _SpinCContext(_integer_rows(m), delta_vec).representatives()


def conjugate_spin_c(rep: SpinCRep, m, delta_vec: Sequence[int]) -> SpinCRep:
    """The class of -a, canonicalized (m an ExactMatrix or integer rows)."""
    ctx = _SpinCContext(_integer_rows(m), delta_vec)
    return ctx.canonical([-x for x in _integers(rep.vector, "Spin^c vector")])


# -- the main computation --------------------------------------------------


class _Memo(dict):
    """key -> make(key), made on first use and shared from then on."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class _GraphSetup:
    """Everything one graph's series share across Spin^c classes: the
    tree elimination and inertia, the adjugate on the support, one Smith
    form (none when |H_1| = 1), one factored support form, e0, the sign,
    the vertex-factor tables, and the coefficient Fractions C / 2^#high
    that ``result`` makes at the API edge.

    ``series`` computes any set of classes from shared walks of the
    support, in integers.  Each run of the walk carries its class and
    that of -l, which the context ``ctx`` reads off the residues of its
    rows of U (Smith form U M V = D, one row per factor d_j > 1) on the
    leaves and nodes, once per run.
    """

    def __init__(self, graph: PlumbingGraph, allow_weakly: bool):
        degrees = graph.degree_vector()
        high = graph.high_degree_vertices()
        # The pivots of the elimination made with the graph give the inertia,
        # and one pass up gives M^-1 = adj(M) / det M on the support.  Only
        # the Smith form reads the matrix.
        elim, adj = graph.support_adjugate()
        if elim.det == 0:
            raise SingularMatrix("Spin^c classes need an invertible linking matrix")
        sigma, pi_count = elim.inertia()
        if pi_count and not allow_weakly:
            raise NotNegativeDefinite(
                "linking matrix is not negative definite (pass allow_weakly=True for weakly negative definite input)"
            )
        self.ctx = _SpinCContext(graph.linking_rows() if abs(elim.det) > 1 else None, degrees)
        # e0 = (3 sigma - Tr M) / 4, kept on the scale of S = |det M| * q
        self.e0_scaled = (3 * sigma - sum(graph.weights)) * abs(elim.det)
        self.sign = -1 if pi_count % 2 else 1
        self.high = high
        windows = [_support_window(d) for d in degrees]
        try:
            self.form = _SupportForm(adj, elim.det, high, windows, self.ctx)
        except NotNegativeDefinite:
            # -M^-1 on the degree >= 3 vertices is not positive definite
            raise NotNegativeDefinite("linking matrix is not weakly negative definite") from None
        # c_l = (product over the leaves) * (product over ``high``) / 2^#high
        low_tables = [
            {x: _twice_vertex_factor(degrees[v], -x) // 2 for x in windows[v]} for v in self.form.low
        ]
        self.low_coefficients = [prod(t[x] for t, x in zip(low_tables, combo)) for combo, _, _, _ in self.form.assignments]
        self.tables = [_Memo(lambda k, deg=degrees[h]: _twice_vertex_factor(deg, -k)) for h in high]
        # Fractions are immutable, so every result shares one per coefficient
        scale = 2 ** len(high)
        self.coefficients = _Memo(lambda c: Fraction(c, scale))

    def _walk(self, terms: dict[int, dict], want: list[int] | None, bound: int, lower: int | None = None) -> None:
        """Add every support vector l with lower < S <= bound, S = l^T B l
        = |det M| * l^T N l (no ``lower``: S <= bound), of the classes
        ``want`` (None: every class; else closed under conjugation), to
        ``terms[class of l][S]`` as 2^#high * c_l; ``terms`` makes a class's
        dict at its first vector.  The walk lists one of l and -l, which
        share S and c_l, so each walked vector is credited to its class and
        to that of -l, both carried by its run (a lone vertex lists all its
        values, and its runs carry no class of -l).  Each run is stepped in
        one flat loop: the coefficient of its assignment and earlier
        coordinates once, then per value of the last coordinate S and its
        table entry.  A run whose one class is its own conjugate (every run
        of a homology sphere) is credited once with 2 c_l.  Then drop the
        zeros, and the walked classes left with none."""
        if want is not None and len(want) == self.ctx.count:
            want = None
        low = self.low_coefficients
        # without a node every run is the one value 0 of no coordinate
        *tables, last_table = self.tables or [{0: 1}]
        for idx, mirror, a, head, first, last, step, m, det_p, center in self.form.walk(bound, lower, want):
            c = low[a]
            for table, y in zip(tables, head):
                c *= table[y]
            if mirror is None or mirror == idx:
                if mirror is not None:
                    c *= 2
                acc = terms[idx]
                for v in range(first, last + 1, step):
                    z = det_p * v - center
                    s = (m + z * z) // det_p
                    acc[s] = acc.get(s, 0) + c * last_table[v]
            else:
                acc, conj = terms[idx], terms[mirror]
                for v in range(first, last + 1, step):
                    z = det_p * v - center
                    s = (m + z * z) // det_p
                    x = c * last_table[v]
                    acc[s] = acc.get(s, 0) + x
                    conj[s] = conj.get(s, 0) + x
        for idx in list(terms) if want is None else [idx for idx in want if idx in terms]:
            acc = terms[idx]
            for s in [s for s, c in acc.items() if not c]:
                del acc[s]
            if not acc:
                del terms[idx]

    def series(self, want: list[int] | None, order: Fraction) -> tuple[dict[int, tuple | str], str]:
        """The classes ``want`` (distinct; None: every class) with terms,
        as class -> its record (``_result``; with ``want`` their conjugates
        too, which the walks fill alike), and those escalated in vain, as
        class -> the note of their zero verdict; and the default note, that
        of every other class of ``want``, each zero by the rule of its note:

        - no node (the default): the walk listed the whole finite support;
        - not in the class map (the default with a node): the support
          never meets the class;
        - escalated on one node: every coefficient cancels below the bound B*;
        - escalated on more nodes: "raise order", past _MAX_BOUND_DOUBLINGS
          doublings.

        One walk to 4(order + 1) serves every class; with one node it goes
        on to the least S of the whole support plus the span, which
        completes every class whose leading term sits there.  The classes
        still empty that the support meets escalate together (with ``want``
        the class map is asked for each; without, it lists the met
        classes), each pass walking only the new shell of the classes it
        still needs, up to the bound B* of ``zero_bound`` on one node or
        _MAX_BOUND_DOUBLINGS doublings on more, and a last shell tops every
        class up to 4 * order above its leading term.  Every q below a
        walked bound is complete, so each result depends only on its
        class's series, not on which other classes share the walk or how
        far it went.  Bounds are integers on the scale of S = |det M| * q,
        kept times the denominator of ``order`` = num / den: 4(num +
        den)|det M|, then 2B + 4|det M| den, each walk to B // den; a class
        needs its terms up to min S + span, span = 4 num |det M| // den.
        """
        det, num, den = self.form.det, order.numerator, order.denominator
        span = 4 * num * det // den
        if want is not None:
            # the walk credits -l's class too, so it walks the classes of ``want`` and their conjugates
            want = list(dict.fromkeys([*want, *map(self.ctx.conjugate, want)]))
        terms: dict[int, dict] = defaultdict(dict)
        bound = 4 * (num + den) * det
        if len(self.high) == 1:
            bound = max(bound, (self.form.least() + span) * den)
        self._walk(terms, want, bound // den)
        pending = []
        if self.high:
            if len(terms) < (self.ctx.count if want is None else len(want)):
                # before escalating, a class the support never meets is zero
                met = _ClassMap(self.form)
                if want is None:
                    pending = [idx for idx in met.listed() if idx not in terms]
                else:
                    pending = [idx for idx in want if idx not in terms and idx in met]
            # the bound each class's terms must be complete to
            needed = {idx: min(acc) + span for idx, acc in terms.items()}
            # more nodes: the last doubling's bound, as B + 4|det M| den doubles
            # each pass; one node: B*, where a class still empty is zero
            step = 4 * det * den
            stop = 2**_MAX_BOUND_DOUBLINGS * (bound + step) - step if pending else bound
            if pending and len(self.high) == 1:
                stop = self.form.zero_bound() * den
            while pending and bound < stop:
                lower, bound = bound, min(2 * bound + step, stop)
                walked = lower // den
                self._walk(terms, pending + [idx for idx, need in needed.items() if need > walked], bound // den, walked)
                for idx in pending:
                    if idx in terms:
                        needed[idx] = min(terms[idx]) + span
                pending = [idx for idx in pending if idx not in terms]
            reached = bound // den  # every S walked so far is <= reached
            top = max(needed.values(), default=reached)
            if top > reached:
                self._walk(terms, [idx for idx, need in needed.items() if need > reached], top, reached)
        results: dict[int, tuple | str] = {idx: self._result(acc, span) for idx, acc in terms.items()}
        if not self.high:
            return results, _FINITE_SUPPORT
        results.update(dict.fromkeys(pending, _BELOW_ZERO_BOUND if len(self.high) == 1 else _RAISE_ORDER))
        return results, _NEVER_MET

    def _result(self, acc: dict, span: int) -> tuple:
        """A class's record (min S, ((e, C), ...), eta): its terms up to
        S = min S + span, the S of a class 4|det M| apart, as the integer
        exponents e = (S - min S) / (4|det M|) and C = (-1)^pi times the
        nonzero integers of ``acc``, which stand for C / 2^#high; eta =
        max(0, #high - v2(C)) over the terms, read off the lowest set bit
        of their OR."""
        den, keys = 4 * self.form.det, sorted(acc)
        s0, sign = keys[0], self.sign
        terms = []
        bits = 0
        for s in keys[: bisect_right(keys, s0 + span)]:
            e, r = divmod(s - s0, den)
            if r:
                raise ConsistencyError(f"exponents S = {s0} and {s} of one class differ by a non-multiple of {den}")
            c = acc[s]
            bits |= c
            terms.append((e, sign * c))
        eta = max(0, len(self.high) + 1 - (bits & -bits).bit_length())
        return s0, tuple(terms), eta

    def delta(self, s0: int) -> Fraction:
        """delta = e0 + min S / (4|det M|) of a class whose least S is ``s0``."""
        return Fraction(self.e0_scaled + s0, 4 * self.form.det)

    def result(self, rep: SpinCRep | None, res: tuple | str, order: Fraction) -> ZhatResult | EmptySeries:
        """The ZhatResult of class ``rep`` from its record (``_result``),
        with the shared Fractions C / 2^#high, or the EmptySeries of its
        note."""
        if isinstance(res, str):
            return EmptySeries(res, rep)
        s0, terms, eta = res
        coefficients = self.coefficients
        tail = QSeries(tuple([(e, coefficients[c]) for e, c in terms]), order)
        return ZhatResult(rep, self.delta(s0), tail, eta, self.sign, order)


def _checked_order(order) -> Fraction:
    """``order`` as a nonnegative Fraction.  It must be exact: an int, a
    Fraction or a string such as "5/2"; a bool or a float raises TypeError."""
    if isinstance(order, (bool, float)):
        raise TypeError(f"order must be an integer, a Fraction or a string such as '5/2', not {order!r}")
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
    help.  This reads the one entry of the one-class table of
    :func:`_class_stream`, as :func:`compute_zhat_all` reads every class.
    """
    order = _checked_order(order)
    if isinstance(spinc, bool) or not isinstance(spinc, (SpinCRep, int, Sequence)):
        raise TypeError(f"a Spin^c class is a SpinCRep, an index or a vector, not the {type(spinc).__name__} {spinc!r}")
    setup, (rows, results, default) = _class_stream(graph, order, allow_weakly, spinc)
    row = next(rows)
    res = setup.result(SpinCRep(row[1:], row[0]), results[row[0]], order)
    if isinstance(res, EmptySeries):
        raise res
    return res


def _class_stream(
    graph: PlumbingGraph, order: Fraction, allow_weakly: bool, spinc=None
) -> tuple[_GraphSetup, tuple[Iterator[tuple[int, ...]], dict, str]]:
    """The set-up of ``graph``, whose ``result`` turns a record or note
    into a ZhatResult or an EmptySeries, and its table of every Spin^c
    class (with ``spinc``, a SpinCRep, an index or a vector, of that class
    alone): the rows (index, *representative) of ``blocks()`` in class
    order; the classes with terms or with a note of their own, as records
    or notes of ``series`` (one class: its record or note, whichever it
    is); and the note of every other class, which is zero.  ``order`` is
    checked by the caller (``_checked_order``).  Every walk has finished
    when this returns, so a domain error comes before any class, and the
    rows are made as they are read."""
    setup = _GraphSetup(graph, allow_weakly)
    if spinc is None:
        return setup, (chain.from_iterable(setup.ctx.blocks()), *setup.series(None, order))
    rep = setup.ctx.canonical(spinc)
    idx = rep.class_index
    results, default = setup.series([idx], order)
    return setup, (iter([(idx, *rep.vector)]), {idx: results.get(idx, default)}, default)


def compute_zhat_all(
    graph: PlumbingGraph,
    order=Fraction(200),
    allow_weakly: bool = False,
) -> list[tuple[SpinCRep, ZhatResult | EmptySeries]]:
    """Every Spin^c class with its series, in class order, from one
    shared enumeration: the table of :func:`_class_stream`, read in full.

    Each entry is what :func:`compute_zhat` gives for that class: its
    result, or the EmptySeries it would raise.
    """
    order = _checked_order(order)
    setup, (rows, results, default) = _class_stream(graph, order, allow_weakly)
    reps = [SpinCRep(row[1:], row[0]) for row in rows]
    return [(rep, setup.result(rep, results.get(rep.class_index, default), order)) for rep in reps]


def delta_a(graph: PlumbingGraph, spinc, allow_weakly: bool = False) -> Fraction:
    """Leading exponent only (order-0 computation)."""
    return compute_zhat(graph, spinc, order=Fraction(0), allow_weakly=allow_weakly).delta
