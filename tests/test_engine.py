import functools
import json
import random
import re
import tracemalloc
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import accumulate
from math import floor, lcm
from operator import mul
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import trees
from oracles import (
    adjugate,
    classes_missing_support,
    enumerate_coset_under_bound,
    leaf_schur_complement,
    per_vector_terms,
    run_vectors,
    zero_bound_from_definition,
)
from zhat.brieskorn import brieskorn_data, build_plumbing, zhat0_brieskorn
from zhat.engine import (
    SpinCRep,
    ZhatResult,
    _ClassMap,
    _GraphSetup,
    _SpinCContext,
    _SupportForm,
    _support_window,
    compute_zhat,
    compute_zhat_all,
    conjugate_spin_c,
    delta_a,
    spin_c_representatives,
    vertex_factor_coefficient,
)
import zhat.engine
from zhat.errors import EmptySeries, NotNegativeDefinite, SingularMatrix
from zhat.exact import ExactMatrix, _range_under_square, is_negative_definite, smith_normal_form
from zhat.plumbing import PlumbingGraph, parse_plumb

DATA = Path(__file__).resolve().parent / "data"


def expansion_oracle(deg: int, kmax: int) -> dict[int, Fraction]:
    """Independent expansion of (z - 1/z)^(2 - deg) up to |k| <= kmax.

    For deg <= 2: multiply out the binomial directly.  For deg >= 3:
    build each geometric-series expansion of 1/(z - 1/z)^m by raising
    sum_j z^(-2j) (resp. sum_j z^(2j)) to the m-th power and averaging
    the two, exactly as the principal-value prescription says.
    """
    if deg <= 2:
        n = 2 - deg
        poly = {0: Fraction(1)}
        for _ in range(n):
            nxt: dict[int, Fraction] = {}
            for k, c in poly.items():
                nxt[k + 1] = nxt.get(k + 1, Fraction(0)) + c
                nxt[k - 1] = nxt.get(k - 1, Fraction(0)) - c
            poly = nxt
        return {k: c for k, c in poly.items() if c}
    m = deg - 2
    cut = kmax + 2 * m + 2

    def geom_power(sign: int) -> dict[int, Fraction]:
        # (sum_{j>=0} z^(sign*2j))^m, truncated
        poly = {0: Fraction(1)}
        for _ in range(m):
            nxt: dict[int, Fraction] = {}
            for k, c in poly.items():
                j = 0
                while abs(k + sign * 2 * j) <= cut:
                    kk = k + sign * 2 * j
                    nxt[kk] = nxt.get(kk, Fraction(0)) + c
                    j += 1
            poly = nxt
        return poly

    outside = {k - m: c for k, c in geom_power(-1).items()}  # z^-m/(1 - z^-2)^m
    inside = {k + m: c * (-1) ** m for k, c in geom_power(+1).items()}  # (-1)^m z^m/(1 - z^2)^m
    out: dict[int, Fraction] = {}
    for k in set(outside) | set(inside):
        c = (outside.get(k, Fraction(0)) + inside.get(k, Fraction(0))) / 2
        if c and abs(k) <= kmax:
            out[k] = c
    return out


class TestVertexFactor:
    def test_deg0(self):
        assert {k: vertex_factor_coefficient(0, k) for k in (-2, 0, 2)} == {
            -2: Fraction(1),
            0: Fraction(-2),
            2: Fraction(1),
        }
        assert vertex_factor_coefficient(0, 1) == 0
        assert vertex_factor_coefficient(0, 4) == 0

    def test_deg1(self):
        assert vertex_factor_coefficient(1, 1) == 1
        assert vertex_factor_coefficient(1, -1) == -1
        assert vertex_factor_coefficient(1, 0) == 0

    def test_deg3_halves(self):
        for j in range(6):
            assert vertex_factor_coefficient(3, -1 - 2 * j) == Fraction(1, 2)
            assert vertex_factor_coefficient(3, 1 + 2 * j) == Fraction(-1, 2)
        assert vertex_factor_coefficient(3, 0) == 0

    def test_against_expansion_oracle(self):
        for deg in range(8):
            oracle = expansion_oracle(deg, 15)
            for k in range(-15, 16):
                assert vertex_factor_coefficient(deg, k) == oracle.get(k, Fraction(0)), (deg, k)

    def test_window_matches_support(self):
        for deg in range(8):
            window = _support_window(deg)
            for k in range(-12, 13):
                in_window = k in window if deg <= 2 else abs(k) >= window and (k - window) % 2 == 0
                assert in_window == (vertex_factor_coefficient(deg, -k) != 0)


class TestSpinC:
    def test_lens_space_classes(self):
        m = ExactMatrix([[-5]])
        reps = spin_c_representatives(m, (0,))
        assert [r.vector for r in reps] == [(0,), (2,), (4,), (6,), (8,)]
        assert [r.class_index for r in reps] == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize(
        "g, factors",
        [
            # a lens space: H_1 = Z/8 from a Smith form with two unit factors
            (PlumbingGraph((-2, -3, -2), ((0, 1), (1, 2))), [8]),
            # Smith digits 2 and 4 (the two-node example of TestSupportProbe)
            (PlumbingGraph((-2, -2, -3, -4, -5, -5, -1), ((0, 1), (0, 2), (1, 3), (1, 4), (4, 5), (0, 6))), [2, 4]),
        ],
    )
    def test_context_keeps_the_nontrivial_factors(self, g, factors):
        _, dmat, _ = smith_normal_form(g.linking_rows())
        assert [row[i] for i, row in enumerate(dmat) if row[i] > 1] == factors
        ctx = _GraphSetup(g, True).ctx
        assert ctx.d == factors and len(ctx.u_int) == len(factors)
        assert [len(row) for row in ctx.uinv] == [len(factors)] * g.vertex_count
        assert [ctx.index_of_vector(r.vector) for r in ctx.representatives()] == list(range(ctx.count))

    @pytest.mark.parametrize("entry", [-3.0, 2.5])
    def test_float_matrix_is_a_type_error(self, entry):
        with pytest.raises(TypeError):
            spin_c_representatives([[entry]], (1,))
        with pytest.raises(TypeError):
            conjugate_spin_c(SpinCRep((1,), 0), [[entry]], (1,))
        # wrapping the rows does not let a float through
        with pytest.raises(TypeError, match=re.escape(f"matrix entry {entry!r} is a float")):
            spin_c_representatives(ExactMatrix([[entry]]), (1,))
        with pytest.raises(TypeError, match=re.escape(f"matrix entry {entry!r} is a float")):
            conjugate_spin_c(SpinCRep((1,), 0), ExactMatrix([[entry]]), (1,))

    def test_zhs_single_class(self, m_2_9_11):
        reps = spin_c_representatives(m_2_9_11, (3, 1, 2, 1, 2, 1))
        assert len(reps) == 1

    def test_s3(self):
        reps = spin_c_representatives(ExactMatrix([[-1]]), (0,))
        assert reps == [SpinCRep((0,), 0)]

    def test_class_count_is_det(self):
        rng = random.Random(19)
        for _ in range(60):
            n = rng.randint(1, 3)
            rows = [[0] * n for _ in range(n)]
            for v in range(1, n):
                u = rng.randrange(v)
                rows[u][v] = rows[v][u] = 1
            for v in range(n):
                rows[v][v] = -(sum(rows[v]) + rng.randint(1, 5))
            m = ExactMatrix(rows)
            deg = [sum(1 for j in range(n) if j != i and rows[i][j]) for i in range(n)]
            reps = spin_c_representatives(m, deg)
            assert len(reps) == abs(int(m.determinant()))
            assert len({r.vector for r in reps}) == len(reps)

    def test_conjugation(self):
        m = ExactMatrix([[-5]])
        conj = conjugate_spin_c(SpinCRep((2,), 1), m, (0,))
        assert conj.vector == (8,)
        assert conjugate_spin_c(conj, m, (0,)).vector == (2,)

    def test_zhs_conjugation_fixed(self, m_2_9_11):
        delta = (3, 1, 2, 1, 2, 1)
        rep = spin_c_representatives(m_2_9_11, delta)[0]
        assert conjugate_spin_c(rep, m_2_9_11, delta) == rep

    def test_vector_of_the_wrong_length_rejected(self):
        g = PlumbingGraph((-2, -2, -2), ((0, 1), (1, 2)))
        m, deg = g.linking_matrix(), g.degree_vector()
        for vector in ([3], [], [1, 0, 1, 5, 7]):
            with pytest.raises(ValueError, match=f"length {len(vector)}, not 3"):
                compute_zhat(g, vector, order=2)
        with pytest.raises(ValueError, match="length 1, not 3"):
            conjugate_spin_c(SpinCRep((1,), 0), m, deg)

    def test_offset_of_the_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="length 2, the matrix has size 1"):
            spin_c_representatives([[-2]], (0, 0))
        with pytest.raises(ValueError, match="length 1, the matrix has size 2"):
            spin_c_representatives([[-2, 1], [1, -2]], (0,))
        with pytest.raises(ValueError, match="length 1, the matrix has size 2"):
            conjugate_spin_c(SpinCRep((1,), 0), [[-3, 1], [1, -2]], (1,))

    @pytest.mark.parametrize(
        "spinc, entry",
        [
            ([2.0], "2.0"),  # would be class 1.0
            ((Fraction(4),), "Fraction(4, 1)"),
            (SpinCRep((2.0,), 1), "2.0"),
            (["2"], "'2'"),
        ],
    )
    def test_non_integer_vector_rejected(self, spinc, entry):
        g = PlumbingGraph((-3,), ())
        with pytest.raises(TypeError, match=re.escape(f"Spin^c vector entry {entry} is not an integer")):
            compute_zhat(g, spinc, 1)
        with pytest.raises(TypeError, match=re.escape(f"Spin^c vector entry {entry} is not an integer")):
            conjugate_spin_c(SpinCRep(tuple(getattr(spinc, "vector", spinc)), 0), [[-3]], (0,))

    @pytest.mark.parametrize(
        "offset, entry",
        [((0.5,), "0.5"), ((1.0,), "1.0"), ((Fraction(1, 2),), "Fraction(1, 2)"), (("1",), "'1'")],
    )
    def test_non_integer_offset_rejected(self, offset, entry):
        # int() would take 0.5 as offset 0 and "1" as 1
        message = re.escape(f"Spin^c offset entry {entry} is not an integer")
        with pytest.raises(TypeError, match=message):
            spin_c_representatives([[-3]], offset)
        with pytest.raises(TypeError, match=message):
            conjugate_spin_c(SpinCRep((1,), 0), [[-3]], offset)

    def test_integer_entries_of_any_int_type_accepted(self):
        assert spin_c_representatives([[-3]], (True,)) == spin_c_representatives([[-3]], (1,))
        g = PlumbingGraph((-2, -2), ((0, 1),))
        assert compute_zhat(g, [True, True], 1) == compute_zhat(g, [1, 1], 1)

    def test_bool_class_rejected(self):
        # neither a bool nor a number that is not an int is taken for an index or a vector
        g = PlumbingGraph((-2,), ())
        for spinc, name in [
            (True, "bool True"), (False, "bool False"), (1.0, "float 1.0"), (None, "NoneType None"),
            (Fraction(1), "Fraction Fraction(1, 1)"),
        ]:
            message = f"a Spin^c class is a SpinCRep, an index or a vector, not the {name}"
            with pytest.raises(TypeError, match=re.escape(message)):
                compute_zhat(g, spinc)
        with pytest.raises(TypeError, match="bool"):
            delta_a(g, True)

    def test_singular_matrix_rejected(self):
        from zhat.errors import SingularMatrix

        with pytest.raises(SingularMatrix):
            spin_c_representatives(ExactMatrix([[0]]), (0,))


# A weakly negative definite tree with three nodes whose last node steps
# the one Smith digit with period |H_1| = 9,204,375
PERIOD_IS_H1_TREE = PlumbingGraph(
    (-1, -2, -3, -3, -1, -5, -3, -2, -6, -6, -4, -6, -2, -5, 1, -4, -3),
    ((0, 4), (0, 7), (1, 3), (1, 5), (2, 5), (2, 9), (2, 13), (3, 7))
    + ((3, 12), (5, 8), (6, 16), (8, 11), (9, 10), (11, 15), (12, 16), (13, 14)),
)


class TestStepCongruence:
    """``_SpinCContext.solve``: the least number of steps of a column that
    moves the class digits by a target, against a scan of one period."""

    @staticmethod
    def check(ratios, step, target):
        # the factors of a Smith form divide one another, so the moduli share factors
        d = list(accumulate(ratios, mul))
        ctx = _SpinCContext([[-x * (i == j) for j in range(len(d))] for i, x in enumerate(d)], [0] * len(d))
        assert ctx.d == d
        scan = (j for j in range(lcm(*d)) if all((j * c - t) % x == 0 for c, t, x in zip(step, target, d)))
        assert ctx.solve(step, target) == next(scan, None)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.integers(2, 6), min_size=1, max_size=3), st.data())
    def test_matches_the_scan_of_a_period(self, ratios, data):
        size = len(ratios)
        step = data.draw(st.lists(st.sampled_from([0, 0, *range(-9, 10)]), min_size=size, max_size=size))
        # half of the targets are reachable, the rest mostly not
        j0 = data.draw(st.integers(0, 6**size))
        reachable = st.just([j0 * c for c in step])
        target = data.draw(st.one_of(reachable, st.lists(st.integers(-20, 20), min_size=size, max_size=size)))
        self.check(ratios, step, target)

    @pytest.mark.parametrize(
        "ratios, step, target",
        [
            # d = (2, 4): j = 0 mod 2 and j = 1 mod 4 each hold alone, never together
            ([2, 2], [1, 1], [0, 1]),
            ([2, 2], [1, 1], [1, 1]),
            # a zero step reaches only the zero target
            ([3], [0], [0]),
            ([3], [0], [3]),
            ([3], [0], [1]),
            ([2, 3], [0, 2], [0, 4]),
        ],
    )
    def test_edge_cases(self, ratios, step, target):
        self.check(ratios, step, target)

    def test_set_up_of_a_tree_whose_period_is_its_h1(self):
        # nothing of the size of the period is built, so the set-up stays small
        tracemalloc.start()
        try:
            setup = _GraphSetup(PERIOD_IS_H1_TREE, allow_weakly=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert setup.form.period == setup.ctx.count == 9_204_375
        assert peak < 2**20


# (-3; three legs of four -2): H_1 = Z/5 + Z/15, and column 0 of 2U^-1 is
# 0 on all but two coordinates, so the runs of the first digit repeat the
# rest
STAR_5_15 = PlumbingGraph((-3,) + (-2,) * 12, tuple((0 if i % 4 == 0 else i, i + 1) for i in range(12)))


class TestBlocks:
    """``_SpinCContext.blocks`` against ``vector_of_index``, row by row."""

    @staticmethod
    def check(g: PlumbingGraph) -> _SpinCContext:
        ctx = _SpinCContext(g.linking_rows(), g.degree_vector())
        runs = [list(run) for run in ctx.blocks()]
        assert [row for run in runs for row in run] == [(i, *ctx.vector_of_index(i)) for i in range(ctx.count)]
        # one run per value of the higher digits, each of all d_0 values of the first
        assert {len(run) for run in runs} == {ctx.d[0] if ctx.d else 1}
        return ctx

    @pytest.mark.parametrize("path", sorted(DATA.glob("*.plumb")), ids=lambda p: p.stem)
    def test_data_graphs(self, path):
        g = parse_plumb(path.read_text())
        ctx = self.check(g)
        if path.stem == "d4_star":
            assert ctx.d == [2, 2]

    @pytest.mark.parametrize("p", [1, 2, 3, 7, 64, 1001])
    def test_lens_spaces(self, p):
        # L(p, 1): one vertex, one run of p classes
        assert self.check(PlumbingGraph((-p,), ())).d == ([p] if p > 1 else [])

    def test_star_whose_runs_repeat_coordinates(self):
        ctx = self.check(STAR_5_15)
        assert ctx.d == [5, 15]
        assert 0 in [row[0] for row in ctx.uinv]

    def test_no_smith_rows(self):
        ctx = _SpinCContext(None, (1, 0, -1))
        assert [list(run) for run in ctx.blocks()] == [[(0, 1, 0, -1)]]


class TestClosedForms:
    def test_s3(self):
        res = compute_zhat(PlumbingGraph((-1,), ()), 0, order=10)
        assert res.delta == Fraction(-1, 2)
        assert res.tail.terms == ((Fraction(0), Fraction(-2)), (Fraction(1), Fraction(2)))
        assert res.eta_pow2 == 0
        assert res.prefactor_sign == 1

    @pytest.mark.parametrize("p", [3, 5, 7, 9])
    def test_lens_space_trivial_class(self, p):
        res = compute_zhat(PlumbingGraph((-p,), ()), 0, order=10)
        assert res.delta == Fraction(p - 3, 4)
        assert res.tail.terms == ((Fraction(0), Fraction(-2)),)

    def test_lens_space_rep_choice_irrelevant(self):
        g = PlumbingGraph((-5,), ())
        a = compute_zhat(g, (2,), order=10)
        b = compute_zhat(g, (2 - 2 * 5 * 3,), order=10)
        assert (a.delta, a.tail) == (b.delta, b.tail)

    def test_lens_space_zero_classes(self):
        g = PlumbingGraph((-5,), ())
        with pytest.raises(EmptySeries):
            compute_zhat(g, (4,), order=10)

    def test_delta_conjugation_symmetry_lens_spaces(self):
        for p in range(2, 10):
            g = PlumbingGraph((-p,), ())
            m = g.linking_matrix()
            for rep in spin_c_representatives(m, (0,)):
                conj = conjugate_spin_c(rep, m, (0,))
                try:
                    d1 = delta_a(g, rep)
                except EmptySeries:
                    with pytest.raises(EmptySeries):
                        delta_a(g, conj)
                    continue
                assert d1 == delta_a(g, conj)


def coset_series(g, vector, top):
    """exponent -> coefficient of the class of ``vector`` for every
    exponent <= top, summed over its full coset by the dense rational
    enumeration with the dense inverse; zero sums dropped.  ``g`` must be
    negative definite."""
    m = g.linking_matrix()
    s = m.size
    degrees = g.degree_vector()
    minv = m.inverse()
    e0 = Fraction(3 * m.signature_and_positive_count()[0] - int(m.trace()), 4)
    acc: dict[Fraction, Fraction] = {}
    for l in enumerate_coset_under_bound(m, vector, 4 * (top - e0)):
        c = Fraction(1)
        for v, lv in enumerate(l):
            c *= vertex_factor_coefficient(degrees[v], -lv)
        if c:
            e = e0 - sum(minv.rows[i][j] * l[i] * l[j] for i in range(s) for j in range(s)) / 4
            acc[e] = acc.get(e, Fraction(0)) + c
    return {e: c for e, c in acc.items() if c}


class TestCrossOracle:
    @pytest.mark.parametrize("triple", [(2, 3, 7), (2, 9, 11), (3, 4, 11), (3, 7, 8)])
    def test_matches_closed_form_order_100(self, triple):
        data = brieskorn_data(*triple)
        closed = zhat0_brieskorn(*triple, 100, data=data)
        engine = compute_zhat(build_plumbing(data), 0, order=100)
        assert engine.delta == closed.delta == data.delta0
        assert engine.tail.terms == closed.tail.terms
        assert engine.eta_pow2 == closed.eta_pow2 == 0

    def test_tail_exponents_integral(self):
        for triple in ((2, 3, 7), (2, 9, 11)):
            res = compute_zhat(build_plumbing(brieskorn_data(*triple)), 0, order=60)
            assert all(e.denominator == 1 and e >= 0 for e, _ in res.tail.terms)
            assert res.tail.terms[0][0] == 0 and res.tail.terms[0][1] != 0

    @pytest.mark.parametrize(
        "g",
        [
            # no degree >= 3 vertex: every low assignment, no bound
            PlumbingGraph((-2, -3, -2), ((0, 1), (1, 2))),
            # one node with six leaves: 2^6 assignments, a one-coordinate walk each
            PlumbingGraph((-5, -2, -2, -3, -2, -3, -2), tuple((0, v) for v in range(1, 7))),
            # two degree-3 vertices
            PlumbingGraph((-4, -4, -2, -2, -2, -2), ((0, 1), (0, 2), (0, 3), (1, 4), (1, 5))),
        ],
        ids=["chain", "six_leaf_star", "double_star"],
    )
    def test_against_full_coset(self, g):
        # aggregate the full coset enumeration independently with the
        # dense inverse and compare series
        res = compute_zhat(g, 0, order=10)
        rep = spin_c_representatives(g.linking_matrix(), g.degree_vector())[0]
        expected = sorted((e - res.delta, c) for e, c in coset_series(g, rep.vector, res.delta + 10).items())
        assert list(res.tail.terms) == expected

    def test_windowed_enumeration_complete(self, g_2_9_11):
        # the support walk sees exactly the coset points with nonzero c_l,
        # each with its exponent -l^T M^-1 l (times |det M|)
        g = g_2_9_11
        m = g.linking_matrix()
        minv = m.inverse()
        degrees = g.degree_vector()
        windows = [_support_window(d) for d in degrees]
        high = g.high_degree_vertices()
        det = abs(int(m.determinant()))
        bound = Fraction(60)
        ctx = _SpinCContext(None, degrees)
        form = _SupportForm(adjugate(g), int(m.determinant()), high, windows, ctx)
        walked = {l: s for _, l, s in support_vectors(form, ctx, int(bound * det))}
        for l, s in walked.items():
            assert s == -det * sum(minv.rows[i][j] * l[i] * l[j] for i in range(m.size) for j in range(m.size))
            assert s <= bound * det
        full = set(enumerate_coset_under_bound(m, degrees, bound))
        in_window = set()
        for l in full:
            c = Fraction(1)
            for v, lv in enumerate(l):
                c *= vertex_factor_coefficient(degrees[v], -lv)
            if c != 0:
                in_window.add(l)
        # support also contains non-coset points; intersect with the coset
        def member(l):
            t = minv.matvec([a - b for a, b in zip(l, degrees)])
            return all(x.denominator == 1 and int(x) % 2 == 0 for x in t)

        assert {l for l in walked if member(l)} == in_window


class TestOrientationAndErrors:
    def test_rejects_positive_definite(self):
        with pytest.raises(NotNegativeDefinite):
            compute_zhat(PlumbingGraph((1,), ()), 0)

    def test_weakly_needs_flag(self):
        g = PlumbingGraph((0, -1), ((0, 1),))
        with pytest.raises(NotNegativeDefinite):
            compute_zhat(g, 0, order=5)

    def test_weakly_chain_gives_s3_series(self):
        # plumbing on the (0, -1) chain is another description of S^3
        g = PlumbingGraph((0, -1), ((0, 1),))
        res = compute_zhat(g, 0, order=5, allow_weakly=True)
        assert res.delta == Fraction(-1, 2)
        assert res.tail.terms == ((Fraction(0), Fraction(-2)), (Fraction(1), Fraction(2)))
        assert res.prefactor_sign == -1  # one positive eigenvalue

    def test_weakly_tree_with_high_degree_vertex(self):
        # not negative definite, but M^{-1} = adj(M) / det M is negative on
        # the degree-3 vertex; exercises the block enumeration path
        g = PlumbingGraph((-2, -1, -3, -2, 1), ((0, 1), (1, 2), (2, 3), (1, 4)))
        elim = g.elimination()
        assert not elim.is_negative_definite
        assert g.high_degree_vertices() == (1,) and elim.det == 11
        (column,) = adjugate(g, [1])
        assert is_negative_definite(ExactMatrix([[Fraction(column[1], elim.det)]]))
        res = compute_zhat(g, 1, order=12, allow_weakly=True)
        assert res.delta == Fraction(-4, 11)
        assert res.tail.terms[0][0] == 0
        for e, _ in res.tail.terms:
            assert e.denominator == 1 and e >= 0

    def test_rejects_node_block_not_positive_definite(self):
        # weakly, but -M^-1 on the node is not positive definite
        g = PlumbingGraph((1, -3, -1, -3), ((0, 1), (0, 2), (0, 3)))
        assert g.elimination().det == -24
        for compute in (lambda: compute_zhat(g, 0, 2, allow_weakly=True), lambda: compute_zhat_all(g, 2, True)):
            with pytest.raises(NotNegativeDefinite, match="^linking matrix is not weakly negative definite$"):
                compute()

    def test_weakly_class_with_total_cancellation(self):
        g = PlumbingGraph((-2, -1, -3, -2, 1), ((0, 1), (1, 2), (2, 3), (1, 4)))
        with pytest.raises(EmptySeries):
            compute_zhat(g, 0, order=4, allow_weakly=True)


class TestTailIntegrality:
    def test_random_trees_all_classes(self):
        # q^delta * tail with integer tail exponents and 2^eta-integral
        # coefficients, for every class of random negative definite trees
        rng = random.Random(37)
        done = 0
        while done < 25:
            n = rng.randint(1, 5)
            edges = tuple((rng.randrange(v), v) for v in range(1, n))
            weights = []
            for v in range(n):
                deg = sum(1 for a, b in edges if v in (a, b))
                weights.append(-(deg + rng.randint(1, 2)))
            g = PlumbingGraph(tuple(weights), edges)
            m = g.linking_matrix()
            if abs(int(m.determinant())) > 24:
                continue
            done += 1
            for rep in spin_c_representatives(m, g.degree_vector()):
                try:
                    res = compute_zhat(g, rep, order=8)
                except EmptySeries:
                    continue
                assert res.tail.terms[0][0] == 0 and res.tail.terms[0][1] != 0
                for e, c in res.tail.terms:
                    assert e.denominator == 1 and e >= 0
                    assert (c * 2**res.eta_pow2).denominator == 1

    def test_representative_choice_irrelevant_on_chain(self):
        g = PlumbingGraph((-2, -3), ((0, 1),))
        m = g.linking_matrix()
        dv = g.degree_vector()
        for rep in spin_c_representatives(m, dv):
            shifted = tuple(
                r + 2 * int(x)
                for r, x in zip(rep.vector, m.matvec([3, -2]))
            )
            try:
                a = compute_zhat(g, rep, order=10)
            except EmptySeries:
                with pytest.raises(EmptySeries):
                    compute_zhat(g, shifted, order=10)
                continue
            b = compute_zhat(g, shifted, order=10)
            assert (a.delta, a.tail) == (b.delta, b.tail)

    def test_conjugation_symmetry_on_chain(self):
        g = PlumbingGraph((-2, -3), ((0, 1),))
        m = g.linking_matrix()
        dv = g.degree_vector()
        for rep in spin_c_representatives(m, dv):
            conj = conjugate_spin_c(rep, m, dv)
            try:
                d1 = delta_a(g, rep)
            except EmptySeries:
                with pytest.raises(EmptySeries):
                    delta_a(g, conj)
                continue
            assert d1 == delta_a(g, conj)


class TestDeterminism:
    def test_bit_identical_serialization(self, g_2_9_11):
        a = compute_zhat(g_2_9_11, 0, order=40)
        b = compute_zhat(g_2_9_11, 0, order=40)
        assert json.dumps(a.to_json_obj()) == json.dumps(b.to_json_obj())

    def test_result_round_trip(self, g_2_9_11):
        # int terms are read back as the equal Fractions: equal records, equal hashes
        for res in (compute_zhat(g_2_9_11, 0, order=40), zhat0_brieskorn(2, 9, 11, 40)):
            back = ZhatResult.from_json_obj(json.loads(json.dumps(res.to_json_obj())))
            assert back == res and hash(back) == hash(res)


# The pair whose zero class the first walk does not settle: the star is
# the chain with an edge blown up; class 2 of the star is empty up to the
# one-node bound B*, the chain's zero class is its finite support.
ESCALATION_STAR = PlumbingGraph((-3, -2, -2, -1), ((0, 1), (0, 2), (0, 3)))
ESCALATION_CHAIN = PlumbingGraph((-2, -2, -2), ((0, 1), (1, 2)))
WEAKLY = PlumbingGraph((-2, -1, -3, -2, 1), ((0, 1), (1, 2), (2, 3), (1, 4)))
SIX_LEAF_STAR = PlumbingGraph((-5, -2, -2, -3, -2, -3, -2), tuple((0, v) for v in range(1, 7)))


def outcome(res):
    """A result, or the message of an EmptySeries, for comparing."""
    return str(res) if isinstance(res, EmptySeries) else res


def support_vectors(form, ctx, bound, lower=None, want=None):
    """The walk of ``form``, its runs expanded into every listed vector l
    and -l (``run_vectors``), as (class index, full vector l, S) triples;
    no vector comes twice."""
    out = []
    for idx, xs, ys, s in run_vectors(form, ctx, form.walk(bound, lower, want), want):
        l = [0] * len(ctx.delta)
        for v, x in zip(form.low + form.high, xs + ys):
            l[v] = x
        out.append((idx, tuple(l), s))
    assert len({l for _, l, _ in out}) == len(out)
    return out


def conjugation_closed(ctx, want):
    """``want`` and the class of each of its negated representatives: the
    walk takes only class lists closed under conjugation."""
    return list(dict.fromkeys([*want, *(ctx.index_of_vector([-x for x in ctx.vector_of_index(a)]) for a in want)]))


def per_class(g, order, allow_weakly=False):
    out = []
    for rep in spin_c_representatives(g.linking_matrix(), g.degree_vector()):
        try:
            out.append((rep, compute_zhat(g, rep, order, allow_weakly=allow_weakly)))
        except EmptySeries as exc:
            out.append((rep, exc))
    return out


class TestAllClasses:
    def check(self, g, order, allow_weakly=False):
        together = compute_zhat_all(g, order, allow_weakly=allow_weakly)
        assert [(rep, outcome(r)) for rep, r in together] == [
            (rep, outcome(r)) for rep, r in per_class(g, order, allow_weakly)
        ]
        return together

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(trees(weights=st.integers(-4, -2)), st.integers(0, 6))
    def test_matches_per_class(self, g, order):
        elim = g.elimination()
        assume(elim.is_negative_definite and abs(elim.det) <= 40)
        self.check(g, order)

    def test_escalation_pair(self):
        star = self.check(ESCALATION_STAR, 0)
        assert outcome(star[2][1]) == "series is identically zero (every coefficient cancels below the one-node bound)"
        assert _GraphSetup(ESCALATION_STAR, False).form.zero_bound() == 204
        chain = self.check(ESCALATION_CHAIN, 0)
        assert [outcome(r) for _, r in chain if isinstance(r, EmptySeries)] == [
            "series is identically zero (finite support exhausted)"
        ]

    def test_two_nodes_still_raise_order(self, monkeypatch):
        # two nodes have no certified bound: class 2 escalates to the cap
        monkeypatch.setattr(zhat.engine, "_MAX_BOUND_DOUBLINGS", 4)
        g = PlumbingGraph((-3, -3, -2, -2, -1, -1), ((0, 1), (0, 2), (0, 3), (1, 4), (1, 5)))
        results = self.check(g, 0)
        assert [rep.class_index for rep, r in results if isinstance(r, EmptySeries)] == [2]
        assert outcome(results[2][1]) == "every coefficient cancels below the escalated bound; raise order"

    def test_classes_the_support_never_meets(self):
        g = PlumbingGraph((-4, -1, -4, -4, -2, -2, -1), ((0, 1), (0, 4), (0, 6), (1, 2), (1, 3), (4, 5)))
        results = self.check(g, 2)
        assert [(rep.class_index, outcome(r)) for rep, r in results if isinstance(r, EmptySeries)] == [
            (2, "series is identically zero (support never meets the coset)"),
            (6, "series is identically zero (support never meets the coset)"),
        ]

    def test_lens_space_with_thousands_of_classes(self):
        # L(3001, 1): classes 0, 1 and 3000 have terms, the rest are zero
        results = self.check(PlumbingGraph((-3001,), ()), 2)
        assert [rep.class_index for rep, r in results if not isinstance(r, EmptySeries)] == [0, 1, 3000]
        assert {outcome(r) for _, r in results[2:-1]} == {"series is identically zero (finite support exhausted)"}

    @pytest.mark.parametrize("order", [Fraction(1, 3), Fraction(5, 2), Fraction(2)])
    @pytest.mark.parametrize(
        "g, doublings",
        [
            # class 2 is zero and escalates to the cap
            (PlumbingGraph((-3, -3, -2, -2, -1, -1), ((0, 1), (0, 2), (0, 3), (1, 4), (1, 5))), 3),
            # no class is empty, so only the last shell follows the first walk
            (PlumbingGraph((-2, -2, -2, -3, -2, -3), ((0, 1), (0, 2), (0, 3), (1, 4), (1, 5))), 0),
        ],
        ids=["zero_class", "no_zero_class"],
    )
    def test_escalation_bounds_stay_exact(self, monkeypatch, order, g, doublings):
        # The schedule is 4(order + 1)|det M|, then 2 bound + 4|det M|, in
        # rationals, each pass walking floor(lower) < S <= floor(bound);
        # the last shell reaches min S + floor(4 order |det M|) of every class.
        monkeypatch.setattr(zhat.engine, "_MAX_BOUND_DOUBLINGS", doublings)
        calls = []
        walk = _SupportForm.walk

        def recorded(form, bound, lower=None, want=None):
            calls.append((bound, lower))
            return walk(form, bound, lower, want)

        monkeypatch.setattr(_SupportForm, "walk", recorded)
        results = compute_zhat_all(g, order)
        elim = g.elimination()
        det, e0 = abs(elim.det), Fraction(3 * elim.inertia()[0] - sum(g.weights), 4)
        bounds = [4 * (order + 1) * det]
        for _ in range(doublings):
            bounds.append(2 * bounds[-1] + 4 * det)
        walks = [(floor(bounds[0]), None)] + [(floor(b), floor(a)) for a, b in zip(bounds, bounds[1:])]
        top = max((r.delta - e0) * 4 * det for _, r in results if not isinstance(r, EmptySeries)) + floor(4 * order * det)
        if top > bounds[-1]:
            walks.append((top, floor(bounds[-1])))
        assert calls == walks

    def test_weakly(self):
        # not negative definite; M^-1 is negative definite on the node
        g = PlumbingGraph((-2, -1, 1, 1, -1, -2), ((0, 1), (1, 2), (0, 3), (3, 4), (0, 5)))
        assert len(self.check(g, 6, allow_weakly=True)) == 12

    def test_weakly_needs_flag(self):
        with pytest.raises(NotNegativeDefinite):
            compute_zhat_all(WEAKLY, 4)

    @pytest.mark.parametrize("allow_weakly", [False, True])
    def test_singular_graph(self, allow_weakly):
        # one error for one class and for all of them, whatever the flag
        g = PlumbingGraph((-1, -1), ((0, 1),))
        for compute in (lambda: compute_zhat(g, 0, 5, allow_weakly), lambda: compute_zhat_all(g, 5, allow_weakly)):
            with pytest.raises(SingularMatrix, match="invertible"):
                compute()

    @pytest.mark.parametrize(
        "g",
        [ESCALATION_STAR, ESCALATION_CHAIN, SIX_LEAF_STAR, PlumbingGraph((-4, -3, -3, -2), ((0, 1), (0, 2), (0, 3)))],
        ids=["escalation_star", "escalation_chain", "six_leaf_star", "star"],
    )
    def test_conjugation_symmetry(self, g):
        # Zhat_a = Zhat_{-a}: equal series, or the same reason for zero
        m, deg = g.linking_matrix(), g.degree_vector()
        results = compute_zhat_all(g, 6)
        for rep, res in results:
            conj = results[conjugate_spin_c(rep, m, deg).class_index][1]
            if isinstance(res, EmptySeries):
                assert outcome(conj) == outcome(res)
            else:
                assert (conj.delta, conj.tail, conj.eta_pow2) == (res.delta, res.tail, res.eta_pow2)


@st.composite
def one_node_trees(draw, node_weights, leg_weights):
    """A node of degree 3..6 whose legs have one or two vertices."""
    w, edges = [draw(node_weights)], []
    for _ in range(draw(st.integers(3, 6))):
        prev = 0
        for _ in range(draw(st.integers(1, 2))):
            w.append(draw(leg_weights))
            edges.append((prev, len(w) - 1))
            prev = len(w) - 1
    return PlumbingGraph(tuple(w), tuple(edges))


class TestZeroCertificate:
    """The one-node bound B* against coefficients summed here from the
    walk to 4 B*, with the public vertex factors: a class the engine calls
    zero has none, and every other one has its leading term at S <= B*."""

    def check(self, g, order, allow_weakly):
        assume(0 < abs(g.elimination().det) <= 60)
        try:
            setup = _GraphSetup(g, allow_weakly)
        except NotNegativeDefinite:
            assume(False)
        form, degrees = setup.form, g.degree_vector()
        cap = form.zero_bound()
        factor = functools.cache(vertex_factor_coefficient)
        coefficients: dict[int, Counter] = {}
        for idx, l, s in support_vectors(form, setup.ctx, 4 * cap):
            c = Fraction(1)
            for v in form.low + form.high:
                c *= factor(degrees[v], -l[v])
            coefficients.setdefault(idx, Counter())[s] += c
        for rep, res in TestAllClasses().check(g, order, allow_weakly):
            exponents = [s for s, c in coefficients.get(rep.class_index, {}).items() if c]
            if isinstance(res, EmptySeries):
                assert not exponents, str(res)
            else:
                assert min(exponents) <= cap
                assert res.delta == Fraction(setup.e0_scaled + min(exponents), 4 * form.det)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(one_node_trees(st.integers(-8, -1), st.integers(-3, -1)), st.integers(0, 2))
    def test_negative_definite(self, g, order):
        self.check(g, order, allow_weakly=False)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(one_node_trees(st.integers(-6, -1), st.sampled_from([-2, -1, 1, 2])), st.integers(0, 2))
    def test_weakly(self, g, order):
        assume(not g.elimination().is_negative_definite)
        self.check(g, order, allow_weakly=True)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.one_of(
            one_node_trees(st.integers(-8, -1), st.integers(-3, -1)),
            one_node_trees(st.integers(-6, -1), st.sampled_from([-2, -1, 1, 2])),
        )
    )
    @example(ESCALATION_STAR)
    def test_zero_bound_from_its_definition(self, g):
        assume(g.elimination().det != 0)
        try:
            form = _GraphSetup(g, allow_weakly=True).form
        except NotNegativeDefinite:
            assume(False)
        assert form.zero_bound() == zero_bound_from_definition(g)


class TestOneNodeSchedule:
    """One node: the first walk reaches the least S over every support
    vector plus the span, and B* is made only for a class still empty."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        st.one_of(
            one_node_trees(st.integers(-8, -1), st.integers(-3, -1)),
            one_node_trees(st.integers(-6, -1), st.sampled_from([-2, -1, 1, 2])),
        )
    )
    def test_least_is_the_least_exponent_of_the_walk(self, g):
        assume(0 < abs(g.elimination().det) <= 60)
        try:
            setup = _GraphSetup(g, True)
        except NotNegativeDefinite:
            assume(False)
        form = setup.form
        least = form.least()
        assert list(run_vectors(form, setup.ctx, form.walk(least - 1))) == []
        assert min(s for _, _, _, s in run_vectors(form, setup.ctx, form.walk(least))) == least

    def test_sphere_class_is_walked_once(self, monkeypatch):
        # the leading term sits at the least S and does not cancel, so the
        # first walk completes the class; from 4(order + 1) = 84 alone the
        # schedule needs four walks (84, 172, 348, 700)
        bounds = []
        walk = _SupportForm.walk

        def recorded(form, bound, lower=None, want=None):
            bounds.append((bound, lower))
            return walk(form, bound, lower, want)

        monkeypatch.setattr(_SupportForm, "walk", recorded)
        res = compute_zhat(build_plumbing(brieskorn_data(3, 10, 59)), 0, 20)
        assert len(bounds) == 1 and bounds[0][1] is None
        assert (res.delta, res.tail) == (lambda z: (z.delta, z.tail))(zhat0_brieskorn(3, 10, 59, 20))

    def test_zero_bound_only_for_a_class_still_empty(self, monkeypatch):
        calls = []
        zero_bound = _SupportForm.zero_bound

        def counted(form):
            calls.append(form)
            return zero_bound(form)

        monkeypatch.setattr(_SupportForm, "zero_bound", counted)
        for triple in [(2, 3, 7), (3, 10, 59)]:
            compute_zhat(build_plumbing(brieskorn_data(*triple)), 0, 20)
        assert calls == []
        # class 2 of the escalation star is empty until B*
        compute_zhat_all(ESCALATION_STAR, 0)
        assert len(calls) == 1


class TestIntegerBookkeeping:
    """``series`` keeps its bounds in integers and each class as an integer
    record; Fractions are made only at the API edge (``result``)."""

    @staticmethod
    def fraction_schedule(g, order, results):
        """The (bound, lower) of every walk of ``compute_zhat_all`` as the
        schedule once ran it in Fractions: 4(order + 1)|det M| (with one
        node at least the least S plus the span), then 2 bound + 4|det M|
        while a met class is empty, up to B* on one node or the doubling
        cap on more, each walk taking the floors; then a last shell to
        min S + floor(4 order |det M|) of every class.  The classes' least
        S and their zero verdicts come from ``results``."""
        setup = _GraphSetup(g, True)
        form, det = setup.form, setup.form.det
        span = floor(4 * order * det)
        least = [res.delta * 4 * det - setup.e0_scaled for _, res in results if not isinstance(res, EmptySeries)]
        escalated = any("cancels below" in str(res) for _, res in results if isinstance(res, EmptySeries))
        bound = 4 * (order + 1) * det
        if len(form.high) == 1:
            bound = max(bound, form.least() + span)
        walks = [(floor(bound), None)]
        if not form.high:
            return walks
        stop = form.zero_bound() if len(form.high) == 1 else 2**zhat.engine._MAX_BOUND_DOUBLINGS * (bound + 4 * det) - 4 * det
        while (escalated or any(s > floor(bound) for s in least)) and bound < stop:
            lower, bound = bound, min(2 * bound + 4 * det, stop)
            walks.append((floor(bound), floor(lower)))
        top = max(s + span for s in least)
        if top > floor(bound):
            walks.append((top, floor(bound)))
        return walks

    def check_schedule(self, g, order, doublings=4):
        calls = []
        walk = _GraphSetup._walk

        def recorded(setup, terms, want, bound, lower=None):
            calls.append((bound, lower))
            return walk(setup, terms, want, bound, lower)

        with mock.patch.object(zhat.engine, "_MAX_BOUND_DOUBLINGS", doublings):
            with mock.patch.object(_GraphSetup, "_walk", recorded):
                results = compute_zhat_all(g, order, allow_weakly=True)
            assert calls == self.fraction_schedule(g, order, results)
        assert all(type(bound) is int and type(lower) in (int, type(None)) for bound, lower in calls)
        return calls

    ORDERS = [Fraction(0), Fraction(1, 2), Fraction(7, 3), Fraction(5, 2), Fraction(5)]

    @pytest.mark.parametrize("order", ORDERS, ids=str)
    @pytest.mark.parametrize(
        "name", ["escalation_star.plumb", "two_node_tree.plumb", "two_node_probe.plumb", "raise_order"]
    )
    def test_walk_bounds_are_the_floors_of_the_fraction_schedule(self, name, order):
        if name == "raise_order":
            # class 2 escalates to the cap of doublings
            g = PlumbingGraph((-3, -3, -2, -2, -1, -1), ((0, 1), (0, 2), (0, 3), (1, 4), (1, 5)))
        else:
            g = parse_plumb((DATA / name).read_text())
        calls = self.check_schedule(g, order)
        if name in ("escalation_star.plumb", "raise_order") and order == 0:
            assert len(calls) > 2  # the escalation is exercised

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(one_node_trees(st.integers(-8, -1), st.integers(-3, -1)), st.sampled_from(ORDERS))
    def test_walk_bounds_on_one_node(self, g, order):
        assume(0 < abs(g.elimination().det) <= 60 and g.elimination().is_negative_definite)
        self.check_schedule(g, order)

    @pytest.mark.parametrize("name", ["escalation_star.plumb", "two_node_tree.plumb", "det51_star.plumb"])
    def test_series_makes_no_fraction(self, name):
        # every Fraction the engine makes goes through its module's name, and
        # an order that refuses arithmetic and comparison shows that series
        # reads only its numerator and denominator
        made = []

        class Counted(Fraction):
            def __new__(cls, *args, **kwargs):
                made.append(args)
                return super().__new__(cls, *args, **kwargs)

        class Opaque(Fraction):
            def refuse(self, *args):
                raise AssertionError("the order was used as a Fraction")

            __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = refuse
            __truediv__ = __rtruediv__ = __floordiv__ = __rfloordiv__ = __floor__ = refuse
            __lt__ = __le__ = __gt__ = __ge__ = __eq__ = refuse

        setup = _GraphSetup(parse_plumb((DATA / name).read_text()), False)
        with mock.patch.object(zhat.engine, "Fraction", Counted):
            results, _ = setup.series(None, Opaque(5, 2))
        assert made == []
        records = [res for res in results.values() if not isinstance(res, str)]
        assert records and all(
            type(s0) is int and all(type(e) is int and type(c) is int for e, c in terms) for s0, terms, _ in records
        )

    def test_compute_zhat_matches_the_recording(self):
        # compute_zhat on classes of the walk graphs at orders 0, 1/2 and 5/2,
        # recorded when the results were still made inside the engine
        rows = json.loads((DATA / "walk_graphs_zhat.json").read_text())
        assert len(rows) == 90
        for row in rows:
            g = PlumbingGraph(tuple(row["weights"]), tuple(map(tuple, row["edges"])))
            try:
                got = compute_zhat(g, row["class"], Fraction(row["order"]), allow_weakly=True)
            except EmptySeries as exc:
                assert str(exc) == row["result"]
                continue
            assert got == ZhatResult.from_json_obj(row["result"])
            assert got.to_json_obj() == row["result"]


class TestSupportProbe:
    """Classes the support never meets, from the class map on the walk's
    class digits, against the oracle that closes the full rows of U in
    prod Z/2d_i: the classes it lists and its membership answers."""

    @staticmethod
    def missing(g, setup):
        """``classes_missing_support`` of ``g``: every row of U, since the
        oracle steps node coordinates by +-1 and so needs the rows of the
        unit factors too, which the context leaves out."""
        ctx = setup.ctx
        assert 2 ** g.vertex_count * ctx.count <= 200_000  # the oracle runs
        windows = [_support_window(d) for d in g.degree_vector()]
        u, dmat, _ = smith_normal_form(g.linking_rows())
        diagonal = [row[i] for i, row in enumerate(dmat)]
        return classes_missing_support(u, diagonal, windows, setup.high, ctx.representatives())

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(trees(max_size=8, weights=st.integers(-4, 1)))
    # odd node degree, and node columns that do not span H_1
    @example(PlumbingGraph((-2, -3, -3, -3), ((0, 1), (0, 2), (0, 3))))
    # two nodes
    @example(parse_plumb((DATA / "two_node_probe.plumb").read_text()))
    # two nodes and Smith digits 2 and 4, with the triangular basis (1 2; 0 4)
    @example(PlumbingGraph((-2, -2, -3, -4, -5, -5, -1), ((0, 1), (0, 2), (1, 3), (1, 4), (4, 5), (0, 6))))
    def test_matches_the_oracle(self, g):
        assume(0 < abs(g.elimination().det) <= 60)
        try:
            setup = _GraphSetup(g, True)
        except NotNegativeDefinite:
            assume(False)
        expected = self.missing(g, setup)
        met = _ClassMap(setup.form)
        assert {idx for idx in range(setup.ctx.count) if idx not in met} == expected

    def check_listing(self, g, setup, want):
        met = _ClassMap(setup.form)
        listed = list(met.listed())
        assert len(listed) == len(set(listed))
        assert set(listed) == set(range(setup.ctx.count)) - self.missing(g, setup)
        assert [idx for idx in want if idx in met] == [idx for idx in want if idx in listed]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.sampled_from([0, 1, 2]).flatmap(lambda nodes: trees_with_nodes(nodes, st.integers(-4, -1))), st.data())
    def test_listed_classes_are_the_met_ones(self, g, data):
        assume(0 < abs(g.elimination().det) <= 60)
        try:
            setup = _GraphSetup(g, True)
        except NotNegativeDefinite:
            assume(False)
        assume(2 ** g.vertex_count * setup.ctx.count <= 200_000)
        self.check_listing(g, setup, data.draw(st.lists(st.integers(0, setup.ctx.count - 1), max_size=6, unique=True)))

    @pytest.mark.parametrize(
        "g",
        [
            # H_1 = Z/2 + Z/2 + Z/84; G has a basis row above the last digit
            SIX_LEAF_STAR,
            # two nodes and Smith digits 2 and 4, with the triangular basis (1 2; 0 4)
            PlumbingGraph((-2, -2, -3, -4, -5, -5, -1), ((0, 1), (0, 2), (1, 3), (1, 4), (4, 5), (0, 6))),
            parse_plumb((DATA / "two_node_probe.plumb").read_text()),
        ],
        ids=["six_leaf_star", "two_digit_basis", "two_node_probe"],
    )
    def test_listing_steps_every_basis_row(self, g):
        setup = _GraphSetup(g, True)
        self.check_listing(g, setup, range(setup.ctx.count))

    def test_never_met_above_200000_classes(self):
        # |H_1| = 619,300: a zero class is decided by the class map, which
        # holds nothing of size |H_1|
        star = PlumbingGraph((-3, -50, -60, -70), ((0, 1), (0, 2), (0, 3)))
        for idx in (2, 3):
            with pytest.raises(EmptySeries, match="support never meets the coset"):
                compute_zhat(star, idx, 0)
        assert compute_zhat(star, 619_299, 0).delta == Fraction(1430351253, 5630)


class TestShellWalk:
    @pytest.mark.parametrize(
        "name", ["g_2_9_11", "six_leaf_star", "weakly", "chain"],
    )
    def test_shell_is_the_walk_above_the_floor(self, request, name):
        g = {
            "six_leaf_star": SIX_LEAF_STAR,
            "weakly": WEAKLY,
            "chain": PlumbingGraph((-2, -3, -2), ((0, 1), (1, 2))),
        }.get(name) or request.getfixturevalue(name)
        setup = _GraphSetup(g, allow_weakly=True)
        form, ctx = setup.form, setup.ctx
        bound = 60 * form.det
        walked = list(run_vectors(form, ctx, form.walk(bound)))
        ss = sorted({s for _, _, _, s in walked})
        # below, at and between attained values, and the bound itself
        for lower in [-1, ss[0], ss[len(ss) // 2], ss[-1] - 1, 30 * form.det, bound]:
            assert list(run_vectors(form, ctx, form.walk(bound, lower))) == [entry for entry in walked if entry[3] > lower]


# Graphs the walk must handle besides random trees: one node, two nodes,
# a degree-5 node (window gap |l_h| < 3) next to a degree-4 one, a
# weakly negative definite tree with many classes, and a star with
# H_1 = Z/2 whose node column steps no class digit (period 1), so each
# run has one class, read at the odd parity of its degree-3 node.
WALK_GRAPHS = [
    SIX_LEAF_STAR,
    PlumbingGraph((-4, -4, -2, -2, -2, -2), ((0, 1), (0, 2), (0, 3), (1, 4), (1, 5))),
    PlumbingGraph((-7, -6, -2, -3, -2, -3, -2, -2, -5), ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 6), (1, 7), (1, 8))),
    PlumbingGraph((-2, -1, 1, 1, -1, -2), ((0, 1), (1, 2), (0, 3), (3, 4), (0, 5))),
    ESCALATION_STAR,
    PlumbingGraph((-2, -2, -1, -4), ((0, 1), (0, 2), (0, 3))),
]


class TestIntegerWalk:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        st.one_of(st.sampled_from(WALK_GRAPHS), trees(max_size=8, weights=st.integers(-5, -1))),
        st.sampled_from([Fraction(1, 2), Fraction(3, 4), Fraction(5), Fraction(23, 2), Fraction(601, 2)]),
        st.data(),
    )
    def test_restricted_walk_is_the_filtered_walk(self, g, bound_q, data):
        assume(g.elimination().det != 0)
        try:
            setup = _GraphSetup(g, allow_weakly=True)
        except NotNegativeDefinite:
            assume(False)
        form, ctx = setup.form, setup.ctx
        assume(ctx.count <= 64)
        det = form.det
        bound = floor(bound_q * det)  # bound_q * det need not be an integer
        lower = data.draw(st.sampled_from([None, -1, 0, floor(bound_q * det / 3), bound - 1]))
        walked = support_vectors(form, ctx, bound, lower)
        # every exponent from the dense inverse, every class from the Smith form
        minv = g.linking_matrix().inverse()

        def exponent(l):
            return -det * sum(minv.rows[i][j] * l[i] * l[j] for i in range(len(l)) for j in range(len(l)))

        for idx, l, s in walked:
            assert s == exponent(l)
            # without a degree >= 3 vertex the finite support is listed whatever the bound
            assert (s <= bound or not form.high) and (lower is None or s > lower)
            assert idx == ctx.index_of_vector(l)
        want = data.draw(st.lists(st.integers(0, ctx.count - 1), min_size=1, max_size=4, unique=True))
        want = conjugation_closed(ctx, want)
        restricted = support_vectors(form, ctx, bound, lower, want)
        assert Counter(restricted) == Counter(entry for entry in walked if entry[0] in want)
        if g.elimination().is_negative_definite and form.high and bound_q < 12:
            # complete: the dense coset walk finds the same support vectors
            m, degrees = g.linking_matrix(), g.degree_vector()
            for idx in want:
                coset = enumerate_coset_under_bound(m, ctx.vector_of_index(idx), bound_q)
                assert {l for i, l, _ in walked if i == idx} == {
                    l
                    for l in coset
                    if all(vertex_factor_coefficient(d, -x) for d, x in zip(degrees, l))
                    and (lower is None or exponent(l) > lower)
                }


@st.composite
def trees_with_nodes(draw, nodes, weights=st.integers(-5, -1), node_weights=st.integers(-8, -2)):
    """A tree with exactly ``nodes`` (0 to 3) vertices of degree >= 3: a
    chain of one to five vertices, or a node with three to five legs, or
    two or three nodes on a path, each joined to the next by one to three
    edges, each of degree three to five with legs for the rest; every leg
    has one or two vertices.  The nodes draw from ``node_weights``, every
    other vertex from ``weights``."""
    w, edges = [draw(node_weights if nodes else weights)], []

    def path(start, length, last_weights=weights):
        for i in range(length):
            w.append(draw(last_weights if i == length - 1 else weights))
            edges.append((start, len(w) - 1))
            start = len(w) - 1
        return start

    if nodes == 0:
        path(0, draw(st.integers(0, 4)))
    else:
        ends = [0]
        for _ in range(nodes - 1):
            ends.append(path(ends[-1], draw(st.integers(1, 3)), node_weights))
        for i, node in enumerate(ends):
            # the paths to the neighbouring nodes count towards the degree
            for _ in range(draw(st.integers(3, 5)) - (i > 0) - (i < nodes - 1)):
                path(node, draw(st.integers(1, 2)))
    return PlumbingGraph(tuple(w), tuple(edges))


class TestRunAccumulation:
    """The flat loop over each run of the walk adds the same terms as a
    per-vector accumulation over the expanded runs (``per_vector_terms``),
    with bounds, floors and ``want`` drawn as in TestIntegerWalk."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.one_of(
            st.sampled_from(WALK_GRAPHS),
            st.sampled_from([0, 1, 2]).flatmap(trees_with_nodes),
        ),
        st.sampled_from([Fraction(1, 2), Fraction(3, 4), Fraction(5), Fraction(23, 2), Fraction(601, 2)]),
        st.data(),
    )
    def test_flat_loop_is_the_per_vector_sum(self, g, bound_q, data):
        assume(g.elimination().det != 0)
        try:
            setup = _GraphSetup(g, allow_weakly=True)
        except NotNegativeDefinite:
            assume(False)
        form, ctx = setup.form, setup.ctx
        # no dense coset walk here, so more classes than TestIntegerWalk takes
        assume(ctx.count <= 400)
        bound = floor(bound_q * form.det)
        lower = data.draw(st.sampled_from([None, -1, 0, floor(bound_q * form.det / 3), bound - 1]))
        want = data.draw(
            st.one_of(st.none(), st.lists(st.integers(0, ctx.count - 1), min_size=1, max_size=4, unique=True))
        )
        if want is not None:
            want = conjugation_closed(ctx, want)
        terms = defaultdict(dict)
        setup._walk(terms, want, bound, lower)
        assert terms == per_vector_terms(g, form, ctx, bound, lower, want)


class TestLeafDecoupling:
    """With a node the leaves decouple: the Schur complement Q of the form
    on the leaves given the nodes, from the dense rational inverse
    (``leaf_schur_complement``), is diagonal, so every leaf assignment
    x = (+-1, ...) has the one M_0 = x^T Q x = trace Q that the form lists."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.sampled_from([1, 2, 3]).flatmap(
            # about half of the trees the form accepts are weakly negative definite
            lambda nodes: trees_with_nodes(nodes, st.sampled_from([-4, -3, -2, -1, 1]), st.integers(-6, -1))
        )
    )
    @example(PlumbingGraph((-1, -2, -3, -7), ((0, 1), (0, 2), (0, 3))))  # Sigma(2, 3, 7)
    @example(PlumbingGraph((-2, -1, -3, -2, 1), ((0, 1), (1, 2), (2, 3), (1, 4))))  # weakly, one positive eigenvalue
    def test_leaf_schur_complement_is_diagonal(self, g):
        assume(g.elimination().det != 0)
        try:
            form = _GraphSetup(g, allow_weakly=True).form
        except NotNegativeDefinite:
            assume(False)
        d0, q = leaf_schur_complement(g)
        assert [q[i][j] for i in range(len(q)) for j in range(len(q)) if i != j] == [0] * (len(q) ** 2 - len(q))
        assert form.levels[0][0] == d0
        assert {m for _, m, _, _ in form.assignments} == {sum(q[i][i] for i in range(len(q)))}


D4_STAR = PlumbingGraph((-2, -2, -2, -2), ((0, 1), (0, 2), (0, 3)))
A3_CHAIN = PlumbingGraph((-2, -2, -2), ((0, 1), (1, 2)))
TWELVE_LEAF_STAR = PlumbingGraph((-7,) + (-2,) * 12, tuple((0, v) for v in range(1, 13)))


class TestConjugation:
    """The walk lists one of each pair l, -l (same S, same c_l) and credits
    both: the engine's conjugate map against ``conjugate_spin_c``, which
    runs its own Smith form; a one-class query against the ``--all``
    records of a and -a; and self-conjugate classes, which get each pair
    twice, against the full coset summed by the dense enumeration."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from([0, 1, 2]).flatmap(trees_with_nodes), st.data())
    def test_conjugate_map_and_one_class_query(self, g, data):
        elim = g.elimination()
        assume(elim.is_negative_definite and abs(elim.det) <= 400)
        setup = _GraphSetup(g, False)
        ctx, rows, degrees = setup.ctx, g.linking_rows(), g.degree_vector()
        conjugates = [setup.ctx.conjugate(a) for a in range(ctx.count)]
        assert conjugates == [
            conjugate_spin_c(SpinCRep(ctx.vector_of_index(a), a), rows, degrees).class_index for a in range(ctx.count)
        ]
        order = data.draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(5, 2)]))
        a = data.draw(st.integers(0, ctx.count - 1))
        # two nodes have no certified bound: a zero class escalates to the cap
        with mock.patch.object(zhat.engine, "_MAX_BOUND_DOUBLINGS", 4):
            results = compute_zhat_all(g, order)
            try:
                one = compute_zhat(g, a, order)
            except EmptySeries as exc:
                one = exc
        assert outcome(one) == outcome(results[a][1])
        mirror = results[conjugates[a]][1]
        if isinstance(one, EmptySeries):
            assert outcome(mirror) == outcome(one)
        else:
            assert (mirror.delta, mirror.tail, mirror.eta_pow2) == (one.delta, one.tail, one.eta_pow2)

    @pytest.mark.parametrize(
        "g, self_conjugate",
        [(D4_STAR, [0, 1, 2, 3]), (A3_CHAIN, [0, 2]), (PlumbingGraph((-5,), ()), [0])],
        ids=["d4_star", "a3_chain", "lone_vertex"],
    )
    def test_self_conjugate_classes_against_the_coset(self, g, self_conjugate):
        setup, order = _GraphSetup(g, False), 10
        assert [a for a in range(setup.ctx.count) if setup.ctx.conjugate(a) == a] == self_conjugate
        results = compute_zhat_all(g, order)
        top = max(res.delta for _, res in results if not isinstance(res, EmptySeries)) + order
        for rep, res in results:
            terms = coset_series(g, rep.vector, top)
            if isinstance(res, EmptySeries):
                assert terms == {}
                continue
            assert min(terms) == res.delta
            assert list(res.tail.terms) == sorted((e - res.delta, c) for e, c in terms.items() if e <= res.delta + order)

    def test_a_leaf_halves_the_assignments(self):
        # the lone vertex has no leaf and keeps its three values
        form = _GraphSetup(PlumbingGraph((-5,), ()), False).form
        assert not form.halved and [x for x, _, _, _ in form.assignments] == [(-2,), (0,), (2,)]
        form = _GraphSetup(TWELVE_LEAF_STAR, False).form
        assert form.halved and len(form.assignments) == 2**11
        assert {x[0] for x, _, _, _ in form.assignments} == {1}


class TestDeltaModOne:
    """Every nonzero class a has Delta_a = (3 sigma - Tr M)/4 - a^T M^-1 a / 4
    (mod 1): for l = a + 2Mx, l^T M^-1 l = a^T M^-1 a (mod 4).  Checked
    with the dense inverse against each class the walk fills, so a vector
    put in the wrong class fails whenever the two classes' linking values
    differ."""

    def check(self, g, allow_weakly):
        m = g.linking_matrix()
        minv = m.inverse()
        e0 = Fraction(3 * m.signature_and_positive_count()[0] - sum(g.weights), 4)
        for rep, res in compute_zhat_all(g, 1, allow_weakly=allow_weakly):
            if not isinstance(res, EmptySeries):
                link = sum(x * y for x, y in zip(minv.matvec(rep.vector), rep.vector))
                assert (res.delta - e0 + link / 4).denominator == 1, (g, rep)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.one_of(st.sampled_from(WALK_GRAPHS), trees(max_size=7, weights=st.integers(-5, -1))))
    def test_negative_definite(self, g):
        elim = g.elimination()
        assume(elim.is_negative_definite and abs(elim.det) <= 80)
        self.check(g, False)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(one_node_trees(st.integers(-6, -1), st.sampled_from([-2, -1, 1, 2])))
    def test_weakly(self, g):
        elim = g.elimination()
        assume(not elim.is_negative_definite and 0 < abs(elim.det) <= 80)
        try:
            self.check(g, True)
        except NotNegativeDefinite:
            assume(False)

    @pytest.mark.parametrize("path", sorted(DATA.glob("*.plumb")), ids=lambda p: p.stem)
    def test_data_files(self, path):
        self.check(parse_plumb(path.read_text()), True)


@pytest.mark.parametrize("path", sorted(DATA.glob("*.plumb")), ids=lambda p: p.stem)
def test_tail_exponents_are_ints(path):
    # the coefficients stay the shared Fractions c / 2^#high
    for _, r in compute_zhat_all(parse_plumb(path.read_text()), 2, allow_weakly=True):
        if not isinstance(r, EmptySeries):
            assert all(type(e) is int and type(c) is Fraction for e, c in r.tail.terms), r


@pytest.mark.parametrize("alpha", [1, 2, 3, 7])
@pytest.mark.parametrize("lam", [-11, -3, 0, 1, 5, 12])
def test_range_under_square_boundaries(alpha, lam):
    # negative, zero, exact squares hit at both ends of the range, and
    # the values just beside them, against a scan
    discs = [-5, -1, 0]
    for z in range(-6, 7):
        square = (alpha * z + lam) ** 2
        discs += [square - 1, square, square + 1]
    for disc in discs:
        lo, hi = _range_under_square(alpha, lam, disc)
        assert set(range(lo, hi + 1)) == {z for z in range(-40, 41) if (alpha * z + lam) ** 2 <= disc}


# Integer homology spheres, |det M| = 1: Brieskorn stars, Sigma(2, 3, 6k +- 1)
# for k = 1..6 (the E8 tree stands for Sigma(2, 3, 5), which the closed
# form excludes), and the single -1 vertex.
HOMOLOGY_SPHERES = [
    *(build_plumbing(brieskorn_data(*t)) for t in [(2, 9, 11), (3, 7, 8), (2, 5, 7), (3, 4, 5), (5, 6, 7)]),
    *(build_plumbing(brieskorn_data(2, 3, c)) for k in range(1, 7) for c in (6 * k - 1, 6 * k + 1) if c != 5),
    PlumbingGraph((-2,) * 8, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7))),
    PlumbingGraph((-1,), ()),
]


def test_homology_spheres_are_unimodular():
    assert [abs(g.elimination().det) for g in HOMOLOGY_SPHERES] == [1] * len(HOMOLOGY_SPHERES)


class TestHomologySphereContext:
    """|det M| = 1: the context with no Smith rows is the Smith-form one."""

    @pytest.mark.parametrize("g", HOMOLOGY_SPHERES, ids=lambda g: f"s{g.vertex_count}")
    def test_agrees_with_the_smith_form(self, g):
        degrees = g.degree_vector()
        m = g.linking_matrix()
        rows = [[int(x) for x in row] for row in m.rows]
        ctx, dense = _SpinCContext(None, degrees), _SpinCContext(rows, degrees)
        # the empty group, field for field: the Smith path keeps no unit factor
        fields = [(c.d, c.u_int, c.uinv, c.count, c.strides, c.offsets) for c in (ctx, dense)]
        assert fields == [([], [], [[]] * g.vertex_count, 1, [], [])] * 2
        assert ctx.vector_of_index(0) == dense.vector_of_index(0) == tuple(degrees)
        rng = random.Random(g.vertex_count)
        for _ in range(10):
            n = [rng.randint(-3, 3) for _ in degrees]
            vec = [d + 2 * sum(a * x for a, x in zip(row, n)) for d, row in zip(degrees, rows)]
            assert ctx.canonical(vec) == dense.canonical(vec) == SpinCRep(tuple(degrees), 0)
            odd = list(vec)
            odd[rng.randrange(len(odd))] += 1
            for c in (ctx, dense):
                with pytest.raises(ValueError, match="not in 2Z"):
                    c.index_of_vector(odd)
        for idx in (-1, 1, 5):
            messages = []
            for c in (ctx, dense):
                with pytest.raises(ValueError, match="out of range") as exc:
                    c.vector_of_index(idx)
                messages.append(str(exc.value))
            assert messages[0] == messages[1]

    @pytest.mark.parametrize("g", HOMOLOGY_SPHERES, ids=lambda g: f"s{g.vertex_count}")
    def test_setup_uses_the_context_without_smith_rows(self, g):
        ctx = _GraphSetup(g, allow_weakly=False).ctx
        assert (ctx.d, ctx.count) == ([], 1)

    def test_no_smith_form_and_no_dense_matrix(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("not needed for a homology sphere")

        expected = [(compute_zhat(g, 0, order=4), compute_zhat_all(g, 4)) for g in HOMOLOGY_SPHERES]
        monkeypatch.setattr(zhat.engine, "smith_normal_form", forbidden)
        monkeypatch.setattr(PlumbingGraph, "linking_matrix", forbidden)
        monkeypatch.setattr(PlumbingGraph, "linking_rows", forbidden)
        for g, (one, every) in zip(HOMOLOGY_SPHERES, expected):
            assert compute_zhat(g, 0, order=4) == one
            assert compute_zhat_all(g, 4) == every

    def test_weakly_sphere_builds_no_matrix(self, monkeypatch):
        # det -1 and one positive eigenvalue; vertex 5, a weight-0 leaf
        # below vertex 3, is a zero pivot of the elimination
        g = PlumbingGraph((-2, -1, -2, 0, -3, 0), ((0, 1), (0, 2), (0, 4), (2, 3), (3, 5)))
        elim = g.elimination()
        assert elim.det == -1 and elim.subtree_dets[5] == 0 and elim.inertia() == (-4, 1)

        def forbidden(*args, **kwargs):
            raise AssertionError("not needed for a homology sphere")

        monkeypatch.setattr(zhat.engine, "smith_normal_form", forbidden)
        monkeypatch.setattr(PlumbingGraph, "linking_matrix", forbidden)
        monkeypatch.setattr(PlumbingGraph, "linking_rows", forbidden)
        res = compute_zhat(g, 0, order=3, allow_weakly=True)
        assert res.delta == Fraction(-1, 2) and res.prefactor_sign == -1
        assert res.tail.terms == ((Fraction(0), Fraction(-2)), (Fraction(1), Fraction(2)))
        assert compute_zhat_all(g, 3, allow_weakly=True) == [(res.spinc, res)]

    def test_one_smith_form_when_h1_is_nontrivial(self, monkeypatch):
        calls = []

        def counted(m):
            calls.append(len(m))
            return smith_normal_form(m)

        def forbidden(*args, **kwargs):
            raise AssertionError("the Smith form reads integer rows")

        monkeypatch.setattr(zhat.engine, "smith_normal_form", counted)
        monkeypatch.setattr(PlumbingGraph, "linking_matrix", forbidden)
        g = PlumbingGraph((-4, -3, -3, -2), ((0, 1), (0, 2), (0, 3)))
        assert abs(g.elimination().det) > 1
        compute_zhat(g, 0, order=4)
        assert calls == [4]
        compute_zhat_all(g, 4)
        assert calls == [4, 4]


def edge_blow_up(g: PlumbingGraph, u: int, v: int) -> PlumbingGraph:
    """A -1 vertex on the edge u-v, with w_u and w_v each lowered by 1."""
    weights = list(g.weights)
    weights[u] -= 1
    weights[v] -= 1
    x = len(weights)
    edges = [e for e in g.edges if set(e) != {u, v}] + [(u, x), (x, v)]
    return PlumbingGraph((*weights, -1), tuple(edges))


def leaf_blow_up(g: PlumbingGraph, v: int) -> PlumbingGraph:
    """A -1 leaf on v, with w_v lowered by 1."""
    weights = list(g.weights)
    weights[v] -= 1
    return PlumbingGraph((*weights, -1), (*g.edges, (v, len(weights))))


def series_multiset(g: PlumbingGraph, order) -> tuple[Counter, int]:
    """The (delta, tail terms, eta) of every class, and the number of zero classes."""
    results = [res for _, res in compute_zhat_all(g, order)]
    series = Counter((r.delta, r.tail.terms, r.eta_pow2) for r in results if not isinstance(r, EmptySeries))
    return series, sum(isinstance(r, EmptySeries) for r in results)


class TestNeumannMoves:
    """Blowing up an edge or adding a -1 leaf does not change the
    manifold, so the classes' normalized series agree as a multiset.
    Drawn trees have at most 6 vertices and one node of degree >= 3,
    before and after the move, so that zero classes escalate cheaply."""

    @staticmethod
    def moves(seed: int, move):
        rng = random.Random(seed)
        done = 0
        while done < 32:
            n = rng.randint(1, 5)
            g = PlumbingGraph(
                tuple(-rng.randint(1, 4) for _ in range(n)), tuple((rng.randrange(v), v) for v in range(1, n))
            )
            elim = g.elimination()
            # every other tree has one node of degree >= 3, the rest none
            if not elim.is_negative_definite or abs(elim.det) > 24 or len(g.high_degree_vertices()) != done % 2:
                continue
            moved = move(rng, g)
            if moved is None or len(moved.high_degree_vertices()) > 1:
                continue
            assert moved.elimination().is_negative_definite and moved.elimination().det == -elim.det
            done += 1
            yield g, moved

    def test_edge_blow_up(self):
        def move(rng, g):
            return edge_blow_up(g, *rng.choice(g.edges)) if g.edges else None

        for g, moved in self.moves(83, move):
            assert series_multiset(moved, 4) == series_multiset(g, 4), (g, moved)

    def test_leaf_blow_up(self):
        def move(rng, g):
            return leaf_blow_up(g, rng.randrange(g.vertex_count))

        for g, moved in self.moves(89, move):
            assert series_multiset(moved, 4) == series_multiset(g, 4), (g, moved)

    def test_probe_verdict_survives_edge_blow_ups(self):
        # classes 2 and 6 of this two-node tree never meet the support;
        # 15 vertices leave the same verdict, note included
        def verdicts(g):
            return Counter(
                outcome(r) if isinstance(r, EmptySeries) else (r.delta, r.tail.terms, r.eta_pow2)
                for _, r in compute_zhat_all(g, 0)
            )

        g = PlumbingGraph((-4, -1, -4, -4, -2, -2, -1), ((0, 1), (0, 4), (0, 6), (1, 2), (1, 3), (4, 5)))
        moved = g
        for _ in range(8):
            moved = edge_blow_up(moved, *moved.edges[0])
        assert moved.vertex_count == 15
        assert verdicts(g)["series is identically zero (support never meets the coset)"] == 2
        assert verdicts(moved) == verdicts(g)
