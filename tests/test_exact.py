import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import det_cofactor
from oracles import brute_force_coset, enumerate_coset_under_bound
from zhat.errors import NotNegativeDefinite, SingularMatrix
from zhat.exact import ExactMatrix, _ldl_ordered, is_negative_definite, smith_normal_form


def random_tree_matrix(rng: random.Random, n: int) -> ExactMatrix:
    """Random negative definite tree linking matrix (diagonally dominant)."""
    rows = [[0] * n for _ in range(n)]
    for v in range(1, n):
        u = rng.randrange(v)
        rows[u][v] = rows[v][u] = 1
    for v in range(n):
        rows[v][v] = -(sum(rows[v]) + rng.randint(1, 4))
    return ExactMatrix(rows)


class TestDeterminant:
    def test_1x1(self):
        assert ExactMatrix([[-1]]).determinant() == -1

    def test_sigma_2_9_11_leg_minor(self, m_2_9_11):
        m1 = m_2_9_11.delete_row_col(1)
        assert abs(m1.determinant()) == 50

    def test_sigma_2_9_11_full(self, m_2_9_11):
        expected = det_cofactor([[int(x) for x in row] for row in m_2_9_11.rows])
        assert expected == 1  # frozen from the cofactor oracle
        assert m_2_9_11.determinant() == 1

    def test_matches_cofactor_oracle_dense(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(1, 5)
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            assert ExactMatrix(rows).determinant() == det_cofactor(rows)

    def test_rational_entries(self):
        m = ExactMatrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]])
        assert m.determinant() == Fraction(1, 14) - Fraction(1, 15)


class TestInverse:
    def test_scalar(self):
        assert ExactMatrix([[-1]]).inverse() == ExactMatrix([[-1]])
        assert ExactMatrix([[-7]]).inverse() == ExactMatrix([[Fraction(-1, 7)]])

    def test_sigma_2_9_11_product_identity(self, m_2_9_11):
        inv = m_2_9_11.inverse()
        assert m_2_9_11.matmul(inv) == ExactMatrix.identity(6)
        # the center diagonal entry of M^{-1} carries the full leg product
        assert inv.entry(0, 0) == -198

    def test_involution_and_det_product(self):
        rng = random.Random(23)
        for _ in range(30):
            n = rng.randint(1, 5)
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            m = ExactMatrix(rows)
            if m.determinant() == 0:
                continue
            inv = m.inverse()
            assert inv.inverse() == m
            assert m.determinant() * inv.determinant() == 1

    def test_singular(self):
        with pytest.raises(SingularMatrix):
            ExactMatrix([[1, 1], [1, 1]]).inverse()


class TestSignature:
    def test_scalar(self):
        assert ExactMatrix([[-1]]).signature_and_positive_count() == (-1, 0)

    def test_negative_definite_trees(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randint(1, 8)
            m = random_tree_matrix(rng, n)
            assert m.signature_and_positive_count() == (-n, 0)

    def test_indefinite(self):
        assert ExactMatrix([[1, 0], [0, -1]]).signature_and_positive_count() == (0, 1)

    def test_zero_diagonal_block(self):
        # hyperbolic plane: eigenvalues +1, -1
        assert ExactMatrix([[0, 1], [1, 0]]).signature_and_positive_count() == (0, 1)

    def test_singular_detected(self):
        with pytest.raises(SingularMatrix):
            ExactMatrix([[1, 1], [1, 1]]).signature_and_positive_count()


class TestNegativeDefiniteStructure:
    def test_plumbing_matrices(self):
        # negative definite linking matrices have negative diagonals and
        # negative definite inverses
        rng = random.Random(29)
        for _ in range(30):
            m = random_tree_matrix(rng, rng.randint(1, 7))
            assert is_negative_definite(m)
            assert all(m.rows[i][i] < 0 for i in range(m.size))
            assert is_negative_definite(m.inverse())

    def test_inverse_not_integral_in_general(self):
        # the [-2] inverse is -1/2: rational inverses are the rule
        assert ExactMatrix([[-2]]).inverse() == ExactMatrix([[Fraction(-1, 2)]])


class TestClassify:
    """The three classes as the engine decides them: negative definite by
    ``is_negative_definite``, weakly by the same test on the block of the
    inverse at the degree >= 3 vertices, and anything else."""

    def test_sigma_2_9_11(self, m_2_9_11):
        assert is_negative_definite(m_2_9_11)

    def test_scalar_negative(self):
        assert is_negative_definite(ExactMatrix([[-1]]))

    def test_positive_definite_is_other(self):
        m = ExactMatrix([[1, 0], [0, 1]])
        assert not is_negative_definite(m)
        assert not is_negative_definite(m.inverse().submatrix([0]))

    def test_weakly_chain(self):
        # chain with weights (0, -1): invertible, not negative definite,
        # vacuously weak (no degree >= 3 vertex: the block is 0 x 0)
        m = ExactMatrix([[0, 1], [1, -1]])
        assert not is_negative_definite(m)
        assert is_negative_definite(m.inverse().submatrix([]))

    def test_singular(self):
        # not negative definite, and without an inverse no weak test either
        m = ExactMatrix([[0, 0], [0, 0]])
        assert not is_negative_definite(m)
        with pytest.raises(SingularMatrix):
            m.inverse()


def sylvester(m: ExactMatrix) -> bool:
    """Sylvester's criterion from the dense determinant (Bareiss with
    pivoting) of every leading block: the k-th minor is nonzero with sign
    (-1)^k."""
    if not m.is_symmetric():
        return False
    minors = [m.submatrix(range(k)).determinant() for k in range(1, m.size + 1)]
    return all(d != 0 and (d < 0) == (k % 2 == 0) for k, d in enumerate(minors))


class TestSylvester:
    def test_against_leading_minors(self):
        rng = random.Random(41)
        seen = Counter()
        for _ in range(600):
            n = rng.randint(0, 5)
            a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))]
            gram = [[sum(r[i] * r[j] for r in a) for j in range(n)] for i in range(n)]
            kind = rng.choice(("random", "gram", "shifted gram"))
            if kind == "random":
                rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
                rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
            else:
                # -(a^T a) is negative semidefinite, singular when a has
                # fewer rows than n; the shift makes it definite
                shift = rng.randint(1, 3) if kind == "shifted gram" else 0
                rows = [[-gram[i][j] - shift * (i == j) for j in range(n)] for i in range(n)]
            scale = Fraction(rng.randint(1, 5), rng.choice((1, 1, 2, 3, 7)))
            m = ExactMatrix([[x * scale for x in row] for row in rows])
            expected = sylvester(m)
            assert is_negative_definite(m) == expected, m
            seen[expected, m.determinant() == 0, n == 0] += 1
        # definite, singular, indefinite and 0 x 0 cases all occurred
        assert seen[True, False, False] and seen[False, True, False] and seen[True, False, True]
        assert sum(c for (nd, singular, _), c in seen.items() if not nd and not singular) > 50

    def test_not_symmetric(self):
        assert not is_negative_definite(ExactMatrix([[-2, 1], [0, -2]]))


class TestSmithNormalForm:
    def check(self, m: ExactMatrix):
        result = smith_normal_form(m)
        # integer rows, the same whether m is given as an ExactMatrix or as rows
        assert all(type(x) is int for rows in result for row in rows for x in row)
        assert smith_normal_form([[int(x) for x in row] for row in m.rows]) == result
        u, d, v = (ExactMatrix(rows) for rows in result)
        assert u.matmul(m).matmul(v) == d
        assert abs(u.determinant()) == 1
        assert abs(v.determinant()) == 1
        diag = [int(d.rows[i][i]) for i in range(d.size)]
        assert all(x == 0 for i, row in enumerate(d.rows) for j, x in enumerate(row) if i != j)
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            if a != 0:
                assert b % a == 0
        return diag

    def test_units_normalized(self):
        diag = self.check(ExactMatrix([[-1]]))
        assert diag == [1]

    def test_scalar(self):
        assert self.check(ExactMatrix([[-7]])) == [7]

    def test_sigma_2_9_11_unimodular(self, m_2_9_11):
        assert self.check(m_2_9_11) == [1, 1, 1, 1, 1, 1]

    def test_non_integral_entry(self):
        with pytest.raises(ValueError, match="integer entries"):
            smith_normal_form(ExactMatrix([[Fraction(1, 2), 0], [0, 1]]))
        with pytest.raises(ValueError, match="integer entries"):
            smith_normal_form([[Fraction(3, 2)]])

    @pytest.mark.parametrize("rows", [[[2.0]], [[-3, 1], [1, -2.0]], [[2.5]], [[0.1]]])
    def test_float_entry_is_a_type_error(self, rows):
        # read through operator.index, as weights and edges are, not truncated by int()
        with pytest.raises(TypeError):
            smith_normal_form(rows)
        # nor taken at its binary value: Fraction(0.1) is 3602879701896397/36028797018963968
        with pytest.raises(TypeError, match="is a float"):
            ExactMatrix(rows)

    def test_exact_entries_are_kept(self):
        m = ExactMatrix([[Fraction(1, 10), 2], ["3/7", -1]])
        assert m.rows == ((Fraction(1, 10), Fraction(2)), (Fraction(3, 7), Fraction(-1)))

    def test_integral_fraction_rows_are_read(self):
        assert smith_normal_form([[Fraction(-3), Fraction(1)], [1, -2]]) == smith_normal_form([[-3, 1], [1, -2]])

    def test_random(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(1, 4)
            m = ExactMatrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
            diag = self.check(m)
            prod = 1
            for x in diag:
                prod *= x
            assert prod == abs(m.determinant())


class TestEnumeration:
    def test_unit_matrix(self):
        got = list(enumerate_coset_under_bound(ExactMatrix([[-1]]), (0,), 4))
        assert set(got) == {(-2,), (0,), (2,)}
        assert len(got) == 3

    def test_coset_membership(self):
        got = set(enumerate_coset_under_bound(ExactMatrix([[-5]]), (2,), 1))
        assert got == {(2,)}  # -2 is not in 10Z + 2

    def test_lexicographic_in_n(self):
        # l = rep + 2*M*n with M = [-1] means l = -2n: n ascending
        got = list(enumerate_coset_under_bound(ExactMatrix([[-1]]), (0,), 16))
        assert got == [(4,), (2,), (0,), (-2,), (-4,)]

    def test_rejects_indefinite(self):
        with pytest.raises(NotNegativeDefinite):
            list(enumerate_coset_under_bound(ExactMatrix([[1]]), (0,), 4))

    def test_against_box_scan(self):
        rng = random.Random(17)
        cases = 0
        while cases < 500:
            n = rng.choice((1, 1, 2, 2))
            if n == 1:
                m = ExactMatrix([[-rng.randint(1, 6)]])
            else:
                b = rng.randint(0, 1)
                d1, d2 = rng.randint(1, 5), rng.randint(1, 5)
                m = ExactMatrix([[-d1, b], [b, -d2]])
                if not is_negative_definite(m):
                    continue
            rep = tuple(rng.randint(-3, 3) * 2 for _ in range(n))
            bound = Fraction(rng.randint(0, 40))
            got = list(enumerate_coset_under_bound(m, rep, bound))
            assert len(set(got)) == len(got)
            assert set(got) == brute_force_coset(m, rep, bound)
            cases += 1

    def test_sigma_2_9_11_minimal_vector_reaches_delta(self, m_2_9_11, g_2_9_11):
        # the smallest exponent over the coset reproduces delta0 = 9/2
        minv = m_2_9_11.inverse()
        delta_vec = g_2_9_11.degree_vector()
        e0 = Fraction(3 * (-6) - (-17), 4)
        best = None
        for l in enumerate_coset_under_bound(m_2_9_11, delta_vec, 40):
            from zhat.engine import vertex_factor_coefficient

            c = Fraction(1)
            for v, lv in enumerate(l):
                c *= vertex_factor_coefficient(delta_vec[v], -lv)
            if c == 0:
                continue
            q = -sum(minv.rows[i][j] * l[i] * l[j] for i in range(6) for j in range(6))
            best = q if best is None else min(best, q)
        assert best is not None
        assert e0 + best / 4 == Fraction(9, 2)


class TestFractionFreeFactors:
    def test_trailing_minors_and_adjugates(self):
        # against the dense determinant and inverse of every trailing block
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(1, 5)
            g = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            a = [[sum(g[k][i] * g[k][j] for k in range(n)) + (i == j) for j in range(n)] for i in range(n)]
            factors = _ldl_ordered(a)
            assert len(factors) == n
            for p, (det, adj) in enumerate(factors):
                block = ExactMatrix([row[p:] for row in a[p:]])
                assert det == block.determinant() > 0
                assert ExactMatrix(adj) == ExactMatrix([[x * det for x in row] for row in block.inverse().rows])

    @pytest.mark.parametrize("rows", [[[0]], [[-1]], [[1, 2], [2, 1]], [[2, 0, 0], [0, 1, 1], [0, 1, 1]]])
    def test_rejects_not_positive_definite(self, rows):
        with pytest.raises(NotNegativeDefinite):
            _ldl_ordered(rows)
