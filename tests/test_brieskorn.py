import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zhat.brieskorn import (
    BrieskornData,
    alphas,
    brieskorn_data,
    build_plumbing,
    evaluate_hj,
    false_theta,
    hj_continued_fraction,
    solve_seifert_data,
    tail_order_for_terms,
    zhat0_brieskorn,
)
from zhat.checks import run_invariant_suite
from zhat.compare import homology_sphere_delta_check
from zhat.engine import compute_zhat
from zhat.errors import ConsistencyError, ExcludedTriple, InvalidFraction, InvalidTriple
from zhat.qseries import QSeries


def coprime_triples_up_to(pmax: int):
    """All pairwise coprime 2 <= b1 < b2 < b3 with b1*b2*b3 <= pmax."""
    out = []
    b1 = 2
    while b1 * (b1 + 1) * (b1 + 2) <= pmax:
        for b2 in range(b1 + 1, pmax // b1 + 1):
            if math.gcd(b1, b2) != 1:
                continue
            for b3 in range(b2 + 1, pmax // (b1 * b2) + 1):
                if math.gcd(b1, b3) == 1 and math.gcd(b2, b3) == 1:
                    out.append((b1, b2, b3))
        b1 += 1
    return out


class TestSeifertData:
    def test_sigma_2_9_11(self):
        assert solve_seifert_data(2, 9, 11) == (-1, 1, 2, 3)

    def test_sigma_3_7_8(self):
        assert solve_seifert_data(3, 7, 8) == (-1, 1, 2, 3)

    def test_sigma_2_3_7(self):
        b, a1, a2, a3 = solve_seifert_data(2, 3, 7)
        assert (b, a1, a2, a3) == (-1, 1, 1, 1)
        assert -42 + 21 + 14 + 6 == -1

    def test_invalid(self):
        with pytest.raises(InvalidTriple):
            solve_seifert_data(2, 4, 5)  # not coprime
        with pytest.raises(InvalidTriple):
            solve_seifert_data(9, 2, 11)  # unordered
        with pytest.raises(InvalidTriple):
            solve_seifert_data(1, 2, 3)  # b1 must be >= 2

    def test_normalized_data_is_unique(self):
        # a brute-force search over 0 < a_i < b_i finds one solution of the
        # defining equation per triple, so the triple alone fixes the data
        triples = [
            t for t in itertools.combinations(range(2, 21), 3)
            if all(math.gcd(x, y) == 1 for x, y in itertools.combinations(t, 2))
        ]
        assert len(triples) == 297
        for b1, b2, b3 in triples:
            p = b1 * b2 * b3
            solutions = []
            for a1, a2, a3 in itertools.product(range(1, b1), range(1, b2), range(1, b3)):
                b, r = divmod(-1 - (p // b1) * a1 - (p // b2) * a2 - (p // b3) * a3, p)
                if r == 0:
                    solutions.append((b, a1, a2, a3))
            assert solutions == [solve_seifert_data(b1, b2, b3)]

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.integers(2, 40), st.integers(2, 60), st.integers(2, 80))
    def test_equation_holds_exactly(self, b1, b2, b3):
        t = tuple(sorted({b1, b2, b3}))
        if len(t) != 3 or any(math.gcd(x, y) != 1 for x, y in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2]))):
            return
        b1, b2, b3 = t
        p = b1 * b2 * b3
        b, a1, a2, a3 = solve_seifert_data(b1, b2, b3)
        assert p * b + b2 * b3 * a1 + b1 * b3 * a2 + b1 * b2 * a3 == -1
        assert b < 0
        assert 0 < a1 < b1 and 0 < a2 < b2 and 0 < a3 < b3


class TestContinuedFraction:
    @pytest.mark.parametrize("num,den,expected", [(9, 2, [5, 2]), (11, 3, [4, 3]), (8, 3, [3, 3])])
    def test_worked_examples(self, num, den, expected):
        assert hj_continued_fraction(num, den) == expected

    def test_invalid(self):
        with pytest.raises(InvalidFraction):
            hj_continued_fraction(4, 6)
        with pytest.raises(InvalidFraction):
            hj_continued_fraction(3, 3)
        with pytest.raises(InvalidFraction):
            hj_continued_fraction(2, 5)

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.integers(2, 500), st.integers(1, 499))
    def test_round_trip(self, num, den):
        if den >= num or math.gcd(num, den) != 1:
            return
        ks = hj_continued_fraction(num, den)
        assert all(k >= 2 for k in ks)
        assert evaluate_hj(ks) == Fraction(num, den)

    def test_evaluate_empty_list_is_named(self):
        with pytest.raises(InvalidFraction, match=re.escape("[]")):
            evaluate_hj([])

    def test_evaluate_zero_tail_is_named(self):
        # [1, 1] evaluates to 1 - 1/1 = 0, so [1, 1, 1] would divide by it
        with pytest.raises(InvalidFraction, match=re.escape("[1, 1, 1]")):
            evaluate_hj([1, 1, 1])


class TestAlphas:
    def test_sigma_2_9_11(self):
        assert alphas(2, 9, 11) == (59, 95, 103, 139)

    def test_sigma_3_7_8(self):
        assert alphas(3, 7, 8) == (67, 109, 115, 157)

    def test_sigma_2_13_15(self):
        # cross-checked against the tail gaps 11, 13, 28
        a = alphas(2, 13, 15)
        assert a == (139, 191, 199, 251)
        p = 2 * 13 * 15
        gaps = [(ai * ai - a[0] ** 2) // (4 * p) for ai in a]
        assert gaps == [0, 11, 13, 28]

    def test_alpha_structure_exhaustive_up_to_5000(self):
        triples = coprime_triples_up_to(5000)
        assert len(triples) > 500
        for b1, b2, b3 in triples:
            p = b1 * b2 * b3
            al = alphas(b1, b2, b3)
            assert al[0] == min(al)
            assert all((ai * ai - al[0] ** 2) % (4 * p) == 0 for ai in al)
            if (b1, b2, b3) != (2, 3, 5):
                assert all(0 < ai < 2 * p for ai in al)
                assert Fraction(1, b1) + Fraction(1, b2) + Fraction(1, b3) < 1


class TestBuildPlumbing:
    def test_sigma_2_9_11(self, g_2_9_11):
        data = brieskorn_data(2, 9, 11)
        assert data.leg_fractions == ((2,), (5, 2), (4, 3))
        g = build_plumbing(data)
        assert g.weights == (-1, -2, -5, -2, -4, -3)
        assert g == g_2_9_11

    def test_sigma_3_7_8(self):
        data = brieskorn_data(3, 7, 8)
        g = build_plumbing(data)
        assert g.weights == (-1, -3, -4, -2, -3, -3)
        assert g.degree_vector() == (3, 1, 2, 1, 2, 1)

    def test_single_vertex_leg(self):
        # a [2] leg contributes exactly one vertex
        data = brieskorn_data(2, 3, 7)
        assert data.leg_fractions == ((2,), (3,), (7,))
        assert build_plumbing(data).weights == (-1, -2, -3, -7)


class TestXiDelta0:
    def test_sigma_2_9_11(self):
        d = brieskorn_data(2, 9, 11)
        assert d.h == (50, 3, 2)
        assert d.xi == Fraction(83, 792)
        assert d.delta0 == Fraction(9, 2)

    def test_sigma_3_7_8(self):
        assert brieskorn_data(3, 7, 8).delta0 == Fraction(13, 2)

    def test_sigma_8_35_93(self):
        assert brieskorn_data(8, 35, 93).delta0 == Fraction(9045, 2)

    def test_excluded_triple(self):
        with pytest.raises(ExcludedTriple):
            brieskorn_data(2, 3, 5)

    @pytest.mark.parametrize(
        "triple, error, message",
        [
            ((2, 3, 5), ExcludedTriple, "the closed form needs an extra term for (2, 3, 5)"),
            ((3, 2, 5), InvalidTriple, "need 2 <= b1 < b2 < b3, got (3, 2, 5)"),
            ((2, 4, 5), InvalidTriple, "2 and 4 are not coprime"),
            ((1, 2, 3), InvalidTriple, "need 2 <= b1 < b2 < b3, got (1, 2, 3)"),
        ],
    )
    def test_rejected_triple_messages(self, triple, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            brieskorn_data(*triple)


class TestZhat0:
    def test_sigma_2_9_11_order_30(self):
        res = zhat0_brieskorn(2, 9, 11, 30)
        assert res.delta == Fraction(9, 2)
        assert [(int(e), int(c)) for e, c in res.tail.terms] == [(0, 1), (7, -1), (9, -1), (20, 1)]
        assert res.eta_pow2 == 0

    def test_data_of_another_triple_rejected(self):
        with pytest.raises(ValueError, match=re.escape("data is for the triple (2, 9, 11), not (2, 3, 7)")):
            zhat0_brieskorn(2, 3, 7, 10, data=brieskorn_data(2, 9, 11))
        data = brieskorn_data(2, 3, 7)
        assert zhat0_brieskorn(2, 3, 7, 10, data=data) == zhat0_brieskorn(2, 3, 7, 10)

    def test_negative_order_rejected(self):
        # as compute_zhat: the tail of order -1 would lose its constant term 1
        with pytest.raises(ValueError, match="order must be nonnegative"):
            zhat0_brieskorn(2, 9, 11, -1)

    def test_sigma_2_13_15_prefix(self):
        res = zhat0_brieskorn(2, 13, 15, 210)
        assert res.delta == Fraction(25, 2)
        head = [(int(e), int(c)) for e, c in res.tail.terms[:6]]
        assert head == [(0, 1), (11, -1), (13, -1), (28, 1), (167, -1), (204, 1)]

    def test_sigma_3_4_11_order_35(self):
        # the +q^30 term is the n = alpha4 = 133 contribution
        res = zhat0_brieskorn(3, 4, 11, 35)
        assert res.delta == Fraction(1, 2)
        assert [(int(e), int(c)) for e, c in res.tail.terms] == [
            (0, 1),
            (5, -1),
            (19, -1),
            (29, -1),
            (30, 1),
        ]

    def test_tail_structure_sampled(self):
        rng = random.Random(31)
        triples = [t for t in coprime_triples_up_to(2500) if t != (2, 3, 5)]
        for triple in rng.sample(triples, 40):
            res = zhat0_brieskorn(*triple, 80)
            assert res.tail.terms[0] == (Fraction(0), Fraction(1))
            for e, c in res.tail.terms:
                assert e.denominator == 1 and e >= 0
                assert c in (Fraction(-1), Fraction(1))

    def test_tail_order_for_terms(self):
        for triple, k in (((2, 9, 11), 5), ((2, 81, 83), 6), ((8, 87, 89), 7)):
            order = tail_order_for_terms(*triple, k)
            res = zhat0_brieskorn(*triple, order)
            assert len(res.tail.terms) == k
            assert res.tail.terms[-1][0] == order


def theta_combination_tail(triple, order) -> QSeries:
    """The tail as four one-sided theta series of level p, signed +, -, -,
    + and shifted down by alpha1^2/4p (the closed form's definition)."""
    p = triple[0] * triple[1] * triple[2]
    al = alphas(*triple)
    shift = Fraction(al[0] ** 2, 4 * p)
    terms = [(e, sign * c) for alpha, sign in zip(al, (1, -1, -1, 1)) for e, c in false_theta(p, alpha, shift + order).terms]
    return QSeries.from_terms(terms, shift + order).shift_exponent(-shift)


def sampled_triples(seed: int, count: int):
    rng = random.Random(seed)
    triples = [t for t in coprime_triples_up_to(5000) if t != (2, 3, 5)]
    return rng, rng.sample(triples, count) + [(2, 9, 11), (2, 81, 83), (8, 87, 89)]


class TestThetaProgressions:
    def test_tail_is_the_theta_combination(self):
        rng, triples = sampled_triples(71, 60)
        for triple in triples:
            order = Fraction(rng.randint(0, 300), rng.choice((1, 2, 3, 4)))
            assert zhat0_brieskorn(*triple, order).tail == theta_combination_tail(triple, order), (triple, order)

    def test_tail_order_is_the_kth_theta_exponent(self):
        rng, triples = sampled_triples(73, 40)
        for triple in triples:
            k = rng.randint(1, 9)
            order = 1
            while len((tail := theta_combination_tail(triple, order)).terms) < k:
                order *= 2
            assert tail_order_for_terms(*triple, k) == tail.terms[k - 1][0], (triple, k)

    def test_false_theta_of_a_multiple_of_p_is_zero(self):
        # every coefficient is 1 - 1 = 0, so no progression is left to walk
        rng = random.Random(79)
        for _ in range(100):
            p = rng.randint(1, 60)
            order = Fraction(rng.randint(0, 400), rng.randint(1, 4))
            for a in (0, p * rng.randint(-4, 4)):
                assert false_theta(p, a, order) == QSeries((), order), (p, a, order)

    @pytest.mark.parametrize("order", [-5, Fraction(-1, 4)])
    def test_false_theta_rejects_a_negative_order(self, order):
        for a in (1, 3):  # a series with terms and one without
            with pytest.raises(ValueError, match="^order must be nonnegative$"):
                false_theta(3, a, order)

    @pytest.mark.parametrize("triple", [(2, 4, 6), (3, 2, 7), (2, 3, 5), (1, 2, 3), (2, 4, 5)])
    def test_tail_order_for_terms_rejects_what_brieskorn_data_rejects(self, triple):
        with pytest.raises((InvalidTriple, ExcludedTriple)) as expected:
            brieskorn_data(*triple)
        with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
            tail_order_for_terms(*triple, 3)

    @pytest.mark.parametrize("count", [0, -2])
    def test_tail_order_for_terms_needs_a_count_of_at_least_1(self, count):
        with pytest.raises(ValueError, match=f"^count must be at least 1, got {count}$"):
            tail_order_for_terms(2, 9, 11, count)

    @pytest.mark.parametrize("count", [True, False, 2.0])
    def test_tail_order_for_terms_needs_an_integer_count(self, count):
        with pytest.raises(TypeError, match=f"^count must be an integer, got {count!r}$"):
            tail_order_for_terms(2, 9, 11, count)

    @pytest.mark.parametrize("order", [2.5, 3.0, True, False])
    def test_inexact_orders_are_rejected(self, order):
        # a float is not exact and a bool is not an order; each raises naming the value
        message = re.escape(repr(order))
        with pytest.raises(TypeError, match=message):
            zhat0_brieskorn(2, 3, 7, order)
        with pytest.raises(TypeError, match=message):
            false_theta(3, 1, order)
        with pytest.raises(TypeError, match=message):
            compute_zhat(build_plumbing(brieskorn_data(2, 3, 7)), 0, order)

    @pytest.mark.parametrize("order", [5, Fraction(5, 2), "5/2", "2.5"])
    def test_exact_orders_are_taken(self, order):
        assert zhat0_brieskorn(2, 3, 7, order).tail.order == Fraction(order)
        assert false_theta(3, 1, order).order == Fraction(order)


def theta_tail_oracle(data: BrieskornData, order) -> tuple:
    """The tail from its definition, in Fractions: the coefficient of n >= 0
    is the sum of the signs (+, -, -, +) of the alpha_i with n = +-alpha_i
    mod 2p (the sign negated for -alpha_i), its exponent (n^2 - alpha1^2)/4p,
    and n is kept while that exponent is <= order, compared as Fractions.
    Only the n in the eight progressions are visited (the others have
    coefficient 0): a scan of every n up to order p would take ~10^8 steps
    over the triples below."""
    p, al = data.p, data.alphas
    order = Fraction(order)
    coefficients: dict[int, int] = {}
    for alpha, sign in zip(al, (1, -1, -1, 1)):
        for s in (1, -1):
            n = (s * alpha) % (2 * p)
            while Fraction(n * n - al[0] ** 2, 4 * p) <= order:
                coefficients[n] = coefficients.get(n, 0) + s * sign
                n += 2 * p
    return tuple(
        (Fraction(n * n - al[0] ** 2, 4 * p), Fraction(c)) for n, c in sorted(coefficients.items()) if c
    )


def _replaced(data: BrieskornData, **fields) -> BrieskornData:
    return BrieskornData(**{**{f: getattr(data, f) for f in BrieskornData.__slots__}, **fields})


class TestIntegerKernel:
    """The integer tail kernel (integer cut, one exactness check per
    residue, exponents stepped as e_r + k(r + pk)) against the oracle,
    on every coprime triple with b3 <= 40."""

    TRIPLES = [
        (b1, b2, b3)
        for b3 in range(4, 41)
        for b2 in range(3, b3)
        for b1 in range(2, b2)
        if math.gcd(b1, b2) == math.gcd(b1, b3) == math.gcd(b2, b3) == 1 and (b1, b2, b3) != (2, 3, 5)
    ]

    def test_every_triple_has_the_oracle_tail(self):
        for triple in self.TRIPLES:
            data = brieskorn_data(*triple)
            # below order p every n is a residue (k = 0); order 8p steps to k = 2
            for order in (0, Fraction(7, 2), 30, data.p, 8 * data.p):
                tail = zhat0_brieskorn(*triple, order, data=data).tail
                assert tail.terms == theta_tail_oracle(data, order), (triple, order)
                # the kernel's ints, not Fractions of them
                assert all(type(x) is int for term in tail.terms for x in term), (triple, order)

    def test_tail_order_for_terms_is_the_oracle_exponent(self):
        for triple in self.TRIPLES:
            data = brieskorn_data(*triple)
            order = 1
            while len(terms := theta_tail_oracle(data, order)) < 10:
                order *= 2
            assert [tail_order_for_terms(*triple, k) for k in range(1, 11)] == [e for e, _ in terms[:10]], triple

    def test_data_off_by_one_raises(self):
        for triple in self.TRIPLES:
            data = brieskorn_data(*triple)
            alpha1_off = _replaced(data, alphas=(data.alphas[0] + 1,) + data.alphas[1:])
            for tampered in (alpha1_off, _replaced(data, p=data.p + 1)):
                for order in (0, Fraction(7, 2), 30, data.p):
                    with pytest.raises(ConsistencyError, match=r"^tail exponent \(\d+\^2 - \d+\^2\)/\d+ is not an integer$"):
                        zhat0_brieskorn(*triple, order, data=tampered)


@pytest.mark.parametrize("triple", [(2, 3, 7), (2, 9, 11), (3, 4, 5)])
def test_invariant_suite_passes_its_engine_cross_check(triple):
    results = {name: ok for name, ok, _ in run_invariant_suite(*triple, order=30)}
    assert results["engine-cross-check"] and all(results.values())


class TestLegDeterminantOracle:
    def test_star_determinant_closed_form(self):
        # |det| of a star plumbing with center b and legs n_j/d_j equals
        # |prod n_j| * |b + sum d_j/n_j|; truncating leg i's fraction
        # gives an independent expression for h_i
        rng = random.Random(53)
        triples = [t for t in coprime_triples_up_to(2000) if t != (2, 3, 5)]
        for triple in rng.sample(triples, 30):
            data = brieskorn_data(*triple)
            for i in range(3):
                legs = [list(f) for f in data.leg_fractions]
                legs[i] = legs[i][:-1]
                prod = Fraction(1)
                total = Fraction(data.seifert_b)
                for leg in legs:
                    if leg:
                        frac = evaluate_hj(leg)
                        prod *= frac.numerator
                        total += Fraction(frac.denominator, frac.numerator)
                expected = abs(prod * total)
                assert expected.denominator == 1
                assert data.h[i] == int(expected), (triple, i)


class TestDelta0Mod1:
    def test_sampled_triples(self):
        rng = random.Random(41)
        triples = [t for t in coprime_triples_up_to(3000) if t != (2, 3, 5)]
        sample = rng.sample(triples, 60)
        for triple in sample:
            data = brieskorn_data(*triple)
            assert homology_sphere_delta_check(data.delta0), triple
            assert data.delta0.denominator == 2


class TestConsistencyChecks:
    def test_broken_alpha_structure_raises(self, monkeypatch):
        # the tail exponents are integers only because alpha_i^2 = alpha_1^2
        # (mod 4p); the check must raise (not assert, which python -O strips)
        import zhat.brieskorn

        monkeypatch.setattr(zhat.brieskorn, "alphas", lambda b1, b2, b3: (1, 2, 3, 4))
        with pytest.raises(ConsistencyError):
            tail_order_for_terms(2, 9, 11, 2)
