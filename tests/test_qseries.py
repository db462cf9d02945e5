import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zhat.brieskorn import BrieskornData, brieskorn_data, false_theta
from zhat.compare import ComparisonRow
from zhat.engine import SpinCRep, ZhatResult, compute_zhat
from zhat.errors import EmptySeries, FormatError
from zhat.plumbing import PlumbingGraph
from zhat.qseries import QSeries


def series(pairs, order) -> QSeries:
    return QSeries.from_terms([(Fraction(e), Fraction(c)) for e, c in pairs], Fraction(order))


def psi_oracle(p: int, a: int, n: int) -> int:
    """Literal case rule for the theta coefficient."""
    if (n - a) % (2 * p) == 0 and (n + a) % (2 * p) == 0:
        return 0
    if (n - a) % (2 * p) == 0:
        return 1
    if (n + a) % (2 * p) == 0:
        return -1
    return 0


def add(*parts: QSeries) -> QSeries:
    """Termwise sum, at the smallest of the orders: ``from_terms`` merges
    equal exponents, drops zeros and cuts what lies above the order."""
    return QSeries.from_terms([t for x in parts for t in x.terms], min(x.order for x in parts))


class TestAdd:
    def test_cancellation(self):
        a = series([(Fraction(1, 2), 1)], 10)
        b = series([(Fraction(1, 2), -1)], 10)
        assert add(a, b).is_zero()

    def test_identity(self):
        x = series([(0, 1), (7, -1)], 20)
        assert add(x, QSeries((), Fraction(20))) == x

    def test_order_is_min(self):
        a = series([(1, 1)], 5)
        b = series([(2, 1), (7, 1)], 9)
        assert add(a, b) == series([(1, 1), (2, 1)], 5)

    def test_theta_combination_exponents(self):
        # signed combination for Sigma(2, 9, 11): leading exponents are alpha_i^2/792
        p = 198
        signs = zip((59, 95, 103, 139), (1, -1, -1, 1))
        exps = QSeries.from_terms([(e, sign * c) for a, sign in signs for e, c in false_theta(p, a, 60).terms], 60).exponents()[:4]
        assert exps == (
            Fraction(59**2, 792),
            Fraction(95**2, 792),
            Fraction(103**2, 792),
            Fraction(139**2, 792),
        )

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.data())
    def test_associative_commutative(self, data):
        def rand_series(d):
            n = d.draw(st.integers(0, 5))
            pairs = [
                (Fraction(d.draw(st.integers(-8, 8)), d.draw(st.integers(1, 4))), d.draw(st.integers(-3, 3)))
                for _ in range(n)
            ]
            return series(pairs, 10)

        a, b, c = rand_series(data), rand_series(data), rand_series(data)
        assert add(a, b) == add(b, a)
        assert add(add(a, b), c) == add(a, add(b, c)) == add(a, b, c)


class TestShift:
    def test_worked_example(self):
        base = series([(0, 1), (7, -1)], 30)
        shifted = base.shift_exponent(Fraction(9, 2))
        assert shifted.terms == (
            (Fraction(9, 2), Fraction(1)),
            (Fraction(9, 2) + 7, Fraction(-1)),
        )
        assert shifted.order == Fraction(69, 2)

    def test_zero_shift(self):
        x = series([(1, 2), (3, 4)], 9)
        assert x.shift_exponent(0) == x

    def test_normalizes_theta_head(self):
        p, a = 198, 59
        th = false_theta(p, a, 30)
        head = th.shift_exponent(-Fraction(a * a, 4 * p))
        assert head.terms[0] == (Fraction(0), Fraction(1))


class TestLeadingExponent:
    def test_s3_series(self):
        zhat = series([(Fraction(-1, 2), -2), (Fraction(1, 2), 2)], 10)
        delta, tail, eta = zhat.leading_exponent_and_normalize()
        assert delta == Fraction(-1, 2)
        assert tail.terms == ((Fraction(0), Fraction(-2)), (Fraction(1), Fraction(2)))
        assert eta == 0

    def test_sigma_2_9_11_series(self):
        zhat = series([(Fraction(9, 2), 1), (Fraction(9, 2) + 7, -1), (Fraction(9, 2) + 9, -1)], 20)
        delta, tail, eta = zhat.leading_exponent_and_normalize()
        assert delta == Fraction(9, 2)
        assert tail.exponents() == (0, 7, 9)
        assert eta == 0

    def test_half_coefficient(self):
        delta, tail, eta = series([(3, Fraction(1, 2))], 5).leading_exponent_and_normalize()
        assert (delta, eta) == (3, 1)
        assert tail.terms == ((Fraction(0), Fraction(1, 2)),)

    def test_empty_raises(self):
        with pytest.raises(EmptySeries):
            QSeries((), Fraction(10)).leading_exponent_and_normalize()


class TestFalseTheta:
    def test_derived_example(self):
        # n runs over {59, 337, 455} below order 300 for (p, a) = (198, 59)
        th = false_theta(198, 59, 300)
        assert th.terms == (
            (Fraction(3481, 792), Fraction(1)),
            (Fraction(113569, 792), Fraction(-1)),
            (Fraction(207025, 792), Fraction(1)),
        )
        # gaps 139 and 257 over the leading exponent
        gaps = [e - th.terms[0][0] for e, _ in th.terms]
        assert gaps == [0, 139, 257]

    def test_leading_term(self):
        # smallest admissible n is a for a < p, but 2p - a beyond that
        rng = random.Random(1)
        for _ in range(200):
            p = rng.randint(2, 60)
            a = rng.randint(1, 2 * p - 1)
            if a % p == 0:
                continue
            th = false_theta(p, a, p)
            if a < p:
                assert th.terms[0] == (Fraction(a * a, 4 * p), Fraction(1))
            else:
                assert th.terms[0] == (Fraction((2 * p - a) ** 2, 4 * p), Fraction(-1))

    def test_self_conjugate_cancels(self):
        # a = -a mod 2p: every candidate coefficient is 1 - 1 = 0
        assert false_theta(5, 5, 100).is_zero()
        assert false_theta(3, 0, 100).is_zero()

    def test_matches_psi_oracle(self):
        rng = random.Random(9)
        for _ in range(120):
            p = rng.randint(1, 25)
            a = rng.randint(0, 4 * p)
            order = rng.randint(0, 60)
            th = false_theta(p, a, order)
            expected = {}
            n = 0
            while Fraction(n * n, 4 * p) <= order:
                c = psi_oracle(p, a, n)
                if c:
                    expected[Fraction(n * n, 4 * p)] = Fraction(c)
                n += 1
            assert dict(th.terms) == expected
            assert all(type(c) is int for _, c in th.terms)

    def test_gap_integrality(self):
        # every exponent differs from a^2/4p by an integer, nonnegative
        # whenever a <= p (for larger a the 2p - a progression dips below)
        rng = random.Random(4)
        for _ in range(200):
            p = rng.randint(2, 40)
            a = rng.randint(1, 2 * p - 1)
            th = false_theta(p, a, 50)
            lead = Fraction(a * a, 4 * p)
            for e, _ in th.terms:
                gap = e - lead
                assert gap.denominator == 1
                if a <= p:
                    assert gap >= 0


class TestIntOrFractionTerms:
    """Terms are ints or Fractions; equal values are the same series."""

    def test_ints_and_fractions_are_equal_with_equal_hashes(self):
        ints = QSeries(((0, 1), (7, -1), (9, -2)), 10)
        fractions = QSeries(((Fraction(0), Fraction(1)), (Fraction(7), Fraction(-1)), (Fraction(9), Fraction(-2))), Fraction(10))
        assert ints == fractions and hash(ints) == hash(fractions)
        assert ints.to_json_obj() == fractions.to_json_obj() and ints.text() == fractions.text()

    def test_absent_coefficient_is_the_int_zero(self):
        x = series([(Fraction(1, 2), 3)], 10)
        assert x.coefficient(Fraction(1, 2)) == 3
        assert type(x.coefficient(5)) is int and x.coefficient(5) == 0


class TestSerialization:
    def test_round_trip(self):
        x = series([(Fraction(9, 2), 1), (Fraction(23, 2), -1)], Fraction(200))
        assert QSeries.from_json_obj(x.to_json_obj()) == x

    def test_schema(self):
        x = series([(Fraction(9, 2), 1)], 200)
        assert x.to_json_obj() == {"terms": [{"exp": "9/2", "coeff": "1"}], "order": "200"}

    def test_text(self):
        x = series([(0, 1), (7, -1), (9, -1), (20, 1)], 30)
        assert x.text() == "1 - q^7 - q^9 + q^20"
        assert x.text(ellipsis=True) == "1 - q^7 - q^9 + q^20 + ..."
        y = series([(0, -2), (1, 2)], 10)
        assert y.text() == "-2 + 2q"
        z = series([(Fraction(1, 2), -2)], 10)
        assert z.text() == "-2q^(1/2)"


MISSING = object()


def changed(obj: dict, key: str, value=MISSING) -> dict:
    """A copy of ``obj`` with ``key`` set to ``value``, or removed."""
    out = dict(obj)
    if value is MISSING:
        del out[key]
    else:
        out[key] = value
    return out


SERIES = series([(Fraction(9, 2), 1)], 200).to_json_obj()
RESULT = compute_zhat(PlumbingGraph((-5,), ()), 1, order=3).to_json_obj()
SPINC = RESULT["spinc"]
ROW = ComparisonRow((2, 9, 11), Fraction(9, 2), None, QSeries.from_json_obj(SERIES), True).to_json_obj()
BRIESKORN = brieskorn_data(2, 9, 11).to_json_obj()

# For each reader: a missing key, a zero denominator, a field that is not
# an integer (or not of its type).
MALFORMED = {
    "QSeries-missing": (QSeries, changed(SERIES, "order")),
    "QSeries-zero-denominator": (QSeries, {"terms": [], "order": "1/0"}),
    "QSeries-non-integer": (QSeries, changed(SERIES, "terms", [{"exp": 0.5, "coeff": "1"}])),
    "QSeries-not-an-object": (QSeries, None),
    "SpinCRep-missing": (SpinCRep, changed(SPINC, "classIndex")),
    "SpinCRep-zero-denominator": (SpinCRep, changed(SPINC, "vector", ["1/0"])),
    "SpinCRep-non-integer": (SpinCRep, changed(SPINC, "classIndex", 1.5)),
    "ZhatResult-missing": (ZhatResult, {"spinc": None}),
    "ZhatResult-zero-denominator": (ZhatResult, changed(RESULT, "delta", "1/0")),
    "ZhatResult-non-integer": (ZhatResult, changed(RESULT, "eta", "1")),
    "ZhatResult-bad-tail": (ZhatResult, changed(RESULT, "tail", changed(SERIES, "order", "3/0"))),
    "ComparisonRow-missing": (ComparisonRow, changed(ROW, "mod1Check")),
    "ComparisonRow-zero-denominator": (ComparisonRow, changed(ROW, "delta0", "9/0")),
    "ComparisonRow-non-integer": (ComparisonRow, changed(ROW, "d", 0.5)),
    "BrieskornData-missing": (BrieskornData, changed(BRIESKORN, "h")),
    "BrieskornData-zero-denominator": (BrieskornData, changed(BRIESKORN, "xi", "1/0")),
    "BrieskornData-non-integer": (BrieskornData, changed(BRIESKORN, "legFractions", [[2, 1.0]])),
}


class TestReadersRejectMalformed:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_format_error(self, case):
        cls, obj = MALFORMED[case]
        with pytest.raises(FormatError):
            cls.from_json_obj(obj)

    @pytest.mark.parametrize("cls, obj", [(QSeries, SERIES), (SpinCRep, SPINC), (ZhatResult, RESULT), (ComparisonRow, ROW), (BrieskornData, BRIESKORN)])
    def test_well_formed_round_trips(self, cls, obj):
        assert cls.from_json_obj(obj).to_json_obj() == obj
