"""Acceptance suite: every criterion is exact (tolerance zero) and prints
one PASS/FAIL line; run with ``pytest tests/test_acceptance.py -v -s``."""

import math
import random
import time
from fractions import Fraction

from oracles import brute_force_coset, enumerate_coset_under_bound
from zhat.brieskorn import (
    alphas,
    brieskorn_data,
    build_plumbing,
    evaluate_hj,
    hj_continued_fraction,
    solve_seifert_data,
    tail_order_for_terms,
    zhat0_brieskorn,
)
from zhat.compare import (
    check_mod1_relation,
    counterexample_report,
    generate_table,
    homology_sphere_delta_check,
)
from zhat.engine import compute_zhat, spin_c_representatives
from zhat.exact import ExactMatrix, is_negative_definite
from zhat.plumbing import PlumbingGraph


def report(num: int, name: str, started: float, limit: float) -> None:
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {num} {name}: PASS ({elapsed:.2f}s, limit {limit:.0f}s)")
    assert elapsed < limit


# (triple, [(exponent, coefficient), ...]) as displayed in the reference
# batch; every sign was re-derived from the theta progressions.
BATCH_EXPECTED = {
    (8, 35, 93): (Fraction(9045, 2), [(0, 1), (237, -1), (643, -1), (896, 1), (3127, -1), (3434, 1)]),
    (17, 41, 87): (Fraction(24801, 2), [(0, 1), (639, -1), (1375, -1), (2048, 1), (3439, -1), (4160, 1)]),
    (17, 53, 100): (Fraction(37441, 2), [(0, 1), (831, -1), (1583, -1), (2448, 1), (5147, -1)]),
    (29, 50, 69): (Fraction(43317, 2), [(0, 1), (1371, -1), (1903, -1), (3331, -1), (3332, 1)]),
    (29, 53, 96): (Fraction(64617, 2), [(0, 1), (1455, -1), (2659, -1), (4172, 1), (4939, -1)]),
    (31, 61, 63): (Fraction(52081, 2), [(0, 1), (1799, -1), (1859, -1), (3719, -1), (3720, 1)]),
    (35, 61, 97): (Fraction(92365, 2), [(0, 1), (2039, -1), (3263, -1), (5372, 1), (5759, -1)]),
    (39, 41, 94): (Fraction(66265, 2), [(0, 1), (1519, -1), (3533, -1), (3719, -1), (5130, 1), (5320, 1)]),
    (41, 51, 95): (Fraction(88737, 2), [(0, 1), (1999, -1), (3759, -1), (4699, -1), (5840, 1)]),
    (42, 43, 95): (Fraction(76141, 2), [(0, 1), (1721, -1), (3853, -1), (3947, -1), (5658, 1), (5754, 1)]),
}

HOM_COB_EXPECTED = {
    (2, 13, 15): (Fraction(25, 2), [(0, 1), (11, -1), (13, -1), (28, 1), (167, -1), (204, 1)]),
    (2, 21, 23): (Fraction(81, 2), [(0, 1), (19, -1), (21, -1), (44, 1)]),
    (2, 81, 83): (Fraction(1521, 2), [(0, 1), (79, -1), (81, -1), (164, 1), (6559, -1), (6800, 1)]),
    (4, 11, 13): (Fraction(97, 2), [(0, 1), (29, -1), (35, -1), (72, 1), (119, -1), (170, 1), (180, 1)]),
    (4, 59, 61): (Fraction(3697, 2), [(0, 1), (173, -1), (179, -1), (360, 1), (3479, -1), (3770, 1)]),
    (6, 17, 19): (Fraction(505, 2), [(0, 1), (79, -1), (89, -1), (180, 1), (287, -1), (400, 1)]),
    (6, 41, 43): (Fraction(3265, 2), [(0, 1), (199, -1), (209, -1), (420, 1), (1679, -1), (1960, 1)]),
    (8, 23, 25): (Fraction(1441, 2), [(0, 1), (153, -1), (167, -1), (336, 1), (527, -1), (726, 1)]),
    # the published display of this row skips the forced head term
    # +q^1232 (exponent (alpha4^2 - alpha1^2)/4p); the full derived
    # prefix is asserted here
    (8, 87, 89): (Fraction(22497, 2), [(0, 1), (601, -1), (615, -1), (1232, 1), (7567, -1), (8342, 1), (8360, 1)]),
}


def test_criterion_1_closed_form_baselines():
    t0 = time.monotonic()
    s3 = compute_zhat(PlumbingGraph((-1,), ()), 0, order=10)
    assert s3.delta == Fraction(-1, 2)
    assert s3.tail.terms == ((Fraction(0), Fraction(-2)), (Fraction(1), Fraction(2)))
    for p in (3, 5, 7, 9):
        res = compute_zhat(PlumbingGraph((-p,), ()), 0, order=10)
        assert res.delta == Fraction(p - 3, 4)
        assert res.tail.terms == ((Fraction(0), Fraction(-2)),)
    report(1, "closed-form baselines S3 and L(p,1)", t0, 1.0)


def test_criterion_2_worked_examples():
    t0 = time.monotonic()
    d = brieskorn_data(2, 9, 11)
    assert d.delta0 == Fraction(9, 2)
    assert d.h == (50, 3, 2)
    assert build_plumbing(d).linking_matrix().trace() == -17
    assert d.alphas == (59, 95, 103, 139)
    p = d.p
    gaps = [(a * a - d.alphas[0] ** 2) // (4 * p) for a in d.alphas[1:]]
    assert gaps == [7, 9, 20]
    d378 = brieskorn_data(3, 7, 8)
    assert d378.delta0 == Fraction(13, 2)
    assert d378.alphas == (67, 109, 115, 157)
    report(2, "worked examples Sigma(2,9,11) and Sigma(3,7,8)", t0, 1.0)


def test_criterion_3_cross_oracle_equivalence():
    t0 = time.monotonic()
    for triple in ((2, 3, 7), (2, 9, 11), (3, 4, 11), (3, 7, 8)):
        data = brieskorn_data(*triple)
        closed = zhat0_brieskorn(*triple, 100, data=data)
        engine = compute_zhat(build_plumbing(data), 0, order=100)
        assert engine.delta == closed.delta
        assert engine.tail.terms == closed.tail.terms
        assert engine.eta_pow2 == closed.eta_pow2 == 0
    report(3, "engine matches closed form to order 100", t0, 30.0)


def test_criterion_4_d_family_table():
    t0 = time.monotonic()
    rows = generate_table("d-family", pmax=6)
    assert [r.delta0 for r in rows] == [Fraction(1, 2), Fraction(37, 2), Fraction(141, 2), Fraction(361, 2)]
    assert [r.d_value for r in rows] == [-2, -6, -6, -12]
    for r in rows:
        assert check_mod1_relation(r.delta0, r.d_value)
        assert r.mod1_check
    report(4, "surgery-family table with d column", t0, 5.0)


def test_criterion_5_batch_table():
    t0 = time.monotonic()
    for triple, (delta0, terms) in BATCH_EXPECTED.items():
        res = zhat0_brieskorn(*triple, tail_order_for_terms(*triple, len(terms)))
        assert res.delta == delta0, triple
        assert [(int(e), int(c)) for e, c in res.tail.terms[: len(terms)]] == terms, triple
    # q^79 coefficient of the Sigma(2,9,11) tail: the derived value is -1
    # (one conflicting published display shows +1; exact recomputation and
    # the theta progressions both give -1)
    tail = zhat0_brieskorn(2, 9, 11, 100).tail
    assert tail.coefficient(79) == -1
    print("ACCEPTANCE 5 note: Sigma(2,9,11) q^79 coefficient = -1 (exact; flagged sign discrepancy)")
    report(5, "large batch delta0 and series prefixes", t0, 60.0)


def test_criterion_6_hom_cob_family_table():
    t0 = time.monotonic()
    for triple, (delta0, terms) in HOM_COB_EXPECTED.items():
        res = zhat0_brieskorn(*triple, tail_order_for_terms(*triple, len(terms)))
        assert res.delta == delta0, triple
        assert [(int(e), int(c)) for e, c in res.tail.terms[: len(terms)]] == terms, triple
    report(6, "homology-cobordant family delta0 and prefixes", t0, 60.0)


def test_criterion_7_property_suites():
    t0 = time.monotonic()
    rng = random.Random(20260809)

    # Seifert equation exactness (>= 500 random coprime triples)
    cases = 0
    while cases < 500:
        b1 = rng.randint(2, 40)
        b2 = rng.randint(b1 + 1, 90)
        b3 = rng.randint(b2 + 1, 160)
        if math.gcd(b1, b2) != 1 or math.gcd(b1, b3) != 1 or math.gcd(b2, b3) != 1:
            continue
        p = b1 * b2 * b3
        b, a1, a2, a3 = solve_seifert_data(b1, b2, b3)
        assert p * b + b2 * b3 * a1 + b1 * b3 * a2 + b1 * b2 * a3 == -1
        cases += 1

    # continued-fraction round trip (>= 500 cases)
    cases = 0
    while cases < 500:
        num = rng.randint(2, 400)
        den = rng.randint(1, num - 1)
        if math.gcd(num, den) != 1:
            continue
        ks = hj_continued_fraction(num, den)
        assert all(k >= 2 for k in ks)
        assert evaluate_hj(ks) == Fraction(num, den)
        cases += 1

    # alpha structure over every coprime triple with p <= 5000
    checked = 0
    for b1 in range(2, 18):
        for b2 in range(b1 + 1, 5000 // b1 + 1):
            if math.gcd(b1, b2) != 1:
                continue
            for b3 in range(b2 + 1, 5000 // (b1 * b2) + 1):
                if math.gcd(b1, b3) != 1 or math.gcd(b2, b3) != 1:
                    continue
                p = b1 * b2 * b3
                al = alphas(b1, b2, b3)
                assert al[0] == min(al)
                assert all((a * a - al[0] ** 2) % (4 * p) == 0 for a in al)
                if (b1, b2, b3) != (2, 3, 5):
                    assert all(0 < a < 2 * p for a in al)
                checked += 1
    assert checked > 500

    # delta0 = 1/2 mod 1 and tail structure for computed spheres
    results = []
    triples = set()
    while len(triples) < 40:
        b1 = rng.randint(2, 10)
        b2 = rng.randint(b1 + 1, 25)
        b3 = rng.randint(b2 + 1, 60)
        if (b1, b2, b3) == (2, 3, 5):
            continue
        if math.gcd(b1, b2) != 1 or math.gcd(b1, b3) != 1 or math.gcd(b2, b3) != 1:
            continue
        triples.add((b1, b2, b3))
    for triple in sorted(triples):
        res = zhat0_brieskorn(*triple, 60)
        results.append(res)
        assert homology_sphere_delta_check(res.delta)
    for res in results:
        assert res.tail.terms and res.tail.terms[0][0] == 0 and res.tail.terms[0][1] != 0
        assert all(e.denominator == 1 and e >= 0 for e, _ in res.tail.terms)

    # Spin^c class count equals |det M| (>= 500 cases)
    for _ in range(500):
        n = rng.randint(1, 3)
        rows = [[0] * n for _ in range(n)]
        for v in range(1, n):
            u = rng.randrange(v)
            rows[u][v] = rows[v][u] = 1
        for v in range(n):
            rows[v][v] = -(sum(rows[v]) + rng.randint(1, 5))
        m = ExactMatrix(rows)
        deg = [sum(1 for j in range(n) if j != i and rows[i][j]) for i in range(n)]
        assert len(spin_c_representatives(m, deg)) == abs(int(m.determinant()))

    # enumeration completeness against a brute-force box scan (500 cases)
    cases = 0
    while cases < 500:
        n = rng.choice((1, 2))
        if n == 1:
            m = ExactMatrix([[-rng.randint(1, 6)]])
        else:
            b = rng.randint(0, 1)
            m = ExactMatrix([[-rng.randint(1, 5), b], [b, -rng.randint(1, 5)]])
            if not is_negative_definite(m):
                continue
        rep = tuple(2 * rng.randint(-3, 3) for _ in range(n))
        bound = Fraction(rng.randint(0, 30))
        assert set(enumerate_coset_under_bound(m, rep, bound)) == brute_force_coset(m, rep, bound)
        cases += 1

    report(7, "property suites", t0, 120.0)


def test_criterion_8_counterexample_report():
    t0 = time.monotonic()
    rep = counterexample_report(order=30)
    deltas = {r["name"]: r["delta0"] for r in rep["manifolds"]}
    assert deltas == {
        "S3": Fraction(-1, 2),
        "Sigma(2,9,11)": Fraction(9, 2),
        "Sigma(3,7,8)": Fraction(13, 2),
    }
    values = list(deltas.values())
    assert all((a - b).denominator == 1 for a in values for b in values)
    assert rep["pairwise_delta_differences_integer"]
    assert rep["delta0_mod_1_common_value"] == Fraction(1, 2)
    report(8, "homology cobordism counterexample report", t0, 10.0)
