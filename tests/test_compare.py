import json
from fractions import Fraction

import pytest

import zhat.brieskorn
import zhat.compare
from zhat.brieskorn import tail_order_for_terms, zhat0_brieskorn
from zhat.compare import (
    BATCH_TABLE_ROWS,
    D_FAMILY_PREFIX_TERMS,
    DEFAULT_PREFIX_TERMS,
    HOM_COB_TABLE_ROWS,
    ComparisonRow,
    check_mod1_relation,
    counterexample_report,
    d_correction_family,
    generate_table,
    homology_sphere_delta_check,
    mod1_offset,
    rows_to_csv,
    sharpness_analysis,
)


class TestDCorrectionFamily:
    @pytest.mark.parametrize("p,expected", [(2, -2), (3, -2), (4, -6), (5, -6), (6, -12)])
    def test_values(self, p, expected):
        assert d_correction_family(p) == expected

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            d_correction_family(1)


class TestMod1Relation:
    def test_d_family_row(self):
        assert check_mod1_relation(Fraction(1, 2), -2)

    def test_zhs_with_zero_d(self):
        assert check_mod1_relation(Fraction(9, 2), 0)

    def test_surgery_datum_offset(self):
        assert check_mod1_relation(Fraction(-1, 2), 0)
        assert mod1_offset(Fraction(-1, 2), 0) == -1

    def test_fails_off_lattice(self):
        assert not check_mod1_relation(Fraction(1, 3), 0)

    def test_homology_sphere_check(self):
        assert homology_sphere_delta_check(Fraction(9, 2))
        assert homology_sphere_delta_check(Fraction(13, 2))
        assert not homology_sphere_delta_check(Fraction(1, 3))


class TestDFamilyTable:
    def test_recomputed_values(self):
        rows = generate_table("d-family", pmax=6)
        assert [r.triple for r in rows] == [(3, 4, 11), (4, 5, 19), (5, 6, 29), (6, 7, 41)]
        assert [r.delta0 for r in rows] == [
            Fraction(1, 2),
            Fraction(37, 2),
            Fraction(141, 2),
            Fraction(361, 2),
        ]
        assert [r.d_value for r in rows] == [-2, -6, -6, -12]
        assert all(r.mod1_check for r in rows)

    def test_series_prefixes(self):
        rows = generate_table("d-family", pmax=6)
        expected = {
            (3, 4, 11): [(0, 1), (5, -1), (19, -1), (29, -1)],
            (4, 5, 19): [(0, 1), (11, -1), (53, -1), (71, -1), (72, 1), (92, 1)],
            (5, 6, 29): [(0, 1), (19, -1), (111, -1), (139, -1), (140, 1)],
            (6, 7, 41): [(0, 1), (29, -1), (199, -1), (239, -1), (240, 1)],
        }
        for r in rows:
            assert [(int(e), int(c)) for e, c in r.series_prefix.terms] == expected[r.triple]


class TestBatchTable:
    def test_spot_rows(self):
        rows = {r.triple: r for r in generate_table("brieskorn-batch")}
        assert rows[(8, 35, 93)].delta0 == Fraction(9045, 2)
        assert rows[(17, 41, 87)].delta0 == Fraction(24801, 2)
        assert rows[(42, 43, 95)].delta0 == Fraction(76141, 2)
        assert all(r.d_value is None and r.mod1_check for r in rows.values())

    def test_custom_triples(self):
        rows = generate_table("brieskorn-batch", triples=[(2, 9, 11)])
        assert len(rows) == 1
        assert rows[0].delta0 == Fraction(9, 2)


class TestHomCobTable:
    def test_spot_rows(self):
        rows = {r.triple: r for r in generate_table("hom-cob-family")}
        assert rows[(2, 21, 23)].delta0 == Fraction(81, 2)
        assert [(int(e), int(c)) for e, c in rows[(2, 21, 23)].series_prefix.terms] == [
            (0, 1),
            (19, -1),
            (21, -1),
            (44, 1),
        ]
        assert rows[(2, 81, 83)].delta0 == Fraction(1521, 2)

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            generate_table("no-such-table")


class TestOneKernelPassPerRow:
    TABLES = {
        "d-family": [((p, p + 1, p * (p + 1) - 1), D_FAMILY_PREFIX_TERMS.get(p, DEFAULT_PREFIX_TERMS)) for p in range(3, 12)],
        "brieskorn-batch": list(BATCH_TABLE_ROWS),
        "hom-cob-family": list(HOM_COB_TABLE_ROWS),
    }

    @pytest.mark.parametrize("table_id", sorted(TABLES))
    def test_each_row_walks_the_tail_kernel_once(self, monkeypatch, table_id):
        calls = []
        kernel = zhat.brieskorn._tail_terms

        def counted(p, alphas):
            calls.append(p)
            return kernel(p, alphas)

        monkeypatch.setattr(zhat.brieskorn, "_tail_terms", counted)
        monkeypatch.setattr(zhat.compare, "_tail_terms", counted, raising=False)
        rows = generate_table(table_id, pmax=11)
        assert len(rows) == len(self.TABLES[table_id]) and len(calls) == len(rows)

    @pytest.mark.parametrize("table_id", sorted(TABLES))
    def test_prefix_is_the_closed_form_tail_cut_at_its_last_term(self, table_id):
        rows = generate_table(table_id, pmax=11)
        for row, (triple, k) in zip(rows, self.TABLES[table_id]):
            tail = zhat0_brieskorn(*triple, tail_order_for_terms(*triple, k)).tail
            assert row.triple == triple and len(tail.terms) == k
            assert repr(row.series_prefix) == repr(tail) and row.series_prefix.to_json_obj() == tail.to_json_obj()


class TestCounterexampleReport:
    def test_contents(self):
        rep = counterexample_report(order=30)
        by_name = {r["name"]: r for r in rep["manifolds"]}
        assert by_name["S3"]["delta0"] == Fraction(-1, 2)
        assert by_name["Sigma(2,9,11)"]["delta0"] == Fraction(9, 2)
        assert by_name["Sigma(3,7,8)"]["delta0"] == Fraction(13, 2)
        assert rep["pairwise_delta_differences_integer"]
        assert rep["delta0_mod_1_common_value"] == Fraction(1, 2)
        assert all(r["homology_cobordant_to_s3"] for r in rep["manifolds"])

    def test_differences(self):
        rep = counterexample_report(order=30)
        deltas = rep["deltas"]
        assert Fraction(9, 2) - Fraction(-1, 2) == 5
        assert all((a - b).denominator == 1 for a in deltas for b in deltas)


class TestSharpness:
    def test_offsets_and_x(self):
        sharp = sharpness_analysis()
        assert sharp["offsets"] == {"Sigma(2,9,11)": 4, "Sigma(3,7,8)": 6}
        assert sharp["admissible_x_from_plumbed_examples"] == [1, 2]
        assert sharp["surgery_datum"]["offset"] == -1
        assert sharp["admissible_x_overall"] == [1]
        assert sharp["x"] == 1


class TestEmitters:
    def test_csv_shape(self):
        rows = generate_table("d-family", pmax=4)
        csv = rows_to_csv(rows)
        lines = csv.strip().splitlines()
        assert lines[0] == "triple,delta0,d,series_prefix"
        assert lines[1].startswith("3 4 11,1/2,-2,1 - q^5 - q^19 - q^29 + ...")

    def test_row_round_trip(self):
        rows = generate_table("d-family", pmax=4)
        for r in rows:
            back = ComparisonRow.from_json_obj(json.loads(json.dumps(r.to_json_obj())))
            assert back == r
