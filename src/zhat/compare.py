"""Correction-term comparisons, reference tables, and invariance reports.

The leading exponent delta_0 of a negative definite plumbed integral
homology sphere always lies in 1/2 + Z, and relates to the Heegaard
Floer correction term d by delta = 1/2 - d (mod 1).  This module checks
those relations, each by ``mod1_offset`` (d = 0 for a homology sphere),
rebuilds the reference tables for three Brieskorn families from scratch,
and assembles the report showing that delta_0 separates manifolds that are homology cobordant to the 3-sphere (so it
is not a homology cobordism invariant, while its value mod 1 is).

Correction terms outside the closed-form surgery family are not
computed here; where one is needed it is carried as data tagged as an
external result.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice
from typing import Sequence

from .brieskorn import _tail_terms, brieskorn_data, zhat0_brieskorn
from .engine import compute_zhat
from .errors import ConsistencyError, Record
from .plumbing import PlumbingGraph
from .qseries import QSeries, json_fraction, json_ints, json_value, reading_json

_set = object.__setattr__

# d(S^3_{-1/2}(4_1)) and the matching leading exponent; external result,
# not recomputed here (general correction terms are out of scope).
SURGERY_SHARPNESS_DATUM = {
    "name": "S3_{-1/2}(4_1)",
    "delta0": Fraction(-1, 2),
    "d": 0,
    "status": "external result (not recomputed)",
}

# (triple, number of displayed series terms) for the reference tables.
D_FAMILY_PREFIX_TERMS = {3: 4, 4: 6, 5: 5, 6: 5}

BATCH_TABLE_ROWS: tuple[tuple[tuple[int, int, int], int], ...] = (
    ((8, 35, 93), 6),
    ((17, 41, 87), 6),
    ((17, 53, 100), 5),
    ((29, 50, 69), 5),
    ((29, 53, 96), 5),
    ((31, 61, 63), 5),
    ((35, 61, 97), 5),
    ((39, 41, 94), 6),
    ((41, 51, 95), 5),
    ((42, 43, 95), 6),
)

# All nine are Sigma(p, p*q - 1, p*q + 1) with p even and q odd: they bound
# contractible 4-manifolds, so are homology cobordant to S^3; external result.
HOM_COB_TABLE_ROWS: tuple[tuple[tuple[int, int, int], int], ...] = (
    ((2, 13, 15), 6),
    ((2, 21, 23), 4),
    ((2, 81, 83), 6),
    ((4, 11, 13), 7),
    ((4, 59, 61), 6),
    ((6, 17, 19), 6),
    ((6, 41, 43), 6),
    ((8, 23, 25), 6),
    ((8, 87, 89), 7),
)

DEFAULT_PREFIX_TERMS = 6


def d_correction_family(p: int) -> int:
    """Correction term for +1 surgery on the (p, p+1) torus knot,
    i.e. for the reverse-oriented Sigma(p, p+1, p(p+1)-1)."""
    if p < 2:
        raise ValueError("p must be at least 2")
    half = p // 2
    return -half * (half + 1)


def mod1_offset(delta: Fraction, d) -> Fraction:
    """The exact difference delta - (1/2 - d); integral iff the relation holds."""
    return Fraction(delta) - (Fraction(1, 2) - Fraction(d))


def check_mod1_relation(delta: Fraction, d) -> bool:
    """True iff delta = 1/2 - d (mod 1)."""
    return mod1_offset(delta, d).denominator == 1


def homology_sphere_delta_check(delta: Fraction) -> bool:
    """True iff delta = 1/2 (mod 1): the relation with d = 0."""
    return check_mod1_relation(delta, 0)


class ComparisonRow(Record):
    __slots__ = ("triple", "delta0", "d_value", "series_prefix", "mod1_check")
    triple: tuple[int, int, int]
    delta0: Fraction
    d_value: int | None
    series_prefix: QSeries
    mod1_check: bool

    def __init__(self, triple, delta0, d_value, series_prefix, mod1_check):
        _set(self, "triple", triple)
        _set(self, "delta0", delta0)
        _set(self, "d_value", d_value)
        _set(self, "series_prefix", series_prefix)
        _set(self, "mod1_check", mod1_check)

    def to_json_obj(self) -> dict:
        return {
            "triple": list(self.triple),
            "delta0": str(self.delta0),
            "d": self.d_value,
            "seriesPrefix": self.series_prefix.to_json_obj(),
            "seriesPrefixText": self.series_prefix.text(ellipsis=True),
            "mod1Check": self.mod1_check,
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "ComparisonRow":
        with reading_json("ComparisonRow"):
            return ComparisonRow(
                json_ints(obj["triple"]),
                json_fraction(obj["delta0"]),
                json_value(obj["d"], int, type(None)),
                QSeries.from_json_obj(obj["seriesPrefix"]),
                json_value(obj["mod1Check"], bool),
            )


def _row(triple: tuple[int, int, int], prefix_terms: int, d_value: int | None) -> ComparisonRow:
    data = brieskorn_data(*triple)
    terms = tuple(list(islice(_tail_terms(data.p, data.alphas), prefix_terms)))  # one pass of the kernel
    prefix = QSeries(terms, Fraction(terms[-1][0]))  # cut at the last term's exponent
    return ComparisonRow(triple, data.delta0, d_value, prefix, check_mod1_relation(data.delta0, d_value or 0))


def generate_table(table_id: str, pmax: int = 6, triples: Sequence[tuple[int, int, int]] | None = None) -> list[ComparisonRow]:
    """Recompute a reference table from scratch.

    ``d-family``: Sigma(p, p+1, p(p+1)-1) for p = 3..pmax, with the
    closed-form d column.  ``brieskorn-batch``: the given triples (a
    default batch of ten when omitted).  ``hom-cob-family``: nine
    members of the families homology cobordant to S^3.  A table with
    no rows (pmax below 3, an empty list of triples) is a ValueError.
    """
    if table_id == "d-family":
        if pmax < 3:
            raise ValueError(f"d-family runs over p = 3..pmax, so pmax = {pmax} gives no rows")
        rows = []
        for p in range(3, pmax + 1):
            triple = (p, p + 1, p * (p + 1) - 1)
            terms = D_FAMILY_PREFIX_TERMS.get(p, DEFAULT_PREFIX_TERMS)
            rows.append(_row(triple, terms, d_correction_family(p)))
        return rows
    if table_id == "brieskorn-batch":
        if triples is None:
            return [_row(t, k, None) for t, k in BATCH_TABLE_ROWS]
        if not triples:
            raise ValueError("brieskorn-batch was given no triples")
        return [_row(tuple(t), DEFAULT_PREFIX_TERMS, None) for t in triples]
    if table_id == "hom-cob-family":
        return [_row(t, k, None) for t, k in HOM_COB_TABLE_ROWS]
    raise ValueError(f"unknown table id {table_id!r}")


def rows_to_csv(rows: Sequence[ComparisonRow]) -> str:
    """Fixed column order: triple, delta0, d (or empty), series prefix."""
    lines = ["triple,delta0,d,series_prefix"]
    for r in rows:
        d = "" if r.d_value is None else str(r.d_value)
        lines.append(f"{r.triple[0]} {r.triple[1]} {r.triple[2]},{r.delta0},{d},{r.series_prefix.text(ellipsis=True)}")
    return "\n".join(lines) + "\n"


def counterexample_report(order: int = 100) -> dict:
    """Recompute the data showing the leading exponent is not a homology
    cobordism invariant.

    S^3, Sigma(2, 9, 11) and Sigma(3, 7, 8) are pairwise homology
    cobordant (external result), yet their delta_0 values are -1/2, 9/2
    and 13/2; only the value mod 1 agrees.
    """
    s3 = compute_zhat(PlumbingGraph((-1,), ()), 0, order=order)
    rows = [
        {
            "name": "S3",
            "delta0": s3.delta,
            "series_text": f"q^({s3.delta}) * ({s3.tail.text()})",
            "homology_cobordant_to_s3": True,
            "cobordism_status": "trivially (S3 itself)",
        }
    ]
    for triple in ((2, 9, 11), (3, 7, 8)):
        res = zhat0_brieskorn(*triple, order)
        rows.append(
            {
                "name": f"Sigma({triple[0]},{triple[1]},{triple[2]})",
                "delta0": res.delta,
                "series_text": f"q^({res.delta}) * ({res.tail.prefix(8).text(ellipsis=True)})",
                "homology_cobordant_to_s3": True,
                "cobordism_status": "external result (not recomputed)",
            }
        )
    deltas = [r["delta0"] for r in rows]
    diffs_integer = all((a - b).denominator == 1 for a in deltas for b in deltas)
    return {
        "manifolds": rows,
        "deltas": deltas,
        "pairwise_delta_differences_integer": diffs_integer,
        "delta0_mod_1_common_value": Fraction(1, 2) if all(homology_sphere_delta_check(d) for d in deltas) else None,
        "conclusion": "delta_0 takes three different values on one homology cobordism class, so neither the series nor delta_0 is a homology cobordism (or cobordism) invariant; delta_0 mod 1 agrees across the class",
    }


def sharpness_analysis() -> dict:
    """Replay the divisor argument bounding the modulus x in
    delta = 1/2 - d (mod x).

    The two recomputed offsets 4 and 6 force x | gcd(4, 6), so x <= 2;
    the recorded surgery datum with offset -1 then forces x = 1.
    """
    offsets = {}
    for triple in ((2, 9, 11), (3, 7, 8)):
        delta0 = brieskorn_data(*triple).delta0
        # d = d(S^3) = 0 for these: homology cobordant to S^3 (external result)
        offsets[triple] = mod1_offset(delta0, 0)
    if any(off.denominator != 1 for off in offsets.values()):
        raise ConsistencyError(f"delta0 offsets {offsets} are not all integers")
    g = math.gcd(*(abs(int(off)) for off in offsets.values()))
    admissible = sorted(x for x in range(1, g + 1) if g % x == 0)
    datum = SURGERY_SHARPNESS_DATUM
    datum_offset = mod1_offset(datum["delta0"], datum["d"])
    final = [x for x in admissible if int(datum_offset) % x == 0]
    return {
        "offsets": {f"Sigma({t[0]},{t[1]},{t[2]})": int(off) for t, off in offsets.items()},
        "admissible_x_from_plumbed_examples": admissible,
        "surgery_datum": {**datum, "offset": int(datum_offset)},
        "admissible_x_overall": final,
        "x": final[-1] if final else None,
    }
