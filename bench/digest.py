"""Canonical forms and digests of zhat outputs.

A normalized series is reduced to the key ``[delta, [[exp, coeff], ...],
eta]`` (all rationals as exact strings) and a zero series to ``"zero"``,
whether it came from the API (a ``ZhatResult``) or from the CLI's JSON.
A graph's digest is taken over the sorted keys of its classes, so it is
the multiset of per-class series: a tree and its blow-ups share it.
"""

from __future__ import annotations

import hashlib
import json

ZERO = "zero"


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def result_key(res) -> list:
    """Key of a ``ZhatResult``."""
    return [str(res.delta), [[str(e), str(c)] for e, c in res.tail.terms], res.eta_pow2]


def cli_class_key(obj: dict):
    """Key of one entry of ``zhat graph --format json`` results."""
    if obj.get("zero"):
        return ZERO
    return [obj["delta"], [[t["exp"], t["coeff"]] for t in obj["tail"]["terms"]], obj["eta"]]


def multiset_digest(keys) -> str:
    return digest(sorted(json.dumps(k) for k in keys))


def table_digest(rows) -> str:
    return digest([row.to_json_obj() for row in rows])
