"""Seeded inputs for the zhat benchmark.

The program under test receives only what this module produces:
Brieskorn triples with a tail order, the ids of the reference tables, and
PLUMB v1 texts of plumbing trees.

Every input is drawn from the fixed pool in ``pool.json``, which
``build_pool.py`` wrote together with the expected output digest of each
entry, so whatever a seed draws has a digest to be checked against.  The
draw is stratified: each pool list is sorted by its recorded cost and cut into
as many contiguous bins as the workload takes items from it, and the seed
picks one entry per bin.  Two seeds therefore give different inputs of
nearly the same total cost, which keeps the spread between runs small.

This module imports nothing from ``zhat``: the tree generator, the edge
blow-up and the determinant used to check the class count are the
benchmark's own.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

POOL_PATH = Path(__file__).resolve().parent / "pool.json"

# Items per pass taken from each pool list.
CLOSED_FORM_STARS = 100
CLOSED_FORM_SMALL_P = 20
ENGINE_SMALL_STARS = 40
ENGINE_WIDE_STARS = 10
ALL_CLASSES_TREES = 36

TABLE_IDS = ("d-family", "brieskorn-batch", "hom-cob-family")

# The pair that shows the silent bound escalation: the star is the chain
# blown up by a -1 leaf on its middle vertex.  The star's class 2 is zero
# and costs 20 bound doublings before "raise order", while the same class
# of the chain is settled as zero at once.
ESCALATION_STAR = ((-3, -2, -2, -1), ((0, 1), (0, 2), (0, 3)))
ESCALATION_CHAIN = ((-2, -2, -2), ((0, 1), (1, 2)))
ESCALATION_ORDER = 0


def load_pool(path: Path = POOL_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def stratified(rng: random.Random, entries: list, n: int) -> list:
    """One entry from each of ``n`` contiguous bins of ``entries``."""
    if n > len(entries):
        raise ValueError(f"pool list has {len(entries)} entries, need {n}")
    bounds = [round(i * len(entries) / n) for i in range(n + 1)]
    return [entries[rng.randrange(lo, hi)] for lo, hi in zip(bounds, bounds[1:])]


# -- plumbing trees ---------------------------------------------------------


def tree_determinant(weights, edges) -> tuple[Fraction, bool]:
    """(det M, M negative definite) by leaf-first elimination of the tree.

    Eliminating a leaf v with pivot p adds -1/p to its neighbour's pivot;
    det M is the product of the pivots and M is negative definite iff
    every pivot is negative (Sylvester).
    """
    n = len(weights)
    adj = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    pivot = [Fraction(w) for w in weights]
    det = Fraction(1)
    negative = True
    stack = [v for v in range(n) if len(adj[v]) <= 1]
    done = [False] * n
    while stack:
        v = stack.pop()
        if done[v]:
            continue
        done[v] = True
        p = pivot[v]
        if p == 0:
            return Fraction(0), False
        det *= p
        negative = negative and p < 0
        for u in adj[v]:
            adj[u].discard(v)
            pivot[u] -= 1 / p
            if len(adj[u]) <= 1:
                stack.append(u)
    return det, negative


def random_normal_form_tree(rng: random.Random, det_range=(10, 100)):
    """A negative definite tree with 4 to 9 vertices, every weight at most
    -2, at most two nodes (vertices of degree >= 3) and |det M| in
    ``det_range``."""
    while True:
        n = rng.randint(4, 9)
        edges = [(rng.randrange(i), i) for i in range(1, n)]
        degree = [0] * n
        for a, b in edges:
            degree[a] += 1
            degree[b] += 1
        if sum(d >= 3 for d in degree) > 2:
            continue
        weights = [-2 - (rng.randint(1, 3) if rng.random() < 0.35 else 0) for _ in range(n)]
        det, negative = tree_determinant(weights, edges)
        if negative and det_range[0] <= abs(det) <= det_range[1]:
            return tuple(weights), tuple(edges)


def edge_blow_up(weights, edges, k: int):
    """Insert a -1 vertex on edge ``k``; both ends lose 1 from their weight.

    This is the inverse of blowing down a -1 vertex of degree 2, so the
    manifold, |det M| and the normalized series of every class stay the
    same.
    """
    a, b = edges[k]
    new = len(weights)
    w = list(weights) + [-1]
    w[a] -= 1
    w[b] -= 1
    e = [edge for i, edge in enumerate(edges) if i != k] + [(a, new), (new, b)]
    return tuple(w), tuple(e)


def plumb_text(weights, edges) -> str:
    lines = [str(len(weights)), " ".join(str(x) for x in weights)]
    lines += [f"{a + 1} {b + 1}" for a, b in edges]
    return "\n".join(lines) + "\n"


# -- workloads --------------------------------------------------------------


def make_items(pool: dict, workload: str, seed: int) -> list[dict]:
    """The items of one pass of ``workload``, drawn with ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "closed_form":
        entries = pool["closed_form"]
        items = [
            {"kind": "triple", "triple": e["triple"], "order": e["order"], "digest": e["digest"]}
            for e in stratified(rng, entries["stars"], CLOSED_FORM_STARS)
            + stratified(rng, entries["small_p"], CLOSED_FORM_SMALL_P)
        ]
        items += [
            {"kind": "table", "table": t, "digest": entries["tables"][t]} for t in TABLE_IDS
        ]
        return items
    if workload == "engine_spheres":
        entries = pool["engine_spheres"]
        return [
            {"kind": "sphere", "triple": e["triple"], "order": e["order"], "digest": e["digest"]}
            for e in stratified(rng, entries["small"], ENGINE_SMALL_STARS)
            + stratified(rng, entries["wide"], ENGINE_WIDE_STARS)
        ]
    if workload == "engine_all_classes":
        entries = pool["engine_all_classes"]
        fixed = entries["escalation_pair"]
        items = [
            _graph_item("chain", ESCALATION_CHAIN, ESCALATION_ORDER, fixed),
            _graph_item("chain-blowup", ESCALATION_STAR, ESCALATION_ORDER, fixed),
        ]
        for i, e in enumerate(stratified(rng, entries["trees"], ALL_CLASSES_TREES)):
            tree = (tuple(e["weights"]), tuple(tuple(x) for x in e["edges"]))
            blown = edge_blow_up(*tree, rng.randrange(len(tree[1])))
            items.append(_graph_item(f"tree{i}", tree, e["order"], e))
            items.append(_graph_item(f"tree{i}-blowup", blown, e["order"], e))
        return items
    raise ValueError(f"unknown workload {workload!r}")


def _graph_item(name: str, tree, order: int, entry: dict) -> dict:
    det, _ = tree_determinant(*tree)
    return {
        "kind": "graph",
        "name": name,
        "plumb": plumb_text(*tree),
        "order": order,
        "classes": abs(int(det)),
        "digest": entry["digest"],
    }
