"""Record the benchmark's input pool and the expected output digests.

Run from the repository root, at the commit whose outputs define the
expected answers:

    python3 bench/build_pool.py

It rewrites ``bench/pool.json`` and takes several minutes.  The cost
recorded with an entry is a timing scaled by the reference block
(``reference.py``), so that entries timed in slow and in fast periods of
the host compare; it only orders the pool for the stratified draw in
``gen.py``.

Every blow-up of every pool tree is run and must give the tree's digest,
so any edge a seed picks has been checked.  Entries are dropped only for
their cost (the run-length limits below); an output that breaks an
invariant stops the build instead.
"""

from __future__ import annotations

import json
import math
import random
import signal
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import gen
import reference
import run
from digest import cli_class_key, digest, multiset_digest, result_key

POOL_SEED = 2306
MAX_B3 = 130
STAR_VERTICES = range(4, 121)
STARS_PER_VERTEX_COUNT = 4
SMALL_P_TRIPLES = 30
SMALL_P_ORDERS = (10_000, 30_000, 100_000)
ENGINE_SMALL_VERTICES = range(5, 13)
ENGINE_SMALL_PER_COUNT = 12
ENGINE_SMALL_ORDERS = (100, 200, 500, 1000)
ENGINE_SMALL_COST_S = (0.0, 0.3)
ENGINE_WIDE_VERTICES = range(20, 41)
ENGINE_WIDE_PER_COUNT = 3
ENGINE_WIDE_ORDERS = (5, 10, 20)
ENGINE_WIDE_COST_S = (0.25, 1.0)
TREES = 48
TREE_ORDERS = (0, 2, 5)
TREE_COST_S = (0.1, 0.4)  # the tree plus the mean over its blow-ups


def timed(fn, *args, repeat=1, give_up_s=float("inf")):
    """(fastest of ``repeat`` scaled timings, output) of ``fn(*args)``.

    Each timing is scaled by the reference block timed just before and
    just after it.  Repeats stop once a timing exceeds ``give_up_s``.
    """
    best = float("inf")
    for _ in range(repeat):
        ref = reference.sample()[2]
        start = perf_counter()
        out = fn(*args)
        elapsed = perf_counter() - start
        ref += reference.sample()[2]
        best = min(best, elapsed * 2 * reference.NOMINAL_S / ref)
        if best > give_up_s:
            break
    return best, out


def triples_by_vertex_count(brieskorn) -> dict[int, list[tuple[int, int, int]]]:
    by_count = defaultdict(list)
    for b3 in range(3, MAX_B3 + 1):
        for b2 in range(3, b3):
            for b1 in range(2, b2):
                t = (b1, b2, b3)
                if t == (2, 3, 5) or math.gcd(b1, b2) * math.gcd(b1, b3) * math.gcd(b2, b3) != 1:
                    continue
                _, *a = brieskorn.solve_seifert_data(*t)
                count = 1 + sum(len(brieskorn.hj_continued_fraction(bi, ai)) for bi, ai in zip(t, a))
                by_count[count].append(t)
    return by_count


def smallest_p(triples, n):
    return sorted(triples, key=lambda t: (t[0] * t[1] * t[2], t))[:n]


def closed_form_pool(zhat, by_count, rng) -> dict:
    wl = run.ClosedForm(zhat, [], None)

    def entry(t, order):
        item = {"kind": "triple", "triple": list(t), "order": order}
        cost, out = timed(wl.run, item, repeat=3)
        return {**item, "cost_s": round(cost, 6), "digest": wl.output_digest(item, out)}

    stars = []
    for v in STAR_VERTICES:
        pick = by_count.get(v, [])
        for t in sorted(rng.sample(pick, min(STARS_PER_VERTEX_COUNT, len(pick)))):
            stars.append({**entry(t, 200), "vertices": v})
    stars.sort(key=lambda e: e["cost_s"])
    small = smallest_p([t for ts in by_count.values() for t in ts], SMALL_P_TRIPLES)
    small_p = sorted((entry(t, o) for t in small for o in SMALL_P_ORDERS), key=lambda e: e["cost_s"])
    tables = {}
    for table in gen.TABLE_IDS:
        item = {"kind": "table", "table": table}
        tables[table] = wl.output_digest(item, wl.run(item))
    return {"stars": stars, "small_p": small_p, "tables": tables}


def engine_spheres_pool(zhat, by_count, rng) -> dict:
    b = zhat.brieskorn

    def entries(counts, per_count, orders, cost_range):
        out = []
        for v in counts:
            for t in smallest_p(by_count.get(v, []), per_count):
                order = rng.choice(orders)
                data = b.brieskorn_data(*t)
                cost, res = timed(zhat.engine.compute_zhat, b.build_plumbing(data), 0, order,
                                  repeat=3, give_up_s=2 * cost_range[1])
                key = result_key(res)
                if key != result_key(b.zhat0_brieskorn(*t, order, data=data)):
                    sys.exit(f"engine and closed form disagree on {t} at order {order}")
                if cost_range[0] <= cost <= cost_range[1]:
                    out.append({"triple": list(t), "order": order, "vertices": v,
                                "cost_s": round(cost, 6), "digest": digest(key)})
        return sorted(out, key=lambda e: e["cost_s"])

    return {
        "small": entries(ENGINE_SMALL_VERTICES, ENGINE_SMALL_PER_COUNT, ENGINE_SMALL_ORDERS, ENGINE_SMALL_COST_S),
        "wide": entries(ENGINE_WIDE_VERTICES, ENGINE_WIDE_PER_COUNT, ENGINE_WIDE_ORDERS, ENGINE_WIDE_COST_S),
    }


class TooSlow(Exception):
    pass


def _too_slow(signum, frame):
    raise TooSlow


def all_classes_pool(zhat, rng, work_dir) -> dict:
    wl = run.EngineAllClasses(zhat, [], work_dir)
    signal.signal(signal.SIGALRM, _too_slow)

    def graph_run(tree, order, limit_s=0.0):
        """(seconds, multiset digest) of `zhat graph --all` on one tree, or
        None when it runs longer than ``limit_s`` (0: no limit)."""
        path = work_dir / "pool.plumb"
        path.write_text(gen.plumb_text(*tree), encoding="utf-8")
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        try:
            cost, (code, text) = timed(wl.run, {"path": str(path), "order": order})
        except TooSlow:
            return None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        results = json.loads(text)["results"] if code == 0 else None
        det, _ = gen.tree_determinant(*tree)
        if results is None or len(results) != abs(det):
            sys.exit(f"zhat graph failed or miscounted classes on {tree}")
        return cost, multiset_digest(cli_class_key(r) for r in results)

    _, chain = graph_run(gen.ESCALATION_CHAIN, gen.ESCALATION_ORDER)
    _, star = graph_run(gen.ESCALATION_STAR, gen.ESCALATION_ORDER)
    if chain != star:
        sys.exit("the escalation star and its blow-down disagree")
    trees, seen = [], set()
    while len(trees) < TREES:
        tree = gen.random_normal_form_tree(rng)
        order = rng.choice(TREE_ORDERS)
        if tree in seen:
            continue
        seen.add(tree)
        # Random trees include some whose zero classes escalate for seconds.
        limit_s = 4 * TREE_COST_S[1]
        first = graph_run(tree, order, limit_s)
        if first is None or first[0] > TREE_COST_S[1]:
            continue
        cost, want = first
        blowups = [graph_run(gen.edge_blow_up(*tree, k), order, limit_s) for k in range(len(tree[1]))]
        if None in blowups:
            continue
        if any(d != want for _, d in blowups):
            sys.exit(f"a blow-up of {tree} changes the per-class series")
        cost += sum(c for c, _ in blowups) / len(blowups)
        if not TREE_COST_S[0] <= cost <= TREE_COST_S[1]:
            continue
        trees.append({
            "weights": list(tree[0]),
            "edges": [list(e) for e in tree[1]],
            "order": order,
            "cost_s": round(cost, 6),
            "digest": want,
        })
        print(f"  tree {len(trees)}/{TREES}: {tree[0]} det {abs(gen.tree_determinant(*tree)[0])}", flush=True)
    trees.sort(key=lambda e: e["cost_s"])
    return {"escalation_pair": {"digest": chain}, "trees": trees}


def dump_pool(pool: dict) -> str:
    """JSON with one pool entry per line."""
    workloads = []
    for name, lists in sorted(pool.items()):
        fields = []
        for key, value in sorted(lists.items()):
            if isinstance(value, list):
                value = "[\n" + ",\n".join("   " + json.dumps(e, sort_keys=True) for e in value) + "\n  ]"
            else:
                value = json.dumps(value, sort_keys=True)
            fields.append(f"  {json.dumps(key)}: {value}")
        workloads.append(f" {json.dumps(name)}: {{\n" + ",\n".join(fields) + "\n }")
    return "{\n" + ",\n".join(workloads) + "\n}\n"


def main() -> int:
    zhat = run.import_zhat()
    rng = random.Random(POOL_SEED)
    by_count = triples_by_vertex_count(zhat.brieskorn)
    pool = {"closed_form": closed_form_pool(zhat, by_count, rng)}
    print("closed_form done", flush=True)
    pool["engine_spheres"] = engine_spheres_pool(zhat, by_count, rng)
    print("engine_spheres done", flush=True)
    work_dir = run.OUT_DIR / "pool-build"
    work_dir.mkdir(parents=True, exist_ok=True)
    pool["engine_all_classes"] = all_classes_pool(zhat, rng, work_dir)
    Path(gen.POOL_PATH).write_text(dump_pool(pool), encoding="utf-8")
    for name, lists in pool.items():
        print(name, {key: len(value) for key, value in lists.items() if isinstance(value, list)})
    print(f"wrote {gen.POOL_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
