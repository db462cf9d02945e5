"""Tests of the benchmark itself, on reduced passes.

    python3 -m pytest bench/test_bench.py -q

The escalation pair alone takes about 10 s per engine_all_classes pass,
so these tests take about a minute.
"""

import json
import os
import random
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import reference
import run
import tracing

REDUCED = {
    "CLOSED_FORM_STARS": 4,
    "CLOSED_FORM_SMALL_P": 2,
    "ENGINE_SMALL_STARS": 3,
    "ENGINE_WIDE_STARS": 1,
    "ALL_CLASSES_TREES": 2,
}


@pytest.fixture
def reduced(monkeypatch):
    for name, value in REDUCED.items():
        monkeypatch.setattr(gen, name, value)
    monkeypatch.setattr(run, "MIN_ITEM_SAMPLES", 2)


def bench_units() -> tuple[dict, dict]:
    spec = json.loads((run.BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_reduced_run_prints_every_metric(reduced, capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.1", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = bench_units()[trace]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines), name
    if trace and workload == "engine_all_classes":
        metrics = result["metrics"]
        assert metrics["engine.zero_escalated"]["value"] >= 1
        assert metrics["engine.compute_zhat.calls"]["value"] > metrics["cli.main.calls"]["value"]


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_same_seed_same_inputs_and_output_digests(reduced, tmp_path, workload):
    pool = gen.load_pool()
    items = gen.make_items(pool, workload, 11)
    assert items == gen.make_items(pool, workload, 11)
    assert items != gen.make_items(pool, workload, 12)
    wl = run.WORKLOADS[workload](run.import_zhat(), items, tmp_path)
    runs = []
    for _ in range(2):
        _, _, outputs = run.run_pass(wl, items)
        runs.append([wl.output_digest(item, out) for item, out in zip(items, outputs)])
    assert runs[0] == runs[1] == [item["digest"] for item in items]


def test_scaling_leaves_out_the_reference_timings(monkeypatch):
    """On a fake clock: an item of 0.6 s, interrupted by one timing of the
    reference block that takes 0.1 s and finds the host at half speed."""
    clock = [0.0]

    def block():
        start = clock[0]
        clock[0] += 0.1
        return start, clock[0], 2 * reference.NOMINAL_S

    class Work:
        def run(self, seconds):
            clock[0] += seconds / 2
            os.kill(os.getpid(), signal.SIGALRM)
            clock[0] += seconds / 2

    monkeypatch.setattr(run, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(reference, "sample", block)
    latencies, scaled, _ = run.run_pass(Work(), [0.6, 0.2])
    assert latencies == pytest.approx([0.6, 0.2])
    assert scaled == pytest.approx([0.3, 0.1])


def test_tracer_restores_every_wrapped_name():
    zhat = run.import_zhat()
    before = {name: [getattr(*tracing._site(s)) for s in sites] for name, sites in tracing.TARGETS.items()}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert zhat.cli.compute_zhat is zhat.engine.compute_zhat
        assert zhat.cli.compute_zhat is not before["engine.compute_zhat"][0]
    finally:
        tracer.uninstall()
    after = {name: [getattr(*tracing._site(s)) for s in sites] for name, sites in tracing.TARGETS.items()}
    assert after == before


def test_tree_helpers_agree_with_zhat():
    zhat = run.import_zhat()
    rng = random.Random(3)
    for _ in range(20):
        tree = gen.random_normal_form_tree(rng)
        graph = zhat.PlumbingGraph(*tree)
        det, negative = gen.tree_determinant(*tree)
        assert det == graph.linking_matrix().determinant()
        assert negative
        blown = gen.edge_blow_up(*tree, rng.randrange(len(tree[1])))
        assert gen.tree_determinant(*blown) == (det * -1, True)
        assert zhat.parse_plumb(gen.plumb_text(*blown)) == zhat.PlumbingGraph(*blown)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "closed_form", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
    assert not Path(tmp_path / "bench" / "out").exists()
