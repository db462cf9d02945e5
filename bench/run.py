"""The zhat benchmark: one command that runs a seeded workload through the
public zhat API and CLI, checks every output, and prints every metric by
name with its unit.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 bench/run.py --workload closed_form --seed 1 --seconds 30 --trace 0

Workloads (see DESIGN.md for why each was chosen):

* ``closed_form``: ``brieskorn_data`` + ``zhat0_brieskorn`` on triples,
  plus the three reference tables of ``generate_table``;
* ``engine_spheres``: ``compute_zhat(build_plumbing(data), 0, order)`` on
  Brieskorn stars, checked term for term against the closed form;
* ``engine_all_classes``: in-process ``zhat graph FILE --all --format
  json`` on trees and their edge blow-ups, plus a fixed pair that shows
  the silent bound escalation.

A pass runs every item of the workload once.  Passes repeat until about
``--seconds`` have passed.  Every timing is scaled to a nominal host speed
by the reference block (``reference.py``) timed around it; ``wall_s`` is
the median scaled pass time and the item percentiles pool the scaled
latencies of every pass.  With ``--trace 1`` untraced and traced passes
alternate and the per-layer metrics are printed instead (per traced pass).  Outputs are checked after each pass,
outside the timed region.  The run is single-process and single-threaded
apart from the set-up probes, each a short child interpreter that the run
waits for.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import gen
import reference
import tracing
from digest import cli_class_key, digest, multiset_digest, result_key, table_digest

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 7
# Untraced runs go on until this many item latencies are measured, so
# that at least ten lie beyond the 90th percentile.
MIN_ITEM_SAMPLES = 100
PROBE_TIMEOUT_S = 60
# During every pass a timer signal times the reference block this
# often, inside items as well as between them.
REFERENCE_INTERVAL_S = 0.25

END_TO_END_UNITS = {
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_zhat():
    """Import the package from this checkout's ``src`` and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    zhat = importlib.import_module("zhat")
    if not Path(zhat.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: zhat imported from {zhat.__file__}, not from {SRC}")
    for name in ("brieskorn", "checks", "cli", "compare", "engine", "plumbing"):
        importlib.import_module(f"zhat.{name}")
    return zhat


# -- workloads ----------------------------------------------------------------


class ClosedForm:
    def __init__(self, zhat, items, work_dir):
        self.brieskorn = zhat.brieskorn
        self.compare = zhat.compare

    def run(self, item):
        if item["kind"] == "table":
            return self.compare.generate_table(item["table"])
        b1, b2, b3 = item["triple"]
        data = self.brieskorn.brieskorn_data(b1, b2, b3)
        return self.brieskorn.zhat0_brieskorn(b1, b2, b3, item["order"], data=data)

    @staticmethod
    def output_digest(item, out) -> str:
        return table_digest(out) if item["kind"] == "table" else digest(result_key(out))

    def check(self, items, outputs, thorough):
        return [self._check(item, out) for item, out in zip(items, outputs)]

    def _check(self, item, out):
        if isinstance(out, Exception):
            return raised(out)
        if self.output_digest(item, out) != item["digest"]:
            return "output differs from the recorded digest"
        if item["kind"] == "table":
            if not all(row.mod1_check for row in out):
                return "a table row fails its mod-1 relation"
        elif (out.delta - Fraction(1, 2)).denominator != 1 or out.tail.terms[0] != (0, 1):
            return "delta0 is not 1/2 mod 1 or the tail does not start with 1"
        return None


class EngineSpheres:
    def __init__(self, zhat, items, work_dir):
        self.brieskorn = zhat.brieskorn
        self.engine = zhat.engine
        # The closed form is the oracle: computed once, outside the timed loop.
        self.data, self.expected = {}, {}
        for item in items:
            key = (tuple(item["triple"]), item["order"])
            data = zhat.brieskorn.brieskorn_data(*key[0])
            self.data[key] = data
            self.expected[key] = result_key(zhat.brieskorn.zhat0_brieskorn(*key[0], key[1], data=data))
        # The invariant suite of the checks module, on the first triple.
        first = items[0]
        suite = zhat.checks.run_invariant_suite(*first["triple"], order=min(first["order"], 50))
        self.suite_failures = [name for name, ok, _ in suite if not ok]
        self.suite_key = (tuple(first["triple"]), first["order"])

    def run(self, item):
        data = self.data[(tuple(item["triple"]), item["order"])]
        return self.engine.compute_zhat(self.brieskorn.build_plumbing(data), 0, item["order"])

    @staticmethod
    def output_digest(item, out) -> str:
        return digest(result_key(out))

    def check(self, items, outputs, thorough):
        return [self._check(item, out) for item, out in zip(items, outputs)]

    def _check(self, item, out):
        if isinstance(out, Exception):
            return raised(out)
        key = (tuple(item["triple"]), item["order"])
        if result_key(out) != self.expected[key]:
            return "engine and closed form disagree"
        if self.output_digest(item, out) != item["digest"]:
            return "output differs from the recorded digest"
        if key == self.suite_key and self.suite_failures:
            return f"invariant suite failed: {self.suite_failures}"
        return None


class EngineAllClasses:
    def __init__(self, zhat, items, work_dir):
        self.cli = zhat.cli
        self.engine = zhat.engine
        self.graphs = {}
        for item in items:
            path = work_dir / f"{item['name']}.plumb"
            path.write_text(item["plumb"], encoding="utf-8")
            item["path"] = str(path)
            self.graphs[item["name"]] = zhat.plumbing.parse_plumb(item["plumb"])
        self.zero_exact = self.zero_escalated = 0

    def run(self, item):
        argv = ["graph", item["path"], "--all", "--order", str(item["order"]), "--format", "json"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(argv)
        return code, buf.getvalue()

    @staticmethod
    def output_digest(item, out) -> str:
        _, text = out
        return multiset_digest(cli_class_key(r) for r in json.loads(text)["results"])

    def check(self, items, outputs, thorough):
        reasons, digests = [], {}
        for item, out in zip(items, outputs):
            reason, digests[item["name"]] = self._check(item, out, thorough)
            reasons.append(reason)
        for i, item in enumerate(items):
            tree = item["name"].removesuffix("-blowup")
            if reasons[i] is None and digests[tree] not in (None, digests[item["name"]]):
                reasons[i] = "blow-up changed the multiset of per-class series"
        return reasons

    def _check(self, item, out, thorough):
        if isinstance(out, Exception):
            return raised(out), None
        code, text = out
        if code != 0:
            return f"exit code {code}", None
        results = json.loads(text)["results"]
        if [r["spinc"]["classIndex"] for r in results] != list(range(item["classes"])):
            return f"{len(results)} classes, but |det M| = {item['classes']}", None
        keys = [cli_class_key(r) for r in results]
        got = multiset_digest(keys)
        if got != item["digest"]:
            return "output differs from the recorded digest", got
        if thorough:
            for r in results:
                if r.get("zero"):
                    if "raise order" in r["note"]:
                        self.zero_escalated += 1
                    else:
                        self.zero_exact += 1
            reason = self._conjugation(item, results, keys)
            if reason:
                return reason, got
        return None, got

    def _conjugation(self, item, results, keys):
        """Zhat_a = Zhat_{-a} for every class a."""
        graph = self.graphs[item["name"]]
        m, deg = graph.linking_matrix(), graph.degree_vector()
        for r, key in zip(results, keys):
            rep = self.engine.SpinCRep.from_json_obj(r["spinc"])
            conj = self.engine.conjugate_spin_c(rep, m, deg)
            if keys[conj.class_index] != key:
                return f"class {rep.class_index} and its conjugate {conj.class_index} differ"
        return None


WORKLOADS = {
    "closed_form": ClosedForm,
    "engine_spheres": EngineSpheres,
    "engine_all_classes": EngineAllClasses,
}


# -- measurement -------------------------------------------------------------


def measure_setup(items, work_dir) -> float:
    """Median over fresh interpreters of: import zhat and its CLI, then read
    and parse this run's inputs."""
    inputs = work_dir / "inputs.json"
    inputs.write_text(json.dumps(items), encoding="utf-8")
    probe = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), str(inputs)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(probe, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        elapsed, ref = map(float, done.stdout.split())
        samples.append(elapsed * reference.NOMINAL_S / ref)
    return statistics.median(samples)


def run_pass(workload, items, tracer=None):
    """Run every item once; returns (item latencies, scaled item latencies,
    outputs).

    The reference block is timed at both ends of the pass and every
    ``REFERENCE_INTERVAL_S`` from a timer signal, inside items too.  An
    item's latency leaves out the block timings made inside it.  Its scaled
    latency is that times ``reference.NOMINAL_S`` over the mean time of the
    block inside it and just before and after it.  In a traced pass the
    block timings are handed to the tracer, which leaves them out of the
    spans.
    """
    times, outputs = [], []
    refs = [reference.sample()]
    if tracer is not None:
        tracer.install()
    signal.signal(signal.SIGALRM, lambda signum, frame: refs.append(reference.sample()))
    signal.setitimer(signal.ITIMER_REAL, REFERENCE_INTERVAL_S, REFERENCE_INTERVAL_S)
    try:
        for k, item in enumerate(items):
            if tracer is not None:
                tracer.item = k
            t0 = perf_counter()
            try:
                out = workload.run(item)
            except Exception as exc:  # a failed item is counted, the run goes on
                out = exc
            times.append((t0, perf_counter()))
            outputs.append(out)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if tracer is not None:
            tracer.uninstall()
    refs.append(reference.sample())
    if tracer is not None:
        tracer.pauses += [(start, end) for start, end, _ in refs]
    # A timer signal runs between two bytecodes, so each timing of the
    # block lies wholly inside or wholly outside an item.
    ends = [end for _, end, _ in refs]
    latencies, scaled = [], []
    for t0, t1 in times:
        lo, hi = bisect.bisect_right(ends, t0), bisect.bisect_right(ends, t1)
        inside = refs[lo:hi]
        around = [r[2] for r in [refs[lo - 1], *inside, refs[hi]]]
        latencies.append(t1 - t0 - sum(end - start for start, end, _ in inside))
        scaled.append(latencies[-1] * reference.NOMINAL_S * len(around) / sum(around))
    return latencies, scaled, outputs


def raised(exc: Exception) -> str:
    return "raised\n" + "".join(traceback.format_exception(exc)).rstrip()


def check_pass(workload, items, outputs, thorough) -> int:
    """Number of failed items; each failure is reported on stderr."""
    failed = 0
    for item, reason in zip(items, workload.check(items, outputs, thorough)):
        if reason:
            failed += 1
            label = item.get("name") or item.get("table") or item.get("triple")
            print(f"FAILED {label} (order {item.get('order')}): {reason}", file=sys.stderr)
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "zhat" / "__init__.py").is_file():
        print(f"error: no zhat sources under {SRC}", file=sys.stderr)
        return 2
    items = gen.make_items(gen.load_pool(), args.workload, args.seed)
    work_dir = OUT_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        return _run(args, items, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run(args, items, work_dir) -> int:
    zhat = import_zhat()
    workload = WORKLOADS[args.workload](zhat, items, work_dir)
    setup_s = measure_setup(items, work_dir)

    tracer = tracing.Tracer() if args.trace else None
    # Per pass, the sum of item latencies: raw, and scaled to the nominal
    # host speed.
    walls = {False: [], True: []}
    scaled_walls = {False: [], True: []}
    latencies = []
    attempted = failed = 0
    start = perf_counter()
    while True:
        traced = tracer is not None and len(walls[False]) > len(walls[True])
        lat, scaled, outputs = run_pass(workload, items, tracer if traced else None)
        walls[traced].append(sum(lat))
        scaled_walls[traced].append(sum(scaled))
        if not traced:
            latencies += scaled
        attempted += len(items)
        failed += check_pass(workload, items, outputs, thorough=(attempted == len(items)))
        elapsed = perf_counter() - start
        enough = walls[True] if tracer else len(latencies) >= MIN_ITEM_SAMPLES
        # No pass is started that is expected to end after --seconds.
        if enough and elapsed * (1 + 1 / (len(walls[False]) + len(walls[True]))) > args.seconds:
            break

    wall_s = statistics.median(scaled_walls[False])
    print(f"workload {args.workload}, seed {args.seed}: {len(items)} items per pass, "
          f"{len(walls[False])} untraced and {len(walls[True])} traced passes")
    if isinstance(workload, EngineAllClasses):
        print(f"zero classes in one pass: {workload.zero_exact} settled exactly, "
              f"{workload.zero_escalated} after bound escalation (counted as zero, not as failures)")
    print("untraced passes, raw and scaled (s): "
          + " ".join(f"{w:.4f}/{v:.4f}" for w, v in zip(walls[False], scaled_walls[False])))
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} items)")
    if tracer is None:
        metrics = {
            "wall_s": wall_s,
            "item_p50_ms": statistics.median(latencies) * 1e3,
            "item_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        print(f"item latencies: {len(latencies)} samples, "
              f"{sum(x * 1e3 > metrics['item_p90_ms'] for x in latencies)} beyond p90")
    else:
        # Per-layer figures are raw means over the traced passes.  The
        # passes they are compared with are averaged the same way, scaled,
        # and brought back to the traced passes' host speed.
        untraced = statistics.fmean(scaled_walls[False])
        traced = statistics.fmean(scaled_walls[True])
        speed = sum(walls[True]) / sum(scaled_walls[True])
        metrics = tracing.summarize(tracer, len(walls[True]), untraced * speed, traced * speed)
        units = tracing.metric_units()
        print(f"mean scaled pass: untraced {untraced:.6g} s, traced {traced:.6g} s")
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"{len(tracer.spans)} spans written to {spans_path.relative_to(BENCH_DIR.parent)}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
