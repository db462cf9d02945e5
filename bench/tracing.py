"""Spans around the calls that cross zhat's module boundaries.

Only the traced run installs the wrappers, and it installs them on the
names callers look up (``zhat.cli.compute_zhat`` as well as
``zhat.engine.compute_zhat``, ``ExactMatrix.inverse`` on the class), so
the package itself is not changed.  Per-lattice-node helpers such as
``_range_under_quadratic`` and ``vertex_factor_coefficient`` are never
wrapped: they run tens of thousands of times per graph and the wrapper
would swamp them.  Their time shows up as the self time of the span that
calls them (for the enumeration, ``engine.compute_zhat``).

Spans are kept in memory as ``[name, start, end, parent, item]`` and
written out at the end of the run; self times are computed from them.
The run's timings of the reference block (``pauses``) may fall inside
spans; they are left out of span times.
"""

from __future__ import annotations

import bisect
import importlib
import itertools
import json
from collections import defaultdict
from time import perf_counter

# metric prefix -> every site "module:attribute" or "module:Class.attribute"
# through which callers reach the function.  The layer is the prefix's
# first component.
TARGETS = {
    "cli.main": ["zhat.cli:main"],
    "plumbing.parse_plumb": ["zhat.cli:parse_plumb"],
    "plumbing.linking_matrix": ["zhat.plumbing:PlumbingGraph.linking_matrix"],
    "exact.determinant": ["zhat.exact:ExactMatrix.determinant"],
    "exact.inverse": ["zhat.exact:ExactMatrix.inverse"],
    "exact.signature": ["zhat.exact:ExactMatrix.signature_and_positive_count"],
    "exact.is_negative_definite": ["zhat.engine:is_negative_definite"],
    "exact.ldl": ["zhat.engine:_ldl_ordered"],
    "exact.smith_normal_form": ["zhat.engine:smith_normal_form"],
    "qseries.false_theta": ["zhat.brieskorn:false_theta"],
    "qseries.normalize": ["zhat.qseries:QSeries.leading_exponent_and_normalize"],
    "brieskorn.brieskorn_data": ["zhat.brieskorn:brieskorn_data", "zhat.compare:brieskorn_data"],
    "brieskorn.leg_determinants": ["zhat.brieskorn:leg_determinants"],
    "brieskorn.zhat0_brieskorn": ["zhat.brieskorn:zhat0_brieskorn", "zhat.compare:zhat0_brieskorn"],
    "engine.compute_zhat": ["zhat.engine:compute_zhat", "zhat.cli:compute_zhat"],
    "engine.spin_c_representatives": ["zhat.cli:spin_c_representatives"],
    "compare.generate_table": ["zhat.compare:generate_table", "zhat.cli:generate_table"],
}

LAYERS = ("plumbing", "exact", "qseries", "brieskorn", "engine", "compare", "cli")

def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {}
    for name in TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["exact.inverse.dim3_sum"] = "count"
    units["exact.smith_normal_form.calls_per_class"] = "ratio"
    units["engine.zero_exact"] = "count"
    units["engine.zero_escalated"] = "count"
    units["engine.zero_escalated.s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    units["trace.self_sum_frac"] = "ratio"
    return units


def _site(site: str):
    module, path = site.split(":")
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.pauses: list[tuple[float, float]] = []
        self.escalated: list[int] = []  # indices of the spans of escalated zero classes
        self.counters: dict[str, float] = defaultdict(float)
        self.item = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._empty_series = importlib.import_module("zhat.errors").EmptySeries

    def install(self) -> None:
        for name, sites in TARGETS.items():
            owners = [_site(s) for s in sites]
            original = getattr(*owners[0])
            if any(getattr(o, a) is not original for o, a in owners):
                raise RuntimeError(f"sites of {name} reach different functions")
            wrapper = self._wrap(name, original)
            for owner, attr in owners:
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item]
            index = len(spans)
            stack.append(index)
            spans.append(span)
            error = None
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                error = exc
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
                self._count(name, index, args, error)

        return wrapper

    def _count(self, name, index, args, error) -> None:
        if name == "exact.inverse":
            self.counters["exact.inverse.dim3_sum"] += args[0].size ** 3
        elif name == "engine.compute_zhat" and isinstance(error, self._empty_series):
            if "raise order" in str(error):
                self.counters["engine.zero_escalated"] += 1
                self.escalated.append(index)
            else:
                self.counters["engine.zero_exact"] += 1

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def summarize(tracer: Tracer, passes: int, untraced_wall: float, traced_wall: float) -> dict:
    """Per-pass per-layer metrics from the recorded spans.

    ``s`` is inclusive time (a span nested in a span of the same name is
    not counted twice); ``self_s`` subtracts the time covered by child
    spans.  ``trace.self_sum_frac`` compares the summed layer self times
    with the untraced pass: the layers account for the untraced wall time
    to within ``trace.overhead_frac`` when the two agree.
    """
    spans = tracer.spans
    pauses = sorted(tracer.pauses)
    pause_ends = [end for _, end in pauses]
    paused_before = [0.0, *itertools.accumulate(end - start for start, end in pauses)]

    def duration(start, end):
        """end - start, less the pauses that lie inside."""
        lo, hi = bisect.bisect_right(pause_ends, start), bisect.bisect_right(pause_ends, end)
        return end - start - (paused_before[hi] - paused_before[lo])

    durations = [duration(start, end) for _, start, end, _, _ in spans]
    child = [0.0] * len(spans)
    for (_, _, _, parent, _), dur in zip(spans, durations):
        if parent >= 0:
            child[parent] += dur
    metrics = defaultdict(float)
    for i, (name, start, end, parent, _) in enumerate(spans):
        dur = durations[i]
        metrics[f"{name}.calls"] += 1
        metrics[f"{name}.self_s"] += dur - child[i]
        metrics[f"{name.split('.')[0]}.self_s"] += dur - child[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            metrics[f"{name}.s"] += dur
    for key, value in tracer.counters.items():
        metrics[key] += value
    metrics["engine.zero_escalated.s"] = sum(durations[i] for i in tracer.escalated)
    units = metric_units()
    out = {key: metrics.get(key, 0.0) / passes for key in units}
    classes = out["engine.compute_zhat.calls"]
    out["exact.smith_normal_form.calls_per_class"] = (
        out["exact.smith_normal_form.calls"] / classes if classes else 0.0
    )
    self_sum = sum(out[f"{layer}.self_s"] for layer in LAYERS)
    out["trace.overhead_frac"] = traced_wall / untraced_wall - 1
    out["trace.self_sum_frac"] = self_sum / untraced_wall - 1
    return out
