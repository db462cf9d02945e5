"""Golden-bytes check of the CLI, runnable with or without pytest.

    PYTHONPATH=src python tests/golden.py            # compare with the recording
    PYTHONPATH=src python tests/golden.py --record   # rewrite the recording
    PYTHONPATH=src python tests/golden.py --record graph_d4_star ...  # only these cases

Each case runs ``zhat.cli.main`` in process, in a scratch directory that
holds a copy of every ``tests/data/*.plumb`` file (and one copy under a
non-ASCII name), so the file paths in the JSON envelope do not depend on
where the repository lives.  Stdout is compared byte for byte with
``tests/data/golden/<case>.stdout``; the exit code and stderr with
``tests/data/golden/status.json``.

Run as a script, it also checks the per-class output of ``graph --all``
and ``delta --all`` against the classes' records from
``compute_zhat_all`` (in JSON through ``json.dumps`` of their
``to_json_obj()``) on every input file, on seeded random trees and on
``EXTRA_GRAPHS``, and the JSON of ``graph`` and ``delta --spinc i``
against ``compute_zhat(g, i)`` for every class i of every input file, so
interpreters without pytest get every check (``tests/test_golden.py``
runs the same cases under pytest).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden"
NON_ASCII_NAME = "lentille-é-空間.plumb"

CASES = {
    "graph_escalation_star": ["graph", "escalation_star.plumb", "--all", "--order", "0", "--format", "json"],
    "graph_det51_star": ["graph", "det51_star.plumb", "--all", "--order", "6", "--format", "json"],
    "graph_lens_chain": ["graph", "lens_chain.plumb", "--all", "--order", "10", "--format", "json"],
    "graph_d4_star": ["graph", "d4_star.plumb", "--all", "--order", "10", "--format", "json"],
    "graph_d4_star_text": ["graph", "d4_star.plumb", "--all", "--order", "10"],
    "graph_weakly_star": [
        "graph", "weakly_star.plumb", "--all", "--order", "5", "--format", "json", "--experimental-weakly",
    ],
    "graph_weakly_zero_pivot": [
        "graph", "weakly_zero_pivot.plumb", "--all", "--order", "2", "--format", "json", "--experimental-weakly",
    ],
    "graph_det51_spinc": ["graph", "det51_star.plumb", "--spinc", "7", "--order", "6", "--format", "json"],
    "graph_escalation_star_zero_spinc": [
        "graph", "escalation_star.plumb", "--spinc", "2", "--order", "0", "--format", "json",
    ],
    "graph_det51_star_rational": ["graph", "det51_star.plumb", "--all", "--order", "7/3", "--format", "json"],
    "graph_lens_chain_rational_text": ["graph", "lens_chain.plumb", "--all", "--order", "1/2"],
    "graph_two_node_tree_rational": ["graph", "two_node_tree.plumb", "--all", "--order", "5/2", "--format", "json"],
    "graph_two_node_probe": ["graph", "two_node_probe.plumb", "--all", "--order", "0", "--format", "json"],
    "graph_period_one_star": ["graph", "period_one_star.plumb", "--all", "--order", "3", "--format", "json"],
    "graph_non_ascii_path": ["graph", NON_ASCII_NAME, "--all", "--order", "5", "--format", "json"],
    "graph_not_negative_definite": ["graph", "weakly_star.plumb", "--all", "--format", "json"],
    "delta_lens_chain": ["delta", "lens_chain.plumb", "--all", "--format", "json"],
    "delta_det51_star": ["delta", "det51_star.plumb", "--all", "--format", "json"],
    "delta_four_leaf_star": ["delta", "four_leaf_star.plumb", "--all", "--format", "json"],
    "delta_det51_spinc": ["delta", "det51_star.plumb", "--spinc", "7", "--format", "json"],
    "delta_escalation_star_zero_spinc": ["delta", "escalation_star.plumb", "--spinc", "2", "--format", "json"],
    "brieskorn_2_9_11": ["brieskorn", "2", "9", "11", "--format", "json"],
    "table_d_family": ["table", "d-family", "--format", "json"],
    "check_2_9_11": ["check", "2", "9", "11", "--format", "json"],
    "report": ["report", "--format", "json"],
}


def run_case(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``zhat.cli.main(argv)`` run in a
    scratch directory with the inputs."""
    from zhat.cli import main

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        for path in DATA.glob("*.plumb"):
            shutil.copy(path, work)
        shutil.copy(DATA / "lens_chain.plumb", Path(work) / NON_ASCII_NAME)
        out, err = io.StringIO(), io.StringIO()
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def mismatches(name: str) -> list[str]:
    """What differs between a fresh run of case ``name`` and its recording."""
    status = json.loads((GOLDEN / "status.json").read_text(encoding="utf-8"))[name]
    if status["argv"] != CASES[name]:
        return [f"recorded with {status['argv']}, not {CASES[name]}: record again"]
    code, out, err = run_case(CASES[name])
    want_code, want_out, want_err = status["exit"], (GOLDEN / f"{name}.stdout").read_bytes(), status["stderr"]
    problems = []
    if code != want_code:
        problems.append(f"exit code {code}, recorded {want_code}")
    if out.encode("utf-8") != want_out:
        problems.append("stdout differs from the recording")
    if err != want_err:
        problems.append(f"stderr {err!r}, recorded {want_err!r}")
    return problems


def record(names: list[str]) -> None:
    """Record the named cases again; the other recordings stay as they are."""
    path = GOLDEN / "status.json"
    status = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for name in names:
        code, out, err = run_case(CASES[name])
        (GOLDEN / f"{name}.stdout").write_bytes(out.encode("utf-8"))
        status[name] = {"argv": CASES[name], "exit": code, "stderr": err}
    status = {name: status[name] for name in CASES if name in status}
    path.write_text(json.dumps(status, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")


# -- the per-class writer of graph and delta ---------------------------------

DIFFERENTIAL_ORDERS = ("0", "3", "1/2", "7/3")
DIFFERENTIAL_TREES = 40

# Graphs of the differential besides tests/data and the random trees, each
# with the cap on bound doublings it runs under (None: the engine's own).
# The lens space has thousands of classes, nearly all zero.  The two-node
# tree's class 2 ends in "raise order", which takes minutes at the
# engine's cap and well under a second at 4 doublings.  The star
# (-3; three legs of four -2) has H_1 = Z/5 + Z/15: its classes come in
# runs of 5 in which some coordinates repeat.
EXTRA_GRAPHS = {
    "lens_3001.plumb": ("1\n-3001\n", None),
    "two_node_raise_order.plumb": ("6\n-3 -3 -2 -2 -1 -1\n1 2\n1 3\n1 4\n2 5\n2 6\n", 4),
    "star_5_15.plumb": (
        "13\n-3 -2 -2 -2 -2 -2 -2 -2 -2 -2 -2 -2 -2\n1 2\n2 3\n3 4\n4 5\n1 6\n6 7\n7 8\n8 9\n1 10\n10 11\n11 12\n12 13\n",
        None,
    ),
}


@contextlib.contextmanager
def doublings_cap(cap: int | None):
    """The engine's cap on bound doublings set to ``cap`` (None: left as it is)."""
    import zhat.engine

    saved = zhat.engine._MAX_BOUND_DOUBLINGS
    if cap is not None:
        zhat.engine._MAX_BOUND_DOUBLINGS = cap
    try:
        yield
    finally:
        zhat.engine._MAX_BOUND_DOUBLINGS = saved


def oracle_output(
    command: str, path: str, order: str | None, weakly: bool, text: bool = False, spinc: int | None = None
) -> str:
    """What ``zhat graph|delta PATH --all`` printed before its per-class
    writer, from ``compute_zhat_all``, whose zero classes are EmptySeries
    (with ``spinc``, what ``--spinc`` prints, from ``compute_zhat`` of that
    class, or the EmptySeries it raises): in JSON the envelope of the
    classes' ``to_json_obj()`` records, through ``json.dumps``; in text one
    line per class, or per class and field."""
    from zhat import __version__
    from zhat.engine import compute_zhat, compute_zhat_all
    from zhat.errors import EmptySeries
    from zhat.plumbing import parse_plumb

    graph = parse_plumb(Path(path).read_text(encoding="utf-8"))
    if spinc is None:
        results = compute_zhat_all(graph, Fraction(order or 0), allow_weakly=weakly)
    else:
        try:
            res = compute_zhat(graph, spinc, Fraction(order or 0), allow_weakly=weakly)
        except EmptySeries as exc:
            res = exc
        results = [(res.spinc, res)]
    if text:
        lines = []
        for rep, res in results:
            if command == "delta":
                value = "undefined (zero series)" if isinstance(res, EmptySeries) else str(res.delta)
                lines.append(f"class {rep.class_index}: delta = {value}")
                continue
            label = f"class {rep.class_index} (rep {list(rep.vector)})"
            if isinstance(res, EmptySeries):
                lines.append(f"{label}: zhat = 0 ({res})")
                continue
            lines.append(f"{label}: delta = {res.delta}")
            lines.append(f"{label}: zhat = q^({res.delta}) * ({res.tail.text()})")
            if res.eta_pow2:
                lines.append(f"{label}: eta = {res.eta_pow2} (coefficients in Z/2^eta)")
        return "".join(line + "\n" for line in lines)
    if command == "graph":
        inputs = {"file": path, "order": str(Fraction(order))}
        payload = [
            {"spinc": rep.to_json_obj(), "zero": True, "note": str(res)}
            if isinstance(res, EmptySeries) else res.to_json_obj()
            for rep, res in results
        ]
    else:
        inputs = {"file": path}
        payload = [
            {"spinc": rep.to_json_obj(), "delta": None if isinstance(res, EmptySeries) else str(res.delta)}
            for rep, res in results
        ]
    envelope = {
        "command": command,
        "inputs": inputs,
        "results": payload,
        "toolVersion": __version__,
        "truncationOrder": str(Fraction(order)) if command == "graph" else None,
    }
    return json.dumps(envelope, indent=2, default=str) + "\n"


def streamed_mismatch(
    command: str,
    path: str,
    order: str | None = None,
    weakly: bool = False,
    text: bool = False,
    cap: int | None = None,
    spinc: int | None = None,
) -> str | None:
    """How the CLI's ``--all`` output (with ``spinc``, its ``--spinc``
    output; JSON, or ``text``) differs from ``oracle_output``, or None;
    both run under ``doublings_cap(cap)``."""
    from zhat.cli import main

    argv = [command, path] + (["--all"] if spinc is None else ["--spinc", str(spinc)])
    argv += [] if text else ["--format", "json"]
    argv += ["--order", order] if order is not None else []
    argv += ["--experimental-weakly"] if weakly else []
    out = io.StringIO()
    with doublings_cap(cap):
        with contextlib.redirect_stdout(out):
            code = main(argv)
        want = oracle_output(command, path, order, weakly, text, spinc)
    if code != 0:
        return f"{argv}: exit code {code}"
    source = "compute_zhat_all" if spinc is None else "compute_zhat"
    return None if out.getvalue() == want else f"{argv}: output differs from the records of {source}"


def random_tree_plumb(rng: random.Random) -> str:
    """PLUMB text of a random negative definite tree of at most five
    vertices: at most one vertex of degree >= 3, whose escalation stops
    at its certified bound."""
    from zhat.plumbing import PlumbingGraph, format_plumb

    while True:
        n = rng.randint(1, 5)
        edges = tuple((rng.randrange(v), v) for v in range(1, n))
        graph = PlumbingGraph(tuple(rng.randint(-6, -1) for _ in range(n)), edges)
        if graph.elimination().is_negative_definite:
            return format_plumb(graph)


def cases_of(paths: list[str], cap: int | None = None) -> list[tuple]:
    """``streamed_mismatch`` arguments for each of ``paths``: ``delta``, and
    ``graph`` at every order of DIFFERENTIAL_ORDERS, each in JSON and in
    text; the weakly negative definite ``weakly_*`` files with
    ``--experimental-weakly``."""
    return [
        (command, path, order, Path(path).name.startswith("weakly_"), text, cap)
        for path in paths
        for command, order in [("delta", None)] + [("graph", order) for order in DIFFERENTIAL_ORDERS]
        for text in (False, True)
    ]


def differential_cases(work: Path, trees: int, seed: int) -> list[tuple]:
    """``cases_of`` every ``tests/data/*.plumb`` and of ``trees`` seeded
    random trees, written to ``work``."""
    rng = random.Random(seed)
    paths = [str(p) for p in sorted(DATA.glob("*.plumb"))]
    for i in range(trees):
        path = work / f"tree-{seed}-{i}.plumb"
        path.write_text(random_tree_plumb(rng), encoding="utf-8")
        paths.append(str(path))
    return cases_of(paths)


def spinc_cases() -> list[tuple]:
    """``streamed_mismatch`` arguments for ``graph`` and ``delta --spinc i``
    in JSON, for every class i of every ``tests/data/*.plumb`` file, graph
    at the orders of DIFFERENTIAL_ORDERS in turn."""
    from zhat.plumbing import parse_plumb

    cases = []
    for path in sorted(DATA.glob("*.plumb")):
        count = abs(parse_plumb(path.read_text(encoding="utf-8")).elimination().det)
        weakly = path.name.startswith("weakly_")
        for i in range(count):
            order = DIFFERENTIAL_ORDERS[i % len(DIFFERENTIAL_ORDERS)]
            cases += [("graph", str(path), order, weakly, False, None, i), ("delta", str(path), None, weakly, False, None, i)]
    return cases


def extra_cases(work: Path) -> list[tuple]:
    """``cases_of`` each of EXTRA_GRAPHS, written to ``work``, under its cap."""
    cases = []
    for name, (plumb, cap) in EXTRA_GRAPHS.items():
        path = work / name
        path.write_text(plumb, encoding="utf-8")
        cases += cases_of([str(path)], cap)
    return cases


def main(argv: list[str]) -> int:
    if argv[:1] == ["--record"]:
        unknown = [name for name in argv[1:] if name not in CASES]
        if unknown:
            print(f"unknown cases {unknown}; the cases are {list(CASES)}", file=sys.stderr)
            return 2
        record(argv[1:] or list(CASES))
        return 0
    failures = [f"{name}: {problem}" for name in CASES for problem in mismatches(name)]
    with tempfile.TemporaryDirectory() as work:
        cases = differential_cases(Path(work), DIFFERENTIAL_TREES, seed=0) + extra_cases(Path(work)) + spinc_cases()
        failures += [f"streamed: {bad}" for case in cases for bad in [streamed_mismatch(*case)] if bad]
    for line in failures:
        print(line)
    print(f"{len(CASES)} golden cases and {len(cases)} streamed outputs "
          f"on Python {sys.version.split()[0]}: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
