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

Run as a script, it also checks the CLI's JSON writer against
``json.dumps(obj, indent=2, default=str)`` on seeded random objects, and
the per-class output of ``graph --all`` and ``delta --all`` against
``json.dumps`` of the classes' ``to_json_obj()`` records on every input
file and on seeded random trees, so interpreters without pytest or
Hypothesis get every check (``tests/test_golden.py`` runs the same
cases, and the Hypothesis property, under pytest).
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
from collections import OrderedDict
from enum import IntEnum
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
    "graph_det51_spinc": ["graph", "det51_star.plumb", "--spinc", "7", "--order", "6", "--format", "json"],
    "graph_escalation_star_zero_spinc": [
        "graph", "escalation_star.plumb", "--spinc", "2", "--order", "0", "--format", "json",
    ],
    "graph_det51_star_rational": ["graph", "det51_star.plumb", "--all", "--order", "7/3", "--format", "json"],
    "graph_lens_chain_rational_text": ["graph", "lens_chain.plumb", "--all", "--order", "1/2"],
    "graph_two_node_tree_rational": ["graph", "two_node_tree.plumb", "--all", "--order", "5/2", "--format", "json"],
    "graph_two_node_probe": ["graph", "two_node_probe.plumb", "--all", "--order", "0", "--format", "json"],
    "graph_non_ascii_path": ["graph", NON_ASCII_NAME, "--all", "--order", "5", "--format", "json"],
    "graph_not_negative_definite": ["graph", "weakly_star.plumb", "--all", "--format", "json"],
    "delta_lens_chain": ["delta", "lens_chain.plumb", "--all", "--format", "json"],
    "delta_det51_star": ["delta", "det51_star.plumb", "--all", "--format", "json"],
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


# -- the JSON writer ---------------------------------------------------------

TRICKY_TEXT = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "空間", "\U0001f600", "\ud800", "/"]


class Text(str):
    """A str subclass whose str() is not its text: JSON writes the text."""

    def __str__(self) -> str:
        return f"Text({super().__str__()!r})"


class Items(list):
    """A list subclass."""


class Level(IntEnum):
    """int subclasses whose repr is not the number's."""

    LOW = -3
    HIGH = 2**70


def random_text(rng: random.Random) -> str:
    return "".join(rng.choice(TRICKY_TEXT + ["a", "Z", " "]) for _ in range(rng.randrange(6)))


def random_json_object(rng: random.Random, depth: int = 0):
    """A nested object of the kinds the CLI emits: dicts with string keys,
    lists, tuples, strings, ints, bools, None and Fractions; and, less
    often, subclasses of str, int, dict and list."""
    kind = rng.randrange(12 if depth < 4 else 7)
    if kind == 0:
        return random_text(rng)
    if kind == 1:
        return rng.choice([0, -1, 1, 2**70, -(3**50), rng.randrange(-10**6, 10**6)])
    if kind == 2:
        return rng.choice([True, False, None])
    if kind == 3:
        return Fraction(rng.randrange(-50, 50), rng.randrange(1, 12))
    if kind in (4, 5):
        return rng.choice([{}, [], ()])
    if kind == 6:
        return rng.choice([Text(random_text(rng)), Level.LOW, Level.HIGH, OrderedDict(), Items()])
    items = [random_json_object(rng, depth + 1) for _ in range(rng.randrange(5))]
    if kind == 7:
        return items
    if kind == 8:
        return tuple(items)
    if kind == 9:
        return Items(items)
    obj = {random_text(rng) if rng.random() < 0.3 else f"k{i}": x for i, x in enumerate(items)}
    return OrderedDict(obj) if kind == 10 else obj


def writer_mismatch(obj) -> str | None:
    from zhat.cli import _emit

    out = io.StringIO()
    _emit(obj, out)
    want = json.dumps(obj, indent=2, default=str) + "\n"
    return None if out.getvalue() == want else f"{obj!r}: wrote {out.getvalue()!r}, json.dumps gives {want!r}"


# -- the per-class writer of graph and delta ---------------------------------

DIFFERENTIAL_ORDERS = ("0", "3", "1/2", "7/3")
DIFFERENTIAL_TREES = 40


def oracle_output(command: str, path: str, order: str | None, weakly: bool) -> str:
    """What ``zhat graph|delta PATH --all --format json`` printed before its
    per-class writer: the envelope of the classes' ``to_json_obj()``
    records, through ``json.dumps``."""
    from zhat import __version__
    from zhat.engine import compute_zhat_all
    from zhat.errors import EmptySeries
    from zhat.plumbing import parse_plumb

    graph = parse_plumb(Path(path).read_text(encoding="utf-8"))
    results = compute_zhat_all(graph, Fraction(order or 0), allow_weakly=weakly)
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


def streamed_mismatch(command: str, path: str, order: str | None = None, weakly: bool = False) -> str | None:
    """How the CLI's ``--all --format json`` output differs from
    ``oracle_output``, or None."""
    from zhat.cli import main

    argv = [command, path, "--all", "--format", "json"]
    argv += ["--order", order] if order is not None else []
    argv += ["--experimental-weakly"] if weakly else []
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    want = oracle_output(command, path, order, weakly)
    if code != 0:
        return f"{argv}: exit code {code}"
    return None if out.getvalue() == want else f"{argv}: output differs from json.dumps of the records"


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


def differential_cases(work: Path, trees: int, seed: int) -> list[tuple]:
    """``streamed_mismatch`` arguments: every ``tests/data/*.plumb`` and
    ``trees`` seeded random trees, written to ``work``, for ``delta`` and
    for ``graph`` at every order of DIFFERENTIAL_ORDERS; the weakly star
    with ``--experimental-weakly``."""
    rng = random.Random(seed)
    paths = [str(p) for p in sorted(DATA.glob("*.plumb"))]
    for i in range(trees):
        path = work / f"tree-{seed}-{i}.plumb"
        path.write_text(random_tree_plumb(rng), encoding="utf-8")
        paths.append(str(path))
    return [
        (command, path, order, Path(path).name == "weakly_star.plumb")
        for path in paths
        for command, order in [("delta", None)] + [("graph", order) for order in DIFFERENTIAL_ORDERS]
    ]


def main(argv: list[str]) -> int:
    if argv[:1] == ["--record"]:
        unknown = [name for name in argv[1:] if name not in CASES]
        if unknown:
            print(f"unknown cases {unknown}; the cases are {list(CASES)}", file=sys.stderr)
            return 2
        record(argv[1:] or list(CASES))
        return 0
    failures = [f"{name}: {problem}" for name in CASES for problem in mismatches(name)]
    rng = random.Random(0)
    for _ in range(2000):
        obj = random_json_object(rng)
        if not isinstance(obj, dict):
            obj = {"results": obj}
        bad = writer_mismatch(obj)
        if bad:
            failures.append(f"writer: {bad}")
    with tempfile.TemporaryDirectory() as work:
        cases = differential_cases(Path(work), DIFFERENTIAL_TREES, seed=0)
        failures += [f"streamed: {bad}" for case in cases for bad in [streamed_mismatch(*case)] if bad]
    for line in failures:
        print(line)
    print(f"{len(CASES)} golden cases, 2000 writer objects and {len(cases)} streamed outputs "
          f"on Python {sys.version.split()[0]}: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
