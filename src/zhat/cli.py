"""Command-line frontend.

Subcommands:

* ``brieskorn B1 B2 B3``  closed-form invariants of one Brieskorn sphere
* ``graph FILE``          series from a PLUMB v1 plumbing file
* ``delta FILE``          leading exponents only
* ``table ID``            recompute a reference table (d-family, batch,
                          hom-cob-family)
* ``check B1 B2 B3``      run the invariant suite for one triple
* ``report``              homology cobordism counterexample report

Every rational in the output is exact (num/den); there is no floating
point anywhere.  Exit codes: 0 success, 1 check failure, 2 input or
domain error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import deque
from fractions import Fraction
from itertools import islice
from json.encoder import encode_basestring_ascii
from math import gcd
from operator import itemgetter

from . import __version__
from .brieskorn import brieskorn_data, zhat0_brieskorn
from .compare import counterexample_report, generate_table, rows_to_csv, sharpness_analysis
from .engine import _class_stream
from .engine import compute_zhat, spin_c_representatives  # noqa: F401  (bench/tracing.py wraps them here)
from .errors import SingularMatrix, ZhatError
from .plumbing import parse_plumb

DEFAULT_ORDER = 200


def _envelope(command: str, inputs: dict, results, order) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "toolVersion": __version__,
        "truncationOrder": str(order) if order is not None else None,
    }


def _emit(obj: dict, out) -> None:
    out.write(json.dumps(obj, indent=2, default=str) + "\n")


def _envelope_ends(command: str, inputs: dict[str, str], order) -> tuple[str, str]:
    """The text ``_emit`` writes of the envelope before its first result
    and after its last, with the envelope's other keys quoted as
    ``json.dumps`` quotes them."""
    quote = encode_basestring_ascii
    fields = ",\n    ".join(f"{quote(key)}: {quote(value)}" for key, value in inputs.items())
    head = f'{{\n  "command": {quote(command)},\n  "inputs": {{\n    {fields}\n  }},\n  "results": [\n    '
    tail = (
        f'\n  ],\n  "toolVersion": {quote(__version__)},\n'
        f'  "truncationOrder": {"null" if order is None else quote(str(order))}\n}}\n'
    )
    return head, tail


def _write_classes(out, stream, record, zero, head: str = "", sep: str = "", tail: str = "") -> None:
    """Write every class of ``stream`` = (rows, results, default), as
    ``_class_stream`` gives it, in one ``out.write`` each, ``head`` before
    the first and ``sep`` before every later one, then ``tail``.  A class
    with terms is written as ``record(row, rec)``, ``rec`` its integer
    record from ``_GraphSetup.series``, a zero class as
    ``zero(note) % row``, where ``zero`` gives the %-template of a row
    (index, *vector) for a note.  The default-note classes between the
    others are one template mapped over an ``islice`` of the rows."""
    rows, results, default = stream
    write = out.write

    def text(row, res) -> str:
        return zero(res) % row if isinstance(res, str) else record(row, res)

    later = sep + zero(default)
    row = next(rows)
    write(head + text(row, results.get(row[0], default)))
    done = row[0] + 1
    for idx in sorted(results):
        if idx >= done:
            deque(map(write, map(later.__mod__, islice(rows, idx - done))), 0)
            write(sep + text(next(rows), results[idx]))
            done = idx + 1
    deque(map(write, map(later.__mod__, rows)), 0)
    write(tail)


def _ratio(num: int, den: int) -> str:
    """num / den (den > 0) quoted as ``json.dumps`` quotes ``str(Fraction(num, den))``."""
    g = gcd(num, den)
    return f'"{num // g}"' if den == g else f'"{num // g}/{den // g}"'


class _ClassRecords:
    """Each class's record as ``_emit`` writes its ``to_json_obj()`` in the
    envelope's results, from its row (index, *vector) of ``size``
    coordinates and its integer record (min S, ((e, C), ...), eta) from
    ``setup.series``.  Every rational is quoted straight from the
    integers, once per run: delta = e0 + min S / (4|det M|) once per
    distinct min S, and each term chunk, exponent e and coefficient
    C / 2^#high, once per distinct (e, C).  A zero class is written from
    the %-template of its row for its note (``graph_zero``, ``delta_zero``)."""

    def __init__(self, size: int, setup, order: Fraction):
        self.e0, self.den, self.scale = setup.e0_scaled, 4 * setup.form.det, 2 ** len(setup.high)
        self.deltas: dict[int, str] = {}
        self.terms: dict[tuple[int, int], str] = {}
        vector = ",\n          ".join(["%d"] * size)
        vector = f"[\n          {vector}\n        ]" if size else "[]"
        self.spinc = f'{{\n        "classIndex": %d,\n        "vector": {vector}\n      }}'
        order = encode_basestring_ascii(str(order))
        self.tail = f'\n        ],\n        "order": {order}\n      }},\n      "eta": '
        self.end = f',\n      "prefactorSign": {setup.sign!r},\n      "truncationOrder": {order}\n    }}'

    def delta_text(self, s0: int) -> str:
        text = self.deltas.get(s0)
        if text is None:
            text = self.deltas[s0] = _ratio(self.e0 + s0, self.den)
        return text

    def graph(self, row, record) -> str:
        """The record of the class of ``row`` with the integer record of its series."""
        s0, terms, eta = record
        cache, chunks = self.terms, []
        for term in terms:
            chunk = cache.get(term)
            if chunk is None:
                e, c = term
                chunk = cache[term] = (
                    f'{{\n            "exp": "{e}",\n            "coeff": {_ratio(c, self.scale)}\n          }}'
                )
            chunks.append(chunk)
        terms = ",\n          ".join(chunks)
        return (
            f'{{\n      "spinc": {self.spinc % row},\n      "delta": {self.delta_text(s0)},\n'
            f'      "tail": {{\n        "terms": [\n          {terms}{self.tail}{eta!r}{self.end}'
        )

    def graph_zero(self, note: str) -> str:
        note = encode_basestring_ascii(note).replace("%", "%%")
        return f'{{\n      "spinc": {self.spinc},\n      "zero": true,\n      "note": {note}\n    }}'

    def delta(self, row, record) -> str:
        return f'{{\n      "spinc": {self.spinc % row},\n      "delta": {self.delta_text(record[0])}\n    }}'

    def delta_zero(self, note: str) -> str:
        return f'{{\n      "spinc": {self.spinc},\n      "delta": null\n    }}'


def _parse_order(text: str) -> Fraction:
    try:
        order = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ZhatError(f"bad order {text!r}") from exc
    if order < 0:
        raise ZhatError("order must be nonnegative")
    return order


def _cmd_brieskorn(args, out) -> int:
    order = _parse_order(args.order)
    data = brieskorn_data(args.b1, args.b2, args.b3)
    result = zhat0_brieskorn(args.b1, args.b2, args.b3, order, data=data)
    if args.format == "json":
        _emit(
            _envelope(
                "brieskorn",
                {"triple": [args.b1, args.b2, args.b3], "order": str(order)},
                {"data": data.to_json_obj(), "zhat0": result.to_json_obj()},
                order,
            ),
            out,
        )
        return 0
    b, a = data.seifert_b, data.a
    print(f"triple       = ({args.b1}, {args.b2}, {args.b3})", file=out)
    print(f"seifert data = (b = {b}; a = {a[0]}, {a[1]}, {a[2]})", file=out)
    print(f"legs         = {[list(f) for f in data.leg_fractions]}", file=out)
    print(f"p            = {data.p}", file=out)
    print(f"alpha        = {data.alphas}", file=out)
    print(f"h            = {data.h}", file=out)
    print(f"xi           = {data.xi}", file=out)
    print(f"delta0 = {data.delta0}", file=out)
    print(f"zhat0  = q^({result.delta}) * ({result.tail.text(ellipsis=True)})", file=out)
    print(f"  (tail exact through q^{order})", file=out)
    return 0


def _read_text(path: str) -> str:
    """An input file, which must be UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ZhatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def _class_results(graph, args, order):
    """The set-up and the classes of ``--all``, or of the ``--spinc``
    class, as ``_class_stream`` gives them: (setup, (rows, results,
    default)).  Every class is computed when this returns; the rows are
    made as they are read."""
    if args.all:
        return _class_stream(graph, order, args.experimental_weakly)
    # one class: its representative alone, not all |det M| of them
    count = abs(graph.elimination().det)
    if count == 0:
        raise SingularMatrix("Spin^c classes need an invertible linking matrix")
    idx = args.spinc or 0
    if not (0 <= idx < count):
        raise ZhatError(f"spin-c class {idx} out of range [0, {count})")
    return _class_stream(graph, order, args.experimental_weakly, idx)


def _cmd_graph(args, out) -> int:
    order = _parse_order(args.order)
    graph = parse_plumb(_read_text(args.file))
    setup, stream = _class_results(graph, args, order)
    if args.format == "json":
        records = _ClassRecords(graph.vertex_count, setup, order)
        head, tail = _envelope_ends("graph", {"file": args.file, "order": str(order)}, order)
        _write_classes(out, stream, records.graph, records.graph_zero, head, ",\n    ", tail)
        return 0
    label = f"class %d (rep [{', '.join(['%d'] * graph.vertex_count)}])"

    def record(row, rec) -> str:
        res = setup.result(None, rec, order)
        at = label % row
        text = f"{at}: delta = {res.delta}\n{at}: zhat = q^({res.delta}) * ({res.tail.text()})\n"
        return f"{text}{at}: eta = {res.eta_pow2} (coefficients in Z/2^eta)\n" if res.eta_pow2 else text

    _write_classes(out, stream, record, lambda note: f"{label}: zhat = 0 ({note.replace('%', '%%')})\n")
    return 0


def _cmd_delta(args, out) -> int:
    graph = parse_plumb(_read_text(args.file))
    order = Fraction(0)
    setup, stream = _class_results(graph, args, order)
    if args.format == "json":
        records = _ClassRecords(graph.vertex_count, setup, order)
        head, tail = _envelope_ends("delta", {"file": args.file}, None)
        _write_classes(out, stream, records.delta, records.delta_zero, head, ",\n    ", tail)
        return 0
    # the index alone: each row is cut to (index,)
    rows, results, default = stream
    _write_classes(
        out,
        (map(itemgetter(slice(1)), rows), results, default),
        lambda row, rec: f"class {row[0]}: delta = {setup.delta(rec[0])}\n",
        lambda note: "class %d: delta = undefined (zero series)\n",
    )
    return 0


def _read_triples(path: str) -> list[tuple[int, int, int]]:
    triples = []
    for line in _read_text(path).splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ZhatError(f"bad triple line {line!r}")
        try:
            triples.append(tuple(int(x) for x in parts))
        except ValueError as exc:
            raise ZhatError(f"bad triple line {line!r}") from exc
    return triples


def _cmd_table(args, out) -> int:
    table_id = {"batch": "brieskorn-batch"}.get(args.table_id, args.table_id)
    if args.triples_file is not None and table_id != "brieskorn-batch":
        raise ZhatError(f"{table_id} reads no triples file; only the batch table does")
    if args.pmax is not None and table_id != "d-family":
        raise ZhatError(f"{table_id} takes no --pmax; only d-family does")
    triples = None if args.triples_file is None else _read_triples(args.triples_file)
    try:
        rows = generate_table(table_id, pmax=6 if args.pmax is None else args.pmax, triples=triples)
    except ValueError as exc:
        raise ZhatError(str(exc)) from exc
    if args.format == "json":
        _emit(
            _envelope("table", {"id": table_id}, [r.to_json_obj() for r in rows], None),
            out,
        )
    elif args.format == "csv":
        out.write(rows_to_csv(rows))
    else:
        for r in rows:
            d = "" if r.d_value is None else f"  d = {r.d_value}"
            flag = "ok" if r.mod1_check else "MOD-1 FAILURE"
            print(
                f"Sigma({r.triple[0]},{r.triple[1]},{r.triple[2]}): delta0 = {r.delta0}{d}  "
                f"series = {r.series_prefix.text(ellipsis=True)}  [{flag}]",
                file=out,
            )
    return 0


def _cmd_check(args, out) -> int:
    from .checks import run_invariant_suite

    order = _parse_order(args.order)
    results = run_invariant_suite(args.b1, args.b2, args.b3, order=order)
    failed = [name for name, ok, _ in results if not ok]
    if args.format == "json":
        _emit(
            _envelope(
                "check",
                {"triple": [args.b1, args.b2, args.b3], "order": str(order)},
                [{"check": name, "pass": ok, "detail": detail} for name, ok, detail in results],
                order,
            ),
            out,
        )
    else:
        for name, ok, detail in results:
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", file=out)
    return 1 if failed else 0


def _cmd_report(args, out) -> int:
    order = _parse_order(args.order)
    if order.denominator != 1:
        raise ZhatError(f"report needs an integer order, got {args.order!r}")
    rep = counterexample_report(order=int(order))
    sharp = sharpness_analysis()
    if args.format == "json":
        _emit(_envelope("report", {}, {"counterexample": rep, "sharpness": sharp}, None), out)
        return 0
    for row in rep["manifolds"]:
        print(f"{row['name']}: delta0 = {row['delta0']}   {row['series_text']}", file=out)
        print(f"  homology cobordant to S3: {row['homology_cobordant_to_s3']} ({row['cobordism_status']})", file=out)
    print(f"pairwise delta0 differences integral: {rep['pairwise_delta_differences_integer']}", file=out)
    print(f"common delta0 mod 1: {rep['delta0_mod_1_common_value']}", file=out)
    print(rep["conclusion"], file=out)
    print(f"sharpness: offsets {sharp['offsets']}, x candidates {sharp['admissible_x_from_plumbed_examples']}, final x = {sharp['x']}", file=out)
    return 0


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own parser by name, built once."""
    parser = argparse.ArgumentParser(prog="zhat", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"zhat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, order_default=str(DEFAULT_ORDER), formats=("text", "json")):
        """--format, and --order for the commands that read one (order_default not None)."""
        if order_default is not None:
            p.add_argument("--order", default=order_default, help="tail truncation order (exponent offset above delta)")
        p.add_argument("--format", choices=formats, default="text")

    p = sub.add_parser("brieskorn", help="closed-form invariants of Sigma(b1,b2,b3)")
    p.add_argument("b1", type=int)
    p.add_argument("b2", type=int)
    p.add_argument("b3", type=int)
    common(p)
    p.set_defaults(func=_cmd_brieskorn)

    for name, help_text, order_default, func in [
        ("graph", "series from a PLUMB v1 file", str(DEFAULT_ORDER), _cmd_graph),
        ("delta", "leading exponents from a PLUMB v1 file", None, _cmd_delta),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file")
        one = p.add_mutually_exclusive_group()
        one.add_argument("--spinc", type=int, help="spin-c class index (default 0)")
        one.add_argument("--all", action="store_true", help="every spin-c class")
        p.add_argument("--experimental-weakly", action="store_true", help="accept weakly negative definite input")
        common(p, order_default)
        p.set_defaults(func=func)

    p = sub.add_parser("table", help="recompute a reference table")
    p.add_argument("table_id", choices=("d-family", "batch", "brieskorn-batch", "hom-cob-family"))
    p.add_argument("triples_file", nargs="?", help="batch input: one 'b1 b2 b3' per line")
    p.add_argument("--pmax", type=int, help="d-family: the largest p (default 6)")
    common(p, order_default=None, formats=("text", "json", "csv"))
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("check", help="invariant suite for one triple")
    p.add_argument("b1", type=int)
    p.add_argument("b2", type=int)
    p.add_argument("b3", type=int)
    common(p, order_default="50")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("report", help="homology cobordism counterexample report")
    common(p, order_default="100")
    p.set_defaults(func=_cmd_report)

    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser of ``zhat``, built once."""
    return _parsers()[0]


def main(argv=None) -> int:
    # A command's arguments go straight to its own parser, one argparse pass;
    # anything else (no argv, -h, --version, an unknown command) to the top level.
    if argv is None:
        argv = sys.argv[1:]
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    args = parser.parse_args(argv) if command is None else command.parse_args(argv[1:])
    try:
        return args.func(args, sys.stdout)
    except (ZhatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
