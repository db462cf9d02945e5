"""Command-line frontend.

Subcommands:

* ``brieskorn B1 B2 B3``  closed-form invariants of one Brieskorn sphere
* ``graph FILE``          series from a PLUMB v1 plumbing file
* ``delta FILE``          leading exponents only
* ``table ID``            recompute a reference table (d-family, batch,
                          hom-cob-family)
* ``check B1 B2 B3``      run the invariant suite for one triple

Every rational in the output is exact (num/den); there is no floating
point anywhere.  Exit codes: 0 success, 1 check failure, 2 input or
domain error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import __version__
from .brieskorn import brieskorn_data, zhat0_brieskorn
from .compare import counterexample_report, generate_table, rows_to_csv, sharpness_analysis
from .engine import _class_stream, compute_zhat
from .engine import spin_c_representatives  # noqa: F401  (bench/tracing.py wraps it here)
from .errors import EmptySeries, SingularMatrix, ZhatError
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


def _emit_classes(command: str, inputs: dict[str, str], records, order, out) -> None:
    """``_emit`` of the envelope whose results are ``records``, the text of
    each class's record, written as they come: the head, one
    ``out.write`` per class, then the tail.  The head and tail hold the
    envelope's other keys, quoted as ``json.dumps`` quotes them."""
    quote = encode_basestring_ascii
    fields = ",\n    ".join(f"{quote(key)}: {quote(value)}" for key, value in inputs.items())
    head = f'{{\n  "command": {quote(command)},\n  "inputs": {{\n    {fields}\n  }},\n  "results": ['
    tail = (
        f'],\n  "toolVersion": {quote(__version__)},\n'
        f'  "truncationOrder": {"null" if order is None else quote(str(order))}\n}}\n'
    )
    written = False
    for text in records:
        out.write(f",\n    {text}" if written else f"{head}\n    {text}")
        written = True
    out.write(f"\n  {tail}" if written else f"{head}{tail}")


class _ClassRecords:
    """Each class's record as ``_emit`` writes its ``to_json_obj()`` in the
    envelope's results, built from strings made once per run: every
    distinct rational (exponent, coefficient, order, delta) is quoted
    once, keyed by (numerator, denominator) so that no Fraction is
    hashed, and so is every distinct term and note."""

    def __init__(self):
        self.quoted: dict[tuple[int, int], str] = {}
        self.terms: dict[tuple[int, int, int, int], str] = {}
        self.notes: dict[str, str] = {}

    def fraction(self, x: Fraction) -> str:
        key = (x.numerator, x.denominator)
        text = self.quoted.get(key)
        if text is None:
            text = self.quoted[key] = encode_basestring_ascii(str(x))
        return text

    @staticmethod
    def spinc(rep) -> str:
        vector = ",\n          ".join(map(int.__repr__, rep.vector))
        vector = f"[\n          {vector}\n        ]" if vector else "[]"
        return f'{{\n        "classIndex": {rep.class_index!r},\n        "vector": {vector}\n      }}'

    def graph(self, rep, res) -> str:
        """The record of class ``rep``: ``res`` is its ZhatResult or the
        note of its zero verdict."""
        if isinstance(res, str):
            quoted = self.notes.get(res)
            if quoted is None:
                quoted = self.notes[res] = encode_basestring_ascii(res)
            return f'{{\n      "spinc": {self.spinc(rep)},\n      "zero": true,\n      "note": {quoted}\n    }}'
        cache, fraction, chunks = self.terms, self.fraction, []
        for e, c in res.tail.terms:
            key = (e.numerator, e.denominator, c.numerator, c.denominator)
            chunk = cache.get(key)
            if chunk is None:
                chunk = cache[key] = (
                    f'{{\n            "exp": {fraction(e)},\n            "coeff": {fraction(c)}\n          }}'
                )
            chunks.append(chunk)
        terms = ",\n          ".join(chunks)
        terms = f"[\n          {terms}\n        ]" if terms else "[]"
        return (
            f'{{\n      "spinc": {self.spinc(rep)},\n      "delta": {fraction(res.delta)},\n'
            f'      "tail": {{\n        "terms": {terms},\n        "order": {fraction(res.tail.order)}\n      }},\n'
            f'      "eta": {res.eta_pow2!r},\n      "prefactorSign": {res.prefactor_sign!r},\n'
            f'      "truncationOrder": {fraction(res.truncation_order)}\n    }}'
        )

    def delta(self, rep, res) -> str:
        """The record of class ``rep``'s delta: null for a zero class."""
        delta = "null" if isinstance(res, str) else self.fraction(res.delta)
        return f'{{\n      "spinc": {self.spinc(rep)},\n      "delta": {delta}\n    }}'


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
    """(rep, ZhatResult or the note of a zero class) for ``--all`` or the
    ``--spinc`` class.  Every class is computed when this returns; with
    ``--all`` the representatives come one by one as they are read."""
    if args.all:
        return _class_stream(graph, order, allow_weakly=args.experimental_weakly)
    # one class: its representative alone, not all |det M| of them
    count = abs(graph.elimination().det)
    if count == 0:
        raise SingularMatrix("Spin^c classes need an invertible linking matrix")
    idx = args.spinc
    if not (0 <= idx < count):
        raise ZhatError(f"spin-c class {idx} out of range [0, {count})")
    try:
        result = compute_zhat(graph, idx, order=order, allow_weakly=args.experimental_weakly)
    except EmptySeries as exc:
        return [(exc.spinc, str(exc))]
    return [(result.spinc, result)]


def _cmd_graph(args, out) -> int:
    order = _parse_order(args.order)
    graph = parse_plumb(_read_text(args.file))
    results = _class_results(graph, args, order)
    if args.format == "json":
        records = _ClassRecords()
        inputs = {"file": args.file, "order": str(order)}
        _emit_classes("graph", inputs, (records.graph(rep, res) for rep, res in results), order, out)
        return 0
    for rep, res in results:
        label = f"class {rep.class_index} (rep {list(rep.vector)})"
        if isinstance(res, str):
            print(f"{label}: zhat = 0 ({res})", file=out)
        else:
            print(f"{label}: delta = {res.delta}", file=out)
            print(f"{label}: zhat = q^({res.delta}) * ({res.tail.text()})", file=out)
            if res.eta_pow2:
                print(f"{label}: eta = {res.eta_pow2} (coefficients in Z/2^eta)", file=out)
    return 0


def _cmd_delta(args, out) -> int:
    graph = parse_plumb(_read_text(args.file))
    results = _class_results(graph, args, Fraction(0))
    if args.format == "json":
        records = _ClassRecords()
        _emit_classes("delta", {"file": args.file}, (records.delta(rep, res) for rep, res in results), None, out)
        return 0
    for rep, res in results:
        val = "undefined (zero series)" if isinstance(res, str) else str(res.delta)
        print(f"class {rep.class_index}: delta = {val}", file=out)
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
def build_parser() -> argparse.ArgumentParser:
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

    p = sub.add_parser("graph", help="series from a PLUMB v1 file")
    p.add_argument("file")
    p.add_argument("--spinc", type=int, default=0, help="spin-c class index (default 0)")
    p.add_argument("--all", action="store_true", help="every spin-c class")
    p.add_argument("--experimental-weakly", action="store_true", help="accept weakly negative definite input")
    common(p)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("delta", help="leading exponents from a PLUMB v1 file")
    p.add_argument("file")
    p.add_argument("--spinc", type=int, default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--experimental-weakly", action="store_true")
    common(p, order_default=None)
    p.set_defaults(func=_cmd_delta)

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

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except ZhatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
