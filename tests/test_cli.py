import argparse
import contextlib
import io
import itertools
import json
import random
import tracemalloc
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import trees
from zhat import __version__
from zhat.cli import build_parser, main
from zhat.compare import generate_table
from zhat.plumbing import format_plumb

S3_FILE = "1\n-1\n"
L5_FILE = "1\n-5\n"
DISCONNECTED = "2\n-1 -2\n"
SIGMA_2_9_11 = "6\n-1 -2 -5 -2 -4 -3\n1 2\n1 3\n3 4\n1 5\n5 6\n"
TRIPLES_FILE = "2 3 7\n# comment\n\n3 7 8\n"


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestBrieskornCommand:
    def test_sigma_2_9_11(self, capsys):
        code, out = run(capsys, "brieskorn", "2", "9", "11", "--order", "30")
        assert code == 0
        assert "delta0 = 9/2" in out
        assert "alpha        = (59, 95, 103, 139)" in out
        assert "h            = (50, 3, 2)" in out
        assert "1 - q^7 - q^9 + q^20" in out

    def test_excluded_triple(self, capsys):
        code = main(["brieskorn", "2", "3", "5"])
        assert code == 2
        assert "(2, 3, 5)" in capsys.readouterr().err

    def test_not_coprime(self, capsys):
        code = main(["brieskorn", "2", "4", "5"])
        assert code == 2
        assert "coprime" in capsys.readouterr().err

    def test_takes_the_triple_alone(self, capsys, monkeypatch):
        # the triple fixes its normalized Seifert data, which the output prints
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit) as exc:
            main(["brieskorn", "--help"])
        assert exc.value.code == 0
        usage = "usage: zhat brieskorn [-h] [--order ORDER] [--format {text,json}] b1 b2 b3\n"
        assert capsys.readouterr().out.startswith(usage)
        code, out = run(capsys, "brieskorn", "2", "9", "11", "--order", "10")
        assert code == 0
        assert "seifert data = (b = -1; a = 1, 2, 3)" in out

    def test_json_format(self, capsys):
        code, out = run(capsys, "brieskorn", "2", "9", "11", "--order", "30", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "brieskorn"
        assert payload["results"]["data"]["delta0"] == "9/2"
        assert payload["results"]["zhat0"]["tail"]["terms"][0] == {"exp": "0", "coeff": "1"}
        assert payload["toolVersion"]


class TestGraphCommand:
    def test_s3(self, tmp_path, capsys):
        f = tmp_path / "s3.plumb"
        f.write_text(S3_FILE)
        code, out = run(capsys, "graph", str(f), "--order", "10")
        assert code == 0
        assert "delta = -1/2" in out
        assert "-2 + 2q" in out

    def test_lens_space_class_zero(self, tmp_path, capsys):
        f = tmp_path / "l5.plumb"
        f.write_text(L5_FILE)
        code, out = run(capsys, "graph", str(f), "--spinc", "0", "--order", "10")
        assert code == 0
        assert "q^(1/2) * (-2)" in out

    def test_all_classes(self, tmp_path, capsys):
        f = tmp_path / "l5.plumb"
        f.write_text(L5_FILE)
        code, out = run(capsys, "graph", str(f), "--all", "--order", "10")
        assert code == 0
        assert out.count("class") >= 5
        assert "zhat = 0" in out  # two classes vanish identically

    def test_one_zero_class(self, tmp_path, capsys):
        f = tmp_path / "l5.plumb"
        f.write_text(L5_FILE)
        code, out = run(capsys, "graph", str(f), "--spinc", "2", "--order", "4")
        assert code == 0
        assert out == "class 2 (rep [4]): zhat = 0 (series is identically zero (finite support exhausted))\n"
        code, out = run(capsys, "graph", str(f), "--spinc", "3", "--order", "4", "--format", "json")
        assert code == 0
        assert json.loads(out)["results"] == [
            {
                "spinc": {"classIndex": 3, "vector": [6]},
                "zero": True,
                "note": "series is identically zero (finite support exhausted)",
            }
        ]

    @pytest.mark.parametrize(
        "content, spinc, message",
        [
            (L5_FILE, "5", "spin-c class 5 out of range [0, 5)"),
            (L5_FILE, "-1", "spin-c class -1 out of range [0, 5)"),
            # singular before out of range, out of range before not definite
            ("2\n-1 -1\n1 2\n", "7", "Spin^c classes need an invertible linking matrix"),
            ("1\n1\n", "1", "spin-c class 1 out of range [0, 1)"),
            ("1\n1\n", "0", "linking matrix is not negative definite"),
        ],
    )
    def test_class_errors_in_order(self, tmp_path, capsys, content, spinc, message):
        f = tmp_path / "g.plumb"
        f.write_text(content)
        for command in ("graph", "delta"):
            assert main([command, str(f), "--spinc", spinc]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {message}") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["graph", "delta"])
    @pytest.mark.parametrize("spinc", ["0", "2"])
    def test_all_and_spinc_are_exclusive(self, tmp_path, capsys, monkeypatch, command, spinc):
        # --spinc 0 as well: an explicit class is told apart from no --spinc
        monkeypatch.setenv("COLUMNS", "200")
        f = tmp_path / "l5.plumb"
        f.write_text(L5_FILE)
        for argv, first in [(["--all", "--spinc", spinc], "--all"), (["--spinc", spinc, "--all"], "--spinc")]:
            with pytest.raises(SystemExit) as exc:
                main([command, str(f), *argv])
            assert exc.value.code == 2
            out, err = capsys.readouterr()
            second = "--spinc" if first == "--all" else "--all"
            usage, error = err.splitlines()
            assert out == "" and usage.startswith(f"usage: zhat {command} [-h] [--spinc SPINC | --all] ")
            assert error == f"zhat {command}: error: argument {second}: not allowed with argument {first}"
        # without --all, no --spinc is class 0
        assert run(capsys, command, str(f)) == run(capsys, command, str(f), "--spinc", "0")

    def test_disconnected(self, tmp_path, capsys):
        f = tmp_path / "bad.plumb"
        f.write_text(DISCONNECTED)
        code = main(["graph", str(f)])
        assert code == 2

    def test_missing_file(self, capsys):
        assert main(["graph", "/nonexistent/x.plumb"]) == 2

    @pytest.mark.parametrize("command", ["graph", "delta"])
    def test_not_utf8(self, tmp_path, capsys, command):
        f = tmp_path / "latin1.plumb"
        f.write_bytes(b"# caf\xe9\n1\n-1\n")
        assert main([command, str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not UTF-8" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["graph", "delta"])
    def test_utf8_byte_order_mark(self, tmp_path, capsys, command):
        plain, marked = tmp_path / "plain.plumb", tmp_path / "marked.plumb"
        plain.write_text(SIGMA_2_9_11, encoding="utf-8")
        marked.write_text(SIGMA_2_9_11, encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        outputs = []
        for f in (plain, marked):
            code, out = run(capsys, command, str(f), "--format", "json")
            assert code == 0
            outputs.append(json.loads(out)["results"])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_utf8_byte_order_mark_on_a_triples_file(self, tmp_path, capsys, fmt):
        # a batch triples file follows the PLUMB line rules: one leading mark is dropped
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text(TRIPLES_FILE, encoding="utf-8")
        marked.write_text(TRIPLES_FILE, encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        outputs = [run(capsys, "table", "batch", str(f), "--format", fmt) for f in (plain, marked)]
        assert outputs[0][0] == 0 and outputs[1] == outputs[0]

    def test_two_byte_order_marks_on_a_triples_file(self, tmp_path, capsys):
        # only the one leading mark is dropped: a second stays in the first triple
        f = tmp_path / "marked.txt"
        f.write_text("\ufeff" + TRIPLES_FILE, encoding="utf-8-sig")
        assert main(["table", "batch", str(f)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: bad triple line '\\ufeff2 3 7'\n")

    def test_weakly_flag(self, tmp_path, capsys):
        f = tmp_path / "chain.plumb"
        f.write_text("2\n0 -1\n1 2\n")
        assert main(["graph", str(f)]) == 2  # not negative definite
        capsys.readouterr()
        code, out = run(capsys, "graph", str(f), "--experimental-weakly", "--order", "5")
        assert code == 0
        assert "delta = -1/2" in out

    def test_json_round_trip(self, tmp_path, capsys):
        from zhat.engine import ZhatResult

        f = tmp_path / "g.plumb"
        f.write_text(SIGMA_2_9_11)
        code, out = run(capsys, "graph", str(f), "--order", "30", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        res = ZhatResult.from_json_obj(payload["results"][0])
        assert str(res.delta) == "9/2"

    def test_zero_classes_are_written_without_being_held(self, tmp_path):
        # L(20000, 1): 19,997 of the 20,000 classes are zero.  Their
        # representatives are made as they are written and their verdicts
        # are shared, so the peak traced memory does not grow by a
        # representative, an empty series and a dict per class.
        classes = 20_000
        f = tmp_path / "l20000.plumb"
        f.write_text(f"1\n-{classes}\n")
        argv = ["graph", str(f), "--all", "--format", "json"]

        class Sink:
            """Counts the writes and keeps nothing."""

            writes = 0

            def write(self, text):
                self.writes += 1

        sink = Sink()
        with contextlib.redirect_stdout(sink):
            assert main(argv) == 0  # parser, imports and caches made before tracing
            sink.writes = 0
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert sink.writes == classes + 1
        assert peak / classes < 40, f"{peak / classes:.0f} B per class"


# Valid PLUMB files of small trees (negative definite or not, singular
# too), as they are and with a few characters inserted somewhere.
PLUMB_FILES = st.builds(format_plumb, trees(max_size=4, weights=st.integers(-6, 2)))
INSERTED = st.tuples(PLUMB_FILES, st.integers(0, 40), st.text(max_size=3)).map(
    lambda parts: parts[0][: parts[1]] + parts[2] + parts[0][parts[1] :]
)


class TestFuzzedPlumbFile:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        content=st.one_of(st.text(), st.binary(), PLUMB_FILES, INSERTED),
        argv=st.sampled_from([["graph", "--order", "3"], ["graph", "--all", "--order", "3"], ["delta"], ["delta", "--all"]]),
    )
    def test_exit_code_contract(self, tmp_path_factory, content, argv):
        path = tmp_path_factory.getbasetemp() / "fuzzed.plumb"
        if isinstance(content, str):
            path.write_text(content, encoding="utf-8")
        else:
            path.write_bytes(content)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], str(path), *argv[1:]])
        assert code in (0, 2)
        if code == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
        else:
            assert err.getvalue() == "" and out.getvalue()


# Pairwise coprime triples 2 <= b1 < b2 < b3 <= 40, (2, 3, 5) among them.
TRIPLES = [t for t in itertools.combinations(range(2, 41), 3) if all(gcd(x, y) == 1 for x, y in itertools.combinations(t, 2))]
ORDERS = ["0", "1/2", "3/2", "5", "-1", "abc", "1/0"]


def fuzzed_argv(rng: random.Random, triples_path: str) -> tuple[list[str], str]:
    """Arguments for ``brieskorn``, ``check`` or ``table``, and the text of
    the triples file that a ``table batch`` reads from ``triples_path``.
    Exponents lie in -3..40 and most triples are valid; ``--pmax`` goes
    mostly to ``d-family``, and sometimes to ``hom-cob-family``, which
    rejects it."""

    def triple() -> list[str]:
        if rng.random() < 0.7:
            return [str(b) for b in rng.choice(TRIPLES)]
        return [str(rng.randint(-3, 40)) for _ in range(3)]

    fmt = rng.choice([[], ["--format", "json"], ["--format", "text"]])
    order = ["--order", rng.choice(ORDERS)]
    command = rng.choice(["brieskorn", "brieskorn", "check", "table", "table"])
    if command == "check":
        return ["check", *triple(), *order, *fmt], ""
    if command == "brieskorn":
        return ["brieskorn", *triple(), *order, *fmt], ""
    fmt = rng.choice([fmt, ["--format", "csv"]])
    table = rng.choice(["d-family", "hom-cob-family", "batch", "brieskorn-batch"])
    if not table.endswith("batch"):
        pmax = ["--pmax", str(rng.randint(-1, 7))] if table == "d-family" or rng.random() < 0.2 else []
        return ["table", table, *pmax, *fmt], ""
    lines = [
        " ".join(triple()) if rng.random() < 0.7 else rng.choice(["# comment", "", "2 9", "2 9 11 13", "a b c"])
        for _ in range(rng.randint(0, 3))
    ]
    return ["table", table, triples_path, *fmt], "\n".join(lines) + "\n"


class TestFuzzedArguments:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_exit_code_contract(self, tmp_path_factory, seed):
        path = tmp_path_factory.getbasetemp() / "triples.txt"
        argv, triples = fuzzed_argv(random.Random(seed), str(path))
        path.write_text(triples, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        # every fuzzed check is of a sound triple, so none of its checks fails (exit 1)
        assert code in (0, 2)
        if code == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ") and out.getvalue() == ""
        else:
            assert err.getvalue() == "" and out.getvalue()

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()


def exit_outcome(capsys, parse, argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``parse(argv)``, which must exit."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


class TestArgumentDispatch:
    """A command's arguments are read by its own parser, in one argparse
    pass; any other argv goes to the top-level parser, as it always did."""

    def test_unrecognized_argument_is_reported_by_the_command(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")
        f = tmp_path / "l5.plumb"
        f.write_text(L5_FILE)
        code, out, err = exit_outcome(capsys, main, ["graph", str(f), "--bogus"])
        assert code == 2 and out == ""
        usage, error = err.splitlines()
        assert usage.startswith("usage: zhat graph [-h] [--spinc SPINC | --all] ")
        assert error == "zhat graph: error: unrecognized arguments: --bogus"

    @pytest.mark.parametrize("argv", [[], ["-h"], ["--version"], ["bogus"], ["--", "graph"]])
    def test_other_argv_is_read_by_the_top_level_parser(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "200")
        outcome = exit_outcome(capsys, main, argv)
        assert outcome == exit_outcome(capsys, build_parser().parse_args, argv)
        code, out, err = outcome
        usage = "usage: zhat [-h] [--version] {brieskorn,graph,delta,table,check,report} ...\n"
        if argv == ["--version"]:
            assert (code, out, err) == (0, f"zhat {__version__}\n", "")
        elif argv == ["-h"]:
            assert code == 0 and out.startswith(usage) and err == ""
            # the module docstring lists every command
            for command in ("brieskorn", "graph", "delta", "table", "check", "report"):
                assert f"* ``{command}" in out
        else:
            assert code == 2 and out == "" and err.startswith(usage + "zhat: error: ")

    def test_delta_declares_the_class_options_of_graph(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")
        helps = {command: exit_outcome(capsys, main, [command, "-h"]) for command in ("graph", "delta")}
        for text in ("spin-c class index (default 0)", "every spin-c class", "accept weakly negative definite input"):
            assert all(code == 0 and text in out and err == "" for code, out, err in helps.values())

    def test_top_level_parser_is_not_asked_for_a_command(self, tmp_path, capsys, monkeypatch):
        parser = build_parser()
        calls = []

        def spy(method):
            def called(*args, **kwargs):
                calls.append(method)
                return getattr(argparse.ArgumentParser, method)(parser, *args, **kwargs)

            return called

        for method in ("parse_args", "parse_known_args"):
            monkeypatch.setattr(parser, method, spy(method))
        f = tmp_path / "l5.plumb"
        f.write_text(L5_FILE)
        for argv in [
            ["graph", str(f), "--all", "--format", "json"],
            ["delta", str(f), "--spinc", "2"],
            ["brieskorn", "2", "3", "7", "--order", "3"],
            ["table", "d-family", "--pmax", "3"],
            ["report", "--order", "2"],
        ]:
            assert main(argv) == 0
        assert exit_outcome(capsys, main, ["check", "2", "3", "7", "--bogus"])[0] == 2
        assert calls == []
        # the spy sees the top-level parser when it does parse
        assert exit_outcome(capsys, main, ["--version"])[0] == 0
        assert calls[0] == "parse_args"


class TestDeltaCommand:
    def test_s3(self, tmp_path, capsys):
        f = tmp_path / "s3.plumb"
        f.write_text(S3_FILE)
        code, out = run(capsys, "delta", str(f))
        assert code == 0
        assert "delta = -1/2" in out

    def test_order_is_rejected(self, tmp_path, capsys):
        # delta always computes at order 0, so it takes no --order
        f = tmp_path / "s3.plumb"
        f.write_text(S3_FILE)
        with pytest.raises(SystemExit) as exc:
            main(["delta", str(f), "--order", "abc"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestTableCommand:
    def test_d_family(self, capsys):
        code, out = run(capsys, "table", "d-family", "--pmax", "6")
        assert code == 0
        assert out.count("Sigma(") == 4
        assert "delta0 = 361/2" in out
        assert "d = -12" in out

    def test_batch_from_file(self, tmp_path, capsys):
        f = tmp_path / "triples.txt"
        f.write_text("# batch\n2 9 11\n3 7 8\n")
        code, out = run(capsys, "table", "batch", str(f))
        assert code == 0
        assert "delta0 = 9/2" in out and "delta0 = 13/2" in out

    def test_batch_file_not_utf8(self, tmp_path, capsys):
        f = tmp_path / "triples.txt"
        f.write_bytes(b"\xff\xfe2 9 11\n")
        assert main(["table", "batch", str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not UTF-8" in err
        assert len(err.splitlines()) == 1

    def test_d_family_without_rows_is_an_error(self, capsys):
        message = "d-family runs over p = 3..pmax, so pmax = 2 gives no rows"
        with pytest.raises(ValueError, match=message):
            generate_table("d-family", pmax=2)
        assert main(["table", "d-family", "--pmax", "2"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    def test_batch_file_without_triples_is_an_error(self, tmp_path, capsys):
        message = "brieskorn-batch was given no triples"
        with pytest.raises(ValueError, match=message):
            generate_table("brieskorn-batch", triples=[])
        f = tmp_path / "triples.txt"
        f.write_text("# no triples\n\n")
        assert main(["table", "batch", str(f), "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["hom-cob-family", "--pmax", "1"], "hom-cob-family takes no --pmax; only d-family does"),
            (["batch", "--pmax", "6"], "brieskorn-batch takes no --pmax; only d-family does"),
            (["d-family", "TRIPLES", "--pmax", "3"], "d-family reads no triples file; only the batch table does"),
            (["hom-cob-family", "TRIPLES"], "hom-cob-family reads no triples file; only the batch table does"),
        ],
    )
    def test_input_the_table_does_not_read_is_an_error(self, tmp_path, capsys, argv, message):
        f = tmp_path / "triples.txt"
        f.write_text("bad line\n")
        assert main(["table", *(str(f) if x == "TRIPLES" else x for x in argv)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    def test_empty_triples_path_is_an_error(self, capsys):
        # an empty path names no file; it does not fall back to the built-in batch
        assert main(["table", "batch", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    def test_hom_cob_family(self, capsys):
        code, out = run(capsys, "table", "hom-cob-family")
        assert code == 0
        assert "delta0 = 1521/2" in out

    def test_csv(self, capsys):
        code, out = run(capsys, "table", "d-family", "--pmax", "4", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "triple,delta0,d,series_prefix"

    def test_unknown_table(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "nope"])
        assert exc.value.code == 2

    def test_order_is_rejected(self, capsys):
        # each table row picks its own order, so table takes no --order
        with pytest.raises(SystemExit) as exc:
            main(["table", "d-family", "--order", "abc", "--pmax", "3"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestCheckCommand:
    def test_sigma_2_9_11(self, capsys):
        code, out = run(capsys, "check", "2", "9", "11")
        assert code == 0
        assert out.count("[PASS]") == 5
        assert "[FAIL]" not in out

    def test_sigma_3_7_8(self, capsys):
        code, out = run(capsys, "check", "3", "7", "8")
        assert code == 0

    def test_excluded(self, capsys):
        assert main(["check", "2", "3", "5"]) == 2


class TestReportCommand:
    def test_text(self, capsys):
        code, out = run(capsys, "report", "--order", "30")
        assert code == 0
        assert "S3: delta0 = -1/2" in out
        assert "Sigma(2,9,11): delta0 = 9/2" in out
        assert "Sigma(3,7,8): delta0 = 13/2" in out
        assert "final x = 1" in out

    @pytest.mark.parametrize("order", ["1/2", "abc", "-3"])
    def test_bad_order(self, capsys, order):
        assert main(["report", "--order", order]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
