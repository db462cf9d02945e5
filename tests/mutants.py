"""Mutation check: each listed fault, made on purpose in a copy of the
package, must be caught by the tests named with it.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only these

A mutant is (file under ``src/zhat``, the exact text it replaces, the new
text, the pytest ids that must fail), optionally followed by its own
timeout in seconds.  For each one the runner copies ``src/`` to a
temporary directory, makes the one replacement there and runs only the
named tests against the copy, with a fixed hypothesis seed; the named
tests must first pass on ``src/`` itself.  A mutant whose tests all pass
survives; one whose tests run past its timeout (``TIMEOUT`` by default)
is killed (a fault can make the code loop forever), and printed as timed
out; one whose old text no longer occurs exactly once in its file is
stale, and its entry must follow the code.  The exit code is 1 when any
mutant survives or is stale.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# seconds the named tests of one mutant may run; the slowest take a few.
# A mutant known to hang carries a shorter timeout of its own, still far
# above what its tests take on the code as it is.
TIMEOUT = 60

MUTANTS = {
    # a period-1 run's -l credited to the run's own class
    "mirror_is_fixed": (
        "engine.py",
        "                    mirror = conjugate(fixed)\n",
        "                    mirror = fixed\n",
        ["tests/test_golden.py::test_golden_bytes[graph_period_one_star]"],
    ),
    # a self-conjugate run credited once with c_l, not with 2 c_l
    "no_doubling_of_a_self_conjugate_run": (
        "engine.py",
        "                if mirror is not None:\n                    c *= 2\n",
        "",
        ["tests/test_engine.py::TestConjugation::test_self_conjugate_classes_against_the_coset"],
    ),
    # the conjugate class with the sign of U delta flipped
    "conjugate_offset_sign": (
        "engine.py",
        "(-(idx // stride) - offset) % d",
        "(-(idx // stride) + offset) % d",
        ["tests/test_engine.py::TestConjugation::test_conjugate_map_and_one_class_query"],
    ),
    # every leaf assignment listed, so each vector is credited twice to a and -a
    "every_assignment_listed": (
        "engine.py",
        "for x in ((1,) if self.halved and not j else windows[v])",
        "for x in windows[v]",
        ["tests/test_golden.py::test_golden_bytes[graph_det51_star]"],
    ),
    # the runs of a graph without a node credited to their own class only
    "no_conjugate_without_a_node": (
        "engine.py",
        "runs.append((idx, conjugate(idx) if self.halved else None, a,",
        "runs.append((idx, None, a,",
        ["tests/test_golden.py::test_golden_bytes[graph_lens_chain]"],
    ),
    # the class map seeds each assignment but not its conjugate
    "no_conjugate_seed": (
        "engine.py",
        "            seeds.add(reduced(digits[ctx.conjugate(idx)]))\n",
        "",
        [
            "tests/test_engine.py::TestSupportProbe::test_matches_the_oracle",
            "tests/test_engine.py::TestSupportProbe::test_listed_classes_are_the_met_ones",
        ],
    ),
    # the Euclid pass for the basis of G keeps no remainder as a new row
    "no_euclid_swap": (
        "engine.py",
        "                    if g[i]:\n                        basis[i], g = g, basis[i]\n",
        "",
        ["tests/test_engine.py::TestSupportProbe::test_matches_the_oracle"],
        15,
    ),
    # a coset's canonical point reduces only the pivot's own digit
    "reduce_only_the_diagonal_digit": (
        "engine.py",
        "                digits = [x - q * y for x, y in zip(digits, row)]\n",
        "                digits = digits[:i] + [digits[i] - q * row[i]] + digits[i + 1 :]\n",
        ["tests/test_engine.py::TestSupportProbe::test_matches_the_oracle"],
    ),
    # a wanted class's progression loses its value at the end of the run
    "wanted_progression_cut_short": (
        "engine.py",
        "if j is not None and first + 2 * j <= end:",
        "if j is not None and first + 2 * j < end:",
        [
            "tests/test_golden.py::test_golden_bytes[graph_det51_spinc]",
            "tests/test_engine.py::TestConjugation::test_conjugate_map_and_one_class_query",
        ],
    ),
    # the coefficient of the first node coordinate left out of a run's c_l
    "skipped_head_coefficient": (
        "engine.py",
        "for table, y in zip(tables, head):",
        "for table, y in zip(tables[1:], head[1:]):",
        [
            "tests/test_golden.py::test_golden_bytes[graph_two_node_tree_rational]",
            "tests/test_engine.py::TestIntegerBookkeeping::test_compute_zhat_matches_the_recording",
            "tests/test_engine.py::TestRunAccumulation::test_flat_loop_is_the_per_vector_sum",
        ],
    ),
    # S of a run credited to two classes taken with the centre's sign flipped
    "wrong_s": (
        "engine.py",
        "z = det_p * v - center\n                    s = (m + z * z) // det_p\n                    x = c",
        "z = det_p * v + center\n                    s = (m + z * z) // det_p\n                    x = c",
        [
            "tests/test_golden.py::test_golden_bytes[graph_det51_spinc]",
            "tests/test_engine.py::TestRunAccumulation::test_flat_loop_is_the_per_vector_sum",
        ],
    ),
    # a progression of period P > 1 credited to its class but not to -l's
    "progression_without_its_conjugate": (
        "engine.py",
        "if wanted is None or idx in wanted:\n                            runs.append((idx, conjugate(idx),",
        "if wanted is None or idx in wanted:\n                            runs.append((idx, None,",
        [
            "tests/test_golden.py::test_golden_bytes[graph_det51_star]",
            "tests/test_engine.py::TestRunAccumulation::test_flat_loop_is_the_per_vector_sum",
        ],
    ),
    # the listing steps no basis row of G before the last digit
    "listing_skips_a_generator": (
        "engine.py",
        "for y in ([a + k * b for a, b in zip(x, step)] for k in range(d_i // p))",
        "for y in ([a + k * b for a, b in zip(x, step)] for k in range(1))",
        ["tests/test_engine.py::TestSupportProbe::test_listing_steps_every_basis_row"],
    ),
    # the escalation step left on the scale of S, not times the order's denominator
    "escalation_step_without_den": (
        "engine.py",
        "            step = 4 * det * den\n",
        "            step = 4 * det\n",
        ["tests/test_engine.py::TestIntegerBookkeeping::test_walk_bounds_are_the_floors_of_the_fraction_schedule"],
    ),
    # the JSON writer quotes coefficients over 2^(#high + 1)
    "coefficient_scale_off_by_one_bit": (
        "cli.py",
        "2 ** len(setup.high)\n",
        "2 ** (len(setup.high) + 1)\n",
        ["tests/test_golden.py::test_golden_bytes[graph_det51_star]"],
    ),
    # a leaf's diagonal of adj(M), det(M - leaf), read with its sign flipped
    "leaf_diagonal_sign_flipped": (
        "plumbing.py",
        "block[x] = {x: links[x][0][1]}",
        "block[x] = {x: -links[x][0][1]}",
        [
            "tests/test_tree_elimination.py::TestSupportAdjugate::test_block_matches_the_oracle_on_random_trees",
            "tests/test_engine.py::TestLeafDecoupling::test_leaf_schur_complement_is_diagonal",
            "tests/test_golden.py::test_golden_bytes[graph_det51_star]",
        ],
    ),
    # the first leaf's Q_jj left out of the one M_0 of a graph with a node
    "leaf_left_out_of_m0": (
        "engine.py",
        "for v, b in zip(self.low, bx) if k else ():",
        "for v, b in zip(self.low[1:], bx[1:]) if k else ():",
        [
            "tests/test_engine.py::TestLeafDecoupling::test_leaf_schur_complement_is_diagonal",
            "tests/test_golden.py::test_golden_bytes[graph_det51_star]",
        ],
    ),
    # adj(M) rows built for the first node only
    "node_rows_for_the_first_node_only": (
        "plumbing.py",
        "for u in [v for v in support if len(nbrs[v]) > 2] or support:",
        "for u in [v for v in support if len(nbrs[v]) > 2][:1] or support:",
        [
            "tests/test_tree_elimination.py::TestSupportAdjugate::test_block_matches_the_oracle_on_random_trees",
            "tests/test_golden.py::test_golden_bytes[graph_two_node_tree_rational]",
        ],
    ),
    # a period-1 run handed out whatever its class, wanted or not
    "dropped_want_filter_on_a_period_one_run": (
        "engine.py",
        "                    if wanted is not None and fixed not in wanted:\n                        continue\n",
        "",
        ["tests/test_engine.py::TestIntegerWalk::test_restricted_walk_is_the_filtered_walk"],
    ),
    # a node's vertex-factor table read at +k, not -k: an odd m flips its sign
    "vertex_factor_table_sign_flipped": (
        "engine.py",
        "_twice_vertex_factor(deg, -k)) for h in high]",
        "_twice_vertex_factor(deg, k)) for h in high]",
        [
            "tests/test_engine.py::TestCrossOracle::test_matches_closed_form_order_100",
            "tests/test_golden.py::test_golden_bytes[graph_det51_star]",
        ],
    ),
    # a period-1 run's class read one step off the parity of the node's window
    "period_one_class_at_the_wrong_parity": (
        "engine.py",
        "fixed = index([(r + c * parity) // 2 for r, c in zip(res, cols)])",
        "fixed = index([(r + c * (parity + 1)) // 2 for r, c in zip(res, cols)])",
        ["tests/test_golden.py::test_golden_bytes[graph_period_one_star]"],
    ),
    # the CRT joins two digits' residues without checking that they agree
    "congruence_without_agreement_check": (
        "engine.py",
        "            if (r - j) % g:\n                return None\n",
        "",
        [
            "tests/test_engine.py::TestStepCongruence::test_edge_cases",
            "tests/test_engine.py::TestStepCongruence::test_matches_the_scan_of_a_period",
        ],
    ),
    # B* of a one-node graph one short of its certified value
    "zero_bound_one_short": (
        "engine.py",
        "return -(-(n_star * n_star + self.assignments[0][1]) // b)",
        "return -(-(n_star * n_star + self.assignments[0][1]) // b) - 1",
        [
            "tests/test_engine.py::TestAllClasses::test_escalation_pair",
            "tests/test_engine.py::TestZeroCertificate::test_zero_bound_from_its_definition",
        ],
    ),
    # a one-class walk wants the class alone, not its conjugate too, so the
    # vectors listed as -l of the conjugate class are never walked
    "want_not_closed_under_conjugation": (
        "engine.py",
        "            want = list(dict.fromkeys([*want, *map(self.ctx.conjugate, want)]))\n",
        "            want = list(want)\n",
        ["tests/test_engine.py::TestAllClasses::test_matches_per_class"],
    ),
    # the Smith form's unit pivot taken as the later of a row's first 1 and
    # first -1, and none when the row has only one of them
    "smith_unit_pivot_chosen_late": (
        "exact.py",
        "j = min(row.index(1) if 1 in row else n, row.index(-1) if -1 in row else n)",
        "j = max(row.index(1) if 1 in row else n, row.index(-1) if -1 in row else n)",
        ["tests/test_exact.py::TestSmithNormalForm::test_same_steps_as_the_dense_form"],
    ),
    # the Smith form's pivot of least size taken as one of largest size:
    # the steps never end, on diag(2, 3) already
    "smith_pivot_of_largest_size": (
        "exact.py",
        "least = min(((abs(x), i, j)",
        "least = max(((abs(x), i, j)",
        ["tests/test_exact.py::TestSmithNormalForm::test_same_steps_as_the_dense_form"],
        15,
    ),
    # every zero class given the default note with a node, not its own
    "every_zero_class_the_default_note": (
        "engine.py",
        "            return EmptySeries(res, rep)\n",
        "            return EmptySeries(_NEVER_MET, rep)\n",
        ["tests/test_engine.py::TestAllClasses::test_escalation_pair"],
    ),
    # the walk's closure refers to itself again, as its recursive level did:
    # the function, its own cell and the runs list are garbage for the
    # cyclic collector after every walk
    "walk_closure_refers_to_itself": (
        "engine.py",
        "        runs = []\n        k = len(levels)\n",
        "        runs = []\n        k = len(levels)\n\n        def level():\n            return level, runs\n\n",
        [
            "tests/test_garbage.py::TestNoGarbage::test_no_cycles_and_no_drift[compute_zhat_of_spheres]",
            "tests/test_garbage.py::TestNoGarbage::test_no_cycles_and_no_drift[graph_all_json]",
        ],
    ),
    # an EmptySeries bound to a local of the frame that raises it: the frame
    # holds the exception, whose traceback holds the frame
    "empty_series_raised_from_a_local": (
        "engine.py",
        "        raise setup.result(rep, res, order)\n",
        "        res = setup.result(rep, res, order)\n        raise res\n",
        ["tests/test_garbage.py::TestNoGarbage::test_no_cycles_and_no_drift[compute_zhat_of_a_zero_class]"],
    ),
    # a graph's weights stored as a tuple grown from an iterator and cut to
    # size, which goes to the free list of another size than it came from
    "integers_resized_from_an_iterator": (
        "plumbing.py",
        'tuple(_integers(weights, "weight"))',
        "tuple(map(index, weights))",
        [
            "tests/test_garbage.py::TestNoGarbage::test_no_cycles_and_no_drift[plumbing_graph_of_eleven_vertices]",
            "tests/test_garbage.py::TestNoGarbage::test_no_cycles_and_no_drift[parse_plumb]",
            "tests/test_garbage.py::TestNoGarbage::test_no_cycles_and_no_drift[brieskorn_data]",
        ],
    ),
    # the one reader of input lines keeps a leading byte-order mark
    "line_reader_keeps_the_mark": (
        "plumbing.py",
        'text.removeprefix("\\ufeff").splitlines()',
        "text.splitlines()",
        [
            "tests/test_cli.py::TestGraphCommand::test_utf8_byte_order_mark[graph]",
            "tests/test_cli.py::TestGraphCommand::test_utf8_byte_order_mark_on_a_triples_file[csv]",
        ],
    ),
    # the mod-1 offset delta - (1/2 + d): right mod 1 for integral d, wrong as a number
    "mod1_offset_adds_d": (
        "compare.py",
        "(Fraction(1, 2) - Fraction(d))",
        "(Fraction(1, 2) + Fraction(d))",
        ["tests/test_compare.py::TestMod1Relation::test_d_family_row"],
    ),
    # the empty Spin^c group with no class
    "empty_group_without_a_class": (
        "engine.py",
        "    count = 1\n",
        "    count = 0\n",
        [
            "tests/test_engine.py::TestHomologySphereContext::test_setup_uses_the_context_without_smith_rows[s4]",
            "tests/test_engine.py::TestBlocks::test_lens_spaces[1]",
        ],
    ),
    # a command's parser handed the whole argv, the command's name included
    "whole_argv_to_the_command": (
        "cli.py",
        "command.parse_args(argv[1:])",
        "command.parse_args(argv)",
        [
            "tests/test_cli.py::TestArgumentDispatch::test_top_level_parser_is_not_asked_for_a_command",
            "tests/test_cli.py::TestBrieskornCommand::test_sigma_2_9_11",
        ],
    ),
}


def passes(src: Path, tests: list[str], timeout: float | None = None) -> bool:
    """Whether ``tests`` all pass with the package imported from ``src``;
    past ``timeout`` seconds pytest is killed and TimeoutExpired raised."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    where = subprocess.run(
        [sys.executable, "-c", "import zhat; print(zhat.__file__)"], env=env, capture_output=True, text=True, check=True
    ).stdout.strip()
    if not Path(where).is_relative_to(src):
        raise SystemExit(f"zhat imported from {where}, not from {src}")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0", *tests]
    result = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if result.returncode not in (0, 1):
        raise SystemExit(f"pytest exited {result.returncode} on {tests}\n{result.stdout}{result.stderr}")
    return result.returncode == 0


def run(name: str, work: Path) -> str:
    """'killed', 'killed (timed out)', 'survived' or 'stale' for mutant
    ``name``, made in a copy of ``src/`` under ``work``."""
    path, old, new, tests, *own = MUTANTS[name]
    src = work / name / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    target = src / "zhat" / path
    text = target.read_text(encoding="utf-8")
    if text.count(old) != 1:
        return "stale"
    target.write_text(text.replace(old, new), encoding="utf-8")
    try:
        return "survived" if passes(src, tests, own[0] if own else TIMEOUT) else "killed"
    except subprocess.TimeoutExpired:
        return "killed (timed out)"


def main(argv: list[str]) -> int:
    unknown = [name for name in argv if name not in MUTANTS]
    if unknown:
        print(f"unknown mutants {unknown}; the mutants are {list(MUTANTS)}", file=sys.stderr)
        return 2
    names = argv or list(MUTANTS)
    # a mutant is killed only by tests that pass on the code as it is
    if not passes(ROOT / "src", sorted({test for name in names for test in MUTANTS[name][3]})):
        print("the named tests fail without a mutant", file=sys.stderr)
        return 1
    verdicts = {}
    with tempfile.TemporaryDirectory() as work:
        for name in names:
            verdicts[name] = run(name, Path(work))
            print(f"{verdicts[name]:>18}  {name}", flush=True)
    bad = [name for name, verdict in verdicts.items() if not verdict.startswith("killed")]
    print(f"{len(verdicts)} mutants: {len(verdicts) - len(bad)} killed, {len(bad)} survived or stale")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
