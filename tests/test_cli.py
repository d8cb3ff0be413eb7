import json
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oracles
from radiotree import CertificationFailure, RadioLabelling, bounds, cli, families, rn_caterpillar
from radiotree.cli import main
from radiotree.tree import format_tree_text
from test_bounds import count_calls

# the longest number int() reads, and how error messages show it
NINES = "9" * 4300
SHORT_NINES = "9" * 20 + "... (4300 digits)"

REPORT_KEYS = [
    "p",
    "diameter",
    "weight_centers",
    "epsilon",
    "total_level",
    "remote_count",
    "xi",
    "two_branch",
    "bound_basic",
    "bound_improved",
    "strict_gap",
]


@pytest.fixture
def write(tmp_path):
    """Writes ``text`` to ``tmp_path / name`` and returns the file name."""
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


@pytest.fixture
def path_file(write):
    """Writes P_n to ``p<n>.txt`` and returns the file name."""
    return lambda n: write(f"p{n}.txt", format_tree_text(oracles.path(n)))


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestAnalyze:
    def test_json_report(self, capsys, path_file):
        code, rep = run_json(capsys, ["analyze", path_file(9), "--json"])
        assert code == 0
        assert list(rep) == REPORT_KEYS
        assert rep["bound_improved"] == 34
        assert rep["weight_centers"] == [4]

    def test_one_edge_tree_reports_no_bounds(self, capsys, path_file):
        code, rep = run_json(capsys, ["analyze", path_file(2), "--json"])
        assert code == 0 and rep["diameter"] == 1
        assert rep["bound_basic"] is rep["bound_improved"] is rep["strict_gap"] is None

    def test_text_output(self, capsys, path_file):
        assert main(["analyze", path_file(9)]) == 0
        assert "bound_improved: 34" in capsys.readouterr().out

    def test_missing_file(self, capsys, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.txt")]) == 3

    def test_bad_tree_file(self, capsys, write):
        bad = write("bad.txt", "0 1\n2 3\n")
        assert main(["analyze", bad]) == 3

    def test_order_file_as_tree_is_quoted_short(self, capsys, write):
        # one line of 10,005 ids: exit 3 and its first 80 characters on stderr
        order = write("c5.order", " ".join(map(str, range(10005))) + "\n")
        assert main(["analyze", order]) == 3
        err = capsys.readouterr().err
        assert err.startswith("NotATree: bad edge line: '0 1 2 3") and len(err) < 1024

    @pytest.mark.parametrize("text, message", [
        (f"0 1\n1 {NINES}\n", f"SparseIds: {SHORT_NINES} unused vertex ids, starting "
                               f"[2, 3, 4, 5, 6]; ids must cover 0..{SHORT_NINES}\n"),
        (f"{NINES} {NINES}\n", f"BadEdge: self-loop at vertex {SHORT_NINES}\n"),
    ], ids=["sparse-ids", "self-loop"])
    def test_huge_id_is_shown_short(self, capsys, write, text, message):
        # a 4,300-digit id, the longest int() reads: its first 20 digits only
        assert main(["analyze", write("huge.txt", text)]) == 3
        assert capsys.readouterr().err == message

    def test_two_faults_still_an_input_error(self, capsys, write):
        bad = write("bad.txt", "0 1\n0 1\n1 1000000000000000\n")
        assert main(["analyze", bad]) == 3

    def test_directory_as_tree(self, capsys, tmp_path):
        assert main(["analyze", str(tmp_path)]) == 3

    def test_undecodable_tree_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"0 1\n\xff\xfe 2\n")
        assert main(["analyze", str(bad)]) == 3


class TestBounds:
    def test_p9_improved(self, capsys, path_file):
        code, rep = run_json(capsys, ["bounds", path_file(9), "--json"])
        assert code == 0 and rep["bound_improved"] == 34

    def test_one_edge_tree(self, capsys, path_file):
        code, rep = run_json(capsys, ["bounds", path_file(2), "--json"])
        assert code == 0 and rep["bound_basic"] is None

    def test_compare_even(self, capsys, path_file):
        code, rep = run_json(capsys, ["bounds", path_file(9), "--compare", "--json"])
        assert code == 0
        assert rep["comparison"] == {"x": 4, "value": 34, "line": "even"}

    def test_compare_odd_with_center(self, capsys, path_file):
        code, rep = run_json(
            capsys, ["bounds", path_file(6), "--compare", "--center", "2", "--json"]
        )
        assert code == 0
        assert rep["comparison"] == {"x": 2, "value": 13, "line": "odd"}

    def test_compare_refuses_p3(self, capsys, path_file):
        # the even formula gives 4 on P_3, above its rn 3
        assert main(["bounds", path_file(3), "--compare", "--json"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "DiameterTooSmall" in err

    def test_compare_refuses_a_star(self, capsys, write):
        # K_{1,3}: its one weight center has degree 3
        star = write("star.txt", format_tree_text(oracles.star(3)))
        assert main(["bounds", star, "--compare"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == "NotOmegaTree: no degree-2 weight center for --compare\n"

    @pytest.mark.parametrize("n", [2, 3, 9])
    def test_analyze_is_bounds_without_compare(self, capsys, path_file, n):
        for flags in ([], ["--json"]):
            assert main(["analyze", path_file(n), *flags]) == 0
            analyzed = capsys.readouterr()
            assert main(["bounds", path_file(n), *flags]) == 0
            assert capsys.readouterr() == analyzed


class TestCertify:
    def test_good_order(self, capsys, path_file, write):
        order = write("p5.order", "2 1 4 0 3\n")
        code, rep = run_json(
            capsys, ["certify", path_file(5), "--order", order, "--json"]
        )
        assert code == 0
        assert rep["certification"] == {"certified": True, "stage": None, "span": 10}

    def test_bad_order(self, capsys, path_file, write):
        order = write("p5.order", "0 1 2 3 4\n")
        code, rep = run_json(
            capsys, ["certify", path_file(5), "--order", order, "--json"]
        )
        assert code == 1
        assert rep["certification"]["certified"] is False
        assert rep["certification"]["stage"] == "condition_a"

    def test_non_integer_order_token(self, capsys, path_file, write):
        order = write("p5.order", "2 1 x 0 3\n")
        assert main(["certify", path_file(5), "--order", order]) == 3

    def test_dropped_id_gives_a_short_message(self, capsys, tmp_path, write):
        # C(5,2500), p = 10,005: the message names the missing slot, not the order
        tree = tmp_path / "c5.txt"
        assert main(["gen", "caterpillar", "--n", "5", "--k", "2500", "-o", str(tree),
                     "--with-order"]) == 0
        order = write("c5.order", " ".join((tmp_path / "c5.txt.order").read_text().split()[1:]))
        capsys.readouterr()
        assert main(["certify", str(tree), "--order", order]) == 3
        err = capsys.readouterr().err
        assert err == ("NotAPermutation: bad order positions [10004] (1 in all); "
                       "an order is a permutation of 0..10004\n")


class TestLabelAndVerify:
    def test_label_then_verify(self, capsys, path_file, write):
        order = write("p5.order", "2 1 4 0 3\n")
        assert main(["label", path_file(5), "--order", order]) == 0
        labels_text = capsys.readouterr().out
        labels = write("p5.labels", labels_text)
        assert main(["verify", path_file(5), "--labels", labels]) == 0
        assert "valid" in capsys.readouterr().out

    def test_label_rejects_order_whose_recurrence_is_invalid(self, capsys, path_file,
                                                             write):
        # the recurrence on this order gives labels 0 2 6 10 12, which fail at (0, 1)
        order = write("p5.order", "0 1 2 3 4\n")
        assert main(["label", path_file(5), "--order", order]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "(0, 1)" in err

    def test_label_rejects_order_whose_labels_dip_below_zero(self, capsys, write):
        # a well-formed order of the p = 19 tree whose recurrence falls below
        # zero: the labelling is invalid (exit 1), not the input (exit 3)
        tree = write("p19.txt", "".join(f"{u} {v}\n" for u, v in [
            (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 10),
            *((5, v) for v in range(6, 10)), *((10, v) for v in range(11, 19))]))
        order = write("p19.order", "6 7 11 10 9 15 8 5 18 1 13 3 4 16 12 17 14 0 2\n")
        assert main(["label", tree, "--order", order]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "labelling from this order is invalid: label for vertex 7 would be -3\n"

    def test_label_checks_the_order_once(self, capsys, monkeypatch, path_file, write):
        # one check serves the a-sequence and the labels
        calls = count_calls(monkeypatch, "check_order")
        order = write("p5.order", "2 1 4 0 3\n")
        assert main(["label", path_file(5), "--order", order]) == 0
        assert capsys.readouterr().out.splitlines() == ["0 8", "1 4", "2 0", "3 10", "4 6"]
        assert len(calls) == 1

    def test_long_bad_order_token_is_quoted_short(self, capsys, path_file, write):
        order = write("p5.order", "2 1 " + "x" * 20000 + " 0 3\n")
        assert main(["label", path_file(5), "--order", order]) == 3
        err = capsys.readouterr().err
        assert err.startswith("BadVertex: order token 'xxx") and len(err) < 1024

    def test_label_certifying_order(self, capsys, path_file, write):
        order = write("p5.order", "2 1 4 0 3\n")
        assert main(["certify", path_file(5), "--order", order]) == 0
        capsys.readouterr()
        assert main(["label", path_file(5), "--order", order]) == 0
        out, err = capsys.readouterr()
        assert out.splitlines() == ["0 8", "1 4", "2 0", "3 10", "4 6"]
        assert err == ""

    def test_verify_violation_prints_pair(self, capsys, path_file, write):
        labels = write("bad.labels", "1 0\n3 2\n0 4\n2 5\n")
        assert main(["verify", path_file(4), "--labels", labels]) == 1
        assert "(0, 2)" in capsys.readouterr().out

    @pytest.mark.parametrize("text", [
        "2 -10\n1 4\n4 6\n0 8\n3 10\n",          # negative label
        "2 0\n1 4\n4 6\n0 8\n3 10\n99 20\n",    # vertex outside the tree
        "2 0\n1 4\n4 6.5\n0 8\n3 10\n",          # non-integer label
        "2 0\n1 4\nfour 6\n0 8\n3 10\n",         # non-integer vertex id
    ], ids=["negative-label", "unknown-vertex", "float-label", "non-int-vertex"])
    def test_verify_rejects_labelling_outside_contract(self, capsys, path_file,
                                                       write, text):
        labels = write("p5.labels", text)
        assert main(["verify", path_file(5), "--labels", labels]) == 3
        assert "valid" not in capsys.readouterr().out

    @pytest.mark.parametrize("text, message", [
        ("0 0\n", "MissingLabel: 10004 vertices without labels, starting [1, 2, 3, 4, 5]"),
        (" ".join(map(str, range(10005))) + "\n", "MissingLabel: bad label line: '0 1 2 3"),
        (f"{NINES} 3\n", f"BadVertex: vertex {SHORT_NINES} not in 0..10004\n"),
        (f"0 -{NINES}\n", f"NegativeLabel: vertex 0 has negative label -{SHORT_NINES}\n"),
        (f"{NINES} 0\n{NINES} 1\n", f"DuplicateLabel: vertex {SHORT_NINES} labelled twice\n"),
    ], ids=["one-label", "order-file", "huge-vertex", "huge-negative-label", "huge-duplicate"])
    def test_verify_reports_a_large_fault_briefly(self, capsys, write, text, message):
        # C(5,2500), p = 10,005: exit 3 and under 1 KB on stderr
        tree = write("c5.txt", format_tree_text(families.gen_caterpillar(5, 2500).tree))
        assert main(["verify", tree, "--labels", write("c5.labels", text)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(message) and len(err) < 1024

    @pytest.mark.parametrize("text", ["", "\n", "# no labels\n"],
                             ids=["empty", "blank", "comment-only"])
    def test_verify_refuses_a_file_without_labels(self, capsys, path_file, write, text):
        assert main(["verify", path_file(4), "--labels", write("l.txt", text)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == "MissingLabel: empty labelling\n"

    def test_greedy_label(self, capsys, path_file, write):
        order = write("p4.order", "1 3 0 2\n")
        assert main(["label", path_file(4), "--order", order, "--greedy"]) == 0
        out = capsys.readouterr().out
        assert "2 5" in out.splitlines()

    def test_greedy_label_is_verified(self, capsys, monkeypatch, path_file, write):
        # a greedy completion that broke the radio condition is not printed
        monkeypatch.setattr(cli, "greedy_label_from_order",
                            lambda m, order: RadioLabelling({0: 0, 1: 1, 2: 2, 3: 3}))
        order = write("p4.order", "1 3 0 2\n")
        assert main(["label", path_file(4), "--order", order, "--greedy"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "violates the radio condition at pair (0, 1)" in captured.err

    def test_label_dot(self, capsys, path_file, write):
        order = write("p4.order", "1 3 0 2\n")
        assert main(["label", path_file(4), "--order", order, "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph tree {") and "f=5" in out


class TestExact:
    def test_p9(self, capsys, path_file):
        code, rep = run_json(capsys, ["exact", path_file(9), "--json"])
        assert code == 0
        assert rep["exact"]["rn"] == 34
        assert rep["exact"]["completed"] is True
        assert list(rep["exact"]) == ["rn", "completed", "nodes"]

    def test_timeout_flag(self, capsys, path_file):
        code, rep = run_json(capsys, ["exact", path_file(5), "--timeout-s", "30", "--json"])
        assert code == 0
        assert rep["exact"]["rn"] == 10 and rep["exact"]["completed"] is True

    def test_stats_opt_in(self, capsys, path_file):
        code, rep = run_json(capsys, ["exact", path_file(9), "--json", "--stats"])
        assert code == 0 and "elapsed_s" in rep["exact"]
        assert set(rep["exact"]["pruned"]) == {"twin", "remaining", "suffix_bound"}
        assert rep["exact"]["lower_bound"] == rep["exact"]["rn"] == 34
        incumbents = rep["exact"]["incumbents"]
        assert incumbents[0] == [0, 64]  # the identity order's greedy span
        assert incumbents[-1][1] == 34
        assert incumbents[-1][0] <= rep["exact"]["nodes"]

    def test_node_budget_reports_interval(self, capsys, write):
        # rn 45 = improved bound + 3: the probe fails within the budget, so
        # rn >= improved + 1 is proven, and the downward search runs out
        path = write("r12.txt", format_tree_text(families.gen_random_two_branch(12, 1).tree))
        argv = ["exact", path, "--max-nodes", "1000", "--stats", "--json"]
        code, rep = run_json(capsys, argv)
        assert code == 4
        exact = rep["exact"]
        assert exact["completed"] is False and exact["nodes"] == 1000
        assert exact["lower_bound"] == rep["bound_improved"] + 1 <= 45 <= exact["rn"]
        assert exact["incumbents"][-1][1] == exact["rn"]
        assert main(argv[:-1]) == 4
        assert "lower_bound: " in capsys.readouterr().out

    def test_one_edge_tree(self, capsys, path_file):
        code, rep = run_json(capsys, ["exact", path_file(2), "--json", "--labels"])
        assert code == 0 and rep["bound_basic"] is None
        assert rep["exact"]["rn"] == 1 and rep["exact"]["completed"] is True
        assert rep["labels"] == {"0": 0, "1": 1}

    def test_node_budget_on_a_larger_tree_reports_interval(self, capsys, write):
        # C(5,4), p = 21: no vertex count is refused, so the search runs
        # until the budget stops it, and the report holds the proven interval
        # (unbudgeted, the probe completes at rn 53 in 21 nodes)
        path = write("c54.txt", format_tree_text(families.gen_caterpillar(5, 4).tree))
        code, rep = run_json(capsys, ["exact", path, "--max-nodes", "10", "--stats", "--json"])
        assert code == 4
        exact = rep["exact"]
        assert exact["completed"] is False and exact["nodes"] == 10
        assert exact["lower_bound"] == rep["bound_basic"] < exact["rn"]

    def test_deep_tree_is_a_resource_error(self, capsys, write):
        # deeper than the recursive search can go: exit 4 before any work
        path = write("p1500.txt", format_tree_text(families.gen_path(1500).tree))
        argv = ["exact", path, "--max-nodes", "1"]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err and "recursion depth" in err

    @pytest.mark.parametrize("flags", [
        ["--timeout-s", "-1"],
        ["--timeout-s", "0"],
        ["--timeout-s", "nan"],
        ["--max-nodes", "0"],
    ])
    def test_bad_limits_are_usage_errors(self, capsys, path_file, flags):
        with pytest.raises(SystemExit) as exc:
            main(["exact", path_file(9), *flags])
        assert exc.value.code == 2


class TestArgumentErrors:
    """A refused command-line number is a usage error, exit 2, and its
    message shows a long number by its start only."""

    @pytest.mark.parametrize("argv, shown", [
        (["exact", "P3", f"--max-nodes=-{NINES}"],
         f"--max-nodes: must be at least 1, got -{SHORT_NINES}"),
        (["exact", "P3", f"--max-nodes=9{NINES}"],
         f"--max-nodes: not an integer: '{NINES[:80]}'... (4301 characters)"),
        (["exact", "P3", f"--timeout-s=-{NINES}"],
         f"--timeout-s: must be positive, got '-{NINES[:79]}'... (4301 characters)"),
        (["exact", "P3", f"--timeout-s=x{NINES}"],
         f"--timeout-s: not a number: 'x{NINES[:79]}'... (4301 characters)"),
        (["gen", "path", f"--n=9{NINES}"],
         f"--n: not an integer: '{NINES[:80]}'... (4301 characters)"),
        (["gen", "levelwise", f"--degrees=2,9{NINES}"],
         f"--degrees: not an integer: '{NINES[:80]}'... (4301 characters)"),
    ], ids=["max-nodes-negative", "max-nodes-too-long", "timeout-s-negative",
            "timeout-s-not-a-number", "n-too-long", "degrees-too-long"])
    def test_huge_argument_is_shown_short(self, capsys, path_file, argv, shown):
        argv = [path_file(3) if arg == "P3" else arg for arg in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"argument {shown}\n") and len(err) < 1024

    # argparse echoes the word it refuses; one of over 100 characters is
    # shown by its first 80 and its length
    @pytest.mark.parametrize("argv, shown", [
        (["x" * 100_000],
         "argument command: invalid choice: \"'" + "x" * 79 + "\"... (100002 characters)"),
        (["gen", "x" * 100_000],
         "argument family: invalid choice: \"'" + "x" * 79 + "\"... (100002 characters)"),
        (["analyze", "P3", "--" + "x" * 100_000],
         "unrecognized arguments: '--" + "x" * 78 + "'... (100002 characters)"),
        (["gen", "path", "--n", "3", "x" * 101],
         "unrecognized arguments: '" + "x" * 80 + "'... (101 characters)"),
        (["gen", "path", "--n", "3", "x" * 100], "unrecognized arguments: " + "x" * 100),
        (["gen", "x" * 99],
         "argument family: invalid choice: \"'" + "x" * 79 + "\"... (101 characters)"),
        (["gen", "x" * 98], "argument family: invalid choice: '" + "x" * 98 + "'"),
        (["gen", "trees"], "argument family: invalid choice: 'trees'"),
        (["analyze", "P3", "--compare"], "unrecognized arguments: --compare"),
    ], ids=["verb", "family", "option", "extra-word-101", "extra-word-100", "family-101",
            "family-100", "family-short", "analyze-compare"])
    def test_refused_word_is_shown_short(self, capsys, path_file, argv, shown):
        argv = [path_file(3) if arg == "P3" else arg for arg in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: {shown}" in err and len(err) < 1024


class TestGen:
    def test_path_stdout(self, capsys):
        assert main(["gen", "path", "--n", "4"]) == 0
        assert capsys.readouterr().out == "0 1\n1 2\n2 3\n"

    def test_random_draws_exhausted_is_a_resource_error(self, capsys, monkeypatch):
        monkeypatch.setattr(families, "RANDOM_DRAWS", 0)
        assert main(["gen", "random", "--n", "6"]) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err and "after 0 draws" in err

    def test_names(self, capsys):
        assert main(["gen", "caterpillar", "--n", "3", "--k", "1", "--names"]) == 0
        out = capsys.readouterr().out
        assert "# v_{1,1} 3" in out

    def test_with_order_roundtrip(self, capsys, tmp_path):
        out_file = tmp_path / "c31.txt"
        assert main(["gen", "caterpillar", "--n", "3", "--k", "1",
                     "-o", str(out_file), "--with-order"]) == 0
        code, rep = run_json(capsys, ["certify", str(out_file),
                                      "--order", str(out_file) + ".order", "--json"])
        assert code == 0 and rep["certification"]["span"] == 10

    def test_with_order_requires_output(self, capsys):
        assert main(["gen", "caterpillar", "--n", "3", "--k", "1",
                     "--with-order"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--with-order requires -o" in err

    @pytest.mark.parametrize("argv", [
        ["path", "--n", "5"],
        ["random", "--n", "7"],
        ["levelwise", "--z", "1", "--degrees", "2"],  # a constructor, but no order
    ])
    def test_with_order_failure_leaves_no_file(self, capsys, tmp_path, argv):
        out_file = tmp_path / "t.txt"
        assert main(["gen", *argv, "-o", str(out_file), "--with-order"]) == 3
        assert "UnsupportedParams" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv,flag,expected", [
        (["levelwise", "--z", "2", "--degrees", "2,3"], "--names",
         "0 1\n0 2\n1 5\n2 3\n2 4\n5 6\n5 7\n# vertex names\n# w 0\n# w' 1\n"
         "# w_{0} 2\n# w_{0,0} 3\n# w_{0,1} 4\n# w'_{0} 5\n# w'_{0,0} 6\n# w'_{0,1} 7\n"),
        (["levelwise", "--z", "2", "--degrees", "2,3"], "--dot",
         'graph tree {\n  0 [label="w"];\n  1 [label="w\'"];\n  2 [label="w_{0}"];\n'
         '  3 [label="w_{0,0}"];\n  4 [label="w_{0,1}"];\n  5 [label="w\'_{0}"];\n'
         '  6 [label="w\'_{0,0}"];\n  7 [label="w\'_{0,1}"];\n  0 -- 1;\n  0 -- 2;\n'
         '  1 -- 5;\n  2 -- 3;\n  2 -- 4;\n  5 -- 6;\n  5 -- 7;\n}\n'),
        (["lmh", "--z", "2", "--m", "2", "--h", "2"], "--names",
         "0 1\n0 2\n1 3\n2 4\n2 5\n3 6\n3 7\n# vertex names\n# r_1 0\n# r_2 1\n"
         "# w^1 2\n# w^2 3\n# w^1_{1,1} 4\n# w^1_{2,1} 5\n# w^2_{1,1} 6\n# w^2_{2,1} 7\n"),
        (["lmh", "--z", "2", "--m", "2", "--h", "2"], "--dot",
         'graph tree {\n  0 [label="r_1"];\n  1 [label="r_2"];\n  2 [label="w^1"];\n'
         '  3 [label="w^2"];\n  4 [label="w^1_{1,1}"];\n  5 [label="w^1_{2,1}"];\n'
         '  6 [label="w^2_{1,1}"];\n  7 [label="w^2_{2,1}"];\n  0 -- 1;\n  0 -- 2;\n'
         '  1 -- 3;\n  2 -- 4;\n  2 -- 5;\n  3 -- 6;\n  3 -- 7;\n}\n'),
        (["random", "--n", "6", "--seed", "1"], "--names",
         "0 2\n0 4\n1 3\n1 4\n2 5\n# vertex names\n# 0 0\n# 1 1\n# 2 2\n# 3 3\n"
         "# 4 4\n# 5 5\n"),
        (["random", "--n", "6", "--seed", "1"], "--dot",
         'graph tree {\n  0 [label="0"];\n  1 [label="1"];\n  2 [label="2"];\n'
         '  3 [label="3"];\n  4 [label="4"];\n  5 [label="5"];\n  0 -- 2;\n  0 -- 4;\n'
         '  1 -- 3;\n  1 -- 4;\n  2 -- 5;\n}\n'),
    ], ids=["levelwise-names", "levelwise-dot", "lmh-names", "lmh-dot", "random-names",
            "random-dot"])
    def test_pinned_names_and_dot(self, capsys, argv, flag, expected):
        assert main(["gen", *argv, flag]) == 0
        assert capsys.readouterr().out == expected

    def test_dot(self, capsys):
        assert main(["gen", "path", "--n", "3", "--dot"]) == 0
        out = capsys.readouterr().out
        assert "0 -- 1;" in out

    def test_levelwise(self, capsys):
        assert main(["gen", "levelwise", "--z", "2", "--degrees", "2,3"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 7

    def test_random_deterministic(self, capsys):
        assert main(["gen", "random", "--n", "7", "--seed", "42"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "random", "--n", "7", "--seed", "42"]) == 0
        assert capsys.readouterr().out == first

    def test_bad_params(self, capsys):
        assert main(["gen", "caterpillar", "--n", "2", "--k", "1"]) == 3

    def test_tree_without_edge_is_refused(self, capsys, tmp_path):
        out_file = tmp_path / "p1.txt"
        assert main(["gen", "path", "--n", "1", "-o", str(out_file)]) == 3
        assert "edge-list format" in capsys.readouterr().err
        assert not out_file.exists()

    def test_tree_without_edge_names_its_class(self, capsys):
        assert main(["gen", "path", "--n", "1"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == ("BadParams: P_1 has no edge, and the edge-list format "
                                     "writes a tree as its edges: it needs at least one\n")

    def test_one_edge_round_trip(self, capsys, tmp_path):
        out_file = tmp_path / "p2.txt"
        assert main(["gen", "path", "--n", "2", "-o", str(out_file)]) == 0
        code, rep = run_json(capsys, ["analyze", str(out_file), "--json"])
        assert code == 0 and (rep["p"], rep["diameter"]) == (2, 1)

    @pytest.mark.parametrize("argv", [
        ["path"],
        ["caterpillar", "--n", "5"],
        ["levelwise", "--z", "2"],
        ["lmh", "--m", "2"],
        ["random", "--seed", "3"],
    ])
    def test_missing_family_params(self, capsys, argv):
        assert main(["gen", *argv]) == 2
        assert "needs --" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["path", f"--n=-{NINES}"], f"path needs n >= 1, got -{SHORT_NINES}"),
        (["caterpillar", "--n=5", f"--k=-{NINES}"],
         f"caterpillar needs n >= 3 and k >= 1, got n=5, k=-{SHORT_NINES}"),
        (["levelwise", f"--degrees=2,-{NINES}"],
         f"all degrees >= 2; got z=1, degrees=2,-{SHORT_NINES}"),
        (["lmh", "--m=2", f"--h=-{NINES}"], f"got z=1, m=2, h=-{SHORT_NINES}"),
        (["random", f"--n=-{NINES}"], f"need n >= 3, got -{SHORT_NINES}"),
    ], ids=["path", "caterpillar", "levelwise", "lmh", "random"])
    def test_huge_params_are_shown_short(self, capsys, argv, message):
        assert main(["gen", *argv]) == 3
        err = capsys.readouterr().err
        assert err.startswith("BadParams: ") and err.endswith(message + "\n")
        assert len(err) < 1024

    def test_bad_degree_list(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "levelwise", "--degrees", "2,x"])
        assert exc.value.code == 2


class TestResourceLimits:
    """Exit 4, one line on stderr and no traceback, for an instance too
    large to build and for a command that runs out of memory."""

    @pytest.mark.parametrize("command", ["gen", "demo"])
    @pytest.mark.parametrize("family", [
        ["caterpillar", "--n", "5", "--k", str(10**12)],
        ["levelwise", "--z", "1", "--degrees", "2,100000,100000,100000"],
        ["lmh", "--z", "1", "--m", str(10**12), "--h", "3"],
        ["path", "--n", str(10**12)],
        ["random", "--n", str(10**12)],
        ["path", "--n", NINES],
    ], ids=["C(5,10^12)", "T^1_{2,10^5,10^5,10^5}", "L^1_{10^12,3}", "P_{10^12}", "random",
            "P_{10^4300}"])
    def test_a_family_above_the_limit_exits_at_once(self, capsys, command, family):
        start = time.perf_counter()
        assert main([command, *family]) == 4
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(" vertices exceeds the generators' limit 10000000\n")
        assert err.count("\n") == 1 and "Traceback" not in err and len(err) < 1024

    def test_out_of_memory(self, capsys, monkeypatch, path_file):
        def exhausted(tree):
            raise MemoryError
        monkeypatch.setattr(cli, "metrics", exhausted)
        for argv in (["analyze", path_file(9)], ["demo", "caterpillar", "--n", "5", "--k", "3"]):
            assert main(argv) == 4
            assert capsys.readouterr().err == "out of memory\n"


class TestDemo:
    def test_caterpillar_31(self, capsys):
        code, rep = run_json(capsys, ["demo", "caterpillar", "--n", "3",
                                      "--k", "1", "--json"])
        assert code == 0
        assert rep["family"] == "C(3,1)"
        assert rep["certification"] == {"certified": True, "stage": None, "span": 10}

    def test_lmh(self, capsys):
        code, rep = run_json(capsys, ["demo", "lmh", "--z", "2", "--m", "2",
                                      "--h", "2", "--json"])
        assert code == 0 and rep["certification"]["span"] == 17

    def test_levelwise(self, capsys):
        code, rep = run_json(capsys, ["demo", "levelwise", "--z", "1",
                                      "--degrees", "2,3,3", "--json"])
        assert code == 0 and rep["certification"]["span"] == 35

    @pytest.mark.parametrize("argv", [["caterpillar", "--n", "5", "--k", "3"],
                                      ["lmh", "--z", "2", "--m", "3", "--h", "3"],
                                      ["levelwise", "--z", "2", "--degrees", "2,3,3"]])
    def test_metrics_computed_once(self, capsys, monkeypatch, argv):
        calls = []
        original = cli.metrics

        def counting(tree):
            calls.append(tree.p)
            return original(tree)

        monkeypatch.setattr(cli, "metrics", counting)
        monkeypatch.setattr(families, "metrics", counting)
        code, rep = run_json(capsys, ["demo", *argv, "--json"])
        assert code == 0 and rep["certification"]["certified"]
        assert len(calls) == 1

    @pytest.mark.parametrize("degrees", ["2", "3,3"])
    def test_levelwise_without_certifying_order(self, capsys, degrees):
        # T^1_{2} is the path P_3, whose rn 3 is below its improved bound 4:
        # an input error like any off-grid degree list, not "not certified"
        assert main(["demo", "levelwise", "--z", "1", "--degrees", degrees]) == 3
        assert "certifying order" in capsys.readouterr().err

    @pytest.mark.parametrize("n,k", [(4, 9), (16, 1)])
    def test_caterpillar_constructed_order(self, capsys, n, k):
        code, rep = run_json(capsys, ["demo", "caterpillar", "--n", str(n),
                                      "--k", str(k), "--json"])
        assert code == 0
        assert rep["certification"] == {"certified": True, "stage": None,
                                        "span": rn_caterpillar(n, k)}

    @pytest.fixture
    def certify_calls(self, monkeypatch):
        """Count certify_tightness calls at every module that binds it."""
        calls = []

        def counted(m, order):
            calls.append(order)
            return bounds.certify_tightness(m, order)

        monkeypatch.setattr(families, "certify_tightness", counted)
        monkeypatch.setattr(cli, "certify_tightness", counted)
        return calls

    @pytest.mark.parametrize("argv", [
        ["caterpillar", "--n", "5", "--k", "3"],
        ["levelwise", "--z", "2", "--degrees", "2,3"],
        ["lmh", "--z", "1", "--m", "3", "--h", "2"],
    ])
    def test_certifies_once(self, capsys, certify_calls, argv):
        code, rep = run_json(capsys, ["demo", *argv, "--json"])
        assert code == 0 and rep["certification"]["certified"]
        assert rep["certification"]["span"] == rep["bound_improved"]
        assert len(certify_calls) == 1

    def test_failure_names_the_stage(self, capsys, monkeypatch):
        def failing(m, order):
            raise CertificationFailure("verification", "radio condition fails")

        monkeypatch.setattr(families, "certify_tightness", failing)
        code, rep = run_json(capsys, ["demo", "caterpillar", "--n", "3",
                                      "--k", "1", "--json"])
        assert code == 1
        assert rep["certification"] == {"certified": False, "stage": "verification",
                                        "span": None}


class TestDeterminism:
    def test_byte_identical_reports(self, capsys, path_file):
        main(["analyze", path_file(9), "--json"])
        first = capsys.readouterr().out
        main(["analyze", path_file(9), "--json"])
        assert capsys.readouterr().out == first

    def test_report_round_trip(self, capsys, path_file):
        _, rep = run_json(capsys, ["analyze", path_file(9), "--json"])
        assert json.loads(json.dumps(rep)) == rep


# random bytes, or lines of small integer tokens so that some inputs parse
_fuzz_token = st.one_of(st.integers(-1, 9).map(str),
                        st.sampled_from(["x", "2.5", "999999999999", "#"]))
_fuzz_file = st.one_of(
    st.binary(max_size=48),
    st.lists(st.lists(_fuzz_token, max_size=3).map(" ".join), max_size=10)
    .map("\n".join).map(str.encode),
)


# optional flags, each drawn for the verbs that take it
_fuzz_flags = st.fixed_dictionaries({
    "--json": st.booleans(),
    "--stats": st.booleans(),
    "--max-nodes": st.none() | st.integers(1, 1000),
})
# family parameters for gen and demo: out-of-range values included, each
# instance small (p stays below a few hundred)
_fuzz_family = st.sampled_from(["path", "caterpillar", "levelwise", "lmh", "random"])
_fuzz_params = st.fixed_dictionaries({
    "--n": st.none() | st.integers(-2, 14).map(str),
    "--k": st.none() | st.integers(-1, 6).map(str),
    "--z": st.none() | st.integers(-1, 3).map(str),
    "--m": st.none() | st.integers(-1, 6).map(str),
    "--h": st.none() | st.integers(-1, 5).map(str),
    "--degrees": st.none() | st.lists(st.integers(-1, 5), min_size=1, max_size=4)
    .map(lambda ds: ",".join(map(str, ds))),
    "--seed": st.none() | st.integers(0, 3).map(str),
})
_FUZZ_GEN_SWITCHES = ("--names", "--with-order", "--dot")
_FUZZ_VERB_FLAGS = {
    "analyze": {"--json"},
    "bounds": {"--json"},
    "certify": {"--json"},
    "exact": {"--json", "--stats", "--max-nodes"},
}


class TestFuzz:
    @given(command=st.sampled_from(["analyze", "bounds", "certify", "verify",
                                    "label", "exact"]),
           tree=_fuzz_file, order=_fuzz_file, labels=_fuzz_file, flags=_fuzz_flags)
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_random_files_exit_with_documented_codes(self, tmp_path, command,
                                                     tree, order, labels, flags):
        paths = {}
        for name, data in (("tree", tree), ("order", order), ("labels", labels)):
            paths[name] = tmp_path / name
            paths[name].write_bytes(data)
        argv = [command, str(paths["tree"])]
        if command in ("certify", "label"):
            argv += ["--order", str(paths["order"])]
        if command == "verify":
            argv += ["--labels", str(paths["labels"])]
        for flag, value in flags.items():
            if flag not in _FUZZ_VERB_FLAGS.get(command, ()):
                continue
            if value is True:
                argv.append(flag)
            elif value not in (None, False):
                argv += [flag, str(value)]
        assert main(argv) in {0, 1, 2, 3, 4}

    @given(verb=st.sampled_from(["gen", "demo"]), family=_fuzz_family, params=_fuzz_params,
           output=st.booleans(), switches=st.sets(st.sampled_from(_FUZZ_GEN_SWITCHES)),
           json_out=st.booleans())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_family_verbs_exit_with_documented_codes(self, tmp_path, capsys, verb, family,
                                                     params, output, switches, json_out):
        argv = [verb, family]
        for flag, value in params.items():
            if value is not None:
                argv.append(f"{flag}={value}")  # "--n -2" would read as an option
        if verb == "gen":
            if output:
                argv += ["-o", str(tmp_path / "tree.txt")]
            argv += sorted(switches)
        elif json_out:
            argv.append("--json")
        assert main(argv) in {0, 1, 2, 3, 4}
        assert "Traceback" not in capsys.readouterr().err
