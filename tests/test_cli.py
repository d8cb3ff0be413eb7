import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from radiotree import CertificationFailure, bounds, cli, families, rn_caterpillar
from radiotree.cli import main
from radiotree.tree import format_tree_text

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
def p9_file(tmp_path):
    path = tmp_path / "p9.txt"
    path.write_text("".join(f"{i} {i + 1}\n" for i in range(8)))
    return str(path)


@pytest.fixture
def p4_file(tmp_path):
    path = tmp_path / "p4.txt"
    path.write_text("0 1\n1 2\n2 3\n")
    return str(path)


@pytest.fixture
def p5_file(tmp_path):
    path = tmp_path / "p5.txt"
    path.write_text("0 1\n1 2\n2 3\n3 4\n")
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestAnalyze:
    def test_json_report(self, capsys, p9_file):
        code, rep = run_json(capsys, ["analyze", p9_file, "--json"])
        assert code == 0
        assert list(rep) == REPORT_KEYS
        assert rep["bound_improved"] == 34
        assert rep["weight_centers"] == [4]

    def test_text_output(self, capsys, p9_file):
        assert main(["analyze", p9_file]) == 0
        assert "bound_improved: 34" in capsys.readouterr().out

    def test_missing_file(self, capsys, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.txt")]) == 3

    def test_bad_tree_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\n2 3\n")
        assert main(["analyze", str(bad)]) == 3

    def test_directory_as_tree(self, capsys, tmp_path):
        assert main(["analyze", str(tmp_path)]) == 3

    def test_undecodable_tree_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"0 1\n\xff\xfe 2\n")
        assert main(["analyze", str(bad)]) == 3


class TestBounds:
    def test_p9_improved(self, capsys, p9_file):
        code, rep = run_json(capsys, ["bounds", p9_file, "--json"])
        assert code == 0 and rep["bound_improved"] == 34

    def test_compare_even(self, capsys, p9_file):
        code, rep = run_json(capsys, ["bounds", p9_file, "--compare", "--json"])
        assert code == 0
        assert rep["comparison"] == {"x": 4, "value": 34, "line": "even"}

    def test_compare_odd_with_center(self, capsys, tmp_path):
        path = tmp_path / "p6.txt"
        path.write_text("".join(f"{i} {i + 1}\n" for i in range(5)))
        code, rep = run_json(
            capsys, ["bounds", str(path), "--compare", "--center", "2", "--json"]
        )
        assert code == 0
        assert rep["comparison"] == {"x": 2, "value": 13, "line": "odd"}


class TestCertify:
    def test_good_order(self, capsys, tmp_path):
        tree = tmp_path / "p5.txt"
        tree.write_text("0 1\n1 2\n2 3\n3 4\n")
        order = tmp_path / "p5.order"
        order.write_text("2 1 4 0 3\n")
        code, rep = run_json(
            capsys, ["certify", str(tree), "--order", str(order), "--json"]
        )
        assert code == 0
        assert rep["certification"] == {"certified": True, "stage": None, "span": 10}

    def test_bad_order(self, capsys, tmp_path):
        tree = tmp_path / "p5.txt"
        tree.write_text("0 1\n1 2\n2 3\n3 4\n")
        order = tmp_path / "p5.order"
        order.write_text("0 1 2 3 4\n")
        code, rep = run_json(
            capsys, ["certify", str(tree), "--order", str(order), "--json"]
        )
        assert code == 1
        assert rep["certification"]["certified"] is False
        assert rep["certification"]["stage"] == "condition_a"

    def test_non_integer_order_token(self, capsys, p5_file, tmp_path):
        order = tmp_path / "p5.order"
        order.write_text("2 1 x 0 3\n")
        assert main(["certify", p5_file, "--order", str(order)]) == 3


class TestLabelAndVerify:
    def test_label_then_verify(self, capsys, tmp_path):
        tree = tmp_path / "p5.txt"
        tree.write_text("0 1\n1 2\n2 3\n3 4\n")
        order = tmp_path / "p5.order"
        order.write_text("2 1 4 0 3\n")
        assert main(["label", str(tree), "--order", str(order)]) == 0
        labels_text = capsys.readouterr().out
        labels = tmp_path / "p5.labels"
        labels.write_text(labels_text)
        assert main(["verify", str(tree), "--labels", str(labels)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_label_rejects_order_whose_recurrence_is_invalid(self, capsys, p5_file,
                                                             tmp_path):
        # the recurrence on this order gives labels 0 2 6 10 12, which fail at (0, 1)
        order = tmp_path / "p5.order"
        order.write_text("0 1 2 3 4\n")
        assert main(["label", p5_file, "--order", str(order)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "(0, 1)" in err

    def test_label_certifying_order(self, capsys, p5_file, tmp_path):
        order = tmp_path / "p5.order"
        order.write_text("2 1 4 0 3\n")
        assert main(["certify", p5_file, "--order", str(order)]) == 0
        capsys.readouterr()
        assert main(["label", p5_file, "--order", str(order)]) == 0
        out, err = capsys.readouterr()
        assert out.splitlines() == ["0 8", "1 4", "2 0", "3 10", "4 6"]
        assert err == ""

    def test_verify_violation_prints_pair(self, capsys, p4_file, tmp_path):
        labels = tmp_path / "bad.labels"
        labels.write_text("1 0\n3 2\n0 4\n2 5\n")
        assert main(["verify", p4_file, "--labels", str(labels)]) == 1
        assert "(0, 2)" in capsys.readouterr().out

    @pytest.mark.parametrize("text", [
        "2 -10\n1 4\n4 6\n0 8\n3 10\n",          # negative label
        "2 0\n1 4\n4 6\n0 8\n3 10\n99 20\n",    # vertex outside the tree
        "2 0\n1 4\n4 6.5\n0 8\n3 10\n",          # non-integer label
        "2 0\n1 4\nfour 6\n0 8\n3 10\n",         # non-integer vertex id
    ])
    def test_verify_rejects_labelling_outside_contract(self, capsys, p5_file,
                                                       tmp_path, text):
        labels = tmp_path / "p5.labels"
        labels.write_text(text)
        assert main(["verify", p5_file, "--labels", str(labels)]) == 3
        assert "valid" not in capsys.readouterr().out

    def test_greedy_label(self, capsys, p4_file, tmp_path):
        order = tmp_path / "p4.order"
        order.write_text("1 3 0 2\n")
        assert main(["label", p4_file, "--order", str(order), "--greedy"]) == 0
        out = capsys.readouterr().out
        assert "2 5" in out.splitlines()

    def test_label_dot(self, capsys, p4_file, tmp_path):
        order = tmp_path / "p4.order"
        order.write_text("1 3 0 2\n")
        assert main(["label", p4_file, "--order", str(order), "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph tree {") and "f=5" in out


class TestExact:
    def test_p9(self, capsys, p9_file):
        code, rep = run_json(capsys, ["exact", p9_file, "--json"])
        assert code == 0
        assert rep["exact"]["rn"] == 34
        assert rep["exact"]["completed"] is True
        assert list(rep["exact"]) == ["rn", "completed", "nodes"]

    def test_stats_opt_in(self, capsys, p9_file):
        code, rep = run_json(capsys, ["exact", p9_file, "--json", "--stats"])
        assert code == 0 and "elapsed_s" in rep["exact"]
        assert set(rep["exact"]["pruned"]) == {"twin", "remaining", "suffix_bound"}
        assert rep["exact"]["lower_bound"] == rep["exact"]["rn"] == 34

    def test_node_budget_reports_interval(self, capsys, tmp_path):
        # rn 45 = improved bound + 3: the probe fails within the budget, so
        # rn >= improved + 1 is proven, and the downward search runs out
        path = tmp_path / "r12.txt"
        path.write_text(format_tree_text(families.gen_random_two_branch(12, 1).tree))
        argv = ["exact", str(path), "--max-nodes", "1000", "--stats", "--json"]
        code, rep = run_json(capsys, argv)
        assert code == 4
        exact = rep["exact"]
        assert exact["completed"] is False and exact["nodes"] == 1000
        assert exact["lower_bound"] == rep["bound_improved"] + 1 <= 45 <= exact["rn"]
        assert main(argv[:-1]) == 4
        assert "lower_bound: " in capsys.readouterr().out

    def test_max_order_limit(self, capsys, p9_file):
        assert main(["exact", p9_file, "--max-order", "5"]) == 4

    def test_deep_tree_is_a_resource_error(self, capsys, tmp_path):
        # deeper than the recursive search can go: exit 4 before any work
        path = tmp_path / "p1500.txt"
        path.write_text(format_tree_text(families.gen_path(1500).tree))
        argv = ["exact", str(path), "--max-order", "5000", "--max-nodes", "1"]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err and "recursion depth" in err

    @pytest.mark.parametrize("flags", [
        ["--timeout-s", "-1"],
        ["--timeout-s", "0"],
        ["--timeout-s", "nan"],
        ["--max-order", "0"],
        ["--max-nodes", "0"],
    ])
    def test_bad_limits_are_usage_errors(self, capsys, p9_file, flags):
        with pytest.raises(SystemExit) as exc:
            main(["exact", p9_file, *flags])
        assert exc.value.code == 2


class TestGen:
    def test_path_stdout(self, capsys):
        assert main(["gen", "path", "--n", "4"]) == 0
        assert capsys.readouterr().out == "0 1\n1 2\n2 3\n"

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

    def test_bad_degree_list(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "levelwise", "--degrees", "2,x"])
        assert exc.value.code == 2


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
    def test_byte_identical_reports(self, capsys, p9_file):
        main(["analyze", p9_file, "--json"])
        first = capsys.readouterr().out
        main(["analyze", p9_file, "--json"])
        assert capsys.readouterr().out == first

    def test_report_round_trip(self, capsys, p9_file):
        _, rep = run_json(capsys, ["analyze", p9_file, "--json"])
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
    "--max-order": st.none() | st.integers(1, 8),
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
    "exact": {"--json", "--stats", "--max-order", "--max-nodes"},
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
