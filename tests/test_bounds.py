import sys
import tracemalloc

import pytest

import oracles
from oracles import path, pruefer_tree
from radiotree import (
    ASequence,
    CertificationFailure,
    DiameterTooSmall,
    NotAPermutation,
    NotOmegaTree,
    NotTwoBranch,
    a_sequence,
    bound_report,
    build_tree,
    certify_tightness,
    check_condition_a,
    check_condition_b,
    check_order,
    exact_rn,
    gen_caterpillar,
    gen_levelwise,
    gen_lmh,
    greedy_label_from_order,
    label_from_order,
    liu_bound_even,
    liu_bound_odd,
    lower_bound_basic,
    lower_bound_improved,
    metrics,
    proof_order_caterpillar,
    proof_order_levelwise,
    proof_order_lmh,
    strict_gap_predicate,
)
from radiotree import bounds, orders


def path_metrics(n):
    return metrics(path(n))


class TestBasicBound:
    def test_p4(self):
        assert lower_bound_basic(path_metrics(4)) == 5

    def test_p5(self):
        assert lower_bound_basic(path_metrics(5)) == 9

    def test_p3(self):
        assert lower_bound_basic(path_metrics(3)) == 3


class TestImprovedBound:
    def test_p9(self):
        assert lower_bound_improved(path_metrics(9)) == 34

    def test_c51(self):
        assert lower_bound_improved(metrics(gen_caterpillar(5, 1).tree)) == 26

    def test_l2_22(self):
        # the certified construction and the exact solver both give 17 here;
        # the value 18 sometimes quoted for this tree overstates xi by 2
        assert lower_bound_improved(metrics(gen_lmh(2, 2, 2).tree)) == 17

    def test_p3_exceeds_true_radio_number(self):
        # documented anomaly: the improved bound is 4 but rn(P_3) = 3
        assert lower_bound_improved(path_metrics(3)) == 4

    def test_gap_is_xi(self):
        for n in range(4, 11):
            m = path_metrics(n)
            assert lower_bound_improved(m) - lower_bound_basic(m) == m.xi

    def test_requires_two_branch(self):
        star = metrics(build_tree([(0, 1), (0, 2), (0, 3)]))
        with pytest.raises(NotTwoBranch):
            lower_bound_improved(star)


class TestStrictGap:
    def test_p5_true(self):
        assert strict_gap_predicate(path_metrics(5))

    def test_p4_false(self):
        assert not strict_gap_predicate(path_metrics(4))

    def test_p6_false(self):
        assert not strict_gap_predicate(path_metrics(6))

    def test_star_is_not_two_branch(self):
        with pytest.raises(NotTwoBranch, match="strict-gap predicate applies"):
            strict_gap_predicate(metrics(oracles.star(3)))


class TestCertifyTightness:
    def test_p5_certificate(self):
        lab = certify_tightness(path_metrics(5), (2, 1, 4, 0, 3))
        assert lab.span == 10

    def test_endpoint_and_sum_bad_order(self):
        # endpoint sum 2 without admissibility; also breaks the bookkeeping
        # identity (2 + 1 != epsilon + xi = 2), caught at the first stage
        with pytest.raises(CertificationFailure) as exc:
            certify_tightness(path_metrics(5), (2, 1, 3, 0, 4))
        assert exc.value.stage == "condition_a"

    def test_certified_orders_satisfy_bookkeeping_sum(self):
        m = path_metrics(5)
        lab = certify_tightness(m, (2, 1, 4, 0, 3))
        order = sorted(lab.labels, key=lab.labels.get)
        from radiotree import a_sequence

        total = m.level[order[0]] + m.level[order[-1]] + a_sequence(m, order).total
        assert total == m.epsilon + m.xi

    def test_condition_b_failure(self):
        with pytest.raises(CertificationFailure) as exc:
            certify_tightness(path_metrics(5), (2, 1, 0, 4, 3))
        assert exc.value.stage == "condition_b"
        assert "(1, 2)" in exc.value.detail

    def test_condition_a_failure(self):
        with pytest.raises(CertificationFailure) as exc:
            certify_tightness(path_metrics(5), (0, 1, 2, 3, 4))
        assert exc.value.stage == "condition_a"

    @pytest.mark.parametrize("tamper, detail", [
        (lambda f: [f[0], f[0]] + f[2:], "radio condition fails at pair (1, 2)"),
        (lambda f: f[:-1] + [f[-1] + 1], "span 11 != improved bound 10"),
    ], ids=["pair", "span"])
    def test_verification_catches_tampered_labels(self, monkeypatch, tamper, detail):
        # the re-check is a guard against a defect in the stages before it:
        # labels changed after condition (b) passed must not certify
        original = bounds._certified_labels
        monkeypatch.setattr(bounds, "_certified_labels",
                            lambda m, seq: tamper(original(m, seq)))
        with pytest.raises(CertificationFailure) as exc:
            certify_tightness(path_metrics(5), (2, 1, 4, 0, 3))
        assert exc.value.stage == "verification"
        assert exc.value.detail == detail

    def test_requires_two_branch(self):
        # an input error before any stage, not a certification failure
        star = metrics(oracles.star(3))
        with pytest.raises(NotTwoBranch, match="condition \\(a\\) is defined for two-branch"):
            certify_tightness(star, (0, 1, 2, 3))

    def test_optimal_order_need_not_certify(self):
        # greedy span 60 = the improved bound, so the order is optimal, but
        # its labels take the xi increment one step before the remote vertex
        m = metrics(build_tree([(0, 7), (1, 0), (1, 2), (2, 3), (3, 4), (3, 6),
                                (4, 5), (7, 8), (8, 9), (8, 12), (9, 10), (10, 11)]))
        order = (0, 5, 8, 3, 9, 2, 12, 4, 11, 1, 10, 6, 7)
        assert greedy_label_from_order(m, order).span == lower_bound_improved(m) == 60
        with pytest.raises(CertificationFailure) as exc:
            certify_tightness(m, order)
        assert exc.value.stage == "condition_b"


def count_calls(monkeypatch, name):
    """Count the calls of ``orders.<name>`` through every radiotree module
    that binds it."""
    calls = []
    original = getattr(orders, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("radiotree") \
                and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


class TestOneOrderCheck:
    """certify_tightness validates its order once and hands the checked order
    to every stage; a stage called on its own still validates."""

    def test_one_check_per_certificate(self, monkeypatch):
        inst = gen_caterpillar(5, 50)
        m = metrics(inst.tree)
        order = list(proof_order_caterpillar(inst))
        calls = count_calls(monkeypatch, "check_order")
        lab = certify_tightness(m, order)
        assert lab.span == inst.closed_form_rn
        assert [len(order) for _, order in calls] == [m.p]

    @pytest.mark.parametrize("inst,build", [
        (gen_caterpillar(5, 50), proof_order_caterpillar),
        (gen_lmh(2, 6, 4), proof_order_lmh),
        (gen_levelwise(1, (2, 3, 3)), proof_order_levelwise),
    ])
    def test_labels_and_runs_built_once_per_certificate(self, inst, build, monkeypatch):
        m = metrics(inst.tree)
        order = build(inst, m)
        labels = count_calls(monkeypatch, "_labels")
        remote = count_calls(monkeypatch, "_remote_flags")
        assert certify_tightness(m, order).span == inst.closed_form_rn
        assert len(labels) == 1
        assert len(remote) == 1

    @pytest.mark.parametrize("other", [4, 6])
    def test_certify_checks_a_checked_order_of_another_size(self, other):
        seq = check_order(path_metrics(5), (2, 1, 4, 0, 3))
        with pytest.raises(NotAPermutation):
            certify_tightness(path_metrics(other), seq)

    @pytest.mark.parametrize("bad", [
        (2, 1, 4, 0, 0),        # a repeat
        (2, 1, 4, 0),           # too short
        (2, 1, 4, 0, 3.0),      # a float equal to a vertex id
        (2, True, 4, 0, 3),     # a bool equal to a vertex id
        (2, 1, 4, 0, -1),       # a negative id, which would index from the end
        (2, 1, 4, 0, 5),        # an id equal to p
    ])
    def test_each_stage_checks_on_its_own(self, bad):
        m = path_metrics(5)
        aseq = ASequence(a=(0, 0, 1, 0))
        for stage in (lambda: check_condition_a(m, bad),
                      lambda: a_sequence(m, bad),
                      lambda: check_condition_b(m, bad, aseq),
                      lambda: label_from_order(m, bad, aseq),
                      lambda: certify_tightness(m, bad)):
            with pytest.raises(NotAPermutation):
                stage()

    def test_check_order_memory(self):
        # C(5,25000), p = 100,005: a p-byte seen-mark, not two p-sized sets
        inst = gen_caterpillar(5, 25000)
        m = metrics(inst.tree)
        order = tuple(proof_order_caterpillar(inst))
        tracemalloc.start()
        try:
            check_order(m, order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    def test_checked_order_of_another_size_is_checked_again(self):
        seq = check_order(path_metrics(5), (2, 1, 4, 0, 3))
        with pytest.raises(NotAPermutation):
            check_condition_a(path_metrics(6), seq)


class TestBoundReport:
    def test_p9(self):
        rep = bound_report(path_metrics(9))
        assert (rep["bound_basic"], rep["bound_improved"], rep["strict_gap"]) == (33, 34, True)
        assert (rep["p"], rep["diameter"], rep["epsilon"]) == (9, 8, 1)

    def test_not_two_branch_fields_absent(self):
        rep = bound_report(metrics(build_tree([(0, 1), (0, 2), (0, 3)])))
        assert rep["bound_improved"] is None and rep["strict_gap"] is None

    def test_diameter_below_two_fields_absent(self):
        m = metrics(build_tree([(0, 1)]))
        rep = bound_report(m)
        assert (rep["bound_basic"], rep["bound_improved"], rep["strict_gap"]) == (None, None, None)
        assert (rep["p"], rep["diameter"]) == (2, 1)
        with pytest.raises(DiameterTooSmall):
            lower_bound_basic(m)


class TestComparisonBounds:
    def test_even_p9_center(self):
        tree = path(9)
        assert liu_bound_even(metrics(tree), 4) == 34

    def test_even_p5_center(self):
        tree = path(5)
        assert liu_bound_even(metrics(tree), 2) == 10

    def test_even_binary_height2(self):
        inst = gen_levelwise(1, (2, 3))
        root = inst.vertex_names["w"]
        assert liu_bound_even(metrics(inst.tree), root) == 13

    def test_odd_p6(self):
        tree = path(6)
        assert liu_bound_odd(metrics(tree), 2) == 13

    def test_odd_c63(self):
        inst = gen_caterpillar(6, 3)
        assert liu_bound_odd(metrics(inst.tree), inst.vertex_names["v_3"]) == 47
        assert lower_bound_improved(metrics(inst.tree)) == 51

    def test_odd_c62(self):
        inst = gen_caterpillar(6, 2)
        assert liu_bound_odd(metrics(inst.tree), inst.vertex_names["v_3"]) == 39
        assert lower_bound_improved(metrics(inst.tree)) == 41

    def test_rejects_wrong_vertex(self):
        tree = path(9)
        with pytest.raises(NotOmegaTree):
            liu_bound_even(metrics(tree), 0)

    @pytest.mark.parametrize("bound, n, message", [
        (liu_bound_odd, 5, "odd-diameter bound on diameter 4"),
        (liu_bound_even, 6, "even-diameter bound on diameter 5"),
    ], ids=["odd-on-p5", "even-on-p6"])
    def test_refuses_the_other_parity(self, bound, n, message):
        with pytest.raises(NotOmegaTree, match=message):
            bound(metrics(path(n)), 2)

    def test_odd_needs_half_diameter_two(self):
        tree = path(4)
        with pytest.raises(DiameterTooSmall):
            liu_bound_odd(metrics(tree), 1)

    def test_even_needs_half_diameter_two(self):
        # P_3 has rn 3; the even formula would give 4
        tree = build_tree([(0, 1), (1, 2)])
        with pytest.raises(DiameterTooSmall):
            liu_bound_even(metrics(tree), 1)


def comparison_bound(m, x):
    """The comparison bound at x that `bounds --compare` reports, or None
    where it refuses the tree."""
    liu = liu_bound_even if m.diameter % 2 == 0 else liu_bound_odd
    try:
        return liu(m, x)
    except DiameterTooSmall:
        return None


def omega_centers(m):
    return [x for x in sorted(m.weight_centers) if len(m.tree.adjacency[x]) == 2]


class TestComparisonBoundsAreLowerBounds:
    def test_at_most_exact_rn_on_seeded_grid(self):
        checked = 0
        for p in range(3, 11):
            for seed in range(60):
                m = metrics(pruefer_tree(p, 1000 * p + seed))
                values = [comparison_bound(m, x) for x in omega_centers(m)]
                values = [v for v in values if v is not None]
                if values:
                    rn = exact_rn(m.tree).rn
                    assert all(v <= rn for v in values), (p, seed, values, rn)
                    checked += 1
        assert checked >= 140


class TestSidesFromLevels:
    def test_match_bfs_split_and_bounds(self, monkeypatch):
        pairs = []
        for p in range(4, 40):
            for seed in range(12):
                m = metrics(pruefer_tree(p, seed))
                pairs += [(m, x) for x in omega_centers(m)]
        assert {len(m.weight_centers) for m, _ in pairs} == {1, 2}
        new = [comparison_bound(m, x) for m, x in pairs]
        for m, x in pairs:
            sides, ref = bounds._sides_at(m, x), oracles.Ref(m.tree)
            assert [dict(c) for c in sides] == oracles.sides_at(ref, x)
            # the weight w(x) the bounds read off the sides
            assert sum(i * c for side in sides for i, c in side.items()) == sum(ref.d[x])
        monkeypatch.setattr(bounds, "_sides_at",
                            lambda m, x: oracles.sides_at(oracles.Ref(m.tree), x))
        assert [comparison_bound(m, x) for m, x in pairs] == new
        assert sum(v is not None for v in new) >= 100
