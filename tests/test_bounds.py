import pytest

from radiotree import (
    ASequence,
    CertificationFailure,
    DHalfTooSmall,
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
    strict_gap_predicate,
)
from radiotree import bounds, orders


def path_metrics(n):
    return metrics(build_tree([(i, i + 1) for i in range(n - 1)]))


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


class TestOneOrderCheck:
    """certify_tightness validates its order once and hands the checked order
    to every stage; a stage called on its own still validates."""

    def test_one_check_per_certificate(self, monkeypatch):
        inst = gen_caterpillar(5, 50)
        m = metrics(inst.tree)
        order = list(proof_order_caterpillar(inst))
        calls = []
        original = orders.check_order

        def counting(m, order):
            calls.append(len(order))
            return original(m, order)

        # every module that binds the name
        monkeypatch.setattr(orders, "check_order", counting)
        monkeypatch.setattr(bounds, "check_order", counting)
        lab = certify_tightness(m, order)
        assert lab.span == inst.closed_form_rn
        assert calls == [m.p]

    @pytest.mark.parametrize("bad", [
        (2, 1, 4, 0, 0),        # a repeat
        (2, 1, 4, 0),           # too short
        (2, 1, 4, 0, 3.0),      # a float equal to a vertex id
        (2, True, 4, 0, 3),     # a bool equal to a vertex id
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

    def test_checked_order_of_another_size_is_checked_again(self):
        seq = check_order(path_metrics(5), (2, 1, 4, 0, 3))
        with pytest.raises(NotAPermutation):
            check_condition_a(path_metrics(6), seq)


class TestBoundReport:
    def test_p9(self):
        rep = bound_report(path_metrics(9))
        assert (rep.basic, rep.improved, rep.strict_gap) == (33, 34, True)
        assert (rep.p, rep.diameter, rep.epsilon) == (9, 8, 1)

    def test_not_two_branch_fields_absent(self):
        rep = bound_report(metrics(build_tree([(0, 1), (0, 2), (0, 3)])))
        assert rep.improved is None and rep.strict_gap is None


class TestComparisonBounds:
    def test_even_p9_center(self):
        tree = build_tree([(i, i + 1) for i in range(8)])
        assert liu_bound_even(tree, 4) == 34

    def test_even_p5_center(self):
        tree = build_tree([(i, i + 1) for i in range(4)])
        assert liu_bound_even(tree, 2) == 10

    def test_even_binary_height2(self):
        inst = gen_levelwise(1, (2, 3))
        root = inst.vertex_names["w"]
        assert liu_bound_even(inst.tree, root) == 13

    def test_odd_p6(self):
        tree = build_tree([(i, i + 1) for i in range(5)])
        assert liu_bound_odd(tree, 2) == 13

    def test_odd_c63(self):
        inst = gen_caterpillar(6, 3)
        assert liu_bound_odd(inst.tree, inst.vertex_names["v_3"]) == 47
        assert lower_bound_improved(metrics(inst.tree)) == 51

    def test_odd_c62(self):
        inst = gen_caterpillar(6, 2)
        assert liu_bound_odd(inst.tree, inst.vertex_names["v_3"]) == 39
        assert lower_bound_improved(metrics(inst.tree)) == 41

    def test_rejects_wrong_vertex(self):
        tree = build_tree([(i, i + 1) for i in range(8)])
        with pytest.raises(NotOmegaTree):
            liu_bound_even(tree, 0)

    def test_odd_needs_half_diameter_two(self):
        tree = build_tree([(i, i + 1) for i in range(3)])
        with pytest.raises(DHalfTooSmall):
            liu_bound_odd(tree, 1)
