import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import path
from radiotree import (
    ASequence,
    CertificationFailure,
    DiameterTooSmall,
    InfeasibleASequence,
    LengthMismatch,
    NotAPermutation,
    NotTwoBranch,
    a_sequence,
    build_tree,
    certify_tightness,
    check_condition_a,
    check_condition_b,
    check_ddb_conditions,
    check_order,
    gen_caterpillar,
    gen_levelwise,
    gen_lmh,
    gen_random_two_branch,
    is_admissible,
    is_feasible,
    label_from_order,
    maximal_remote_intervals,
    metrics,
    proof_order_caterpillar,
    proof_order_levelwise,
    proof_order_lmh,
)
from radiotree import orders
from radiotree.orders import _condition_b_core


def path_metrics(n):
    return metrics(path(n))


def c31_order():
    """The certifying order (v_2, v_{3,1}, v_{1,1}, v_3, v_1) in vertex ids."""
    inst = gen_caterpillar(3, 1)
    nm = inst.vertex_names
    names = ["v_2", "v_{3,1}", "v_{1,1}", "v_3", "v_1"]
    return metrics(inst.tree), tuple(nm[s] for s in names)


class TestCheckOrder:
    def test_valid(self):
        assert check_order(path_metrics(5), (2, 1, 4, 0, 3)) == (2, 1, 4, 0, 3)

    def test_not_a_permutation(self):
        with pytest.raises(NotAPermutation):
            check_order(path_metrics(5), (0, 1, 2, 3, 3))

    def test_wrong_length(self):
        with pytest.raises(NotAPermutation):
            check_order(path_metrics(5), (0, 1, 2))

    @pytest.mark.parametrize("order,message", [
        ((0, 1, 2, 2, 0), r"positions \[3, 4\] \(2 in all\)"),  # repeats
        ((0, 1, 2), r"positions \[3, 4\] \(2 in all\)"),  # slots missing
        ((4, 3, 2, 1, 0, 5), r"positions \[5\] \(1 in all\)"),  # one beyond p - 1
        ((0, 1.0, True, -1, 5), r"positions \[1, 2, 3, 4\] \(4 in all\)"),  # no ids
    ])
    def test_message_names_the_bad_positions(self, order, message):
        with pytest.raises(NotAPermutation, match=message):
            check_order(path_metrics(5), order)

    def test_message_names_only_the_first_few(self):
        m = path_metrics(20000)
        with pytest.raises(NotAPermutation) as exc:
            check_order(m, (0,) * m.p)
        assert str(exc.value) == ("bad order positions [1, 2, 3, 4, 5] (19999 in all); "
                                  "an order is a permutation of 0..19999")


class TestRemoteIntervals:
    def test_interior_run(self):
        assert maximal_remote_intervals(path_metrics(5), (2, 1, 4, 0, 3)) == [(2, 3)]

    def test_two_singletons(self):
        assert maximal_remote_intervals(path_metrics(5), (0, 1, 2, 3, 4)) == [
            (0, 0),
            (4, 4),
        ]

    def test_no_remote(self):
        # P_2 has no vertex at level >= ceil(1/2)=1... use a star-free case:
        m = path_metrics(3)
        assert m.remote_set == frozenset({0, 2})


class TestFeasible:
    def test_single_even_run(self):
        assert is_feasible(path_metrics(5), (2, 1, 4, 0, 3))

    def test_two_odd_runs_even_count(self):
        assert not is_feasible(path_metrics(5), (0, 1, 2, 3, 4))

    def test_one_odd_run_allowed_when_odd_count(self):
        m, order = c31_order()
        # C(3,1): |S| = 2 leaves + ... check parity rule directly on P_3
        assert is_feasible(path_metrics(3), (1, 0, 2))


class TestAdmissible:
    def test_c31_proof_order(self):
        m, order = c31_order()
        assert is_admissible(m, order)

    def test_p5_feasible_but_not_admissible(self):
        m = path_metrics(5)
        order = (2, 1, 4, 0, 3)
        assert is_feasible(m, order)
        assert not is_admissible(m, order)

    def test_p4_admissible(self):
        assert is_admissible(path_metrics(4), (1, 3, 0, 2))

    def test_p4_centers_too_close(self):
        # centers at consecutive positions violate the separation rule
        assert not is_admissible(path_metrics(4), (1, 2, 0, 3))


def _admissible_cases():
    """Seeded orders on one- and two-center trees: shuffles of random
    two-branch trees, and certifying family orders with zero to two swaps
    (these are often admissible, shuffles rarely)."""
    rng = random.Random(2024)
    for seed in range(60):
        inst = gen_random_two_branch(rng.randrange(4, 25), seed)
        order = list(range(inst.tree.p))
        rng.shuffle(order)
        yield metrics(inst.tree), order
    for inst, build in [(gen_caterpillar(5, 3), proof_order_caterpillar),
                        (gen_caterpillar(6, 3), proof_order_caterpillar),
                        (gen_lmh(1, 3, 3), proof_order_lmh),
                        (gen_lmh(2, 3, 3), proof_order_lmh),
                        (gen_levelwise(1, (2, 3, 3)), proof_order_levelwise),
                        (gen_levelwise(2, (2, 3, 3)), proof_order_levelwise)]:
        m = metrics(inst.tree)
        base = build(inst, m)
        for swaps in range(3):
            for _ in range(12):
                order = list(base)
                for _ in range(swaps):
                    i, j = rng.randrange(len(order)), rng.randrange(len(order))
                    order[i], order[j] = order[j], order[i]
                yield m, order


class TestAdmissibleReference:
    def test_matches_the_reference(self):
        seen = set()
        for m, order in _admissible_cases():
            got = is_admissible(m, order)
            want = oracles.is_admissible(oracles.Ref(m.tree), tuple(order))
            assert got == want, (sorted(m.weight_centers), order)
            seen.add((len(m.weight_centers), got))
        # one center and two, admissible and not
        assert seen == {(1, True), (1, False), (2, True), (2, False)}


class TestASequence:
    def test_p4_all_zero(self):
        aseq = a_sequence(path_metrics(4), (1, 3, 0, 2))
        assert aseq.a == (0, 0, 0)
        assert aseq.total == 0

    def test_p5(self):
        aseq = a_sequence(path_metrics(5), (2, 1, 4, 0, 3))
        assert aseq.a == (0, 0, 1, 0)
        assert aseq.total == 1

    def test_p5_remote_run_accepted(self):
        # remote vertices 4 and 0 adjacent mid-order: alternating values
        aseq = a_sequence(path_metrics(5), (2, 4, 0, 3, 1))
        assert aseq.a[0] == 0
        assert sum(aseq.a) >= 1

    def test_c31_proof_order(self):
        m, order = c31_order()
        assert a_sequence(m, order).a == (0, 0, 1, 0)

    def test_requires_two_branch(self):
        star = metrics(build_tree([(0, 1), (0, 2), (0, 3)]))
        with pytest.raises(NotTwoBranch):
            a_sequence(star, (0, 1, 2, 3))

    def test_a0_must_be_zero(self):
        with pytest.raises(InfeasibleASequence, match="a_0 must be 0"):
            ASequence(a=(1, 0))


class TestConditionA:
    def test_p5_feasible_route(self):
        ok, diag = check_condition_a(path_metrics(5), (2, 1, 4, 0, 3))
        assert ok, diag

    def test_p4_admissible_route(self):
        ok, diag = check_condition_a(path_metrics(4), (1, 3, 0, 2))
        assert ok, diag

    def test_endpoint_sum_too_large(self):
        ok, diag = check_condition_a(path_metrics(5), (0, 1, 2, 3, 4))
        assert not ok
        assert "endpoint" in diag

    def test_requires_two_branch(self):
        star = metrics(oracles.star(3))
        with pytest.raises(NotTwoBranch, match="condition \\(a\\) is defined for two-branch"):
            check_condition_a(star, (0, 1, 2, 3))


class TestConditionB:
    def test_a_sequence_of_another_length(self):
        with pytest.raises(LengthMismatch, match="a-sequence length 2 for order length 5"):
            check_condition_b(path_metrics(5), (2, 1, 4, 0, 3), ASequence(a=(0, 0)))

    def test_p5_good_order(self):
        m = path_metrics(5)
        aseq = ASequence(a=(0, 0, 1, 0))
        ok, pair = check_condition_b(m, (2, 1, 4, 0, 3), aseq)
        assert ok and pair is None

    def test_p5_bad_order_first_pair(self):
        m = path_metrics(5)
        aseq = ASequence(a=(0, 0, 1, 0))
        ok, pair = check_condition_b(m, (2, 1, 0, 4, 3), aseq)
        assert not ok
        assert pair == (1, 2)

    def test_consecutive_pairs_from_construction(self):
        m, order = c31_order()
        ok, pair = check_condition_b(m, order, a_sequence(m, order))
        assert ok, pair

    def test_window_looks_past_a_rise_in_the_prefix_sums(self):
        # A path 0..6 and a star at 7, both on the center 0, d = 8.  Vertices
        # 5 and 6 (levels 5 and 6) in a row make the prefix sums rise, so for
        # i = 0 the right-hand side is 1 at j = 2 and 2 again at j = 3, 4.  The
        # first violation is (0, 4): d(2, 3) = 1 < 2.  A scan that stopped at
        # the first right-hand side <= 1 would report (1, 4) instead.
        m = metrics(build_tree([(i, i + 1) for i in range(6)] + [(0, 7)]
                               + [(7, v) for v in range(8, 13)]))
        seq = (2, 9, 5, 6, 3, 0, 12, 8, 11, 10, 1, 4, 7)
        a = (0, 1, 1, 0, 1, 1, 1, 0, 1, 1, 0, 0)
        assert oracles.condition_b(oracles.Ref(m.tree), seq, a) == (False, (0, 4))
        assert check_condition_b(m, seq, ASequence(a=a)) == (False, (0, 4))

    @staticmethod
    def count_scans(monkeypatch):
        """The pairs that each ``orders._condition_b_scan`` call returns."""
        met, scan = [], orders._condition_b_scan

        def counting(*args):
            met.append(scan(*args))
            return met[-1]

        monkeypatch.setattr(orders, "_condition_b_scan", counting)
        return met

    def test_one_scan_when_the_labels_increase(self, monkeypatch):
        inst = gen_caterpillar(5, 50)
        m = metrics(inst.tree)
        order = list(proof_order_caterpillar(inst))
        order[100], order[102] = order[102], order[100]
        f = label_from_order(m, order, a_sequence(m, order)).labels
        assert all(f[u] < f[v] for u, v in zip(order, order[1:]))
        met = self.count_scans(monkeypatch)
        with pytest.raises(CertificationFailure, match=r"\(98, 100\)"):
            certify_tightness(m, order)
        assert met == [(98, 100)]

    def test_labels_that_fall_are_scanned_again(self, monkeypatch):
        # The labels fall after position 1, whose window ends before the
        # pair (0, 6): the scan on the labels meets (1, 3) first, and only
        # the scan on their suffix minima reaches (0, 6).
        m = metrics(build_tree([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 10)]
                               + [(5, v) for v in range(6, 10)]
                               + [(10, v) for v in range(11, 19)]))
        order = (0, 10, 6, 7, 8, 9, 11, 2, 3, 4, 5, 12, 13, 14, 15, 16, 17, 18, 1)
        aseq = a_sequence(m, order)
        assert oracles.condition_b(oracles.Ref(m.tree), order, aseq.a) == (False, (0, 6))
        met = self.count_scans(monkeypatch)
        assert check_condition_b(m, order, aseq) == (False, (0, 6))
        assert met == [(1, 3), (0, 6)]
        with pytest.raises(CertificationFailure) as exc:
            certify_tightness(m, order)
        assert (exc.value.stage, exc.value.detail) == ("condition_b", "violated at positions (0, 6)")


@st.composite
def two_branch_orders(draw):
    """A two-branch tree with p = 3..31, a random order and a random a-sequence.

    The tree is one of three shapes, under a shuffled numbering:
    - "any": vertex i hangs from a drawn earlier vertex, so the draws include
      paths, brooms and lopsided trees whose deep vertices make the prefix
      sums of condition (b) rise;
    - "one": two random branches hung from vertex 0;
    - "two": two halves of equal size whose roots are joined, each root with
      one child, so the roots are the two weight centers.
    A draw that is not two-branch falls back to a seeded uniform two-branch
    tree.  Every vertex, the centers included, is in the order.
    """
    def hang(base, size):
        return [(base + i, base + draw(st.integers(0, i - 1))) for i in range(1, size)]

    shape = draw(st.sampled_from(["any", "one", "two"]))
    if shape == "any":
        p = draw(st.integers(4, 30))
        edges = hang(0, p)
    elif shape == "one":
        left, right = draw(st.integers(1, 15)), draw(st.integers(1, 15))
        p = 1 + left + right
        edges = hang(1, left) + hang(1 + left, right) + [(0, 1), (0, 1 + left)]
    else:
        half = draw(st.integers(2, 15))
        p = 2 * half
        edges = hang(1, half - 1) + hang(half + 1, half - 1) + [(0, 1), (half, half + 1), (0, half)]
    perm = draw(st.permutations(range(p)))
    m = metrics(build_tree([(perm[u], perm[v]) for u, v in edges]))
    if shape == "two":
        assert m.weight_centers == {perm[0], perm[half]} and m.two_branch
    if not m.two_branch:
        m = metrics(gen_random_two_branch(p, draw(st.integers(0, 10**6))).tree)
    w = len(m.weight_centers)
    seq = tuple(draw(st.permutations(range(p))))
    a = (0,) + tuple(draw(st.lists(st.sampled_from((0, w)), min_size=p - 2, max_size=p - 2)))
    return m, seq, a


@given(two_branch_orders())
@settings(max_examples=300, deadline=None)
def test_windowed_condition_b_matches_all_pairs(case):
    m, seq, a = case
    assert _condition_b_core(m, seq, a) == oracles.condition_b(oracles.Ref(m.tree), seq, a)


class TestDdbConditions:
    def test_p4(self):
        ok, diag = check_ddb_conditions(path_metrics(4), (1, 3, 0, 2))
        assert ok, diag

    def test_p3(self):
        ok, diag = check_ddb_conditions(path_metrics(3), (1, 2, 0))
        assert ok, diag

    def test_p5_needs_nonzero_a(self):
        ok, diag = check_ddb_conditions(path_metrics(5), (2, 1, 4, 0, 3))
        assert not ok and diag.startswith("pairwise distance condition fails")

    def test_one_edge_tree_is_refused(self):
        with pytest.raises(DiameterTooSmall, match="basic-bound conditions need diameter >= 2"):
            check_ddb_conditions(path_metrics(2), (0, 1))

    ONE_CENTER = "order must run from the weight center to one of its neighbours"

    @pytest.mark.parametrize("n, order, want", [
        (5, (0, 1, 2, 3, 4), ONE_CENTER),
        (5, (2, 1, 3, 0, 4), ONE_CENTER),
        (4, (0, 2, 3, 1), "order must run from one weight center to the other"),
    ], ids=["one-center-start", "one-center-end", "two-centers"])
    def test_endpoint_condition_fails(self, n, order, want):
        assert check_ddb_conditions(path_metrics(n), order) == (False, want)
