import pytest
from hypothesis import given, settings, strategies as st

from radiotree import (
    ASequence,
    NotAPermutation,
    NotTwoBranch,
    a_sequence,
    build_tree,
    check_condition_a,
    check_condition_b,
    check_ddb_conditions,
    check_order,
    distance_matrix,
    gen_caterpillar,
    gen_random_two_branch,
    is_admissible,
    is_feasible,
    maximal_remote_intervals,
    metrics,
)
from radiotree.orders import _condition_b_core


def path_metrics(n):
    return metrics(build_tree([(i, i + 1) for i in range(n - 1)]))


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
        with pytest.raises(Exception):
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


class TestConditionB:
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
        assert all_pairs_condition_b(m, seq, a) == (False, (0, 4))
        assert check_condition_b(m, seq, ASequence(a=a)) == (False, (0, 4))


def all_pairs_condition_b(m, seq, a):
    """Reference for ``_condition_b_core``: every pair, table distances."""
    dist = distance_matrix(m.tree)
    de = m.diameter + m.epsilon
    prefix = [0]
    for t in range(len(seq) - 1):
        prefix.append(prefix[-1] + m.level[seq[t]] + m.level[seq[t + 1]] - a[t] - de)
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if dist[seq[i]][seq[j]] < prefix[j] - prefix[i] + m.diameter + 1:
                return False, (i, j)
    return True, None


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
    assert _condition_b_core(m, seq, a) == all_pairs_condition_b(m, seq, a)


class TestDdbConditions:
    def test_p4(self):
        ok, diag = check_ddb_conditions(path_metrics(4), (1, 3, 0, 2))
        assert ok, diag

    def test_p3(self):
        ok, diag = check_ddb_conditions(path_metrics(3), (1, 2, 0))
        assert ok, diag

    def test_p5_needs_nonzero_a(self):
        ok, _ = check_ddb_conditions(path_metrics(5), (2, 1, 4, 0, 3))
        assert not ok
