import itertools
import random

import pytest

from radiotree import (
    OrderTooLarge,
    build_tree,
    exact_matches_formula,
    exact_rn,
    gen_caterpillar,
    gen_path,
    gen_random_two_branch,
    greedy_label_from_order,
    metrics,
    rn_path,
    verify_labelling,
)


def path(n):
    return build_tree([(i, i + 1) for i in range(n - 1)])


def brute_force_rn(tree):
    """Reference radio number: the least greedy span over every vertex order,
    with no symmetry reduction and no pruning."""
    m = metrics(tree)
    return min(greedy_label_from_order(m, order).span
               for order in itertools.permutations(range(tree.p)))


class TestKnownValues:
    def test_p3(self):
        assert exact_rn(path(3)).rn == 3

    def test_p4(self):
        assert exact_rn(path(4)).rn == 5

    def test_p5(self):
        assert exact_rn(path(5)).rn == 10

    def test_paths_match_formula(self):
        for n in range(4, 9):
            assert exact_rn(path(n)).rn == rn_path(n)

    def test_c31(self):
        assert exact_rn(gen_caterpillar(3, 1).tree).rn == 10

    def test_star(self):
        # star K_{1,3}: diameter 2, so all leaf pairs need gap >= 1
        assert exact_rn(build_tree([(0, 1), (0, 2), (0, 3)])).rn == 4


class TestContract:
    def test_witness_is_valid(self):
        res = exact_rn(path(6))
        ok, _ = verify_labelling(path(6), res.witness)
        assert ok
        assert res.witness.span == res.rn == 13

    def test_order_too_large(self):
        with pytest.raises(OrderTooLarge):
            exact_rn(path(13))

    def test_max_order_override(self):
        with pytest.raises(OrderTooLarge):
            exact_rn(path(6), max_order=5)
        assert exact_rn(path(6), max_order=6).rn == rn_path(6)

    def test_completed_flag(self):
        assert exact_rn(path(5)).stats.completed

    def test_timeout_returns_incumbent(self):
        res = exact_rn(path(11), timeout_s=0.01)
        assert not res.stats.completed
        assert res.rn >= rn_path(11)  # incumbent is an upper bound only

    def test_determinism(self):
        a = exact_rn(path(8))
        b = exact_rn(path(8))
        assert a.rn == b.rn
        assert a.stats.nodes == b.stats.nodes
        assert a.witness.labels == b.witness.labels


class TestBruteForceReference:
    def test_random_trees(self):
        # arbitrary trees, half of them not two-branch
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randrange(4, 8)
            tree = build_tree([(i, rng.randrange(i)) for i in range(1, n)])
            assert exact_rn(tree).rn == brute_force_rn(tree)

    def test_random_two_branch_trees(self):
        for n in range(4, 8):
            for seed in range(4):
                tree = gen_random_two_branch(n, seed).tree
                assert exact_rn(tree).rn == brute_force_rn(tree)


class TestPruneCounters:
    def test_both_rules_fire_on_p10(self):
        pruned = exact_rn(path(10)).stats.pruned
        assert set(pruned) == {"remaining", "suffix_bound"}
        assert pruned["suffix_bound"] > 0


class TestAdapters:
    def test_exact_matches_formula(self):
        assert exact_matches_formula(gen_path(7), rn_path(7))
        assert not exact_matches_formula(gen_path(7), rn_path(7) + 1)


class TestMonotonicity:
    def test_adding_a_leaf_never_decreases_rn(self):
        import random

        rng = random.Random(7)
        for _ in range(50):
            n = rng.randrange(3, 8)
            edges = [(i, rng.randrange(i)) for i in range(1, n)]
            tree = build_tree(edges)
            base = exact_rn(tree).rn
            attach = rng.randrange(n)
            grown = build_tree(edges + [(attach, n)])
            assert exact_rn(grown).rn >= base
