import random

import pytest
from hypothesis import example, given, settings, strategies as st

from radiotree import (
    BadEdge,
    BadVertex,
    DiameterTooSmall,
    NotATree,
    SparseIds,
    Tree,
    build_tree,
    delta,
    distance,
    distance_by_levels,
    distance_matrix,
    format_tree_text,
    metrics,
    parse_tree_text,
    phi,
)
from radiotree.tree import _make_tree
from test_labelling import relabelled_trees


def path(n):
    return build_tree([(i, i + 1) for i in range(n - 1)])


class TestBuildTree:
    def test_smallest_path(self):
        t = build_tree([(0, 1), (1, 2)])
        assert t.p == 3
        assert t.edges == frozenset({(0, 1), (1, 2)})

    def test_star(self):
        t = build_tree([(0, 1), (0, 2), (0, 3)])
        assert t.adjacency[0] == (1, 2, 3)

    def test_duplicate_edge(self):
        with pytest.raises(BadEdge):
            build_tree([(0, 1), (0, 1)])

    def test_self_loop(self):
        with pytest.raises(BadEdge):
            build_tree([(0, 0)])

    def test_negative_id(self):
        with pytest.raises(BadEdge):
            build_tree([(-1, 0)])

    def test_sparse_ids(self):
        with pytest.raises(SparseIds):
            build_tree([(0, 2)])

    def test_huge_id_is_sparse_without_scanning_the_range(self):
        with pytest.raises(SparseIds, match=r"starting \[2, 3, 4, 5, 6\]"):
            build_tree([(0, 1), (1, 10**15)])

    def test_cycle_rejected(self):
        with pytest.raises(NotATree):
            build_tree([(0, 1), (1, 2), (2, 0)])

    def test_disconnected_rejected(self):
        with pytest.raises(NotATree):
            build_tree([(0, 1), (2, 3), (1, 2), (0, 3)])

    def test_empty_rejected(self):
        with pytest.raises(NotATree):
            build_tree([])


class TestMetrics:
    def test_p5(self):
        m = metrics(path(5))
        assert m.weight_centers == frozenset({2})
        assert m.epsilon == 1
        assert list(m.level) == [2, 1, 0, 1, 2]
        assert m.total_level == 6
        assert m.diameter == 4
        assert m.remote_set == frozenset({0, 4})
        assert m.xi == 1
        assert m.two_branch

    def test_p4(self):
        m = metrics(path(4))
        assert m.weight_centers == frozenset({1, 2})
        assert m.epsilon == 0
        assert m.total_level == 2
        assert m.diameter == 3
        assert m.remote_set == frozenset({0, 3})
        assert m.xi == 0
        assert m.two_branch

    def test_star_not_two_branch(self):
        m = metrics(build_tree([(0, 1), (0, 2), (0, 3)]))
        assert m.weight_centers == frozenset({0})
        assert not m.two_branch

    def test_two_centers_adjacent(self):
        for n in (4, 6, 8, 10):
            m = metrics(path(n))
            a, b = sorted(m.weight_centers)
            assert b == a + 1

    def test_branch_ids(self):
        m = metrics(path(5))
        assert m.branch_id[2] == -1  # center carries the sentinel
        assert m.branch_id[0] == m.branch_id[1]
        assert m.branch_id[3] == m.branch_id[4]
        assert m.branch_id[0] != m.branch_id[3]


class TestDistance:
    def test_endpoints(self):
        assert distance(path(5), 0, 4) == 4

    def test_identity(self):
        assert distance(path(5), 3, 3) == 0

    def test_p4(self):
        assert distance(path(4), 0, 2) == 2

    def test_matrix_symmetric(self):
        d = distance_matrix(path(6))
        for u in range(6):
            for v in range(6):
                assert d[u][v] == d[v][u]

    def test_bad_vertex(self):
        with pytest.raises(BadVertex):
            distance(path(4), 0, 4)


class TestPhiDelta:
    def test_phi_p5_near(self):
        assert phi(metrics(path(5)), 0, 1) == 1

    def test_phi_p5_opposite(self):
        assert phi(metrics(path(5)), 0, 4) == 0

    def test_phi_p4_opposite(self):
        assert phi(metrics(path(4)), 0, 3) == 0

    def test_delta_p4_crossing(self):
        assert delta(metrics(path(4)), 0, 3) == 1

    def test_delta_single_center(self):
        m = metrics(path(5))
        assert all(delta(m, u, v) == 0 for u in range(5) for v in range(5))

    def test_delta_p4_same_side(self):
        assert delta(metrics(path(4)), 0, 1) == 0

    @pytest.mark.parametrize("fn", [phi, delta, lambda m, u, v: m.distance(u, v)],
                             ids=["phi", "delta", "distance"])
    @pytest.mark.parametrize("bad", [-1, 4, True, 1.0, "0"])
    def test_bad_vertex_raises(self, fn, bad):
        m = metrics(path(4))
        with pytest.raises(BadVertex):
            fn(m, bad, 0)
        with pytest.raises(BadVertex):
            fn(m, 0, bad)

    def test_distance_checks_each_vertex_once(self, monkeypatch):
        checked = []
        original = Tree.check_vertex

        def counting(tree, u):
            checked.append(u)
            original(tree, u)

        m = metrics(path(6))
        monkeypatch.setattr(Tree, "check_vertex", counting)
        assert m.distance(1, 4) == 3
        assert checked == [1, 4]


class TestDistanceByLevels:
    def test_p5(self):
        m = metrics(path(5))
        assert distance_by_levels(m, 0, 1) == 1

    def test_p4_crossing(self):
        m = metrics(path(4))
        assert distance_by_levels(m, 0, 3) == 3

    def test_identity(self):
        assert distance_by_levels(metrics(path(5)), 2, 2) == 0

    def test_needs_diameter_two(self):
        with pytest.raises(DiameterTooSmall):
            distance_by_levels(metrics(path(2)), 0, 1)

    def test_matches_bfs_on_small_trees(self):
        for edges in [
            [(0, 1), (1, 2), (1, 3), (3, 4)],
            [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)],
            [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5), (5, 6)],
        ]:
            t = build_tree(edges)
            m = metrics(t)
            d = distance_matrix(t)
            for u in range(t.p):
                for v in range(t.p):
                    assert distance_by_levels(m, u, v) == d[u][v]


def random_tree(p, seed):
    rng = random.Random(seed)
    return _make_tree(p, [(i, rng.randrange(i)) for i in range(1, p)])


def assert_metrics_match_table(tree):
    m = metrics(tree)
    d = distance_matrix(tree)
    assert m.vertex_weight == tuple(sum(row) for row in d)
    assert m.diameter == max(max(row) for row in d)
    for u in range(tree.p):
        for v in range(tree.p):
            assert m.distance(u, v) == d[u][v]


class TestMetricsAgainstTable:
    """The O(p) metrics and the level-identity distance against BFS rows."""

    @given(st.integers(1, 40), st.integers(0, 10**6))
    @example(1, 0)
    @example(2, 0)
    @example(3, 0)
    @settings(max_examples=150, deadline=None)
    def test_random_trees(self, p, seed):
        assert_metrics_match_table(random_tree(p, seed))

    @given(relabelled_trees())
    @settings(max_examples=150, deadline=None)
    def test_one_and_two_center_trees(self, tree):
        # every pair, weight centers (branch CENTER_BRANCH) included
        assert_metrics_match_table(tree)

    @pytest.mark.parametrize("edges", [
        [(0, 1)],
        [(0, 1), (1, 2), (2, 3)],
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
        [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)],  # double star
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6), (4, 7)],  # path, edge, star
    ])
    def test_two_center_trees(self, edges):
        tree = build_tree(edges)
        assert len(metrics(tree).weight_centers) == 2
        assert_metrics_match_table(tree)

    @pytest.mark.parametrize("p", [5000, 5001])
    def test_long_path_closed_forms(self, p):
        m = metrics(path(p))
        assert m.vertex_weight == tuple(
            i * (i + 1) // 2 + (p - 1 - i) * (p - i) // 2 for i in range(p))
        assert m.diameter == p - 1
        assert m.weight_centers == frozenset({(p - 1) // 2, p // 2})
        rng = random.Random(p)
        pairs = [(0, p - 1), (p - 1, 0), (1, p - 2), (p // 2 - 1, p // 2), (7, 7)]
        pairs += [(rng.randrange(p), rng.randrange(p)) for _ in range(200)]
        for u, v in pairs:
            assert m.distance(u, v) == abs(u - v)


class TestTextFormat:
    def test_round_trip(self):
        t = build_tree([(0, 1), (1, 2), (1, 3), (3, 4)])
        assert parse_tree_text(format_tree_text(t)).edges == t.edges

    def test_comments_ignored(self):
        t = parse_tree_text("# a tree\n0 1\n1 2  # tail comment\n")
        assert t.p == 3
