import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import Ref, distances, path, random_tree, rooted_trees
from radiotree import (
    BadEdge,
    BadVertex,
    NotATree,
    SparseIds,
    Tree,
    build_tree,
    distance_matrix,
    format_tree_text,
    metrics,
    parse_tree_text,
)
from radiotree.tree import CENTER_BRANCH, _meet_level, _short_number
from test_labelling import relabelled_trees


class TestBuildTree:
    def test_smallest_path(self):
        t = build_tree([(0, 1), (1, 2)])
        assert t.p == 3
        assert t.adjacency == ((1,), (0, 2), (1,))

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

    @pytest.mark.parametrize("edges", [[(True, False)], [(0, 1), (2, True)], [(False, 1)]])
    def test_bool_ids(self, edges):
        # a bool is an int, but Tree.check_vertex refuses it as a vertex
        with pytest.raises(BadEdge):
            build_tree(edges)

    def test_int_subclass_ids_still_accepted(self):
        class Id(int):
            pass

        assert build_tree([(Id(0), Id(1))]).adjacency == ((1,), (0,))

    def test_sparse_ids(self):
        with pytest.raises(SparseIds):
            build_tree([(0, 2)])

    def test_huge_id_is_sparse_without_scanning_the_range(self):
        with pytest.raises(SparseIds, match=r"starting \[2, 3, 4, 5, 6\]"):
            build_tree([(0, 1), (1, 10**15)])

    @pytest.mark.parametrize("k", [20, 21, 100, 4300, 4301, 30000])
    def test_long_numbers_are_shown_by_their_first_digits(self, k):
        # 10**k has k + 1 digits and 10**k - 1 has k; past 4,300 digits str()
        # refuses, so the count comes from arithmetic
        assert _short_number(10**k) == f"1{'0' * 19}... ({k + 1} digits)"
        nines = "9" * 20 if k == 20 else f"{'9' * 20}... ({k} digits)"
        assert _short_number(1 - 10**k) == "-" + nines

    def test_huge_negative_id_is_shown_short(self):
        with pytest.raises(BadEdge) as exc:
            build_tree([(0, 1), (1, -10**4299)])
        assert str(exc.value) == ("edge (1, -10000000000000000000... (4300 digits)): "
                                  "vertex ids must be non-negative integers")

    def test_short_numbers_and_other_values_are_shown_whole(self):
        assert _short_number(-12) == "-12"
        assert _short_number("x") == "'x'"

    def test_two_faults_report_either_without_scanning_the_range(self):
        # the duplicate comes first in the list, the huge id first among the
        # checks; neither report may walk the 10**15 ids
        with pytest.raises((SparseIds, BadEdge)):
            build_tree([(0, 1), (0, 1), (1, 10**15)])

    def test_cycle_rejected(self):
        with pytest.raises(NotATree):
            build_tree([(0, 1), (1, 2), (2, 0)])

    def test_disconnected_rejected(self):
        # p - 1 edges, no repeat and no unused id: only connectivity fails
        with pytest.raises(NotATree, match="^edge list is disconnected$"):
            build_tree([(0, 1), (1, 2), (2, 0), (3, 4)])

    def test_too_many_edges_rejected(self):
        # a connected 4-cycle: its edge count is refused first
        with pytest.raises(NotATree, match="^4 edges for 4 vertices; a tree needs 3$"):
            build_tree([(0, 1), (2, 3), (1, 2), (0, 3)])

    def test_empty_rejected(self):
        with pytest.raises(NotATree):
            build_tree([])


def flipped_and_shuffled(draw, edges):
    """The edges in a drawn order, each pair in a drawn direction."""
    edges = draw(st.permutations(edges))
    return [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]


@st.composite
def shuffled_edge_lists(draw):
    """The edge list of a random tree on p = 2..40 vertices under a random
    numbering, flipped and shuffled."""
    p = draw(st.integers(2, 40))
    perm = draw(st.permutations(range(p)))
    edges = [(perm[i], perm[draw(st.integers(0, i - 1))]) for i in range(1, p)]
    return flipped_and_shuffled(draw, edges)


def edge_set_text(edges):
    """The text format as the edge-set representation of a tree wrote it."""
    pairs = sorted((min(u, v), max(u, v)) for u, v in edges)
    return "\n".join(f"{u} {v}" for u, v in pairs) + "\n"


@st.composite
def one_fault_edge_lists(draw):
    """A tree's shuffled edge list with one fault injected, and the error
    class that fault raises."""
    edges = draw(shuffled_edge_lists())
    p = len(edges) + 1
    kind = draw(st.sampled_from(
        ["duplicate", "self-loop", "negative", "not an int", "gap", "huge id", "extra edge"]))
    i = draw(st.integers(0, len(edges) - 1))
    u, v = edges[i]
    if kind == "duplicate":
        edges.insert(draw(st.integers(0, len(edges))), draw(st.sampled_from([(u, v), (v, u)])))
        return edges, BadEdge
    if kind == "self-loop":
        w = draw(st.integers(0, p - 1))
        edges.insert(draw(st.integers(0, len(edges))), (w, w))
        return edges, BadEdge
    if kind == "negative":
        edges[i] = (-1 - u, v)
        return edges, BadEdge
    if kind == "not an int":
        edges[i] = (str(u), v)
        return edges, BadEdge
    if kind == "gap":
        # shift the ids from k up by one, so that id k carries no edge
        k = draw(st.integers(1, p - 1))
        return [(a + (a >= k), b + (b >= k)) for a, b in edges], SparseIds
    if kind == "huge id":
        return [(a if a < p - 1 else 10**15, b if b < p - 1 else 10**15)
                for a, b in edges], SparseIds
    present = {frozenset(e) for e in edges}
    chords = [(a, b) for a in range(p) for b in range(a + 1, p)
              if frozenset((a, b)) not in present]
    assume(chords)  # P_2 has no chord
    edges.insert(draw(st.integers(0, len(edges))), draw(st.sampled_from(chords)))
    return edges, NotATree


class TestBuildTreeAgainstEdgeSet:
    """The rows against the edge set the tree no longer keeps."""

    @given(shuffled_edge_lists())
    @example([(1, 0)])
    @settings(max_examples=200, deadline=None)
    def test_text_is_the_sorted_edge_set(self, edges):
        assert format_tree_text(build_tree(edges)) == edge_set_text(edges)

    @given(shuffled_edge_lists(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_edge_order_and_direction_do_not_matter(self, edges, data):
        assert build_tree(edges) == build_tree(flipped_and_shuffled(data.draw, edges))

    @given(one_fault_edge_lists())
    @settings(max_examples=300, deadline=None)
    def test_one_fault_raises_its_class(self, case):
        edges, error = case
        with pytest.raises(error):
            build_tree(edges)


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
        assert metrics(path(5)).distance(0, 4) == 4

    def test_identity(self):
        assert metrics(path(5)).distance(3, 3) == 0

    def test_p4(self):
        assert metrics(path(4)).distance(0, 2) == 2

    def test_matrix_symmetric(self):
        d = distance_matrix(path(6))
        for u in range(6):
            for v in range(6):
                assert d[u][v] == d[v][u]

    def test_matrix_on_every_tree_up_to_ten_vertices(self):
        # each rooted tree once (1,205 with p <= 10, A000081), so every
        # unrooted tree at least once, each under a seeded numbering: the
        # BFS from vertex 0 starts anywhere in the tree
        rng = random.Random("distance-matrix")
        counts = []
        for p in range(1, 11):
            trees = list(rooted_trees(p))
            counts.append(len(trees))
            for edges in trees:
                perm = rng.sample(range(p), p)
                tree = build_tree([(perm[u], perm[v]) for u, v in edges]) if edges \
                    else random_tree(1, rng)
                assert distance_matrix(tree) == distances(tree)
        assert counts == [1, 1, 2, 4, 9, 20, 48, 115, 286, 719]

    @given(relabelled_trees())
    @settings(max_examples=150, deadline=None)
    def test_matrix_on_one_and_two_center_trees(self, tree):
        assert distance_matrix(tree) == distances(tree)

    def test_rows_are_distinct_lists(self):
        # each row is built from its parent's, none shared
        assert len({id(row) for row in distance_matrix(path(6))}) == 6


class TestPhiDelta:
    """The terms of d(u, v) = L(u) + L(v) - 2*phi(u, v) + delta(u, v): phi is
    the level where the two center-to-vertex paths meet, which _meet_level
    climbs to for a pair with one nearest center, and delta is what the
    identity leaves of TreeMetrics.distance."""

    @staticmethod
    def delta(m, u, v):
        # a pair with one nearest center meets on its paths to it
        return m.distance(u, v) - m.level[u] - m.level[v] \
            + 2 * _meet_level(m.level, m.parent, u, v)

    def test_phi_p5_near(self):
        m = metrics(path(5))
        assert _meet_level(m.level, m.parent, 0, 1) == 1

    def test_phi_p5_opposite(self):
        m = metrics(path(5))
        assert _meet_level(m.level, m.parent, 0, 4) == 0

    def test_phi_p4_opposite(self):
        # nearest centers differ: the paths share no vertex, so phi is 0 and
        # the distance is L(u) + L(v) + delta
        m = metrics(path(4))
        assert m.center_of[0] != m.center_of[3]
        assert m.distance(0, 3) == m.level[0] + m.level[3] - 2 * 0 + 1

    def test_delta_p4_crossing(self):
        m = metrics(path(4))
        assert m.distance(0, 3) - m.level[0] - m.level[3] == 1  # phi is 0

    def test_delta_single_center(self):
        m = metrics(path(5))
        assert all(self.delta(m, u, v) == 0 for u in range(5) for v in range(5))

    def test_delta_p4_same_side(self):
        assert self.delta(metrics(path(4)), 0, 1) == 0

    @pytest.mark.parametrize("fn", [lambda m, u, v: m.distance(u, v)], ids=["distance"])
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
    """TreeMetrics.distance, the level identity L(u) + L(v) - 2 phi + delta."""

    def test_p5(self):
        m = metrics(path(5))
        assert m.distance(0, 1) == 1

    def test_p4_crossing(self):
        m = metrics(path(4))
        assert m.distance(0, 3) == 3

    def test_identity(self):
        assert metrics(path(5)).distance(2, 2) == 0

    def test_matches_bfs_on_small_trees(self):
        for edges in [
            [(0, 1), (1, 2), (1, 3), (3, 4)],
            [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)],
            [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5), (5, 6)],
        ]:
            assert_metrics_match_table(build_tree(edges))


def assert_metrics_match_table(tree):
    m, ref = metrics(tree), Ref(tree)
    d = ref.d
    assert m.weight_centers == ref.centers
    assert m.diameter == ref.diameter
    assert (m.epsilon, m.total_level, m.xi, m.two_branch) \
        == (ref.epsilon, ref.total_level, ref.xi, ref.two_branch)
    assert m.remote_set == ref.remote
    # each branch of T - W is named by its one level-1 vertex: for v, the
    # one on its path to its center, L(v) - 1 steps from v
    firsts = [t for t in range(tree.p) if ref.level[t] == 1]
    for v in range(tree.p):
        on_path = [t for t in firsts if d[t][v] == ref.level[v] - 1]
        assert len(on_path) == (v not in ref.centers)
        assert m.branch_id[v] == (on_path[0] if on_path else CENTER_BRANCH)
    assert m.two_branch == (len(firsts) == 2)
    # levels, predecessors and owning centers as a BFS from the centers gives
    centers = m.weight_centers
    for v in range(tree.p):
        assert m.level[v] == ref.level[v]
        assert m.center_of[v] == min(centers, key=lambda c: d[c][v])
        u = m.parent[v]
        assert (u == -1) == (v in centers)
        if u >= 0:
            assert d[u][v] == 1 and m.level[u] == m.level[v] - 1
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
        assert parse_tree_text(format_tree_text(t)) == t

    def test_comments_ignored(self):
        t = parse_tree_text("# a tree\n0 1\n1 2  # tail comment\n")
        assert t.p == 3

    @pytest.mark.parametrize("line, error", [
        (" ".join(map(str, range(20000))), NotATree),  # an order file's line
        ("1 " + "2" * 20000 + "x", NotATree),
        ("-1" + " " * 20000 + "2", BadEdge),
    ], ids=["many-tokens", "long-id", "negative-id"])
    def test_long_bad_line_is_quoted_short(self, line, error):
        with pytest.raises(error) as info:
            parse_tree_text(f"0 1\n{line}\n")
        message = str(info.value)
        assert len(message) < 200
        assert repr(line[:80]) in message and f"({len(line)} characters)" in message
