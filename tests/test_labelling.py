import random

import pytest
from hypothesis import given, settings, strategies as st

from radiotree import (
    ASequence,
    BadVertex,
    DuplicateLabel,
    MissingLabel,
    NegativeLabel,
    NonIntegerLabel,
    RadioLabelling,
    a_sequence,
    build_tree,
    certify_tightness,
    distance_matrix,
    format_labels_text,
    gen_caterpillar,
    gen_path,
    greedy_label_from_order,
    jf_profile,
    label_from_order,
    metrics,
    order_of,
    parse_labels_text,
    proof_order_caterpillar,
    verify_labelling,
)
from radiotree import labelling
from radiotree.labelling import _first_violation, _middle_rooted


def path(n):
    return build_tree([(i, i + 1) for i in range(n - 1)])


class TestLabelFromOrder:
    def test_p5_certified(self):
        m = metrics(path(5))
        lab = label_from_order(m, (2, 1, 4, 0, 3), ASequence(a=(0, 0, 1, 0)))
        assert lab.labels == {2: 0, 1: 4, 4: 6, 0: 8, 3: 10}
        assert lab.span == 10

    def test_p4_certified(self):
        m = metrics(path(4))
        lab = label_from_order(m, (1, 3, 0, 2), ASequence(a=(0, 0, 0)))
        assert lab.labels == {1: 0, 3: 2, 0: 3, 2: 5}
        assert lab.span == 5

    def test_c31_span(self):
        inst = gen_caterpillar(3, 1)
        m = metrics(inst.tree)
        nm = inst.vertex_names
        order = tuple(nm[s] for s in ["v_2", "v_{3,1}", "v_{1,1}", "v_3", "v_1"])
        lab = label_from_order(m, order, a_sequence(m, order))
        assert lab.span == 10

    def test_steps_never_negative(self):
        # each step adds d + epsilon - (L_i + L_{i+1}) + a_i >= 0, so labels
        # are nondecreasing along any order
        m = metrics(path(5))
        lab = label_from_order(m, (0, 1, 2, 3, 4), ASequence(a=(0, 0, 0, 0)))
        assert min(lab.labels.values()) == 0


class TestVerifyLabelling:
    def test_valid_p4(self):
        ok, pair = verify_labelling(path(4), RadioLabelling({1: 0, 3: 2, 0: 3, 2: 5}))
        assert ok and pair is None

    def test_perturbed_p4(self):
        ok, pair = verify_labelling(path(4), RadioLabelling({1: 0, 3: 2, 0: 4, 2: 5}))
        assert not ok
        assert pair == (0, 2)

    def test_p3_anomalous_span3(self):
        ok, _ = verify_labelling(path(3), RadioLabelling({0: 0, 2: 1, 1: 3}))
        assert ok

    def test_missing_vertex(self):
        with pytest.raises(MissingLabel):
            verify_labelling(path(4), RadioLabelling({0: 0, 1: 5}))

    def test_negative_label(self):
        # valid apart from the sign: every gap meets the radio condition
        with pytest.raises(NegativeLabel):
            verify_labelling(path(5), RadioLabelling({2: -10, 1: 4, 4: 6, 0: 8, 3: 10}))

    def test_vertex_outside_tree(self):
        labels = {2: 0, 1: 4, 4: 6, 0: 8, 3: 10, 99: 20}
        with pytest.raises(BadVertex):
            verify_labelling(path(5), RadioLabelling(labels))

    @pytest.mark.parametrize("bad", [6.0, "6", True])
    def test_non_integer_label(self, bad):
        with pytest.raises(NonIntegerLabel):
            verify_labelling(path(5), RadioLabelling({2: 0, 1: 4, 4: bad, 0: 8, 3: 10}))

    def test_first_pair_in_label_order_is_not_the_first_pair(self):
        # on P_4 (diameter 3) the window meets (3, 2) first, at labels 0 and
        # 1, but the lexicographically first violation is (0, 1)
        lab = RadioLabelling({3: 0, 2: 1, 0: 10, 1: 11})
        assert all_pairs_verify(path(4), lab) == (False, (0, 1))
        assert verify_labelling(path(4), lab) == (False, (0, 1))

    def test_certification_builds_no_distance_table(self):
        # C(5,25000), p = 100,005: the constructed order is certified twice
        # (inside proof_order_caterpillar and here) without a p x p table
        inst = gen_caterpillar(5, 25000)
        before = distance_matrix.cache_info()
        m = metrics(inst.tree)
        lab = certify_tightness(m, proof_order_caterpillar(inst))
        after = distance_matrix.cache_info()
        assert lab.span == inst.closed_form_rn
        assert (after.misses, after.currsize) == (before.misses, before.currsize)


def all_pairs_verify(tree, labelling):
    """Reference for :func:`verify_labelling`: every pair in lexicographic
    order, table distances, the diameter as the table's maximum."""
    labels = labelling.labels
    dist = distance_matrix(tree)
    diam = max(max(row) for row in dist) if tree.p > 1 else 0
    for u in range(tree.p):
        for v in range(u + 1, tree.p):
            if abs(labels[u] - labels[v]) < diam + 1 - dist[u][v]:
                return False, (u, v)
    return True, None


@st.composite
def relabelled_trees(draw):
    """A tree with p = 1..30 under a random vertex numbering.

    Either vertex i hangs from a drawn earlier vertex, or two such trees of
    equal size are joined by an edge between their roots, which makes the
    two roots the weight centers.  The numbering is then shuffled so that
    vertex 0, the verifier's BFS root, sits anywhere in the tree.
    """
    def hang(base, size):
        return [(base + i, base + draw(st.integers(0, i - 1))) for i in range(1, size)]

    if draw(st.booleans()):
        p = draw(st.integers(1, 30))
        edges = hang(0, p)
    else:
        half = draw(st.integers(1, 15))
        p = 2 * half
        edges = hang(0, half) + hang(half, half) + [(0, half)]
    if p == 1:
        return gen_path(1).tree  # build_tree needs at least one edge
    perm = draw(st.permutations(range(p)))
    return build_tree([(perm[u], perm[v]) for u, v in edges])


@st.composite
def labelled_trees(draw):
    """A tree and a labelling of it: random small labels (often repeated and
    mostly invalid), a greedy valid labelling, one with a label nudged, or
    one with large blocks of vertices sharing a label."""
    tree = draw(relabelled_trees())
    kind = draw(st.sampled_from(["random", "greedy", "nudged", "blocks"]))
    if kind == "random":
        top = draw(st.integers(0, 3 * tree.p))
        values = draw(st.lists(st.integers(0, top), min_size=tree.p, max_size=tree.p))
        return tree, RadioLabelling(dict(enumerate(values)))
    order = draw(st.permutations(range(tree.p)))
    labels = dict(greedy_label_from_order(metrics(tree), order).labels)
    if kind == "nudged":
        v = draw(st.integers(0, tree.p - 1))
        labels[v] = max(0, labels[v] + draw(st.sampled_from([-3, -2, -1, 1, 2, 3])))
    if kind == "blocks":
        # each block is a run of the order (or all of it) moved onto one label
        for _ in range(draw(st.integers(1, 3))):
            start = draw(st.integers(0, tree.p - 1))
            stop = draw(st.integers(start + 1, tree.p))
            value = labels[order[draw(st.integers(0, tree.p - 1))]]
            for v in order[start:stop]:
                labels[v] = value
    return tree, RadioLabelling(labels)


@given(labelled_trees())
@settings(max_examples=500, deadline=None)
def test_windowed_verify_matches_all_pairs(case):
    tree, lab = case
    assert verify_labelling(tree, lab) == all_pairs_verify(tree, lab)


def broom_at_far_end(n, bristles):
    """A path 0..n-1 with ``bristles`` leaves on n-1: vertex 0 is a leaf at
    the end of a longest path, as far from the middle as a vertex can be."""
    return build_tree([(i, i + 1) for i in range(n - 1)]
                      + [(n - 1, n + j) for j in range(bristles)])


class TestVerifierDistances:
    @given(relabelled_trees())
    @settings(max_examples=150, deadline=None)
    def test_middle_rooted_oracle(self, tree):
        diam, depth, parent, top = _middle_rooted(tree.adjacency)
        dist = distance_matrix(tree)
        (root,) = [v for v in range(tree.p) if depth[v] == 0]
        assert diam == max(max(row) for row in dist)
        assert max(depth) == (diam + 1) // 2  # rooted at the middle
        assert list(depth) == list(dist[root])
        assert parent[root] == -1
        for u in range(tree.p):
            if u != root:
                assert dist[u][parent[u]] == 1 and depth[parent[u]] == depth[u] - 1
            for v in range(tree.p):
                if top[u] != top[v]:
                    assert dist[u][v] == depth[u] + depth[v]

    def test_vertex_zero_at_the_end_of_a_long_path(self):
        tree = broom_at_far_end(40, 5)
        diam, depth, _, _ = _middle_rooted(tree.adjacency)
        assert (diam, max(depth), depth[0]) == (40, 20, 20)
        m = metrics(tree)
        rng = random.Random(40)
        for _ in range(20):
            labels = dict(greedy_label_from_order(m, rng.sample(range(tree.p), tree.p)).labels)
            assert verify_labelling(tree, RadioLabelling(labels)) == (True, None)
            v = rng.randrange(tree.p)
            labels[v] = max(0, labels[v] + rng.choice([-3, -1, 1, 3]))
            lab = RadioLabelling(labels)
            assert verify_labelling(tree, lab) == all_pairs_verify(tree, lab)


def test_all_zero_labels_compare_a_linear_number_of_pairs(monkeypatch):
    # Equal labels always violate, so the block of p zeros yields (0, 1) at
    # once; only pairs with vertex 0 can come before it.  The old window held
    # all p(p-1)/2 = 200 million pairs here.
    tree = gen_caterpillar(5, 5000).tree  # p = 20,005
    compared = []

    def counting(adjacency, lab):
        first, n = _first_violation(adjacency, lab)
        compared.append(n)
        return first, n

    monkeypatch.setattr(labelling, "_first_violation", counting)
    lab = RadioLabelling(dict.fromkeys(range(tree.p), 0))
    assert verify_labelling(tree, lab) == (False, (0, 1))
    assert compared == [tree.p - 1]


class TestGreedy:
    def test_c31_matches_closed_form_route(self):
        inst = gen_caterpillar(3, 1)
        m = metrics(inst.tree)
        nm = inst.vertex_names
        order = tuple(nm[s] for s in ["v_2", "v_{3,1}", "v_{1,1}", "v_3", "v_1"])
        greedy = greedy_label_from_order(m, order)
        exact = label_from_order(m, order, a_sequence(m, order))
        assert greedy.labels == exact.labels

    def test_p4(self):
        m = metrics(path(4))
        assert greedy_label_from_order(m, (1, 3, 0, 2)).span == 5

    def test_p2(self):
        m = metrics(path(2))
        assert greedy_label_from_order(m, (0, 1)).labels == {0: 0, 1: 1}

    def test_greedy_never_worse_than_any_labelling(self):
        # rebuilding any valid labelling through its own order cannot increase span
        tree = path(5)
        m = metrics(tree)
        lab = RadioLabelling({2: 0, 1: 4, 4: 6, 0: 9, 3: 13})
        ok, _ = verify_labelling(tree, lab)
        assert ok
        rebuilt = greedy_label_from_order(m, order_of(lab))
        assert rebuilt.span <= lab.span


class TestOrderOf:
    def test_p4(self):
        assert order_of(RadioLabelling({1: 0, 3: 2, 0: 3, 2: 5})) == (1, 3, 0, 2)

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateLabel):
            order_of(RadioLabelling({0: 1, 1: 1}))

    def test_singleton(self):
        assert order_of(RadioLabelling({0: 0})) == (0,)


class TestJfProfile:
    def test_p5(self):
        m = metrics(path(5))
        lab = RadioLabelling({2: 0, 1: 4, 4: 6, 0: 8, 3: 10})
        prof = jf_profile(m, lab)
        assert prof.steps == (0, 0, 1, 0)
        assert prof.sigma == 1
        assert prof.span_identity == lab.span == 10

    def test_p4_sigma_negative(self):
        m = metrics(path(4))
        lab = RadioLabelling({1: 0, 3: 2, 0: 3, 2: 5})
        prof = jf_profile(m, lab)
        assert prof.sigma == -3
        assert prof.span_identity == 5

    def test_all_steps_nonnegative(self):
        m = metrics(path(5))
        lab = RadioLabelling({2: 0, 1: 4, 4: 6, 0: 8, 3: 10})
        assert all(j >= 0 for j in jf_profile(m, lab).steps)


class TestLabelFiles:
    def test_round_trip(self):
        lab = RadioLabelling({1: 0, 3: 2, 0: 3, 2: 5})
        assert parse_labels_text(format_labels_text(lab)).labels == lab.labels

    def test_duplicate_vertex(self):
        with pytest.raises(DuplicateLabel):
            parse_labels_text("0 1\n0 2\n")

    def test_non_integer_vertex(self):
        with pytest.raises(BadVertex):
            parse_labels_text("0 1\nv2 5\n")

    def test_non_integer_label(self):
        with pytest.raises(NonIntegerLabel):
            parse_labels_text("0 1\n2 5.5\n")
