import random
import sys
from bisect import bisect_left
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from oracles import distances, double_broom, path
from radiotree import (
    ASequence,
    BadVertex,
    DuplicateLabel,
    LengthMismatch,
    MissingLabel,
    NegativeLabel,
    NonIntegerLabel,
    NotTwoBranch,
    RadioLabelling,
    a_sequence,
    build_tree,
    certify_tightness,
    format_labels_text,
    gen_caterpillar,
    gen_levelwise,
    gen_lmh,
    gen_path,
    greedy_label_from_order,
    jf_profile,
    label_from_order,
    metrics,
    order_of,
    parse_labels_text,
    proof_order_caterpillar,
    proof_order_levelwise,
    proof_order_lmh,
    verify_labelling,
)
from radiotree import labelling
from radiotree.labelling import _first_violation, _has_violation, _middle_rooted


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

    @pytest.mark.parametrize("tree, order, a, error, message", [
        (oracles.star(3), (0, 1, 2, 3), (0, 0, 0), NotTwoBranch, "targets two-branch trees"),
        # the one tree of diameter below 2 is not two-branch, so the
        # diameter check behind the two-branch one is never the first to fail
        (path(2), (0, 1), (0,), NotTwoBranch, "targets two-branch trees"),
        (path(5), (2, 1, 4, 0, 3), (0, 0, 1), LengthMismatch,
         "a-sequence length 3 for order length 5"),
    ], ids=["star", "one-edge", "short-a-sequence"])
    def test_refused_inputs(self, tree, order, a, error, message):
        with pytest.raises(error, match=message):
            label_from_order(metrics(tree), order, ASequence(a=a))

    def test_c31_span(self):
        inst = gen_caterpillar(3, 1)
        m = metrics(inst.tree)
        nm = inst.vertex_names
        order = tuple(nm[s] for s in ["v_2", "v_{3,1}", "v_{1,1}", "v_3", "v_1"])
        lab = label_from_order(m, order, a_sequence(m, order))
        assert lab.span == 10

    @pytest.mark.parametrize("seed", range(40))
    def test_negative_label_message_at_the_first_dip(self, seed):
        # increments below zero (ASequence checks only a_0) drive the
        # recurrence negative; the message names the first negative label
        rng = random.Random(seed)
        m = metrics(gen_caterpillar(rng.choice([3, 5, 6]), rng.randint(1, 4)).tree)
        order = rng.sample(range(m.p), m.p)
        a = (0, *(rng.choice([-9, -3, -1, 0, 0, 1]) for _ in range(m.p - 2)))
        f = oracles.labels(oracles.Ref(m.tree), order, a)
        first = next((t for t, x in enumerate(f) if x < 0), None)
        if first is None:
            assert min(label_from_order(m, order, ASequence(a=a)).labels.values()) >= 0
        else:
            with pytest.raises(NegativeLabel) as exc:
                label_from_order(m, order, ASequence(a=a))
            assert str(exc.value) == f"label for vertex {order[first]} would be {f[first]}"

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

    def test_missing_vertices_named_by_count_and_first_five(self):
        tree = gen_caterpillar(5, 2500).tree  # p = 10,005
        with pytest.raises(MissingLabel) as info:
            verify_labelling(tree, RadioLabelling({0: 0, 3: 7}))
        assert str(info.value) == "10003 vertices without labels, starting [1, 2, 4, 5, 6]"

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
        assert oracles.radio_check(oracles.Ref(path(4)), lab.labels) == (False, (0, 1))
        assert verify_labelling(path(4), lab) == (False, (0, 1))

    def test_certification_builds_no_distance_table(self, monkeypatch):
        # C(5,25000), p = 100,005: the constructed order is certified twice
        # (inside proof_order_caterpillar and here) without a p x p table
        forbid_distance_table(monkeypatch)
        inst = gen_caterpillar(5, 25000)
        m = metrics(inst.tree)
        lab = certify_tightness(m, proof_order_caterpillar(inst))
        assert lab.span == inst.closed_form_rn


def forbid_distance_table(monkeypatch):
    """Make :func:`distance_matrix` raise in every module that binds it."""
    def no_table(tree):
        raise AssertionError(f"built a {tree.p} x {tree.p} distance table")

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "radiotree" and hasattr(module, "distance_matrix"):
            monkeypatch.setattr(module, "distance_matrix", no_table)


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
    assert verify_labelling(tree, lab) == oracles.radio_check(oracles.Ref(tree), lab.labels)


class TestVerifierDistances:
    @given(relabelled_trees())
    @settings(max_examples=150, deadline=None)
    def test_middle_rooted_oracle(self, tree):
        diam, depth, parent, top = _middle_rooted(tree.adjacency)
        dist = distances(tree)
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
        # vertex 0 ends a 40-edge path, as far from the middle as a vertex can be
        tree = double_broom(0, 40, 5)
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
            assert verify_labelling(tree, lab) \
                == oracles.radio_check(oracles.Ref(tree), lab.labels)


def path_with_zero_inside(n, bristles, rng):
    """A path on n vertices, with ``bristles`` leaves on one end, numbered at
    random except that vertex 0 sits in the middle of the path: a BFS from 0
    ends halfway along the longest path, never at its end."""
    ids = [0, *rng.sample(range(1, n + bristles), n + bristles - 1)]
    spine = ids[1:n // 2 + 1] + [0] + ids[n // 2 + 1:n]
    edges = [(spine[i], spine[i + 1]) for i in range(n - 1)]
    edges += [(spine[-1], ids[n + j]) for j in range(bristles)]
    rng.shuffle(edges)
    return build_tree(edges)


@pytest.mark.parametrize("seed", range(30))
def test_diameter_from_heights_matches_the_table(seed):
    rng = random.Random(seed)
    tree = path_with_zero_inside(rng.randint(2, 40), rng.choice([0, 0, 1, 2, 5]), rng)
    want = max(map(max, distances(tree)))
    diam, depth, _, _ = _middle_rooted(tree.adjacency)
    assert metrics(tree).diameter == diam == want
    assert max(depth) == (want + 1) // 2


def test_all_zero_labels_compare_one_pair(monkeypatch):
    # Equal labels always violate, so vertex 0's first partner in the block
    # of p zeros, vertex 1, is named at once and no later one is compared.
    # A scan of every pair with a label gap below diam would compare all
    # p(p-1)/2 = 200 million pairs here.
    tree = gen_caterpillar(5, 5000).tree  # p = 20,005
    compared = []

    def counting(oracle, lab):
        first, n = _first_violation(oracle, lab)
        compared.append(n)
        return first, n

    monkeypatch.setattr(labelling, "_first_violation", counting)
    lab = RadioLabelling(dict.fromkeys(range(tree.p), 0))
    assert verify_labelling(tree, lab) == (False, (0, 1))
    assert compared == [1]


def test_naming_scan_stops_at_the_first_violating_vertex():
    # vertex 0's label nudged in a certified labelling of L^2_{2500,3}
    # (p = 10,004): the scan stops after vertex 0's own window, under
    # 2 * diam pairs, where a scan of every window compares 22,499
    inst = gen_lmh(2, 2500, 3)
    m = metrics(inst.tree)
    labels = dict(certify_tightness(m, proof_order_lmh(inst, m)).labels)
    labels[0] += 1
    first, compared = _first_violation(_middle_rooted(inst.tree.adjacency), labels)
    assert first == (0, 9)
    assert compared <= 2 * m.diameter


def gap_pairs(labels, diam):
    """The number of pairs of vertices whose labels differ by less than diam."""
    keys = sorted(labels.values())
    return sum(bisect_left(keys, k + diam, i + 1) - i - 1 for i, k in enumerate(keys))


@given(labelled_trees())
@settings(max_examples=500, deadline=None)
def test_naming_scan_compares_each_window_pair_at_most_once(case):
    tree, lab = case
    oracle = _middle_rooted(tree.adjacency)
    _, compared = _first_violation(oracle, lab.labels)
    assert compared <= gap_pairs(lab.labels, oracle[0])


def test_a_failing_labelling_builds_one_oracle(monkeypatch):
    # both passes run on a failing labelling, and share one BFS and reroot
    built = []

    def counting(adjacency):
        built.append(adjacency)
        return _middle_rooted(adjacency)

    monkeypatch.setattr(labelling, "_middle_rooted", counting)
    tree = path(5)
    assert verify_labelling(tree, RadioLabelling({0: 0, 1: 1, 2: 9, 3: 14, 4: 19})) == (False, (0, 1))
    assert built == [tree.adjacency]


# --- the decision pass against the naming scan ------------------------------
#
# verify_labelling trusts _has_violation to say whether a violation exists and
# runs _first_violation only when it says so.  The tests above compare only
# the final answer, which the naming scan produces for every invalid
# labelling, so a decision pass that reported violations that are not there
# would pass them.  These compare the two passes directly, both ways.


def names_a_violation(tree, labels):
    return _first_violation(_middle_rooted(tree.adjacency), labels)[0] is not None


@given(labelled_trees())
@settings(max_examples=500, deadline=None)
def test_decision_pass_agrees_with_the_naming_scan(case):
    tree, lab = case
    assert _has_violation(_middle_rooted(tree.adjacency), lab.labels) == names_a_violation(tree, lab.labels)


@pytest.mark.parametrize("inst, build", [
    (gen_caterpillar(5, 120), proof_order_caterpillar),  # p = 605
    (gen_caterpillar(9, 497), proof_order_caterpillar),  # p = 1,997
    (gen_lmh(1, 60, 9), proof_order_lmh),  # p = 963
    (gen_lmh(2, 45, 12), proof_order_lmh),  # p = 994
    (gen_levelwise(2, (2, 6, 7, 4, 3)), proof_order_levelwise),  # p = 614
    (gen_levelwise(1, (2, 5, 5, 5, 4)), proof_order_levelwise),  # p = 555
], ids=lambda x: getattr(x, "name", None))
def test_decision_pass_agrees_on_nudged_family_labellings(inst, build):
    m = metrics(inst.tree)
    certified = certify_tightness(m, build(inst, m)).labels
    oracle = _middle_rooted(inst.tree.adjacency)
    assert not _has_violation(oracle, certified)
    rng = random.Random(inst.tree.p)
    violations = 0
    for _ in range(60):
        labels = dict(certified)
        v = rng.randrange(inst.tree.p)
        labels[v] = max(0, labels[v] + rng.choice([-3, -2, -1, 1, 2, 3]))
        want = names_a_violation(inst.tree, labels)
        assert _has_violation(oracle, labels) == want, v
        violations += want
    assert violations > 0


def lone_pair(p, diam, u, v, gap):
    """Labels under which only (u, v) can violate: u at 0, v at ``gap``, and
    every other vertex at least ``diam`` above the label before it."""
    labels = {u: 0, v: gap}
    rest = (w for w in range(p) if w != u and w != v)
    labels.update((w, 2 * diam * k) for k, w in enumerate(rest, 1))
    return labels


def spider_with_cousins():
    """Under the middle root r: an arm of length 4, and an arm r-c-x where x
    has two children, each with two leaf children (depths 3 and 4), so
    pairs meet at depths 1 to 4 and the climb stops short of the meeting
    vertex.  Vertex ids are shuffled so that r is not vertex 0."""
    edges = [("r", "a1"), ("a1", "a2"), ("a2", "a3"), ("a3", "a4"),
             ("r", "c"), ("c", "x"), ("x", "y1"), ("x", "y2"),
             ("y1", "z1"), ("y1", "z2"), ("y2", "z3"), ("y2", "z4")]
    names = sorted({n for e in edges for n in e})
    ids = dict(zip(names, random.Random(8).sample(range(len(names)), len(names))))
    return build_tree([(ids[a], ids[b]) for a, b in edges])


def test_threshold_climb_decides_every_lone_pair():
    # every ordered pair at every gap 0..diam: the decision is the radio
    # condition on that pair, and each edge case of the climb is reached
    seen = Counter()
    for tree in spider_with_cousins(), path(8), path(9), double_broom(0, 7, 3):
        oracle = _middle_rooted(tree.adjacency)
        diam, depth, _, top = oracle
        dist = distances(tree)
        for u in range(tree.p):
            for v in range(tree.p):
                if u == v:
                    continue
                for gap in range(diam + 1):
                    labels = lone_pair(tree.p, diam, u, v, gap)
                    want = gap + dist[u][v] <= diam
                    assert _has_violation(oracle, labels) == want, (u, v, gap)
                    if top[u] != top[v]:
                        seen["through the root"] += 1
                        continue
                    h = -(-(depth[u] + depth[v] - (diam - gap)) // 2)
                    seen["h <= 0"] += h <= 0
                    seen["ancestor"] += dist[u][v] == abs(depth[u] - depth[v])
                    seen["equal depths"] += depth[u] == depth[v]
                    seen["climb"] += 1 < h <= min(depth[u], depth[v])
    assert all(seen[k] for k in ("through the root", "h <= 0", "ancestor",
                                 "equal depths", "climb")), seen


@pytest.mark.parametrize("labels, want", [
    ({0: 0}, False),  # one vertex: no pair
    ({0: 0, 1: 0}, True),  # equal labels always violate
    ({0: 3, 1: 3}, True),
    ({0: 0, 1: 1}, False),  # diameter 1: a gap of 1 suffices
])
def test_decision_pass_on_one_and_two_vertices(labels, want):
    tree = gen_path(len(labels)).tree
    assert _has_violation(_middle_rooted(tree.adjacency), labels) is want


def test_valid_labelling_skips_the_naming_scan(monkeypatch):
    def no_scan(oracle, lab):
        raise AssertionError("the naming scan ran on a valid labelling")

    monkeypatch.setattr(labelling, "_first_violation", no_scan)
    inst = gen_caterpillar(5, 200)
    lab = certify_tightness(metrics(inst.tree), proof_order_caterpillar(inst))
    assert verify_labelling(inst.tree, lab) == (True, None)


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

    def test_builds_no_distance_table(self, monkeypatch):
        # C(5,2500), p = 10,005: the certifying order and a shuffled one
        forbid_distance_table(monkeypatch)
        inst = gen_caterpillar(5, 2500)
        m = metrics(inst.tree)
        order = proof_order_caterpillar(inst)
        lab = greedy_label_from_order(m, order)
        # pointwise below the recurrence's labels, which attain rn
        assert lab.span == inst.closed_form_rn
        assert verify_labelling(inst.tree, lab) == (True, None)
        shuffled = random.Random(2500).sample(order, len(order))
        lab = greedy_label_from_order(m, shuffled)
        assert verify_labelling(inst.tree, lab) == (True, None)

    def test_greedy_never_worse_than_any_labelling(self):
        # rebuilding any valid labelling through its own order cannot increase span
        tree = path(5)
        m = metrics(tree)
        lab = RadioLabelling({2: 0, 1: 4, 4: 6, 0: 9, 3: 13})
        ok, _ = verify_labelling(tree, lab)
        assert ok
        rebuilt = greedy_label_from_order(m, order_of(lab))
        assert rebuilt.span <= lab.span


@st.composite
def ordered_trees(draw):
    tree = draw(relabelled_trees())
    return tree, draw(st.permutations(range(tree.p)))


@given(ordered_trees())
@example((path(2), (1, 0)))  # diameter 1: the window is the previous vertex alone
@example((gen_path(1).tree, (0,)))
@example((path(12), tuple(range(12))))  # labels 11 apart: a window of one
@settings(max_examples=400, deadline=None)
def test_greedy_window_matches_all_placed(case):
    tree, order = case
    assert greedy_label_from_order(metrics(tree), order).labels \
        == oracles.greedy_labels(oracles.Ref(tree), order)


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

    def test_labelling_of_another_tree(self):
        # P_5's labelling read against P_4: one vertex too many
        lab = RadioLabelling({2: 0, 1: 4, 4: 6, 0: 8, 3: 10})
        with pytest.raises(MissingLabel, match="does not cover the vertex set"):
            jf_profile(metrics(path(4)), lab)


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

    def test_blank_and_comment_lines_are_skipped(self):
        text = "# P_4\n\n1 0  # the first vertex\n   \n3 2\n#0 9\n0 3\n\t\n2 5\n"
        assert parse_labels_text(text).labels == {1: 0, 3: 2, 0: 3, 2: 5}

    @pytest.mark.parametrize("text", ["", "\n\n", "# nothing here\n  # nor here\n"],
                             ids=["empty", "blank", "comments"])
    def test_no_label_line(self, text):
        with pytest.raises(MissingLabel, match="^empty labelling$"):
            parse_labels_text(text)

    @pytest.mark.parametrize("line, error", [
        (" ".join(map(str, range(20000))), MissingLabel),  # an order file's line
        ("v" * 20000 + " 5", BadVertex),
        ("3 " + "5" * 20000 + ".5", NonIntegerLabel),
    ], ids=["many-tokens", "long-vertex", "long-label"])
    def test_long_bad_line_is_quoted_short(self, line, error):
        with pytest.raises(error) as info:
            parse_labels_text(f"0 1\n{line}\n")
        message = str(info.value)
        assert len(message) < 200
        assert repr(line[:80]) in message and f"({len(line)} characters)" in message
