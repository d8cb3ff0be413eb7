import random

from hypothesis import given, settings, strategies as st

import oracles
from oracles import brute_force_rn, distances, random_tree
from radiotree import (
    a_sequence,
    check_condition_b,
    exact_rn,
    gen_random_two_branch,
    greedy_label_from_order,
    jf_profile,
    label_from_order,
    lower_bound_basic,
    lower_bound_improved,
    metrics,
    order_of,
    strict_gap_predicate,
    verify_labelling,
)
from test_certify_reference import branch_alternating


tree_params = st.tuples(st.integers(3, 40), st.integers(0, 10**6))


@given(tree_params)
@settings(max_examples=120, deadline=None)
def test_distance_identity_matches_bfs(params):
    n, seed = params
    tree = random_tree(n, seed)
    m = metrics(tree)
    if m.diameter < 2:
        return
    dist = distances(tree)
    for u in range(n):
        for v in range(n):
            assert m.distance(u, v) == dist[u][v]


@given(st.tuples(st.integers(3, 8), st.integers(0, 10**6), st.randoms()))
@settings(max_examples=80, deadline=None)
def test_greedy_completion_is_valid_and_order_preserving(params):
    n, seed, rng = params
    tree = random_tree(n, seed)
    m = metrics(tree)
    order = list(range(n))
    rng.shuffle(order)
    lab = greedy_label_from_order(m, tuple(order))
    ok, pair = verify_labelling(tree, lab)
    assert ok, pair
    assert order_of(lab) == tuple(order)


@given(st.tuples(st.integers(4, 9), st.integers(0, 10**6)))
@settings(max_examples=60, deadline=None)
def test_greedy_rebuild_never_increases_span(params):
    n, seed = params
    tree = random_tree(n, seed)
    m = metrics(tree)
    rng = random.Random(seed + 1)
    order = list(range(n))
    rng.shuffle(order)
    lab = greedy_label_from_order(m, tuple(order))
    rebuilt = greedy_label_from_order(m, order_of(lab))
    assert rebuilt.span <= lab.span


@given(st.tuples(st.integers(2, 30), st.integers(0, 10**6), st.randoms()))
@settings(max_examples=80, deadline=None)
def test_reversed_order_spans_no_more(params):
    # the solver's reversal rule: if f is the greedy completion of an order,
    # of span s, then s - f is a radio labelling whose labels increase along
    # the reversed order, so that order's greedy completion spans at most s
    p, seed, rng = params
    ref = oracles.Ref(oracles.pruefer_tree(p, seed))
    seq = list(range(p))
    rng.shuffle(seq)
    f = oracles.greedy_labels(ref, seq)
    span = max(f.values())
    mirrored = {u: span - x for u, x in f.items()}
    assert oracles.radio_check(ref, mirrored) == (True, None)
    assert sorted(mirrored, key=mirrored.get) == seq[::-1]
    back = oracles.greedy_labels(ref, seq[::-1])
    assert all(back[u] <= mirrored[u] for u in seq)
    assert max(back.values()) <= span


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_a_sequence_values_bounded(seed):
    inst = gen_random_two_branch(8, seed)
    m = metrics(inst.tree)
    rng = random.Random(seed)
    order = list(range(m.p))
    rng.shuffle(order)
    aseq = a_sequence(m, tuple(order))
    w = len(m.weight_centers)
    assert aseq.a[0] == 0
    assert all(a in (0, w) for a in aseq.a)
    assert aseq.a == oracles.a_sequence(oracles.Ref(inst.tree), tuple(order))


@given(st.integers(3, 16), st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_condition_b_makes_the_labels_increase_from_zero(p, seed):
    # the fact behind certify_tightness having no construction stage: once
    # condition (b) holds, f(u_0) = 0 and each label is above the one before.
    # Branch-alternating orders meet condition (b) about a quarter of the time.
    m = metrics(gen_random_two_branch(p, seed).tree)
    order = branch_alternating(m, random.Random(seed))
    aseq = a_sequence(m, order)
    if check_condition_b(m, order, aseq)[0]:
        labels = label_from_order(m, order, aseq).labels
        f = [labels[v] for v in order]
        assert f[0] == 0 and all(x < y for x, y in zip(f, f[1:]))


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_improved_minus_basic_is_xi(seed):
    inst = gen_random_two_branch(9, seed)
    m = metrics(inst.tree)
    if m.diameter < 2:
        return
    assert lower_bound_improved(m) - lower_bound_basic(m) == m.xi


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_exact_respects_bounds_and_strict_gap(seed):
    inst = gen_random_two_branch(8, seed)
    m = metrics(inst.tree)
    if m.diameter < 4:
        return
    rn = exact_rn(inst.tree).rn
    assert rn >= lower_bound_improved(m)
    if strict_gap_predicate(m):
        assert rn > lower_bound_basic(m)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_sigma_bounds_and_span_decomposition(seed):
    inst = gen_random_two_branch(8, seed)
    m = metrics(inst.tree)
    if m.diameter < 4:
        return
    witness = exact_rn(inst.tree).witness
    prof = jf_profile(m, witness)
    assert prof.span_identity == witness.span
    if len(m.weight_centers) == 1:
        assert prof.sigma >= 0
    else:
        assert prof.sigma >= -(m.p - 1)
    assert all(step >= 0 for step in prof.steps)


@given(st.integers(0, 10**6))
@settings(max_examples=10, deadline=None)
def test_solver_matches_brute_force_and_is_deterministic(seed):
    tree = random_tree(7, seed)
    a = exact_rn(tree)
    b = exact_rn(tree)
    assert a.rn == brute_force_rn(tree)
    assert a.stats.nodes == b.stats.nodes
    assert a.witness.labels == b.witness.labels
