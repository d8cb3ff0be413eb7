"""The certification pipeline against the paper's definitions.

``certify_tightness`` checks condition (a), the combined sum, condition (b),
and then verifies the labels and their span.  On a seeded grid of orders it
must stop at the same stage with the same detail, or return the same labels,
as those steps written on ``oracles.py``: BFS distances, the metrics, runs,
a-sequence and condition (b) by their definitions, and the all-pairs radio
check.  The runs, admissibility, a-sequence and condition (b) are also
compared one by one on the same grid.
"""

import random
from collections import Counter
from functools import cache

import oracles
from radiotree import (
    CertificationFailure,
    a_sequence,
    certify_tightness,
    gen_caterpillar,
    gen_levelwise,
    gen_lmh,
    gen_path,
    gen_random_two_branch,
    is_admissible,
    maximal_remote_intervals,
    metrics,
    proof_order_caterpillar,
    proof_order_levelwise,
    proof_order_lmh,
)
from radiotree.orders import _condition_b_core, _free_runs
from radiotree.tree import CENTER_BRANCH

ref_of = cache(oracles.Ref)  # one distance table per tree of the grid


def certify_reference(m, order):
    """(stage or None, detail, labels or None) from the definitions."""
    ref, seq = ref_of(m.tree), tuple(order)
    ok, detail = oracles.condition_a(ref, seq)
    if not ok:
        return "condition_a", detail, None
    a = oracles.a_sequence(ref, seq)
    end_sum = ref.level[seq[0]] + ref.level[seq[-1]]
    if end_sum + sum(a) != ref.epsilon + ref.xi:
        return ("combined_sum", f"endpoint level sum {end_sum} + sum(a) {sum(a)} "
                f"!= epsilon {ref.epsilon} + xi {ref.xi}", None)
    ok, pair = oracles.condition_b(ref, seq, a)
    if not ok:
        return "condition_b", f"violated at positions {pair}", None
    labels = dict(zip(seq, oracles.labels(ref, seq, a)))
    ok, pair = oracles.radio_check(ref, labels)
    if not ok:
        return "verification", f"radio condition fails at pair {pair}", None
    span = max(labels.values())
    if span != ref.improved:
        return "verification", f"span {span} != improved bound {ref.improved}", None
    return None, "", labels


def certify(m, order):
    """The pipeline's answer in the reference's shape."""
    try:
        lab = certify_tightness(m, order)
    except CertificationFailure as exc:
        return exc.stage, exc.detail, None
    return None, "", lab.labels


# --- the grid --------------------------------------------------------------


def branch_alternating(m, rng):
    """The two branches of T - W interleaved, each deepest first or shuffled,
    the larger one first, with the weight centers at random slots.  The
    sides are drawn in the order of their least vertices."""
    sides = sorted([v for v in range(m.p) if m.branch_id[v] == b]
                   for b in set(m.branch_id) - {CENTER_BRANCH})
    for side in sides:
        rng.shuffle(side)
        if rng.random() < 0.5:
            side.sort(key=lambda v: -m.level[v])
    sides.sort(key=len, reverse=True)
    big, small = sides if len(sides) == 2 else (sides[0], [])
    order = []
    for t, v in enumerate(big):
        order.append(v)
        if t < len(small):
            order.append(small[t])
    for c in sorted(m.weight_centers):
        order.insert(rng.choice([0, len(order), rng.randrange(len(order) + 1)]), c)
    return order


def grid():
    """(metrics, order) on the seeded grid: random two-branch trees with
    p = 3..16 under shuffled and branch-alternating orders, and the family
    orders with zero to two swaps, up to p = 994, and on the three largest
    with one swap of near positions at the start, middle and end."""
    rng = random.Random(14)
    for p in range(3, 17):
        for seed in range(4):
            m = metrics(gen_random_two_branch(p, seed).tree)
            for _ in range(4):
                yield m, rng.sample(range(p), p)
            for _ in range(12):
                yield m, branch_alternating(m, rng)
    for inst, build in [(gen_caterpillar(3, 2), proof_order_caterpillar),
                        (gen_caterpillar(5, 3), proof_order_caterpillar),
                        (gen_caterpillar(6, 2), proof_order_caterpillar),
                        (gen_lmh(1, 3, 3), proof_order_lmh),
                        (gen_lmh(2, 2, 4), proof_order_lmh),
                        (gen_levelwise(1, (2, 3, 3)), proof_order_levelwise),
                        (gen_levelwise(2, (2, 3, 3)), proof_order_levelwise),
                        # p = 417, 994 and 614: windows of several positions
                        (gen_caterpillar(17, 100), proof_order_caterpillar),
                        (gen_lmh(2, 45, 12), proof_order_lmh),
                        (gen_levelwise(2, (2, 6, 7, 4, 3)), proof_order_levelwise)]:
        m = metrics(inst.tree)
        base = build(inst, m)
        for swaps in range(3):
            for _ in range(10):
                order = list(base)
                for _ in range(swaps):
                    i, j = rng.randrange(len(order)), rng.randrange(len(order))
                    order[i], order[j] = order[j], order[i]
                yield m, order
        if m.p > 400:
            # one swap of near positions at the start, the middle and the end,
            # where the windows of condition (b) are cut short or run to the end
            p = m.p
            for i in (0, 1, p // 2 - 1, p // 2, p - 5, p - 4):
                for j in (i + 1, i + 2, i + 3):
                    order = list(base)
                    order[i], order[j] = order[j], order[i]
                    yield m, order


@cache
def grid_cases():
    """The grid as a list, built on first use rather than at import: the
    family orders certify while they are built, so a certification fault
    fails the tests that use the grid, by name, instead of the collection of
    this module and of those that import from it."""
    return list(grid())


def test_same_stage_detail_and_labels():
    stages = Counter()
    for m, order in grid_cases():
        want = certify_reference(m, order)
        assert certify(m, order) == want, order
        stages[want[0]] += 1
    # the grid reaches every stage that can fail, and certifies
    assert set(stages) == {"condition_a", "combined_sum", "condition_b", None}, stages


def test_same_runs_a_sequence_and_condition_b():
    # on every order, also where the reference pipeline stops at condition (a);
    # the free runs are cut from the remote runs, and checked position by position
    for m, order in grid_cases():
        ref, seq = ref_of(m.tree), tuple(order)
        runs = maximal_remote_intervals(m, seq)
        assert runs == oracles.remote_runs(ref, seq)
        assert _free_runs(m, seq, runs) == oracles.free_runs(ref, seq)
        assert is_admissible(m, seq) == oracles.is_admissible(ref, seq)
        a = a_sequence(m, seq)
        assert a.a == oracles.a_sequence(ref, seq)
        assert _condition_b_core(m, seq, a.a) == oracles.condition_b(ref, seq, a.a)


def test_condition_b_on_random_orders_matches_the_reference():
    # random and branch-alternating orders on random two-branch trees, under
    # their own a-sequence and under random increments in {0, |W|}: labels
    # that fail to increase, that increase and fail in a window, and that hold
    rng = random.Random(18)
    seen = Counter()
    for p in range(4, 25):
        for seed in range(6):
            m = metrics(gen_random_two_branch(p, seed).tree)
            w = len(m.weight_centers)
            for t in range(10):
                order = rng.sample(range(p), p) if t % 2 else branch_alternating(m, rng)
                seq = tuple(order)
                for a in (a_sequence(m, seq).a,
                          (0, *(rng.choice((0, w)) for _ in range(p - 2)))):
                    got = _condition_b_core(m, seq, a)
                    assert got == oracles.condition_b(ref_of(m.tree), seq, a), (seq, a)
                    f = oracles.labels(ref_of(m.tree), seq, a)
                    increasing = all(x < y for x, y in zip(f, f[1:]))
                    seen[got[0], increasing] += 1
    # the labels fail to increase only where two consecutive vertices have
    # levels summing to at least d + epsilon + a_t, so few orders have that
    assert seen[True, True] >= 100 and seen[False, True] >= 100 and seen[False, False] >= 10, seen
    assert seen[True, False] == 0


def test_free_runs_when_the_centers_are_remote():
    # P_2: two weight centers at diameter 1, so both are remote; each is the
    # other's order-neighbour, and no position is free
    m = metrics(gen_path(2).tree)
    assert m.remote_set == m.weight_centers == {0, 1}
    for seq in ((0, 1), (1, 0)):
        runs = maximal_remote_intervals(m, seq)
        assert runs == [(0, 1)]
        ref = oracles.Ref(m.tree)
        assert _free_runs(m, seq, runs) == oracles.free_runs(ref, seq) == []
        assert is_admissible(m, seq) == oracles.is_admissible(ref, seq)
