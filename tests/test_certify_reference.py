"""The certification pipeline against its earlier six-stage form.

``certify_tightness`` once ran six stages: condition_a, a_sequence,
combined_sum, condition_b, construction and verification.  The a_sequence
and construction stages cannot fail, and the run scans and the label
recurrence were each rewritten once.  The earlier code is kept here as a
test-only reference, and on a seeded grid of orders the pipeline must give
the same stage, the same detail and the same labels.
"""

import random
from collections import Counter
from itertools import accumulate

from radiotree import (
    ASequence,
    CertificationFailure,
    InfeasibleASequence,
    NegativeLabel,
    RadioLabelling,
    a_sequence,
    certify_tightness,
    check_condition_a,
    check_order,
    gen_caterpillar,
    gen_levelwise,
    gen_lmh,
    gen_path,
    gen_random_two_branch,
    is_admissible,
    lower_bound_improved,
    maximal_remote_intervals,
    metrics,
    proof_order_caterpillar,
    proof_order_levelwise,
    proof_order_lmh,
    verify_labelling,
)
from radiotree.orders import _condition_b_core, _free_runs
from radiotree.tree import CENTER_BRANCH

# --- the earlier code, kept as the reference ----------------------------------


def maximal_remote_intervals_reference(m, seq):
    runs = []
    start = None
    for i, u in enumerate(seq):
        if u in m.remote_set:
            if start is None:
                start = i
        elif start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(seq) - 1))
    return runs


def free_runs_reference(m, seq):
    """Maximal runs of positions holding a remote vertex with no weight
    center as an order-neighbour, position by position."""
    p, centers = len(seq), m.weight_centers
    free = [v in m.remote_set and not any(0 <= k < p and seq[k] in centers for k in (t - 1, t + 1))
            for t, v in enumerate(seq)]
    runs, start = [], None
    for t, x in enumerate([*free, False]):
        if x and start is None:
            start = t
        elif not x and start is not None:
            runs.append((start, t - 1))
            start = None
    return runs


def is_admissible_reference(m, seq):
    centers, remote = m.weight_centers, m.remote_set
    slots = sorted(seq.index(c) for c in centers)
    for i in slots:
        for j in (i - 1, i + 1):
            if 0 <= j < len(seq) and seq[j] not in centers and seq[j] not in remote:
                return False
    if len(slots) == 2 and slots[1] <= slots[0] + 2:
        return False
    lengths = [e - s + 1 for s, e in free_runs_reference(m, seq)]
    odd = sum(n % 2 for n in lengths)
    return odd == sum(lengths) % 2


def a_sequence_reference(m, seq):
    p = len(seq)
    remote, centers = m.remote_set, m.weight_centers
    w = len(centers)
    a = [0] * (p - 1)
    for t in range(1, p - 1):
        if seq[t] in remote and seq[t - 1] not in centers and seq[t + 1] not in centers:
            a[t] = w - a[t - 1]
        if a[t] not in (0, w):
            raise InfeasibleASequence(f"a_{t} = {a[t]} outside {{0, {w}}}")
    return ASequence(a=tuple(a))


def condition_b_core_reference(m, seq, a):
    p = len(seq)
    diam = m.diameter
    de = diam + m.epsilon
    level, distance = m.level, m.distance
    lev = [level[v] for v in seq]
    part = [m.branch_id[v] if m.branch_id[v] != CENTER_BRANCH else -1 - v for v in seq]
    cen = [m.center_of[v] for v in seq]
    prefix = [0, *accumulate([x + y - at - de for x, y, at in zip(lev, lev[1:], a)])]
    ahead = list(accumulate(reversed(prefix), max))[::-1]
    for i in range(p - 1):
        base = prefix[i] - diam - 1
        lu, pu, cu = lev[i], part[i], cen[i]
        for j in range(i + 1, p):
            if ahead[j] - base <= 1:
                break
            rhs = prefix[j] - base
            if rhs <= 1:
                continue
            if pu != part[j]:
                if lu + lev[j] + (cu != cen[j]) < rhs:
                    return False, (i, j)
            elif distance(seq[i], seq[j]) < rhs:
                return False, (i, j)
    return True, None


def label_from_order_reference(m, seq, a):
    de, level = m.diameter + m.epsilon, m.level
    labels, f, lu = {seq[0]: 0}, 0, level[seq[0]]
    for v, ai in zip(seq[1:], a):
        lv = level[v]
        f += ai + de - lu - lv
        if f < 0:
            raise NegativeLabel(f"label for vertex {v} would be {f}")
        labels[v], lu = f, lv
    return labels


def certify_tightness_reference(m, order):
    """(stage or None, detail, labels or None), stage by stage as before."""
    seq = check_order(m, order)
    ok, diag = check_condition_a(m, seq)
    if not ok:
        return "condition_a", diag, None
    try:
        aseq = a_sequence_reference(m, seq)
    except InfeasibleASequence as exc:
        return "a_sequence", str(exc), None
    end_sum = m.level[seq[0]] + m.level[seq[-1]]
    if end_sum + aseq.total != m.epsilon + m.xi:
        return ("combined_sum", f"endpoint level sum {end_sum} + sum(a) {aseq.total} "
                f"!= epsilon {m.epsilon} + xi {m.xi}", None)
    ok, pair = condition_b_core_reference(m, seq, aseq.a)
    if not ok:
        return "condition_b", f"violated at positions {pair}", None
    try:
        labels = label_from_order_reference(m, seq, aseq.a)
    except NegativeLabel as exc:
        return "construction", str(exc), None
    ok, pair = verify_labelling(m.tree, RadioLabelling(labels))
    if not ok:
        return "verification", f"radio condition fails at pair {pair}", None
    target = lower_bound_improved(m)
    if max(labels.values()) != target:
        return "verification", f"span {max(labels.values())} != improved bound {target}", None
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
    the larger one first, with the weight centers at random slots."""
    sides = [[v for v in range(m.p) if m.branch_id[v] == b]
             for b in sorted(set(m.branch_id) - {CENTER_BRANCH})]
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


GRID = list(grid())


def test_same_stage_detail_and_labels():
    stages = Counter()
    for m, order in GRID:
        want = certify_tightness_reference(m, order)
        assert certify(m, order) == want, order
        stages[want[0]] += 1
    # the grid reaches every stage that can fail, and certifies
    assert set(stages) == {"condition_a", "combined_sum", "condition_b", None}, stages


def test_same_runs_a_sequence_and_condition_b():
    # on every order, also where the reference pipeline stops at condition (a);
    # the reference a-sequence raises if a value leaves {0, |W|}; the free
    # runs are cut from the remote runs, and checked position by position
    for m, order in GRID:
        seq = tuple(order)
        runs = maximal_remote_intervals(m, seq)
        assert runs == maximal_remote_intervals_reference(m, seq)
        assert _free_runs(m, seq, runs) == free_runs_reference(m, seq)
        assert is_admissible(m, seq) == is_admissible_reference(m, seq)
        a = a_sequence(m, seq)
        assert a == a_sequence_reference(m, seq)
        assert _condition_b_core(m, seq, a.a) == condition_b_core_reference(m, seq, a.a)


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
                    assert got == condition_b_core_reference(m, seq, a), (seq, a)
                    f = [0, *accumulate(at + m.diameter + m.epsilon - m.level[u] - m.level[v]
                                        for at, u, v in zip(a, seq, seq[1:]))]
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
        assert _free_runs(m, seq, runs) == free_runs_reference(m, seq) == []
        assert is_admissible(m, seq) == is_admissible_reference(m, seq)
