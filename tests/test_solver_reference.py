"""The exact solver against a snapshot of its search, on oracle inputs.

``search_reference`` is the search as it once was, with its own incumbent
order and per-depth snapshots of ``req``, since taught the solver's
least-label-first candidate order (``by_label``) and its incumbent record.
It stays a snapshot: no definition fixes the nodes, prunes and witnesses of
a search.  Its inputs come from ``oracles.py``: BFS distances and metrics,
the greedy seed, twin leaves, probe bounds and start vertices (one per class
of isomorphic rooted trees).  On a seeded grid of trees and node budgets the
solver must give the same rn, witness, nodes, prune counters, completion
flag, lower bound and incumbents, and the same start representatives.
Without the remote-vertex term (``xi=False``) the reference is the search
before that term, whose full searches must reach the same answers.  Without
the reversal rule (``reversal=False``) it is the search before that rule,
whose full searches must reach the same rn, and so it is without the case
split on the last vertex (``split=False``).
"""

import random

import pytest

import oracles
from oracles import random_tree, star
from radiotree import (
    build_tree,
    distance_matrix,
    exact_rn,
    gen_caterpillar,
    gen_levelwise,
    gen_lmh,
    gen_path,
    gen_random_two_branch,
    greedy_label_from_order,
    metrics,
    order_of,
)
from radiotree import solver
from radiotree.solver import LIMIT_CHECK_INTERVAL

# --- the search as it was, kept as a snapshot ---------------------------------


def search_reference(ref, starts, twin_prev, ub, ub_order, floor, max_nodes, by_label=True,
                     xi=True, reversal=True, split=True):
    """With ``by_label``, the candidates that pass the cuts are expanded in
    increasing ``(req, id)``; without it, in id order, which expands the
    nodes the search once did.  Either way every candidate is cut before the
    first expansion and again before its own, so the prune counters of the
    id order are not the old ones.  With ``xi``, on a two-branch tree of
    diameter at least 2, the suffix cut adds ``c * ceil(k/2)`` for the ``k``
    free positions (a remote vertex with no center beside it) that every
    order of the unplaced rest leaves; without it, the cut is the basic
    bound alone, as the search once was.  With ``reversal``, the suffix cut
    takes the last vertex to be no shallower than the first vertex of the
    order (the candidate itself at depth 0); without it, only no shallower
    than the least level of the unplaced rest.  With ``split``, the suffix
    cut takes the smaller of two cases: a last vertex that is not remote
    leaves one more free position, and a remote one lies no shallower than
    the least remote level; without it, the last position is never free."""
    p, dist, diam, level, eps = ref.p, ref.d, ref.diameter, ref.level, ref.epsilon
    remote, centers = ref.remote, ref.centers
    least_remote = min((level[v] for v in remote), default=0)
    c = 1 if len(centers) == 1 and diam % 2 == 0 else 2
    with_xi = xi and ref.two_branch and diam >= 2
    best = ub
    best_order = None if ub_order is None else list(ub_order)
    improvements = []
    nodes = 0
    pruned_twin = 0
    pruned_remaining = 0
    pruned_suffix = 0
    halted = limited = False
    node_limit = float("inf") if max_nodes is None else max_nodes
    next_check = min(LIMIT_CHECK_INTERVAL, node_limit)
    step = diam + eps
    if best <= floor:
        return (best, best_order, 0, {"twin": 0, "remaining": 0, "suffix_bound": 0}, True,
                improvements)

    order = [0] * p
    placed = [False] * p + [True]
    req = [0] * p
    saved = [[0] * p for _ in range(p)]
    unplaced_level_sum = sum(level)
    unplaced_remote, unplaced_centers = len(remote), len(centers)
    unplaced_at_level = [0] * (max(level) + 1)
    for lv in level:
        unplaced_at_level[lv] += 1

    def extend(depth, span):
        nonlocal best, best_order, nodes, pruned_twin, pruned_remaining, pruned_suffix
        nonlocal halted, limited, next_check, unplaced_level_sum
        nonlocal unplaced_remote, unplaced_centers
        if depth == p:
            if span < best:
                best = span
                best_order = order[:p]
                improvements.append((nodes, span))
                halted = span <= floor
            return
        remaining_after = p - depth - 1
        if remaining_after:
            lo1 = 0
            while not unplaced_at_level[lo1]:
                lo1 += 1
            lo2 = lo1
            if unplaced_at_level[lo1] == 1:
                lo2 += 1
                while not unplaced_at_level[lo2]:
                    lo2 += 1
            suffix_base = remaining_after * step - 2 * unplaced_level_sum

        def free(u):
            # the remote vertices of R, less the last position and the
            # positions beside a center: u, if a center, and each center of R
            return (unplaced_remote - (u in remote) - 1 - (u in centers)
                    - 2 * (unplaced_centers - (u in centers)))

        def xi_term(k):
            return c * -(-k // 2) if with_xi and k > 0 else 0

        def cut(u):
            nonlocal pruned_remaining, pruned_suffix
            lab = req[u]
            if lab + remaining_after >= best:
                pruned_remaining += 1
                return True
            if not remaining_after:
                return False
            lu = level[u]
            last = lo2 if lu == lo1 else lo1  # min L(R)
            if reversal:
                last = max(last, level[order[0]] if depth else lu)
            k = free(u)
            ends = last + xi_term(k)
            if split:
                # the last position is free unless its vertex is remote, and
                # then that vertex lies at the least remote level or deeper
                ends = min(last + xi_term(k + 1), max(last, least_remote) + xi_term(k))
            if lab + suffix_base + lu + ends >= best:
                pruned_suffix += 1
                return True
            return False

        survivors = []
        for u in (starts if depth == 0 else range(p)):
            if placed[u]:
                continue
            if not placed[twin_prev[u]]:
                pruned_twin += 1
                continue
            if not cut(u):
                survivors.append(u)
        if by_label:
            survivors.sort(key=lambda u: (req[u], u))
        for i, u in enumerate(survivors):
            if i and cut(u):
                continue
            lab = req[u]
            lu = level[u]
            if nodes == next_check:
                if nodes == node_limit:
                    halted = limited = True
                    return
                next_check = min(nodes + LIMIT_CHECK_INTERVAL, node_limit)
            nodes += 1
            order[depth] = u
            placed[u] = True
            unplaced_at_level[lu] -= 1
            unplaced_level_sum -= lu
            unplaced_remote -= u in remote
            unplaced_centers -= u in centers
            snap = saved[depth]
            du = dist[u]
            for v in range(p):
                snap[v] = req[v]
                if not placed[v]:
                    need = lab + diam + 1 - du[v]
                    if need > req[v]:
                        req[v] = need
            extend(depth + 1, lab)
            placed[u] = False
            unplaced_at_level[lu] += 1
            unplaced_level_sum += lu
            unplaced_remote += u in remote
            unplaced_centers += u in centers
            for v in range(p):
                req[v] = snap[v]
            if halted:
                return

    extend(0, 0)
    pruned = {"twin": pruned_twin, "remaining": pruned_remaining,
              "suffix_bound": pruned_suffix}
    return best, best_order, nodes, pruned, not limited, improvements


def exact_rn_reference(tree, max_nodes, by_label=True, xi=True, reversal=True, split=True):
    """(rn, witness labels, nodes, pruned, completed, lower_bound, incumbents)."""
    ref = oracles.Ref(tree)
    seed = oracles.greedy_labels(ref, tuple(range(tree.p)))
    seed_span, seed_order = max(seed.values()), sorted(seed, key=seed.get)
    starts = oracles.start_representatives(tree)
    twin_prev = oracles.twin_prev(tree)
    proven, target = ref.probe_bounds

    def search(ub, ub_order, floor, budget):
        return search_reference(ref, starts, twin_prev, ub, ub_order, floor, budget, by_label,
                                xi, reversal, split)

    best, best_order, nodes, pruned, completed, found = search(
        target + 1, None, proven, max_nodes)
    lower_bound = proven
    if completed and best_order is None:
        lower_bound = target + 1
        budget = None if max_nodes is None else max_nodes - nodes
        best, best_order, more, more_pruned, completed, found = search(
            seed_span, seed_order, lower_bound, budget)
        found = [(nodes + at, span) for at, span in found]
        nodes += more
        pruned = {rule: pruned[rule] + more_pruned[rule] for rule in pruned}
    elif not completed and (best_order is None or seed_span < best):
        best, best_order = seed_span, seed_order
    if completed:
        lower_bound = best
    labels = oracles.greedy_labels(ref, tuple(best_order))
    incumbents = [(0, seed_span)]
    for at, span in found:
        if span < incumbents[-1][1]:
            incumbents.append((at, span))
    return best, labels, nodes, pruned, completed, lower_bound, tuple(incumbents)


# --- the grid -----------------------------------------------------------------


def solver_grid():
    trees = []
    for p in range(2, 12):
        rng = random.Random(f"solver-grid/{p}")
        trees += [random_tree(p, rng) for _ in range(25)]
    trees += [gen_random_two_branch(n, seed).tree
              for n in range(4, 12) for seed in range(6)]
    trees += [star(k) for k in range(1, 11)]
    trees += [inst.tree for inst in (
        gen_path(9), gen_path(10), gen_caterpillar(5, 1), gen_caterpillar(6, 1),
        gen_caterpillar(4, 2), gen_levelwise(2, (2, 4)), gen_lmh(2, 2, 2))]
    return trees


def outcome(tree, max_nodes):
    res = exact_rn(tree, max_nodes=max_nodes, timeout_s=None)
    return (res.rn, res.witness.labels, res.stats.nodes, dict(res.stats.pruned),
            res.stats.completed, res.stats.lower_bound, res.stats.incumbents)


class TestSearchAgainstReference:
    @pytest.mark.parametrize("max_nodes", [None, 50, 7, 1])
    def test_seeded_grid(self, max_nodes):
        for tree in solver_grid():
            assert outcome(tree, max_nodes) == exact_rn_reference(tree, max_nodes)

    @pytest.mark.parametrize("max_nodes", [None, 10_000, 100])
    def test_p12_tree_above_its_improved_bound(self, max_nodes):
        # rn 45 = improved bound + 3, 19,579 nodes unbounded (36,775 before
        # the case split on the last vertex, 55,645 before the reversal rule
        # as well, and 90,537 in id order): both phases run
        tree = gen_random_two_branch(12, 1).tree
        assert outcome(tree, max_nodes) == exact_rn_reference(tree, max_nodes)

    def test_label_order_keeps_the_id_order_answers(self):
        # the candidate order changes nodes, prunes and witness, never what
        # a completed search proves
        for tree in solver_grid():
            by_label = exact_rn_reference(tree, None)
            by_id = exact_rn_reference(tree, None, by_label=False)
            rn, _, _, _, completed, lower_bound, _ = by_label
            assert (rn, completed, lower_bound) == (by_id[0], by_id[4], by_id[5])
            assert completed and lower_bound == rn

    def test_xi_term_keeps_the_answers(self):
        # the remote-vertex term only cuts subtrees no better than the best
        # span so far: a full search finds the same improvements in fewer
        # or as many nodes (without the reversal rule, which may cut a
        # better leaf that ends shallower than it starts)
        fewer = 0
        for tree in solver_grid():
            rn, labels, nodes, _, completed, _, found = exact_rn_reference(
                tree, None, reversal=False)
            rn0, labels0, nodes0, _, completed0, _, found0 = exact_rn_reference(
                tree, None, xi=False, reversal=False)
            assert (rn, labels, completed) == (rn0, labels0, completed0)
            assert [s for _, s in found] == [s for _, s in found0]
            assert nodes <= nodes0
            fewer += nodes < nodes0
        assert fewer > 0

    def test_reversal_rule_keeps_the_answers(self):
        # the reversal rule cuts only subtrees whose orders that end at least
        # as deep as they start are no better than the best span so far, and
        # some optimal order is one of those: rn is kept, the witness may
        # change, and nodes fall in total (they rise on two grid trees)
        nodes = nodes0 = fewer = 0
        for tree in solver_grid():
            rn, labels, n, _, completed, lower_bound, _ = exact_rn_reference(tree, None)
            rn0, _, n0, _, completed0, lower_bound0, _ = exact_rn_reference(
                tree, None, reversal=False)
            assert (rn, completed, lower_bound) == (rn0, completed0, lower_bound0)
            assert completed and lower_bound == rn
            assert oracles.radio_check(oracles.Ref(tree), labels) == (True, None)
            assert max(labels.values()) == rn
            nodes, nodes0, fewer = nodes + n, nodes0 + n0, fewer + (n < n0)
        assert nodes < nodes0 and fewer > 0

    def test_split_rule_keeps_the_answers(self):
        # the case split on the last vertex raises the suffix bound only
        # where the larger bound is proven: rn, completion and lower bound
        # are kept, and nodes fall in total
        nodes = nodes0 = 0
        for tree in solver_grid():
            rn, _, n, _, completed, lower_bound, _ = exact_rn_reference(tree, None)
            rn0, _, n0, _, completed0, lower_bound0, _ = exact_rn_reference(
                tree, None, split=False)
            assert (rn, completed, lower_bound) == (rn0, completed0, lower_bound0)
            nodes, nodes0 = nodes + n, nodes0 + n0
        assert nodes < nodes0

    @pytest.mark.parametrize("max_nodes", [None, 7])
    def test_witness_is_the_greedy_completion_of_its_order(self, max_nodes):
        # the search keeps the labels it placed, which are the greedy
        # completion of the order they induce
        for tree in solver_grid():
            witness = exact_rn(tree, max_nodes=max_nodes, timeout_s=None).witness
            m = metrics(tree)
            assert witness == greedy_label_from_order(m, order_of(witness))

    def test_identity_seed_is_the_greedy_completion_of_the_identity_order(self):
        # exact_rn reads its seed off the distance rows; the greedy completion
        # of an order is unique, so it is greedy_label_from_order's
        for tree in solver_grid():
            m = metrics(tree)
            seed = solver._identity_labels(distance_matrix(tree), m.diameter)
            assert dict(enumerate(seed)) == greedy_label_from_order(m, range(tree.p)).labels

    def test_grid_reaches_every_phase(self):
        # at a budget of 50 nodes, some searches settle and some stop, each
        # in the probe and in the downward search
        phases = set()
        for tree in solver_grid():
            rn, _, _, _, completed, lower_bound, _ = exact_rn_reference(tree, 50)
            proven, target = oracles.Ref(tree).probe_bounds
            in_probe = rn <= target if completed else lower_bound == proven
            phases.add((completed, in_probe))
        assert phases == {(True, True), (True, False), (False, True), (False, False)}


class TestStartRepresentatives:
    def check(self, tree):
        reps = solver._start_representatives(metrics(tree))
        assert reps == oracles.start_representatives(tree)
        return reps

    def test_random_trees(self):
        rng = random.Random(5)
        for p in range(2, 61):
            for _ in range(5):
                self.check(random_tree(p, rng))

    @pytest.mark.parametrize("inst", [
        gen_caterpillar(5, 2), gen_caterpillar(6, 3), gen_caterpillar(7, 1),
        gen_levelwise(2, (2, 3)), gen_levelwise(2, (2, 3, 2)), gen_levelwise(1, (3, 2)),
        gen_lmh(2, 3, 3), gen_lmh(1, 2, 4), gen_path(8), gen_path(11), gen_path(30),
    ], ids=lambda inst: inst.name)
    def test_family_trees(self, inst):
        self.check(inst.tree)

    def test_one_and_two_centers_both_covered(self):
        sizes = {len(metrics(inst.tree).weight_centers)
                 for inst in (gen_caterpillar(5, 2), gen_levelwise(2, (2, 3)))}
        assert sizes == {1, 2}

    @pytest.mark.parametrize("edges, reps", [
        # a path 0-2-3 below center 0, leaves 4 and 5 on center 1: the
        # halves differ, so both centers are returned
        ([(0, 1), (0, 2), (2, 3), (1, 4), (1, 5)], [0, 1, 2, 3, 4]),
        # P_6 numbered from the middle: the halves are mirror images
        ([(0, 1), (0, 2), (2, 3), (1, 4), (4, 5)], [0, 2, 3]),
    ])
    def test_bicentral_trees(self, edges, reps):
        tree = build_tree(edges)
        assert metrics(tree).weight_centers == {0, 1}
        assert self.check(tree) == reps
