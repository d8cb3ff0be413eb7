import itertools
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import brute_force_rn, double_broom, path, random_tree, star
from radiotree import (
    OrderTooLarge,
    build_tree,
    exact_rn,
    gen_caterpillar,
    gen_levelwise,
    gen_path,
    gen_random_two_branch,
    lower_bound_basic,
    lower_bound_improved,
    metrics,
    rn_caterpillar,
    rn_path,
    verify_labelling,
)
from radiotree import solver


def spider(legs):
    """Legs of the given lengths joined at vertex 0."""
    edges, nxt = [], 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return build_tree(edges)


class TestKnownValues:
    def test_p3(self):
        # P_3's rn 3 lies below its improved bound 4: the probe looks for a
        # span <= 4, finds 3 at the proven basic bound and stops there
        assert solver._probe_bounds(metrics(path(3))) == (3, 4)
        res = exact_rn(path(3))
        assert res.rn == 3 and res.stats.completed and res.stats.lower_bound == 3
        res = exact_rn(path(3), max_nodes=1)
        assert not res.stats.completed and res.stats.lower_bound == 3 <= res.rn

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

    def test_broken_witness_is_an_assertion(self, monkeypatch):
        # the witness re-check guards against a defect in the search: a
        # witness that fails verification is a bug, not an input error
        monkeypatch.setattr(solver, "verify_labelling", lambda tree, lab: (False, (0, 1)))
        with pytest.raises(AssertionError, match="solver invariant broken"):
            exact_rn(path(5))

    def test_order_too_large(self):
        # no vertex count is refused: P_13 is searched, and completes, under
        # the default limits
        res = exact_rn(path(13))
        assert res.stats.completed
        assert res.rn == res.stats.lower_bound == 74 == rn_path(13)

    def test_order_beyond_recursion_depth(self):
        # the search recurses once per placed vertex, so such trees are
        # refused up front
        limit = sys.getrecursionlimit() - solver.STACK_HEADROOM
        with pytest.raises(OrderTooLarge):
            exact_rn(path(limit + 1))

    def test_deepest_allowed_search(self):
        # the twin rule places a star's leaves in one order, so the search
        # dives to the full depth at once
        limit = sys.getrecursionlimit() - solver.STACK_HEADROOM
        res = exact_rn(star(limit - 1))
        assert res.stats.completed and res.rn == limit

    def test_start_representatives_on_a_long_path(self):
        # one walk over the center-rooted tree, no recursion: P_5000 has two
        # centers, 2499 and 2500, and v and 4999 - v share an orbit
        assert solver._start_representatives(metrics(path(5000))) == list(range(2500))

    def test_completed_flag(self):
        stats = exact_rn(path(5)).stats
        assert stats.completed
        assert stats.lower_bound == 10

    def test_timeout_returns_incumbent(self):
        # rn 62 = improved bound + 2 after 119,358 nodes: the clock, read every
        # 4,096 nodes, has 29 chances to stop the search before it completes
        res = exact_rn(gen_random_two_branch(13, 5).tree, timeout_s=0.01)
        assert not res.stats.completed
        assert res.rn >= 62  # incumbent is an upper bound only

    def test_node_budget_returns_incumbent(self):
        tree = gen_random_two_branch(12, 1).tree
        res = exact_rn(tree, max_nodes=10_000)
        assert not res.stats.completed
        assert res.rn >= 45
        assert res.stats.nodes == 10_000
        # the probe failed inside the budget: rn >= improved bound + 1 is proven
        assert res.stats.lower_bound == lower_bound_improved(metrics(tree)) + 1 <= 45
        again = exact_rn(tree, max_nodes=10_000)  # a budget stop is deterministic
        assert again.witness.labels == res.witness.labels
        assert again.stats.pruned == res.stats.pruned

    def test_budget_inside_probe_proves_only_basic_bound(self):
        tree = gen_random_two_branch(12, 1).tree
        res = exact_rn(tree, max_nodes=100)
        assert not res.stats.completed and res.stats.nodes == 100
        assert res.stats.lower_bound == lower_bound_basic(metrics(tree)) <= 45 <= res.rn
        ok, _ = verify_labelling(tree, res.witness)
        assert ok and res.witness.span == res.rn

    def test_p13_within_node_budget(self):
        # the probe proves P_13 in 143 nodes (5,277 without the case split
        # on the last vertex, 11,834 without the reversal rule as well, about
        # 22k without the remote-vertex term either); a downward search alone
        # needs far more (543,615 in id order)
        res = exact_rn(path(13), max_nodes=100_000)
        assert res.stats.completed
        assert res.rn == res.stats.lower_bound == 74 == rn_path(13)

    def test_determinism(self):
        a = exact_rn(path(8))
        b = exact_rn(path(8))
        assert a.rn == b.rn
        assert a.stats.nodes == b.stats.nodes
        assert a.witness.labels == b.witness.labels


class TestLongDives:
    # tight trees: the first least-label-first dive reaches the closed form,
    # which the probe proves, so the search takes about p nodes
    def test_path_700(self):
        res = exact_rn(path(700))
        assert res.stats.completed and res.stats.nodes == 961
        assert res.rn == res.stats.lower_bound == rn_path(700) == 244_301

    def test_caterpillar_5_150(self):
        res = exact_rn(gen_caterpillar(5, 150).tree)
        assert res.stats.completed and res.stats.nodes == 605
        assert res.rn == res.stats.lower_bound == rn_caterpillar(5, 150) == 1_367


def probe_outcome(tree, rn):
    """Which phases of the bound-first search decided ``rn``."""
    ref = oracles.Ref(tree)
    kind = "two-branch" if ref.two_branch else "other"
    return kind, "probe" if rn <= ref.probe_bounds[1] else "fallback"


class TestBruteForceReference:
    # the smallest two-branch tree whose rn (22) exceeds the improved bound (20)
    LOOSE_TWO_BRANCH = [(0, 1), (0, 5), (1, 2), (2, 3), (2, 4), (5, 6), (6, 7)]

    def check(self, trees):
        outcomes = set()
        for tree in trees:
            rn = exact_rn(tree).rn
            assert rn == brute_force_rn(tree)
            outcomes.add(probe_outcome(tree, rn))
        return outcomes

    def test_random_trees(self):
        # arbitrary trees, half of them not two-branch, and uniform Pruefer
        # trees up to p = 8 that are not two-branch (the reversal rule holds
        # on every tree)
        rng = random.Random(11)
        trees = []
        for _ in range(30):
            trees.append(random_tree(rng.randrange(4, 8), rng))
        uniform = [oracles.pruefer_tree(p, f"not-two-branch/{p}/{seed}")
                   for p in range(4, 9) for seed in range(8)]
        uniform = [t for t in uniform if not oracles.Ref(t).two_branch]
        assert len(uniform) >= 25 and max(t.p for t in uniform) == 8
        outcomes = self.check(trees + uniform)
        assert {("two-branch", "probe"), ("other", "probe"),
                ("other", "fallback")} <= outcomes

    def test_random_two_branch_trees(self):
        trees = [gen_random_two_branch(n, seed).tree
                 for n in range(4, 8) for seed in range(4)]
        trees.append(build_tree(self.LOOSE_TWO_BRANCH))
        outcomes = self.check(trees)
        assert {("two-branch", "probe"), ("two-branch", "fallback")} <= outcomes

    def test_twin_rich_trees(self):
        # many leaves sharing a neighbour: where the twin rule skips most
        trees = [star(k) for k in range(2, 7)]
        trees += [gen_caterpillar(3, 1).tree, gen_caterpillar(3, 2).tree,
                  gen_caterpillar(4, 2).tree]
        trees += [spider(legs) for legs in ((1, 1, 2), (1, 1, 1, 2), (1, 1, 3),
                                            (1, 1, 2, 2))]
        trees += [double_broom(2, 2, 2), double_broom(2, 3, 2),
                  double_broom(3, 2, 3)]
        assert all(t.p <= 8 for t in trees)
        assert any(exact_rn(t).stats.pruned["twin"] > 0 for t in trees)
        self.check(trees)


def search_inputs(tree):
    """The arguments :func:`solver._search` gets from ``exact_rn``, less the
    incumbent and limits, with the twin table separate."""
    m = metrics(tree)
    args = (tree.p, oracles.distances(tree), m.diameter, m.level, m.epsilon,
            solver._xi_cuts(m.level, m.diameter, m.epsilon, m.two_branch),
            solver._start_representatives(m))
    return m, args, solver._twin_prev(tree.adjacency)


# random trees on 2..9 vertices: vertex i hangs from some j < i
_trees = st.integers(2, 9).flatmap(
    lambda n: st.tuples(*[st.integers(0, i - 1) for i in range(1, n)])
).map(lambda parents: build_tree([(i + 1, j) for i, j in enumerate(parents)]))


class TestTwinRule:
    @given(tree=_trees)
    @settings(max_examples=50, deadline=None)
    def test_same_result_as_without_the_rule(self, tree):
        m, args, twin_prev = search_inputs(tree)
        no_twins = [-1] * tree.p
        ref = oracles.Ref(tree)
        proven, target = ref.probe_bounds
        seed_span = max(oracles.greedy_labels(ref, tuple(range(tree.p))).values())
        # exact_rn's probe, and a downward search with no floor to stop at
        for ub, floor in ((target + 1, proven), (seed_span, 0)):
            with_rule = solver._search(*args, twin_prev, ub, floor, None, None)
            without = solver._search(*args, no_twins, ub, floor, None, None)
            assert with_rule[:2] == without[:2]
            assert [s for _, s in with_rule[5]] == [s for _, s in without[5]]
            assert with_rule[2] <= without[2]
            assert with_rule[4] and without[4]
            assert without[3]["twin"] == 0

    def test_twin_prev(self):
        # leaves 1, 2, 3 hang from 0, leaves 5, 6 from 4; 4 is not a leaf
        tree = build_tree([(0, 1), (0, 2), (0, 3), (0, 4), (4, 5), (4, 6)])
        assert solver._twin_prev(tree.adjacency) == [-1, -1, 1, 2, -1, -1, 5]
        assert solver._twin_prev(path(2).adjacency) == [-1, -1]


def suffix_bounds(ref, seq, reversal=True):
    """``(bound, term, lift, gain)`` for each candidate ``seq[t]``, t < p - 1,
    after the prefix ``seq[:t]``: the solver's ``suffix_bound``, the
    remote-vertex term read from :func:`solver._xi_cuts`, the reversal
    rule's lift, ``max(min L(R), L(seq[0])) - min L(R)``, of the last
    vertex's least level, and what the case split on the last vertex adds.
    The split takes the smaller of two cases: a last vertex that is not
    remote frees one more position (the term of ``b + 1``), and a remote one
    lies at level ``thr`` or deeper.  With ``reversal`` the bound holds for
    orders whose last vertex is at least as deep as the first; without it
    (no lift), for every order.  The candidate's label is its greedy label
    after the prefix; everything else comes from the definitions in
    ``oracles.Ref``."""
    cuts, thr, b, shift = solver._xi_cuts(ref.level, ref.diameter, ref.epsilon,
                                          ref.two_branch)
    f, level = oracles.greedy_labels(ref, seq), ref.level
    rest = sum(level)  # sum L(R), the vertices after the candidate
    for t, u in enumerate(seq[:-1]):
        lu = level[u]
        rest -= lu
        term = cuts[b][lu] - lu
        least = min(level[v] for v in seq[t + 1:])
        last = max(least, level[seq[0]]) if reversal else least
        ends = min(cuts[b + 1][lu] - lu + last, term + max(last, thr))
        yield (f[u] + (len(seq) - 1 - t) * (ref.diameter + ref.epsilon) - lu - 2 * rest
               + ends), term, last - least, ends - term - last
        b += shift[lu]


class TestSuffixBound:
    """The suffix bound with the remote-vertex term and the case split on the
    last vertex never exceeds the span of the greedy completion it bounds,
    and with the reversal lift it does not either when the order ends at
    least as deep as it starts: on two-branch trees with one center and even
    or odd diameter and with two centers, and on other trees."""

    @staticmethod
    def check(tree, orders):
        """``(kind, firing, lifting, splitting)``: kind is (|W|, diam % 2);
        firing, lifting and splitting count the checks where the
        remote-vertex term, the reversal lift and the split's gain are
        positive.  Every order is checked without the lift; with the lift,
        an order that ends shallower than it starts is checked reversed, as
        the search would reach it.  The split only adds to the bound, so the
        bound without it holds wherever this one does."""
        ref = oracles.Ref(tree)
        if ref.two_branch:
            # a remote vertex lies at level thr or deeper, and one lies at thr
            thr = solver._xi_cuts(ref.level, ref.diameter, ref.epsilon, True)[1]
            assert thr == min(ref.level[v] for v in ref.remote)
        firing = lifting = splitting = 0
        for seq in orders:
            span = max(oracles.greedy_labels(ref, seq).values())
            # every order: the bound without the lift
            for bound, term, lift, gain in suffix_bounds(ref, seq, reversal=False):
                assert not lift and bound <= span, (tree, seq)
                firing += term > 0
                splitting += gain > 0
            # with the lift: the order as the search would reach it
            if ref.level[seq[-1]] < ref.level[seq[0]]:
                seq = seq[::-1]
                span = max(oracles.greedy_labels(ref, seq).values())
            for bound, _, lift, gain in suffix_bounds(ref, seq):
                assert bound <= span, (tree, seq)
                lifting += lift > 0
                splitting += gain > 0
        return (len(ref.centers), ref.diameter % 2), firing, lifting, splitting

    def test_random_orders(self):
        rng = random.Random(23)
        firing, lifting, splitting = {}, {}, {}
        for n in range(8, 16):
            for seed in range(6):
                tree = gen_random_two_branch(n, seed).tree
                orders = [tuple(rng.sample(range(n), n)) for _ in range(100)]
                kind, fired, lifted, split = self.check(tree, orders)
                firing[kind] = firing.get(kind, 0) + fired
                lifting[kind] = lifting.get(kind, 0) + lifted
                splitting[kind] = splitting.get(kind, 0) + split
        assert set(firing) == {(1, 0), (1, 1), (2, 0), (2, 1)}
        assert all(firing.values()) and all(lifting.values()) and all(splitting.values())

    def test_every_order_up_to_seven_vertices(self):
        # (P_4 and the other two-branch trees on 4 vertices never fire the
        # remote-vertex term)
        kinds = set()
        for n in range(5, 8):
            for seed in range(2):
                tree = gen_random_two_branch(n, seed).tree
                kind, fired, lifted, split = self.check(tree, itertools.permutations(range(n)))
                assert fired and lifted and split
                kinds.add(kind)
        assert kinds == {(1, 0), (2, 1)}

    def test_trees_that_are_not_two_branch(self):
        # the reversal lift holds on any tree; here it is the only term
        rng = random.Random(31)
        kinds, lifting = set(), 0
        trees = [spider((1, 2, 2)), spider((2, 2, 3)), spider((1, 1, 2, 3)),
                 double_broom(2, 3, 2)]
        trees += [oracles.pruefer_tree(n, seed) for n in range(5, 12) for seed in range(8)]
        for tree in trees:
            if oracles.Ref(tree).two_branch:
                continue
            n = tree.p
            orders = (itertools.permutations(range(n)) if n <= 7 else
                      [tuple(rng.sample(range(n), n)) for _ in range(60)])
            kind, fired, lifted, split = self.check(tree, orders)
            assert not fired and not split
            kinds.add(kind)
            lifting += lifted
        assert kinds == {(1, 0), (1, 1), (2, 0), (2, 1)}
        assert lifting

    def test_no_term_off_two_branch_trees(self):
        for tree in (star(4), spider((1, 2, 2)), path(2)):
            m = metrics(tree)
            cuts, thr, b0, shift = solver._xi_cuts(m.level, m.diameter, m.epsilon,
                                                   m.two_branch)
            assert cuts == [list(range(max(m.level) + 1))] * 2
            assert thr == b0 == 0 and not any(shift)


class TestIncumbents:
    @staticmethod
    def check(tree, max_nodes=None):
        res = exact_rn(tree, max_nodes=max_nodes, timeout_s=None)
        inc = res.stats.incumbents
        seed = oracles.greedy_labels(oracles.Ref(tree), tuple(range(tree.p)))
        assert inc[0] == (0, max(seed.values()))
        assert all(a[0] <= b[0] and a[1] > b[1] for a, b in zip(inc, inc[1:]))
        assert inc[-1][0] <= res.stats.nodes
        assert inc[-1][1] == res.rn
        return res

    def test_history_on_random_two_branch_trees(self):
        for n in range(4, 11):
            for seed in range(4):
                assert self.check(gen_random_two_branch(n, seed).tree).stats.completed

    def test_history_under_node_budgets(self):
        # rn 45: the probe fails, so the later incumbents come from the
        # downward search (test_solver_reference.py pins their node counts)
        tree = gen_random_two_branch(12, 1).tree
        for max_nodes in (100, 10_000, None):
            self.check(tree, max_nodes)
        inc = exact_rn(tree).stats.incumbents
        assert len(inc) > 2 and inc[-1][1] == 45

    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_even_path_dive_reaches_the_improved_bound(self, n):
        # rn(P_n) is the improved bound for even n; the least-label-first dive
        # finds an order there within 2n nodes and the probe ends soon after
        # (in id order P_8, P_10 and P_12 took 35, 194 and 1,817 nodes)
        res = self.check(path(n))
        assert res.rn == lower_bound_improved(metrics(path(n)))
        assert res.stats.incumbents[1][0] <= res.stats.nodes <= 2 * n


class TestPruneCounters:
    def test_both_rules_fire_on_p10(self):
        stats = exact_rn(path(10)).stats
        assert set(stats.pruned) == {"twin", "remaining", "suffix_bound"}
        assert stats.pruned["remaining"] > 0
        assert stats.pruned["suffix_bound"] > 0
        # rn equals the improved bound, so the probe settles it (12 nodes)
        assert stats.nodes <= 1_000

    def test_twin_rule_fires_on_levelwise_tree(self):
        # T^2_{2,4}: two groups of three twin leaves; 11,330 nodes without the rule
        stats = exact_rn(gen_levelwise(2, [2, 4]).tree).stats
        assert stats.completed
        assert stats.pruned["twin"] > 0
        assert stats.nodes <= 1_500


class TestAdapters:
    def test_exact_matches_formula(self):
        inst = gen_path(7)
        assert exact_rn(inst.tree).rn == inst.closed_form_rn == rn_path(7)


class TestMonotonicity:
    def test_adding_a_leaf_never_decreases_rn(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randrange(3, 8)
            edges = [(i, rng.randrange(i)) for i in range(1, n)]
            tree = build_tree(edges)
            base = exact_rn(tree).rn
            attach = rng.randrange(n)
            grown = build_tree(edges + [(attach, n)])
            assert exact_rn(grown).rn >= base
