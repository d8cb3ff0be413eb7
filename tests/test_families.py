from math import prod

import pytest

from radiotree import (
    BadParams,
    OutOfRange,
    UnsupportedParams,
    certify_tightness,
    exact_rn,
    gen_caterpillar,
    gen_levelwise,
    gen_lmh,
    gen_path,
    gen_random_two_branch,
    lower_bound_improved,
    metrics,
    proof_order_caterpillar,
    proof_order_levelwise,
    proof_order_lmh,
    rn_binary,
    rn_caterpillar,
    rn_formula,
    rn_levelwise,
    rn_lmh,
    rn_path,
)

CAT_GRID = [(n, k) for n in range(3, 13) for k in range(1, 5)]
LEVEL_GRID = [
    (z, degs)
    for z in (1, 2)
    for degs in [(2, 3), (2, 4), (2, 5), (2, 3, 3), (2, 4, 4), (2, 3, 4), (2, 3, 3, 3)]
]
LMH_GRID = [(z, m, h) for z in (1, 2) for m in range(2, 6) for h in range(2, 5)]

# certifying orders that an alternating-branch backtracking search returned
# for the two ranges now built directly (C(4,k) and even-n C(n,1))
SEARCHED_CAT_ORDERS = {
    (4, 1): "v_2 v_{4,1} v_1 v_4 v_{1,1} v_3",
    (4, 2): "v_2 v_{4,1} v_1 v_4 v_{1,1} v_{4,2} v_{1,2} v_3",
    (4, 3): "v_2 v_{4,1} v_1 v_4 v_{1,1} v_{4,2} v_{1,2} v_{4,3} v_{1,3} v_3",
    (4, 4): "v_2 v_{4,1} v_1 v_4 v_{1,1} v_{4,2} v_{1,2} v_{4,3} v_{1,3} v_{4,4} v_{1,4} v_3",
    (6, 1): "v_3 v_{6,1} v_1 v_5 v_2 v_6 v_{2,1} v_{5,1} v_{1,1} v_4",
    (8, 1): "v_4 v_{8,1} v_1 v_6 v_2 v_7 v_3 v_8 v_{3,1} v_{6,1} v_{1,1} v_5",
    (10, 1): "v_5 v_{10,1} v_1 v_7 v_2 v_8 v_3 v_9 v_4 v_10 v_{4,1} v_{7,1} v_{1,1} v_6",
    (12, 1): "v_6 v_{12,1} v_1 v_8 v_2 v_9 v_3 v_10 v_4 v_11 v_5 v_12 "
             "v_{5,1} v_{8,1} v_{1,1} v_7",
    (14, 1): "v_7 v_{14,1} v_1 v_9 v_2 v_10 v_3 v_11 v_4 v_12 v_5 v_13 v_6 v_14 "
             "v_{6,1} v_{9,1} v_{1,1} v_8",
}


class TestPaths:
    def test_formula_values(self):
        assert [rn_path(n) for n in range(4, 11)] == [5, 10, 13, 20, 25, 34, 41]

    def test_small_n_no_closed_form(self):
        assert gen_path(3).closed_form_rn is None
        with pytest.raises(OutOfRange):
            rn_path(3)

    def test_structure(self):
        inst = gen_path(9)
        assert inst.tree.p == 9
        assert inst.closed_form_rn == 34

    def test_single_vertex(self):
        assert gen_path(1).tree.p == 1


class TestCaterpillarGenerator:
    def test_c31_is_five_path(self):
        inst = gen_caterpillar(3, 1)
        assert inst.tree.p == 5
        assert metrics(inst.tree).diameter == 4
        assert inst.closed_form_rn == 10

    def test_c51(self):
        inst = gen_caterpillar(5, 1)
        assert inst.tree.p == 9
        assert metrics(inst.tree).diameter == 6
        assert inst.closed_form_rn == 26

    def test_c63(self):
        inst = gen_caterpillar(6, 3)
        assert inst.tree.p == 18
        assert metrics(inst.tree).xi == 4
        assert inst.closed_form_rn == 51

    def test_bad_params(self):
        with pytest.raises(BadParams):
            gen_caterpillar(2, 1)
        with pytest.raises(BadParams):
            gen_caterpillar(5, 0)

    @pytest.mark.parametrize("n,k", CAT_GRID)
    def test_printed_structure_formulas(self, n, k):
        inst = gen_caterpillar(n, k)
        m = metrics(inst.tree)
        assert inst.tree.p == n + 2 * k * min(2, (n - 1) // 2)
        if n in (3, 4):
            expected_level = 2 * (1 + 2 * k)
        elif n % 2 == 1:
            expected_level = (n * n - 1) // 4 + (n + 5) * k
        else:
            expected_level = n * (n - 2) // 4 + (n + 4) * k
        assert m.total_level == expected_level
        assert m.xi == (k if n % 2 == 1 else 2 * (k - 1))

    def test_n4_closed_form_is_4k_plus_9(self):
        for k in (1, 2, 3):
            assert rn_caterpillar(4, k) == 4 * k + 9


class TestCaterpillarOrders:
    @pytest.mark.parametrize("n,k", CAT_GRID)
    def test_orders_certify_to_closed_form(self, n, k):
        inst = gen_caterpillar(n, k)
        order = proof_order_caterpillar(inst)
        lab = certify_tightness(metrics(inst.tree), order)
        assert lab.span == inst.closed_form_rn

    def test_c31_matches_published_order(self):
        inst = gen_caterpillar(3, 1)
        nm = inst.vertex_names
        expected = tuple(nm[s] for s in ["v_2", "v_{3,1}", "v_{1,1}", "v_3", "v_1"])
        assert proof_order_caterpillar(inst) == expected

    @pytest.mark.parametrize("n,k", sorted(SEARCHED_CAT_ORDERS))
    def test_matches_searched_order(self, n, k):
        inst = gen_caterpillar(n, k)
        nm = inst.vertex_names
        expected = tuple(nm[s] for s in SEARCHED_CAT_ORDERS[n, k].split())
        assert proof_order_caterpillar(inst) == expected

    @pytest.mark.parametrize("n,k", [(4, 9), (4, 20), (4, 50), (16, 1), (40, 1)])
    def test_large_constructions_certify(self, n, k):
        # beyond the sizes any order search reached
        inst = gen_caterpillar(n, k)
        lab = certify_tightness(metrics(inst.tree), proof_order_caterpillar(inst))
        assert lab.span == rn_caterpillar(n, k)


class TestLevelwise:
    def test_binary_height2(self):
        inst = gen_levelwise(1, (2, 3))
        assert inst.tree.p == 7
        assert inst.closed_form_rn == 13 == rn_binary(2)

    def test_two_roots(self):
        inst = gen_levelwise(2, (2, 3))
        assert inst.tree.p == 8
        assert inst.closed_form_rn == 17

    def test_244(self):
        inst = gen_levelwise(1, (2, 4, 4))
        assert inst.tree.p == 27

    def test_no_closed_form_off_grid(self):
        assert gen_levelwise(1, (3, 3)).closed_form_rn is None
        with pytest.raises(OutOfRange):
            rn_levelwise(1, (3, 3))

    @pytest.mark.parametrize("z,degs", LEVEL_GRID)
    def test_printed_structure_formulas(self, z, degs):
        inst = gen_levelwise(z, degs)
        m = metrics(inst.tree)
        h = len(degs)
        runs = [prod(d - 1 for d in degs[1:i + 1]) for i in range(1, h)]
        assert inst.tree.p == (3 if z == 1 else 4) + 2 * sum(runs)
        assert m.total_level == 2 + 2 * sum((i + 2) * r for i, r in enumerate(runs))
        top = prod(d - 1 for d in degs[1:])
        assert m.xi == (top if z == 1 else 2 * top - 2)

    @pytest.mark.parametrize("z,degs", LEVEL_GRID)
    def test_orders_certify_to_closed_form(self, z, degs):
        inst = gen_levelwise(z, degs)
        order = proof_order_levelwise(inst)
        lab = certify_tightness(metrics(inst.tree), order)
        assert lab.span == inst.closed_form_rn

    @pytest.mark.parametrize("z", (1, 2))
    @pytest.mark.parametrize("degs", [(2, 12, 3), (2, 3, 30)])
    def test_child_indices_above_nine(self, z, degs):
        # multi-digit child indices must neither collide in names nor be
        # read back as several digits
        inst = gen_levelwise(z, degs)
        assert len(inst.vertex_names) == inst.tree.p
        lab = certify_tightness(metrics(inst.tree), proof_order_levelwise(inst))
        assert lab.span == rn_levelwise(z, degs)

    def test_two_roots_height1_is_p4(self):
        # found by the CLI fuzz: the z = 2 interleaving needs two vertices
        # per side and raised KeyError on T^2_{2}
        inst = gen_levelwise(2, (2,))
        assert sorted(inst.tree.edges) == [(0, 1), (0, 2), (1, 3)]
        lab = certify_tightness(metrics(inst.tree), proof_order_levelwise(inst))
        assert lab.span == inst.closed_form_rn == 5

    def test_order_unsupported_off_grid(self):
        with pytest.raises(UnsupportedParams):
            proof_order_levelwise(gen_levelwise(1, (3, 3)))

    def test_binary_corollary(self):
        for h in (2, 3, 4, 5):
            degs = (2,) + (3,) * (h - 1)
            assert rn_levelwise(1, degs) == rn_binary(h)


class TestLmh:
    def test_122_is_binary(self):
        a = gen_lmh(1, 2, 2)
        b = gen_levelwise(1, (2, 3))
        assert sorted(map(len, a.tree.adjacency)) == sorted(map(len, b.tree.adjacency))
        assert exact_rn(a.tree).rn == exact_rn(b.tree).rn == 13

    def test_222(self):
        inst = gen_lmh(2, 2, 2)
        assert inst.tree.p == 8
        assert inst.closed_form_rn == 17

    def test_133(self):
        inst = gen_lmh(1, 3, 3)
        assert inst.tree.p == 15
        assert inst.closed_form_rn == 38

    @pytest.mark.parametrize("z,m,h", LMH_GRID)
    def test_printed_structure_formulas(self, z, m, h):
        inst = gen_lmh(z, m, h)
        mt = metrics(inst.tree)
        assert inst.tree.p == 2 * m * h - 2 * m + 2 + z
        assert mt.total_level == 2 + m * (h * (h + 1) - 2)
        # remote set is the 2m leaves; xi follows the one/two-center rule
        assert mt.xi == (m if z == 1 else 2 * m - 2)

    @pytest.mark.parametrize("z,m,h", LMH_GRID)
    def test_orders_certify_to_closed_form(self, z, m, h):
        inst = gen_lmh(z, m, h)
        order = proof_order_lmh(inst)
        lab = certify_tightness(metrics(inst.tree), order)
        assert lab.span == inst.closed_form_rn

    def test_h2_agrees_with_levelwise(self):
        for z in (1, 2):
            for m in (2, 3, 4):
                assert rn_lmh(z, m, 2) == rn_levelwise(z, (2, m + 1))


class TestRandomTwoBranch:
    def test_n3_is_path(self):
        inst = gen_random_two_branch(3, 123)
        assert inst.tree.p == 3
        assert metrics(inst.tree).two_branch

    def test_deterministic(self):
        a = gen_random_two_branch(7, 42)
        b = gen_random_two_branch(7, 42)
        assert a.tree.edges == b.tree.edges

    def test_n4_never_a_star(self):
        for seed in range(20):
            inst = gen_random_two_branch(4, seed)
            assert metrics(inst.tree).two_branch
            assert sorted(len(a) for a in inst.tree.adjacency) == [1, 1, 2, 2]

    def test_always_two_branch(self):
        for seed in range(10):
            assert metrics(gen_random_two_branch(9, seed).tree).two_branch


class TestRnFormula:
    def test_path(self):
        assert rn_formula("path", n=7) == 20

    def test_binary(self):
        assert rn_formula("binary", h=3) == 35

    def test_lmh(self):
        # one lower than the occasionally-quoted 46; see rn_lmh docstring
        assert rn_formula("lmh", z=2, m=3, h=3) == 45

    def test_caterpillar(self):
        assert rn_formula("caterpillar", n=3, k=1) == 10

    def test_unknown_family(self):
        with pytest.raises(OutOfRange):
            rn_formula("spider", legs=3)


class TestVertexNames:
    def test_bijective(self):
        for inst in (
            gen_caterpillar(5, 2),
            gen_levelwise(2, (2, 3, 3)),
            gen_lmh(1, 3, 3),
            gen_path(6),
        ):
            names = inst.vertex_names
            assert sorted(names.values()) == list(range(inst.tree.p))
