import dataclasses
from itertools import chain
from math import prod

import pytest

from radiotree import (
    BadParams,
    CertificationFailure,
    ExhaustedAttempts,
    build_tree,
    OrderTooLarge,
    OutOfRange,
    UnsupportedParams,
    certify_tightness,
    exact_rn,
    gen_caterpillar,
    gen_levelwise,
    gen_lmh,
    gen_path,
    gen_random_two_branch,
    metrics,
    proof_order_caterpillar,
    proof_order_levelwise,
    proof_order_lmh,
    rn_binary,
    rn_caterpillar,
    rn_levelwise,
    rn_lmh,
    rn_path,
)
from radiotree import families
from radiotree.cli import main
from radiotree.families import _certify_or_raise

CAT_GRID = [(n, k) for n in range(3, 13) for k in range(1, 5)]
LEVEL_GRID = [
    (z, degs)
    for z in (1, 2)
    for degs in [(2, 3), (2, 4), (2, 5), (2, 3, 3), (2, 4, 4), (2, 3, 4), (2, 3, 3, 3)]
]
LMH_GRID = [(z, m, h) for z in (1, 2) for m in range(2, 6) for h in range(2, 5)]


# --- name-keyed references ---------------------------------------------------
#
# The constructions as they were first written: position -> conventional name
# tables, mapped to ids through ``vertex_names``.  ``proof_order_*`` now write
# the generators' ids straight into the order's slots; these references pin
# that the id-built orders are the same orders, case by case.  They stay as
# snapshots: the paper writes its orders in these names, and no definition
# fixes which order a construction returns.

def _cat_order_odd_small(n: int, k: int, p: int) -> dict:
    # n = 3: center first, the two leaf tufts interleaved, then v_3, v_1.
    by_pos = {0: "v_2", p - 2: "v_3", p - 1: "v_1"}
    for j in range(1, k + 1):
        by_pos[2 * j - 1] = f"v_{{3,{j}}}"
        by_pos[2 * j] = f"v_{{1,{j}}}"
    return by_pos


def _cat_order_even_small(n: int, k: int, p: int) -> dict:
    # n = 4: v_2, v_{4,1}, v_1, v_4, v_{1,1}, the remaining tufts
    # interleaved, then v_3.  The non-remote spine ends v_1, v_4 sit next to
    # neither weight center; the n = 3 pattern puts one there and overshoots
    # the bound by 2.
    by_pos = {0: "v_2", 1: "v_{4,1}", 2: "v_1", 3: "v_4", 4: "v_{1,1}", p - 1: "v_3"}
    for j in range(2, k + 1):
        by_pos[2 * j + 1] = f"v_{{4,{j}}}"
        by_pos[2 * j + 2] = f"v_{{1,{j}}}"
    return by_pos


def _cat_order_odd_large(n: int, k: int, p: int) -> dict:
    by_pos = {0: f"v_{(n - 1) // 2}", p - 1: f"v_{(n + 1) // 2}"}
    for j in range(1, k + 1):
        by_pos[4 * (j - 1) + 2] = f"v_{{1,{j}}}"
        by_pos[4 * j] = f"v_{{{(n - 1) // 2},{j}}}"
        by_pos[4 * (j - 1) + 3] = f"v_{{{(n + 3) // 2},{j}}}"
        by_pos[4 * (j - 1) + 1] = f"v_{{{n},{j}}}"
    for i in range(1, n + 1):
        if i < (n - 1) // 2:
            by_pos[4 * k + 2 * i] = f"v_{i}"
        elif i > (n + 1) // 2:
            by_pos[4 * k + 2 * (i - (n + 1) // 2) - 1] = f"v_{i}"
    return by_pos


def _cat_order_even_large(n: int, k: int, p: int) -> dict:
    half = n // 2
    by_pos = {
        0: f"v_{half - 1}",
        1: f"v_{{{n},1}}",
        2: f"v_{half}",
        3: f"v_{{{n},2}}",
        4: "v_{1,1}",
        5: f"v_{half + 1}",
        6: "v_{1,2}",
        p - 1: f"v_{half + 2}",
        4 * k + 1: f"v_{{{half + 2},{k}}}",
        4 * k + 2: f"v_{{{half - 1},{k}}}",
    }
    for j in range(3, k + 1):
        by_pos[4 * (j - 1) + 2] = f"v_{{1,{j}}}"
        by_pos[4 * (j - 1) + 1] = f"v_{{{n},{j}}}"
    for j in range(1, k):
        by_pos[4 * (j + 1)] = f"v_{{{half - 1},{j}}}"
        by_pos[4 * (j + 1) - 1] = f"v_{{{half + 2},{j}}}"
    for i in range(1, n + 1):
        if i < half - 1:
            by_pos[4 * k + 2 * (half - i)] = f"v_{i}"
        elif i > half + 2:
            by_pos[4 * k + 2 * (n - i) + 3] = f"v_{i}"
    return by_pos


def _cat_order_even_k1(n: int, k: int, p: int) -> dict:
    # even n >= 6, k = 1: v_h, v_{n,1}, the two spine halves interleaved,
    # then v_{h-1,1}, v_{h+2,1}, v_{1,1}, v_{h+1} (h = n/2).
    half = n // 2
    by_pos = {
        0: f"v_{half}",
        1: f"v_{{{n},1}}",
        p - 4: f"v_{{{half - 1},1}}",
        p - 3: f"v_{{{half + 2},1}}",
        p - 2: "v_{1,1}",
        p - 1: f"v_{half + 1}",
    }
    for i in range(1, half):
        by_pos[2 * i] = f"v_{i}"
        by_pos[2 * i + 1] = f"v_{half + 1 + i}"
    return by_pos


def _levelwise_order_names(z: int, ms) -> list:
    """The vertex names of T^z in the order of :func:`proof_order_levelwise`,
    by their child-index paths."""
    # the index-path tails ",i_2,...,i_l" of each level l, i_2 fastest
    tails = [[""]]
    for m in ms[1:]:
        tails.append([f"{t},{i}" for i in range(m - 1) for t in tails[-1]])

    def branch(head):
        return [f"{head}{t}}}" for level in reversed(tails) for t in level]

    if z == 1:
        return ["w", *chain.from_iterable(zip(branch("w_{0"), branch("w_{1")))]
    a, b = branch("w_{0"), branch("w'_{0")
    if len(a) == 1:
        # T^2_{2} is the path P_4: a center, the far leaf, the near leaf, the other center
        return ["w", b[0], a[0], "w'"]
    return [a[-1], b[0], "w", b[1], a[0], "w'", a[1],
            *chain.from_iterable(zip(b[2:-1], a[2:-1])), b[-1]]


def _lmh_positions(z: int, m: int, h: int, p: int) -> dict:
    by_pos = {}
    if z == 1:
        by_pos[0] = "r"
        by_pos[p - 2] = "w^1"
        by_pos[p - 1] = "w^2"
        for l in (1, 2):
            for i in range(1, m + 1):
                by_pos[2 * i + l - 2] = f"w^{l}_{{{i},{h - 1}}}"
            for i in range(1, m + 1):
                for j in range(1, h - 1):
                    if l == 1:
                        t = 2 * (i - 1) + 2 * m * j + l
                    else:
                        t = 2 * (i - 1) + 2 * m * (h - j - 1) + l
                    by_pos[t] = f"w^{l}_{{{i},{j}}}"
    else:
        by_pos[0] = "w^2"
        by_pos[1] = f"w^1_{{1,{h - 1}}}"
        by_pos[2] = "r_2"
        by_pos[3] = f"w^1_{{2,{h - 1}}}"
        by_pos[4] = f"w^2_{{1,{h - 1}}}"
        by_pos[5] = "r_1"
        by_pos[6] = f"w^2_{{2,{h - 1}}}"
        by_pos[p - 1] = "w^1"
        for l in (1, 2):
            for i in range(3, m + 1):
                by_pos[2 * i + l] = f"w^{l}_{{{i},{h - 1}}}"
            for i in range(1, m + 1):
                for j in range(1, h - 1):
                    if l == 1:
                        t = 2 * i + 2 * m * j + l
                    else:
                        t = 2 * i + 2 * m * (h - j - 1) + l
                    by_pos[t] = f"w^{l}_{{{i},{j}}}"
    return by_pos


# --- eager name walks ----------------------------------------------------------
#
# The generators as first written: a vertex-counting walk that hands out ids
# and fills the name -> id dict as it goes.  The generators now build edges
# by id arithmetic and names only on demand; these pin both to the walks.
# They stay as snapshots: the names are the paper's notation, and no
# definition fixes the ids.

def _walk_path(n: int):
    return [(i, i + 1) for i in range(n - 1)], {f"v_{i + 1}": i for i in range(n)}


def _walk_caterpillar(n: int, k: int):
    raw = [1, (n - 1) // 2, (n + 3) // 2, n] if n % 2 == 1 else [1, (n - 2) // 2, (n + 4) // 2, n]
    names = {f"v_{i}": i - 1 for i in range(1, n + 1)}
    edges = [(i, i + 1) for i in range(n - 1)]
    nxt = n
    for i in sorted(set(raw)):
        for j in range(1, k + 1):
            names[f"v_{{{i},{j}}}"] = nxt
            edges.append((i - 1, nxt))
            nxt += 1
    return edges, names


def _walk_levelwise(z: int, ms):
    h = len(ms)
    edges, names = [], {}

    def new_vertex(name):
        names[name] = len(names)
        return len(names) - 1

    def grow(parent_id, mark, prefix, level):
        if level >= h:
            return
        width = ms[level] if level == 0 else ms[level] - 1
        for c in range(width):
            path = prefix + str(c)
            v = new_vertex(f"w{mark}_{{{path}}}")
            edges.append((parent_id, v))
            grow(v, mark, path + ",", level + 1)

    if z == 1:
        grow(new_vertex("w"), "", "", 0)
    else:
        r1, r2 = new_vertex("w"), new_vertex("w'")
        edges.append((r1, r2))
        for mark, root in (("", r1), ("'", r2)):
            for c in range(ms[0] - 1):
                v = new_vertex(f"w{mark}_{{{c}}}")
                edges.append((root, v))
                grow(v, mark, f"{c},", 1)
    return edges, names


def _walk_lmh(z: int, m: int, h: int):
    edges, names = [], {}

    def new_vertex(name):
        names[name] = len(names)
        return len(names) - 1

    if z == 1:
        r = new_vertex("r")
        tops = [new_vertex("w^1"), new_vertex("w^2")]
        edges += [(r, tops[0]), (r, tops[1])]
    else:
        r1, r2 = new_vertex("r_1"), new_vertex("r_2")
        edges.append((r1, r2))
        tops = [new_vertex("w^1"), new_vertex("w^2")]
        edges += [(r1, tops[0]), (r2, tops[1])]
    for l in (1, 2):
        for i in range(1, m + 1):
            parent = tops[l - 1]
            for j in range(1, h):
                v = new_vertex(f"w^{l}_{{{i},{j}}}")
                edges.append((parent, v))
                parent = v
    return edges, names


def cat_reference(inst):
    n, k = inst.params["n"], inst.params["k"]
    p = inst.tree.p
    if n == 3:
        build = _cat_order_odd_small
    elif n == 4:
        build = _cat_order_even_small
    elif n % 2 == 1:
        build = _cat_order_odd_large
    elif k >= 2:
        build = _cat_order_even_large
    else:
        build = _cat_order_even_k1
    return by_names(inst, build(n, k, p))


def by_names(inst, by_pos):
    p = inst.tree.p
    assert by_pos.keys() == set(range(p))
    return tuple(inst.vertex_names[by_pos[t]] for t in range(p))


# every caterpillar case (n = 3, n = 4, odd n >= 5, even n >= 6 with k >= 2 and
# with k = 1), L^z_{m,h} and T^z for z = 1, 2, T^z with three or more levels
# and degrees of 11 or more
REF_CAT_GRID = [(n, k) for n in (3, 4, 5, 6, 7, 8, 9, 10, 13, 14, 21, 22) for k in (1, 2, 3, 5, 8)]
REF_LMH_GRID = [(z, m, h) for z in (1, 2) for m in (2, 3, 4, 7, 12) for h in (2, 3, 4, 6)]
REF_LEVEL_GRID = [
    (z, degs)
    for z in (1, 2)
    for degs in [(2, 3), (2, 11), (2, 3, 3), (2, 12, 3), (2, 3, 12), (2, 11, 4, 3),
                 (2, 3, 4, 5), (2, 4, 3, 3, 3)]
] + [(2, (2,))]

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

# the orders proof_order_levelwise returned before it was rebuilt to walk the
# child-index paths; a construction of the same orders must return them unchanged
PINNED_LEVEL_ORDERS = {
    (1, (2, 3)): "w w_{0,0} w_{1,0} w_{0,1} w_{1,1} w_{0} w_{1}",
    (2, (2, 3)): "w_{0} w'_{0,0} w w'_{0,1} w_{0,0} w' w_{0,1} w'_{0}",
    (1, (2, 4)): "w w_{0,0} w_{1,0} w_{0,1} w_{1,1} w_{0,2} w_{1,2} w_{0} w_{1}",
    (2, (2, 4)): "w_{0} w'_{0,0} w w'_{0,1} w_{0,0} w' w_{0,1} w'_{0,2} w_{0,2} w'_{0}",
    (1, (2, 3, 3)): (
        "w w_{0,0,0} w_{1,0,0} w_{0,1,0} w_{1,1,0} w_{0,0,1} w_{1,0,1} "
        "w_{0,1,1} w_{1,1,1} w_{0,0} w_{1,0} w_{0,1} w_{1,1} w_{0} w_{1}"
    ),
    (2, (2, 3, 3)): (
        "w_{0} w'_{0,0,0} w w'_{0,1,0} w_{0,0,0} w' w_{0,1,0} w'_{0,0,1} "
        "w_{0,0,1} w'_{0,1,1} w_{0,1,1} w'_{0,0} w_{0,0} w'_{0,1} w_{0,1} "
        "w'_{0}"
    ),
    (1, (2, 12, 3)): (
        "w w_{0,0,0} w_{1,0,0} w_{0,1,0} w_{1,1,0} w_{0,2,0} w_{1,2,0} "
        "w_{0,3,0} w_{1,3,0} w_{0,4,0} w_{1,4,0} w_{0,5,0} w_{1,5,0} "
        "w_{0,6,0} w_{1,6,0} w_{0,7,0} w_{1,7,0} w_{0,8,0} w_{1,8,0} "
        "w_{0,9,0} w_{1,9,0} w_{0,10,0} w_{1,10,0} w_{0,0,1} w_{1,0,1} "
        "w_{0,1,1} w_{1,1,1} w_{0,2,1} w_{1,2,1} w_{0,3,1} w_{1,3,1} "
        "w_{0,4,1} w_{1,4,1} w_{0,5,1} w_{1,5,1} w_{0,6,1} w_{1,6,1} "
        "w_{0,7,1} w_{1,7,1} w_{0,8,1} w_{1,8,1} w_{0,9,1} w_{1,9,1} "
        "w_{0,10,1} w_{1,10,1} w_{0,0} w_{1,0} w_{0,1} w_{1,1} w_{0,2} "
        "w_{1,2} w_{0,3} w_{1,3} w_{0,4} w_{1,4} w_{0,5} w_{1,5} w_{0,6} "
        "w_{1,6} w_{0,7} w_{1,7} w_{0,8} w_{1,8} w_{0,9} w_{1,9} w_{0,10} "
        "w_{1,10} w_{0} w_{1}"
    ),
    (2, (2, 12, 3)): (
        "w_{0} w'_{0,0,0} w w'_{0,1,0} w_{0,0,0} w' w_{0,1,0} w'_{0,2,0} "
        "w_{0,2,0} w'_{0,3,0} w_{0,3,0} w'_{0,4,0} w_{0,4,0} w'_{0,5,0} "
        "w_{0,5,0} w'_{0,6,0} w_{0,6,0} w'_{0,7,0} w_{0,7,0} w'_{0,8,0} "
        "w_{0,8,0} w'_{0,9,0} w_{0,9,0} w'_{0,10,0} w_{0,10,0} w'_{0,0,1} "
        "w_{0,0,1} w'_{0,1,1} w_{0,1,1} w'_{0,2,1} w_{0,2,1} w'_{0,3,1} "
        "w_{0,3,1} w'_{0,4,1} w_{0,4,1} w'_{0,5,1} w_{0,5,1} w'_{0,6,1} "
        "w_{0,6,1} w'_{0,7,1} w_{0,7,1} w'_{0,8,1} w_{0,8,1} w'_{0,9,1} "
        "w_{0,9,1} w'_{0,10,1} w_{0,10,1} w'_{0,0} w_{0,0} w'_{0,1} w_{0,1} "
        "w'_{0,2} w_{0,2} w'_{0,3} w_{0,3} w'_{0,4} w_{0,4} w'_{0,5} w_{0,5} "
        "w'_{0,6} w_{0,6} w'_{0,7} w_{0,7} w'_{0,8} w_{0,8} w'_{0,9} w_{0,9} "
        "w'_{0,10} w_{0,10} w'_{0}"
    ),
    (2, (2,)): "w w'_{0} w_{0} w'",
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

    def test_span_must_be_the_closed_form(self):
        # a closed form one above the certified span, as a wrong formula would give
        inst = gen_caterpillar(5, 2)
        wrong = dataclasses.replace(inst, closed_form_rn=inst.closed_form_rn + 1)
        with pytest.raises(CertificationFailure) as exc:
            proof_order_caterpillar(wrong)
        assert exc.value.stage == "span"
        assert exc.value.detail == (f"C(5,2): span {inst.closed_form_rn} "
                                    f"!= closed form {inst.closed_form_rn + 1}")

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
        assert inst.tree.adjacency == ((1, 2), (0, 3), (0,), (1,))
        lab = certify_tightness(metrics(inst.tree), proof_order_levelwise(inst))
        assert lab.span == inst.closed_form_rn == 5

    @pytest.mark.parametrize("z,degs", sorted(PINNED_LEVEL_ORDERS))
    def test_matches_pinned_order(self, z, degs):
        inst = gen_levelwise(z, degs)
        nm = inst.vertex_names
        expected = tuple(nm[s] for s in PINNED_LEVEL_ORDERS[z, degs].split())
        assert proof_order_levelwise(inst) == expected

    def test_one_root_height1_is_p3_without_closed_form(self):
        # T^1_{2} is the path P_3: rn 3, one below its improved bound 4, so
        # neither the level-wise formula nor a certifying order applies
        inst = gen_levelwise(1, (2,))
        assert inst.tree.adjacency == ((1, 2), (0,), (0,))
        assert exact_rn(inst.tree).rn == 3
        assert inst.closed_form_rn is None
        with pytest.raises(OutOfRange):
            rn_levelwise(1, (2,))
        with pytest.raises(UnsupportedParams):
            proof_order_levelwise(inst)

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


class TestPositionTable:
    @pytest.mark.parametrize("by_pos", [
        [1, 3, 0],  # a position missing
        [1, 3, 0, None, 2],  # a slot left empty, one beyond p - 1
        [1, 3, 0, 2, 2],  # one too many
    ])
    def test_positions_must_be_exactly_0_to_p_minus_1(self, by_pos):
        with pytest.raises(CertificationFailure) as exc:
            _certify_or_raise(gen_path(4), by_pos, None)
        assert exc.value.stage == "positions"

    @pytest.mark.parametrize("by_pos,wrong", [
        ([1, None, 0, 2], [1]),  # an empty slot
        ([1, 3, 1, 2], [2]),  # a repeated id, at its second slot
        ([1, 3, 4, 2], [2]),  # an id beyond p - 1
        ([1, 3, 0], [3]),  # a slot missing
    ])
    def test_names_the_bad_positions(self, by_pos, wrong):
        with pytest.raises(CertificationFailure, match=rf"bad order positions \{wrong}"):
            _certify_or_raise(gen_path(4), by_pos, None)


class TestIdBuiltOrders:
    """The slot-by-slot id orders equal the name-keyed references."""

    @pytest.mark.parametrize("n,k", REF_CAT_GRID)
    def test_caterpillar(self, n, k):
        inst = gen_caterpillar(n, k)
        assert proof_order_caterpillar(inst) == cat_reference(inst)

    @pytest.mark.parametrize("z,m,h", REF_LMH_GRID)
    def test_lmh(self, z, m, h):
        inst = gen_lmh(z, m, h)
        assert proof_order_lmh(inst) == by_names(inst, _lmh_positions(z, m, h, inst.tree.p))

    @pytest.mark.parametrize("z,degs", REF_LEVEL_GRID)
    def test_levelwise(self, z, degs):
        inst = gen_levelwise(z, degs)
        names = _levelwise_order_names(z, degs)
        assert proof_order_levelwise(inst) == by_names(inst, dict(enumerate(names)))

    def test_returns_a_plain_tuple(self):
        assert type(proof_order_lmh(gen_lmh(1, 2, 2))) is tuple


class TestCallersMetrics:
    """``proof_order_*`` certify on the caller's metrics when given them."""

    @pytest.mark.parametrize("inst,build", [
        (gen_caterpillar(5, 3), proof_order_caterpillar),
        (gen_levelwise(2, (2, 3, 3)), proof_order_levelwise),
        (gen_lmh(1, 3, 3), proof_order_lmh),
    ])
    def test_same_order_with_or_without(self, inst, build):
        assert build(inst, metrics(inst.tree)) == build(inst)

    def test_metrics_are_computed_once(self, monkeypatch):
        inst = gen_caterpillar(5, 3)
        m = metrics(inst.tree)
        monkeypatch.setattr(families, "metrics", lambda tree: pytest.fail("metrics recomputed"))
        assert proof_order_caterpillar(inst, m) == cat_reference(inst)

    @pytest.mark.parametrize("other", [gen_caterpillar(5, 4), gen_lmh(1, 3, 3)])
    def test_metrics_of_another_tree(self, other):
        with pytest.raises(BadParams, match="another tree"):
            proof_order_caterpillar(gen_caterpillar(5, 3), metrics(other.tree))

    def test_metrics_of_an_equal_tree(self):
        # equal rows are the same tree, even from another generator call
        inst = gen_caterpillar(5, 3)
        assert proof_order_caterpillar(inst, metrics(gen_caterpillar(5, 3).tree)) \
            == proof_order_caterpillar(inst)


class TestRandomTwoBranch:
    def test_n3_is_path(self):
        inst = gen_random_two_branch(3, 123)
        assert inst.tree.p == 3
        assert metrics(inst.tree).two_branch

    def test_deterministic(self):
        a = gen_random_two_branch(7, 42)
        b = gen_random_two_branch(7, 42)
        assert a.tree == b.tree

    def test_n4_never_a_star(self):
        for seed in range(20):
            inst = gen_random_two_branch(4, seed)
            assert metrics(inst.tree).two_branch
            assert sorted(len(a) for a in inst.tree.adjacency) == [1, 1, 2, 2]

    def test_always_two_branch(self):
        for seed in range(10):
            assert metrics(gen_random_two_branch(9, seed).tree).two_branch

    def test_gives_up_after_the_draws(self, monkeypatch):
        monkeypatch.setattr(families, "RANDOM_DRAWS", 0)
        with pytest.raises(ExhaustedAttempts, match="no two-branch tree on 6 vertices after 0 draws"):
            gen_random_two_branch(6, 1)


class TestSizeLimit:
    """Each generator computes its order from the parameters, exactly, and
    refuses an instance above MAX_VERTICES before building it."""

    @pytest.mark.parametrize("gen, args", [
        (gen_path, (7,)),
        *[(gen_caterpillar, nk) for nk in [(3, 2), (4, 3), (5, 2), (6, 1), (9, 3)]],
        *[(gen_levelwise, zd) for zd in [(1, (2,)), (2, (2,)), (1, (2, 3, 4)), (2, (3, 3, 3))]],
        (gen_lmh, (1, 3, 4)),
        (gen_lmh, (2, 2, 3)),
        (gen_random_two_branch, (8, 1)),
    ])
    def test_the_limit_is_the_order(self, monkeypatch, gen, args):
        p = gen(*args).tree.p
        monkeypatch.setattr(families, "MAX_VERTICES", p)
        assert gen(*args).tree.p == p
        monkeypatch.setattr(families, "MAX_VERTICES", p - 1)
        with pytest.raises(OrderTooLarge, match=f"^{p} vertices exceeds"):
            gen(*args)

    def test_the_default_limit(self):
        assert families.MAX_VERTICES == 10 ** 7
        with pytest.raises(OrderTooLarge):
            gen_caterpillar(5, 2_500_000)  # p = 10,000,005


class TestRnFormula:
    """Closed forms as FAMILIES' generators attach them to their instances."""

    def test_path(self):
        assert families.FAMILIES["path"][0](7).closed_form_rn == 20

    def test_binary(self):
        # T^1_{2,3,3}, the complete binary tree of height 3
        assert rn_binary(3) == 35 == gen_levelwise(1, (2, 3, 3)).closed_form_rn

    def test_lmh(self):
        # one lower than the occasionally-quoted 46; see rn_lmh docstring
        assert families.FAMILIES["lmh"][0](2, 3, 3).closed_form_rn == 45

    def test_caterpillar(self):
        assert families.FAMILIES["caterpillar"][0](3, 1).closed_form_rn == 10

    @pytest.mark.parametrize("formula, args, message", [
        (rn_caterpillar, (2, 1), "caterpillar closed form needs n >= 3, k >= 1, got n=2, k=1"),
        (rn_binary, (1,), "binary closed form needs h >= 2, got 1"),
        (rn_lmh, (1, 1, 2), "leg-family closed form needs m >= 2, h >= 2; got z=1, m=1, h=2"),
    ], ids=["caterpillar", "binary", "lmh"])
    def test_refused_outside_the_stated_range(self, formula, args, message):
        with pytest.raises(OutOfRange) as exc:
            formula(*args)
        assert str(exc.value) == message


WALK_GRID = (
    [("path", (n,)) for n in range(1, 15)]
    + [("caterpillar", (n, k)) for n in range(3, 16) for k in range(1, 7)]
    + [("lmh", (z, m, h)) for z in (1, 2) for m in range(2, 7) for h in range(2, 7)]
    + [("levelwise", (z, degs)) for z in (1, 2)
       for degs in [(2,), (3,), (4,), (2, 3), (2, 4), (3, 3), (4, 3, 3), (2, 3, 3),
                    (2, 12, 3), (2, 3, 12), (2, 4, 3, 3), (2, 3, 4, 5)]]
)
WALKS = {"path": (gen_path, _walk_path), "caterpillar": (gen_caterpillar, _walk_caterpillar),
         "lmh": (gen_lmh, _walk_lmh), "levelwise": (gen_levelwise, _walk_levelwise)}


class TestAgainstEagerWalks:
    """Trees and names from the id layouts equal the eager walks'."""

    @pytest.mark.parametrize("family,args", WALK_GRID)
    def test_tree_and_names(self, family, args):
        gen, walk = WALKS[family]
        inst = gen(*args)
        edges, names = walk(*args)
        assert inst.family == family
        assert inst.tree == (build_tree(edges) if edges else gen_path(1).tree)
        # equal dicts in the same (id) order
        assert list(inst.vertex_names.items()) == list(names.items())

    @pytest.mark.parametrize("n,seed", [(3 + s % 12, s) for s in range(45)])
    def test_random_names_are_the_ids(self, n, seed):
        inst = gen_random_two_branch(n, seed)
        assert inst.family == "random"
        assert list(inst.vertex_names.items()) == [(str(v), v) for v in range(inst.tree.p)]

    def test_names_built_afresh_on_each_access(self):
        inst = gen_caterpillar(3, 1)
        first = inst.vertex_names
        first.clear()
        assert len(inst.vertex_names) == inst.tree.p


def _no_names(monkeypatch):
    """Make every names builder raise, in the module and in FAMILIES."""
    def boom(*args, **kwargs):
        pytest.fail("vertex names built")

    for key, (gen, params, names, build) in list(families.FAMILIES.items()):
        monkeypatch.setattr(families, names.__name__, boom)
        monkeypatch.setitem(families.FAMILIES, key, (gen, params, boom, build))


class TestNamesOnDemand:
    @pytest.mark.parametrize("inst,build", [
        (lambda: gen_caterpillar(5, 3), proof_order_caterpillar),
        (lambda: gen_caterpillar(4, 2), proof_order_caterpillar),
        (lambda: gen_levelwise(2, (2, 3, 3)), proof_order_levelwise),
        (lambda: gen_lmh(2, 3, 3), proof_order_lmh),
        (lambda: gen_path(7), None),
        (lambda: gen_random_two_branch(9, 2), None),
    ])
    def test_generators_and_orders_build_no_names(self, monkeypatch, inst, build):
        _no_names(monkeypatch)
        made = inst()
        if build is not None:
            build(made)
            build(made, metrics(made.tree))

    @pytest.mark.parametrize("argv", [
        ["caterpillar", "--n", "5", "--k", "2"],
        ["levelwise", "--z", "2", "--degrees", "2,3,3"],
        ["lmh", "--z", "2", "--m", "3", "--h", "3"],
    ])
    def test_demo_and_plain_gen_build_no_names(self, monkeypatch, capsys, tmp_path, argv):
        _no_names(monkeypatch)
        assert main(["demo", *argv, "--json"]) == 0
        assert main(["gen", *argv, "-o", str(tmp_path / "t.txt"), "--with-order"]) == 0

    def test_the_guard_trips(self, monkeypatch):
        _no_names(monkeypatch)
        with pytest.raises(pytest.fail.Exception):
            gen_path(3).vertex_names


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
