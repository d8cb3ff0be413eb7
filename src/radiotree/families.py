"""Generators for the named tree families, their closed-form radio numbers,
and the explicit certifying orders.

Families:

* paths P_n;
* the four-tuft caterpillars C(n, k): spine v_1..v_n with k leaves on each of
  four designated spine positions (coinciding in pairs for n = 3, 4);
* level-wise regular trees T^z with z roots, where every vertex at the same
  level shares a degree;
* the two-level family L^z_{m,h}: z roots, below them two vertices w^1, w^2
  each carrying m legs (paths) reaching down to level h — equivalently T^z
  with degree list (2, m+1, 2, ..., 2).

Each family carries a map from the conventional vertex names (v_i, v_{i,j},
w_{i1,i2,...}, w^l_{i,j}, ...) to vertex ids, and a certifying order constructor
that reproduces the known optimal span; every constructed order is validated
by the full certification pipeline before being returned.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import prod

from .bounds import certify_tightness
from .errors import (
    BadParams,
    CertificationFailure,
    ExhaustedAttempts,
    InvalidProofOrder,
    OutOfRange,
    UnsupportedParams,
)
from .tree import Tree, TreeMetrics, _make_tree, build_tree, metrics


@dataclass(frozen=True)
class FamilyInstance:
    tree: Tree
    name: str
    params: dict
    vertex_names: dict  # conventional name -> vertex id
    closed_form_rn: int | None

    def metrics(self) -> TreeMetrics:
        return metrics(self.tree)


def _certify_or_raise(inst: FamilyInstance, order: tuple) -> tuple:
    """Validate a constructed order through the certification pipeline."""
    m = metrics(inst.tree)
    try:
        lab = certify_tightness(m, order)
    except CertificationFailure as exc:
        raise InvalidProofOrder(exc.stage, f"{inst.name}: {exc.detail}") from exc
    if inst.closed_form_rn is not None and lab.span != inst.closed_form_rn:
        raise InvalidProofOrder(
            "span", f"{inst.name}: span {lab.span} != closed form {inst.closed_form_rn}"
        )
    return tuple(order)


# --- paths -----------------------------------------------------------------

def rn_path(n: int) -> int:
    """Closed-form radio number of P_n, n >= 4."""
    if n < 4:
        raise OutOfRange(f"path closed form is stated for n >= 4, got {n}")
    k = n // 2
    if n % 2 == 1:
        return 2 * k * k + 2
    return 2 * k * (k - 1) + 1


def gen_path(n: int) -> FamilyInstance:
    if n < 1:
        raise BadParams(f"path needs n >= 1, got {n}")
    if n == 1:
        tree = _make_tree(1, [])
    else:
        tree = build_tree([(i, i + 1) for i in range(n - 1)])
    return FamilyInstance(
        tree=tree,
        name=f"P_{n}",
        params={"n": n},
        vertex_names={f"v_{i + 1}": i for i in range(n)},
        closed_form_rn=rn_path(n) if n >= 4 else None,
    )


# --- caterpillars C(n, k) --------------------------------------------------

def _cat_leaf_positions(n: int) -> list:
    if n % 2 == 1:
        raw = [1, (n - 1) // 2, (n + 3) // 2, n]
    else:
        raw = [1, (n - 2) // 2, (n + 4) // 2, n]
    return sorted(set(raw))


def rn_caterpillar(n: int, k: int) -> int:
    """Closed-form radio number of C(n, k).

    The n = 4 line is the direct improved-bound evaluation 4k+9; the
    exact solver confirms it at small k (see the acceptance tests).
    """
    if n < 3 or k < 1:
        raise OutOfRange(f"caterpillar closed form needs n >= 3, k >= 1, got {(n, k)}")
    if n == 3:
        return 3 * k + 7
    if n == 4:
        return 4 * k + 9
    if n % 2 == 1:
        return (n * n + 4 * n * k + 2 * n - 2 * k - 1) // 2
    return (n * n + 4 * n * k + 2 * n - 4 * k - 6) // 2


def gen_caterpillar(n: int, k: int) -> FamilyInstance:
    """Spine v_1..v_n plus k leaves on each designated spine position."""
    if n < 3 or k < 1:
        raise BadParams(f"caterpillar needs n >= 3 and k >= 1, got {(n, k)}")
    names = {f"v_{i}": i - 1 for i in range(1, n + 1)}
    edges = [(i, i + 1) for i in range(n - 1)]
    nxt = n
    for i in _cat_leaf_positions(n):
        for j in range(1, k + 1):
            names[f"v_{{{i},{j}}}"] = nxt
            edges.append((i - 1, nxt))
            nxt += 1
    return FamilyInstance(
        tree=build_tree(edges),
        name=f"C({n},{k})",
        params={"n": n, "k": k},
        vertex_names=names,
        closed_form_rn=rn_caterpillar(n, k),
    )


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


def proof_order_caterpillar(inst: FamilyInstance) -> tuple:
    """The certifying order for a caterpillar instance, by case on n.

    Every (n, k) has a direct construction: n = 3, n = 4, odd n >= 5, even
    n >= 6 with k >= 2, and even n >= 6 with k = 1 (where the standard even
    pattern needs a second leaf per tuft).
    """
    n, k = inst.params["n"], inst.params["k"]
    p = inst.tree.p
    if n == 3:
        by_pos = _cat_order_odd_small(n, k, p)
    elif n == 4:
        by_pos = _cat_order_even_small(n, k, p)
    elif n % 2 == 1:
        by_pos = _cat_order_odd_large(n, k, p)
    elif k >= 2:
        by_pos = _cat_order_even_large(n, k, p)
    else:
        by_pos = _cat_order_even_k1(n, k, p)
    if len(by_pos) != p or set(by_pos) != set(range(p)):
        raise InvalidProofOrder("positions", f"{inst.name}: order positions {sorted(by_pos)}")
    order = tuple(inst.vertex_names[by_pos[t]] for t in range(p))
    return _certify_or_raise(inst, order)


# --- level-wise regular trees T^z ------------------------------------------

def rn_levelwise(z: int, degrees) -> int:
    """Closed form for T^z with degree list (2, m_1, ..., m_{h-1}), m_i >= 3."""
    ms = list(degrees)
    h = len(ms)
    if z not in (1, 2) or h < 1 or ms[0] != 2 or any(m < 3 for m in ms[1:]):
        raise OutOfRange(
            f"level-wise closed form needs z in {{1,2}}, m_0 = 2, m_i >= 3; got z={z}, {ms}"
        )
    body = sum((4 * (h - i) - 2) * prod(m - 1 for m in ms[1:i + 1])
               for i in range(1, h))
    top = prod(m - 1 for m in ms[1:])
    if z == 1:
        return body + top + 4 * h - 1
    return body + 2 * top + 6 * h - 3


def rn_binary(h: int) -> int:
    """Complete binary tree of height h >= 2: 13 * 2^(h-1) - 4h - 5."""
    if h < 2:
        raise OutOfRange(f"binary closed form needs h >= 2, got {h}")
    return 13 * 2 ** (h - 1) - 4 * h - 5


def gen_levelwise(z: int, degrees) -> FamilyInstance:
    """Level-wise regular tree with z roots and per-level degrees m_0..m_{h-1}.

    Vertices are named w_{i1,i2,...,il} (and w'_{...} for the second root's
    side when z = 2) by their child-index path from the root.
    """
    ms = list(degrees)
    h = len(ms)
    if z not in (1, 2) or h < 1 or any(m < 2 for m in ms):
        raise BadParams(f"need z in {{1,2}}, h >= 1, all degrees >= 2; got z={z}, {ms}")
    edges = []
    names = {}
    nxt = 0

    def new_vertex(name):
        nonlocal nxt
        names[name] = nxt
        nxt += 1
        return nxt - 1

    def grow(parent_id, mark, prefix, level):
        # attach the children of a level-(level) vertex
        if level >= h:
            return
        width = ms[level] if level == 0 else ms[level] - 1
        for c in range(width):
            path = prefix + str(c)
            v = new_vertex(f"w{mark}_{{{path}}}")
            edges.append((parent_id, v))
            grow(v, mark, path + ",", level + 1)

    if z == 1:
        root = new_vertex("w")
        grow(root, "", "", 0)
    else:
        r1 = new_vertex("w")
        r2 = new_vertex("w'")
        edges.append((r1, r2))
        # each of the two roots carries m_0 - 1 subtrees
        for mark, root in (("", r1), ("'", r2)):
            for c in range(ms[0] - 1):
                v = new_vertex(f"w{mark}_{{{c}}}")
                edges.append((root, v))
                grow(v, mark, f"{c},", 1)
    closed = None
    if ms[0] == 2 and all(m >= 3 for m in ms[1:]):
        closed = rn_levelwise(z, ms)
    deg_str = ",".join(str(m) for m in ms)
    return FamilyInstance(
        tree=build_tree(edges) if edges else _make_tree(1, []),
        name=f"T^{z}_{{{deg_str}}}",
        params={"z": z, "degrees": tuple(ms)},
        vertex_names=names,
        closed_form_rn=closed,
    )


def _levelwise_branch_position(index_tail, ms, h) -> int:
    """Within-branch rank of the vertex with child-index path (i_2..i_l)
    under the certifying order: leaves first, then inner levels bottom-up."""
    l = len(index_tail) + 1  # level of the vertex
    j = 1
    width = 1  # prod of (m_s - 1) for s = 1 .. t-2
    for t in range(2, l + 1):
        j += index_tail[t - 2] * width
        width *= ms[t - 1] - 1
    tail = 0
    run = prod(m - 1 for m in ms[1:l + 1])
    for t in range(l, h):
        tail += run
        if t + 1 < h:
            run *= ms[t + 1] - 1
    return j + tail


def proof_order_levelwise(inst: FamilyInstance) -> tuple:
    """Certifying order for T^z with m_0 = 2 and all other degrees >= 3."""
    z, ms = inst.params["z"], list(inst.params["degrees"])
    h = len(ms)
    if ms[0] != 2 or any(m < 3 for m in ms[1:]) or h < 1:
        raise UnsupportedParams(
            f"certifying order needs m_0 = 2 and m_i >= 3, got {ms}"
        )
    names = inst.vertex_names
    p = inst.tree.p

    def index_path(name):
        return tuple(int(c) for c in name.split("{")[1].rstrip("}").split(","))

    if z == 1:
        order = [None] * p
        order[0] = names["w"]
        for name, vid in names.items():
            if name == "w":
                continue
            idx = index_path(name)
            # the first index picks the branch; ranks interleave the branches
            j = 2 * (_levelwise_branch_position(idx[1:], ms, h) - 1) + 1 + idx[0]
            order[j] = vid
        if any(v is None for v in order):
            raise InvalidProofOrder("positions", f"{inst.name}: incomplete order")
        return _certify_or_raise(inst, tuple(order))

    # z = 2: interleave the two root-branches, centers inside
    vs = {}
    vps = {}
    for name, vid in names.items():
        if name in ("w", "w'"):
            continue
        # each root has a single child here, so the leading index is dropped
        idx = index_path(name)[1:]
        rank = _levelwise_branch_position(idx, ms, h)
        (vps if name.startswith("w'") else vs)[rank] = vid
    half = (p - 2) // 2
    if half == 1:
        # T^2_{2} is the path P_4: a center, the far leaf, the near leaf, the other center
        return _certify_or_raise(inst, (names["w"], vps[1], vs[1], names["w'"]))
    order = [None] * p
    order[0] = vs[half]
    order[1] = vps[1]
    order[2] = names["w"]
    order[3] = vps[2]
    order[4] = vs[1]
    order[5] = names["w'"]
    order[6] = vs[2]
    order[p - 1] = vps[half]
    for j in range(7, p - 1):
        order[j] = vs[(j - 2) // 2] if j % 2 == 0 else vps[(j - 1) // 2]
    return _certify_or_raise(inst, tuple(order))


# --- the leg family L^z_{m,h} ----------------------------------------------

def rn_lmh(z: int, m: int, h: int) -> int:
    """Closed form for L^z_{m,h}: 2mh(h-2)+3m+4h-1 (z=1) / +4m+6h-3 (z=2).

    The z = 2 constant is sometimes quoted one higher (6h-2); the certified
    construction, the matching level-wise formula at h = 2, and the exact
    solver on L^2_{2,2} all give 6h-3.
    """
    if z not in (1, 2) or m < 2 or h < 2:
        raise OutOfRange(f"leg-family closed form needs m >= 2, h >= 2; got {(z, m, h)}")
    if z == 1:
        return 2 * m * h * (h - 2) + 3 * m + 4 * h - 1
    return 2 * m * h * (h - 2) + 4 * m + 6 * h - 3


def gen_lmh(z: int, m: int, h: int) -> FamilyInstance:
    """z roots; below them w^1 and w^2, each carrying m legs down to level h.

    Structurally this is T^z with degree list (2, m+1, 2, ..., 2).
    """
    if z not in (1, 2) or m < 2 or h < 2:
        raise BadParams(f"need z in {{1,2}}, m >= 2, h >= 2; got {(z, m, h)}")
    edges = []
    names = {}
    nxt = 0

    def new_vertex(name):
        nonlocal nxt
        names[name] = nxt
        nxt += 1
        return nxt - 1

    if z == 1:
        r = new_vertex("r")
        tops = [new_vertex("w^1"), new_vertex("w^2")]
        edges += [(r, tops[0]), (r, tops[1])]
    else:
        r1 = new_vertex("r_1")
        r2 = new_vertex("r_2")
        edges.append((r1, r2))
        tops = [new_vertex("w^1"), new_vertex("w^2")]
        edges += [(r1, tops[0]), (r2, tops[1])]
    for l in (1, 2):
        top = tops[l - 1]
        for i in range(1, m + 1):
            parent = top
            for j in range(1, h):
                v = new_vertex(f"w^{l}_{{{i},{j}}}")
                edges.append((parent, v))
                parent = v
    return FamilyInstance(
        tree=build_tree(edges),
        name=f"L^{z}_{{{m},{h}}}",
        params={"z": z, "m": m, "h": h},
        vertex_names=names,
        closed_form_rn=rn_lmh(z, m, h),
    )


def proof_order_lmh(inst: FamilyInstance) -> tuple:
    """Certifying order for L^z_{m,h} (leaves first, legs bottom-up)."""
    z, m, h = inst.params["z"], inst.params["m"], inst.params["h"]
    p = inst.tree.p
    names = inst.vertex_names
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
    if len(by_pos) != p or set(by_pos) != set(range(p)):
        raise InvalidProofOrder("positions", f"{inst.name}: positions {sorted(by_pos)}")
    order = tuple(names[by_pos[t]] for t in range(p))
    return _certify_or_raise(inst, order)


# --- random two-branch instances -------------------------------------------

def gen_random_two_branch(n: int, seed: int, max_attempts: int = 10000) -> FamilyInstance:
    """First two-branch tree from a seeded stream of uniform labelled trees."""
    if n < 3:
        raise BadParams(f"need n >= 3, got {n}")
    rng = random.Random(seed)
    for _ in range(max_attempts):
        if n == 3:
            tree = build_tree([(0, 1), (1, 2)])
        else:
            seq = [rng.randrange(n) for _ in range(n - 2)]
            tree = _decode_pruefer(seq)
        if metrics(tree).two_branch:
            return FamilyInstance(
                tree=tree,
                name=f"random2b(n={n},seed={seed})",
                params={"n": n, "seed": seed},
                vertex_names={str(v): v for v in range(tree.p)},
                closed_form_rn=None,
            )
    raise ExhaustedAttempts(f"no two-branch tree on {n} vertices after {max_attempts} draws")


def _decode_pruefer(seq) -> Tree:
    n = len(seq) + 2
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    import heapq
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, v = sorted(leaves)[:2]
    edges.append((u, v))
    return build_tree(edges)


# --- closed-form dispatcher ------------------------------------------------

def rn_formula(family: str, **params) -> int:
    """Evaluate a family's closed-form radio number."""
    if family == "path":
        return rn_path(params["n"])
    if family == "caterpillar":
        return rn_caterpillar(params["n"], params["k"])
    if family == "levelwise":
        return rn_levelwise(params["z"], params["degrees"])
    if family == "binary":
        return rn_binary(params["h"])
    if family == "lmh":
        return rn_lmh(params["z"], params["m"], params["h"])
    raise OutOfRange(f"unknown family {family!r}")
