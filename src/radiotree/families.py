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

Each family's vertex-id layout is written once (:func:`_cat_tufts`,
:func:`_lmh_id`, :func:`_levelwise_sizes`) and stated in its generator's
docstring.  The generator builds its edges from it, the certifying order
constructor writes the same ids into the order's slots, a slice per tuft, leg
row or level, and the conventional names (v_i, v_{i,j}, w_{i1,...,il},
w^l_{i,j}, ...) are listed from it only when
:attr:`FamilyInstance.vertex_names` is read.  Every constructed order
reproduces the known optimal span and is validated by the full certification
pipeline.  :data:`FAMILIES` tables the families by their command-line key.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain
from math import prod

from .bounds import certify_tightness
from .errors import (
    BadParams,
    CertificationFailure,
    ExhaustedAttempts,
    NotAPermutation,
    OrderTooLarge,
    OutOfRange,
    UnsupportedParams,
)
from .tree import Tree, TreeMetrics, _decode_pruefer, _make_tree, _short_number, metrics


@dataclass(frozen=True)
class FamilyInstance:
    tree: Tree
    family: str  # the key of FAMILIES
    name: str
    params: dict
    closed_form_rn: int | None

    @property
    def vertex_names(self) -> dict:
        """Conventional name -> vertex id, in id order, built afresh from the
        family's id layout on each access."""
        return FAMILIES[self.family][2](**self.params)


def _certify_or_raise(inst: FamilyInstance, order: list, m: TreeMetrics | None) -> tuple:
    """The one exit of every ``proof_order_*``: validate an order of vertex
    ids, built slot by slot on the generator's id layout, through the
    certification pipeline on ``m`` (the caller's metrics of ``inst.tree``,
    or metrics computed here when None).  A table that is not a permutation
    of 0..p-1 (wrong length, an empty slot, a repeated or foreign id) raises
    :class:`CertificationFailure` at stage ``positions``."""
    order = tuple(order)  # check_order keeps this tuple: the one copy
    if m is None:
        m = metrics(inst.tree)
    elif m.tree != inst.tree:
        raise BadParams(f"{inst.name}: the metrics passed are of another tree")
    try:
        lab = certify_tightness(m, order)
    except NotAPermutation as exc:
        raise CertificationFailure("positions", f"{inst.name}: {exc}") from exc
    except CertificationFailure as exc:
        raise CertificationFailure(exc.stage, f"{inst.name}: {exc.detail}") from exc
    if inst.closed_form_rn is not None and lab.span != inst.closed_form_rn:
        raise CertificationFailure(
            "span", f"{inst.name}: span {lab.span} != closed form {inst.closed_form_rn}"
        )
    return order


def _got(**params) -> str:
    """The parameters an error message echoes, as ``name=value``, each long
    number cut short; a degree list is written as on the command line."""
    return ", ".join(
        f"{name}={','.join(map(_short_number, v)) if isinstance(v, list) else _short_number(v)}"
        for name, v in params.items())


MAX_VERTICES = 10 ** 7  # each generator computes p first and refuses more


def _check_size(p: int) -> None:
    if p > MAX_VERTICES:
        raise OrderTooLarge(
            f"{_short_number(p)} vertices exceeds the generators' limit {MAX_VERTICES}")


# --- paths -----------------------------------------------------------------

def rn_path(n: int) -> int:
    """Closed-form radio number of P_n, n >= 4."""
    if n < 4:
        raise OutOfRange(f"path closed form is stated for n >= 4, got {_short_number(n)}")
    k = n // 2
    if n % 2 == 1:
        return 2 * k * k + 2
    return 2 * k * (k - 1) + 1


def gen_path(n: int) -> FamilyInstance:
    """The path v_1 - ... - v_n; v_i is id i - 1."""
    if n < 1:
        raise BadParams(f"path needs n >= 1, got {_short_number(n)}")
    _check_size(n)
    tree = _make_tree(n, [(i, i + 1) for i in range(n - 1)])
    return FamilyInstance(tree, "path", f"P_{n}", {"n": n}, rn_path(n) if n >= 4 else None)


def _path_names(n: int) -> dict:
    return {f"v_{i + 1}": i for i in range(n)}


# --- caterpillars C(n, k) --------------------------------------------------

def rn_caterpillar(n: int, k: int) -> int:
    """Closed-form radio number of C(n, k).

    The n = 4 line is the direct improved-bound evaluation 4k+9; the
    exact solver confirms it at small k (see the acceptance tests).
    """
    if n < 3 or k < 1:
        raise OutOfRange(
            f"caterpillar closed form needs n >= 3, k >= 1, got {_got(n=n, k=k)}")
    if n == 3:
        return 3 * k + 7
    if n == 4:
        return 4 * k + 9
    if n % 2 == 1:
        return (n * n + 4 * n * k + 2 * n - 2 * k - 1) // 2
    return (n * n + 4 * n * k + 2 * n - 4 * k - 6) // 2


def _cat_tufts(n: int, k: int) -> list:
    """The leaf tufts of C(n, k) in spine order as (spine id, leaf ids): the
    t-th tuft (t from 0) is ids n + t*k .. n + t*k + k - 1, hung on v_i for i
    in 1, a, a + 2 (n odd) or a + 3 (n even), n, where a = floor((n - 1)/2);
    for n = 3, 4 these coincide in pairs, leaving two tufts."""
    a = (n - 1) // 2
    spots = sorted({1, a, a + 3 - n % 2, n})
    return [(i - 1, range(n + t * k, n + t * k + k)) for t, i in enumerate(spots)]


def gen_caterpillar(n: int, k: int) -> FamilyInstance:
    """Spine v_1..v_n plus k leaves on each designated spine position.

    v_i is id i - 1; the leaves v_{i,j} follow tuft by tuft (:func:`_cat_tufts`).
    """
    if n < 3 or k < 1:
        raise BadParams(f"caterpillar needs n >= 3 and k >= 1, got {_got(n=n, k=k)}")
    tufts = _cat_tufts(n, k)
    _check_size(n + len(tufts) * k)
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += [(s, v) for s, leaves in tufts for v in leaves]
    return FamilyInstance(_make_tree(len(edges) + 1, edges), "caterpillar", f"C({n},{k})",
                          {"n": n, "k": k}, rn_caterpillar(n, k))


def _cat_names(n: int, k: int) -> dict:
    names = [f"v_{i}" for i in range(1, n + 1)]
    names += [f"v_{{{s + 1},{j}}}" for s, _ in _cat_tufts(n, k) for j in range(1, k + 1)]
    return {name: v for v, name in enumerate(names)}


def _cat_order(n: int, k: int, p: int) -> list:
    """The certifying order of C(n, k) on :func:`gen_caterpillar`'s ids, by
    case: n = 3, n = 4, odd n >= 5, even n >= 6 with k >= 2, and even n >= 6
    with k = 1 (where the standard even pattern needs a second leaf per tuft).
    A slot left ``None`` is a construction fault that certification reports."""
    tuft = [leaves for _, leaves in _cat_tufts(n, k)]
    order = [None] * p
    if n == 3:
        # v_2, the tufts of v_3 and v_1 interleaved, then v_3, v_1
        order[0], order[p - 2], order[p - 1] = 1, 2, 0
        order[1:2 * k:2], order[2:2 * k + 1:2] = tuft[1], tuft[0]
    elif n == 4:
        # v_2, v_{4,1}, v_1, v_4, v_{1,1}, the remaining tufts interleaved,
        # then v_3.  The non-remote spine ends v_1, v_4 sit next to neither
        # weight center; the n = 3 pattern puts one there and overshoots the
        # bound by 2.
        order[:5], order[p - 1] = [1, tuft[1][0], 0, 3, n], 2
        order[5:p - 1:2], order[6:p - 1:2] = tuft[1][1:], tuft[0][1:]
    elif n % 2 == 1:
        # v_c, the four tufts interleaved, the spine ends inward, v_{c+1}
        c = (n - 1) // 2
        order[0], order[p - 1] = c - 1, c
        order[1:4 * k:4], order[2:4 * k:4] = tuft[3], tuft[0]
        order[3:4 * k:4], order[4:4 * k + 1:4] = tuft[2], tuft[1]
        order[4 * k + 1:p - 1:2], order[4 * k + 2:p - 1:2] = range(c + 1, n), range(c - 1)
    elif k >= 2:
        # v_{h-1}, v_{n,1}, v_h, v_{n,2}, v_{1,1}, v_{h+1}, v_{1,2}, the four
        # tufts interleaved, v_{h+2,k}, v_{h-1,k}, the spine ends inward,
        # then v_{h+2} (h = n/2)
        h = n // 2
        order[:7] = [h - 2, tuft[3][0], h - 1, tuft[3][1], n, h, tuft[0][1]]
        order[4 * k + 1:4 * k + 3], order[p - 1] = [tuft[2][-1], tuft[1][-1]], h + 1
        order[7:4 * k:4], order[8:4 * k + 1:4] = tuft[2][:-1], tuft[1][:-1]
        order[9:4 * k:4], order[10:4 * k:4] = tuft[3][2:], tuft[0][2:]
        order[4 * k + 3:p - 1:2] = range(n - 1, h + 1, -1)
        order[4 * k + 4:p - 1:2] = range(h - 3, -1, -1)
    else:
        # v_h, v_{n,1}, the two spine halves interleaved, then v_{h-1,1},
        # v_{h+2,1}, v_{1,1}, v_{h+1} (h = n/2)
        h = n // 2
        order[0], order[1] = h - 1, tuft[3][0]
        order[2:n:2], order[3:n:2] = range(h - 1), range(h + 1, n)
        order[n:] = [tuft[1][0], tuft[2][0], n, h]
    return order


def proof_order_caterpillar(inst: FamilyInstance, m: TreeMetrics | None = None) -> tuple:
    """The certifying order for a caterpillar instance, by case on n (see
    :func:`_cat_order`): every (n, k) has a direct construction."""
    n, k = inst.params["n"], inst.params["k"]
    return _certify_or_raise(inst, _cat_order(n, k, inst.tree.p), m)


# --- level-wise regular trees T^z ------------------------------------------

def rn_levelwise(z: int, degrees) -> int:
    """Closed form for T^z with degree list (2, m_1, ..., m_{h-1}), m_i >= 3.

    T^1_{2} (z = 1, h = 1) is the path P_3: its rn 3 lies one below the
    formula's 4, so it is out of range; T^2_{2} = P_4 keeps the formula (5).
    """
    ms = list(degrees)
    h = len(ms)
    if (z not in (1, 2) or h < 1 or ms[0] != 2 or any(m < 3 for m in ms[1:])
            or (z, h) == (1, 1)):
        raise OutOfRange(
            f"level-wise closed form needs z in {{1,2}}, m_0 = 2, m_i >= 3 and, for z = 1, "
            f"h >= 2; got {_got(z=z, degrees=ms)}"
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
        raise OutOfRange(f"binary closed form needs h >= 2, got {_short_number(h)}")
    return 13 * 2 ** (h - 1) - 4 * h - 5


def _levelwise_sizes(ms) -> list:
    """``size[l]``, the vertex count of the subtree under a level-l vertex of
    T^z (l = 1..h; ``size[0]`` is unused).  Each root-branch is numbered in
    preorder, so the child i of a level-l vertex x is x + 1 + i * size[l + 1]."""
    h = len(ms)
    size = [1] * (h + 1)
    for l in range(h - 1, 0, -1):
        size[l] = 1 + (ms[l] - 1) * size[l + 1]
    return size


def _levelwise_edges(z: int, ms) -> list:
    """(parent, child, child index) for every edge below the roots of T^z,
    level by level: the b-th root-branch (b from 0) is headed by id
    z + b * size[1] (:func:`_levelwise_sizes`)."""
    size = _levelwise_sizes(ms)
    per_root = ms[0] - z + 1  # branches under each root: m_0, or m_0 - 1 for z = 2
    level = [(b // per_root, z + b * size[1], b % per_root) for b in range(z * per_root)]
    edges = list(level)
    for l in range(1, len(ms)):
        level = [(v, v + 1 + i * size[l + 1], i) for _, v, _ in level for i in range(ms[l] - 1)]
        edges += level
    return edges


def gen_levelwise(z: int, degrees) -> FamilyInstance:
    """Level-wise regular tree with z roots and per-level degrees m_0..m_{h-1}.

    Vertices are named w_{i1,i2,...,il} (and w'_{...} for the second root's
    side when z = 2) by their child-index path from the root, and numbered in
    preorder: w is id 0 (and w' id 1), then each root-branch in turn
    (:func:`_levelwise_edges`).
    """
    ms = list(degrees)
    h = len(ms)
    if z not in (1, 2) or h < 1 or any(m < 2 for m in ms):
        raise BadParams(
            f"need z in {{1,2}}, h >= 1, all degrees >= 2; got {_got(z=z, degrees=ms)}")
    _check_size(z + z * (ms[0] - z + 1) * _levelwise_sizes(ms)[1])  # z roots, their branches
    edges = [(0, 1)] if z == 2 else []
    edges += [(x, v) for x, v, _ in _levelwise_edges(z, ms)]
    try:
        closed = rn_levelwise(z, ms)
    except OutOfRange:
        closed = None
    deg_str = ",".join(str(m) for m in ms)
    return FamilyInstance(_make_tree(len(edges) + 1, edges), "levelwise", f"T^{z}_{{{deg_str}}}",
                          {"z": z, "degrees": tuple(ms)}, closed)


def _levelwise_names(z: int, degrees) -> dict:
    edges = _levelwise_edges(z, list(degrees))
    names = ["w", "w'"][:z] + [None] * len(edges)
    for x, v, i in edges:  # a parent is named before its children
        names[v] = f"{names[x]}_{{{i}}}" if x < z else f"{names[x][:-1]},{i}}}"
    return {name: v for v, name in enumerate(names)}


def _levelwise_order(z: int, ms) -> list:
    """The order of :func:`proof_order_levelwise` on :func:`gen_levelwise`'s
    ids (:func:`_levelwise_sizes`)."""
    h = len(ms)
    size = _levelwise_sizes(ms)
    levels = [[z]]  # the head of the first branch, w_{0}
    for l in range(1, h):
        levels.append([x + 1 + i * size[l + 1] for i in range(ms[l] - 1) for x in levels[-1]])
    a = list(chain.from_iterable(reversed(levels)))
    b = [x + size[1] for x in a]  # the second branch, w_{1} or w'_{0}
    if z == 2 and h == 1:
        # T^2_{2} is the path P_4: a center, the far leaf, the near leaf, the other center
        return [0, b[0], a[0], 1]
    order = [None] * (2 * len(a) + z)
    if z == 1:
        order[0], order[1::2], order[2::2] = 0, a, b
    else:
        order[:7], order[-1] = [a[-1], b[0], 0, b[1], a[0], 1, a[1]], b[-1]
        order[7:-1:2], order[8:-1:2] = b[2:-1], a[2:-1]
    return order


def proof_order_levelwise(inst: FamilyInstance, m: TreeMetrics | None = None) -> tuple:
    """Certifying order for T^z with m_0 = 2 and all other degrees >= 3.

    Each root-branch (a child w_{i} of a root with all its descendants) is
    listed level by level, the deepest level first and level 1 last.  Within
    a level the first child index below the branch head varies fastest: the
    level-l vertices w_{i,i_2,...,i_l} run through the product of the ranges
    m_{l-1} - 1, ..., m_1 - 1.  For z = 1 the root w comes first, then the
    branches below w_{0} and w_{1} interleaved, w_{0,...} first.  For z = 2,
    with A and B the branches below w and w' (a vertices each), the order is
    A_a, B_1, w, B_2, A_1, w', A_2, then B_i, A_i for i = 3..a-1, then B_a: the
    centers sit at positions 2 and 5.  T^2_{2} is the path P_4, ordered
    w, B_1, A_1, w'.

    The order exists where the closed form does: T^1_{2} is the path P_3,
    whose rn 3 lies below its improved bound, so it has neither.
    """
    z, ms = inst.params["z"], inst.params["degrees"]
    if inst.closed_form_rn is None:
        raise UnsupportedParams(
            f"certifying order needs m_0 = 2, m_i >= 3 and, for z = 1, h >= 2; "
            f"got z={z}, {list(ms)}"
        )
    return _certify_or_raise(inst, _levelwise_order(z, ms), m)


# --- the leg family L^z_{m,h} ----------------------------------------------

def rn_lmh(z: int, m: int, h: int) -> int:
    """Closed form for L^z_{m,h}: 2mh(h-2)+3m+4h-1 (z=1) / +4m+6h-3 (z=2).

    The z = 2 constant is sometimes quoted one higher (6h-2); the certified
    construction, the matching level-wise formula at h = 2, and the exact
    solver on L^2_{2,2} all give 6h-3.
    """
    if z not in (1, 2) or m < 2 or h < 2:
        raise OutOfRange(
            f"leg-family closed form needs m >= 2, h >= 2; got {_got(z=z, m=m, h=h)}")
    if z == 1:
        return 2 * m * h * (h - 2) + 3 * m + 4 * h - 1
    return 2 * m * h * (h - 2) + 4 * m + 6 * h - 3


def _lmh_id(z: int, m: int, h: int, l: int, i: int, j: int) -> int:
    """The id of w^l_{i,j}, the depth-j vertex of w^l's i-th leg (i = 1..m,
    j = 1..h-1): the legs follow the roots and w^1, w^2 one after another,
    each top-down, w^1's first."""
    return z + 2 + ((l - 1) * m + i - 1) * (h - 1) + j - 1


def gen_lmh(z: int, m: int, h: int) -> FamilyInstance:
    """z roots; below them w^1 and w^2, each carrying m legs down to level h.

    Structurally this is T^z with degree list (2, m+1, 2, ..., 2).  Ids:
    r (or r_1, r_2), w^1, w^2, then w^l_{i,j} at
    z + 2 + ((l-1)m + i - 1)(h - 1) + j - 1 (:func:`_lmh_id`).
    """
    if z not in (1, 2) or m < 2 or h < 2:
        raise BadParams(f"need z in {{1,2}}, m >= 2, h >= 2; got {_got(z=z, m=m, h=h)}")
    _check_size(z + 2 + 2 * m * (h - 1))
    # r -- w^1, r -- w^2, or r_1 -- r_2, r_1 -- w^1, r_2 -- w^2
    edges = [(0, 1), (0, 2)] if z == 1 else [(0, 1), (0, 2), (1, 3)]
    for l in (1, 2):
        for i in range(1, m + 1):
            top = _lmh_id(z, m, h, l, i, 1)
            edges.append((z + l - 1, top))
            edges += zip(range(top, top + h - 2), range(top + 1, top + h - 1))
    return FamilyInstance(_make_tree(len(edges) + 1, edges), "lmh", f"L^{z}_{{{m},{h}}}",
                          {"z": z, "m": m, "h": h}, rn_lmh(z, m, h))


def _lmh_names(z: int, m: int, h: int) -> dict:
    names = ["r", "w^1", "w^2"] if z == 1 else ["r_1", "r_2", "w^1", "w^2"]
    names += [f"w^{l}_{{{i},{j}}}" for l in (1, 2) for i in range(1, m + 1) for j in range(1, h)]
    return {name: v for v, name in enumerate(names)}


def _lmh_order(z: int, m: int, h: int, p: int) -> list:
    """The order of :func:`proof_order_lmh` on :func:`gen_lmh`'s ids: the
    legs' vertices row by row, each row alternating w^1 and w^2 leg by leg."""
    order = [None] * p
    leg = h - 1
    for l in (1, 2):
        first = _lmh_id(z, m, h, l, 1, 1)  # w^l_{i,j} is first + (i-1)(h-1) + j-1
        for j in range(1, h):
            # w^1: the leaves in row 0, then depth j in row j; w^2: depth j in row h-1-j
            at = 2 * m * (j % leg if l == 1 else leg - j) + 2 * z + l - 2
            order[at:at + 2 * m:2] = range(first + j - 1, first + m * leg, leg)
    if z == 1:
        order[0], order[p - 2], order[p - 1] = 0, 1, 2  # r first, w^1, w^2 last
    else:
        # w^2, w^1_{1,h-1}, r_2, w^1_{2,h-1}, w^2_{1,h-1}, r_1, w^2_{2,h-1}, ..., w^1
        f1, f2 = _lmh_id(z, m, h, 1, 1, leg), _lmh_id(z, m, h, 2, 1, leg)
        order[:7], order[p - 1] = [3, f1, 1, f1 + leg, f2, 0, f2 + leg], 2
    return order


def proof_order_lmh(inst: FamilyInstance, m: TreeMetrics | None = None) -> tuple:
    """Certifying order for L^z_{m,h} (leaves first, legs bottom-up)."""
    z, legs, h = inst.params["z"], inst.params["m"], inst.params["h"]
    return _certify_or_raise(inst, _lmh_order(z, legs, h, inst.tree.p), m)


# --- random two-branch instances -------------------------------------------

RANDOM_DRAWS = 10000  # uniform trees drawn before gen_random_two_branch gives up


def gen_random_two_branch(n: int, seed: int) -> FamilyInstance:
    """First two-branch tree among the first :data:`RANDOM_DRAWS` of a seeded
    stream of uniform labelled trees, else :class:`ExhaustedAttempts`; each
    vertex is named by its id."""
    if n < 3:
        raise BadParams(f"need n >= 3, got {_short_number(n)}")
    _check_size(n)
    rng = random.Random(seed)
    for _ in range(RANDOM_DRAWS):
        if n == 3:
            tree = _make_tree(3, [(0, 1), (1, 2)])
        else:
            seq = [rng.randrange(n) for _ in range(n - 2)]
            tree = _decode_pruefer(seq)
        if metrics(tree).two_branch:
            return FamilyInstance(tree, "random", f"random2b(n={n},seed={seed})",
                                  {"n": n, "seed": seed}, None)
    raise ExhaustedAttempts(f"no two-branch tree on {n} vertices after {RANDOM_DRAWS} draws")


def _random_names(n: int, seed: int) -> dict:
    return {str(v): v for v in range(n)}


# --- the families by their command-line key ----------------------------------
#
# key: (generator, its parameters in order, names builder taking the same
# parameters, certifying-order constructor or None)
FAMILIES = {
    "path": (gen_path, ("n",), _path_names, None),
    "caterpillar": (gen_caterpillar, ("n", "k"), _cat_names, proof_order_caterpillar),
    "levelwise": (gen_levelwise, ("z", "degrees"), _levelwise_names, proof_order_levelwise),
    "lmh": (gen_lmh, ("z", "m", "h"), _lmh_names, proof_order_lmh),
    "random": (gen_random_two_branch, ("n", "seed"), _random_names, None),
}
