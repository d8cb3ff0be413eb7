"""Lower-bound formulas and the optimality certification pipeline.

Two bounds apply to a two-branch tree of order p, diameter d >= 2, with
epsilon = 2 - |W| and total level L(T):

* basic:    rn(T) >= (p-1)(d+epsilon) - 2L(T) + epsilon
* improved: basic + xi(T), where xi counts remote vertices.

The basic bound is provably slack whenever |S| > |W| (the strict-gap
predicate).  :func:`certify_tightness` turns a candidate vertex order into a
constructive proof that the improved bound is attained: it checks the
endpoint condition (a), derives the a-sequence, enforces the bookkeeping
identity L(u_0) + L(u_{p-1}) + sum(a) == epsilon + xi, checks the pairwise
condition (b), builds the closed-form labelling, and independently re-verifies
it — failing loudly at the first stage that does not hold.

For comparison, the module also implements two earlier lower bounds for trees
with a degree-2 weight center (one for even and one for odd diameter), stated
over the level sets of the two components of T - x.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    CertificationFailure,
    DHalfTooSmall,
    DiameterTooSmall,
    InfeasibleASequence,
    NegativeLabel,
    NotOmegaTree,
    NotTwoBranch,
)
from .labelling import RadioLabelling, label_from_order, verify_labelling
from .orders import a_sequence, check_condition_a, check_condition_b, check_order
from .tree import Tree, TreeMetrics, _bfs, metrics


def lower_bound_basic(m: TreeMetrics) -> int:
    """(p-1)(d+epsilon) - 2L(T) + epsilon, valid for any tree with d >= 2."""
    if m.diameter < 2:
        raise DiameterTooSmall("basic bound needs diameter >= 2")
    return (m.p - 1) * (m.diameter + m.epsilon) - 2 * m.total_level + m.epsilon


def lower_bound_improved(m: TreeMetrics) -> int:
    """basic + xi, valid for two-branch trees with d >= 2."""
    if not m.two_branch:
        raise NotTwoBranch("improved bound applies to two-branch trees only")
    return lower_bound_basic(m) + m.xi


def strict_gap_predicate(m: TreeMetrics) -> bool:
    """True iff |S| > |W|, which forces rn to exceed the basic bound."""
    if not m.two_branch:
        raise NotTwoBranch("strict-gap predicate applies to two-branch trees only")
    if m.diameter < 2:
        raise DiameterTooSmall("strict-gap predicate needs diameter >= 2")
    return len(m.remote_set) > len(m.weight_centers)


def certify_tightness(m: TreeMetrics, order: Sequence) -> RadioLabelling:
    """Certify that the improved bound is attained, via the given order.

    Returns the constructed labelling (span == improved bound, independently
    verified) or raises :class:`CertificationFailure` naming the first failed
    stage: condition_a, a_sequence, combined_sum, condition_b, construction,
    or verification.

    A failure says only that *this* order does not certify, not that the
    bound is missed: an optimal order need not certify.  On the p = 13 tree
    with edges 0-7 1-0 1-2 2-3 3-4 3-6 4-5 7-8 8-9 8-12 9-10 10-11 (rn 60,
    the improved bound), the order 0 5 8 3 9 2 12 4 11 1 10 6 7 has a greedy
    labelling of span 60, yet fails condition (b): its greedy labels put the
    xi increment one step before the remote vertex, where :func:`a_sequence`
    puts it on the remote vertex.  So ``radiotree certify`` on the order of
    an optimal labelling can exit 1.
    """
    # the one order check: each stage takes the checked tuple as it is
    seq = check_order(m, order)
    ok, diag = check_condition_a(m, seq)
    if not ok:
        raise CertificationFailure("condition_a", diag)
    try:
        aseq = a_sequence(m, seq)
    except InfeasibleASequence as exc:
        raise CertificationFailure("a_sequence", str(exc)) from exc
    end_sum = m.level[seq[0]] + m.level[seq[-1]]
    if end_sum + aseq.total != m.epsilon + m.xi:
        raise CertificationFailure(
            "combined_sum",
            f"endpoint level sum {end_sum} + sum(a) {aseq.total} "
            f"!= epsilon {m.epsilon} + xi {m.xi}",
        )
    ok, pair = check_condition_b(m, seq, aseq)
    if not ok:
        raise CertificationFailure("condition_b", f"violated at positions {pair}")
    try:
        lab = label_from_order(m, seq, aseq)
    except NegativeLabel as exc:
        raise CertificationFailure("construction", str(exc)) from exc
    ok, pair = verify_labelling(m.tree, lab)
    if not ok:
        raise CertificationFailure("verification", f"radio condition fails at pair {pair}")
    target = lower_bound_improved(m)
    if lab.span != target:
        raise CertificationFailure(
            "verification", f"span {lab.span} != improved bound {target}"
        )
    return lab


@dataclass(frozen=True)
class BoundReport:
    """All bound values and tightness flags for one tree."""

    p: int
    diameter: int
    epsilon: int
    total_level: int
    remote_count: int
    xi: int
    basic: int
    improved: int | None
    strict_gap: bool | None


def bound_report(m: TreeMetrics) -> BoundReport:
    basic = lower_bound_basic(m)
    if m.two_branch:
        improved = lower_bound_improved(m)
        gap = strict_gap_predicate(m)
    else:
        improved = None
        gap = None
    return BoundReport(
        p=m.p,
        diameter=m.diameter,
        epsilon=m.epsilon,
        total_level=m.total_level,
        remote_count=len(m.remote_set),
        xi=m.xi,
        basic=basic,
        improved=improved,
        strict_gap=gap,
    )


# --- comparison bounds for trees with a degree-2 weight center -------------

def _split_at(tree: Tree, x: int) -> list:
    """Level sets of the two components of T - x: list of two dicts
    depth -> count, one per neighbour of x in ascending order (depth is the
    distance from x)."""
    dist, parent, order = _bfs(tree.adjacency, [x])
    sides = {s: Counter() for s in tree.adjacency[x]}
    side = {}  # vertex -> the neighbour of x it hangs from
    for v in order[1:]:
        side[v] = v if parent[v] == x else side[parent[v]]
        sides[side[v]][dist[v]] += 1
    return [dict(c) for c in sides.values()]


def _check_omega_vertex(tree: Tree, m: TreeMetrics, x: int) -> None:
    tree.check_vertex(x)
    if x not in m.weight_centers or len(tree.adjacency[x]) != 2:
        raise NotOmegaTree(f"vertex {x} is not a degree-2 weight center")


def liu_bound_even(tree: Tree, x: int) -> int:
    """Earlier lower bound for even diameter 2*dh and a degree-2 weight
    center x.

    With L_i, R_i the level sets of the two components of T - x: when both
    components reach depth dh, the bound is (p-1)(2dh+1) - 2w(x) +
    max{|L_dh|, |R_dh|} (or + 1 + |R_dh| when the two counts are equal);
    when only one side reaches depth dh, that side is R and the bound is
    (p-1)(2dh+1) - 2w(x) + max{ceil((sum_i (2i+1)|R_{dh+i}| - 2)/2), 1}.
    """
    m = metrics(tree)
    _check_omega_vertex(tree, m, x)
    if m.diameter % 2 != 0:
        raise NotOmegaTree(f"even-diameter bound on diameter {m.diameter}")
    dh = m.diameter // 2
    side_a, side_b = _split_at(tree, x)
    w = m.vertex_weight[x]
    base = (tree.p - 1) * (2 * dh + 1) - 2 * w
    ca, cb = side_a.get(dh, 0), side_b.get(dh, 0)
    if ca and cb:
        if ca != cb:
            return base + max(ca, cb)
        return base + 1 + cb
    right = side_b if cb else side_a
    h = max(right) if right else 0
    total = sum((2 * i + 1) * right.get(dh + i, 0) for i in range(0, h - dh + 1))
    return base + max(-((2 - total) // 2), 1)


def liu_bound_odd(tree: Tree, x: int) -> int:
    """Earlier lower bound for odd diameter 2*dh + 1 (dh >= 2) and a degree-2
    weight center x.

    R is the unique component of T - x reaching depth beyond dh.  When the
    eccentricity of x is dh+1 the bound is (p-1)(2dh+2) - 2w(x) +
    max{2|R_{dh+1}| - 5, 1}; when it is larger, + sum_{i>=1} (i+1)|R_{dh+i}|
    - 2 instead.
    """
    m = metrics(tree)
    _check_omega_vertex(tree, m, x)
    if m.diameter % 2 != 1:
        raise NotOmegaTree(f"odd-diameter bound on diameter {m.diameter}")
    dh = m.diameter // 2
    if dh < 2:
        raise DHalfTooSmall(f"odd-diameter bound needs half-diameter >= 2, got {dh}")
    side_a, side_b = _split_at(tree, x)
    deep_a = max(side_a) > dh
    deep_b = max(side_b) > dh
    if deep_a == deep_b:
        raise NotOmegaTree("expected exactly one component deeper than half the diameter")
    right = side_a if deep_a else side_b
    h = max(right)  # eccentricity of x: R is the deeper side
    w = m.vertex_weight[x]
    base = (tree.p - 1) * (2 * dh + 2) - 2 * w
    if h == dh + 1:
        return base + max(2 * right.get(dh + 1, 0) - 5, 1)
    total = sum((i + 1) * right.get(dh + i, 0) for i in range(1, h - dh + 1))
    return base + total - 2
