"""Lower-bound formulas and the optimality certification pipeline.

Two bounds apply to a two-branch tree of order p and diameter d, with
epsilon = 2 - |W| and total level L(T):

* basic:    rn(T) >= (p-1)(d+epsilon) - 2L(T) + epsilon
* improved: basic + xi(T), where xi counts remote vertices.

The basic bound is provably slack whenever |S| > |W| (the strict-gap
predicate).  :func:`certify_tightness` turns a candidate vertex order into a
constructive proof that the improved bound is attained: it checks the
endpoint condition (a), derives the a-sequence, enforces the bookkeeping
identity L(u_0) + L(u_{p-1}) + sum(a) == epsilon + xi, checks the pairwise
condition (b), builds the closed-form labelling, and independently re-verifies
it — failing loudly at the first stage that does not hold.  Three stages can
fail: condition_a, combined_sum and condition_b.  The fourth, verification,
is the independent re-check, and cannot fail once condition (b) and the
combined sum hold: condition (b) on labels that strictly increase is the
radio condition, and the combined sum makes f_{p-1} equal to the improved
bound.  Deriving the a-sequence and building the labelling cannot fail
either: every a_t is 0 or |W|, and a labelling whose order meets
condition (b) has no negative label.  A family's proof order
(``radiotree.families.proof_order_*``) reports two more stages through the
same :class:`CertificationFailure`: positions, for a table that is not a
permutation of the vertex ids, and span, for a certified span that is not
the family's closed form.

Each job is done once: one order check, one byte string of remote and one
of free positions for condition (a) and the a-sequence, one list of labels
for condition (b) and the labelling returned, and one scan of condition (b)
unless it fails on labels that do not strictly increase.

For comparison, the module also implements two earlier lower bounds for trees
with a degree-2 weight center (one for even and one for odd diameter), stated
over the level sets of the two components of T - x.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from .errors import (
    CertificationFailure,
    DiameterTooSmall,
    NotOmegaTree,
    NotTwoBranch,
)
from .labelling import RadioLabelling, verify_labelling
from .orders import (
    _a_sequence,
    _condition_a,
    _condition_a_applies,
    _condition_b_on_labels,
    _free_flags,
    _levels_and_labels,
    _remote_flags,
    check_order,
)
from .tree import CENTER_BRANCH, TreeMetrics


def lower_bound_basic(m: TreeMetrics) -> int:
    """(p-1)(d+epsilon) - 2L(T) + epsilon, valid for any tree with d >= 2."""
    if m.diameter < 2:
        raise DiameterTooSmall("basic bound needs diameter >= 2")
    return (m.p - 1) * (m.diameter + m.epsilon) - 2 * m.total_level + m.epsilon


def lower_bound_improved(m: TreeMetrics) -> int:
    """basic + xi, valid for two-branch trees."""
    if not m.two_branch:
        raise NotTwoBranch("improved bound applies to two-branch trees only")
    return lower_bound_basic(m) + m.xi


def strict_gap_predicate(m: TreeMetrics) -> bool:
    """True iff |S| > |W|, which forces rn to exceed the basic bound."""
    if not m.two_branch:
        raise NotTwoBranch("strict-gap predicate applies to two-branch trees only")
    return len(m.remote_set) > len(m.weight_centers)


def certify_tightness(m: TreeMetrics, order: Sequence) -> RadioLabelling:
    """Certify that the improved bound is attained, via the given order.

    Returns the constructed labelling (span == improved bound, independently
    verified) or raises :class:`CertificationFailure` naming the first failed
    stage: condition_a, combined_sum or condition_b.  The last stage,
    verification, re-checks the labels and their span independently; it
    cannot fail once condition (b) and the combined sum hold, since
    condition (b) on labels that strictly increase is the radio condition and
    the combined sum makes the last label equal to the improved bound.  The
    a-sequence cannot fail (every a_t is 0 or |W|), and neither can the
    labelling once condition (b) holds (see the comment in
    :func:`_certified_labels`).

    The stages share their work: the remote and free flags of the order
    serve condition (a) and the a-sequence, and the labels that condition (b)
    checks are the labels returned, with no second pass of
    :func:`radiotree.labelling.label_from_order`.  The order is checked
    once, by :func:`radiotree.orders.check_order`, which raises
    :class:`NotAPermutation` if it is not a permutation of 0..p-1.

    A failure says only that *this* order does not certify, not that the
    bound is missed: an optimal order need not certify.  On the p = 13 tree
    with edges 0-7 1-0 1-2 2-3 3-4 3-6 4-5 7-8 8-9 8-12 9-10 10-11 (rn 60,
    the improved bound), the order 0 5 8 3 9 2 12 4 11 1 10 6 7 has a greedy
    labelling of span 60, yet fails condition (b): its greedy labels put the
    xi increment one step before the remote vertex, where :func:`a_sequence`
    puts it on the remote vertex.  So ``radiotree certify`` on the order of
    an optimal labelling can exit 1.
    """
    seq = check_order(m, order)
    lab = RadioLabelling(labels=dict(zip(seq, _certified_labels(m, seq))))
    ok, pair = verify_labelling(m.tree, lab)
    if not ok:
        raise CertificationFailure("verification", f"radio condition fails at pair {pair}")
    target = lower_bound_improved(m)
    if lab.span != target:
        raise CertificationFailure(
            "verification", f"span {lab.span} != improved bound {target}"
        )
    return lab


def _certified_labels(m: TreeMetrics, seq: tuple) -> list:
    """The labels of ``seq``, position by position, once condition (a), the
    combined sum and condition (b) hold; else :class:`CertificationFailure`
    at the first that does not.  The flags, levels and a-sequence built here
    are freed before the caller verifies."""
    _condition_a_applies(m)
    remote = _remote_flags(m, seq)
    free = _free_flags(m, seq, remote)
    ok, diag = _condition_a(m, seq, remote, free)
    if not ok:
        raise CertificationFailure("condition_a", diag)
    aseq = _a_sequence(m, seq, free)
    end_sum = m.level[seq[0]] + m.level[seq[-1]]
    if end_sum + aseq.total != m.epsilon + m.xi:
        raise CertificationFailure(
            "combined_sum",
            f"endpoint level sum {end_sum} + sum(a) {aseq.total} "
            f"!= epsilon {m.epsilon} + xi {m.xi}",
        )
    lev, f = _levels_and_labels(m, seq, aseq.a)
    ok, pair = _condition_b_on_labels(m, seq, lev, f)
    if not ok:
        raise CertificationFailure("condition_b", f"violated at positions {pair}")
    # No label is negative: were f_t < 0 = f_0, the pair (0, t) would have
    # f_t - f_0 + d(u_0, u_t) <= -1 + diam, and condition (b) would have
    # failed there.  Condition (b) even makes the labels strictly increase.
    return f


def bound_report(m: TreeMetrics) -> dict:
    """The metrics and bounds of ``m``, as the CLI reports them: a bound that
    does not apply (all three below diameter 2, the improved bound and the
    strict gap on a tree that is not two-branch) is None."""
    basic = improved = gap = None
    if m.diameter >= 2:
        basic = lower_bound_basic(m)
    if m.two_branch:
        improved = lower_bound_improved(m)
        gap = strict_gap_predicate(m)
    return {
        "p": m.p,
        "diameter": m.diameter,
        "weight_centers": sorted(m.weight_centers),
        "epsilon": m.epsilon,
        "total_level": m.total_level,
        "remote_count": len(m.remote_set),
        "xi": m.xi,
        "two_branch": m.two_branch,
        "bound_basic": basic,
        "bound_improved": improved,
        "strict_gap": gap,
    }


# --- comparison bounds for trees with a degree-2 weight center -------------

def _sides_at(m: TreeMetrics, x: int) -> list:
    """Level sets of the two components of T - x, for a degree-2 weight
    center x: a Counter depth -> count per neighbour of x in ascending order,
    depth being the distance from x.  They are read off the levels.  With
    one center, the sides are x's two branches, at depth L(v).  With two,
    x's own side is its one branch, at depth L(v), and the other side is
    every vertex nearer the other center, at depth L(v) + 1."""
    center_of, branch = m.center_of, m.branch_id
    sides = {branch[s] if center_of[s] == x else CENTER_BRANCH: Counter()
             for s in m.tree.adjacency[x]}
    for v, (c, b, l) in enumerate(zip(center_of, branch, m.level)):
        if c != x:
            sides[CENTER_BRANCH][l + 1] += 1
        elif v != x:
            sides[b][l] += 1
    return list(sides.values())


def _liu_frame(m: TreeMetrics, x: int, parity: int) -> tuple:
    """``(dh, side_a, side_b, w)`` for the comparison bound of diameter
    parity ``parity`` (0 even, 1 odd) at x: the half-diameter, the level sets
    of :func:`_sides_at` and w(x) read off them.  Raises
    :class:`NotOmegaTree` unless x is a degree-2 weight center and the
    diameter has that parity, and :class:`DiameterTooSmall` below
    half-diameter 2: the one such tree with d = 2 is P_3, whose rn 3 is
    below the even formula's 4."""
    m.tree.check_vertex(x)
    if x not in m.weight_centers or len(m.tree.adjacency[x]) != 2:
        raise NotOmegaTree(f"vertex {x} is not a degree-2 weight center")
    name = ("even", "odd")[parity]
    if m.diameter % 2 != parity:
        raise NotOmegaTree(f"{name}-diameter bound on diameter {m.diameter}")
    dh = m.diameter // 2
    if dh < 2:
        raise DiameterTooSmall(f"{name}-diameter bound needs half-diameter >= 2, got {dh}")
    side_a, side_b = _sides_at(m, x)
    w = sum(i * c for side in (side_a, side_b) for i, c in side.items())
    return dh, side_a, side_b, w


def liu_bound_even(m: TreeMetrics, x: int) -> int:
    """Earlier lower bound for even diameter 2*dh (dh >= 2) and a degree-2
    weight center x.

    With L_i, R_i the level sets of the two components of T - x, and w(x) =
    sum_i i(|L_i| + |R_i|) read off them: when both components reach depth
    dh, the bound is (p-1)(2dh+1) - 2w(x) + max{|L_dh|, |R_dh|} (or + 1 +
    |R_dh| when the two counts are equal); when only one side reaches depth
    dh, that side is R and the bound is (p-1)(2dh+1) - 2w(x) +
    max{ceil((sum_i (2i+1)|R_{dh+i}| - 2)/2), 1}.
    """
    dh, side_a, side_b, w = _liu_frame(m, x, 0)
    base = (m.p - 1) * (2 * dh + 1) - 2 * w
    ca, cb = side_a.get(dh, 0), side_b.get(dh, 0)
    if ca and cb:
        if ca != cb:
            return base + max(ca, cb)
        return base + 1 + cb
    right = side_b if cb else side_a
    h = max(right)
    total = sum((2 * i + 1) * right.get(dh + i, 0) for i in range(0, h - dh + 1))
    return base + max(-((2 - total) // 2), 1)


def liu_bound_odd(m: TreeMetrics, x: int) -> int:
    """Earlier lower bound for odd diameter 2*dh + 1 (dh >= 2) and a degree-2
    weight center x.

    R is the unique component of T - x reaching depth beyond dh.  When the
    eccentricity of x is dh+1 the bound is (p-1)(2dh+2) - 2w(x) +
    max{2|R_{dh+1}| - 5, 1}; when it is larger, + sum_{i>=1} (i+1)|R_{dh+i}|
    - 2 instead.  w(x) is read off the level sets, as in :func:`liu_bound_even`.
    """
    dh, side_a, side_b, w = _liu_frame(m, x, 1)
    # Exactly one side reaches depth dh + 1: were both to, two vertices would
    # be 2dh + 2 apart; were neither, every vertex would lie within dh of x
    # and the diameter would be at most 2dh.
    right = max(side_a, side_b, key=max)
    h = max(right)  # eccentricity of x: R is the deeper side
    base = (m.p - 1) * (2 * dh + 2) - 2 * w
    if h == dh + 1:
        return base + max(2 * right.get(dh + 1, 0) - 5, 1)
    total = sum((i + 1) * right.get(dh + i, 0) for i in range(1, h - dh + 1))
    return base + total - 2
