"""Candidate vertex orders and the tightness conditions they must satisfy.

A labelling in increasing label order induces a linear order ``u_0, ..., u_{p-1}``
on the vertices; conversely the certification pipeline starts from a candidate
order and asks whether it can carry an optimal labelling.  This module holds
the combinatorial side of that question:

* *feasible* / *admissible* orders — parity constraints on maximal runs of
  remote vertices, with admissibility additionally pinning remote vertices
  next to the weight centers;
* the *a-sequence* — per-step increments ``a_t in {0, |W|}`` that drive the
  labelling recurrence;
* condition (a) — the endpoint-level case split for tightness of the improved
  bound — and condition (b) — the pairwise distance inequality that makes the
  constructed labelling valid;
* the older tightness conditions for the basic bound (the ``a == 0``
  specialization).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .errors import (
    DiameterTooSmall,
    InfeasibleASequence,
    LengthMismatch,
    NotAPermutation,
    NotTwoBranch,
)
from .tree import CENTER_BRANCH, TreeMetrics


@dataclass(frozen=True)
class ASequence:
    """The step increments a_0..a_{p-2} attached to an order."""

    a: tuple

    def __post_init__(self):
        if self.a and self.a[0] != 0:
            raise InfeasibleASequence("a_0 must be 0")

    @property
    def total(self) -> int:
        return sum(self.a)


class _CheckedOrder(tuple):
    """A tuple that :func:`check_order` has validated: a permutation of the
    vertex ids 0..p-1, where p is its length.  Tuples are immutable, so it
    stays one."""

    __slots__ = ()


def check_order(m: TreeMetrics, order: Sequence) -> tuple:
    """Validate that ``order`` is a permutation of the vertex ids 0..p-1;
    return it as a tuple.

    Ids are ints (not bools, floats or other numbers that compare equal to
    one), so the pair scans downstream index by them without checking again.
    The ids are range-checked before any is used as an index (a -1 would
    index from the end); then p ids in range that mark all p bytes of a
    seen-mark are a permutation, in p bytes rather than two p-sized sets.
    """
    seq = tuple(order)
    p = m.p
    ok = len(seq) == p \
        and not any(not issubclass(k, int) or k is bool for k in set(map(type, seq))) \
        and min(seq) >= 0 and max(seq) < p
    if ok:
        seen = bytearray(p)
        for v in seq:
            seen[v] = 1
        ok = 0 not in seen
    if not ok:
        raise NotAPermutation(f"order {seq!r} is not a permutation of 0..{p - 1}")
    return _CheckedOrder(seq)


def _as_order(m: TreeMetrics, order: Sequence) -> tuple:
    """``order`` itself when :func:`check_order` already returned it for a
    tree with as many vertices, else ``check_order(m, order)``.

    :func:`radiotree.bounds.certify_tightness` checks its order once and hands
    the result to every stage; a stage called directly still checks.
    """
    if type(order) is _CheckedOrder and len(order) == m.p:
        return order
    return check_order(m, order)


def maximal_remote_intervals(m: TreeMetrics, order: Sequence) -> list:
    """Maximal runs of consecutive order positions occupied by remote vertices.

    Returned as (start, end) index pairs, inclusive, ascending.
    """
    seq = _as_order(m, order)
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


def _parity_ok(lengths: list, count: int) -> bool:
    """Even lengths throughout, except one odd run allowed when count is odd."""
    odd = sum(1 for n in lengths if n % 2 == 1)
    if count % 2 == 1:
        return odd == 1
    return odd == 0


def is_feasible(m: TreeMetrics, order: Sequence) -> bool:
    """All maximal remote runs have even length, except one odd run permitted
    when the number of remote vertices is odd."""
    runs = maximal_remote_intervals(m, order)
    lengths = [b - a + 1 for a, b in runs]
    return _parity_ok(lengths, len(m.remote_set))


def is_admissible(m: TreeMetrics, order: Sequence) -> bool:
    """Stronger condition: every order-neighbour of a weight center is remote,
    and the remote vertices not order-adjacent to a center fall in even runs
    (one odd run allowed when their count is odd).  With two centers they must
    additionally sit at order positions i, j with j > i + 2."""
    seq = _as_order(m, order)
    p = len(seq)
    centers = m.weight_centers
    center_positions = sorted(map(seq.index, centers))  # a C-level scan per center

    neighbour_positions = set()
    for i in center_positions:
        for j in (i - 1, i + 1):
            if 0 <= j < p:
                if seq[j] in centers:
                    continue
                if seq[j] not in m.remote_set:
                    return False
                neighbour_positions.add(j)

    if len(center_positions) == 2:
        i, j = center_positions
        if j <= i + 2:
            return False

    # Remaining remote vertices: parity of their maximal runs, with positions
    # consumed by center order-neighbours removed from consideration.  A run
    # continues at i when i - 1 is also a remaining (so remote) position.
    remaining = [
        i for i, u in enumerate(seq)
        if u in m.remote_set and i not in neighbour_positions
    ]
    lengths = []
    run = 0
    prev = None
    for i in remaining:
        if prev is not None and i == prev + 1:
            run += 1
        else:
            if run:
                lengths.append(run)
            run = 1
        prev = i
    if run:
        lengths.append(run)
    return _parity_ok(lengths, len(remaining))


def a_sequence(m: TreeMetrics, order: Sequence) -> ASequence:
    """Compute the step increments for an order.

    a_0 = 0; for t = 1..p-2, a_t = |W| - a_{t-1} when u_t is remote and neither
    order-neighbour is a weight center, else a_t = 0.  Every a_t must stay in
    {0, |W|}.

    The rule fixes where the increments go, so an optimal order whose own
    greedy labels place them elsewhere is not certified.  Example: on the
    p = 13 tree with edges 0-7 1-0 1-2 2-3 3-4 3-6 4-5 7-8 8-9 8-12 9-10
    10-11 (rn 60), the order 0 5 8 3 9 2 12 4 11 1 10 6 7 spans 60 greedily
    with the increment at a_7, but this rule gives a_8 = 1 (u_8 = 11 is
    remote), and condition (b) fails.
    """
    if not m.two_branch:
        raise NotTwoBranch("a-sequence is defined for two-branch trees only")
    seq = _as_order(m, order)
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


def check_condition_a(m: TreeMetrics, order: Sequence) -> tuple:
    """Endpoint-level condition (a) for tightness of the improved bound.

    Returns (ok, diagnostic).  The case split follows |W| and the parity of
    the remote count: one center with odd |S| wants endpoint level sum 1 and
    an admissible order; one center with even |S| also accepts sum 1 with a
    merely feasible order, or sum 2 with an admissible one; two centers want
    an admissible order with endpoint sum 0 (|S| <= 2), 1 (odd |S| >= 3), or
    0 or 2 (even |S| >= 4).
    """
    if not m.two_branch:
        raise NotTwoBranch("condition (a) is defined for two-branch trees only")
    if m.diameter < 2:
        raise DiameterTooSmall("condition (a) needs diameter >= 2")
    seq = _as_order(m, order)
    end_sum = m.level[seq[0]] + m.level[seq[-1]]
    s = len(m.remote_set)
    w = len(m.weight_centers)

    if w == 1:
        if s % 2 == 1:
            ok = end_sum == 1 and is_admissible(m, seq)
            want = "endpoint level sum 1 with an admissible order"
        else:
            ok = (end_sum == 1 and (is_feasible(m, seq) or is_admissible(m, seq))) \
                or (end_sum == 2 and is_admissible(m, seq))
            want = "sum 1 with a feasible order, or sum 2 with an admissible order"
    else:
        if s <= 2:
            allowed = {0}
        elif s % 2 == 1:
            allowed = {1}
        else:
            allowed = {0, 2}
        ok = end_sum in allowed and is_admissible(m, seq)
        want = f"endpoint level sum in {sorted(allowed)} with an admissible order"
    diag = "ok" if ok else (
        f"endpoint level sum {end_sum}, |S|={s}, |W|={w}; wanted {want}"
    )
    return ok, diag


def _condition_b_core(m: TreeMetrics, seq: tuple, a: tuple) -> tuple:
    """Shared pairwise check: d(u_i, u_j) >= prefix-sum RHS + (d+1).

    Distinct vertices are at least 1 apart, so a pair with RHS <= 1 cannot
    fail: it is skipped, and the scan over j stops once every RHS ahead is
    <= 1.  The first violating pair is still the all-pairs scan's.

    ``seq`` must be a permutation of the vertex ids (the callers pass what
    :func:`check_order` returned), so the loop indexes the per-vertex tuples
    without checks.  A pair in different branches of T - W, or with a weight
    center in it, is ``L(u) + L(v) + delta`` apart (phi is 0), read off the
    per-position lists; only a pair inside one branch calls
    :meth:`TreeMetrics.distance`, whose phi climbs parent pointers.  A
    certifying order alternates between the two branches, so most pairs take
    the first route.
    """
    p = len(seq)
    diam = m.diameter
    de = diam + m.epsilon
    level, distance = m.level, m.distance
    # per order position: level, part (the branch of T - W, or for a weight
    # center a part of its own) and nearest center
    lev = [level[v] for v in seq]
    part = [m.branch_id[v] if m.branch_id[v] != CENTER_BRANCH else -1 - v for v in seq]
    cen = [m.center_of[v] for v in seq]
    # prefix[j] - prefix[i] = sum_{t=i}^{j-1} (L(u_t)+L(u_{t+1}) - a_t - (d+eps))
    prefix = [0, *accumulate([x + y - at - de for x, y, at in zip(lev, lev[1:], a)])]
    ahead = list(accumulate(reversed(prefix), max))[::-1]  # ahead[j] = max(prefix[j:])
    for i in range(p - 1):
        base = prefix[i] - diam - 1  # rhs(i, j) = prefix[j] - base
        lu, pu, cu = lev[i], part[i], cen[i]
        for j in range(i + 1, p):
            if ahead[j] - base <= 1:
                break
            rhs = prefix[j] - base
            if rhs <= 1:
                continue
            if pu != part[j]:  # phi = 0
                if lu + lev[j] + (cu != cen[j]) < rhs:
                    return False, (i, j)
            elif distance(seq[i], seq[j]) < rhs:  # one branch: phi climbs
                return False, (i, j)
    return True, None


def check_condition_b(m: TreeMetrics, order: Sequence, aseq: ASequence) -> tuple:
    """Pairwise distance condition (b) under the given a-sequence.

    Returns (ok, first violating (i, j) or None), first in lexicographic order.
    """
    seq = _as_order(m, order)
    if len(aseq.a) != len(seq) - 1:
        raise LengthMismatch(
            f"a-sequence length {len(aseq.a)} for order length {len(seq)}"
        )
    return _condition_b_core(m, seq, aseq.a)


def check_ddb_conditions(m: TreeMetrics, order: Sequence) -> tuple:
    """Tightness conditions for the *basic* bound (the a == 0 specialization).

    Condition (a): the order starts at the weight center and ends at one of
    its neighbours (one center), or starts and ends at the two centers.
    Condition (b): the pairwise inequality with all increments zero.
    Returns (ok, diagnostic).
    """
    if m.diameter < 2:
        raise DiameterTooSmall("basic-bound conditions need diameter >= 2")
    seq = _as_order(m, order)
    first, last = seq[0], seq[-1]
    if len(m.weight_centers) == 1:
        (w,) = m.weight_centers
        cond_a = first == w and last in m.tree.adjacency[w]
        want = "order must run from the weight center to one of its neighbours"
    else:
        cond_a = {first, last} == set(m.weight_centers)
        want = "order must run from one weight center to the other"
    if not cond_a:
        return False, want
    ok, pair = _condition_b_core(m, seq, (0,) * (len(seq) - 1))
    if not ok:
        return False, f"pairwise distance condition fails at positions {pair}"
    return True, "ok"
