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

An order's remote and free positions are flags, one byte per position, and
the runs are read off them by C-level ``bytes`` methods, with no Python loop
per run: ``replace(b"\\1\\1", b"\\1\\2")`` makes every second 1 of each run a 2,
which marks the odd runs and the a-sequence's alternation at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, islice
from operator import lt
from typing import Sequence

from .errors import (
    DiameterTooSmall,
    InfeasibleASequence,
    LengthMismatch,
    NotAPermutation,
    NotTwoBranch,
)
from .tree import TreeMetrics


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
        raise _not_a_permutation(seq, p)
    return seq


def _not_a_permutation(seq: tuple, p: int) -> NotAPermutation:
    # A position is bad when it is beyond p - 1, holds no vertex id or
    # repeats an earlier id, and so is each slot past the end of a short
    # order.  Only the first few are named: the order may be huge.
    seen, bad = bytearray(p), []
    for t, v in enumerate(seq):
        if t < p and isinstance(v, int) and type(v) is not bool and 0 <= v < p and not seen[v]:
            seen[v] = 1
        else:
            bad.append(t)
    bad += range(len(seq), p)
    return NotAPermutation(
        f"bad order positions {bad[:5]} ({len(bad)} in all); an order is a permutation of 0..{p - 1}"
    )


def _runs(flags: bytes) -> list:
    """Maximal runs of 1s in ``flags`` (bytes of 0s and 1s) as (start, end)
    index pairs, inclusive, ascending: the nonempty pieces between 0s."""
    runs, start = [], 0
    for piece in flags.split(b"\0"):
        if piece:
            runs.append((start, start + len(piece) - 1))
        start += len(piece) + 1
    return runs


def _remote_flags(m: TreeMetrics, seq: tuple) -> bytes:
    """One byte per order position: 1 where a remote vertex sits, else 0."""
    return bytes(map(m.remote_set.__contains__, seq))


def _free_flags(m: TreeMetrics, seq: tuple, remote: bytes) -> bytes:
    """The ``remote`` flags of ``seq`` with each weight center's
    order-neighbours cleared: 1 exactly at the *free* positions, a remote
    vertex with no weight center as an order-neighbour."""
    free = bytearray(remote)
    for i in map(seq.index, m.weight_centers):  # a C-level scan per center
        for j in (i - 1, i + 1):
            if 0 <= j < len(seq):
                free[j] = 0
    return bytes(free)


def maximal_remote_intervals(m: TreeMetrics, order: Sequence) -> list:
    """Maximal runs of consecutive order positions occupied by remote vertices.

    Returned as (start, end) index pairs, inclusive, ascending.
    """
    return _runs(_remote_flags(m, check_order(m, order)))


def _parity_ok(flags: bytes, count: int) -> bool:
    """The runs of 1s in ``flags`` are even, except one odd run allowed when
    ``count`` (the number of 1s) is odd.  ``replace`` pairs each run's 1s
    from its first position on, as it matches left to right without overlap,
    so a run ends on an unpaired 1 exactly when its length is odd."""
    alt = flags.replace(b"\1\1", b"\1\2")
    return alt.count(b"\1\0") + alt.endswith(b"\1") == count % 2


def is_feasible(m: TreeMetrics, order: Sequence) -> bool:
    """All maximal remote runs have even length, except one odd run permitted
    when the number of remote vertices is odd."""
    return _parity_ok(_remote_flags(m, check_order(m, order)), len(m.remote_set))


def _admissible(m: TreeMetrics, seq: tuple, free: bytes) -> bool:
    """:func:`is_admissible` on an order and its free flags."""
    centers = m.weight_centers
    slots = sorted(map(seq.index, centers))
    for i in slots:
        for j in (i - 1, i + 1):
            if 0 <= j < len(seq) and seq[j] not in centers and seq[j] not in m.remote_set:
                return False
    if len(slots) == 2 and slots[1] <= slots[0] + 2:
        return False
    return _parity_ok(free, free.count(1))


def is_admissible(m: TreeMetrics, order: Sequence) -> bool:
    """Stronger condition: every order-neighbour of a weight center is remote,
    and the remote vertices not order-adjacent to a center fall in even runs
    (one odd run allowed when their count is odd).  With two centers they must
    additionally sit at order positions i, j with j > i + 2."""
    seq = check_order(m, order)
    return _admissible(m, seq, _free_flags(m, seq, _remote_flags(m, seq)))


def _a_sequence(m: TreeMetrics, seq: tuple, free: bytes) -> ASequence:
    """:func:`a_sequence` on an order and its free flags.  Positions 0 and
    p - 1 do not count as free: a_0 = 0, and there is no a_{p-1}.  Each run
    of the other free positions, its 1s paired as in :func:`_parity_ok`,
    keeps a 1 on its first position and every other one after it, where
    a_t = |W|; a_t = 0 on the 2s and the 0s."""
    inner = bytearray(free)
    inner[0] = inner[-1] = 0
    alt = inner.replace(b"\1\1", b"\1\2")[:-1]
    w = len(m.weight_centers)
    return ASequence(a=tuple(alt.translate(bytes.maketrans(b"\1\2", bytes((w, 0))))))


def a_sequence(m: TreeMetrics, order: Sequence) -> ASequence:
    """Compute the step increments for an order.

    a_0 = 0; for t = 1..p-2, a_t = |W| - a_{t-1} when u_t is *free* (remote,
    and neither order-neighbour is a weight center), else a_t = 0.  A run of
    free positions follows a position whose a is 0, so a_t = |W| on the
    run's first position and every other one after it, and a_t is always in
    {0, |W|}.

    The rule fixes where the increments go, so an optimal order whose own
    greedy labels place them elsewhere is not certified.  Example: on the
    p = 13 tree with edges 0-7 1-0 1-2 2-3 3-4 3-6 4-5 7-8 8-9 8-12 9-10
    10-11 (rn 60), the order 0 5 8 3 9 2 12 4 11 1 10 6 7 spans 60 greedily
    with the increment at a_7, but this rule gives a_8 = 1 (u_8 = 11 is
    remote), and condition (b) fails.
    """
    return _order_and_a_sequence(m, order)[1]


def _order_and_a_sequence(m: TreeMetrics, order: Sequence) -> tuple:
    """``(seq, aseq)``: the order as :func:`check_order` returns it, and its
    :func:`a_sequence`."""
    if not m.two_branch:
        raise NotTwoBranch("a-sequence is defined for two-branch trees only")
    seq = check_order(m, order)
    return seq, _a_sequence(m, seq, _free_flags(m, seq, _remote_flags(m, seq)))


def _condition_a_applies(m: TreeMetrics) -> None:
    if not m.two_branch:
        raise NotTwoBranch("condition (a) is defined for two-branch trees only")


def _condition_a(m: TreeMetrics, seq: tuple, remote: bytes, free: bytes) -> tuple:
    """:func:`check_condition_a` on an order, its remote flags and its free
    flags, on a tree it applies to."""
    end_sum = m.level[seq[0]] + m.level[seq[-1]]
    s = len(m.remote_set)
    w = len(m.weight_centers)

    if w == 1:
        if s % 2 == 1:
            ok = end_sum == 1 and _admissible(m, seq, free)
            want = "endpoint level sum 1 with an admissible order"
        else:
            ok = (end_sum == 1 and (_parity_ok(remote, s) or _admissible(m, seq, free))) \
                or (end_sum == 2 and _admissible(m, seq, free))
            want = "sum 1 with a feasible order, or sum 2 with an admissible order"
    else:
        if s <= 2:
            allowed = {0}
        elif s % 2 == 1:
            allowed = {1}
        else:
            allowed = {0, 2}
        ok = end_sum in allowed and _admissible(m, seq, free)
        want = f"endpoint level sum in {sorted(allowed)} with an admissible order"
    diag = "ok" if ok else (
        f"endpoint level sum {end_sum}, |S|={s}, |W|={w}; wanted {want}"
    )
    return ok, diag


def check_condition_a(m: TreeMetrics, order: Sequence) -> tuple:
    """Endpoint-level condition (a) for tightness of the improved bound.

    Returns (ok, diagnostic).  The case split follows |W| and the parity of
    the remote count: one center with odd |S| wants endpoint level sum 1 and
    an admissible order; one center with even |S| also accepts sum 1 with a
    merely feasible order, or sum 2 with an admissible one; two centers want
    an admissible order with endpoint sum 0 (|S| <= 2), 1 (odd |S| >= 3), or
    0 or 2 (even |S| >= 4).
    """
    _condition_a_applies(m)
    seq = check_order(m, order)
    remote = _remote_flags(m, seq)
    return _condition_a(m, seq, remote, _free_flags(m, seq, remote))


def _labels(m: TreeMetrics, lev: list, a: Sequence) -> list:
    """The labels of the order whose vertices have levels ``lev``, position
    by position: f(u_0) = 0, f(u_{i+1}) = f(u_i) + a_i + d + epsilon - L(u_i)
    - L(u_{i+1})."""
    de = m.diameter + m.epsilon
    f, labels = 0, [0]
    for x, y, at in zip(lev, lev[1:], a):
        f += at + de - x - y
        labels.append(f)
    return labels


def _levels_and_labels(m: TreeMetrics, seq: tuple, a: Sequence) -> tuple:
    """``(lev, f)``: per order position, the level and the label of
    :func:`_labels`.  Condition (b) is stated on these labels, and
    :func:`radiotree.labelling.label_from_order` and
    :func:`radiotree.bounds.certify_tightness` return them."""
    lev = list(map(m.level.__getitem__, seq))
    return lev, _labels(m, lev, a)


def _condition_b_core(m: TreeMetrics, seq: tuple, a: tuple) -> tuple:
    """Shared pairwise check on the labels f of :func:`_labels` under the
    increments ``a``: positions i < j fail iff f_j - f_i + d(u_i, u_j) <=
    diam.  Returns (ok, the lexicographically first violating pair or None).

    ``seq`` must be a permutation of the vertex ids (the callers pass what
    :func:`check_order` returned), so the scan indexes the per-vertex tuples
    without checks.
    """
    return _condition_b_on_labels(m, seq, *_levels_and_labels(m, seq, a))


def _condition_b_on_labels(m: TreeMetrics, seq: tuple, lev: list, f: list) -> tuple:
    """Condition (b) on an order's levels ``lev`` and labels ``f``: one
    :func:`_condition_b_scan` that stops on the labels themselves, and a
    second one that stops on their suffix minima only when the first finds
    a pair and the labels do not strictly increase.

    While the labels strictly increase, the first scan sees every pair that
    can fail, in lexicographic order, so the pair it meets is the first.
    When they do not, it still meets some pair (a step ``f_{t+1} <= f_t``
    fails, since ``d <= diam``, and position t's scan tests it first unless
    an earlier scan has already failed), but it may have stopped early at
    an earlier position.  On the p = 19 tree with edges 0-1 1-2 2-3 3-4 4-5,
    5-6..9, 0-10, 10-11..18, the order 0 10 6 7 8 9 11 2 3 4 5 12 13 14 15
    16 17 18 1 has labels that fall after position 1: the first scan meets
    (1, 3), but (0, 6) fails too, and only the suffix minima let position
    0's scan reach it.

    A pair in different branches of T - W, or with a weight center in it,
    is ``L(u) + L(v) + delta`` apart (phi is 0), read off the per-position
    lists of part (the branch of T - W, or ``CENTER_BRANCH`` for a weight
    center) and nearest center; only a pair inside one part calls
    :meth:`TreeMetrics.distance`, whose phi climbs parent pointers.  The
    two weight centers share a part, and that call returns their distance,
    1.  A certifying order alternates between the two branches, so most
    pairs take the first route.
    """
    part = list(map(m.branch_id.__getitem__, seq))
    cen = list(map(m.center_of.__getitem__, seq))
    scan = (m, seq, lev, part, cen, f)
    # The sentinel ends every scan on the labels: it is below f_i + diam
    # only when f_{p-1} < f_i, and then the pair (i, p-1) fails before it.
    f.append(f[-1] + m.diameter)
    pair = _condition_b_scan(*scan, f)
    f.pop()
    if pair is not None and not all(map(lt, f, islice(f, 1, None))):
        low = list(accumulate(reversed(f), min))[::-1]  # low[j] = min(f[j:])
        low.append(max(f) + m.diameter)  # at least every f_i + diam
        pair = _condition_b_scan(*scan, low)
    return pair is None, pair


def _condition_b_scan(m: TreeMetrics, seq: tuple, lev: list, part: list,
                      cen: list, f: list, stop: list) -> tuple | None:
    """The first pair (i, j) of condition (b) that fails among those the
    scan reaches, or None.  Position i scans its successors j while
    ``stop[j] < f_i + diam``; ``stop`` has one entry more than the order, a
    sentinel that no scan runs past.

    A pair with ``f_j >= f_i + diam`` cannot fail, since distinct vertices
    are at least 1 apart, so the scan over j can stop once no later label
    is below that: ``stop`` is the labels, which suffices while they
    increase, or their suffix minima.  A pair across parts fails the test
    of its own accord when ``f_j`` is that large; a pair inside one branch
    is tested only when ``f_j`` is below it, so no distance is computed for
    a pair that cannot fail.
    """
    diam, distance = m.diameter, m.distance
    for i in range(len(seq) - 1):
        top = f[i] + diam  # (i, j) fails iff f[j] + d(u_i, u_j) <= top
        j = i + 1
        if stop[j] >= top:
            continue
        lim, pu, cu = top - lev[i], part[i], cen[i]
        while stop[j] < top:
            fj = f[j]
            if pu != part[j]:  # phi = 0
                if lev[j] + (cu != cen[j]) + fj <= lim:
                    return i, j
            elif fj < top and distance(seq[i], seq[j]) + fj <= top:  # one branch: phi climbs
                return i, j
            j += 1
    return None


def check_condition_b(m: TreeMetrics, order: Sequence, aseq: ASequence) -> tuple:
    """Pairwise distance condition (b) under the given a-sequence.

    Returns (ok, first violating (i, j) or None), first in lexicographic order.
    """
    return _condition_b_core(m, *_order_and_increments(m, order, aseq))


def _order_and_increments(m: TreeMetrics, order: Sequence, aseq: ASequence) -> tuple:
    """``(seq, a)``: the order as :func:`check_order` returns it and the
    increments ``aseq.a``, once there is one increment per step of the
    order; else :class:`LengthMismatch`."""
    seq = check_order(m, order)
    if len(aseq.a) != len(seq) - 1:
        raise LengthMismatch(
            f"a-sequence length {len(aseq.a)} for order length {len(seq)}"
        )
    return seq, aseq.a


def check_ddb_conditions(m: TreeMetrics, order: Sequence) -> tuple:
    """Tightness conditions for the *basic* bound (the a == 0 specialization).

    Condition (a): the order starts at the weight center and ends at one of
    its neighbours (one center), or starts and ends at the two centers.
    Condition (b): the pairwise inequality with all increments zero.
    Returns (ok, diagnostic).
    """
    if m.diameter < 2:
        raise DiameterTooSmall("basic-bound conditions need diameter >= 2")
    seq = check_order(m, order)
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
