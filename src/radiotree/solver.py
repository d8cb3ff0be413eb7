"""Exact radio-number oracle for small trees.

Branch-and-bound over vertex orders with greedy label completion.  This is
exact: every radio labelling induces the order of its increasing labels, and
the greedy completion of that order is pointwise minimal (each label is the
smallest value consistent with all already-placed vertices), so some order's
greedy completion attains the radio number.

The search is bound-first.  A probe first looks only for a span at or below
LB, the paper's improved bound on two-branch trees and the basic bound
otherwise.  When none exists the probe has proved rn >= LB + 1, and a
downward search from a greedy incumbent stops as soon as it reaches that
floor.  LB only decides where the search looks first; every answer rests on
complete pruned searches (see :func:`_search`).  The set-up reads one table:
the distance rows, which :func:`radiotree.tree.distance_matrix` builds from
one BFS, serve the search and the greedy incumbent alike.

Symmetry reduction, by three rules.  The first vertex of the order only
ranges over one representative per orbit of the tree's automorphisms: an
automorphism preserves distances, so it maps each order to one of equal span.
It also preserves the weight w(v), the sum of the distances from v, so it
maps the one or two weight centers (the vertices of least weight) to
themselves, and the orbits can be read off the tree rooted at the centers
(see :func:`_start_representatives`).  Leaves with the same neighbour
("twins") are placed in increasing id order: a leaf is skipped while its
next-smaller twin is unplaced, since swapping two twins is an automorphism.
An order and its reverse have the same least span (if f is a radio labelling
of span s, so is s - f), so the search only needs orders whose last vertex
is at least as deep as the first (see :func:`_search`).

Pruning: a candidate is skipped when one of two lower bounds on every
completion through it already reaches the incumbent.  The second is the
paper's basic bound on the unplaced suffix; on a two-branch tree it is
raised by a proven term for the remote vertices still to be placed, the
suffix's share of the improved bound's xi, and on any tree by the reversal
rule's floor on the level of the last vertex.  The term splits on whether
the last vertex is remote: if it is not, one more remote vertex has an
inner position and the term may count it; if it is, the last vertex lies at
the remote threshold or deeper, which raises the floor on its level.  The
bound takes the smaller case.  The survivors are expanded least label
first, ties by id, so the first descent is a greedy dive that finds a low
incumbent early (see :func:`_search`).  A search that finds a better order
keeps the labels it placed along it, and the witness is that labelling.

Resource limits: a wall-clock ``timeout_s`` and a deterministic node budget
``max_nodes``.  When either stops the search, the result carries the proven
interval ``[stats.lower_bound, rn]`` instead of rn.  The search recurses once
per placed vertex, so trees deeper than the interpreter's recursion limit
allows are refused up front.  No vertex count is refused otherwise: a tree
of any size is searched until the search completes or a limit stops it.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from operator import sub
from typing import Mapping

from .bounds import lower_bound_basic, lower_bound_improved
from .errors import OrderTooLarge
from .labelling import RadioLabelling, verify_labelling
from .tree import Tree, TreeMetrics, distance_matrix, metrics

DEFAULT_TIMEOUT_S = 300.0
LIMIT_CHECK_INTERVAL = 4096  # read the clock every 4096 node expansions
# The search recurses once per placed vertex; frames left to its callers.
STACK_HEADROOM = 200


def kernel_name() -> str:
    """Which search kernel is active; there is one, written in Python."""
    return "pure-python"


@dataclass(frozen=True)
class SolveStats:
    nodes: int
    elapsed_s: float
    completed: bool
    pruned: Mapping[str, int]  # candidates skipped, per rule: twin, remaining, suffix_bound
    lower_bound: int  # proven lower bound on the radio number; == rn when completed
    # (nodes, span) per incumbent: the greedy seed at 0 nodes, then each
    # improvement at the node count, over both phases, that found it
    incumbents: tuple


@dataclass(frozen=True)
class SolveResult:
    rn: int
    witness: RadioLabelling
    stats: SolveStats


def _start_representatives(m: TreeMetrics) -> list:
    """Smallest vertex id per automorphism orbit, in increasing order.

    Automorphisms fix the set of weight centers, so they are the
    automorphisms of the tree rooted there (``m.parent``; with two centers,
    both are parentless).  A vertex's code is the index in ``codes`` of the
    sorted tuple of its children's codes, so equal codes mean isomorphic
    subtrees.  Two vertices share an orbit iff their parents do and their
    codes are equal (an automorphism carrying one parent to the other, then
    a swap of two sibling subtrees, carries the one vertex to the other); the
    two centers share one iff their sides are isomorphic.  O(p log p).
    """
    parent = m.parent
    by_level = sorted(range(m.p), key=m.level.__getitem__)
    children = [[] for _ in range(m.p)]
    code = [0] * m.p
    codes = {}
    for u in reversed(by_level):  # children before parents
        children[u].sort()
        code[u] = codes.setdefault(tuple(children[u]), len(codes))
        if parent[u] >= 0:
            children[parent[u]].append(code[u])
    orbit = [-1] * (m.p + 1)  # orbit[-1] is the parentless centers' "parent"
    orbits = {}
    for u in by_level:  # parents before children
        orbit[u] = orbits.setdefault((orbit[parent[u]], code[u]), len(orbits))
    first = {}
    for v in range(m.p):
        first.setdefault(orbit[v], v)
    return list(first.values())


def _twin_prev(adjacency) -> list:
    """For each leaf, the next-smaller leaf with the same neighbour; else -1."""
    prev = [-1] * len(adjacency)
    last = {}  # neighbour -> largest leaf seen so far hanging from it
    for u, nbrs in enumerate(adjacency):
        if len(nbrs) == 1:
            prev[u] = last.get(nbrs[0], -1)
            last[nbrs[0]] = u
    return prev


def _xi_cuts(level, diam, eps, two_branch) -> tuple:
    """``(cuts, thr, b0, shift)``: the remote-vertex term of :func:`_search`'s
    ``suffix_bound`` as tables.  With B the number of unplaced remote
    vertices less twice the number of unplaced weight centers, the search
    carries ``b = B + 2|W| >= 0``: ``b0 = |S|`` at the root, and placing a
    vertex at level ``lv`` adds ``shift[lv]``.  ``cuts[b][lv]`` is ``lv``
    plus the term for a candidate at level ``lv`` (level 0 is a center,
    levels from ``thr = (diam + eps) // 2`` up are remote) when the last
    vertex may be remote.  When it is not, one more position is free, which
    is the term of ``b + 1``: ``cuts[b + 1][lv]``.  On a tree that is not
    two-branch every term is 0, ``b`` stays 0 and ``thr`` is 0.
    """
    top = max(level) + 1
    if not two_branch:
        return [list(range(top))] * 2, 0, 0, [0] * top
    thr = (diam + eps) // 2  # 1 <= thr < top on a two-branch tree
    c = 1 if eps == 1 and diam % 2 == 0 else 2
    w = 2 - eps
    shift = [2] + [0] * (thr - 1) + [-1] * (top - thr)
    b0 = sum(lv >= thr for lv in level)
    # a candidate leaves k >= B + kind free positions, kind 0 for a center,
    # -1 for an inner vertex and -2 for a remote one, and the term is
    # c * ceil(k / 2) = c * ((k + 1) // 2) when k > 0: term[b + 2 + kind]
    term = [c * (max(0, j - 2 * w - 1) // 2) for j in range(b0 + 2 * w + 4)]
    cuts = [[term[b + 2], *range(1 + term[b + 1], thr + term[b + 1]),
             *range(thr + term[b], top + term[b])] for b in range(b0 + 2 * w + 2)]
    return cuts, thr, b0, shift


def _identity_labels(dist, diam) -> list:
    """The greedy completion of the identity order ``0, 1, ..., p - 1``,
    read off the distance rows: ``labels[u]`` is the least label at or above
    every ``labels[w] + diam + 1 - dist[u][w]``, ``w < u``.  As in
    :func:`radiotree.labelling.greedy_label_from_order`, only the placed
    vertices labelled above ``labels[u - 1] - diam`` can set that max, and
    the labels increase, so the window's start only moves forward."""
    labels = [0]
    start = 0
    for u in range(1, len(dist)):
        while labels[start] <= labels[-1] - diam:
            start += 1
        labels.append(max(map(sub, labels[start:], dist[u][start:u])) + diam + 1)
    return labels


def _search(p, dist, diam, level, eps, xi_cuts, starts, twin_prev, ub, floor,
            deadline, max_nodes):
    """Depth-first branch-and-bound over vertex orders with greedy completion.

    Returns (span, labels, nodes, pruned, completed, improvements): the
    least span found below the threshold ``ub`` and, as a vertex -> label
    dict, the labels the search placed along the first order that reached
    it (the greedy completion of that order), or ``(ub, None, ...)`` when
    no order spans less than ``ub``; ``improvements`` lists ``(nodes, span)``
    at each improvement, the node count being that of the search so far.
    The incumbent labelling is held by :func:`exact_rn`, not here.  The search
    stops as soon as the span found is ``<= floor``, which the caller must
    have proved is a lower bound on the span of every order.  ``deadline`` is
    a monotonic timestamp and ``max_nodes`` a node budget (either may be
    None); when one of them stops the search the best span found so far is
    returned with completed=False.

    ``xi_cuts`` holds :func:`_xi_cuts`'s tables for the tree.
    ``starts`` lists the vertices tried first (depth 0).  ``twin_prev[u]`` is
    the next-smaller leaf with the same neighbour as ``u`` (its "twin"), or
    -1; candidate ``u`` is skipped (``twin``) while ``twin_prev[u]`` is
    unplaced, so twins are placed in increasing id order.  This is exact:

    * Swapping two twins is an automorphism that fixes every other vertex, so
      it fixes the placed prefix.
    * Two unplaced twins have equal ``req`` (equal distances to every placed
      vertex) and equal level (the swap maps the weight centers to
      themselves), hence the same kind (center, remote or neither, which
      the level decides), so the rules below cut both or neither.
    * Candidates with equal ``req`` are expanded in increasing id order, so
      the smaller twin's subtree is searched first.  The skipped subtree is
      its mirror image: its nodes carry the same bounds and its completions
      exactly the same spans, so it is cut wherever the first subtree was,
      and none of the completions it reaches can beat the best span that the
      first subtree left behind.
    * Hence, by induction from the deepest level up, the sequence of
      improvements, the result, its order, and what a probe proves are those
      of the search without the rule; only ``nodes`` and the ``pruned``
      counters change.
    * A start representative never has a smaller twin (twins share an
      automorphism orbit), so the depth-0 rule and this one never disagree.

    Placing vertex ``u`` after the current partial order forces its label to
    ``req[u]``, the least label the radio condition allows: the largest
    ``f(w) + diam + 1 - dist(w, u)`` over the placed vertices ``w``.  Each
    placement hands the next depth a fresh ``req`` and the sum of the
    unplaced levels, so nothing is undone on the way back; only the placed
    flags and the count of unplaced vertices per level are shared.  A
    candidate ``u`` with label ``lab``, leaving the
    set ``R`` of ``r = |R|`` vertices unplaced, is skipped by the first rule
    that shows every completion through it spans at least the best span so
    far:

    * ``remaining``: labels are distinct, so each of the ``r`` later vertices
      adds at least 1: ``lab + r >= best``.
    * ``suffix_bound`` (``r >= 1``), the paper's basic bound applied to the
      unplaced suffix, plus a remote-vertex term.  In any tree ``d(x, y) <=
      L(x) + L(y) + [|W| = 2]`` (go through the weight centers, which are
      adjacent when there are two).  So with ``eps = 2 - |W|``, each gap
      ``g_i = f(x_{i+1}) - f(x_i) >= diam + 1 - d(x_i, x_{i+1})`` of the
      greedy completion ``u = x_0, x_1, ..., x_r`` of ``R`` has a slack
      ``s_i = g_i - (diam + eps - L(x_i) - L(x_{i+1})) >= 0``.  Summing the
      gaps gives the span
      ``lab + r(diam + eps) - L(u) - 2 sum L(R) + L(x_r) + sum s_i``, and
      ``L(x_r) >= min L(R)``.  The basic bound takes ``sum s_i >= 0``, which
      needs no two-branch tree.  The reversal rule below raises the floor on
      ``L(x_r)`` to ``max(min L(R), L(u_0))``, on any tree.

      The remote-vertex term bounds ``sum s_i`` on a two-branch tree
      (:func:`_xi_cuts`; 0 on any other tree).  Call a position
      ``0 < i < r`` free when ``x_i`` is remote (level at least
      ``(diam + eps) // 2 >= 1``, so not a center) and neither ``x_{i-1}``
      nor ``x_{i+1}`` is a weight center.  Then ``s_{i-1} + s_i >= c``, with
      ``c = 1`` for one center and even ``diam``, else ``c = 2``:

      - The radio condition on the outer pair gives ``g_{i-1} + g_i >=
        diam + 1 - d(x_{i-1}, x_{i+1})``, so ``s_{i-1} + s_i >= 1 - 2 eps -
        diam + 2 L(x_i) + (L(x_{i-1}) + L(x_{i+1}) - d(x_{i-1}, x_{i+1}))``.
      - If the two neighbours lie in one branch of ``T - W``, their paths to
        the centers share the branch's level-1 vertex, so the bracket is at
        least 2.  As ``2 L(x_i)`` is at least ``diam`` (one center, even
        diam), ``diam + 1`` (one center, odd) or ``diam - 1`` (two centers),
        the sum is at least 1, 2 or 2.
      - Otherwise, since there are two branches, ``x_i`` shares one with a
        neighbour ``y``, so ``d(x_i, y) <= L(x_i) + L(y) - 2`` and that
        pair's slack alone is at least ``3 - eps``: 2 with one center, 3
        with two.

      Free positions two or more apart have disjoint windows ``{i-1, i}``,
      and every other position of each run of consecutive free positions
      gives ``ceil(k/2)`` of them, so ``sum s_i >= c ceil(k/2)`` for ``k``
      free positions.  Whatever the order of ``R``, a remote vertex of ``R``
      is free unless it is last (one vertex) or next to a center: ``u``
      blocks position 1 if it is a center, and each center in ``R`` at most
      two positions.  So ``k >= #remote(R) - 1 - [u in W] - 2 #centers(R)``.
      With ``B`` the unplaced remote vertices less twice the unplaced
      centers, ``u`` counted as unplaced, that is ``k >= B - 1`` when ``u``
      is neither, ``B - 2`` when ``u`` is remote and ``B`` when ``u`` is a
      center.  ``B`` is passed down as the level sum is, and the term is
      read per candidate level from a table.

      The bound splits on whether the last vertex ``x_r`` is remote, and
      takes the smaller of the two cases, so it is never below the count
      above, which charges the last position as if ``x_r`` were remote:

      - If ``x_r`` is not remote, every remote vertex of ``R`` lies at a
        position ``0 < i < r``, so the ``- 1`` for the last position goes:
        each of the three counts of ``k`` rises by 1, which is the term
        read at ``b + 1``.  The floor on ``L(x_r)`` stays ``E = max(min
        L(R), L(u_0))``, the reversal rule's floor.
      - If ``x_r`` is remote, ``k`` is counted as above, and ``L(x_r) >=
        thr = (diam + eps) // 2``, the least remote level, so the floor on
        ``L(x_r)`` is ``max(E, thr)``.

      On a tree that is not two-branch both terms are 0 and ``thr`` is 0,
      so the split changes nothing there.

    Reversal rule: ``suffix_bound`` need only hold for the completions that
    end at least as deep as they start, ``L(x_r) >= L(u_0)`` with ``u_0``
    the first vertex of the order (``order[0]``, or the candidate itself at
    depth 0).  This is exact, on every tree:

    * An order and its reverse have the same least span.  The greedy
      completion ``f`` of an order, of span ``s``, is a radio labelling, so
      ``s - f`` is one too (every ``|f(x) - f(y)|`` is kept), and its labels
      increase along the reversed order.  The greedy completion of the
      reversed order is pointwise at most ``s - f``, so it spans at most
      ``s``; reversing twice gives the other inequality.
    * So some optimal order ends at least as deep as it starts: take any
      optimal order, reversed if it ends shallower.  An automorphism carries
      its first vertex to a start representative, and sorting each class of
      twins into increasing id order over the positions it holds is a
      product of twin swaps.  Both keep the span and the level at every
      position (automorphisms map the weight centers to themselves), and a
      representative, the least id of its orbit, is the least of its twins
      and stays first.  The result is an optimal order that the search would
      reach without its bounds, and it still ends at least as deep as it
      starts.
    * So that order, or one no worse, is reached: ``remaining`` and
      ``suffix_bound`` cut only subtrees in which every order that ends at
      least as deep as it starts spans at least ``best``.  A leaf accepts
      any span whatever its end level: every order is a real labelling, and
      a leaf that ends shallower than it starts may still lower ``best``.
    * Two twins are cut together as before: at depth 1 and deeper they
      share ``u_0``, and no two start representatives are twins.

    Candidate order: the three rules are applied to the unplaced vertices in
    id order.  Each survivor is kept as ``(label, id, bound)``, its suffix
    bound computed once, and the survivors are expanded in that tuple order:
    least label first, ties by id, so the first descent is the
    cheapest-label greedy dive (P_10's probe reaches the improved bound in
    12 nodes, against 194 in id order).  Before each later expansion, the
    ``remaining`` and ``suffix_bound`` rules are applied again, to the kept
    label and bound, if ``best`` has fallen since the survivors were chosen.

    Branch-and-bound stays exact under any candidate order: both rules remove
    only subtrees whose leaves that end at least as deep as they start are no
    better than the best span at that moment, that span never rises, and
    some optimal order that the start and twin rules allow is such a leaf.
    So the least span and the completion are those of the unpruned search in
    the same candidate order, but not always the sequence of improvements or
    the order returned: a subtree cut by the reversal rule may hold a better
    leaf that ends shallower.  Two twins have equal ``req`` and equal level,
    so they survive or are cut together, and the tie by id keeps the
    smaller twin first, as the twin rule needs.  The order depends only on
    ``req`` and ids, so a node budget still stops at a deterministic node.

    A completed search therefore proves one of two things.  If it returns an
    order, its span is the least span of any order: either the search ran
    out, or it stopped at a span ``<= floor <= rn``.  If it returns None,
    every order spans at least ``ub``.  :func:`exact_rn` uses the second
    reading as a probe: ``ub = LB + 1`` either finds the least span (at most
    LB) or proves ``rn >= LB + 1``, whether or not LB is a valid bound.  That
    proven value is then the ``floor`` of the downward search, so no answer
    rests on the paper's improved bound.
    """
    best = ub
    best_labels = None
    improvements = []
    nodes = 0
    pruned_twin = 0
    pruned_remaining = 0
    pruned_suffix = 0
    halted = limited = False  # stopped at the floor / by a resource limit
    node_limit = float("inf") if max_nodes is None else max_nodes
    next_check = min(LIMIT_CHECK_INTERVAL, node_limit)
    step = diam + eps
    cuts, thr, b0, shift = xi_cuts
    if best <= floor:
        return best, None, 0, {"twin": 0, "remaining": 0, "suffix_bound": 0}, True, []

    order = [0] * p
    labels = [0] * p  # labels[i] is the label of order[i]
    # placed[-1] is a sentinel that stays True, so twin_prev -1 never skips
    placed = [False] * p + [True]
    unplaced_at_level = [0] * (max(level) + 1)
    for lv in level:
        unplaced_at_level[lv] += 1

    def extend(depth, span, req, unplaced_level_sum, b):
        nonlocal best, best_labels, nodes, pruned_twin, pruned_remaining, pruned_suffix
        nonlocal halted, limited, next_check
        if depth == p:
            if span < best:
                best = span
                best_labels = dict(zip(order, labels))
                improvements.append((nodes, span))
                halted = span <= floor
            return
        remaining_after = p - depth - 1
        if remaining_after:
            # the two smallest levels among the unplaced (at least two) vertices
            lo1 = 0
            while not unplaced_at_level[lo1]:
                lo1 += 1
            lo2 = lo1
            if unplaced_at_level[lo1] == 1:
                lo2 += 1
                while not unplaced_at_level[lo2]:
                    lo2 += 1
            suffix_base = remaining_after * step - 2 * unplaced_level_sum
            # level plus remote-vertex term, per candidate level, when the
            # last vertex may be remote (cut) and when it is not (cut1)
            cut, cut1 = cuts[b], cuts[b + 1]
            # the least level of the last vertex, max(min L(R), L(u_0)): end2
            # for a candidate at level lo1, end1 for any other, and at depth
            # 0, where the candidate is u_0, its own level unless it is lo1
            first = level[order[0]] if depth else -1
            end1 = lo1 if lo1 > first else first
            end2 = lo2 if lo2 > first else first
        survivors = []
        for u in (starts if depth == 0 else range(p)):
            if placed[u]:
                continue
            if not placed[twin_prev[u]]:
                pruned_twin += 1
                continue
            lab = req[u]
            if lab + remaining_after >= best:
                pruned_remaining += 1
                continue
            bound = lab  # with no suffix, what the remaining rule tests
            if remaining_after:
                lu = level[u]
                end = end2 if lu == lo1 else end1 if depth else lu
                # the last vertex is not remote (one more free position),
                # or it is and lies at level thr or deeper: the smaller holds
                not_remote = cut1[lu] + end
                remote = cut[lu] + (end if end > thr else thr)
                bound += suffix_base + (not_remote if not_remote < remote else remote)
                if bound >= best:
                    pruned_suffix += 1
                    continue
            survivors.append((lab, u, bound))
        survivors.sort()  # least label first, ties by id
        cut_at = best
        for lab, u, bound in survivors:
            if best < cut_at:  # an earlier sibling improved on best: cut again
                if lab + remaining_after >= best:
                    pruned_remaining += 1
                    continue
                if bound >= best:
                    pruned_suffix += 1
                    continue
            lu = level[u]
            if nodes == next_check:
                if nodes == node_limit or (deadline is not None
                                           and time.monotonic() > deadline):
                    halted = limited = True
                    return
                next_check = min(nodes + LIMIT_CHECK_INTERVAL, node_limit)
            nodes += 1
            order[depth] = u
            labels[depth] = lab
            placed[u] = True
            unplaced_at_level[lu] -= 1
            t = lab + diam + 1
            # placed vertices' entries are never read again
            extend(depth + 1, lab,
                   [r if r > t - d else t - d for r, d in zip(req, dist[u])],
                   unplaced_level_sum - lu, b + shift[lu])
            placed[u] = False
            unplaced_at_level[lu] += 1
            if halted:
                return

    extend(0, 0, [0] * p, sum(level), b0)
    pruned = {"twin": pruned_twin, "remaining": pruned_remaining,
              "suffix_bound": pruned_suffix}
    return best, best_labels, nodes, pruned, not limited, improvements


def _probe_bounds(m: TreeMetrics) -> tuple:
    """``(proven, target)`` for :func:`exact_rn`.

    ``proven`` is the basic bound (0 when d < 2), which the ``suffix_bound``
    argument of :func:`_search` proves for every tree: at depth 0 it bounds
    every span by ``(p-1)(d+eps) - 2L(T) + L(x_0) + L(x_r)``, and at most one
    of the distinct ends ``x_0, x_r`` is the center when ``eps = 1``, so
    ``L(x_0) + L(x_r) >= eps``.  ``target`` is the span the probe looks for
    first: the improved bound on two-branch trees, else ``proven``.  The
    probe proves its target and never trusts it: on P_3, whose rn 3 lies
    below its improved bound of 4, it finds a span of 3 <= ``proven`` and
    stops there.
    """
    if m.diameter < 2:
        return 0, 0
    proven = lower_bound_basic(m)
    if m.two_branch:
        return proven, lower_bound_improved(m)
    return proven, proven


def exact_rn(tree: Tree, timeout_s: float | None = DEFAULT_TIMEOUT_S,
             max_nodes: int | None = None) -> SolveResult:
    """Exact radio number by exhaustive pruned search, bound first.

    Raises :class:`OrderTooLarge`, before doing any work, beyond the depth
    the recursive search can reach (the interpreter's recursion limit less
    ``STACK_HEADROOM``).  Any smaller tree is searched.  When the
    ``timeout_s`` clock or the ``max_nodes`` budget (node expansions over
    both phases) runs out, the best incumbent is returned with
    ``stats.completed`` False: its span is then only an upper bound, and
    ``stats.lower_bound`` the proven lower one.
    """
    depth_limit = sys.getrecursionlimit() - STACK_HEADROOM
    if tree.p > depth_limit:
        raise OrderTooLarge(
            f"{tree.p} vertices exceeds the search's recursion depth limit {depth_limit}")
    m = metrics(tree)
    dist = distance_matrix(tree)
    # The downward search starts from the greedy completion of the identity
    # order, which is the witness unless a search finds a better labelling.
    seed = _identity_labels(dist, m.diameter)
    seed_span = seed[-1]
    starts = _start_representatives(m)
    twin_prev = _twin_prev(tree.adjacency)
    xi_cuts = _xi_cuts(m.level, m.diameter, m.epsilon, m.two_branch)
    deadline = None if timeout_s is None else time.monotonic() + timeout_s
    proven, target = _probe_bounds(m)

    def search(ub, floor, budget):
        return _search(tree.p, dist, m.diameter, m.level, m.epsilon, xi_cuts,
                       starts, twin_prev, ub, floor, deadline, budget)

    t0 = time.monotonic()
    # Probe: is there a span <= target?
    span, labels, nodes, pruned, completed, found = search(target + 1, proven, max_nodes)
    lower_bound = proven
    if completed and labels is None:
        # The probe proved rn >= target + 1: search down to that floor.
        lower_bound = target + 1
        budget = None if max_nodes is None else max_nodes - nodes
        span, labels, more, more_pruned, completed, found = search(
            seed_span, lower_bound, budget)
        found = [(nodes + at, s) for at, s in found]
        nodes += more
        pruned = {rule: pruned[rule] + more_pruned[rule] for rule in pruned}
    if labels is not None and span <= seed_span:
        best, witness = span, RadioLabelling(labels=labels)
    else:
        best, witness = seed_span, RadioLabelling(labels=dict(enumerate(seed)))
    incumbents = [(0, seed_span)]
    incumbents += [(at, s) for at, s in found if s < seed_span]
    if completed:
        lower_bound = best
    elapsed = time.monotonic() - t0

    ok, pair = verify_labelling(tree, witness)
    if not ok or witness.span != best:
        raise AssertionError(
            f"solver invariant broken: span {witness.span} vs {best}, pair {pair}"
        )
    return SolveResult(
        rn=best,
        witness=witness,
        stats=SolveStats(nodes=nodes, elapsed_s=elapsed, completed=completed,
                         pruned=pruned, lower_bound=lower_bound,
                         incumbents=tuple(incumbents)),
    )

