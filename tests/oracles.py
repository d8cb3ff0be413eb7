"""The paper's definitions, each written once, for the tests to compare against.

Every quantity here is computed by its definition from a tree's all-pairs
BFS distances (the one shortcut skips a pair whose labels rise by diam or
more, which cannot fail).  From ``radiotree`` the module imports only what
builds a :class:`Tree`, so no oracle calls the code it checks, which
``test_oracles.py`` enforces.  It is meant for small trees and grids.
"""

import random
import re
from collections import Counter
from itertools import islice

from radiotree import Tree, build_tree
from radiotree.tree import _decode_pruefer

# --- trees --------------------------------------------------------------------


def path(n):
    """P_n, numbered along the path."""
    return build_tree([(i, i + 1) for i in range(n - 1)])


def star(k):
    """K_{1,k} with center 0."""
    return build_tree([(0, i) for i in range(1, k + 1)])


def double_broom(left, handle, right):
    """A path on ``handle`` vertices with ``left`` leaves on its first vertex
    and ``right`` leaves on its last."""
    ends = [0] * left + [handle - 1] * right  # the leaves handle, handle + 1, ...
    return build_tree([(i, i + 1) for i in range(handle - 1)]
                      + [(end, handle + k) for k, end in enumerate(ends)])


def random_tree(p, rng):
    """Vertex i hangs from a uniform j < i; ``rng`` is a seed or a
    :class:`random.Random` whose draws are used in turn."""
    if not isinstance(rng, random.Random):
        rng = random.Random(rng)
    if p == 1:
        return Tree(p=1, adjacency=((),))
    return build_tree([(i, rng.randrange(i)) for i in range(1, p)])


def pruefer_tree(p, seed):
    """A uniform labelled tree on p vertices, from a seeded Pruefer sequence."""
    rng = random.Random(seed)
    return _decode_pruefer([rng.randrange(p) for _ in range(p - 2)])


def rooted_trees(p):
    """Every rooted tree on p vertices once, as the edges ``(i, parent)`` of
    its canonical level sequence (Beyer and Hedetniemi, 1980): vertex i is at
    depth ``seq[i]`` in preorder, below the last earlier vertex one level up.
    Every unrooted tree is among them, rooted at each of its vertices."""
    seq = list(range(p))  # the path, the first sequence
    while True:
        last = {}
        edges = []
        for i, depth in enumerate(seq):
            if depth:
                edges.append((i, last[depth - 1]))
            last[depth] = i
        yield edges
        deep = [i for i in range(p) if seq[i] > 1]
        if not deep:
            return  # the star, the last sequence
        i = deep[-1]
        j = max(k for k in range(i) if seq[k] == seq[i] - 1)
        for k in range(i, p):
            seq[k] = seq[k - (i - j)]


# --- distances and the metrics they define ------------------------------------


def distances(tree):
    """All-pairs distances, a BFS from every vertex."""
    rows = []
    for s in range(tree.p):
        row = [-1] * tree.p
        row[s] = 0
        queue = [s]
        for u in queue:  # the list grows while it is read
            for v in tree.adjacency[u]:
                if row[v] < 0:
                    row[v] = row[u] + 1
                    queue.append(v)
        rows.append(row)
    return rows


class Ref:
    """A tree's metrics by their definitions, on its distance table ``d``."""

    def __init__(self, tree):
        p = self.p = tree.p
        self.tree = tree
        d = self.d = distances(tree)
        self.diameter = max(map(max, d))
        weight = [sum(row) for row in d]  # w(v), the distances from v
        self.centers = {v for v in range(p) if weight[v] == min(weight)}
        self.epsilon = 2 - len(self.centers)
        self.level = [min(d[c][v] for c in self.centers) for v in range(p)]
        self.total_level = sum(self.level)
        # S: level at least ceil(d/2) with one center, floor(d/2) with two
        # (no vertex is remote in a one-vertex tree)
        threshold = (self.diameter + self.epsilon) // 2
        self.remote = {v for v in range(p) if self.level[v] >= threshold} if p > 1 else set()
        s = len(self.remote)
        self.xi = s // 2 if self.epsilon == 1 else max(0, s - 2)
        # the components of T - W, one below each non-center neighbour t of a
        # center: the vertices whose nearest center is reached through t
        tops = [t for c in self.centers for t in tree.adjacency[c] if t not in self.centers]
        self.branches = {frozenset(v for v in range(p) if d[t][v] == self.level[v] - 1)
                         for t in tops}
        self.two_branch = len(self.branches) == 2
        self.basic = (p - 1) * (self.diameter + self.epsilon) - 2 * self.total_level + self.epsilon
        self.improved = self.basic + self.xi  # for a two-branch tree
        # the exact solver's (proven, target): the basic bound (0 when d < 2),
        # and first the improved bound on a two-branch tree
        target = self.improved if self.two_branch else self.basic
        self.probe_bounds = (0, 0) if self.diameter < 2 else (self.basic, target)


def sides_at(ref, x):
    """The level sets of the components of T - x, one per neighbour s of x
    in x's row: ``{distance from x: count}`` over the vertices whose path
    from x runs through s."""
    d = ref.d
    return [dict(Counter(d[x][v] for v in range(ref.p) if d[s][v] == d[x][v] - 1))
            for s in ref.tree.adjacency[x]]


# --- orders -------------------------------------------------------------------


def runs(flags):
    """The maximal runs of true positions, as (start, end) pairs, inclusive."""
    text = "".join("1" if x else "0" for x in flags)
    return [(r.start(), r.end() - 1) for r in re.finditer("1+", text)]


def remote_runs(ref, seq):
    """The maximal runs of positions held by remote vertices."""
    return runs([u in ref.remote for u in seq])


def free_runs(ref, seq):
    """The maximal runs of free positions: a remote vertex with no weight
    center as an order-neighbour."""
    p = len(seq)
    return runs([u in ref.remote and not any(0 <= k < p and seq[k] in ref.centers
                                             for k in (t - 1, t + 1))
                 for t, u in enumerate(seq)])


def parity_ok(lengths):
    """Every run even, except one odd run when their total is odd."""
    return sum(n % 2 for n in lengths) == sum(lengths) % 2


def is_feasible(ref, seq):
    """The remote runs are even, except one odd run when |S| is odd."""
    return parity_ok([e - s + 1 for s, e in remote_runs(ref, seq)])


def is_admissible(ref, seq):
    """Every order-neighbour of a weight center is remote or a center, two
    centers sit at positions i < j with j > i + 2, and the free runs are
    even, except one odd run when the free positions are odd in number."""
    slots = sorted(seq.index(c) for c in ref.centers)
    if any(0 <= j < len(seq) and seq[j] not in ref.centers | ref.remote
           for i in slots for j in (i - 1, i + 1)):
        return False
    if len(slots) == 2 and slots[1] <= slots[0] + 2:
        return False
    return parity_ok([e - s + 1 for s, e in free_runs(ref, seq)])


def a_sequence(ref, seq):
    """a_0 = 0; for t = 1..p-2, a_t = |W| - a_{t-1} when u_t is remote and
    neither order-neighbour is a weight center, else 0."""
    w, a = len(ref.centers), [0]
    for t in range(1, len(seq) - 1):
        free = seq[t] in ref.remote and not {seq[t - 1], seq[t + 1]} & ref.centers
        a.append(w - a[-1] if free else 0)
    return tuple(a)


def condition_a(ref, seq):
    """Condition (a) on the endpoint level sum, and its detail text: one
    center with odd |S| wants sum 1 and an admissible order; one center with
    even |S| sum 1 and a feasible or admissible order, or sum 2 and an
    admissible one; two centers an admissible order with sum 0 (|S| <= 2),
    1 (odd |S|) or 0 or 2 (even |S| >= 4)."""
    end = ref.level[seq[0]] + ref.level[seq[-1]]
    s, w = len(ref.remote), len(ref.centers)
    admissible = is_admissible(ref, seq)
    if w == 1 and s % 2:
        ok = end == 1 and admissible
        want = "endpoint level sum 1 with an admissible order"
    elif w == 1:
        ok = end == 1 and (admissible or is_feasible(ref, seq)) or end == 2 and admissible
        want = "sum 1 with a feasible order, or sum 2 with an admissible order"
    else:
        allowed = [0] if s <= 2 else [1] if s % 2 else [0, 2]
        ok = end in allowed and admissible
        want = f"endpoint level sum in {allowed} with an admissible order"
    return ok, "ok" if ok else f"endpoint level sum {end}, |S|={s}, |W|={w}; wanted {want}"


def labels(ref, seq, a):
    """The recurrence f(u_0) = 0, f(u_{t+1}) = f(u_t) + a_t + d + epsilon -
    L(u_t) - L(u_{t+1}), position by position."""
    f = [0]
    for t in range(len(seq) - 1):
        f.append(f[-1] + a[t] + ref.diameter + ref.epsilon
                 - ref.level[seq[t]] - ref.level[seq[t + 1]])
    return f


def condition_b(ref, seq, a):
    """Condition (b): ``(ok, the first failing (i, j) or None)``.  Positions
    i < j fail iff f(u_j) - f(u_i) + d(u_i, u_j) <= diam, on the labels of
    :func:`labels`.  A pair whose labels rise by diam or more cannot fail
    (d >= 1), so it is skipped; when the labels increase, so is every later
    pair of that i."""
    f, diam = labels(ref, seq, a), ref.diameter
    increasing = all(x < y for x, y in zip(f, f[1:]))
    for i, u in enumerate(seq):
        row = ref.d[u]
        for j in range(i + 1, len(seq)):
            gap = f[j] - f[i]
            if gap >= diam:
                if increasing:
                    break
            elif row[seq[j]] + gap <= diam:
                return False, (i, j)
    return True, None


# --- labellings ---------------------------------------------------------------


def radio_check(ref, labels):
    """``(ok, the first pair u < v with |f(u) - f(v)| < diam + 1 - d(u, v))``.
    A pair whose labels differ by diam or more cannot fail (d >= 1), so each
    vertex is compared only with those above it in label by less."""
    diam, d = ref.diameter, ref.d
    by_label = sorted(range(ref.p), key=labels.__getitem__)
    bad = []
    for k, u in enumerate(by_label):
        for v in islice(by_label, k + 1, None):
            gap = labels[v] - labels[u]
            if gap >= diam:
                break
            if gap < diam + 1 - d[u][v]:
                bad.append((min(u, v), max(u, v)))
    return not bad, min(bad, default=None)


def greedy_labels(ref, seq):
    """f(u_0) = 0, and each next label the least that meets the radio
    condition against every vertex placed before it."""
    f = {seq[0]: 0}
    for u in seq[1:]:
        f[u] = max(f[w] + ref.diameter + 1 - ref.d[w][u] for w in f)
    return f


def brute_force_rn(tree):
    """rn by the least greedy span over every vertex order, with no symmetry
    reduction and no pruning: each labelling's order has a greedy completion
    at most as high.  ``req[v]`` is the least label v may take after the
    vertices placed so far."""
    ref = Ref(tree)
    step, d = ref.diameter + 1, ref.d

    def least_span(req, unplaced):
        if len(unplaced) == 2:  # the last two placements, either way round
            u, v = unplaced
            return min(max(req[v], req[u] + step - d[u][v]), max(req[u], req[v] + step - d[u][v]))
        return min(least_span([max(r, req[u] + step - du) for r, du in zip(req, d[u])],
                              unplaced - {u})
                   for u in unplaced)

    return least_span([0] * tree.p, frozenset(range(tree.p))) if tree.p > 1 else 0


# --- the exact solver's symmetry rules ----------------------------------------


def twin_prev(tree):
    """For each leaf, the largest smaller leaf with the same neighbour; else -1."""
    adj = tree.adjacency
    return [max((v for v in range(u) if len(adj[v]) == 1 and adj[v] == adj[u]), default=-1)
            if len(adj[u]) == 1 else -1 for u in range(tree.p)]


def start_representatives(tree):
    """The smallest id per automorphism orbit: u and v share one iff the tree
    rooted at u is isomorphic to the tree rooted at v, which holds iff their
    codes are equal (one code per isomorphism class of rooted trees)."""
    codes, first = {}, {}

    def code(v, parent):
        below = sorted(code(c, v) for c in tree.adjacency[v] if c != parent)
        return codes.setdefault(tuple(below), len(codes))

    for v in range(tree.p):
        first.setdefault(code(v, -1), v)
    return sorted(first.values())
