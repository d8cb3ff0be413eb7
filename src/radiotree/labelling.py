"""Radio labellings: construction from orders, verification, and diagnostics.

A radio labelling assigns distinct non-negative integers to the vertices with
``|f(u) - f(v)| >= diam + 1 - d(u, v)`` for every pair; its span is the
largest label.  Three routes to a labelling live here:

* :func:`label_from_order` — the closed-form recurrence of the
  certification pipeline, driven by an order and its a-sequence (the
  pipeline itself keeps the labels that condition (b) checked);
* :func:`greedy_label_from_order` — the pointwise-minimal valid completion of
  a fixed order (every radio labelling induces its label order, and the greedy
  completion of that order never has a larger span, so searching orders with
  greedy completion is exact);
* :func:`verify_labelling` — the independent checker everything else is
  audited against; it computes its own distances (no :class:`TreeMetrics`).
  One pass over the vertices in label order decides whether any pair
  violates; only when one does, a scan in vertex order names the first
  violating pair, comparing each vertex only with those whose labels lie
  within ``diam - 1`` of its own.

:func:`jf_profile` reports the per-step slack ``J_f`` and the aggregate
``sigma`` that appear in the span decomposition
``span = (p-1)(d+1) - 2L(T) + L(u_0) + L(u_{p-1}) + sigma(f)``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, islice
from typing import Sequence

from .errors import (
    BadVertex,
    DuplicateLabel,
    MissingLabel,
    NegativeLabel,
    NonIntegerLabel,
    NotTwoBranch,
)
from .orders import ASequence, _levels_and_labels, _order_and_increments, check_order
from .tree import Tree, TreeMetrics, _bfs, _meet_level, _quoted, _short_number


@dataclass(frozen=True)
class RadioLabelling:
    """Vertex -> label map with its span, the largest label.

    The constructors here start at 0 and never go negative, but nothing is
    checked on construction; :func:`verify_labelling` enforces the contract.
    """

    labels: dict

    @property
    def span(self) -> int:
        return max(self.labels.values())

    def __post_init__(self):
        if not self.labels:
            raise MissingLabel("empty labelling")


def label_from_order(m: TreeMetrics, order: Sequence, aseq: ASequence) -> RadioLabelling:
    """Build the labelling f(u_0)=0, f(u_{i+1}) = f(u_i) - (L(u_i)+L(u_{i+1}))
    + a_i + (d + epsilon), the labels condition (b) is stated on.

    This is the certified construction; no validity check is performed here
    (compose with :func:`verify_labelling` for safety).  Raises
    :class:`NegativeLabel` at the first label below zero, which signals a
    non-certifying order.
    """
    if not m.two_branch:
        raise NotTwoBranch("the order-driven recurrence targets two-branch trees")
    return _recurrence_labelling(m, *_order_and_increments(m, order, aseq))


def _recurrence_labelling(m: TreeMetrics, seq: tuple, a: Sequence) -> RadioLabelling:
    """:func:`label_from_order` on an order ``seq`` that :func:`check_order`
    returned and its increments ``a``, with no check repeated."""
    _, f = _levels_and_labels(m, seq, a)
    if min(f) < 0:
        v, lab = next((v, lab) for v, lab in zip(seq, f) if lab < 0)
        raise NegativeLabel(f"label for vertex {v} would be {lab}")
    return RadioLabelling(labels=dict(zip(seq, f)))


def verify_labelling(tree: Tree, labelling: RadioLabelling) -> tuple:
    """Check the radio condition ``|f(u) - f(v)| >= diam + 1 - d(u, v)`` on
    every pair.

    Distances come from the verifier's own BFS, not from
    :class:`TreeMetrics` or a distance table: its tree is rerooted at the
    middle vertex of a longest path (found from the same BFS's heights), so
    depths are at most ``ceil(diam/2)``, and a pair in different subtrees
    of the root is ``depth(u) + depth(v)`` apart.

    Two passes share that oracle.  :func:`_has_violation` decides in one
    pass over the vertices in label order whether any pair violates, with
    one test per vertex for all the pairs across subtrees.  A valid labelling,
    the common case, ends there.  Only when it finds a violation does
    :func:`_first_violation`, the naming scan in vertex order, run to report
    the pair a scan of all pairs would report first.

    Returns (ok, pair): ``pair`` is None, or the lexicographically first
    violating (u, v) with u < v, the pair a scan of all pairs would report.
    A labelling outside the contract raises instead: :class:`BadVertex` for a
    key that is not a vertex of the tree, :class:`NonIntegerLabel` or
    :class:`NegativeLabel` for a bad label, :class:`MissingLabel` for
    unlabelled vertices, naming how many and the first five.
    """
    labels = labelling.labels
    p = tree.p
    for v, lab in labels.items():
        if type(v) is not int or not 0 <= v < p:
            tree.check_vertex(v)  # raises, unless v is an int subclass in range
        if type(lab) is not int and (not isinstance(lab, int) or isinstance(lab, bool)):
            raise NonIntegerLabel(f"vertex {v} has non-integer label {lab!r}")
        if lab < 0:
            raise NegativeLabel(f"vertex {v} has negative label {_short_number(lab)}")
    if len(labels) != p:
        # the first few only: a labels file may name a handful of p vertices
        missing = list(islice((v for v in range(p) if v not in labels), 5))
        raise MissingLabel(f"{p - len(labels)} vertices without labels, starting {missing}")
    oracle = _middle_rooted(tree.adjacency)
    if not _has_violation(oracle, labels):
        return True, None
    first, _ = _first_violation(oracle, labels)
    return first is None, first


def _middle_rooted(adjacency) -> tuple:
    """The verifier's own distance oracle: ``(diam, depth, parent, top)``.

    One BFS from vertex 0 and a bottom-up pass over its order give each
    vertex's height (the longest path down from it) and the child that path
    starts at.  A longest path of the tree turns at the vertex whose two
    longest downward paths through different children are longest together,
    and its middle vertex lies ``height - ceil(diam/2)`` steps down the
    longer one.  Rerooting the BFS tree there (the parent pointers on the
    path from it to vertex 0 turn round) makes every depth at most
    ``ceil(diam/2)``.  ``top[v]`` is the root's child whose subtree holds v
    (the root for the root): vertices with different ``top`` are
    ``depth[u] + depth[v]`` apart.
    """
    p = len(adjacency)
    _, up, order = _bfs(adjacency, [0])
    height, down = [0] * p, [-1] * p
    diam = turn = 0
    for v in reversed(order[1:]):
        u, hv = up[v], height[v] + 1
        if height[u] + hv > diam:
            diam, turn = height[u] + hv, u
        if hv > height[u]:
            height[u], down[u] = hv, v
    root = turn
    for _ in range(height[turn] - (diam + 1) // 2):
        root = down[root]
    path = [root]  # then the BFS order: parents first
    while path[-1] != 0:
        path.append(up[path[-1]])
    for u, v in zip(path, path[1:]):
        up[v] = u
    up[root], depth, top = -1, [-1] * p, [root] * p
    depth[root] = 0
    for v in chain(path, order):
        if depth[v] < 0:
            u = up[v]
            depth[v], top[v] = depth[u] + 1, v if u == root else top[u]
    return diam, depth, up, top


def _has_violation(oracle, lab) -> bool:
    """The decision pass of :func:`verify_labelling`: does some pair of
    vertices violate the radio condition under the labels ``lab`` (a dict
    keyed by the vertex ids), with distances from ``oracle``, what
    :func:`_middle_rooted` returned for the tree?

    Positions i < j of the label order, with keys ``k_i <= k_j``, fail iff
    ``k_j - k_i + d(u_i, u_j) <= diam``.  Equal keys always fail, and both
    tests below catch them.

    * Different subtrees of the middle root: ``d = depth_i + depth_j``, so
      the pair fails iff ``k_i - depth_i >= k_j + depth_j - diam``.  Every
      pair has ``d <= depth_i + depth_j``, so a pair in one subtree that
      meets this test fails too.  And while no pair has failed, ``k - depth``
      never decreases along the label order: a pair i < w that holds has
      ``k_w - k_i >= diam + 1 - depth_i - depth_w``, and
      ``depth_w <= ceil(diam/2)``.  So the test against the previous
      position answers for every earlier one.
    * One subtree: each position links to the previous one in its subtree,
      and the pass walks those links back while the label gap ``g`` is below
      ``diam`` (a larger gap cannot fail, since ``d >= 1``).  The pair fails
      iff the two root paths meet at depth at least
      ``h = ceil((depth_i + depth_j - (diam - g)) / 2)``.  Both vertices lie
      below the same child of the root, so they meet at depth 1 or deeper:
      ``h <= 1`` fails at once, ``h`` above either depth cannot fail, and
      otherwise each side climbs only down to depth ``h``, where the two
      ancestors are one vertex iff the pair fails.
    """
    diam, depth, parent, top = oracle
    p = len(depth)
    by_label = sorted(lab, key=lab.__getitem__)  # ties in any order
    keys = list(map(lab.__getitem__, by_label))
    last = [-1] * p  # per subtree, by its top: its latest position so far
    link = [-1] * p  # per position: the previous one in its subtree
    prev = -diam - 1  # k - depth of the previous position; none yet
    for j, v in enumerate(by_label):
        kj, dv, t = keys[j], depth[v], top[v]
        lo = kj - diam  # positions keyed above lo are within the window
        if prev >= lo + dv:
            return True
        i = link[j] = last[t]
        last[t] = j
        while i >= 0 and keys[i] > lo:
            u = by_label[i]
            du = depth[u]
            h = (du + dv + lo - keys[i] + 1) // 2
            if h <= 1:
                return True
            if h <= du and h <= dv:
                a, b = u, v
                while depth[a] > h:
                    a = parent[a]
                while depth[b] > h:
                    b = parent[b]
                if a == b:
                    return True
            i = link[i]
        prev = kj - dv
    return False


def _first_violation(oracle, lab) -> tuple:
    """The naming scan behind :func:`verify_labelling`, run once
    :func:`_has_violation` has found a violation, on the labels ``lab``
    (indexed by vertex) and the same ``oracle``: ``(first violating pair or
    None, pairs compared)``.
    The count is there for the tests that bound the scan.

    The scan is the definition taken in vertex order: for u = 0, 1, ... it
    compares u with each v, u < v, whose label lies within ``diam - 1`` of
    u's (distinct vertices are at distance >= 1, so a larger gap cannot
    fail), and it returns u with its least violating partner at the first u
    that has one.  The vertices are sorted by label once, and u's window is
    walked both ways from u's position; a partner above the least violating
    one found so far is not compared.  A pair in one subtree of the middle
    root climbs parents to the vertex where the two root paths meet, by
    :func:`radiotree.tree._meet_level` on the verifier's own depths and
    parents.  Only this naming scan shares that climb with
    :meth:`TreeMetrics.distance`; the decision pass has its own test.

    Equal labels always violate (``d <= diam``), so every u before the
    first violating vertex carries a label no other vertex shares, and each
    vertex lies in the windows of at most ``2 * diam - 1`` of them: the
    scan compares O(p * diam) pairs, plus those of one window for the last
    u, however the labels repeat."""
    diam, depth, parent, top = oracle
    p = len(depth)
    by_label = sorted(range(p), key=lab.__getitem__)
    at = [0] * p  # vertex -> its position in by_label
    for i, v in enumerate(by_label):
        at[v] = i
    # keys[p], which is also keys[-1], is -diam: labels are >= 0, so no window
    # reaches down to it, and both walks stop there
    keys = [*map(lab.__getitem__, by_label), -diam]
    compared = 0
    for u in range(p):
        i = at[u]
        f, du, tu = keys[i], depth[u], top[u]
        lo, hi = f - diam, f + diam
        best = p
        for step in 1, -1:
            j = i + step
            while lo < keys[j] < hi:
                v = by_label[j]
                if u < v < best:
                    compared += 1
                    d = du + depth[v]
                    if tu == top[v]:  # one subtree: climb to where the root paths meet
                        d -= 2 * _meet_level(depth, parent, u, v)
                    if (keys[j] - f) * step + d <= diam:
                        best = v
                j += step
        if best < p:
            return (u, best), compared
    return None, compared


def greedy_label_from_order(m: TreeMetrics, order: Sequence) -> RadioLabelling:
    """Pointwise-minimal valid labelling inducing the given order.

    f(u_0) = 0 and each next label f(u_i) is the smallest value meeting the
    radio constraint ``f(w) + diam + 1 - d(w, u_i)`` against every placed
    vertex w (the constraints are global: the previous vertex alone would
    not be sound).  Only a window of placed vertices can set that max.  The
    labels strictly increase along the order, since each is at least the
    previous one plus 1.  A placed w with ``f(w) <= f(u_{i-1}) - diam``
    adds at most ``f(w) + diam <= f(u_{i-1})``, below the term
    ``f(u_{i-1}) + 1`` or more of u_{i-1} itself.  So the max runs over the
    placed vertices labelled above ``f(u_{i-1}) - diam``: at most diam of
    them, always including u_{i-1}, found by bisection on the increasing
    labels.  Distances come from :meth:`TreeMetrics.distance`; no table is
    built, so the completion is O(p * diam) pairs.
    """
    seq = check_order(m, order)
    dist = m.distance
    diam = m.diameter
    placed = [0]  # the labels of seq[:i], increasing
    for i in range(1, len(seq)):
        u = seq[i]
        start = bisect_right(placed, placed[-1] - diam)
        placed.append(max(placed[j] + diam + 1 - dist(seq[j], u) for j in range(start, i)))
    return RadioLabelling(labels=dict(zip(seq, placed)))


def order_of(labelling: RadioLabelling) -> tuple:
    """Vertices sorted by ascending label."""
    labels = labelling.labels
    if len(set(labels.values())) != len(labels):
        raise DuplicateLabel("labelling has repeated label values")
    return tuple(sorted(labels, key=labels.get))


@dataclass(frozen=True)
class JfProfile:
    """Per-step slack values and the aggregate span decomposition."""

    steps: tuple       # J_f(u_i, u_{i+1}) per consecutive pair of the order
    jf_total: int      # their sum
    sigma: int         # sum of (J_f + 2*phi - delta) per consecutive pair
    span_identity: int  # (p-1)(d+1) - 2L(T) + L(u_0)+L(u_{p-1}) + sigma


def jf_profile(m: TreeMetrics, labelling: RadioLabelling) -> JfProfile:
    """Compute the jump profile and the span decomposition for a labelling."""
    seq = order_of(labelling)
    if len(seq) != m.p or any(v not in labelling.labels for v in range(m.p)):
        raise MissingLabel("labelling does not cover the vertex set")
    labels, level = labelling.labels, m.level
    diam = m.diameter
    steps = []
    sigma = 0
    for u, v in zip(seq, seq[1:]):
        d = m.distance(u, v)
        jf = (labels[v] - labels[u]) + d - (diam + 1)
        steps.append(jf)
        # 2*phi - delta = L(u) + L(v) - d(u, v), by the level identity
        sigma += jf + level[u] + level[v] - d
    p = m.p
    first, last = seq[0], seq[-1]
    identity = (p - 1) * (diam + 1) - 2 * m.total_level \
        + m.level[first] + m.level[last] + sigma
    return JfProfile(
        steps=tuple(steps),
        jf_total=sum(steps),
        sigma=sigma,
        span_identity=identity,
    )


# --- label file format -----------------------------------------------------

def parse_labels_text(text: str) -> RadioLabelling:
    """Parse "v label" lines ('#' comments allowed) into a labelling."""
    labels = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise MissingLabel(f"bad label line: {_quoted(raw)}")
        try:
            v = int(parts[0])
        except ValueError:
            raise BadVertex(f"bad vertex id in label line: {_quoted(raw)}") from None
        try:
            lab = int(parts[1])
        except ValueError:
            raise NonIntegerLabel(f"bad label in label line: {_quoted(raw)}") from None
        if v in labels:
            raise DuplicateLabel(f"vertex {_short_number(v)} labelled twice")
        labels[v] = lab
    return RadioLabelling(labels=labels)


def format_labels_text(labelling: RadioLabelling) -> str:
    lines = [f"{v} {lab}" for v, lab in sorted(labelling.labels.items())]
    return "\n".join(lines) + "\n"
