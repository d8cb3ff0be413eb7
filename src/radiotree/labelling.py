"""Radio labellings: construction from orders, verification, and diagnostics.

A radio labelling assigns distinct non-negative integers to the vertices with
``|f(u) - f(v)| >= diam + 1 - d(u, v)`` for every pair; its span is the
largest label.  Three routes to a labelling live here:

* :func:`label_from_order` — the closed-form recurrence used by the
  certification pipeline, driven by an order and its a-sequence;
* :func:`greedy_label_from_order` — the pointwise-minimal valid completion of
  a fixed order (every radio labelling induces its label order, and the greedy
  completion of that order never has a larger span, so searching orders with
  greedy completion is exact);
* :func:`verify_labelling` — the independent checker everything else is
  audited against; it computes its own distances (no :class:`TreeMetrics`)
  and checks only the pairs that can fail, those within a label gap below
  the diameter.

:func:`jf_profile` reports the per-step slack ``J_f`` and the aggregate
``sigma`` that appear in the span decomposition
``span = (p-1)(d+1) - 2L(T) + L(u_0) + L(u_{p-1}) + sigma(f)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import (
    BadVertex,
    DiameterTooSmall,
    DuplicateLabel,
    LengthMismatch,
    MissingLabel,
    NegativeLabel,
    NonIntegerLabel,
    NotTwoBranch,
)
from .orders import ASequence, _as_order
from .tree import Tree, TreeMetrics, _bfs, delta, distance_matrix, phi


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
    + a_i + (d + epsilon).

    This is the certified construction; no validity check is performed here
    (compose with :func:`verify_labelling` for safety).  Raises
    :class:`NegativeLabel` if the recurrence dips below zero, which signals a
    non-certifying order.
    """
    if not m.two_branch:
        raise NotTwoBranch("the order-driven recurrence targets two-branch trees")
    if m.diameter < 2:
        raise DiameterTooSmall("the order-driven recurrence needs diameter >= 2")
    seq = _as_order(m, order)
    if len(aseq.a) != len(seq) - 1:
        raise LengthMismatch(
            f"a-sequence length {len(aseq.a)} for order length {len(seq)}"
        )
    de = m.diameter + m.epsilon
    lev = [m.level[v] for v in seq]
    labels = {seq[0]: 0}
    f = 0
    for v, lu, lv, ai in zip(seq[1:], lev, lev[1:], aseq.a):
        f += ai + de - lu - lv
        if f < 0:
            raise NegativeLabel(f"label for vertex {v} would be {f}")
        labels[v] = f
    return RadioLabelling(labels=labels)


def verify_labelling(tree: Tree, labelling: RadioLabelling) -> tuple:
    """Check the radio condition on every pair that can fail.

    Distinct vertices are at distance >= 1, so a pair whose labels differ by
    ``diam`` or more meets ``|f(u) - f(v)| >= diam + 1 - d(u, v)``.  The
    vertices are sorted by label and each is compared only with its
    successors while the label gap is below ``diam``: with distinct labels
    that is at most ``diam - 1`` successors per vertex, O(p * diam) pairs.
    Equal labels always violate (``d <= diam``), so before any distance is
    computed each block of equal labels yields a violation, its two smallest
    vertices.  Only a pair with a vertex at or below the smaller vertex ``a``
    of the first such violation can come before it, and only those pairs
    are compared.  The vertices below ``a`` carry distinct labels, so
    repeated labels stay at O(p * diam) pairs too (all-zero labels compare
    p - 1).

    Distances come from the verifier's own BFS, not from
    :class:`TreeMetrics` or a distance table: rooted at the middle vertex of
    a longest path (found by a double BFS), so depths are at most
    ``ceil(diam/2)``; a pair in different subtrees of the root is
    ``depth(u) + depth(v)`` apart, and a pair in one subtree climbs parents
    to the vertex where the two root paths meet.

    Returns (ok, pair): ``pair`` is None, or the lexicographically first
    violating (u, v) with u < v, the pair a scan of all pairs would report.
    A labelling outside the contract raises instead: :class:`BadVertex` for a
    key that is not a vertex of the tree, :class:`NonIntegerLabel` or
    :class:`NegativeLabel` for a bad label, :class:`MissingLabel` for an
    unlabelled vertex.
    """
    labels = labelling.labels
    p = tree.p
    for v, lab in labels.items():
        if type(v) is not int or not 0 <= v < p:
            tree.check_vertex(v)  # raises, unless v is an int subclass in range
        if type(lab) is not int and (not isinstance(lab, int) or isinstance(lab, bool)):
            raise NonIntegerLabel(f"vertex {v} has non-integer label {lab!r}")
        if lab < 0:
            raise NegativeLabel(f"vertex {v} has negative label {lab}")
    if len(labels) != p:
        missing = [v for v in range(p) if v not in labels]
        raise MissingLabel(f"vertices without labels: {missing}")
    first, _ = _first_violation(tree.adjacency, labels)
    return first is None, first


def _middle_rooted(adjacency) -> tuple:
    """The verifier's own distance oracle: ``(diam, depth, parent, top)``.

    A double BFS finds a longest path (the last vertex reached from 0 ends
    one; a BFS from there gives its length and, through its parents, the
    path), and a third BFS is rooted at the path's middle vertex, so every
    depth is at most ``ceil(diam/2)``.  ``top[v]`` is the root's child whose
    subtree holds v (the root for the root): vertices with different ``top``
    are ``depth[u] + depth[v]`` apart.
    """
    far = _bfs(adjacency, [0])[2][-1]
    dist, up, reached = _bfs(adjacency, [far])
    root = end = reached[-1]
    diam = dist[end]
    for _ in range(diam // 2):
        root = up[root]
    depth, parent, order = _bfs(adjacency, [root])
    top = [root] * len(adjacency)
    for v in order[1:]:
        u = parent[v]
        top[v] = v if u == root else top[u]
    return diam, depth, parent, top


def _first_violation(adjacency, lab) -> tuple:
    """The windowed scan behind :func:`verify_labelling` on the labels
    ``lab`` (indexed by vertex): ``(first violating pair or None, pairs
    compared)``.  The count is there for the tests that bound the scan.

    The scan goes by rounds rather than vertex by vertex: round k filters the
    surviving label positions in one list comprehension each, which on the
    certified labellings of the benchmark's family instances takes about 20%
    less time than a per-vertex loop over the same pairs."""
    p = len(adjacency)
    diam, depth, parent, top = _middle_rooted(adjacency)
    # vertex ids and label positions share these int objects, so the
    # position lists below allocate no ints of their own
    ids = list(range(p))
    by_label = sorted(ids, key=lab.__getitem__)  # stable: ties by id
    keys = [lab[v] for v in by_label]
    # Adjacent equal keys give each block of equal labels its two smallest ids.
    first = min(((by_label[i], by_label[i + 1]) for i in range(p - 1) if keys[i] == keys[i + 1]),
                default=None)
    # Only a pair with a vertex at or below low can precede first.  Round k
    # compares the label positions (i, i + k) whose gap is below diam: i from
    # `ahead`, the positions of vertices at or below low, or i + k from
    # `behind`, the same positions, when vertex i lies above low.  Gaps only
    # grow with k, so both lists only shrink.
    if first is None:
        low, ahead, behind = p, ids, []
    else:
        low = first[0]
        ahead = behind = [i for i in ids if by_label[i] <= low]
    compared = 0
    k = 1
    while ahead or behind:
        ahead = [i for i in ahead if i + k < p and keys[i + k] - keys[i] < diam]
        behind = [j for j in behind if j >= k and keys[j] - keys[j - k] < diam]
        starts = ahead + [j - k for j in behind if by_label[j - k] > low] if behind else ahead
        compared += len(starts)
        for i in starts:
            u, v = by_label[i], by_label[i + k]
            if top[u] != top[v]:
                d = depth[u] + depth[v]
            else:
                a, b = u, v  # one subtree: climb to where the root paths meet
                while depth[a] > depth[b]:
                    a = parent[a]
                while depth[b] > depth[a]:
                    b = parent[b]
                while a != b:
                    a, b = parent[a], parent[b]
                d = depth[u] + depth[v] - 2 * depth[a]
            if keys[i + k] - keys[i] + d <= diam:
                pair = (u, v) if u < v else (v, u)
                if first is None or pair < first:
                    first = pair
        k += 1
    return first, compared


def greedy_label_from_order(m: TreeMetrics, order: Sequence) -> RadioLabelling:
    """Pointwise-minimal valid labelling inducing the given order.

    f(u_0) = 0 and each next label is the smallest value satisfying the radio
    constraint against *all* placed vertices (the constraints are global, so
    looking only at the previous vertex would not be sound).
    """
    seq = _as_order(m, order)
    dist = distance_matrix(m.tree)
    diam = m.diameter
    labels = {seq[0]: 0}
    for i in range(1, len(seq)):
        u = seq[i]
        labels[u] = max(labels[w] + diam + 1 - dist[w][u] for w in labels)
    return RadioLabelling(labels=labels)


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
    labels = labelling.labels
    diam = m.diameter
    steps = []
    sigma = 0
    for i in range(len(seq) - 1):
        u, v = seq[i], seq[i + 1]
        jf = (labels[v] - labels[u]) + m.distance(u, v) - (diam + 1)
        steps.append(jf)
        sigma += jf + 2 * phi(m, u, v) - delta(m, u, v)
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
            raise MissingLabel(f"bad label line: {raw!r}")
        try:
            v = int(parts[0])
        except ValueError:
            raise BadVertex(f"bad vertex id in label line: {raw!r}") from None
        try:
            lab = int(parts[1])
        except ValueError:
            raise NonIntegerLabel(f"bad label in label line: {raw!r}") from None
        if v in labels:
            raise DuplicateLabel(f"vertex {v} labelled twice")
        labels[v] = lab
    return RadioLabelling(labels=labels)


def format_labels_text(labelling: RadioLabelling) -> str:
    lines = [f"{v} {lab}" for v, lab in sorted(labelling.labels.items())]
    return "\n".join(lines) + "\n"
