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
from .orders import ASequence, check_order
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
    seq = check_order(m, order)
    if len(aseq.a) != len(seq) - 1:
        raise LengthMismatch(
            f"a-sequence length {len(aseq.a)} for order length {len(seq)}"
        )
    de = m.diameter + m.epsilon
    labels = {seq[0]: 0}
    f = 0
    for i in range(len(seq) - 1):
        f = f - (m.level[seq[i]] + m.level[seq[i + 1]]) + aseq.a[i] + de
        if f < 0:
            raise NegativeLabel(f"label for vertex {seq[i + 1]} would be {f}")
        labels[seq[i + 1]] = f
    return RadioLabelling(labels=labels)


def verify_labelling(tree: Tree, labelling: RadioLabelling) -> tuple:
    """Check the radio condition on every pair that can fail.

    Distinct vertices are at distance >= 1, so a pair whose labels differ by
    ``diam`` or more meets ``|f(u) - f(v)| >= diam + 1 - d(u, v)``.  The
    vertices are sorted by label and each is compared only with its
    successors while the label gap is below ``diam``: with distinct labels
    that is at most ``diam - 1`` successors per vertex, O(p * diam) pairs.
    Distances come from the verifier's own BFS from vertex 0 (climbing
    parents to where the two root paths meet), not from :class:`TreeMetrics`
    or a distance table.

    Returns (ok, pair): ``pair`` is None, or the lexicographically first
    violating (u, v) with u < v, the pair a scan of all pairs would report;
    equal labels violate the condition too (any pair needs gap >= 1).
    A labelling outside the contract raises instead: :class:`BadVertex` for a
    key that is not a vertex of the tree, :class:`NonIntegerLabel` or
    :class:`NegativeLabel` for a bad label, :class:`MissingLabel` for an
    unlabelled vertex.
    """
    labels = labelling.labels
    for v, lab in labels.items():
        tree.check_vertex(v)
        if not isinstance(lab, int) or isinstance(lab, bool):
            raise NonIntegerLabel(f"vertex {v} has non-integer label {lab!r}")
        if lab < 0:
            raise NegativeLabel(f"vertex {v} has negative label {lab}")
    missing = [v for v in range(tree.p) if v not in labels]
    if missing:
        raise MissingLabel(f"vertices without labels: {missing}")
    # Own distances, independent of TreeMetrics: depths and parents from one
    # BFS rooted at 0, the diameter from a second BFS from the last vertex
    # the first one reached (an end of a longest path).
    depth, parent, reached = _bfs(tree.adjacency, [0])
    diam = max(_bfs(tree.adjacency, [reached[-1]])[0])
    # Distinct vertices are at distance >= 1, so a pair whose labels differ by
    # diam or more passes: scan each vertex's successors in label order only
    # while the gap stays below diam.
    by_label = sorted(range(tree.p), key=labels.__getitem__)
    first = None
    for i, u in enumerate(by_label):
        lu = labels[u]
        for j in range(i + 1, tree.p):
            v = by_label[j]
            gap = labels[v] - lu
            if gap >= diam:
                break
            a, b = u, v  # climb to the vertex where the root paths meet
            while depth[a] > depth[b]:
                a = parent[a]
            while depth[b] > depth[a]:
                b = parent[b]
            while a != b:
                a, b = parent[a], parent[b]
            if gap < diam + 1 - (depth[u] + depth[v] - 2 * depth[a]):
                pair = (u, v) if u < v else (v, u)
                if first is None or pair < first:
                    first = pair
    return first is None, first


def greedy_label_from_order(m: TreeMetrics, order: Sequence) -> RadioLabelling:
    """Pointwise-minimal valid labelling inducing the given order.

    f(u_0) = 0 and each next label is the smallest value satisfying the radio
    constraint against *all* placed vertices (the constraints are global, so
    looking only at the previous vertex would not be sound).
    """
    seq = check_order(m, order)
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
