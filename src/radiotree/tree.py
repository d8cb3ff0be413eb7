"""Tree construction, distances, and the structural metrics behind the bounds.

A tree lives on vertex ids ``0..p-1``.  All the quantities the bound formulas
consume are derived here once per tree and carried in :class:`TreeMetrics`:

* the diameter ``d``,
* the weight centers ``W`` (the one or two adjacent vertices minimizing the
  total distance ``w(v) = sum_u d(u, v)``) and ``epsilon = 2 - |W|``,
* per-vertex levels ``L(u)`` (distance to the nearest weight center) and the
  total level ``L(T)``,
* the branches of ``T - W`` and whether the tree is two-branch,
* the remote set ``S`` (vertices of level at least ceil(d/2), resp. floor(d/2)
  when there are two centers) and the increment ``xi`` it contributes to the
  improved lower bound.

The level decomposition also yields a closed form for distances:
``d(u, v) = L(u) + L(v) - 2*phi(u, v) + delta(u, v)`` where ``phi`` is the
highest level on the common part of the two center-to-vertex paths and
``delta`` marks pairs whose path crosses both weight centers.  Two vertices
in different branches of ``T - W`` (or a weight center and any other vertex)
have ``phi = 0``, so their distance is ``L(u) + L(v) + delta(u, v)`` from the
levels alone; only a pair inside one branch climbs parent pointers.  This
identity is the only pairwise distance on :class:`TreeMetrics`; the full
table of :func:`distance_matrix` is built only by the all-pairs users (the
greedy completion and the exact solver).

The independent verifier (:func:`radiotree.labelling.verify_labelling`) uses
none of this.  It roots its own BFS at the middle vertex of a longest path,
so every vertex is at depth at most ``ceil(d/2)``: a pair in different
subtrees of that root is ``depth(u) + depth(v)`` apart, and a pair in one
subtree climbs parent pointers.  Certification therefore builds no table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from typing import Iterable, Sequence

from .errors import BadEdge, BadVertex, DiameterTooSmall, NotATree, SparseIds

CENTER_BRANCH = -1  # sentinel branch id carried by weight centers


@dataclass(frozen=True)
class Tree:
    """Immutable unrooted tree on vertices 0..p-1 with canonical adjacency."""

    p: int
    edges: frozenset  # frozenset of (u, v) tuples with u < v
    adjacency: tuple  # tuple of sorted tuples of neighbour ids

    def check_vertex(self, u: int) -> None:
        # a plain int skips the isinstance tests: condition (b) checks every
        # same-branch pair through TreeMetrics.distance
        if type(u) is not int and (not isinstance(u, int) or isinstance(u, bool)) \
                or not 0 <= u < self.p:
            raise BadVertex(f"vertex {u!r} not in 0..{self.p - 1}")


def _make_tree(p: int, edges: Iterable[tuple]) -> Tree:
    adj = [[] for _ in range(p)]
    canonical = set()
    for u, v in edges:
        a, b = (u, v) if u < v else (v, u)
        canonical.add((a, b))
        adj[a].append(b)
        adj[b].append(a)
    return Tree(
        p=p,
        edges=frozenset(canonical),
        adjacency=tuple(tuple(sorted(ns)) for ns in adj),
    )


def build_tree(edge_list: Sequence) -> Tree:
    """Build a canonical :class:`Tree` from an edge list.

    The vertex set is 0..max-id; raises :class:`BadEdge` on self-loops or
    duplicates, :class:`SparseIds` when some id in range carries no edge, and
    :class:`NotATree` when the edges do not form a single tree.
    """
    if not edge_list:
        raise NotATree("empty edge list")
    seen = set()
    max_id = 0
    for e in edge_list:
        u, v = e
        if not (isinstance(u, int) and isinstance(v, int)) or u < 0 or v < 0:
            raise BadEdge(f"edge {e!r}: vertex ids must be non-negative integers")
        if u == v:
            raise BadEdge(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise BadEdge(f"duplicate edge {key}")
        seen.add(key)
        max_id = max(max_id, u, v)
    p = max_id + 1
    used = set()
    for u, v in seen:
        used.add(u)
        used.add(v)
    if len(used) != p:
        # the first few gaps only: max_id may be far larger than the input
        missing = list(islice((v for v in range(p) if v not in used), 5))
        raise SparseIds(
            f"{p - len(used)} unused vertex ids, starting {missing}; ids must cover 0..{max_id}"
        )
    if len(seen) != p - 1:
        raise NotATree(f"{len(seen)} edges for {p} vertices; a tree needs {p - 1}")
    tree = _make_tree(p, seen)
    # p-1 edges + connected <=> tree
    _, _, reached = _bfs(tree.adjacency, [0])
    if len(reached) != p:
        raise NotATree("edge list is disconnected")
    return tree


def _bfs(adjacency, sources: Sequence) -> tuple:
    """Breadth-first search from one or more sources.

    Returns ``(dist, parent, order)``: hop counts to the nearest source (-1
    when unreached), the predecessor on a shortest path (-1 at the sources
    and unreached vertices) and the reached vertices in visiting order.
    """
    dist = [-1] * len(adjacency)
    parent = [-1] * len(adjacency)
    order = list(sources)
    for s in order:
        dist[s] = 0
    for u in order:  # the list grows while it is read: it is the queue
        du = dist[u] + 1
        for v in adjacency[u]:
            if dist[v] < 0:
                dist[v] = du
                parent[v] = u
                order.append(v)
    return dist, parent, order


def distance(tree: Tree, u: int, v: int) -> int:
    """Shortest-path hop count between ``u`` and ``v`` (one BFS)."""
    tree.check_vertex(u)
    tree.check_vertex(v)
    if u == v:
        return 0
    return _bfs(tree.adjacency, [u])[0][v]


@lru_cache(maxsize=128)
def distance_matrix(tree: Tree) -> tuple:
    """Full p x p distance table (cached per tree), for all-pairs users."""
    return tuple(tuple(_bfs(tree.adjacency, [s])[0]) for s in range(tree.p))


@dataclass(frozen=True)
class TreeMetrics:
    """Derived structural record for one tree (immutable)."""

    tree: Tree
    diameter: int
    weight_centers: frozenset
    epsilon: int
    level: tuple  # L(u) per vertex
    total_level: int
    branch_id: tuple  # per vertex; weight centers carry CENTER_BRANCH
    remote_set: frozenset
    xi: int
    two_branch: bool
    vertex_weight: tuple  # w(v) per vertex
    parent: tuple = field(repr=False)  # BFS predecessor toward the centers
    center_of: tuple = field(repr=False)  # nearest weight center per vertex

    @property
    def p(self) -> int:
        return self.tree.p

    def distance(self, u: int, v: int) -> int:
        """d(u, v) by the level identity L(u) + L(v) - 2*phi(u, v) + delta(u, v)."""
        self.tree.check_vertex(u)
        self.tree.check_vertex(v)
        return self.level[u] + self.level[v] - 2 * _phi(self, u, v) + _delta(self, u, v)


def metrics(tree: Tree) -> TreeMetrics:
    """Compute all per-tree structural metrics (pure function of the tree), in O(p)."""
    p = tree.p
    adj = tree.adjacency

    # Weights by rerooting one BFS from vertex 0: moving the root from a
    # parent to its child c brings the size(c) vertices below c one step
    # closer and takes the other p - size(c) one step farther.
    dist0, parent0, order0 = _bfs(adj, [0])
    size = [1] * p
    for v in reversed(order0[1:]):
        size[parent0[v]] += size[v]
    weights = [0] * p
    weights[0] = sum(dist0)
    for v in order0[1:]:
        weights[v] = weights[parent0[v]] + p - 2 * size[v]
    weights = tuple(weights)
    # Double BFS: the last vertex reached from 0 ends a longest path.
    diam = max(_bfs(adj, [order0[-1]])[0])

    wmin = min(weights)
    centers = [v for v in range(p) if weights[v] == wmin]
    if len(centers) > 2:
        raise AssertionError("more than two weight centers in a tree")
    if len(centers) == 2:
        a, b = centers
        if b not in adj[a]:
            raise AssertionError("two weight centers must be adjacent")
    cset = frozenset(centers)
    eps = 2 - len(centers)

    # BFS from the centers: levels, predecessors, owning center, and the
    # level-1 vertex above each vertex (its branch of T - W).
    level, parent, order = _bfs(adj, centers)
    total = sum(level)
    center_of = [-1] * p
    top = [-1] * p
    for v in order:
        u = parent[v]
        if u < 0:
            center_of[v] = v
        else:
            center_of[v] = center_of[u]
            top[v] = v if level[v] == 1 else top[u]

    # Branches: components of T - W, numbered by smallest contained vertex.
    branch = [CENTER_BRANCH] * p
    index = {}
    for v in range(p):
        if top[v] >= 0:
            branch[v] = index.setdefault(top[v], len(index))

    if len(centers) == 1:
        threshold = -(-diam // 2)  # ceil(d/2)
    else:
        threshold = diam // 2
    remote = frozenset(v for v in range(p) if level[v] >= threshold) if p > 1 else frozenset()
    if len(centers) == 1:
        xi = len(remote) // 2
    else:
        xi = max(0, len(remote) - 2)

    return TreeMetrics(
        tree=tree,
        diameter=diam,
        weight_centers=cset,
        epsilon=eps,
        level=tuple(level),
        total_level=total,
        branch_id=tuple(branch),
        remote_set=remote,
        xi=xi,
        two_branch=(len(index) == 2),
        vertex_weight=weights,
        parent=tuple(parent),
        center_of=tuple(center_of),
    )


def phi(m: TreeMetrics, u: int, v: int) -> int:
    """Highest level on the common part of the two center-to-vertex paths:
    climb from the deeper vertex until the paths meet."""
    m.tree.check_vertex(u)
    m.tree.check_vertex(v)
    return _phi(m, u, v)


def _phi(m: TreeMetrics, u: int, v: int) -> int:
    """:func:`phi` on vertices already checked.

    Paths into different branches of T - W share at most their center, at
    level 0, so only a pair inside one branch climbs.
    """
    if m.branch_id[u] != m.branch_id[v] or m.center_of[u] != m.center_of[v]:
        return 0  # different branches, or the two centers
    level, parent = m.level, m.parent
    while level[u] > level[v]:
        u = parent[u]
    while level[v] > level[u]:
        v = parent[v]
    while u != v:
        u, v = parent[u], parent[v]
    return level[u]


def delta(m: TreeMetrics, u: int, v: int) -> int:
    """1 iff there are two weight centers and the u-v path crosses both."""
    m.tree.check_vertex(u)
    m.tree.check_vertex(v)
    return _delta(m, u, v)


def _delta(m: TreeMetrics, u: int, v: int) -> int:
    """:func:`delta` on vertices already checked."""
    return 1 if m.center_of[u] != m.center_of[v] else 0


def distance_by_levels(m: TreeMetrics, u: int, v: int) -> int:
    """:meth:`TreeMetrics.distance`, under the paper's hypothesis d >= 2."""
    if m.diameter < 2:
        raise DiameterTooSmall(f"level distance identity needs diameter >= 2, got {m.diameter}")
    return m.distance(u, v)


# --- tree text format ------------------------------------------------------

def parse_tree_text(text: str) -> Tree:
    """Parse the edge-list text format: one "u v" pair per line, '#' comments."""
    edges = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise NotATree(f"bad edge line: {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise NotATree(f"bad edge line: {raw!r}") from None
        if u < 0 or v < 0:
            raise BadEdge(f"negative vertex id in line {raw!r}")
        edges.append((u, v))
    return build_tree(edges)


def format_tree_text(tree: Tree) -> str:
    """Emit the canonical edge list, one edge per line, sorted."""
    lines = [f"{u} {v}" for u, v in sorted(tree.edges)]
    return "\n".join(lines) + "\n"
