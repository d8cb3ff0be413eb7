"""Tree construction, distances, and the structural metrics behind the bounds.

A tree lives on vertex ids ``0..p-1``.  All the quantities the bound formulas
consume are derived here once per tree and carried in :class:`TreeMetrics`:

* the diameter ``d``,
* the weight centers ``W`` (the one or two adjacent vertices minimizing the
  total distance ``w(v) = sum_u d(u, v)``) and ``epsilon = 2 - |W|``, found
  with no weight computed as the centroids (see :func:`metrics`),
* per-vertex levels ``L(u)`` (distance to the nearest weight center) and the
  total level ``L(T)``,
* the branches of ``T - W``, each named by its one level-1 vertex, and
  whether the tree is two-branch (has two level-1 vertices),
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
table of :func:`distance_matrix` is built only by the exact solver.  That
table runs one BFS: each vertex's row is its BFS parent's row plus 1, minus
2 on the vertex's own subtree, so it costs p row copies and the sum of the
subtree sizes rather than p BFS runs.

The independent verifier (:func:`radiotree.labelling.verify_labelling`) uses
none of these metrics.  It reroots its own BFS tree at the middle vertex of a
longest path, so every vertex is at depth at most ``ceil(d/2)``: a pair in
different subtrees of that root is ``depth(u) + depth(v)`` apart.  A pair in one
subtree with label gap ``g`` violates iff its two root paths meet at depth
at least ``h = ceil((depth(u) + depth(v) - (d - g)) / 2)``, so each side
climbs parent pointers only down to depth ``h``, not to the meeting vertex.
Certification therefore builds no table.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Iterable, Sequence

from .errors import BadEdge, BadVertex, NotATree, SparseIds

CENTER_BRANCH = -1  # sentinel branch id carried by weight centers


@dataclass(frozen=True)
class Tree:
    """Immutable unrooted tree on vertices 0..p-1, stored only as its rows.

    ``adjacency[u]`` is the sorted tuple of u's neighbours.  Every other view
    of the tree (levels, centers, branches, distances, the edge list of
    :func:`edge_pairs`) is read off these rows; no edge set is kept.
    """

    p: int
    adjacency: tuple  # tuple of sorted tuples of neighbour ids

    def check_vertex(self, u: int) -> None:
        # a plain int skips the isinstance tests: condition (b) checks every
        # same-branch pair through TreeMetrics.distance
        if type(u) is not int and (not isinstance(u, int) or isinstance(u, bool)) \
                or not 0 <= u < self.p:
            raise BadVertex(f"vertex {_short_number(u)} not in 0..{self.p - 1}")


def _make_tree(p: int, edges: Iterable[tuple]) -> Tree:
    """The tree on 0..p-1 with these edges, trusted to form one: the family
    generators build theirs by arithmetic; parsed input goes through
    :func:`build_tree`, which validates."""
    adj = [[] for _ in range(p)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return Tree(p=p, adjacency=tuple(tuple(sorted(ns)) for ns in adj))


def _sparse_ids(p: int, unused: int, is_unused) -> SparseIds:
    # the first few gaps only: p may be far larger than the input
    missing = list(islice(filter(is_unused, range(p)), 5))
    return SparseIds(
        f"{_short_number(unused)} unused vertex ids, starting {missing}; "
        f"ids must cover 0..{_short_number(p - 1)}"
    )


def build_tree(edge_list: Sequence) -> Tree:
    """Build a canonical :class:`Tree` from an edge list.

    The vertex set is 0..max-id.  The checks run in this order, and the first
    that fails raises:

    1. one scan of the edges: :class:`BadEdge` on an id that is not a
       non-negative integer (a bool is not one), or on a self-loop;
    2. :class:`SparseIds` when max-id + 1 exceeds twice the number of edges,
       so some id must be unused; this runs before anything p-sized is
       allocated, so a huge id costs nothing;
    3. the sorted adjacency rows are built;
    4. :class:`BadEdge` on a duplicate edge (a neighbour repeated in a row);
    5. :class:`SparseIds` on an id that carries no edge (an empty row);
    6. :class:`NotATree` when there are not p - 1 edges, or when they do not
       connect the p vertices.

    An input with one fault raises that fault's class.  An input with several
    faults raises the first in this order, which need not be the first in
    edge-list order: ``[(0, 1), (0, 1), (1, 10**15)]`` raises
    :class:`SparseIds`, not the duplicate's :class:`BadEdge`.
    """
    if not edge_list:
        raise NotATree("empty edge list")
    max_id = 0
    for e in edge_list:
        u, v = e
        # a bool is an int, but no vertex id (Tree.check_vertex refuses it)
        if not (isinstance(u, int) and isinstance(v, int)) or type(u) is bool \
                or type(v) is bool or u < 0 or v < 0:
            raise BadEdge(f"edge ({_short_number(u)}, {_short_number(v)}): "
                          "vertex ids must be non-negative integers")
        if u == v:
            raise BadEdge(f"self-loop at vertex {_short_number(u)}")
        if u > max_id:
            max_id = u
        if v > max_id:
            max_id = v
    p = max_id + 1
    n_edges = len(edge_list)
    if p > 2 * n_edges:
        used = set(chain.from_iterable(edge_list))  # input-sized, not p-sized
        raise _sparse_ids(p, p - len(used), lambda v: v not in used)
    tree = _make_tree(p, edge_list)
    adj = tree.adjacency
    # a repeated edge repeats a neighbour in a sorted row; the lower
    # endpoint's row comes first, so (u, a) has u < a
    for u, row in enumerate(adj):
        for a, b in zip(row, row[1:]):
            if a == b:
                raise BadEdge(f"duplicate edge {(u, a)}")
    unused = adj.count(())
    if unused:
        raise _sparse_ids(p, unused, lambda v: not adj[v])
    if n_edges != p - 1:
        raise NotATree(f"{n_edges} edges for {p} vertices; a tree needs {p - 1}")
    # p-1 edges + connected <=> tree
    _, _, reached = _bfs(adj, [0])
    if len(reached) != p:
        raise NotATree("edge list is disconnected")
    return tree


def _decode_pruefer(seq) -> Tree:
    """The tree on len(seq) + 2 vertices whose Pruefer sequence is ``seq``."""
    n = len(seq) + 2
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append(tuple(leaves))  # the last two
    return _make_tree(n, edges)


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


def distance_matrix(tree: Tree) -> list:
    """Full p x p distance table, a fresh list of lists, for all-pairs users.

    One BFS from vertex 0 gives row 0 and the BFS tree.  Every other row is
    built from its BFS parent's row: stepping from u to its child v moves one
    edge away from every vertex but those on v's side of the edge, the
    subtree of v, which it moves one edge closer to.  So row v is row u plus
    1 everywhere, minus 2 on v's subtree.  The subtrees are listed bottom-up,
    so the table costs p row copies plus the sum of the subtree sizes, which
    is p times the mean depth below vertex 0, in place of p BFS runs.
    """
    row0, parent, order = _bfs(tree.adjacency, [0])
    subtree = [[v] for v in range(tree.p)]
    for v in reversed(order[1:]):
        subtree[parent[v]] += subtree[v]
    rows = [row0] * tree.p
    for v in order[1:]:  # parents first
        rows[v] = row = [d + 1 for d in rows[parent[v]]]
        for x in subtree[v]:
            row[x] -= 2
    return rows


@dataclass(frozen=True)
class TreeMetrics:
    """Derived structural record for one tree (immutable)."""

    tree: Tree
    diameter: int
    weight_centers: frozenset
    epsilon: int
    level: tuple  # L(u) per vertex
    total_level: int
    # per vertex, its branch of T - W named by the branch's level-1 vertex,
    # the one on its path to its center; weight centers carry CENTER_BRANCH
    branch_id: tuple
    remote_set: frozenset
    xi: int
    two_branch: bool  # T - W has two components, so d >= 2: P_1, P_2 have none
    parent: tuple = field(repr=False)  # BFS predecessor toward the centers
    center_of: tuple = field(repr=False)  # nearest weight center per vertex

    @property
    def p(self) -> int:
        return self.tree.p

    def distance(self, u: int, v: int) -> int:
        """d(u, v) by the level identity L(u) + L(v) - 2*phi(u, v) + delta(u, v).

        A pair whose nearest centers differ crosses both (delta = 1, phi = 0);
        a pair in different branches of T - W, or with a weight center in it,
        meets only at its center (phi = delta = 0).  Only a pair inside one
        branch climbs parent pointers, through :func:`_meet_level`.
        """
        self.tree.check_vertex(u)
        self.tree.check_vertex(v)
        level = self.level
        if self.center_of[u] != self.center_of[v]:
            return level[u] + level[v] + 1
        if self.branch_id[u] != self.branch_id[v]:
            return level[u] + level[v]
        return level[u] + level[v] - 2 * _meet_level(level, self.parent, u, v)


def metrics(tree: Tree) -> TreeMetrics:
    """Compute all per-tree structural metrics (pure function of the tree), in O(p).

    The weight centers are the centroids, read off the subtree sizes of one
    BFS from vertex 0.  A step to a neighbour whose side of the edge holds s
    vertices changes w by p - 2s.  The walk from 0 into the child holding
    more than p/2 (at most one does) ends at a vertex c whose every side
    holds at most p/2, the side above fewer.  Along a path out of c the sides
    shrink, so w rises at every step but a first one onto a side of exactly
    p/2.  The centers are thus c and the child of c holding p/2, if any (c's
    sides hold p - 1 vertices in all, so one at most): one vertex or two
    adjacent ones.
    """
    p = tree.p
    adj = tree.adjacency

    # Subtree sizes in the BFS tree from 0.  The same bottom-up pass keeps
    # each vertex's height: a longest path turns at the vertex whose two
    # longest downward paths through different children are longest together.
    _, parent, order0 = _bfs(adj, [0])
    size = [1] * p
    height = [0] * p
    diam = 0
    for v in reversed(order0[1:]):
        u, hv = parent[v], height[v] + 1
        size[u] += size[v]
        if height[u] + hv > diam:
            diam = height[u] + hv
        if hv > height[u]:
            height[u] = hv

    # The centroid walk: into the child holding more than p/2 while there
    # is one; a child holding exactly p/2 is the second center.
    c, walk = 0, [0]
    while heavy := [v for v in adj[c] if parent[v] == c and 2 * size[v] > p]:
        c = heavy[0]
        walk.append(c)
    centers = [c, *(v for v in adj[c] if parent[v] == c and 2 * size[v] == p)]
    cset = frozenset(centers)
    eps = 2 - len(centers)

    # Levels, predecessors, owning centers and branch ids (the level-1
    # vertex above, which names the branch): the BFS tree rerooted at the
    # centers, the walk from 0 turned round.  The walk backwards, then the
    # BFS order, puts parents first.
    for u, v in zip(walk[1:], walk):
        parent[v] = u
    level, center_of, top = [-1] * p, [-1] * p, [CENTER_BRANCH] * p
    for c in centers:
        parent[c], level[c], center_of[c] = -1, 0, c
    for v in chain(reversed(walk), order0):
        if level[v] < 0:
            u = parent[v]
            level[v], center_of[v] = level[u] + 1, center_of[u]
            top[v] = v if level[u] == 0 else top[u]
    total = sum(level)

    # ceil(d/2) with one center, floor(d/2) with two
    threshold = (diam + eps) // 2
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
        branch_id=tuple(top),
        remote_set=remote,
        xi=xi,
        two_branch=level.count(1) == 2,  # one level-1 vertex per branch
        parent=tuple(parent),
        center_of=tuple(center_of),
    )


def _meet_level(level: tuple, parent: tuple, u: int, v: int) -> int:
    """The level where the center-to-vertex paths of u and v meet, for two
    vertices in one branch of T - W: climb from the deeper one, then from
    both, until they are one vertex."""
    while level[u] > level[v]:
        u = parent[u]
    while level[v] > level[u]:
        v = parent[v]
    while u != v:
        u, v = parent[u], parent[v]
    return level[u]


# --- tree text format ------------------------------------------------------

def _quoted(line: str) -> str:
    # an input line may be megabytes long: quote its start only
    return repr(line) if len(line) <= 80 else f"{line[:80]!r}... ({len(line)} characters)"


def _short_number(n) -> str:
    # an input number may have thousands of digits: show its first 20 only;
    # a value that is no int is shown by its repr
    if not isinstance(n, int):
        return repr(n)
    size = abs(n)
    if size < 10 ** 20:
        return str(n)
    digits = (size.bit_length() - 1) * 30102 // 100000 + 1  # 0.30102 < log10(2)
    while 10 ** digits <= size:
        digits += 1
    head = size // 10 ** (digits - 20)
    return f"{'-' if n < 0 else ''}{head}... ({digits} digits)"


def parse_tree_text(text: str) -> Tree:
    """Parse the edge-list text format: one "u v" pair per line, '#' comments."""
    edges = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise NotATree(f"bad edge line: {_quoted(raw)}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise NotATree(f"bad edge line: {_quoted(raw)}") from None
        if u < 0 or v < 0:
            raise BadEdge(f"negative vertex id in line {_quoted(raw)}")
        edges.append((u, v))
    return build_tree(edges)


def edge_pairs(tree: Tree):
    """The edges as ``(u, v)`` with ``u < v``, in sorted order: each row is
    sorted, so reading the rows in turn yields them already ordered."""
    for u, row in enumerate(tree.adjacency):
        for v in row:
            if v > u:
                yield u, v


def format_tree_text(tree: Tree) -> str:
    """Emit the canonical edge list, one edge per line, sorted."""
    lines = [f"{u} {v}" for u, v in edge_pairs(tree)]
    return "\n".join(lines) + "\n"
