"""Chordal-graph primitives: recognition, cliques, clique trees, edge classes, separators.

`is_chordal` and `maximal_cliques` read one elimination pass. The engine tests
chordality only where a graph enters it (`iso.is_isomorphic`).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Optional

from .errors import Disconnected, NotChordal
from .graph import Graph


@dataclass(frozen=True)
class EliminationOrdering:
    """Perfect elimination ordering: later neighbors of each vertex form a clique."""

    order: tuple[int, ...]


@dataclass(frozen=True)
class WeightedCliqueGraph:
    """Maximal cliques with intersection-weighted edges (weight > 0 only)."""

    nodes: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int, int], ...]  # (i, j, weight), i < j


@dataclass(frozen=True)
class CliqueTree:
    """Maximum-weight spanning tree of the weighted clique graph."""

    nodes: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]  # (i, j), i < j


INDISPENSABLE = "indispensable"
UNNECESSARY = "unnecessary"
OPTIONAL = "optional"


@dataclass(frozen=True)
class Separator:
    """Minimal vertex separator."""

    vertices: tuple[int, ...]


def maximum_cardinality_search(g: Graph) -> list[int]:
    """MCS visit order v_1..v_n; its reverse is a PEO iff g is chordal.

    Each step visits an unvisited vertex of largest weight, the smallest on a
    tie. The unvisited vertices sit in one bucket per weight below a pointer
    to the top nonempty bucket (Tarjan and Yannakakis, SIAM J. Comput. 1984).
    Each bucket is a min-heap, so the tie-break costs O(log n); a vertex
    enters the heap of each weight it reaches once, and an entry whose vertex
    was visited or gained weight since is dropped when it reaches the top.
    """
    n = g.n
    weight = [0] * n
    visited = [False] * n
    buckets: list[list[int]] = [list(range(n))]  # a sorted list is a heap
    top = 0
    order = []
    for _ in range(n):
        bucket = buckets[top]
        while not bucket or visited[bucket[0]] or weight[bucket[0]] != top:
            if bucket:
                heappop(bucket)
            else:
                top -= 1
                bucket = buckets[top]
        best = heappop(bucket)
        visited[best] = True
        order.append(best)
        for w in g.adj[best]:
            if not visited[w]:
                weight[w] += 1
                k = weight[w]
                if k == len(buckets):
                    buckets.append([w])
                else:
                    heappush(buckets[k], w)
                if k > top:
                    top = k
    return order


def _eliminate(g: Graph) -> Optional[tuple[tuple[int, ...], list[tuple[int, ...]]]]:
    """The reverse of g's MCS order and g's maximal cliques, or None when g is not chordal.

    Walking the MCS order, u's later neighbours (in the reverse order) are the
    visited ones; v is the earliest. The order is perfect iff the rest are
    adjacent to v (Tarjan and Yannakakis, SIAM J. Comput. 1984), and v plus its
    later neighbours lies in another clique iff some such u has one more
    (Fulkerson and Gross, Pacific J. Math. 1965).
    """
    mcs = maximum_cardinality_search(g)
    rank = [-1] * g.n  # MCS step of each vertex visited so far
    later: list[list[int]] = [[] for _ in g.vertices()]
    covered = [False] * g.n
    for i, u in enumerate(mcs):
        lu = later[u] = [w for w in g.adj[u] if rank[w] >= 0]
        rank[u] = i
        if not lu:
            continue
        v = max(lu, key=rank.__getitem__)
        if any(w not in g.adj[v] for w in lu if w != v):
            return None
        if len(lu) == len(later[v]) + 1:
            covered[v] = True
    cliques = sorted(tuple(sorted([v] + later[v])) for v in g.vertices() if not covered[v])
    return tuple(reversed(mcs)), cliques


def is_chordal(g: Graph) -> Optional[EliminationOrdering]:
    """A perfect elimination ordering of g, or None when g is not chordal."""
    found = _eliminate(g)
    return None if found is None else EliminationOrdering(found[0])


def simplicial_vertices(g: Graph) -> frozenset[int]:
    """Vertices whose neighborhood induces a clique."""
    return frozenset(v for v in g.vertices() if g.is_clique(g.adj[v]))


def maximal_cliques(g: Graph) -> list[tuple[int, ...]]:
    """All maximal cliques of g, sorted lexicographically; NotChordal if g is not chordal."""
    found = _eliminate(g)
    if found is None:
        raise NotChordal("maximal_cliques requires a chordal graph")
    return found[1]


def weighted_clique_graph(g: Graph) -> WeightedCliqueGraph:
    """Clique graph with |C_i ∩ C_j| edge weights (edges only for nonempty intersections)."""
    nodes = tuple(maximal_cliques(g))
    sets = [frozenset(c) for c in nodes]
    edges = []
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            w = len(sets[i] & sets[j])
            if w > 0:
                edges.append((i, j, w))
    return WeightedCliqueGraph(nodes, tuple(edges))


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def clique_tree(g: Graph, wcg: Optional[WeightedCliqueGraph] = None) -> CliqueTree:
    """Deterministic maximum-weight spanning tree of the clique graph.

    Ties are broken by lexicographically smallest (i, j) node-index pair,
    with nodes in the canonical sorted-clique order.
    """
    if not g.is_connected():
        raise Disconnected("clique_tree requires a connected graph")
    if wcg is None:
        wcg = weighted_clique_graph(g)
    k = len(wcg.nodes)
    uf = _UnionFind(k)
    chosen = []
    for i, j, _w in sorted(wcg.edges, key=lambda e: (-e[2], e[0], e[1])):
        if uf.union(i, j):
            chosen.append((i, j))
    if len(chosen) != k - 1:
        raise Disconnected("clique graph is disconnected")
    return CliqueTree(wcg.nodes, tuple(sorted(chosen)))


def classify_edges(wcg: WeightedCliqueGraph) -> dict[tuple[int, int], str]:
    """Classify clique-graph edges against maximum-weight spanning trees.

    An edge is unnecessary iff its endpoints are connected by strictly
    heavier edges; indispensable iff it is a bridge once same-or-heavier
    edges are added to the strictly-heavier skeleton.
    """
    k = len(wcg.nodes)
    result: dict[tuple[int, int], str] = {}
    by_weight: dict[int, list[tuple[int, int]]] = {}
    for i, j, w in wcg.edges:
        by_weight.setdefault(w, []).append((i, j))
    uf = _UnionFind(k)
    for w in sorted(by_weight, reverse=True):
        group = by_weight[w]
        # components of the strictly-heavier subgraph
        comp = {x: uf.find(x) for pair in group for x in pair}
        live = []
        for i, j in group:
            if comp[i] == comp[j]:
                result[(i, j)] = UNNECESSARY
            else:
                live.append((i, j))
        # bridges of the contracted weight-class multigraph are indispensable
        bridges = _multigraph_bridges(live, comp)
        for e in live:
            result[e] = INDISPENSABLE if e in bridges else OPTIONAL
        for i, j in live:
            uf.union(i, j)
    return result


def _multigraph_bridges(edges, comp):
    """Bridges among `edges` after contracting endpoints by comp[]; parallel edges never qualify."""
    adj: dict[int, list[tuple[int, tuple[int, int]]]] = {}
    for e in edges:
        a, b = comp[e[0]], comp[e[1]]
        adj.setdefault(a, []).append((b, e))
        adj.setdefault(b, []).append((a, e))
    bridges: set[tuple[int, int]] = set()
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    counter = [0]
    for root in adj:
        if root in index:
            continue
        # iterative DFS with per-edge tracking so parallel edges are handled
        stack = [(root, None, iter(adj[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        while stack:
            node, in_edge, it = stack[-1]
            advanced = False
            for nxt, e in it:
                if e is in_edge:
                    continue
                if nxt not in index:
                    index[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    stack.append((nxt, e, iter(adj[nxt])))
                    advanced = True
                    break
                low[node] = min(low[node], index[nxt])
            if not advanced:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[node])
                    if low[node] > index[parent]:
                        bridges.add(in_edge)
        # parallel edges: both copies connect the same contracted pair, never bridges
    seen_pairs: dict[tuple[int, int], int] = {}
    for e in edges:
        a, b = comp[e[0]], comp[e[1]]
        pair = (min(a, b), max(a, b))
        seen_pairs[pair] = seen_pairs.get(pair, 0) + 1
    return {e for e in bridges if seen_pairs[(min(comp[e[0]], comp[e[1]]), max(comp[e[0]], comp[e[1]]))] == 1}


def leaf_cliques(g: Graph) -> list[tuple[int, ...]]:
    """Maximal cliques that can be a leaf of some clique tree.

    A clique C of a connected chordal graph is a leaf of some clique tree iff
    every vertex that C shares with another clique lies in one single other
    clique D (Blair and Peyton, An introduction to chordal graphs and clique
    trees, 1993). Only if: in a tree where C hangs off D, every path from C
    passes through D, so by the running-intersection property D holds every
    vertex C shares. If: deleting C's private vertices leaves a connected
    chordal graph whose maximal cliques are the other cliques; take any clique
    tree of it and hang C off D. A single clique is a leaf.
    """
    if not g.is_connected():
        raise Disconnected("leaf_cliques requires a connected graph")
    cliques = maximal_cliques(g)
    holders: list[set[int]] = [set() for _ in g.vertices()]  # per vertex, the cliques holding it
    for i, c in enumerate(cliques):
        for v in c:
            holders[v].add(i)
    out = []
    for i, c in enumerate(cliques):
        others = [holders[v] - {i} for v in c if len(holders[v]) > 1]
        if not others or set.intersection(*others):
            out.append(c)
    return out


def minimal_separators(g: Graph) -> list[Separator]:
    """All minimal vertex separators of a connected chordal graph.

    Realized as deduplicated intersections of adjacent cliques along a
    clique tree; each is a clique.
    """
    if g.n == 0:
        return []
    if not g.is_connected():
        raise Disconnected("minimal_separators requires a connected graph")
    tree = clique_tree(g)
    keys = {tuple(sorted(frozenset(tree.nodes[i]) & frozenset(tree.nodes[j]))) for i, j in tree.edges}
    return [Separator(key) for key in sorted(keys) if key]
