"""Chordal-graph primitives: recognition, maximal cliques, leaf cliques, minimal separators.

`is_chordal`, `maximal_cliques`, `leaf_cliques` and `minimal_separators` read
one elimination pass, made once per graph and kept on it. The engine tests
chordality only where a graph enters it (`iso.is_isomorphic`).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Optional

from .errors import Disconnected, NotChordal
from .graph import Graph


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


_Elimination = tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]


def _eliminate(g: Graph) -> Optional[_Elimination]:
    """g's elimination pass (`_elimination_pass`), run once per graph and kept
    on it, with g's components when none are kept yet."""
    if g._elimination is None:
        found, components = _elimination_pass(g)
        g._elimination = found or False  # False: g is not chordal
        if g._components is None:
            g._components = components
    return g._elimination or None


def _elimination_pass(g: Graph) -> tuple[Optional[_Elimination], tuple[frozenset[int], ...]]:
    """The reverse of g's MCS order, g's maximal cliques and its separator
    lists, None when g is not chordal; and g's components, in order of their
    least vertex, either way.

    Walking the MCS order, u's visited neighbours are its later neighbours in
    the reverse order, and v, the last visited of them, is the earliest. The
    order is perfect iff the rest are adjacent to v (Tarjan and Yannakakis,
    SIAM J. Comput. 1984). When u has no more visited neighbours than p, the
    vertex visited just before it, p and its visited neighbours close a maximal
    clique and u's visited neighbours are a minimal separator; the last vertex
    closes the last clique (Blair and Peyton, An introduction to chordal graphs
    and clique trees, 1993). In a connected graph the separator lists are the
    intersections along the edges of one clique tree, so a separator may repeat.
    A step that takes a vertex with no visited neighbour starts a component:
    every unvisited vertex then has weight 0, so the visited ones make up whole
    components, and the tie-break takes the least vertex left.
    """
    mcs = maximum_cardinality_search(g)
    rank = [-1] * g.n  # MCS step of each vertex visited so far
    starts = []  # the steps that start a component
    chordal = True
    cliques = []
    separators = []
    prev: list[int] = []  # the visited neighbours of mcs[i - 1]
    for i, u in enumerate(mcs):
        lu = [w for w in g.adj[u] if rank[w] >= 0]
        rank[u] = i
        if not lu:
            starts.append(i)
        elif chordal:
            v = max(lu, key=rank.__getitem__)
            chordal = all(w in g.adj[v] for w in lu if w != v)
        if chordal and i and len(lu) <= len(prev):
            cliques.append(tuple(sorted(prev + [mcs[i - 1]])))
            separators.append(tuple(lu))
        prev = lu
    components = tuple(frozenset(mcs[a:b]) for a, b in zip(starts, starts[1:] + [g.n]))
    if not chordal:
        return None, components
    if mcs:
        cliques.append(tuple(sorted(prev + [mcs[-1]])))
    cliques.sort()
    return (tuple(reversed(mcs)), tuple(cliques), tuple(separators)), components


def is_connected(g: Graph) -> bool:
    """Whether g is connected, read off g's elimination pass: a graph that is
    eliminated anyway needs no separate component search."""
    _eliminate(g)
    return g.is_connected()


def is_chordal(g: Graph) -> Optional[tuple[int, ...]]:
    """A perfect elimination ordering of g (the later neighbours of each vertex
    form a clique), or None when g is not chordal. The empty graph's is ()."""
    found = _eliminate(g)
    return None if found is None else found[0]


def maximal_cliques(g: Graph) -> list[tuple[int, ...]]:
    """All maximal cliques of g, sorted lexicographically; NotChordal if g is not chordal."""
    found = _eliminate(g)
    if found is None:
        raise NotChordal("maximal_cliques requires a chordal graph")
    return list(found[1])


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
    if not is_connected(g):
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


def minimal_separators(g: Graph) -> list[tuple[int, ...]]:
    """All minimal vertex separators of a connected chordal graph, each a sorted clique, sorted.

    Disconnected if g is disconnected, NotChordal if it is not chordal.
    """
    if g.n == 0:
        return []
    if not is_connected(g):
        raise Disconnected("minimal_separators requires a connected graph")
    found = _eliminate(g)
    if found is None:
        raise NotChordal("minimal_separators requires a chordal graph")
    return sorted({tuple(sorted(s)) for s in found[2]})
