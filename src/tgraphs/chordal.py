"""Chordal-graph primitives: recognition, maximal cliques, leaf cliques, minimal separators.

`is_chordal`, `maximal_cliques`, `leaf_cliques` and `minimal_separators` read
one elimination pass, made once per graph and kept on it. The pass is one loop
that runs maximum cardinality search and the elimination checks together, and
`maximum_cardinality_search` reads its order from it. The engine tests
chordality only where a graph enters it (`iso.is_isomorphic`); the components
of a chordal graph take their slices of its pass (`component_subgraphs`)
instead of running their own.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Optional

from .errors import Disconnected, NotChordal
from .graph import Graph


def maximum_cardinality_search(g: Graph) -> list[int]:
    """MCS visit order v_1..v_n; its reverse is a PEO iff g is chordal.

    Each step visits an unvisited vertex of largest weight, the smallest on a
    tie. The order is read off g's elimination pass (`_elimination_pass`),
    which is the one MCS loop of the package.
    """
    return _elimination_pass(g)[0]


_Elimination = tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]


def _eliminate(g: Graph) -> Optional[_Elimination]:
    """g's elimination pass (`_elimination_pass`), run once per graph and kept
    on it, with g's components when none are kept yet."""
    if g._elimination is None:
        _order, found, components = _elimination_pass(g)
        g._elimination = found or False  # False: g is not chordal
        if g._components is None:
            g._components = components
    return g._elimination or None


def _elimination_pass(g: Graph) -> tuple[list[int], Optional[_Elimination], tuple[frozenset[int], ...]]:
    """g's MCS order; the reverse of that order, g's maximal cliques and its
    separator lists, None when g is not chordal; and g's components, in order
    of their least vertex, either way. One loop does the search and the checks.

    The unvisited vertices sit in one bucket per weight below a pointer to the
    top nonempty bucket (Tarjan and Yannakakis, SIAM J. Comput. 1984). Each
    bucket is a min-heap, so the tie-break costs O(log n); a vertex enters the
    heap of each weight it reaches once, and an entry whose vertex was visited
    or gained weight since is dropped when it reaches the top.

    Each vertex collects its visited neighbours as they are visited, so its
    weight is their number. When u is visited they are its later neighbours in
    the reverse order, and v, the last collected, is the earliest. The order is
    perfect iff the rest are adjacent to v (Tarjan and Yannakakis). When u has
    no more visited neighbours than p, the vertex visited just before it, p and
    its visited neighbours close a maximal clique and u's visited neighbours
    are a minimal separator; the last vertex closes the last clique (Blair and
    Peyton, An introduction to chordal graphs and clique trees, 1993). In a
    connected graph the separator lists are the intersections along the edges
    of one clique tree, so a separator may repeat. A step that takes a vertex
    with no visited neighbour starts a component: every unvisited vertex then
    has weight 0, so the visited ones make up whole components, and the
    tie-break takes the least vertex left.
    """
    n = g.n
    adj = g.adj
    before: list[list[int]] = [[] for _ in range(n)]  # per vertex, its visited neighbours in visit order
    weight = [0] * n  # len(before[v]) while v is unvisited, -1 once visited
    buckets: list[list[int]] = [list(range(n))]  # a sorted list is a heap
    top = 0
    order: list[int] = []
    starts = []  # the steps that start a component
    chordal = True
    cliques = []
    separators = []
    prev: list[int] = []  # the visited neighbours of the vertex visited last
    for i in range(n):
        bucket = buckets[top]
        while not bucket or weight[bucket[0]] != top:
            if bucket:
                heappop(bucket)
            else:
                top -= 1
                bucket = buckets[top]
        u = heappop(bucket)
        weight[u] = -1
        lu = before[u]
        if not lu:
            starts.append(i)
        elif chordal:
            chordal = adj[lu[-1]].issuperset(lu[:-1])
        if chordal and i and len(lu) <= len(prev):
            prev.append(order[-1])
            cliques.append(tuple(sorted(prev)))
            separators.append(tuple(lu))
        order.append(u)
        for w in adj[u]:
            k = weight[w]
            if k >= 0:
                before[w].append(u)
                weight[w] = k = k + 1
                if k == len(buckets):
                    buckets.append([w])
                else:
                    heappush(buckets[k], w)
                if k > top:
                    top = k
        prev = lu
    components = tuple(frozenset(order[a:b]) for a, b in zip(starts, starts[1:] + [n]))
    if not chordal:
        return order, None, components
    if order:
        prev.append(order[-1])
        cliques.append(tuple(sorted(prev)))
    cliques.sort()
    return order, (tuple(reversed(order)), tuple(cliques), tuple(separators)), components


def component_subgraphs(g: Graph) -> list[tuple[Graph, dict[int, int]]]:
    """`g.subgraph` of each component of g, in `Graph.components` order.

    When g is chordal each subgraph takes its slice of g's elimination pass
    instead of running its own: its PEO, its cliques, its nonempty separator
    lists, and itself as its one component. g's MCS visits each component
    whole, starting at its least vertex and breaking ties by id, and
    `subgraph` renumbers monotonically, so the slice is the subgraph's own
    pass. When g is not chordal the subgraphs are plain.
    """
    found = _eliminate(g)
    comps = g.components()
    subs = [g.subgraph(c) for c in comps]
    if found is None or len(comps) == 1:  # one component: the subgraph is g
        return subs
    which = [0] * g.n
    for k, comp in enumerate(comps):
        for v in comp:
            which[v] = k
    peos: list[list[int]] = [[] for _ in comps]
    cliques: list[list[tuple[int, ...]]] = [[] for _ in comps]
    separators: list[list[tuple[int, ...]]] = [[] for _ in comps]
    for v in found[0]:
        peos[which[v]].append(v)
    for c in found[1]:
        cliques[which[c[0]]].append(c)
    for s in found[2]:
        if s:  # the empty lists mark where g's components meet
            separators[which[s[0]]].append(s)
    for (sub, idx), peo, cs, ss in zip(subs, peos, cliques, separators):
        local = idx.__getitem__
        sub._elimination = (
            tuple(map(local, peo)),
            tuple(tuple(map(local, c)) for c in cs),
            tuple(tuple(map(local, s)) for s in ss),
        )
        sub._components = (frozenset(range(sub.n)),)
    return subs


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
