"""Simple undirected graphs on vertex set 0..n-1, plus the shared text format."""

from __future__ import annotations

from typing import Iterable, Optional


class Graph:
    """Immutable simple undirected graph with frozenset adjacency.

    `Graph(n, edges)` checks its input. A graph derived from a valid one (a
    parsed text, a subgraph, a disjoint union, a completion) is built by
    `Graph._raw` from its sorted edges, with no second check.

    Two slots memoise what is derived from the whole graph, each computed on
    first use: `_elimination` by `chordal._eliminate`, which every clique and
    chordality query reads, and `_components` by the same pass or, for a graph
    not eliminated first, by `components` and `is_connected`. A component
    subgraph of a chordal graph takes both from its parent's pass
    (`chordal.component_subgraphs`). A graph never changes, so both stay valid.
    """

    __slots__ = ("n", "adj", "_edges", "_components", "_elimination")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.adj = tuple(frozenset(s) for s in adj)
        self._edges = tuple(sorted((u, v) for u in range(n) for v in adj[u] if u < v))
        self._components: Optional[tuple[frozenset[int], ...]] = None
        self._elimination = None

    @classmethod
    def _raw(cls, n: int, edges: tuple[tuple[int, int], ...]) -> "Graph":
        """The graph on 0..n-1 with these edges, unchecked: they must be
        distinct pairs u < v < n in sorted order, as the edges of a graph
        derived from a valid one are. The adjacency goes through sets, as in
        `__init__`: a frozenset copied from a set gets the smaller table."""
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        g = cls.__new__(cls)
        g.n = n
        g.adj = tuple(map(frozenset, adj))
        g._edges = edges
        g._components = None
        g._elimination = None
        return g

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    @property
    def m(self) -> int:
        return len(self._edges)

    def vertices(self) -> range:
        return range(self.n)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def is_clique(self, vs: Iterable[int]) -> bool:
        vs = list(vs)
        for i, u in enumerate(vs):
            for v in vs[i + 1 :]:
                if v not in self.adj[u]:
                    return False
        return True

    def subgraph(self, vs: Iterable[int]) -> tuple["Graph", dict[int, int]]:
        """Induced subgraph and the old->new vertex map; on all the vertices, the
        graph itself (graphs are immutable, so sharing it is safe). Distinct
        sorted integers are all of 0..n-1 exactly when there are n of them
        from 0 to n-1, so that test reads no more than the given vertices."""
        vs = sorted(set(vs))
        idx = {v: i for i, v in enumerate(vs)}
        if len(vs) == self.n and (not vs or (vs[0] == 0 and vs[-1] == self.n - 1)):
            return self, idx
        edges = sorted((idx[u], idx[v]) for u in vs for v in self.adj[u] if u < v and v in idx)
        return Graph._raw(len(vs), tuple(edges)), idx

    def components(self) -> list[frozenset[int]]:
        """Connected components, sorted by minimum vertex."""
        return list(self._component_tuple())

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self._component_tuple()) == 1

    def _component_tuple(self) -> tuple[frozenset[int], ...]:
        if self._components is None:
            self._components = _search_components(self)
        return self._components

    def connected_in(self, allowed: frozenset[int], start: int) -> set[int]:
        """Vertices reachable from start using only allowed vertices."""
        if start not in allowed:
            return set()
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in self.adj[u]:
                if w in allowed and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    def relabel(self, images: Iterable[int]) -> "Graph":
        """Graph with vertex v renamed to images[v]."""
        images = list(images)
        return Graph(self.n, [(images[u], images[v]) for u, v in self._edges])

    def union_disjoint(self, other: "Graph") -> "Graph":
        """Disjoint union; other's vertices are shifted by self.n."""
        shifted = tuple((u + self.n, v + self.n) for u, v in other._edges)
        return Graph._raw(self.n + other.n, self._edges + shifted)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self.n, self._edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _search_components(g: Graph) -> tuple[frozenset[int], ...]:
    """Connected components of g, in order of their least vertex."""
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        stack, comp = [s], []
        seen[s] = True
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in g.adj[u]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(frozenset(comp))
    return tuple(comps)


def separates(g: Graph, z: Iterable[int], a: Iterable[int], b: Iterable[int]) -> bool:
    """True iff no path connects a∖z to b∖z in g − z (vacuously true on empty sides)."""
    z = set(z)
    a = {v for v in a if v not in z}
    b = {v for v in b if v not in z}
    if not a or not b:
        return True
    allowed = frozenset(v for v in g.vertices() if v not in z)
    reached = set()
    for s in a:
        if s in reached:
            continue
        reached |= g.connected_in(allowed, s)
    return not (reached & b)


def parse_graph_text(text: str) -> Graph:
    """Parse the shared text format: 'n m' header, then m lines 'u v'.

    Blank lines and '#' comments are ignored; an edge may appear only once.
    Each line is read and checked once, in file order. A line that is not two
    integers raises at once; the first edge fault (range, order or
    repetition) raises once every line has been read and the header's edge
    count checked, and a negative n after that.
    """
    header = None
    n = 0
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    fault = None
    comments = "#" in text  # a text without one splits no line on it
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = (raw.split("#", 1)[0] if comments else raw).split()
        if not parts:
            continue
        try:
            u, v = parts
            e = u, v = int(u), int(v)
        except ValueError:  # not two tokens, or not integers
            raise ValueError(f"line {lineno}: expected two integers, got {raw!r}") from None
        if header is None:
            header, n = e, u
            continue
        edges.append(e)
        if fault is None:
            if not (0 <= u < v < n):
                fault = f"edge ({u},{v}) violates 0 <= u < v < n={n}"
            elif e in seen:
                fault = f"edge ({u},{v}) repeated"
            else:
                seen.add(e)
    if header is None:
        raise ValueError("empty graph file (missing 'n m' header)")
    m = header[1]
    if len(edges) != m:
        raise ValueError(f"header declares {m} edges, found {len(edges)}")
    if fault is not None:
        raise ValueError(fault)
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    edges.sort()
    return Graph._raw(n, tuple(edges))


def format_graph_text(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(rays: int) -> Graph:
    """K1,rays with the center at vertex 0."""
    return Graph(rays + 1, [(0, i) for i in range(1, rays + 1)])

