"""Brute-force oracles, certified random instance generation, relabeling utilities."""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .errors import TooLarge
from .graph import Graph
from .perm import Perm, PermGroup

BRUTE_GUARD = 12


def _isomorphisms(g1: Graph, g2: Graph) -> Iterator[Perm]:
    """Every isomorphism g1 -> g2 of equal-order graphs, by exhaustive backtracking.

    Depth i places g1's i-th vertex in descending degree (most constrained
    first) on the next unused, equal-degree g2 vertex consistent with the
    vertices placed above it; `tried[i]` is the next candidate at depth i.
    """
    n = g1.n
    order = sorted(g1.vertices(), key=lambda v: -g1.degree(v))
    images = [-1] * n
    used = [False] * n
    tried = [0] * n
    i = 0
    if n == 0:
        yield Perm(())
    while 0 <= i < n:
        u = order[i]
        if tried[i]:  # undo the placement this depth made last
            used[images[u]] = False
        for w in range(tried[i], n):
            if used[w] or g1.degree(u) != g2.degree(w):
                continue
            for v in order[:i]:
                if g1.has_edge(u, v) != g2.has_edge(w, images[v]):
                    break
            else:
                break
        else:
            tried[i] = 0
            i -= 1
            continue
        tried[i] = w + 1
        images[u] = w
        used[w] = True
        if i == n - 1:
            yield Perm(images)
        else:
            i += 1


def brute_force_isomorphism(g1: Graph, g2: Graph, guard: int = BRUTE_GUARD) -> Optional[Perm]:
    """Exhaustive backtracking isomorphism; None means none exists."""
    if g1.n > guard or g2.n > guard:
        raise TooLarge(f"brute force guarded at n <= {guard}")
    if g1.n != g2.n or g1.m != g2.m:
        return None
    if sorted(map(g1.degree, g1.vertices())) != sorted(map(g2.degree, g2.vertices())):
        return None
    return next(_isomorphisms(g1, g2), None)


def iter_automorphisms(g: Graph, guard: int = BRUTE_GUARD) -> Iterator[Perm]:
    """All automorphisms of g, by exhaustive backtracking."""
    if g.n > guard:
        raise TooLarge(f"brute force guarded at n <= {guard}")
    yield from _isomorphisms(g, g)


def brute_force_autgroup(g: Graph, guard: int = BRUTE_GUARD) -> PermGroup:
    """Full automorphism group, generated from every automorphism found."""
    return PermGroup(g.n, list(iter_automorphisms(g, guard)))


@dataclass(frozen=True)
class TRepresentation:
    """Host tree (a subdivision of a d-leaf tree) plus one connected model per vertex."""

    tree_n: int
    tree_edges: tuple[tuple[int, int], ...]
    models: tuple[frozenset[int], ...]

    def host_tree(self) -> Graph:
        return Graph(self.tree_n, self.tree_edges)

    def to_json_dict(self) -> dict:
        return {
            "tree_edges": [list(e) for e in self.tree_edges],
            "models": [sorted(m) for m in self.models],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "TRepresentation":
        """The representation `to_json_dict` wrote; ValueError on a non-pair edge or a negative id."""
        if any(not isinstance(e, (list, tuple)) or len(e) != 2 for e in data["tree_edges"]):
            raise ValueError("every tree edge must be a pair of node ids")
        edges = tuple((int(a), int(b)) for a, b in data["tree_edges"])
        models = tuple(frozenset(int(x) for x in m) for m in data["models"])
        ids = [x for e in edges for x in e] + [x for m in models for x in m]
        if any(x < 0 for x in ids):
            raise ValueError("node ids must be nonnegative")
        return cls(max(ids, default=-1) + 1, edges, models)


def verify_t_representation(g: Graph, rep: TRepresentation) -> bool:
    """Check the models are nonempty connected subtrees whose intersection graph is g."""
    tree = rep.host_tree()
    if len(rep.models) != g.n:
        return False
    # host must be a tree
    if tree.n == 0 or tree.m != tree.n - 1 or not tree.is_connected():
        return False
    for model in rep.models:
        if not model or not all(0 <= x < tree.n for x in model):
            return False
        start = min(model)
        if tree.connected_in(model, start) != set(model):
            return False
    for u in range(g.n):
        for v in range(u + 1, g.n):
            touches = bool(rep.models[u] & rep.models[v])
            if touches != g.has_edge(u, v):
                return False
    return True


def _pruefer_tree(n: int, seq: Sequence[int]) -> Graph:
    """The labeled tree on n >= 2 vertices with Prüfer sequence seq."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u, v = sorted(leaves)
    edges.append((u, v))
    return Graph(n, edges)


def _pruefer_walk(n: int, distinct: int, seq: tuple = (), used: int = 0, once: int = 0) -> Iterator[tuple]:
    """In lexicographic order, the Prüfer sequences over range(n) that extend seq
    (`used` symbols, `once` of them used once) and use exactly `distinct`
    symbols, each at least twice."""
    if len(seq) == n - 2:
        yield seq
        return
    for x in range(n):
        k = seq.count(x)
        u, o = used + (k == 0), once + (k == 0) - (k == 1)
        if u <= distinct and o + 2 * (distinct - u) <= n - 3 - len(seq):  # completable in the slots left
            yield from _pruefer_walk(n, distinct, seq + (x,), u, o)


def _centre_code(t: Graph) -> tuple:
    """The AHU code of a tree (Aho, Hopcroft and Ullman 1974) rooted at a centre,
    the least over its centres: equal on two trees exactly when they are isomorphic."""
    degree = [t.degree(v) for v in t.vertices()]
    layer, left = [v for v in t.vertices() if degree[v] <= 1], t.n
    while left > 2:  # peel the leaves until the one or two centres remain
        left, peeled, layer = left - len(layer), layer, []
        for w in (w for v in peeled for w in t.adj[v]):
            degree[w] -= 1
            if degree[w] == 1:
                layer.append(w)
    code = lambda v, parent: tuple(sorted(code(w, v) for w in t.adj[v] if w != parent))
    return min(code(c, -1) for c in layer)


def _class_counts(d: int) -> list[int]:
    """counts[n], for n <= 2d-2: the trees on n vertices with d leaves and no
    degree-2 vertex, up to isomorphism.

    Every free tree is grown one leaf at a time and `_centre_code` drops the
    repeats (Wright, Richmond, Odlyzko and McKay 1986 list the free trees
    directly); a tree past d leaves is dropped, as no added leaf removes one.
    """
    counts = [0] * (2 * d - 1)
    layer = [Graph(2, [(0, 1)])]
    for n in range(2, 2 * d - 1):
        grown: dict[tuple, Graph] = {}
        for t in layer:
            degree = [t.degree(v) for v in t.vertices()]
            leaves = degree.count(1)
            counts[n] += leaves == d and 2 not in degree
            for v in t.vertices() if n < 2 * d - 2 else ():
                if leaves + (degree[v] > 1) <= d:  # a leaf added at a leaf keeps the count
                    s = Graph(n + 1, t.edges + ((v, n),))
                    grown.setdefault(_centre_code(s), s)
        layer = list(grown.values())
    return counts


def tree_catalog(d: int) -> tuple[Graph, ...]:
    """All trees with exactly d leaves and no degree-2 vertices, up to isomorphism.

    Such trees have at most 2d-2 vertices, and a Prüfer symbol used k times is a
    vertex of degree k + 1; the first tree of each AHU code is kept, and cached.
    Each n's Prüfer walk stops once `_class_counts` says every class on n
    vertices has appeared, so the catalog is the one the full sweep keeps. A
    cold catalog takes under 0.1 s up to d = 6 and about a second at d = 7;
    from d = 8 on the walk still runs far before its last class (minutes).
    """
    if d < 2:
        raise ValueError("need d >= 2")
    if d in _TREE_CATALOG_CACHE:
        return _TREE_CATALOG_CACHE[d]
    found: list[Graph] = []
    seen: set[tuple] = set()
    counts = _class_counts(d)
    for n in range(d, 2 * d - 1):  # n - d symbols, so n >= d
        left = counts[n]
        for seq in _pruefer_walk(n, n - d):
            t = _pruefer_tree(n, seq)
            if (code := _centre_code(t)) not in seen:
                seen.add(code)
                found.append(t)
                left -= 1
                if not left:  # every class on n vertices has appeared
                    break
    _TREE_CATALOG_CACHE[d] = tuple(found)
    return _TREE_CATALOG_CACHE[d]


_TREE_CATALOG_CACHE: dict[int, tuple[Graph, ...]] = {}


def random_tree(n: int, rng: random.Random) -> Graph:
    """Uniform-ish random labeled tree (random Prüfer sequence)."""
    if n <= 2:
        return Graph(n, [(0, 1)] if n == 2 else [])
    return _pruefer_tree(n, [rng.randrange(n) for _ in range(n - 2)])


def random_t_graph(d: int, n: int, seed: int) -> tuple[Graph, TRepresentation]:
    """Certified random T-graph: n connected subtrees of a random subdivision.

    Deterministic per (d, n, seed).
    """
    if d < 2:
        raise ValueError("need d >= 2")
    if n < 1:
        raise ValueError("need n >= 1")
    rng = random.Random(f"tgraph-{d}-{n}-{seed}")
    skeleton = rng.choice(tree_catalog(d))
    # subdivide each edge 0..3 times
    nodes = skeleton.n
    edges: list[tuple[int, int]] = []
    for u, v in skeleton.edges:
        chain = [u] + [nodes + i for i in range(rng.randrange(4))] + [v]
        nodes += len(chain) - 2
        edges += [(min(a, b), max(a, b)) for a, b in zip(chain, chain[1:])]
    host = Graph(nodes, edges)
    # grow n connected subtrees by randomized BFS
    models = []
    for _ in range(n):
        size = rng.randint(1, max(1, nodes * 2 // 3))
        start = rng.randrange(nodes)
        model = {start}
        frontier = [start]
        while frontier and len(model) < size:
            u = frontier.pop(rng.randrange(len(frontier)))
            for w in sorted(host.adj[u]):
                if w not in model and rng.random() < 0.7:
                    model.add(w)
                    frontier.append(w)
            if not frontier and len(model) < size:
                boundary = sorted(
                    w for u2 in model for w in host.adj[u2] if w not in model
                )
                if not boundary:
                    break
                pick = rng.choice(boundary)
                model.add(pick)
                frontier.append(pick)
        models.append(frozenset(model))
    shuffle = list(range(n))
    rng.shuffle(shuffle)
    models = [models[i] for i in shuffle]
    g_edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if models[u] & models[v]
    ]
    graph = Graph(n, g_edges)
    rep = TRepresentation(nodes, tuple(host.edges), tuple(models))
    if not verify_t_representation(graph, rep):
        raise AssertionError("generated representation does not verify")
    return graph, rep


# Pendant shapes: a vertex count and the edges among them; vertex 0 joins the body.
PENDANTS = {
    "vertex": (1, ()),
    "p2": (2, ((0, 1),)),
    "p3": (3, ((0, 1), (1, 2))),
    "lollipop": (3, ((0, 1), (0, 2), (1, 2))),
    # pendants with pendants of their own
    "fork": (4, ((0, 1), (1, 2), (1, 3))),
    "stemmed-lollipop": (4, ((0, 1), (1, 2), (1, 3), (2, 3))),
}


def _leafage_bound(g: Graph) -> int:
    """At least 2 and at least the leafage of a connected chordal g: every leaf
    of a clique tree holds a simplicial vertex, whose closed neighbourhood is
    that clique, so the distinct closed neighbourhoods of simplicial vertices
    bound the leaves of one clique tree."""
    simplicial = [v for v in g.vertices() if all(g.adj[u] >= g.adj[v] - {u} for u in g.adj[v])]
    return max(2, len({g.adj[v] | {v} for v in simplicial}))


def pendant_swap_pair(seed: int) -> tuple[Graph, Graph, int]:
    """A body with pendant fragments of different types hung on chosen body
    vertices, the same body with those pendants permuted among the same
    vertices and relabelled, and a leaf count both graphs are T-graphs for.

    The body is a path of 3-7 vertices or a spider with three arms of 1-2
    vertices; two or three distinct body vertices each get a pendant from
    `PENDANTS`, not all of one type, and the permutation moves some type.
    Whether the two graphs are isomorphic depends on the body's symmetry.
    Where the level groups match the two sides, only the constraint tower's
    a2 stages, which tie each pendant to its attachment, can tell them
    apart. Deterministic per seed.
    """
    rng = random.Random(f"pendant-swap-{seed}")
    if rng.random() < 0.5:
        n = rng.randint(3, 7)
        body = [(i, i + 1) for i in range(n - 1)]
    else:
        body, n = [], 1
        for _ in range(3):
            prev = 0
            for _ in range(rng.randint(1, 2)):
                body.append((prev, n))
                prev, n = n, n + 1
    at = rng.sample(range(n), rng.randint(2, 3))
    types = [rng.choice(sorted(PENDANTS)) for _ in at]
    while len(set(types)) < 2:
        types[rng.randrange(len(types))] = rng.choice(sorted(PENDANTS))
    moved = types[:]
    while moved == types:
        rng.shuffle(moved)

    def build(kinds: list[str]) -> Graph:
        edges, size = list(body), n
        for v, kind in zip(at, kinds):
            k, own = PENDANTS[kind]
            edges.append((v, size))
            edges += [(size + a, size + b) for a, b in own]
            size += k
        return Graph(size, edges)

    g, h = build(types), random_relabel(build(moved), seed)[0]
    return g, h, max(_leafage_bound(g), _leafage_bound(h))


def random_relabel(g: Graph, seed: int) -> tuple[Graph, Perm]:
    """Uniformly random vertex relabeling; returns the new graph and the permutation used."""
    rng = random.Random(f"relabel-{seed}")
    images = list(range(g.n))
    rng.shuffle(images)
    p = Perm(images)
    return g.relabel(images), p

