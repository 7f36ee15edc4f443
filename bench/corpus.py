"""Seeded corpora for the three benchmark workloads.

Each workload is a fixed list of isomorphism-class constructions. The
benchmark seed chooses how both sides of every pair are relabelled, so the
seed decides every byte the engine receives, while the cost mix stays the
same from seed to seed. Graphs are kept as ``(n, edges)`` with sorted
``u < v`` edges; each pair carries what the oracle needs to judge a verdict:
the ground truth from the construction and a leafage certificate for every
graph that is promised to be a T-graph.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Optional

# A certificate part is (host_n, host_edges, models): a host tree and one
# connected node set per vertex of one connected component, keyed by vertex.
CertPart = tuple[int, tuple[tuple[int, int], ...], dict[int, frozenset[int]]]
Cert = tuple[CertPart, ...]
RawGraph = tuple[int, tuple[tuple[int, int], ...]]


@dataclass
class Pair:
    label: str
    g1: RawGraph
    g2: RawGraph
    d: int  # leaf count for is_isomorphic, d_max for decide_up_to
    truth: str  # "iso" or "noniso", from the construction
    cert1: Optional[Cert]
    cert2: Optional[Cert]
    text1: str = ""
    text2: str = ""
    inputs: tuple = field(default=(), repr=False)  # what the engine is called with


# -- constructions ------------------------------------------------------------


def _graph(n: int, edges) -> RawGraph:
    return n, tuple(sorted((min(u, v), max(u, v)) for u, v in edges))


def path_power(n: int, k: int) -> tuple[RawGraph, Cert]:
    """k-th power of the n-vertex path; an interval graph (leafage 2)."""
    g = _graph(n, [(i, j) for i in range(n) for j in range(i + 1, min(n, i + k + 1))])
    host = tuple((i, i + 1) for i in range(n + k - 1))
    models = {i: frozenset(range(i, i + k + 1)) for i in range(n)}
    return g, ((n + k, host, models),)


def tree_cert(g: RawGraph) -> Cert:
    """Edge-subdivision representation of a tree: leafage <= its leaf count."""
    n, edges = g
    host = []
    models = {v: {v} for v in range(n)}
    for i, (u, v) in enumerate(edges):
        mid = n + i
        host += [(u, mid), (v, mid)]
        models[u].add(mid)
        models[v].add(mid)
    return ((n + len(edges), tuple(host), {v: frozenset(m) for v, m in models.items()}),)


def spider(arms) -> tuple[RawGraph, Cert]:
    """A centre with one path of each given length hanging off it."""
    edges, nxt = [], 1
    for length in arms:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    g = _graph(nxt, edges)
    return g, tree_cert(g)


def cycle(n: int) -> RawGraph:
    return _graph(n, [(i, (i + 1) % n) for i in range(n)])


def harness_t_graph(tg, d: int, n: int, seed: int) -> tuple[RawGraph, Cert]:
    """A certified random T-graph from the package's generator."""
    g, rep = tg.harness.random_t_graph(d, n, seed)
    models = {v: frozenset(m) for v, m in enumerate(rep.models)}
    return _graph(g.n, g.edges), ((rep.tree_n, tuple(rep.tree_edges), models),)


def with_chordless_cycle(g: RawGraph) -> RawGraph:
    """g plus a 3-vertex path joining two vertices at distance 2: an induced C6."""
    n, edges = g
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    for u in range(n):
        for mid in sorted(adj[u]):
            far = sorted(w for w in adj[mid] if w != u and w not in adj[u])
            if far:
                w = far[0]
                extra = [(u, n), (n, n + 1), (n + 1, n + 2), (n + 2, w)]
                return _graph(n + 3, list(edges) + extra)
    raise ValueError("graph has no induced path on three vertices")


def disjoint_union(parts) -> tuple[RawGraph, Optional[Cert]]:
    edges, cert, offset = [], [], 0
    for (n, es), c in parts:
        edges += [(u + offset, v + offset) for u, v in es]
        if c is not None and cert is not None:
            for host_n, host, models in c:
                cert.append((host_n, host, {v + offset: m for v, m in models.items()}))
        else:
            cert = None
        offset += n
    return _graph(offset, edges), (tuple(cert) if cert is not None else None)


def relabel(g: RawGraph, cert: Optional[Cert], rng: random.Random) -> tuple[RawGraph, Optional[Cert]]:
    n, edges = g
    images = list(range(n))
    rng.shuffle(images)
    new_cert = None
    if cert is not None:
        new_cert = tuple((hn, he, {images[v]: m for v, m in ms.items()}) for hn, he, ms in cert)
    return _graph(n, [(images[u], images[v]) for u, v in edges]), new_cert


def graph_text(g: RawGraph) -> str:
    """The shared text format: 'n m' header, then one 'u v' line per edge."""
    n, edges = g
    return "".join([f"{n} {len(edges)}\n"] + [f"{u} {v}\n" for u, v in edges])


# -- workloads ----------------------------------------------------------------

# Each entry is (label, g1, cert1, g2, cert2, truth, d); with g2 None the
# pair is g1 against a relabelling of itself.


def _dense_classes(tg) -> list:
    # Random T-graphs with few, large cliques; the grid is fixed so that
    # every seed measures the same isomorphism classes.
    out = []
    for d in (3, 4, 5):
        for s in range(4):
            g, c = harness_t_graph(tg, d, 30, s)
            out.append((f"t-graph({d},30,{s})", g, c, None, None, "iso", d))
    return out


def _chain_classes(tg) -> list:
    # About 20 maximal cliques on 19 to 23 vertices: the clique count, not n,
    # sets the work.
    out = []
    for k in (1, 2, 3):
        g, c = path_power(20 + k, k)
        out.append((f"path^{k}({20 + k})", g, c, None, None, "iso", 2))
    for arm in (5, 6):
        g, c = spider((arm,) * 3)
        out.append((f"spider({arm}x3)", g, c, None, None, "iso", 3))
    return out


SCREEN_D_MAX = 3


def _screen_classes(tg) -> list:
    d = SCREEN_D_MAX
    out = []

    def iso(label, g, c):
        out.append((label, g, c, None, None, "iso", d))

    def noniso(label, a, b):
        out.append((label, a[0], a[1], b[0], b[1], "noniso", d))

    # non-isomorphic, equal n and m
    for a, b in (((2, 2, 3), (1, 3, 3)), ((2, 2, 4), (2, 3, 3)), ((1, 2, 5), (2, 2, 4))):
        noniso(f"spider{a}~spider{b}", spider(a), spider(b))
    noniso("spider(2,2,2)~path(7)", spider((2, 2, 2)), path_power(7, 1))
    noniso("path(6)~spider(1,1,3)", path_power(6, 1), spider((1, 1, 3)))
    by_shape: dict = {}
    for n in (8, 10, 12):
        for s in range(12):
            g, c = harness_t_graph(tg, 3, n, s)
            by_shape.setdefault((g[0], len(g[1])), []).append((s, g, c))
    picked = 0
    for (n, m), found in sorted(by_shape.items()):
        for (s1, a, ca), (s2, b, cb) in zip(found, found[1:]):
            if picked < 6 and _degrees(a) != _degrees(b):
                noniso(f"t-graph(3,{n},{s1})~t-graph(3,{n},{s2})", (a, ca), (b, cb))
                picked += 1
    # promise violations: non-chordal graphs, and spiders with more than d arms
    for n in (5, 8, 12):
        iso(f"cycle({n})", cycle(n), None)
    for s in (0, 1):
        g, _ = harness_t_graph(tg, 3, 10, s)
        iso(f"t-graph(3,10,{s})+C6", with_chordless_cycle(g), None)
    for k in (d + 1, d + 2):
        g, c = spider((2,) * k)
        iso(f"spider({k}x2)", g, c)
    # disjoint unions of small T-graphs
    small = [path_power(3, 1), path_power(4, 1), spider((1, 1, 2)), path_power(5, 2)]
    small += [harness_t_graph(tg, 3, 6, s) for s in range(3)]
    for copies in (2, 4):
        g, c = disjoint_union(small * copies)
        iso(f"union({len(small) * copies} small)", g, c)
    g, c = disjoint_union([path_power(3, 1)] * 12)
    iso("union(12 x path(3))", g, c)
    common = [path_power(4, 1), harness_t_graph(tg, 3, 6, 0)]
    noniso(
        "union(path4+path2)~union(path3+path3)",
        disjoint_union(common + [path_power(4, 1), path_power(2, 1)]),
        disjoint_union(common + [path_power(3, 1), path_power(3, 1)]),
    )
    noniso(
        "union(+spider(2,2,3))~union(+spider(1,3,3))",
        disjoint_union(common + [spider((2, 2, 3))]),
        disjoint_union(common + [spider((1, 3, 3))]),
    )
    return out


def _degrees(g: RawGraph) -> list[int]:
    n, edges = g
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return sorted(deg)


CLASSES = {"dense": _dense_classes, "chain": _chain_classes, "screen": _screen_classes}
# relabelled copies of every class in one pass over the corpus
COPIES = {"dense": 1, "chain": 1, "screen": 3}


def build(tg, workload: str, seed: int) -> list[Pair]:
    """The workload's corpus for this seed, serialized and ready to submit."""
    classes = CLASSES[workload](tg)
    pairs = []
    for copy in range(COPIES[workload]):
        for i, (label, g1, c1, g2, c2, truth, d) in enumerate(classes):
            rng = random.Random(f"{workload}-{seed}-{copy}-{i}")
            a, ca = relabel(g1, c1, rng)
            b, cb = relabel(g1 if g2 is None else g2, c1 if g2 is None else c2, rng)
            pair = Pair(label, a, b, d, truth, ca, cb, graph_text(a), graph_text(b))
            if workload != "screen":
                pair.inputs = (tg.graph.Graph(*a), tg.graph.Graph(*b))
            pairs.append(pair)
    return pairs


def fingerprint(pairs: list[Pair]) -> str:
    """SHA-256 of the serialized corpus, in submission order."""
    h = hashlib.sha256()
    for p in pairs:
        h.update(f"# {p.label} d={p.d} truth={p.truth}\n".encode())
        h.update(p.text1.encode())
        h.update(p.text2.encode())
    return h.hexdigest()
