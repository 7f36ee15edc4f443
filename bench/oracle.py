"""The benchmark's own verdict oracle, independent of the decision engine.

Ground truth comes from the construction. Isomorphic pairs are relabellings;
every claimed non-isomorphism is proved at set-up time from an invariant
computed here (sorted degree sequences, else colour-refinement histograms).
Leafage certificates are host trees with one connected model per vertex,
checked here against the graph edge by edge.
"""

from __future__ import annotations

from typing import Optional

ISOMORPHIC = "isomorphic"
NOT_ISOMORPHIC = "not_isomorphic"
NOT_T_GRAPH = "not_t_graph"


def _adjacency(g) -> list[set[int]]:
    n, edges = g
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _refinement_histograms(g1, g2) -> tuple[list, list]:
    """Stable colour-refinement colour counts of both graphs, in one palette."""
    adjs = [_adjacency(g1), _adjacency(g2)]
    colours = [[len(a) for a in adj] for adj in adjs]
    while True:
        sigs = [
            [(c[v], tuple(sorted(c[w] for w in adj[v]))) for v in range(len(adj))]
            for adj, c in zip(adjs, colours)
        ]
        palette = {s: i for i, s in enumerate(sorted(set(sigs[0]) | set(sigs[1])))}
        new = [[palette[s] for s in side] for side in sigs]
        if len(palette) == len(set(colours[0]) | set(colours[1])):
            return sorted(new[0]), sorted(new[1])
        colours = new


def non_isomorphism_proof(g1, g2) -> Optional[str]:
    """Name of an invariant that differs between g1 and g2, or None."""
    if g1[0] != g2[0] or len(g1[1]) != len(g2[1]):
        return "vertex or edge count"
    degrees = [sorted(len(a) for a in _adjacency(g)) for g in (g1, g2)]
    if degrees[0] != degrees[1]:
        return "sorted degree sequence"
    hist1, hist2 = _refinement_histograms(g1, g2)
    if hist1 != hist2:
        return "colour-refinement histogram"
    return None


def _is_tree(n: int, edges) -> bool:
    if n == 0 or len(edges) != n - 1:
        return False
    return len(_reach(_adjacency((n, edges)), 0, set(range(n)))) == n


def _reach(adj, start: int, allowed: set[int]) -> set[int]:
    seen, stack = {start}, [start]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w in allowed and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def certified_leafage(g, cert) -> int:
    """Largest host leaf count over the certificate's parts, after checking it.

    Each part covers a union of connected components: its host must be a tree, each
    model a nonempty connected node set, and two vertices must be adjacent
    exactly when their models meet. Raises ValueError on a bad certificate.
    """
    n, edges = g
    adj = _adjacency(g)
    covered: set[int] = set()
    leafage = 0
    for host_n, host_edges, models in cert:
        if not _is_tree(host_n, host_edges):
            raise ValueError("certificate host is not a tree")
        host_adj = _adjacency((host_n, host_edges))
        part = set(models)
        if covered & part or not part <= set(range(n)):
            raise ValueError("certificate parts overlap or leave the graph")
        if any(not adj[v] <= part for v in part):
            raise ValueError("an edge leaves a certificate part")
        covered |= part
        for v, model in models.items():
            if not model or _reach(host_adj, min(model), set(model)) != set(model):
                raise ValueError(f"model of vertex {v} is not a connected subtree")
        verts = sorted(part)
        for i, u in enumerate(verts):
            for v in verts[i + 1 :]:
                if bool(models[u] & models[v]) != (v in adj[u]):
                    raise ValueError(f"models of {u} and {v} disagree with the graph")
        leaves = sum(1 for a in host_adj if len(a) == 1) if host_n > 1 else 1
        leafage = max(leafage, leaves)
    if covered != set(range(n)):
        raise ValueError("certificate does not cover every vertex")
    return leafage


class Oracle:
    """Judges verdicts for one corpus; prepare() runs before any timing."""

    def __init__(self):
        self.leafage: dict[int, Optional[int]] = {}
        self.edge_sets: dict[int, frozenset] = {}

    def prepare(self, pairs) -> None:
        """Check every certificate and prove every claimed non-isomorphism."""
        for i, p in enumerate(pairs):
            if p.truth == "noniso" and non_isomorphism_proof(p.g1, p.g2) is None:
                raise ValueError(f"pair {i} ({p.label}): non-isomorphism not proved")
            if p.truth == "iso" and non_isomorphism_proof(p.g1, p.g2) is not None:
                raise ValueError(f"pair {i} ({p.label}): relabelled sides differ")
            if p.cert1 is None or p.cert2 is None:
                self.leafage[i] = None
            else:
                self.leafage[i] = max(certified_leafage(p.g1, p.cert1), certified_leafage(p.g2, p.cert2))
            self.edge_sets[i] = frozenset(p.g2[1])

    def judge(self, i: int, pair, verdict) -> Optional[str]:
        """None when the verdict is right, else the reason it fails."""
        kind = getattr(verdict, "kind", None)
        if kind == ISOMORPHIC:
            if pair.truth != "iso":
                return "isomorphic verdict on a non-isomorphic pair"
            return self._witness_error(i, pair, verdict.witness)
        if kind == NOT_ISOMORPHIC:
            return "not-isomorphic verdict on an isomorphic pair" if pair.truth == "iso" else None
        if kind == NOT_T_GRAPH:
            leafage = self.leafage[i]
            if leafage is not None and pair.d >= leafage:
                return f"not-a-T-graph verdict at d={pair.d} >= certified leafage {leafage}"
            return None
        return f"unknown verdict {kind!r}"

    def _witness_error(self, i: int, pair, witness) -> Optional[str]:
        n1, edges1 = pair.g1
        n2, edges2 = pair.g2
        if witness is None or n1 != n2 or len(edges1) != len(edges2):
            return "isomorphic verdict without a usable witness"
        if len(witness) != n1 or sorted(witness) != list(range(n2)):
            return "witness is not a bijection"
        targets = self.edge_sets[i]
        for u, v in edges1:
            a, b = witness[u], witness[v]
            if (min(a, b), max(a, b)) not in targets:
                return f"witness maps edge ({u},{v}) to a non-edge"
        return None
