"""Canonical fragment decomposition: clique relations, extraction, level structure.

The extraction procedure peels a bounded-size collection of interval fragments
off a bounded-leafage chordal graph in an automorphism-invariant way; iterating
it yields the level decomposition the isomorphism engine works on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Hashable, Iterable, Optional, Sequence

from .chordal import component_subgraphs, is_connected, leaf_cliques, minimal_separators
from .errors import Disconnected, NotTGraph
from .graph import Graph
from .interval import PQTree, build_pq_tree, clique_completion_tree


def _label_key(label: Hashable):
    return (isinstance(label, tuple), label)


@dataclass(frozen=True)
class Completion:
    """A fragment plus its separator, the rest contracted to l with pendant tail l'.

    `tree` is the PQ-tree of `graph`, built once per distinct completion graph
    of a decomposition, so equal completions share it; None when the
    completion is not a connected interval graph.
    """

    graph: Graph
    labels: tuple[Hashable, ...]
    tail: int
    tree: Optional[PQTree] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ExtractedFragment:
    """One fragment of an extraction: label set, provenance, attachment chain, completion."""

    vertices: frozenset
    provenance: str  # "simplicial" | "separator"
    attachments: tuple[frozenset, ...]  # inclusion chain, ascending
    completion: Completion


def _component_ids(g: Graph, removed: frozenset[int]) -> list[int]:
    """Component index of each vertex in g - removed (numbered by least vertex), -1 if removed."""
    comp_id = [-1] * g.n
    cid = 0
    allowed = frozenset(v for v in g.vertices() if v not in removed)
    for v in g.vertices():
        if v in removed or comp_id[v] != -1:
            continue
        for w in g.connected_in(allowed, v):
            comp_id[w] = cid
        cid += 1
    return comp_id


def _touched(comp_id: list[int], vs: Iterable[int]) -> frozenset[int]:
    """Components of a labelling met by the vertices vs."""
    return frozenset(comp_id[v] for v in vs if comp_id[v] != -1)


def _relations(g: Graph, cliques: list[frozenset[int]]) -> list[list[set[int]]]:
    """Separation witnesses over an ambient clique collection.

    witnesses[i][j] holds every k (distinct from i and j) such that g - cliques[j]
    parts cliques[i] from cliques[k]: i precedes j iff the set is nonempty,
    and i approx j iff witnesses[i][j] and witnesses[j][i] share a k.
    """
    m = len(cliques)
    witnesses: list[list[set[int]]] = [[set() for _ in range(m)] for _ in range(m)]
    for j in range(m):
        # sig[i] = components touched by clique i after removing clique j
        comp_id = _component_ids(g, cliques[j])
        sig = [_touched(comp_id, c) for c in cliques]
        for i in range(m):
            if i == j:
                continue
            for k in range(m):
                if k not in (i, j) and not (sig[i] & sig[k]):
                    witnesses[i][j].add(k)
    return witnesses


def _pq_tree(g: Graph, trees: dict) -> Optional[PQTree]:
    """The PQ-tree of g, built once per distinct graph among the calls sharing `trees`."""
    key = (g.n, g.edges)
    if key not in trees:
        trees[key] = build_pq_tree(g)
    return trees[key]


def _build_completion(
    g: Graph,
    labels: Sequence[Hashable],
    frag: frozenset[int],
    sep: frozenset[int],
    aux_tag: tuple,
    trees: dict,
    clique: bool = False,
) -> Completion:
    """The completion of frag over its separator sep: frag, then sep, each in label
    order, then the contracted vertex l, adjacent to sep, and its pendant tail l'.
    l stands for the rest of g, which may be empty; `trees` caches PQ-trees (`_pq_tree`).

    `clique` says that frag and a nonempty sep make a clique of g, so the
    completion graph depends only on their sizes: its tree is the closed-form
    `clique_completion_tree`, cached under the sizes, and every equal
    completion shares that tree and its graph.
    """
    order = sorted(frag, key=lambda v: _label_key(labels[v])) + sorted(
        sep, key=lambda v: _label_key(labels[v])
    )
    new_labels = tuple([labels[v] for v in order] + [aux_tag + (0,), aux_tag + (1,)])
    l_id = len(order)
    tail_id = len(order) + 1
    if clique:
        key = (len(frag), len(sep))
        if key not in trees:
            trees[key] = clique_completion_tree(*key)
        return Completion(trees[key].graph, new_labels, tail_id, trees[key])
    index = {v: i for i, v in enumerate(order)}
    pairs = ((index[u], index[v]) for u, v in g.edges if u in index and v in index)
    edges = [(u, v) if u < v else (v, u) for u, v in pairs]
    edges += [(index[z], l_id) for z in sep]
    edges.append((l_id, tail_id))
    comp_graph = Graph._raw(len(order) + 2, tuple(sorted(edges)))
    return Completion(
        comp_graph,
        new_labels,
        tail_id,
        _pq_tree(comp_graph, trees),
    )


def attachment_sets(g: Graph, frag: Iterable[int], sep: Iterable[int]) -> tuple[frozenset[int], ...]:
    """Attachment chain of a separator fragment: distinct neighborhoods in the separator.

    Ascending by cardinality; NotTGraph when two are not nested.
    """
    frag = frozenset(frag)
    sep = frozenset(sep)
    seen = {frozenset(g.adj[v] & sep) for v in frag}
    seen.discard(frozenset())
    chain = sorted(seen, key=len)
    for a, b in zip(chain, chain[1:]):
        if not a < b:
            raise NotTGraph("attachment sets do not form a chain", sizes=[len(a), len(b)])
    return tuple(chain)


@dataclass
class _Bounds:
    """The leaf count d an extraction runs at, and the least d >= 2 that passes
    every size bound checked so far. The extraction reads d only in these
    bounds, so it is the same at every d that passes them."""

    d: int
    least: int = 2

    def check(self, count: int, per_leaf: int, reason: str) -> None:
        """NotTGraph when count exceeds per_leaf * d."""
        need = -(-count // per_leaf)
        self.least = max(self.least, need)
        if need > self.d:
            raise NotTGraph(reason, count=count, d=self.d)


def _extract(g: Graph, labels: tuple, bounds: _Bounds, depth: int, budget: int, trees: dict) -> list[ExtractedFragment]:
    """Procedure for one fragment collection on a connected chordal labeled graph.

    `trees` maps each completion graph built so far to its PQ-tree (`_pq_tree`),
    and each clique completion's sizes to its tree (`_build_completion`).
    """
    if depth > budget:
        raise NotTGraph("fragment extraction recursion exceeded its depth budget", depth=depth)
    if g.n == 0:
        raise NotTGraph("empty graph in extraction")
    leaf = [frozenset(c) for c in leaf_cliques(g)]
    # Step 2: drop cliques strictly above another in the separation preorder
    below = _relations(g, leaf)
    strict_removed = set()
    for i in range(len(leaf)):
        for j in range(len(leaf)):
            if below[i][j] and not below[j][i]:
                strict_removed.add(j)
    kept = [j for j in range(len(leaf)) if j not in strict_removed]
    l0 = [leaf[j] for j in kept]
    if not l0:
        raise NotTGraph("no leaf cliques survived the preorder filter")
    # Step 3: cliques incomparable with all others under the common-witness
    # relation. A witness depends only on g and its three cliques, so l0's
    # relation is step 2's restricted to the kept indices.
    kept_set = set(kept)
    approx = [[bool(below[i][j] & below[j][i] & kept_set) for j in kept] for i in kept]
    l1 = [
        l0[i]
        for i in range(len(l0))
        if not any(approx[i][j] for j in range(len(l0)) if j != i)
    ]
    bounds.check(len(l1), 1, "more incomparable leaf cliques than leaves")
    if l1:
        frags = []
        for idx, clique in enumerate(sorted(l1, key=lambda c: sorted(_label_key(labels[v]) for v in c))):
            # v in the maximal clique is simplicial iff N[v] is the clique
            f = frozenset(v for v in clique if len(g.adj[v]) == len(clique) - 1)
            if not f:
                raise NotTGraph("leaf clique without simplicial vertices")
            sep = clique - f
            comp = _build_completion(g, labels, f, sep, ("aux", depth, idx), trees, clique=bool(sep))
            chain = (frozenset(labels[v] for v in sep),) if sep else ()
            frags.append(
                ExtractedFragment(
                    frozenset(labels[v] for v in f),
                    "simplicial",
                    chain,
                    comp,
                )
            )
        return frags
    # Step 4: minimal joint separators over approx-related pairs. A minimal
    # separator z inside both cliques of a pair qualifies when g - z parts
    # their symmetric difference from some third clique of l0.
    pairs = [(i, j) for i in range(len(l0)) for j in range(i + 1, len(l0)) if approx[i][j]]
    qualifying: dict[tuple[int, int], list[frozenset[int]]] = {pair: [] for pair in pairs}
    for z in map(frozenset, minimal_separators(g)):
        inside = [(i, j) for i, j in pairs if z <= l0[i] & l0[j]]
        if not inside:
            continue
        comp_id = _component_ids(g, z)
        sig = [_touched(comp_id, c) for c in l0]
        for i, j in inside:
            sym = _touched(comp_id, l0[i] ^ l0[j])
            if any(not (sym & sig[k]) for k in range(len(l0)) if k not in (i, j)):
                qualifying[i, j].append(z)
    joint = {z for zs in qualifying.values() for z in zs if not any(z2 < z for z2 in zs)}
    if not joint:
        raise NotTGraph("approx-related leaf cliques without joint separators")
    # Step 5: components of g minus the joint separators incident to exactly one
    # of them
    comp_id = _component_ids(g, frozenset().union(*joint))
    incident: list[list[frozenset[int]]] = [[] for _ in range(max(comp_id) + 1)]
    for z in sorted(joint, key=sorted):
        for c in _touched(comp_id, (w for v in z for w in g.adj[v])):
            incident[c].append(z)
    c0 = [
        (frozenset(v for v in g.vertices() if comp_id[v] == c), zs[0])
        for c, zs in enumerate(incident)
        if len(zs) == 1
    ]
    if not c0:
        raise NotTGraph("no component is incident to a single joint separator", joint=len(joint))
    z0 = sorted({z for _comp, z in c0}, key=sorted)
    bounds.check(len(z0), 1, "more active joint separators than leaves")
    # Step 6: merge fully-adjacent components per separator
    c0_prime: list[tuple[frozenset[int], frozenset[int]]] = []
    for z in z0:
        merged: set[int] = set()
        for comp, zf in c0:
            if zf == z and all(z <= g.adj[v] for v in comp):
                merged |= comp
        if merged:
            c0_prime.append((frozenset(merged), z))
        for comp, zf in c0:
            if zf == z and not all(z <= g.adj[v] for v in comp):
                c0_prime.append((comp, z))
    c0_prime.sort(key=lambda fz: sorted(fz[0]))
    completions = [
        _build_completion(g, labels, f, z, ("aux", depth, idx), trees=trees)
        for idx, (f, z) in enumerate(c0_prime)
    ]
    c1 = [
        (f, z, comp)
        for (f, z), comp in zip(c0_prime, completions)
        if comp.tree is not None
    ]
    if c1:
        # Step 7: the interval completions are the fragment collection
        bounds.check(len(c1), 2, "fragment collection exceeds its size bound")
        frags = []
        for f, z, comp in c1:
            chain_local = attachment_sets(g, f, z)
            chain = tuple(frozenset(labels[v] for v in a) for a in chain_local)
            frags.append(
                ExtractedFragment(
                    frozenset(labels[v] for v in f),
                    "separator",
                    chain,
                    comp,
                )
            )
        return frags
    # Step 8: recurse into each completion, keeping fragments inside the component
    out: list[ExtractedFragment] = []
    for (f, _z), comp in zip(c0_prime, completions):
        f_labels = frozenset(labels[v] for v in f)
        sub = _extract(comp.graph, comp.labels, bounds, depth + 1, budget, trees)
        for frag in sub:
            if frag.vertices <= f_labels:
                out.append(frag)
    if not out:
        raise NotTGraph("recursive extraction produced no fragments inside components")
    bounds.check(len(out), 2, "fragment collection exceeds its size bound")
    return out


def extract_fragments(g: Graph, d: int) -> list[ExtractedFragment]:
    """One canonical fragment collection of a connected chordal graph (size <= 2d); NotChordal otherwise."""
    if d < 2:
        raise ValueError("need d >= 2")
    if g.n == 0:
        raise ValueError("need a nonempty graph")
    if not is_connected(g):
        raise Disconnected("extraction requires a connected graph")
    frags = _extract(g, tuple(range(g.n)), _Bounds(d), 0, g.n + 2, {})
    return sorted(frags, key=lambda fr: sorted(fr.vertices))


@dataclass(frozen=True)
class Fragment:
    """A decomposition fragment with its attachment chain and cached completion.

    The residual fragment has no completion; `tree` keeps the PQ-tree that the
    decomposition built to recognise it, over its vertices in sorted order.
    """

    level: int  # 1-based, outermost first
    index: int  # position within the level
    vertices: frozenset[int]
    provenance: str  # "simplicial" | "separator" | "residual"
    attachments: tuple[frozenset[int], ...]
    completion: Optional[Completion]
    tree: Optional[PQTree] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class TerminalSet:
    """A shard of some fragment's attachment set, hosted in a higher-level fragment."""

    host_level: int
    host_fragment: int
    origin_level: int
    origin_fragment: int
    position: int  # 1-based position in the origin's attachment chain
    vertices: frozenset[int]


@dataclass(frozen=True)
class Decomposition:
    """`least_d` is the least leaf count d >= 2 whose size bounds the
    decomposition passes: `canonical_decomposition` returns this same
    decomposition at every d from `least_d` up and raises NotTGraph below it."""

    graph: Graph
    levels: tuple[tuple[Fragment, ...], ...]
    terminal_sets: tuple[TerminalSet, ...]
    least_d: int = 2

    @property
    def depth(self) -> int:
        return len(self.levels)

    def to_json_dict(self) -> dict:
        return {
            "levels": [
                {
                    "fragments": [
                        {
                            "vertices": sorted(f.vertices),
                            "attachments": [sorted(a) for a in f.attachments],
                        }
                        for f in level
                    ]
                }
                for level in self.levels
            ],
            "terminal_sets": [
                {
                    "level": t.host_level,
                    "from_level": t.origin_level,
                    "fragment": t.host_fragment,
                    "origin_fragment": t.origin_fragment,
                    "position": t.position,
                    "vertices": sorted(t.vertices),
                }
                for t in self.terminal_sets
            ],
        }


def canonical_decomposition(g: Graph, d: int) -> Decomposition:
    """Level decomposition: repeated extraction until the residue is interval.

    The interval residue, connected like every residue, is the final level's
    one fragment. Disconnected inputs are decomposed per component and merged
    by level index. A non-chordal component raises NotChordal from its first
    extraction's `leaf_cliques`; an induced subgraph of a chordal graph is chordal.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    if g.n == 0:
        return Decomposition(g, (), ())
    if not is_connected(g):
        parts = [(canonical_decomposition(sub, d), sorted(idx)) for sub, idx in component_subgraphs(g)]
        return merge_decompositions(g, parts)

    levels: list[list[Fragment]] = []
    terminal_sets: list[TerminalSet] = []
    active: list[dict] = []  # origin_level, origin_fragment, position, remaining
    residue: list[int] = list(range(g.n))
    trees: dict = {}  # completion graph or clique sizes -> PQ-tree, shared by every level's extraction
    bounds = _Bounds(d)
    level = 0
    while residue:
        sub, idx = g.subgraph(residue)
        back = {i: v for v, i in idx.items()}
        if not is_connected(sub):
            raise NotTGraph("residue disconnected during decomposition", level=level + 1)
        level += 1
        tree = build_pq_tree(sub)
        if tree is not None:
            fragments = [Fragment(level, 0, frozenset(residue), "residual", (), None, tree)]
            levels.append(fragments)
            _distribute_shards(active, fragments, terminal_sets)
            break
        extracted = _extract(sub, tuple(back[i] for i in range(sub.n)), bounds, 0, g.n + 2, trees)
        extracted.sort(key=lambda fr: sorted(fr.vertices))
        fragments = [
            Fragment(level, i, frozenset(fr.vertices), fr.provenance, fr.attachments, fr.completion)
            for i, fr in enumerate(extracted)
        ]
        levels.append(fragments)
        _distribute_shards(active, fragments, terminal_sets)
        for f in fragments:
            for pos, att in enumerate(f.attachments, start=1):
                active.append(
                    {
                        "origin_level": level,
                        "origin_fragment": f.index,
                        "position": pos,
                        "remaining": set(att),
                    }
                )
        removed = frozenset().union(*(f.vertices for f in fragments))
        residue = [v for v in residue if v not in removed]
    for entry in active:
        if entry["remaining"]:
            raise AssertionError("terminal shards not fully distributed")
    return Decomposition(g, tuple(tuple(lv) for lv in levels), tuple(terminal_sets), bounds.least)


def _distribute_shards(active: list[dict], fragments: list[Fragment], terminal_sets: list[TerminalSet]):
    for entry in active:
        if not entry["remaining"]:
            continue
        for f in fragments:
            shard = frozenset(entry["remaining"] & f.vertices)
            if shard:
                terminal_sets.append(
                    TerminalSet(
                        f.level,
                        f.index,
                        entry["origin_level"],
                        entry["origin_fragment"],
                        entry["position"],
                        shard,
                    )
                )
                entry["remaining"] -= shard


def merge_decompositions(g: Graph, parts: Sequence[tuple[Decomposition, Sequence[int]]]) -> Decomposition:
    """The decomposition of g from those of its parts, merged by level index.

    Each part is a decomposition and its vertex map into g (`back[v]` is the
    g vertex of the part's v), increasing, so completion labels keep their
    order; the parts must partition g's vertices into unions of components.
    """
    levels: dict[int, list[Fragment]] = {}
    terminal_sets: list[TerminalSet] = []
    for dec, back in parts:
        frag_renumber: dict[tuple[int, int], int] = {}
        for lv in dec.levels:
            for f in lv:
                target = levels.setdefault(f.level, [])
                frag_renumber[(f.level, f.index)] = len(target)
                relabelled = f.completion
                if relabelled is not None:  # back is monotone, so the labels keep their order
                    labels = tuple(back[x] if isinstance(x, int) else x for x in relabelled.labels)
                    relabelled = replace(relabelled, labels=labels)
                target.append(
                    Fragment(
                        f.level,
                        len(target),
                        frozenset(back[v] for v in f.vertices),
                        f.provenance,
                        tuple(frozenset(back[v] for v in a) for a in f.attachments),
                        relabelled,
                        f.tree,  # in the fragment's own coordinates, like the completion's
                    )
                )
        for t in dec.terminal_sets:
            terminal_sets.append(
                TerminalSet(
                    t.host_level,
                    frag_renumber[(t.host_level, t.host_fragment)],
                    t.origin_level,
                    frag_renumber[(t.origin_level, t.origin_fragment)],
                    t.position,
                    frozenset(back[v] for v in t.vertices),
                )
            )
    ordered = tuple(tuple(levels[k]) for k in sorted(levels))
    return Decomposition(g, ordered, tuple(terminal_sets), max((dec.least_d for dec, _back in parts), default=2))
