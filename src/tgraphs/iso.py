"""The decision engine: combined decompositions, level groups, the constraint tower.

Isomorphism of two bounded-leafage chordal graphs reduces to finding, in the
automorphism group of their combined decomposition, an element exchanging the
two sides; a vertex witness is then reassembled from per-fragment completion
isomorphisms and verified edge-by-edge.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import accumulate
from math import factorial
from typing import Optional

from .chordal import component_subgraphs, is_chordal
from .decompose import Completion, Decomposition, canonical_decomposition, merge_decompositions
from .errors import NotTGraph
from .graph import Graph
from .interval import (
    MarkedIntervalGraph,
    PQTree,
    coloured_root_form,
    family_set_action,
    marked_set_action,
    pq_tree_isomorphism,
    root_code,
)
from .perm import (
    MembershipPredicate,
    Perm,
    PermGroup,
    find_element,
    tower_of_groups,
)
from .setfamily import SetFamily, max_antichain_size


@dataclass
class CFragment:
    """A fragment of the combined decomposition, in disjoint-union coordinates."""

    gid: int  # global fragment id
    level: int
    side: int  # 0 = first graph, 1 = second
    vertices: frozenset[int]
    provenance: str
    attachments: tuple[frozenset[int], ...]
    completion: Optional[Completion] = field(repr=False)
    marked: MarkedIntervalGraph = field(repr=False, default=None)
    label_to_host: dict = field(repr=False, default_factory=dict)
    shards: list[list["CTerminal"]] = field(repr=False, default_factory=list)  # per family, in marked order
    tree: Optional[PQTree] = field(repr=False, default=None)  # the residual fragment's, from the decomposition


@dataclass
class CTerminal:
    tid: int
    host_gid: int
    origin_gid: int
    level: int  # host level
    origin_level: int  # its family slot inside the host fragment is origin_level - 1
    position: int
    vertices: frozenset[int]


@dataclass
class CombinedDecomposition:
    """The decomposition of the disjoint union G1 ⊎ G2, with a group domain over
    fragment and terminal-set indices (per level: fragments first, then terminals)."""

    h: Graph
    n1: int
    depth: int
    fragments: list[CFragment]
    terminals: list[CTerminal]
    frag_point: dict[int, int]
    term_point: dict[int, int]
    point_kind: list[tuple[str, int]]
    level_degrees: list[int]
    key_to_terminal: dict[tuple[int, int, int], int]
    level_groups: dict[int, PermGroup] = field(default_factory=dict)

    @property
    def degree(self) -> int:
        return len(self.point_kind)

    def side_points(self, side: int) -> list[int]:
        out = []
        for pt, (kind, ident) in enumerate(self.point_kind):
            if kind == "frag":
                if self.fragments[ident].side == side:
                    out.append(pt)
            else:
                if self.fragments[self.terminals[ident].host_gid].side == side:
                    out.append(pt)
        return out


def _fragment_marked(cf: CFragment, fam_terms: list[list[CTerminal]]):
    """Build the fragment's marked interval host, with the PQ-tree the
    decomposition built for it, and the label translation."""
    if cf.completion is None:  # the residual fragment: its tree's graph, numbered by sorted vertex id
        host, tail, tree = cf.tree.graph, None, cf.tree
        to_local = {v: i for i, v in enumerate(sorted(cf.vertices))}
    else:
        host, tail, tree = cf.completion.graph, cf.completion.tail, cf.completion.tree
        to_local = {lab: i for i, lab in enumerate(cf.completion.labels) if isinstance(lab, int)}
    families = [[frozenset(to_local[v] for v in t.vertices) for t in fam] for fam in fam_terms]
    trees = None if tree is None else [(tree, range(host.n))]
    cf.marked = MarkedIntervalGraph(host, families, tail=tail, trees=trees)
    cf.label_to_host = to_local
    cf.shards = fam_terms


def combine(dec1: Decomposition, dec2: Decomposition) -> Optional[CombinedDecomposition]:
    """The decomposition of G1 ⊎ G2 merged from G1's and G2's, G2's vertices
    shifted by g1.n; None when the two sides' depths differ."""
    if dec1.depth != dec2.depth:
        return None
    n1, n2 = dec1.graph.n, dec2.graph.n
    h = dec1.graph.union_disjoint(dec2.graph)
    dec = merge_decompositions(h, [(dec1, range(n1)), (dec2, range(n1, n1 + n2))])
    fragments: list[CFragment] = []
    frag_gid: dict[tuple[int, int], int] = {}
    for level in dec.levels:
        for f in level:
            frag_gid[(f.level, f.index)] = len(fragments)
            side = int(min(f.vertices) >= n1)
            fragments.append(
                CFragment(
                    len(fragments), f.level, side, f.vertices, f.provenance, f.attachments, f.completion, tree=f.tree
                )
            )
    terminals = [
        CTerminal(
            tid,
            frag_gid[(t.host_level, t.host_fragment)],
            frag_gid[(t.origin_level, t.origin_fragment)],
            t.host_level,
            t.origin_level,
            t.position,
            t.vertices,
        )
        for tid, t in enumerate(dec.terminal_sets)
    ]
    key_to_terminal: dict[tuple[int, int, int], int] = {}
    for t in terminals:
        key = (t.origin_gid, t.position, t.host_gid)
        if key in key_to_terminal:
            raise AssertionError("duplicate terminal key")
        key_to_terminal[key] = t.tid
    # group domain: per level, fragment points then terminal points
    point_kind: list[tuple[str, int]] = []
    frag_point: dict[int, int] = {}
    term_point: dict[int, int] = {}
    level_degrees = []
    for level in range(1, dec.depth + 1):
        start = len(point_kind)
        for cf in fragments:
            if cf.level == level:
                frag_point[cf.gid] = len(point_kind)
                point_kind.append(("frag", cf.gid))
        for t in terminals:
            if t.level == level:
                term_point[t.tid] = len(point_kind)
                point_kind.append(("term", t.tid))
        level_degrees.append(len(point_kind) - start)
    cd = CombinedDecomposition(
        h, n1, dec.depth, fragments, terminals, frag_point, term_point, point_kind, level_degrees, key_to_terminal
    )
    # marked hosts and local set orders
    fam_terms: list[list[list[CTerminal]]] = [[[] for _ in range(cf.level - 1)] for cf in fragments]
    for t in terminals:
        fam_terms[t.host_gid][t.origin_level - 1].append(t)
    for cf, fams in zip(fragments, fam_terms):
        for fam in fams:
            fam.sort(key=lambda t: (t.origin_gid, t.position))
        _fragment_marked(cf, fams)
    return cd


def _class_key(cf: CFragment) -> tuple:
    m = cf.marked
    return (
        m.host.n,
        m.host.m,
        m.tail is not None,
        tuple(tuple(sorted(len(s) for s in fam)) for fam in m.families),
        cf.provenance,
    )


def level_buckets(cd: CombinedDecomposition, level: int) -> list[list[CFragment]]:
    """The level's fragments grouped by `_class_key`, each group in fragment order."""
    keyed: dict[tuple, list[CFragment]] = {}
    for cf in cd.fragments:
        if cf.level == level:
            keyed.setdefault(_class_key(cf), []).append(cf)
    return list(keyed.values())


def level_group(cd: CombinedDecomposition, level: int) -> PermGroup:
    """The level group: per bucket (the level's fragments of one `_class_key`),
    the marked automorphisms of the bucket's hosts acting on its fragments
    and their terminal shards.

    A bucket whose shards have at most one vertex each reads its action
    straight off the fragments' coloured PQ-trees (`marked_set_action`),
    with generators, leads and a counted order; a bucket with a larger shard
    takes `family_autgroup` of its hosts' union (`family_set_action`), whose
    order is not known. The buckets act on disjoint points, so when every
    bucket counts its order the level's order is their product, and the
    chain is built at that stated order: orbit closure on the leads reaches
    it without forming Schreier generators wherever each class's swaps
    chain its members by their least points. The order must come from
    counting, since `PermGroup` cannot tell an understated order that its
    chain passes through. A reversible Q-node that moves each shard vertex
    onto a twin is absorbed: a twin permutation undoes it on the level's
    points, so it counts no factor 2. The level's origin fragments lead the
    base, as `decomposition_autgroup` needs, then the leads."""
    if level in cd.level_groups:
        return cd.level_groups[level]
    offset = sum(cd.level_degrees[: level - 1])  # the domain lists the levels in order
    degree = cd.level_degrees[level - 1]
    gens: list[Perm] = []
    leads: list[int] = []
    order: Optional[int] = 1
    for bucket_frags in level_buckets(cd, level):
        hosts = [cf.marked for cf in bucket_frags]
        if any(len(m.component_trees()) != 1 for m in hosts):
            raise AssertionError("a fragment's marked host is disconnected")
        # the actions' domain: the hosts, then the marked sets family by family, host by host
        points = [cd.frag_point[cf.gid] - offset for cf in bucket_frags]
        points += [cd.term_point[t.tid] - offset for j in range(level - 1) for cf in bucket_frags for t in cf.shards[j]]
        if all(len(t.vertices) <= 1 for cf in bucket_frags for fam in cf.shards for t in fam):
            action, bucket_leads, bucket_order = marked_set_action(hosts)
            leads += map(points.__getitem__, bucket_leads)
            order = None if order is None else order * bucket_order
        else:
            action, order = family_set_action(hosts), None
        for gen in action:
            images = list(range(degree))
            for p, q in zip(points, gen.images):
                images[p] = points[q]
            gens.append(Perm._raw(tuple(images)))
    origins = sorted({cd.frag_point[t.origin_gid] - offset for t in cd.terminals if t.origin_level == level})
    group = PermGroup(degree, gens, base=origins + leads, order=order)
    cd.level_groups[level] = group
    return group


def _tower_bound(cd: CombinedDecomposition) -> int:
    s = max((sum(1 for cf in cd.fragments if cf.level == k) for k in range(1, cd.depth + 1)), default=1)
    t = 1
    for cf in cd.fragments:
        shards = [sorted(term.vertices) for fam in cf.shards for term in fam]
        if shards:
            t = max(t, max_antichain_size(SetFamily(cd.h.n, shards)))
    return factorial(s) * factorial(s * t)


def decomposition_autgroup(cd: CombinedDecomposition) -> PermGroup:
    """Automorphism group of the combined decomposition, built from the deepest level up.

    K acts on levels i+1..D and meets every cross-level constraint among them.
    Stage a2-{i} keeps the k in K that carry each level-i origin fragment's
    shards onto one origin fragment's shards (position by position, hosts as k
    moves them), bijectively, and whose origin map the level-i group realizes.
    The next K is the fibre product: (a_k, k) for each kept generator k, with
    a_k in the level group inducing k's origin map, plus the level group's
    pointwise stabiliser of the origin fragments.
    """
    starts = list(accumulate(cd.level_degrees, initial=0))  # level i's points begin at starts[i - 1]
    bound = _tower_bound(cd)
    group = level_group(cd, cd.depth)
    for i in range(cd.depth - 1, 0, -1):
        lo, hi = starts[i - 1], starts[i]  # level i's points, then K's from hi on
        shard = {  # K's point of each level-i shard -> (position, host point in K, origin point in level i)
            cd.term_point[t.tid] - hi: (t.position, cd.frag_point[t.host_gid] - hi, cd.frag_point[t.origin_gid] - lo)
            for t in cd.terminals
            if t.origin_level == i
        }
        origins = sorted({o for _pos, _host, o in shard.values()})
        lam = level_group(cd, i)  # its base starts with the origins

        realized: dict[tuple[int, ...], Optional[Perm]] = {}  # k.images -> realize(k), for both uses below

        def realize(k: Perm, shard=shard, lam=lam, realized=realized) -> Optional[Perm]:
            """A level-group element inducing k's origin map; None if k has no such map or none fits."""
            if k.images not in realized:
                images: Optional[dict[int, int]] = {}
                for pt, (pos, host, o) in shard.items():
                    image = shard.get(k(pt))
                    if image is None or image[:2] != (pos, k(host)) or images.setdefault(o, image[2]) != image[2]:
                        images = None
                        break
                realized[k.images] = None if images is None else find_element(lam, images)  # None if not injective
            return realized[k.images]

        kept = tower_of_groups(group, [MembershipPredicate(lambda k, f=realize: f(k) is not None, bound, f"a2-{i}")])
        fixer = lam.stabilizer(origins)
        pairs = [(realize(k), k) for k in kept.generators]
        pairs += [(s, Perm.identity(kept.degree)) for s in fixer.generators]
        gens = [Perm(a.images + tuple(x + lam.degree for x in k.images)) for a, k in pairs]
        # (a, k) -> k maps the fibre product onto K with kernel the origin fixer; on
        # K's base, then the fixer's, orbit closure reaches that order
        base = [b + lam.degree for b in kept.base] + list(fixer.base)
        group = PermGroup(lam.degree + kept.degree, gens, base=base, order=kept.order() * fixer.order())
    return group


def lift_to_vertices(cd: CombinedDecomposition, p: Perm) -> Perm:
    """A graph automorphism of the union acting on fragments and shards as p does.

    No search: each fragment F maps onto p(F) by a host isomorphism read off
    coloured canonical forms. Number p(F)'s shards in the order its marked
    host lists them. A vertex of p(F)'s host is coloured by the sorted
    numbers of the shards holding it, a vertex of F's host by those of p's
    images of its shards, and the tail by -1 on both. Coloured PQ-tree codes
    decide coloured interval-graph isomorphism (Lueker and Booth, J. ACM
    1979; Colbourn and Booth, SIAM J. Comput. 1981), so when the two root
    codes are equal, zipping the root orders gives a host isomorphism. It
    keeps the tail, so l and the separator, and it maps every shard S onto
    p(S). Hosts that share a tree and a colouring share one form, so equal
    fragments of one side cost one. A fragment that p fixes with all its
    shards maps by the identity. p lies in the group, so unequal codes are
    an internal failure. Always verified: edge preservation plus agreement
    with p on the domain.
    """
    frag_at = {pt: ident for pt, (kind, ident) in enumerate(cd.point_kind) if kind == "frag"}
    term_at = {pt: ident for pt, (kind, ident) in enumerate(cd.point_kind) if kind == "term"}
    forms: dict[tuple, tuple[tuple, tuple[int, ...]]] = {}  # (tree id, colours) -> root code and order

    def root_form(cf: CFragment, number: dict[int, int]) -> tuple[tuple, list[int]]:
        """The root code of cf's marked host, each shard t coloured number[t.tid],
        and its root order as host vertices."""
        m = cf.marked
        trees = m.component_trees()
        if len(trees) != 1:
            raise AssertionError("a fragment's marked host is disconnected")
        tree, back = trees[0]
        colour_of: list[list[int]] = [[] for _ in m.host.vertices()]
        for fam, shards in zip(m.families, cf.shards):
            for s, t in zip(fam, shards):
                for v in s:
                    colour_of[v].append(number[t.tid])
        if m.tail is not None:
            colour_of[m.tail].append(-1)
        colour = tuple([tuple(sorted(colour_of[hv])) for hv in back])
        key = (id(tree), colour)
        if key not in forms:
            forms[key] = coloured_root_form(tree, colour)
        code, order = forms[key]
        return code, [back[v] for v in order]

    images = [-1] * cd.h.n
    for cf in cd.fragments:
        gid = frag_at.get(p(cd.frag_point[cf.gid]))
        moved = {t.tid: term_at.get(p(cd.term_point[t.tid])) for fam in cf.shards for t in fam}
        if gid is None or None in moved.values():
            raise AssertionError("p maps a fragment onto a shard or a shard onto a fragment")
        target = cd.fragments[gid]
        if target is cf and all(t == u for t, u in moved.items()):
            for v in cf.vertices:
                images[v] = v
            continue
        own = {t.tid: i for i, t in enumerate(t for fam in target.shards for t in fam)}
        if not own.keys() >= set(moved.values()):
            raise AssertionError("p maps a shard off its fragment's image")
        code, order = root_form(cf, {tid: own[image] for tid, image in moved.items()})
        target_code, target_order = root_form(target, own)
        if code != target_code:
            raise AssertionError("no host isomorphism carries the fragment's shards as prescribed")
        host_image = dict(zip(order, target_order))
        target_inv = {i: v for v, i in target.label_to_host.items()}
        for v in cf.vertices:
            img = target_inv.get(host_image[cf.label_to_host[v]])
            if img is None:
                raise AssertionError("fragment vertex mapped outside the target fragment")
            images[v] = img
    if sorted(images) != list(range(cd.h.n)):
        raise AssertionError("lift is not a permutation")
    adj = cd.h.adj
    if any(images[v] not in adj[images[u]] for u, v in cd.h.edges):
        raise AssertionError("lift breaks an edge")
    sigma = Perm(images)
    if project_automorphism(cd, sigma) != p:
        raise AssertionError("lift does not act on the decomposition as prescribed")
    return sigma


def project_automorphism(cd: CombinedDecomposition, sigma: Perm) -> Perm:
    """The action of a union automorphism on fragment and shard indices."""
    frag_by_vertices = {cf.vertices: cf.gid for cf in cd.fragments}
    images = list(range(cd.degree))
    gid_image = {}
    for cf in cd.fragments:
        target = frag_by_vertices.get(sigma.image_of_set(cf.vertices))
        if target is None:
            raise AssertionError("automorphism does not preserve the fragment structure")
        gid_image[cf.gid] = target
        images[cd.frag_point[cf.gid]] = cd.frag_point[target]
    for t in cd.terminals:
        key = (gid_image[t.origin_gid], t.position, gid_image[t.host_gid])
        target = cd.key_to_terminal.get(key)
        if target is None:
            raise AssertionError("automorphism does not preserve the terminal structure")
        if sigma.image_of_set(t.vertices) != cd.terminals[target].vertices:
            raise AssertionError("terminal image has the wrong vertex set")
        images[cd.term_point[t.tid]] = cd.term_point[target]
    return Perm(images)


ISOMORPHIC = "isomorphic"
NOT_ISOMORPHIC = "not_isomorphic"
NOT_T_GRAPH = "not_t_graph"


@dataclass(frozen=True)
class Verdict:
    """The outcome of a decision at leaf count d. A decisive verdict also
    records `least_d`, the least leaf count at which the engine reaches it: the
    decompositions it read pass every size bound from there up. It is None for
    NOT_T_GRAPH and is not part of the JSON form."""

    kind: str
    d: int
    witness: Optional[tuple[int, ...]] = None
    evidence: Optional[dict] = None
    least_d: Optional[int] = field(default=None, compare=False, repr=False)

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.kind,
            "witness": list(self.witness) if self.witness is not None else None,
            "evidence": self.evidence,
            "d": self.d,
        }


def _verify_witness(g1: Graph, g2: Graph, witness: tuple[int, ...]) -> bool:
    if sorted(witness) != list(range(g2.n)) or g1.n != g2.n or g1.m != g2.m:
        return False
    return all(g2.has_edge(witness[u], witness[v]) for u, v in g1.edges)


def _invariant(dec: Decomposition) -> tuple:
    """Per level, the sorted (provenance, size, attachment sizes, root code of the
    completion or residual tree) of its fragments. The decomposition commutes
    with relabelling and root codes are isomorphism invariants, so isomorphic
    graphs have equal invariants."""

    def key(f):
        tree = f.tree if f.completion is None else f.completion.tree
        return f.provenance, len(f.vertices), tuple(map(len, f.attachments)), root_code(tree)

    return tuple(tuple(sorted(map(key, level))) for level in dec.levels)


def _side_swap(cd: CombinedDecomposition, group: PermGroup) -> Optional[Perm]:
    """An element of the decomposition's group exchanging the two sides, or None.

    Each side is one connected graph and every element lifts to an
    automorphism of the union, so the sides are blocks: an element that moves
    one point to the other side swaps them. A swap moves every point to the
    other side, the first base point included, so there is one exactly when
    that point's basic orbit reaches the other side, and the transversal
    element there is one. No chain rebuild and no search.
    """
    if not group.base:
        return None
    sides = [frozenset(cd.side_points(0)), frozenset(cd.side_points(1))]
    other = sides[1] if group.base[0] in sides[0] else sides[0]
    swap = next((t for x, t in group.transversal(0).items() if x in other), None)
    if swap is not None and swap.image_of_set(sides[0]) != sides[1]:
        raise AssertionError("an element moving a point across the sides does not swap them")
    return swap


def _connected_isomorphism(part1: tuple, part2: tuple) -> Optional[tuple[int, ...]]:
    """Witness bijection between connected chordal graphs, or None, from each
    one's (decomposition, invariant or None at depth 1); raises NotTGraph."""
    (dec1, inv1), (dec2, inv2) = part1, part2
    if dec1.depth != dec2.depth or inv1 != inv2:
        return None
    if dec1.depth == 1:  # each side is one interval residue, numbered as its graph: root codes decide
        witness = pq_tree_isomorphism(dec1.levels[0][0].tree, dec2.levels[0][0].tree)
        if witness is None:
            return None
    else:
        cd = combine(dec1, dec2)
        group = decomposition_autgroup(cd)
        swap = _side_swap(cd, group)
        if swap is None:
            return None
        sigma = lift_to_vertices(cd, swap)
        witness = tuple(sigma(v) - cd.n1 for v in range(cd.n1))
    if not _verify_witness(dec1.graph, dec2.graph, witness):
        raise AssertionError("witness failed edge verification")
    return witness


def is_isomorphic(g1: Graph, g2: Graph, d: int) -> Verdict:
    """Decide isomorphism of two graphs promised to have leafage at most d.

    Outcomes: a verified witness, a sound non-isomorphism answer, or
    not-a-T-graph evidence (never a claim about isomorphism).
    """
    if d < 2:
        raise ValueError("need d >= 2")
    try:
        if is_chordal(g1) is None or is_chordal(g2) is None:
            return Verdict(
                NOT_T_GRAPH,
                d,
                evidence={"reason": "input graph is not chordal"},
            )
        if g1.n != g2.n or g1.m != g2.m:
            return Verdict(NOT_ISOMORPHIC, d, least_d=2)
        witness, least = _component_matching(g1, g2, d)
    except NotTGraph as e:
        return Verdict(NOT_T_GRAPH, d, evidence=e.evidence())
    return Verdict(ISOMORPHIC if witness is not None else NOT_ISOMORPHIC, d, witness=witness, least_d=least)


def _component_matching(g1: Graph, g2: Graph, d: int) -> tuple[Optional[tuple[int, ...]], int]:
    """Pair components greedily: each of g1's takes the first free g2 component
    with its (n, m, degree sequence) key that is isomorphic to it. Returns the
    witness (None when the graphs are not isomorphic) and the least leaf count
    that every decomposition read passes (`Decomposition.least_d`), at least 2.

    Isomorphism is an equivalence relation, so the compatible pairs form
    disjoint complete bipartite blocks and a greedy match is complete. A
    connected input is the one-component case, the empty graph the
    zero-component case. Each distinct component graph is decomposed once,
    when a pair first needs it, so the first NotTGraph comes from the first
    component that raises it in the greedy order. At any leaf count from the
    least one up every decomposition read is the same, so the match takes the
    same course; below it, the first decomposition that fails a bound raises.
    The keys are read off the inputs, a component's degrees being its
    vertices' degrees there, so the component graphs are built only for
    inputs whose keys agree.
    """

    def keys(g: Graph) -> list[tuple]:
        degrees = [sorted(map(g.degree, comp)) for comp in g.components()]
        return [(len(ds), sum(ds) // 2, tuple(ds)) for ds in degrees]

    keys1, keys2 = keys(g1), keys(g2)
    least = 2
    if sorted(keys1) != sorted(keys2):
        return None, least
    subs1 = component_subgraphs(g1)
    subs2 = component_subgraphs(g2)
    decomposed: dict[Graph, tuple[Decomposition, Optional[tuple]]] = {}
    uses = Counter(sub for sub, _ in subs1 + subs2)  # an entry is dropped once no pair can read it

    def part(sub: Graph) -> tuple[Decomposition, Optional[tuple]]:
        nonlocal least
        if sub not in decomposed:
            dec = canonical_decomposition(sub, d)
            decomposed[sub] = (dec, _invariant(dec) if dec.depth > 1 else None)
            least = max(least, dec.least_d)
        return decomposed[sub]

    free = list(range(len(subs2)))
    images = [-1] * g1.n
    for (sub1, idx1), key1 in zip(subs1, keys1):
        for j in free:
            sub2, idx2 = subs2[j]
            if keys2[j] == key1 and (wit := _connected_isomorphism(part(sub1), part(sub2))) is not None:
                break
        else:
            return None, least
        free.remove(j)
        for sub in (sub1, sub2):
            uses[sub] -= 1
            if not uses[sub]:
                decomposed.pop(sub, None)
        back2 = {local: v for v, local in idx2.items()}
        for v, local in idx1.items():
            images[v] = back2[wit[local]]
    witness = tuple(images)
    if not _verify_witness(g1, g2, witness):
        raise AssertionError("assembled component witness failed verification")
    return witness, least


def decide_up_to(g1: Graph, g2: Graph, d_max: int) -> Verdict:
    """The first decisive verdict over leaf counts 2..d_max, else d_max's NOT_T_GRAPH.

    One decision at d_max: a decisive verdict is the same at every leaf count
    from its `least_d` up and NOT_T_GRAPH below, so it is reported at `least_d`.
    """
    if d_max < 2:
        raise ValueError("need d_max >= 2")
    verdict = is_isomorphic(g1, g2, d_max)
    return verdict if verdict.least_d is None else replace(verdict, d=verdict.least_d)
