"""Interval graphs: PQ-trees, clean-subtree reduction, marked-set automorphisms.

The PQ-tree of a connected interval graph encodes all of its clique paths:
P-node children reorder freely, Q-node children only reverse. Vertices are
assigned to nodes MPQ-style (each vertex covers a full P-subtree, a
consecutive run of at least two Q-children, or a single leaf), which is what
the marked-set machinery consumes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import accumulate, chain
from math import factorial
from typing import Any, Callable, Iterable, Optional, Sequence

from .chordal import is_connected, maximal_cliques
from .errors import NotChordal, TooLarge
from .graph import Graph
from .perm import Perm, PermGroup, find_block_swap
from .setfamily import SetFamily, family_autgroup


class PQNode:
    __slots__ = ("kind", "children", "clique", "nid", "leaf_set", "parent")

    def __init__(self, kind: str, children: Optional[list["PQNode"]] = None, clique: Optional[int] = None):
        self.kind = kind  # "P", "Q", or "L"
        self.children: list[PQNode] = children or []
        self.clique = clique  # clique index for leaves
        self.nid = -1
        self.leaf_set: frozenset[int] = frozenset()
        self.parent: Optional[PQNode] = None


@dataclass
class PQTree:
    """PQ-tree of one connected interval graph."""

    graph: Graph
    cliques: tuple[tuple[int, ...], ...]
    root: PQNode
    vertex_cliques: tuple[frozenset[int], ...]  # per vertex, the indices of the cliques holding it
    nodes: tuple[PQNode, ...] = ()
    vertex_run: dict[int, tuple[int, int]] = field(default_factory=dict)
    node_vertices: dict[PQNode, frozenset[int]] = field(default_factory=dict)
    _forms: Optional[tuple[list[tuple], list[tuple[int, ...]]]] = field(default=None, repr=False, compare=False)

    def canonical_forms(self) -> tuple[list[tuple], list[tuple[int, ...]]]:
        """`_canonical_forms` of this tree, computed on first use and kept."""
        if self._forms is None:
            self._forms = _canonical_forms(self)
        return self._forms

    def assigned_vertices(self, node: PQNode) -> frozenset[int]:
        """Vertices whose minimal covering node is `node` (leaf privates included)."""
        return self.node_vertices.get(node, frozenset())

    def belongs(self, node: PQNode) -> frozenset[int]:
        """Vertices of the subgraph belonging to the node: union of its leaf cliques."""
        out: set[int] = set()
        for ci in node.leaf_set:
            out.update(self.cliques[ci])
        return frozenset(out)

    def order_count(self) -> int:
        """Number of permissible reorderings (clique paths)."""
        total = 1
        for node in self.nodes:
            if node.kind == "P":
                total *= factorial(len(node.children))
            elif node.kind == "Q":
                total *= 2
        return total

    def permissible_orders(self, limit: int = 50000) -> list[tuple[int, ...]]:
        """All permissible leaf orders as clique-index tuples (guarded)."""
        if self.order_count() > limit:
            raise TooLarge(f"more than {limit} permissible orders")

        from itertools import permutations as iperm

        def rec(node: PQNode) -> list[tuple[int, ...]]:
            if node.kind == "L":
                return [(node.clique,)]
            child_orders = [rec(c) for c in node.children]
            out = []
            if node.kind == "P":
                arrangements = iperm(range(len(node.children)))
            else:
                arrangements = [tuple(range(len(node.children))), tuple(reversed(range(len(node.children))))]
            seen = set()
            for arr in arrangements:
                partial = [()]  # build concatenations
                for idx in arr:
                    partial = [p + o for p in partial for o in child_orders[idx]]
                for p in partial:
                    if p not in seen:
                        seen.add(p)
                        out.append(p)
            return out

        return rec(self.root)


def _overlaps(a: frozenset, b: frozenset) -> bool:
    return bool(a & b) and not (a <= b) and not (b <= a)


def _insert_row(cells: list[frozenset[int]], placed: frozenset[int], w: frozenset[int]) -> Optional[list[frozenset[int]]]:
    """The cell sequence after requiring w to be consecutive, or None when infeasible.

    New elements of w can only extend an end of the current sequence, and a
    partially covered end cell must face its covered part toward the run
    interior (or toward the new elements). When both ends could take the new
    elements, the left one does (see `_order_component`).
    """
    marks = []
    for c in cells:
        inter = c & w
        marks.append(0 if not inter else (2 if c <= w else 1))
    nz = [i for i, m in enumerate(marks) if m]
    if not nz:
        return None
    lo, hi = nz[0], nz[-1]
    if any(marks[i] == 0 for i in range(lo, hi + 1)):
        return None
    if any(marks[i] == 1 for i in range(lo + 1, hi)):
        return None
    extras = frozenset(w - placed)
    single = lo == hi
    # the end cells of the run, split with the covered part inward (empty parts drop out)
    head = [cells[lo] - w, cells[lo] & w]
    tail = [cells[hi] & w, cells[hi] - w]
    if not extras:
        if single:
            return None if marks[lo] == 1 else cells  # nested in one cell: cannot overlap anything placed
        out = cells[:lo] + head + cells[lo + 1 : hi] + tail + cells[hi + 1 :]
    elif lo == 0 and (single or marks[lo] == 2):
        out = [extras] + cells[:hi] + tail + cells[hi + 1 :]
    elif hi == len(cells) - 1 and (single or marks[hi] == 2):
        out = cells[:lo] + head + cells[lo + 1 :] + [extras]
    else:
        return None
    return [c for c in out if c]


def _order_component(ordered: list[frozenset[int]]) -> Optional[list[frozenset[int]]]:
    """A cell order realizing one overlap component consecutively, or None.

    The order is forced up to reversal, so one pass finds it. The rows come
    in an order where each after the first overlaps an earlier one (as
    `_build_node` walks its overlap graph). For both ends to take a
    row's new elements, the row would have to cover every placed cell and so
    contain every earlier row, which it cannot while it overlaps one of them.
    So only the second row has two insertions, and they are mirror images;
    every later insertion commutes with reversal, so the left one loses
    nothing.
    """
    cells: Optional[list[frozenset[int]]] = [ordered[0]]
    placed = ordered[0]
    for w in ordered[1:]:
        cells = _insert_row(cells, placed, w)
        if cells is None:
            return None
        placed |= w
    for r in ordered:
        idx = [i for i, c in enumerate(cells) if c & r]
        if idx != list(range(idx[0], idx[-1] + 1)):
            return None
        if frozenset().union(*(cells[i] for i in idx)) != r:
            return None
    return cells


def _build_node(ground: list[int], rows: list[frozenset[int]]) -> Optional[PQNode]:
    gset = frozenset(ground)
    if len(ground) == 1:
        return PQNode("L", clique=ground[0])
    rows = sorted(
        {r for r in rows if 2 <= len(r) < len(ground)},
        key=lambda r: (len(r), sorted(r)),
    )
    if not rows:
        return PQNode("P", [PQNode("L", clique=c) for c in sorted(ground)])
    # the overlap graph, tested once per pair of rows
    adj: list[list[int]] = [[] for _ in rows]
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            if _overlaps(rows[i], rows[j]):
                adj[i].append(j)
                adj[j].append(i)
    # components, each listed in the order `_order_component` places its rows:
    # every step takes the least row (in size-then-content order) that
    # overlaps a row already taken
    comps: list[list[int]] = []
    taken = [False] * len(rows)
    for root in range(len(rows)):
        if taken[root]:
            continue
        members: list[int] = []
        comps.append(members)
        frontier = [root]
        taken[root] = True
        while frontier:
            i = heappop(frontier)
            members.append(i)
            for j in adj[i]:
                if not taken[j]:
                    taken[j] = True
                    heappush(frontier, j)
    unions = [frozenset().union(*(rows[i] for i in members)) for members in comps]
    spanning = [members for members, u in zip(comps, unions) if u == gset]
    if spanning:
        cells = _order_component([rows[i] for i in spanning[0]])
        if cells is None:
            return None
        children = []
        for cell in cells:
            sub_rows = [r for r in rows if r <= cell]
            child = _build_node(sorted(cell), sub_rows)
            if child is None:
                return None
            children.append(child)
        if len(children) == 2:
            return PQNode("P", children)
        return PQNode("Q", children)
    # maximal unions form a laminar family; two components share a union only
    # when one is the single row equal to it, so duplicates collapse (their
    # rows reappear in the recursion on that union)
    maximal = sorted({u for u in unions if not any(u < u2 for u2 in unions)}, key=sorted)
    covered: set[int] = set()
    children = []
    for u in maximal:
        sub_rows = [r for r in rows if r <= u]
        child = _build_node(sorted(u), sub_rows)
        if child is None:
            return None
        children.append(child)
        covered |= set(u)
    for c in sorted(gset - covered):
        children.append(PQNode("L", clique=c))
    return PQNode("P", children)


def _finalize(tree: PQTree) -> Optional[PQTree]:
    """Assign ids/leaf sets and the MPQ vertex mapping; None if alignment fails."""
    nodes: list[PQNode] = []

    def visit(node: PQNode, parent: Optional[PQNode]):
        node.nid = len(nodes)
        node.parent = parent
        nodes.append(node)
        if node.kind == "L":
            node.leaf_set = frozenset([node.clique])
            return
        for c in node.children:
            visit(c, node)
        node.leaf_set = frozenset().union(*(c.leaf_set for c in node.children))

    visit(tree.root, None)
    tree.nodes = tuple(nodes)
    held: dict[PQNode, list[int]] = {}
    for v, kv in enumerate(tree.vertex_cliques):
        node = tree.root
        while node.kind != "L":
            inside = [c for c in node.children if kv <= c.leaf_set]
            if not inside:
                break
            node = inside[0]
        held.setdefault(node, []).append(v)
        if node.kind == "L":
            if kv != node.leaf_set:
                return None
            continue
        touched = [i for i, c in enumerate(node.children) if kv & c.leaf_set]
        lo, hi = touched[0], touched[-1]
        if touched != list(range(lo, hi + 1)) or hi == lo:
            return None
        full = frozenset().union(*(node.children[i].leaf_set for i in touched))
        if kv != full:
            return None
        if node.kind == "P" and len(touched) != len(node.children):
            return None
        tree.vertex_run[v] = (lo, hi)
    tree.node_vertices = {node: frozenset(vs) for node, vs in held.items()}
    return tree


def build_pq_tree(g: Graph) -> Optional[PQTree]:
    """PQ-tree of g, or None when g is not a connected interval graph."""
    if g.n == 0 or not is_connected(g):
        return None
    try:
        cliques = tuple(maximal_cliques(g))
    except NotChordal:
        return None
    incidence: list[list[int]] = [[] for _ in g.vertices()]
    for i, c in enumerate(cliques):
        for v in c:
            incidence[v].append(i)
    vertex_cliques = tuple(map(frozenset, incidence))
    root = _build_node(list(range(len(cliques))), sorted(set(vertex_cliques), key=sorted))
    if root is None:
        return None
    return _finalize(PQTree(g, cliques, root, vertex_cliques))


def pq_tree_to_text(tree: PQTree) -> str:
    """Bracketed serialization: P(...), Q(...), L{v1,...}."""

    def rec(node: PQNode) -> str:
        if node.kind == "L":
            return "L{" + ",".join(str(v) for v in tree.cliques[node.clique]) + "}"
        return node.kind + "(" + ",".join(rec(c) for c in node.children) + ")"

    return rec(tree.root)


# ---------------------------------------------------------------------------
# Marked interval graphs


@dataclass(frozen=True)
class MarkedIntervalGraph:
    """Interval host with families of marked clique sets and an optional tail.

    `trees`, when given, holds the PQ-tree of every host component, in
    `Graph.components` order, each with the host vertex of every tree vertex.
    """

    host: Graph
    families: tuple[tuple[frozenset[int], ...], ...]
    tail: Optional[int] = None
    trees: Optional[tuple[tuple[PQTree, Sequence[int]], ...]] = field(default=None, compare=False, repr=False)

    def __init__(
        self,
        host: Graph,
        families: Sequence[Sequence[Any]],
        tail: Optional[int] = None,
        trees: Optional[Sequence[tuple[PQTree, Sequence[int]]]] = None,
    ):
        fams = tuple(tuple(frozenset(s) for s in fam) for fam in families)
        for fam in fams:
            for s in fam:
                if not all(0 <= v < host.n for v in s):
                    raise ValueError("every marked vertex must be a host vertex")
                if not host.is_clique(s):
                    raise ValueError("every marked set must induce a clique")
        if tail is not None and not (0 <= tail < host.n and host.degree(tail) == 1):
            raise ValueError("tail must be a host vertex of degree 1")
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "families", fams)
        object.__setattr__(self, "tail", tail)
        object.__setattr__(self, "trees", None if trees is None else tuple(trees))

    def marked_vertices(self) -> frozenset[int]:
        out: set[int] = set()
        for fam in self.families:
            for s in fam:
                out |= s
        if self.tail is not None:
            out.add(self.tail)
        return frozenset(out)

    def flat_sets(self) -> list[frozenset[int]]:
        return [s for fam in self.families for s in fam]

    def component_trees(self) -> Sequence[tuple[PQTree, Sequence[int]]]:
        """`trees`, or the host components' PQ-trees built now when none were given."""
        return self.trees if self.trees is not None else _component_trees(self.host)


def _forms(
    tree: PQTree,
    nodes: Sequence[PQNode],
    colour: Sequence[tuple],
    codes: list[tuple],
    orders: list[tuple[int, ...]],
    flips: Optional[dict[int, tuple[int, ...]]] = None,
) -> tuple[list[tuple], list[tuple[int, ...]]]:
    """Per node id, the node's canonical code and its subtree's assigned
    vertices in canonical order, written into `codes` and `orders` by one pass
    over `nodes`, a preorder list, that visits children first. A child
    outside `nodes` keeps the code and order it has there.

    The code is an isomorphism invariant of the subgraph belonging to the
    node with its vertices' colours (`()` for none). Vertices assigned
    inside the subtree enter structurally: a node's own vertices as their
    sorted colours, at a Q-node as the counts of their (run, colour) keys.
    Pass-through vertices (assigned above, uniform over the whole subtree)
    enter only as a count, which completes the isomorphism class. The order lists a node's own vertices, then its children's
    orders: P-children by code, a Q-node read in the orientation its code
    takes, with its vertices grouped by oriented run and colour. So zipping
    the orders of two equal-code subtrees is an isomorphism of their
    belonging subgraphs that keeps the colours, once the pass-through
    vertices (each in every clique of the subtree) are paired in any way.
    A root has none, so its code decides isomorphism of the whole graph and
    zipping two equal root orders is an isomorphism (Lueker and Booth, J. ACM
    1979). `flips`, when given, gets the order of each Q-node whose reversed
    code is equal, read reversed.
    """
    for node in reversed(nodes):  # children first
        own = sorted(tree.assigned_vertices(node))
        children = node.children
        if node.kind == "Q":
            k = len(children)
            key = {v: tree.vertex_run[v] + colour[v] for v in own}  # (lo, hi, *colour)
            own.sort(key=key.__getitem__)  # stable: by key, then vertex
            counts = tuple(Counter(map(key.__getitem__, own)).items())
            body = (tuple([codes[c.nid] for c in children]), counts)
            bwd = (body[0][::-1], tuple(sorted(((k - 1 - r[1], k - 1 - r[0]) + r[2:], m) for r, m in counts)))
            if bwd < body or (flips is not None and bwd == body):
                mirrored = {v: (k - 1 - r[1], k - 1 - r[0]) + r[2:] for v, r in key.items()}
                flipped = sorted(own, key=mirrored.__getitem__)
                if bwd < body:
                    own, children, body = flipped, children[::-1], bwd
                else:
                    flips[node.nid] = tuple(chain(flipped, *(orders[c.nid] for c in children[::-1])))
        else:
            body = ()
            if own:
                own.sort(key=colour.__getitem__)  # stable: by colour, then vertex
                body = (tuple(filter(None, map(colour.__getitem__, own))),)  # len(own) counts the rest
            if node.kind == "P":
                children = sorted(children, key=lambda c: (codes[c.nid], c.nid))
                body += (tuple([codes[c.nid] for c in children]),)
        order = orders[node.nid] = tuple(chain(own, *(orders[c.nid] for c in children)))
        codes[node.nid] = (node.kind, len(own), len(tree.belongs(node)) - len(order)) + body
    return codes, orders


def _canonical_forms(tree: PQTree) -> tuple[list[tuple], list[tuple[int, ...]]]:
    """The plain forms: `_forms` over every node, with no vertex coloured."""
    blank: list = [()] * len(tree.nodes)
    return _forms(tree, tree.nodes, [()] * tree.graph.n, blank, list(blank))


def root_code(tree: PQTree) -> tuple:
    """The root's canonical code: equal on two trees exactly when their graphs are isomorphic."""
    codes, _orders = tree.canonical_forms()
    return codes[tree.root.nid]


def coloured_root_form(tree: PQTree, colour: Sequence[tuple]) -> tuple[tuple, tuple[int, ...]]:
    """The root's code and order of `_forms` with the given vertex colours.
    Two trees' codes are equal exactly when their graphs are isomorphic by a
    map keeping the colours, and zipping their orders then gives one."""
    blank: list = [()] * len(tree.nodes)
    codes, orders = _forms(tree, tree.nodes, colour, blank, list(blank))
    return codes[tree.root.nid], orders[tree.root.nid]


def pq_tree_isomorphism(t1: PQTree, t2: PQTree) -> Optional[tuple[int, ...]]:
    """An isomorphism from t1's graph onto t2's, as each t1 vertex's image;
    None when their root codes differ, that is, when there is none."""
    (codes1, orders1), (codes2, orders2) = t1.canonical_forms(), t2.canonical_forms()
    root1, root2 = t1.root.nid, t2.root.nid
    if codes1[root1] != codes2[root2]:
        return None
    images = dict(zip(orders1[root1], orders2[root2]))
    return tuple(images[v] for v in range(t1.graph.n))


@dataclass
class CleanReduction:
    """Result of discarding maximal clean subtrees from a PQ-tree."""

    tree: PQTree
    retained: tuple[PQNode, ...]
    discarded: dict[int, tuple[tuple[int, tuple], ...]]  # parent nid -> ((child pos, code), ...)
    orders: Sequence[tuple[int, ...]]  # per nid, the subtree's assigned vertices in canonical order


def reduce_clean(tree: PQTree, marked: frozenset[int]) -> CleanReduction:
    """Discard maximal clean subtrees, annotating their parents with codes.

    A subtree is clean when no vertex assigned inside it is marked. A node is
    retained when it is the root, or when its parent is retained and its
    subtree is not clean; `tree.nodes` is a preorder, so one filter over it
    finds them, in that order. Codes and canonical orders are the tree's kept
    `canonical_forms`; the reduction keeps the orders, from which the
    encoding reads each retained node's layer set and Q-columns.
    """
    codes, orders = tree.canonical_forms()
    kept = [False] * len(tree.nodes)
    for node in tree.nodes:
        parent = node.parent
        kept[node.nid] = parent is None or (kept[parent.nid] and not marked.isdisjoint(orders[node.nid]))
    retained = tuple(node for node in tree.nodes if kept[node.nid])
    discarded = {}
    for node in retained:
        drops = tuple((pos, codes[c.nid]) for pos, c in enumerate(node.children) if not kept[c.nid])
        if drops:
            discarded[node.nid] = drops
    return CleanReduction(tree, retained, discarded, orders)


def _classes(keyed: Iterable[tuple[Any, Any]]) -> list[list]:
    """The items sharing a key, for each key held by two or more, in first-seen order."""
    out: dict[Any, list] = {}
    for key, item in keyed:
        out.setdefault(key, []).append(item)
    return [members for members in out.values() if len(members) > 1]


@dataclass
class _Encoding:
    """Annotated set family capturing the full marked structure of a host."""

    marked: MarkedIntervalGraph
    family: SetFamily
    a_indices: list[list[int]]  # per marked family, global indices
    trees: list[PQTree]
    backs: list[Sequence[int]]  # per tree, local vertex id -> host vertex id
    b_index: dict[tuple[int, int], int]  # (tree idx, nid) -> family index
    reductions: list[CleanReduction]
    q_columns: dict[tuple[int, int], list[int]]  # (tree idx, Q nid) -> family index per child position
    component_of_index: list[int]


def _component_trees(host: Graph) -> list[tuple[PQTree, list[int]]]:
    """Per-component PQ-trees plus new->host vertex maps."""
    out = []
    for comp in host.components():
        sub, idx = host.subgraph(comp)
        back = [0] * sub.n
        for old, new in idx.items():
            back[new] = old
        tree = build_pq_tree(sub)
        if tree is None:
            raise ValueError("host component is not an interval graph")
        out.append((tree, back))
    return out


def _marked_encoding(m: MarkedIntervalGraph) -> _Encoding:
    """The annotated set family of a marked host, read off its components'
    PQ-trees: those it carries (a fragment's from its decomposition, a
    union's from its parts), else built here once."""
    host = m.host
    marked = m.marked_vertices()
    sets: list[frozenset[int]] = []
    annotations: list[tuple] = []
    comp_of: list[int] = []
    a_indices: list[list[int]] = []

    def add(s: frozenset[int], ann: tuple, comp: int) -> int:
        sets.append(s)
        annotations.append(ann)
        comp_of.append(comp)
        return len(sets) - 1

    tree_comps = m.component_trees()
    comp_id_of_vertex: dict[int, int] = {}
    for ti, (_tree, back) in enumerate(tree_comps):
        for v in back:
            comp_id_of_vertex[v] = ti

    for j, fam in enumerate(m.families):
        idxs = []
        for s in fam:
            comp = comp_id_of_vertex[min(s)] if s else -1
            idxs.append(add(s, ("A", j), comp))
        a_indices.append(idxs)
    if m.tail is not None:
        add(frozenset([m.tail]), ("tail",), comp_id_of_vertex[m.tail])

    trees = []
    reductions = []
    reduced: dict[tuple[int, frozenset[int]], CleanReduction] = {}  # components sharing a tree and marks share one
    b_index: dict[tuple[int, int], int] = {}
    q_columns: dict[tuple[int, int], list[int]] = {}
    for ti, (tree, back) in enumerate(tree_comps):
        trees.append(tree)
        local_marked = frozenset(
            i for i, hv in enumerate(back) if hv in marked
        )
        red = reduced.get((id(tree), local_marked))
        if red is None:
            red = reduced[(id(tree), local_marked)] = reduce_clean(tree, local_marked)
        reductions.append(red)
        for node in red.retained:
            qpos: tuple = ()
            parent = node.parent  # retained too, unless node is the root
            if parent is not None and parent.kind == "Q":
                k = len(parent.children)
                pos = parent.children.index(node)
                qpos = ("qpos", min(pos, k - 1 - pos), k)
            drops = red.discarded.get(node.nid, ())
            ann = ("node", node.kind, () if node.kind == "Q" else tuple(sorted(code for _pos, code in drops)), qpos)
            bset = frozenset(back[v] for v in tree.belongs(node))
            b_index[(ti, node.nid)] = add(bset, ann, ti)
            # layer structure: vertices assigned within the subtree (excludes
            # pass-throughs from above, unlike the belonging set); laminar, so
            # it pins assignment depth without growing antichains per node
            sset = frozenset(back[v] for v in red.orders[node.nid])
            if sset:
                add(sset, ("layer",), ti)
        # a Q-node's column i: the confined vertices (those assigned inside
        # its subtree) whose span of child positions contains i. A vertex's
        # columns form an interval, so a map keeping the Venn diagram keeps
        # the node's admissible child orders: the given one and its reverse
        for node in red.retained:
            if node.kind != "Q":
                continue
            k = len(node.children)
            drops = dict(red.discarded.get(node.nid, ()))
            columns = [{back[v] for v in red.orders[c.nid]} for c in node.children]
            for v in tree.assigned_vertices(node):
                lo, hi = tree.vertex_run[v]
                for pos in range(lo, hi + 1):
                    columns[pos].add(back[v])
            q_columns[(ti, node.nid)] = [
                add(frozenset(col), ("qcol", drops.get(pos, ("retained",)), min(pos, k - 1 - pos), k), ti)
                for pos, col in enumerate(columns)
            ]

    family = SetFamily(host.n, sets, annotations)
    return _Encoding(
        m,
        family,
        a_indices,
        trees,
        [back for _tree, back in tree_comps],
        b_index,
        reductions,
        q_columns,
        comp_of,
    )


def _absorbed(tree: PQTree, own: frozenset[int], pairs: Sequence[tuple[int, int]]) -> bool:
    """Whether a Q-node flip, given by the (vertex, image) pairs of the shard
    vertices it moves, maps each onto a twin: a vertex assigned to the same
    Q-node (`own`) with the same run. A flip keeps colours, so a twin
    permutation then undoes it on the marked sets."""
    run = tree.vertex_run
    return all(u in own and run[u] == run[w] for u, w in pairs)


def marked_set_action(hosts: Sequence[MarkedIntervalGraph]) -> tuple[list[Perm], list[int], int]:
    """The action on hosts and marked sets of the isomorphisms between the
    given connected hosts that keep each family and the tails, for marked
    sets of at most one vertex each, read off the hosts' coloured PQ-trees
    (Colbourn and Booth, SIAM J. Comput. 1981).

    The domain is one point per host, in the given order, then one per
    marked set: family by family, and inside a family host by host, in the
    order of `marked_union`'s families. Returns generators, each one's lead
    (a point it moves, which a chain's base may list), and the order of the
    group they generate.

    Such marks only colour vertices: a vertex's colour lists the families
    holding it, with repeats, and whether it is the tail. Each host's
    `reduce_clean` is taken once per tree and marked vertices, and `_forms`
    over its retained nodes, started from the tree's plain forms, once per
    reduction and colouring: a clean subtree holds no coloured vertex, so its
    coloured code is its plain one. The symmetries are read off them,
    top-down, each as a vertex map carried onto the points:
    - hosts of equal coloured root codes swap
    - equal-code retained children of a P-node swap
    - a Q-node reverses when its reversed coloured code is equal
    - coloured twins (one node, one run, one colour) swap
    - equal marked sets swap: one vertex in one family of one host, or the
      empty sets of one family in any host

    The order is counted, not read off a chain: `PermGroup` stops as soon as
    its chain reaches a stated order, so an understated order would go
    unnoticed. Clean subtrees and unmarked twins move no point, and each
    retained child holds a marked vertex, so a class of k equal hosts,
    children, twins or sets acts as S_k on its members, visibly on the
    points. Nested classes multiply, as in a rooted tree's automorphism
    group, so the order is the product of the k!, times 2 for each reversal
    that is not absorbed. A reversal is absorbed when every shard vertex it moves
    goes to a twin (`_absorbed`): it then acts on the points as a twin
    permutation, so it adds neither a generator nor a factor. Otherwise it
    moves a marked vertex to another run or child, which no
    orientation-keeping symmetry does. A class's swaps chain its members in
    the order of their least points; on a base of the leads, orbit closure
    alone has reached the order on every input tested.
    """
    if len({len(m.families) for m in hosts}) > 1:
        raise ValueError("all hosts must carry the same number of families")
    trees = []
    for m in hosts:
        if any(len(s) > 1 for fam in m.families for s in fam):
            raise ValueError("a marked set has more than one vertex")
        components = m.component_trees()
        if len(components) != 1:
            raise ValueError("every host must be connected")
        trees.append(components[0])
    local = [{hv: v for v, hv in enumerate(back)} for _tree, back in trees]
    # per host and tree vertex: its colour, and the points of its sets, a list per family
    colours: list[list[tuple]] = []
    points_at: list[list[list[list[int]]]] = [[[] for _ in back] for _tree, back in trees]
    for m, (_tree, back), to_tree in zip(hosts, trees, local):
        colour: list[list[int]] = [[] for _ in back]
        for j, fam in enumerate(m.families):
            for hv in chain.from_iterable(fam):
                colour[to_tree[hv]].append(j)
        if m.tail is not None:
            colour[to_tree[m.tail]].append(-1)
        colours.append(list(map(tuple, colour)))
    equal: dict[tuple, list[int]] = {}  # equal marked sets share a key: (host, family, vertex), or (family,) when empty
    degree = len(hosts)
    for j in range(len(hosts[0].families) if hosts else 0):
        for h, m in enumerate(hosts):
            for s in m.families[j]:
                key = (h, j, local[h][min(s)]) if s else (j,)
                if key not in equal:
                    equal[key] = []
                    if s:
                        points_at[h][key[2]].append(equal[key])
                equal[key].append(degree)
                degree += 1
    least = [[sets[0][0] if sets else degree for sets in per_host] for per_host in points_at]

    def on_points(moved: Iterable[tuple[tuple[int, int], tuple[int, int]]], hosts_moved=()) -> Perm:
        """The point map of a symmetry that maps each (host, marked vertex) of
        `moved` onto its partner and each host of `hosts_moved` onto its partner."""
        images = list(range(degree))
        for a, b in hosts_moved:
            images[a] = b
        for (ha, u), (hb, w) in moved:
            for src, dst in zip(points_at[ha][u], points_at[hb][w]):
                if len(src) != len(dst):
                    raise AssertionError("a coloured symmetry maps a marked set off its family")
                for p, q in zip(src, dst):
                    images[p] = q
        return Perm._raw(tuple(images))

    # per host, its reduction and the coloured codes, orders and reversible
    # Q-nodes of `_forms` over the retained nodes; hosts sharing them share one
    forms: list[tuple[CleanReduction, list[tuple], list[tuple[int, ...]], dict[int, tuple[int, ...]]]] = []
    reduced: dict[tuple[int, frozenset[int]], CleanReduction] = {}
    coloured: dict[tuple, tuple] = {}
    for (tree, _back), colour in zip(trees, colours):
        marked = frozenset(v for v, c in enumerate(colour) if c)
        red = reduced.get((id(tree), marked))
        if red is None:
            red = reduced[(id(tree), marked)] = reduce_clean(tree, marked)
        key = (id(red), tuple(colour))
        if key not in coloured:
            codes, orders = tree.canonical_forms()
            flips: dict[int, tuple[int, ...]] = {}
            coloured[key] = _forms(tree, red.retained, colour, list(codes), list(orders), flips) + (flips,)
        forms.append((red,) + coloured[key])

    gens: list[Perm] = []
    leads: list[int] = []
    order = 1

    def swaps(classes: Iterable[list[tuple[int, Any]]], swap: Callable[[Any, Any], Perm]):
        """A generator per adjacent pair of each class of (lead, member), led by
        the first's lead; k! per class."""
        nonlocal order
        for members in classes:
            order *= factorial(len(members))
            members.sort(key=lambda member: member[0])
            for (lead, a), (_lead, b) in zip(members, members[1:]):
                gens.append(swap(a, b))
                leads.append(lead)

    def subtree(h: int, node: PQNode) -> tuple[int, tuple[int, PQNode]]:
        """A subtree as a class member: its least point, then the subtree."""
        return min(map(least[h].__getitem__, forms[h][2][node.nid]), default=degree), (h, node)

    def subtree_swap(a: tuple[int, PQNode], b: tuple[int, PQNode]) -> Perm:
        (ha, x), (hb, y) = a, b
        pairs = [((ha, u), (hb, w)) for u, w in zip(forms[ha][2][x.nid], forms[hb][2][y.nid]) if least[ha][u] < degree]
        return on_points(pairs + [(w, u) for u, w in pairs], [(ha, hb), (hb, ha)] if x.parent is None else ())

    roots = ((forms[h][1][tree.root.nid], (h, (h, tree.root))) for h, (tree, _back) in enumerate(trees))
    swaps(_classes(roots), subtree_swap)
    for h, ((red, codes, orders, flips), colour) in enumerate(zip(forms, colours)):
        tree = red.tree
        for node in red.retained:  # preorder, so top-down
            if node.kind == "P":
                dropped = dict(red.discarded.get(node.nid, ()))
                retained = ((codes[c.nid], subtree(h, c)) for pos, c in enumerate(node.children) if pos not in dropped)
                swaps(_classes(retained), subtree_swap)
            elif node.nid in flips:
                pairs = [(u, w) for u, w in zip(orders[node.nid], flips[node.nid]) if u != w and least[h][u] < degree]
                if not _absorbed(tree, tree.assigned_vertices(node), pairs):
                    order *= 2
                    gens.append(on_points([((h, u), (h, w)) for u, w in pairs]))
                    leads.append(min(least[h][u] for u, _w in pairs))
            own = [v for v in orders[node.nid][: len(tree.assigned_vertices(node))] if least[h][v] < degree]
            twins = _classes(((tree.vertex_run.get(v), colour[v]), (least[h][v], v)) for v in own)
            swaps(twins, lambda u, w, h=h: on_points([((h, u), (h, w)), ((h, w), (h, u))]))
    for members in equal.values():
        order *= factorial(len(members))
        for p, q in zip(members, members[1:]):
            images = list(range(degree))
            images[p], images[q] = q, p
            gens.append(Perm._raw(tuple(images)))
            leads.append(p)
    return gens, leads, order


def family_set_action(hosts: Sequence[MarkedIntervalGraph]) -> list[Perm]:
    """Generators of the action `marked_set_action` describes, on its domain,
    for connected hosts with marked sets of any size: `family_autgroup` of
    their union's encoding, each generator read on the hosts (by their root
    nodes' sets) and on the marked sets. The order is not known."""
    union, _offsets = marked_union(hosts)
    enc = _marked_encoding(union)
    if len(enc.trees) != len(hosts):
        raise ValueError("every host must be connected")
    roots = [enc.b_index[(k, red.tree.root.nid)] for k, red in enumerate(enc.reductions)]
    sets = [i for index in enc.a_indices[: len(hosts[0].families)] for i in index]
    point = {i: len(hosts) + r for r, i in enumerate(sets)}
    return [
        Perm._raw(tuple([enc.component_of_index[gen(i)] for i in roots] + [point[gen(i)] for i in sets]))
        for gen in family_autgroup(enc.family).generators
    ]


def marked_action_group(m: MarkedIntervalGraph) -> PermGroup:
    """Action on marked-set indices of tail-fixing, family-preserving host automorphisms."""
    enc = _marked_encoding(m)
    return family_autgroup(enc.family).restriction([i for index in enc.a_indices for i in index])


def brute_marked_autgroup(m: MarkedIntervalGraph, guard: int = 10) -> PermGroup:
    """Desk-scale oracle: enumerate host automorphisms and project onto marked sets."""
    from .harness import iter_automorphisms

    host = m.host
    if host.n > guard:
        raise TooLarge(f"brute marked autgroup guarded at n <= {guard}")
    flat = m.flat_sets()
    fam_of = [j for j, fam in enumerate(m.families) for _ in fam]
    gens: list[Perm] = []
    for sigma in iter_automorphisms(host, guard):
        if m.tail is not None and sigma(m.tail) != m.tail:
            continue
        images: list[Optional[int]] = [None] * len(flat)
        used: set[int] = set()
        ok = True
        for i, s in enumerate(flat):
            target = sigma.image_of_set(s)
            choice = None
            for j, s2 in enumerate(flat):
                if j in used or fam_of[j] != fam_of[i]:
                    continue
                if s2 == target:
                    choice = j
                    break
            if choice is None:
                ok = False
                break
            images[i] = choice
            used.add(choice)
        if ok:
            gens.append(Perm(images))  # canonical matching for this automorphism
    # duplicate marked sets within a family are freely interchangeable
    for i in range(len(flat)):
        for j in range(i + 1, len(flat)):
            if fam_of[i] == fam_of[j] and flat[i] == flat[j]:
                images = list(range(len(flat)))
                images[i], images[j] = j, i
                gens.append(Perm(images))
    return PermGroup(len(flat), gens)


# ---------------------------------------------------------------------------
# Realizing index permutations as vertex maps


def _realize_vertex_map(enc: _Encoding, tau: Perm) -> Perm:
    """A host automorphism/isomorphism acting on every encoded set as tau does.

    Each host vertex is coloured by the sorted indices of the encoded sets
    holding it, and on the source side by tau's images of them. A component
    goes to the one holding tau's image of its root node set; their coloured
    root codes are equal exactly when some isomorphism keeps the colours,
    and zipping the two root orders gives one (`coloured_root_form`). A
    colour-keeping map puts v in set i exactly when it puts v's image in set
    tau(i), so it acts on the sets as tau does.
    """
    host = enc.marked.host
    sets = enc.family.sets
    holding: list[list[int]] = [[] for _ in host.vertices()]
    for i, s in enumerate(sets):
        for v in s:
            holding[v].append(i)
    images = [-1] * host.n
    for ti, (tree, back) in enumerate(zip(enc.trees, enc.backs)):
        tj = enc.component_of_index[tau(enc.b_index[(ti, tree.root.nid)])]
        tree2, back2 = enc.trees[tj], enc.backs[tj]
        code, order = coloured_root_form(tree, [tuple(sorted(map(tau, holding[hv]))) for hv in back])
        code2, order2 = coloured_root_form(tree2, [tuple(holding[hv]) for hv in back2])
        if code != code2:
            raise AssertionError("no host isomorphism carries the encoded sets as tau does")
        for u, w in zip(order, order2):
            images[back[u]] = back2[w]
    if sorted(images) != list(range(host.n)):
        raise AssertionError("realized map is not a bijection")
    sigma = Perm._raw(tuple(images))
    # a bijection maps distinct edges to distinct pairs, so preserving each edge suffices
    for u, v in host.edges:
        if not host.has_edge(sigma(u), sigma(v)):
            raise AssertionError("realized map breaks an edge")
    for i, s in enumerate(sets):
        if sigma.image_of_set(s) != sets[tau(i)]:
            raise AssertionError("realized map disagrees with tau on a set")
    return sigma


def marked_union(ms: Sequence[MarkedIntervalGraph]) -> tuple[MarkedIntervalGraph, list[int]]:
    """Disjoint union of marked hosts, with each part's vertex offset.

    Family j of the union is family j of every part, concatenated in part
    order; the parts' tails become one last family of singletons. The union
    carries the parts' component trees in part order, which is its own
    component order.
    """
    if len({len(m.families) for m in ms}) > 1:
        raise ValueError("all parts must carry the same number of families")
    if len({m.tail is None for m in ms}) > 1:
        raise ValueError("either every part has a tail or none has")
    offsets = list(accumulate((m.host.n for m in ms[:-1]), initial=0))
    parts = list(zip(ms, offsets))
    trees = [(tree, [v + off for v in back]) for m, off in parts for tree, back in m.component_trees()]
    edges = [(u + off, v + off) for m, off in parts for u, v in m.host.edges]
    families = [
        tuple(frozenset(v + off for v in s) for m, off in parts for s in m.families[j])
        for j in range(len(ms[0].families))
    ]
    if ms[0].tail is not None:
        families.append(tuple(frozenset([m.tail + off]) for m, off in parts))
    return MarkedIntervalGraph(Graph(offsets[-1] + ms[-1].host.n, edges), families, trees=trees), offsets


def marked_isomorphism(
    m1: MarkedIntervalGraph, m2: MarkedIntervalGraph
) -> Optional[tuple[list[int], list[list[int]]]]:
    """A witness isomorphism mapping family i of m1 onto family i of m2, or None.

    Returns (vertex images of m1.host into m2.host, per-family set-index maps).
    """
    if len(m1.families) != len(m2.families):
        raise ValueError("both sides must carry the same number of families")
    if (m1.tail is None) != (m2.tail is None) or m1.host.n != m2.host.n:
        return None
    n1 = m1.host.n
    enc = _marked_encoding(marked_union([m1, m2])[0])
    # the union lists m1's components first; an empty marked set lies in no
    # component, and its index tells its side
    sides = len(m1.host.components())
    left = {i for i, comp in enumerate(enc.component_of_index) if 0 <= comp < sides}
    left.update(i for index, f1 in zip(enc.a_indices, m1.families) for i in index[: len(f1)])
    right = [i for i in range(len(enc.family.sets)) if i not in left]
    swap = find_block_swap(family_autgroup(enc.family), left, right)
    if swap is None:
        return None
    sigma = _realize_vertex_map(enc, swap)
    vertex_map = [sigma(v) - n1 for v in range(n1)]
    if any(img < 0 for img in vertex_map):
        raise AssertionError("swap element does not exchange the two hosts")
    set_maps = []
    for index, f1 in zip(enc.a_indices, m1.families):
        set_maps.append([index.index(swap(i)) - len(f1) for i in index[: len(f1)]])
        if any(pos < 0 for pos in set_maps[-1]):
            raise AssertionError("marked set mapped within the same side")
    return vertex_map, set_maps
