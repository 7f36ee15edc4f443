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
from operator import sub
from typing import Any, Callable, Iterable, Optional, Sequence

from .chordal import component_subgraphs, is_connected, maximal_cliques
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
    assigned: tuple[tuple[int, ...], ...] = ()  # per node id, the vertices assigned to the node, ascending
    belonging: tuple[int, ...] = ()  # per node id, the number of vertices belonging to the node
    _forms: Optional[tuple[list[tuple], list[tuple[int, ...]]]] = field(default=None, repr=False, compare=False)

    def canonical_forms(self) -> tuple[list[tuple], list[tuple[int, ...]]]:
        """`_canonical_forms` of this tree, computed on first use and kept."""
        if self._forms is None:
            self._forms = _canonical_forms(self)
        return self._forms

    @property
    def node_vertices(self) -> dict[PQNode, frozenset[int]]:
        """`assigned_vertices` of every node holding a vertex."""
        return {node: frozenset(vs) for node, vs in zip(self.nodes, self.assigned) if vs}

    def assigned_vertices(self, node: PQNode) -> frozenset[int]:
        """Vertices whose minimal covering node is `node` (leaf privates
        included); empty for a node this finalised tree does not hold."""
        nid = node.nid
        if 0 <= nid < len(self.nodes) and self.nodes[nid] is node:
            return frozenset(self.assigned[nid])
        return frozenset()

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


def _all_pairs(bits: Sequence[int], adj: list[list[int]]) -> list[list[int]]:
    """`adj` with the overlapping pairs of rows added, testing every pair."""
    for i, bi in enumerate(bits):
        for j in range(i + 1, len(bits)):
            x = bi & bits[j]
            if x and x != bi:
                adj[i].append(j)
                adj[j].append(i)
    return adj


def _overlap_graph(bits: Sequence[int], members: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """The overlap graph of rows in size-then-content order, as adjacency
    lists, and the number of pairs it tested.

    `bits[i]` is row i as a bitset over clique indices and `members[i]` its
    cliques. For i < j row j is no smaller, so the two overlap exactly when
    their meet is neither empty nor all of row i. Each pair is tested at
    most once, from whichever side offers fewer candidate pairs: every pair,
    or only the pairs sharing a clique, each at the least clique they share.
    The second is cheap when no clique lies in many rows (a path), the first
    when many rows nest (nested intervals, where every clique of a row lies
    in each row around it).
    """
    r = len(bits)
    adj: list[list[int]] = [[] for _ in range(r)]
    if r * (r - 1) <= 2 * sum(map(len, members)):  # no more pairs than listing the holders costs
        return _all_pairs(bits, adj), r * (r - 1) // 2
    holders: dict[int, list[int]] = {}
    for i, cliques in enumerate(members):
        for c in cliques:
            if c in holders:
                holders[c].append(i)
            else:
                holders[c] = [i]
    shared = [(c, hs) for c, hs in holders.items() if len(hs) > 1]
    if sum(len(hs) * (len(hs) - 1) for _c, hs in shared) >= r * (r - 1):
        return _all_pairs(bits, adj), r * (r - 1) // 2
    tests = 0
    for c, hs in shared:
        low = 1 << c
        for a in range(len(hs) - 1):
            i = hs[a]
            bi = bits[i]
            for j in hs[a + 1 :]:
                x = bi & bits[j]
                if (x & -x) == low:  # c is the least clique the two share
                    tests += 1
                    if x != bi:
                        adj[i].append(j)
                        adj[j].append(i)
    return adj, tests


class _Cells:
    """A sequence of disjoint clique sets (cells) as a doubly linked list of
    cell ids, with the cell of every placed clique and each cell's size, so
    that placing or checking a row reads only the row's cliques and the cells
    they lie in."""

    __slots__ = ("cell_of", "size", "left", "right", "first", "last")

    def __init__(self, row: Sequence[int]):
        self.cell_of = dict.fromkeys(row, 0)
        self.size = [len(row)]
        self.left = [-1]  # -1 past either end
        self.right = [-1]
        self.first = self.last = 0

    def meet(self, row: Sequence[int]) -> tuple[dict[int, list[int]], list[int], int, int]:
        """The row's cliques in each cell they meet, those in no cell, and
        the end cells of the run that the met cells form; the ends are -1
        unless the met cells are consecutive and the row holds each inner
        one whole."""
        cell_of = self.cell_of
        parts: dict[int, list[int]] = {}
        new = []
        for c in row:
            k = cell_of.get(c)
            if k is None:
                new.append(c)
            elif k in parts:
                parts[k].append(c)
            else:
                parts[k] = [c]
        left, right, size = self.left, self.right, self.size
        lo = hi = -1
        for k, got in parts.items():
            inner = True
            if left[k] not in parts:
                if lo >= 0:
                    return parts, new, -1, -1
                lo, inner = k, False
            if right[k] not in parts:
                hi, inner = k, False
            if inner and len(got) != size[k]:
                return parts, new, -1, -1
        return parts, new, lo, hi

    def place(self, cliques: Sequence[int], a: int, b: int) -> None:
        """Put the cliques, all unplaced or all from one cell, into a new cell
        between the adjacent cells a and b (-1 past either end)."""
        new = len(self.size)
        old = self.cell_of.get(cliques[0])
        if old is not None:
            self.size[old] -= len(cliques)
        self.size.append(len(cliques))
        for c in cliques:
            self.cell_of[c] = new
        self.left.append(a)
        self.right.append(b)
        if a < 0:
            self.first = new
        else:
            self.right[a] = new
        if b < 0:
            self.last = new
        else:
            self.left[b] = new


def _insert_row(cells: _Cells, w: Sequence[int]) -> bool:
    """Require the cliques w to be consecutive in `cells`, in place; False
    when that is infeasible.

    New cliques of w can only extend an end of the current sequence, and a
    partially covered end cell must face its covered part toward the run
    interior (or toward the new cliques). When both ends could take the new
    cliques, the left one does (see `_order_component`). The work is in
    proportion to w.
    """
    parts, extras, lo, hi = cells.meet(w)
    if lo < 0:
        return False
    lo_whole = len(parts[lo]) == cells.size[lo]
    hi_whole = len(parts[hi]) == cells.size[hi]
    # a split end cell keeps its uncovered part outward
    if not extras:
        if lo == hi:
            return lo_whole  # nested in one cell: cannot overlap anything placed
        if not lo_whole:
            cells.place(parts[lo], lo, cells.right[lo])
        if not hi_whole:
            cells.place(parts[hi], cells.left[hi], hi)
        return True
    if lo == cells.first and (lo == hi or lo_whole):
        if not hi_whole:
            cells.place(parts[hi], cells.left[hi], hi)
        cells.place(extras, -1, cells.first)
        return True
    if hi == cells.last and (lo == hi or hi_whole):
        if not lo_whole:
            cells.place(parts[lo], lo, cells.right[lo])
        cells.place(extras, cells.last, -1)
        return True
    return False


def _order_component(ground: Sequence[int], ordered: Sequence[Sequence[int]]) -> Optional[list[list[int]]]:
    """The cells, in order, of an overlap component spanning `ground` laid
    out consecutively, each as its sorted cliques; None when it cannot be.

    The order is forced up to reversal, so one pass finds it. The rows come
    in an order where each after the first overlaps an earlier one (as
    `_build_node` walks its overlap graph). For both ends to take a
    row's new cliques, the row would have to cover every placed cell and so
    contain every earlier row, which it cannot while it overlaps one of them.
    So only the second row has two insertions, and they are mirror images;
    every later insertion commutes with reversal, so the left one loses
    nothing.

    Every row is checked again at the end, a guard on the insertions (a
    split only divides a cell, so it should keep each placed row a run of
    whole cells). Each cell is ranked once by the cliques before it and
    through it; every row's cliques are placed by then, and they are a run
    of whole cells exactly when the cells they lie in span as many cliques
    as the row holds.
    """
    cells = _Cells(ordered[0])
    for w in ordered[1:]:
        if not _insert_row(cells, w):
            return None
    size, right, cell_of = cells.size, cells.right, cells.cell_of
    position = [0] * len(size)  # per cell id, its place in the sequence
    start = [0] * len(size)  # the number of cliques before it
    end = [0] * len(size)  # and through it
    k, p, at = cells.first, 0, 0
    while k >= 0:
        position[k], start[k] = p, at
        p, at = p + 1, at + size[k]
        end[k] = at
        k = right[k]
    for w in ordered:
        lo, hi = at, 0
        for c in w:
            k = cell_of[c]
            if start[k] < lo:
                lo = start[k]
            if end[k] > hi:
                hi = end[k]
        if hi - lo != len(w):
            return None
    out: list[list[int]] = [[] for _ in range(p)]
    for c in ground:
        out[position[cell_of[c]]].append(c)
    return out


def _bits(cliques: Iterable[int]) -> int:
    out = 0
    for c in cliques:
        out |= 1 << c
    return out


# A child still to build: its parent's child list and position, its cliques
# and their bitset, and the rows inside it.
_Task = tuple[list, int, list[int], int, list[int]]


def _with_children(kind: str, cells: list[list[int]], rows: list[int], bits: Sequence[int], members: Sequence[Sequence[int]]) -> tuple[PQNode, list[_Task]]:
    """A node with one child per cell, in order: a leaf for a single clique,
    else a task holding the rows inside the cell, each found from the cell
    of its least clique."""
    node = PQNode(kind, [None] * len(cells))  # type: ignore[list-item]
    inside: dict[int, list[int]] = {}  # per cell of two or more cliques, the rows inside it
    cell_at: dict[int, int] = {}
    for k, cell in enumerate(cells):
        if len(cell) == 1:
            node.children[k] = PQNode("L", clique=cell[0])
        else:
            inside[k] = []
            cell_at.update(dict.fromkeys(cell, k))
    if not inside:
        return node, []
    cell_bits = {k: _bits(cells[k]) for k in inside}
    for r in rows:
        k = cell_at.get(members[r][0])
        if k is not None and (bits[r] | cell_bits[k]) == cell_bits[k]:
            inside[k].append(r)
    return node, [(node.children, k, cells[k], cell_bits[k], rs) for k, rs in inside.items()]


def _build_node(
    ground: list[int],
    ground_bits: int,
    rows: list[int],
    bits: Sequence[int],
    members: Sequence[Sequence[int]],
    adj: Sequence[Sequence[int]],
) -> Optional[tuple[PQNode, list[_Task]]]:
    """The node on `ground`, with its children still to build; None when the
    rows admit no consecutive order.

    `rows` are ids into `bits` and `members`, ascending, so in size-then-
    content order, and `adj` is the overlap graph of every row. A row inside
    a node overlaps only rows inside it (a row overlapping it meets the
    node's cells or component union and so lies there too), so the node's
    overlap graph is `adj` on its rows, read without a filter.
    """
    rows = [r for r in rows if len(members[r]) < len(ground)]
    if not rows:
        return PQNode("P", [PQNode("L", clique=c) for c in ground]), []
    # components, each listed in the order `_order_component` places its rows:
    # every step takes the least row (in size-then-content order) that
    # overlaps a row already taken
    comps: list[list[int]] = []
    taken: set[int] = set()
    for root in rows:
        if root in taken:
            continue
        taken.add(root)
        members_of: list[int] = []
        comps.append(members_of)
        frontier = [root]
        while frontier:
            i = heappop(frontier)
            members_of.append(i)
            for j in adj[i]:
                if j not in taken:
                    taken.add(j)
                    heappush(frontier, j)
    unions = []
    for comp in comps:
        u = 0
        for i in comp:
            u |= bits[i]
        unions.append(u)
    for comp, u in zip(comps, unions):
        if u == ground_bits:
            cells = _order_component(ground, [members[i] for i in comp])
            if cells is None:
                return None
            return _with_children("P" if len(cells) == 2 else "Q", cells, rows, bits, members)
    # the unions form a laminar family, so taking them largest first, a union
    # is maximal exactly when no earlier maximal one holds its least clique;
    # two components share a union only when one is the single row equal to
    # it, so duplicates collapse (their rows reappear inside that union)
    owner: set[int] = set()
    maximal: list[list[int]] = []
    for k in sorted(range(len(comps)), key=lambda k: -unions[k].bit_count()):
        u = unions[k]
        if (u & -u).bit_length() - 1 in owner:
            continue
        cliques = sorted(set().union(*(members[i] for i in comps[k])))
        owner.update(cliques)
        maximal.append(cliques)
    maximal.sort()  # disjoint, so by least clique
    maximal += [[c] for c in ground if c not in owner]
    return _with_children("P", maximal, rows, bits, members)


def _build_tree(k: int, members: Sequence[Sequence[int]]) -> Optional[PQNode]:
    """The PQ-tree on cliques 0..k-1 whose permissible orders keep each row
    of `members` consecutive (rows in size-then-content order, each of 2 to
    k-1 cliques), or None. The overlap graph is built once, for every node,
    and the nodes top-down from a stack."""
    bits = [_bits(cliques) for cliques in members]
    adj = _overlap_graph(bits, members)[0] if members else []
    top: list = [None]
    stack: list[_Task] = [(top, 0, list(range(k)), (1 << k) - 1, list(range(len(members))))]
    while stack:
        at, pos, ground, ground_bits, rows = stack.pop()
        if len(ground) == 1:
            at[pos] = PQNode("L", clique=ground[0])
            continue
        built = _build_node(ground, ground_bits, rows, bits, members, adj)
        if built is None:
            return None
        at[pos], tasks = built
        stack += tasks
    return top[0]


def _finalize(tree: PQTree) -> Optional[PQTree]:
    """Assign ids, parents and leaf sets, the MPQ vertex mapping (each
    node's vertices, ascending, and each vertex's run) and each node's
    belonging count; None if alignment fails.

    The leaves are ranked left to right, so every node's leaves are a run of
    ranks. A vertex whose cliques are the ranks a..b belongs at their least
    common ancestor, reached by climbing from leaf a and from leaf b. It
    aligns when the child reached from a starts at a and the one reached
    from b ends at b, so that its cliques are a run of whole children; on
    the way up every node must start at a (or end at b), so the climb takes
    no more steps than the vertex has cliques.
    """
    root = tree.root
    root.parent = None
    nodes: list[PQNode] = []
    leaves: list[PQNode] = []  # left to right
    inner: list[PQNode] = []
    stack = [root]
    while stack:
        node = stack.pop()
        node.nid = len(nodes)
        nodes.append(node)
        if node.children:
            inner.append(node)
            for c in node.children:
                c.parent = node
            stack += reversed(node.children)
        else:
            leaves.append(node)
    tree.nodes = tuple(nodes)
    in_order = [leaf.clique for leaf in leaves]
    rank = [0] * len(tree.cliques)
    first = [0] * len(nodes)  # per node id, the ranks of its first and last leaf
    last = [0] * len(nodes)
    pos = [0] * len(nodes)  # per node id, its place among its parent's children
    for i, leaf in enumerate(leaves):
        rank[leaf.clique] = first[leaf.nid] = last[leaf.nid] = i
        leaf.leaf_set = frozenset((leaf.clique,))
    for node in reversed(inner):  # children first
        children = node.children
        a = first[node.nid] = first[children[0].nid]
        b = last[node.nid] = last[children[-1].nid]
        node.leaf_set = frozenset(in_order[a : b + 1])
        for i, c in enumerate(children):
            pos[c.nid] = i
    held: dict[int, list[int]] = {}  # per node id holding a vertex, its vertices
    began = [0] * len(leaves)  # per rank, the vertices whose run starts there
    ended = [0] * (len(leaves) + 1)  # per rank, those whose run ends just before it
    run_of = tree.vertex_run
    rank_of = rank.__getitem__
    for v, kv in enumerate(tree.vertex_cliques):
        if len(kv) == 1:
            (c,) = kv
            a = b = rank[c]
            nid = leaves[a].nid
        else:
            ranks = sorted(map(rank_of, kv))
            a, b = ranks[0], ranks[-1]
            node = leaves[a]
            if b - a + 1 != len(kv):
                return None
            while last[node.nid] < b:
                if first[node.nid] != a:
                    return None
                lo, node = pos[node.nid], node.parent  # type: ignore[assignment]
            upper = leaves[b]
            while upper.parent is not node:
                if last[upper.nid] != b:
                    return None
                upper = upper.parent
            hi = pos[upper.nid]
            if last[upper.nid] != b or (node.kind == "P" and hi - lo + 1 != len(node.children)):
                return None
            nid, run_of[v] = node.nid, (lo, hi)
        began[a] += 1
        ended[b + 1] += 1
        if nid in held:
            held[nid].append(v)
        else:
            held[nid] = [v]
    assigned: list[tuple[int, ...]] = [()] * len(nodes)
    for nid, vs in held.items():
        assigned[nid] = tuple(vs)
    tree.assigned = tuple(assigned)
    # a vertex belongs to a node when its run of ranks meets the node's: it
    # starts by the node's last rank and does not end before its first (a
    # run ending before the first rank also starts before the last)
    began = list(accumulate(began))  # per rank, the runs starting by it
    ended = list(accumulate(ended))  # per rank, the runs ending before it
    tree.belonging = tuple(map(sub, map(began.__getitem__, last), map(ended.__getitem__, first)))
    return tree


def build_pq_tree(g: Graph) -> Optional[PQTree]:
    """PQ-tree of g, or None when g is not a connected interval graph.

    The rows are the distinct clique sets of the vertices, as bitsets over
    clique indices and as sorted clique lists, in size-then-content order.
    """
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
    k = len(cliques)
    rows = sorted({tuple(cs) for cs in incidence if 2 <= len(cs) < k})
    rows.sort(key=len)  # stable, so by size, then content
    root = _build_tree(k, rows)
    if root is None:
        return None
    return _finalize(PQTree(g, cliques, root, tuple(map(frozenset, incidence))))


def clique_completion_tree(frag: int, sep: int) -> PQTree:
    """The PQ-tree of a completion (`decompose._build_completion`) whose
    fragment of `frag` vertices and nonempty separator of `sep` vertices make
    a clique K: K on 0..frag+sep-1, separator last, then l, joined to the
    separator, then l's pendant tail. Its cliques K, sep + l and l + tail
    form a path that only reverses, so the tree is one Q-node over them, the
    one `build_pq_tree` returns, without a search."""
    k = frag + sep
    edges = [(u, v) for u in range(k) for v in range(u + 1, k + (u >= frag))]
    edges.append((k, k + 1))
    cliques = (tuple(range(k)), tuple(range(frag, k + 1)), (k, k + 1))
    vertex_cliques = (frozenset((0,)),) * frag + (frozenset((0, 1)),) * sep + (frozenset((1, 2)), frozenset((2,)))
    root = PQNode("Q", [PQNode("L", clique=2), PQNode("L", clique=1), PQNode("L", clique=0)])
    tree = _finalize(PQTree(Graph._raw(k + 2, tuple(edges)), cliques, root, vertex_cliques))
    if tree is None:
        raise AssertionError("a clique completion's path of cliques failed to align")
    return tree


def pq_tree_to_text(tree: PQTree) -> str:
    """Bracketed serialization: P(...), Q(...), L{v1,...}. The nodes and the
    text between them come off one stack, so a tree of any depth serializes."""
    out: list[str] = []
    stack: list = [tree.root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif item.kind == "L":
            out.append("L{" + ",".join(map(str, tree.cliques[item.clique])) + "}")
        else:
            out.append(item.kind + "(")
            stack.append(")")
            for i, child in enumerate(reversed(item.children)):
                if i:
                    stack.append(",")
                stack.append(child)
    return "".join(out)


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
    assigned, belonging = tree.assigned, tree.belonging
    for node in reversed(nodes):  # children first
        nid = node.nid
        own = assigned[nid]
        children = node.children
        if not (own or children):  # a bare leaf
            codes[nid] = ("L", 0, belonging[nid])
            orders[nid] = ()
            continue
        if node.kind == "Q":
            k = len(children)
            key = {v: tree.vertex_run[v] + colour[v] for v in own}  # (lo, hi, *colour)
            own = sorted(own, key=key.__getitem__)  # stable: by key, then vertex
            counts = tuple(Counter(map(key.__getitem__, own)).items())
            body = (tuple([codes[c.nid] for c in children]), counts)
            bwd = (body[0][::-1], tuple(sorted(((k - 1 - r[1], k - 1 - r[0]) + r[2:], m) for r, m in counts)))
            if bwd < body or (flips is not None and bwd == body):
                mirrored = {v: (k - 1 - r[1], k - 1 - r[0]) + r[2:] for v, r in key.items()}
                flipped = sorted(own, key=mirrored.__getitem__)
                if bwd < body:
                    own, children, body = flipped, children[::-1], bwd
                else:
                    flips[nid] = tuple(chain(flipped, *(orders[c.nid] for c in children[::-1])))
        else:
            body = ()
            if own:
                own = sorted(own, key=colour.__getitem__)  # stable: by colour, then vertex
                body = (tuple(filter(None, map(colour.__getitem__, own))),)  # len(own) counts the rest
            if node.kind == "P":
                children = sorted(children, key=lambda c: (codes[c.nid], c.nid))
                body += (tuple([codes[c.nid] for c in children]),)
        order = orders[nid] = tuple(chain(own, *(orders[c.nid] for c in children)))
        codes[nid] = (node.kind, len(own), belonging[nid] - len(order)) + body
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
    for sub, idx in component_subgraphs(host):
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
            for v in tree.assigned[node.nid]:
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
            own = [v for v in orders[node.nid][: len(tree.assigned[node.nid])] if least[h][v] < degree]
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
    edges = tuple((u + off, v + off) for m, off in parts for u, v in m.host.edges)  # sorted: offsets ascend
    families = [
        tuple(frozenset(v + off for v in s) for m, off in parts for s in m.families[j])
        for j in range(len(ms[0].families))
    ]
    if ms[0].tail is not None:
        families.append(tuple(frozenset([m.tail + off]) for m, off in parts))
    return MarkedIntervalGraph(Graph._raw(offsets[-1] + ms[-1].host.n, edges), families, trees=trees), offsets


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
