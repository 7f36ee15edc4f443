"""Set families over finite ground sets: Venn signatures and automorphism groups.

Families are multisets: duplicate member sets keep distinct indices. The
automorphism group is found by refinement on intersection sizes: rigid
intersection components are matched by their colours and Venn cells, and
the other sets are searched by individualisation-refinement, each leaf
checked against the cardinality Venn diagram.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import chain
from math import factorial
from typing import Any, Iterable, Optional, Sequence

from .perm import Perm, PermGroup


@dataclass(frozen=True)
class SetFamily:
    """Member subsets of ground set 0..ground-1, with optional per-set annotations."""

    ground: int
    sets: tuple[frozenset[int], ...]
    annotations: tuple[Any, ...] = ()

    def __init__(self, ground: int, sets: Iterable[Iterable[int]], annotations: Optional[Sequence[Any]] = None):
        sets = tuple(frozenset(s) for s in sets)
        for s in sets:
            if any(not (0 <= z < ground) for z in s):
                raise ValueError("member set exceeds ground set")
        if annotations is None:
            annotations = (None,) * len(sets)
        else:
            annotations = tuple(annotations)
            if len(annotations) != len(sets):
                raise ValueError("one annotation per member set required")
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "sets", sets)
        object.__setattr__(self, "annotations", annotations)

    def __len__(self) -> int:
        return len(self.sets)


def cell_signature(family: SetFamily) -> dict[frozenset[int], int]:
    """Nonzero cells of the cardinality Venn diagram, keyed by membership pattern.

    The pattern of a ground element is the set of member-set indices containing
    it; absent patterns have cardinality 0.
    """
    sig: dict[frozenset[int], int] = {}
    member = [set() for _ in range(family.ground)]
    for i, s in enumerate(family.sets):
        for z in s:
            member[z].add(i)
    for z in range(family.ground):
        key = frozenset(member[z])
        sig[key] = sig.get(key, 0) + 1
    return sig


def is_family_automorphism(family: SetFamily, p: Perm) -> bool:
    """Whether index permutation p preserves the cardinality Venn diagram.

    Equivalent to the existence of a ground bijection preserving incidence;
    runs in O(|Z| * m) via the compressed signature.
    """
    if p.degree != len(family.sets):
        raise ValueError("permutation must act on member-set indices")
    return _preserves_signature(cell_signature(family), p)


def _preserves_signature(sig: dict[frozenset[int], int], p: Perm) -> bool:
    """Whether p maps every cell of the Venn signature onto a cell of equal size."""
    for pattern, count in sig.items():
        image = frozenset(p(i) for i in pattern)
        if sig.get(image) != count:
            return False
    return True


def max_antichain_size(family: SetFamily) -> int:
    """Largest inclusion-incomparable subfamily (Dilworth via bipartite matching).

    Duplicate sets are mutually comparable, so they never share an antichain.
    """
    m = len(family.sets)
    if m == 0:
        return 0
    below: list[list[int]] = [[] for _ in range(m)]
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            si, sj = family.sets[i], family.sets[j]
            if si < sj or (si == sj and i < j):
                below[i].append(j)
    match_right = [-1] * m

    def augment(u: int, seen: list[bool]) -> bool:
        for v in below[u]:
            if seen[v]:
                continue
            seen[v] = True
            if match_right[v] == -1 or augment(match_right[v], seen):
                match_right[v] = u
                return True
        return False

    matched = 0
    for u in range(m):
        if augment(u, [False] * m):
            matched += 1
    return m - matched


def _intersections(family: SetFamily) -> list[tuple[tuple[int, int], ...]]:
    """Per set i, the pairs (j, |S_i & S_j|) over the nonempty intersections."""
    holders: list[list[int]] = [[] for _ in range(family.ground)]
    for i, s in enumerate(family.sets):
        for z in s:
            holders[z].append(i)
    return [tuple(Counter(chain.from_iterable(holders[z] for z in s)).items()) for s in family.sets]


def _initial_colour(family: SetFamily) -> list[int]:
    """Each set at the start of its (repr(annotation), size) cell, cells in sorted key order."""
    keys = [(repr(a), len(s)) for a, s in zip(family.annotations, family.sets)]
    start: dict[tuple[str, int], int] = {}
    for i, key in enumerate(sorted(keys)):
        start.setdefault(key, i)
    return [start[key] for key in keys]


def _refine(colour: list[int], rows: list[tuple[tuple[int, int], ...]], splitters: Iterable[int]) -> list[int]:
    """Coarsest stable refinement of an ordered partition, by a splitter queue.

    A colour is the start position of its cell. The cells starting at
    `splitters` are queued; the partition must already be stable with respect
    to every other cell. Processing a splitter W keys each set i by the sorted
    multiset of |S_i & S_j| over j in W (nonzero sizes only; the zeros follow
    from |W|) and splits every cell by key, fragments in key order. A fragment
    inherits the queue entry of its cell; a cell off the queue queues all its
    fragments but the first largest (Hopcroft; Paige-Tarjan 1987). Keys and
    queue order depend only on colours and sizes, so the refinement commutes
    with relabelling the sets.
    """
    colour = list(colour)
    cells: dict[int, list[int]] = {}
    for i, c in enumerate(colour):
        cells.setdefault(c, []).append(i)
    queue = deque(sorted(set(splitters)))
    queued = set(queue)
    m = len(colour)
    while queue and len(cells) < m:
        w = queue.popleft()
        queued.discard(w)
        counts: dict[int, list[int]] = {}
        for j in cells[w]:
            for i, c in rows[j]:
                counts.setdefault(i, []).append(c)
        for start in sorted({colour[i] for i in counts}):
            cell = cells[start]
            if len(cell) == 1:
                continue
            groups: dict[tuple[int, ...], list[int]] = {}
            for i in cell:
                key = tuple(sorted(counts[i])) if i in counts else ()
                groups.setdefault(key, []).append(i)
            if len(groups) == 1:
                continue
            fragments = [groups[key] for key in sorted(groups)]
            skip = -1 if start in queued else max(range(len(fragments)), key=lambda f: len(fragments[f]))
            at = start
            for f, members in enumerate(fragments):
                cells[at] = members
                for i in members:
                    colour[i] = at
                if f != skip and at not in queued:
                    queue.append(at)
                    queued.add(at)
                at += len(members)
    return colour


def _stable_colouring(family: SetFamily) -> tuple[list[tuple[tuple[int, int], ...]], list[int]]:
    """The family's intersection rows and its initial colouring refined to stability."""
    rows = _intersections(family)
    initial = _initial_colour(family)
    return rows, _refine(initial, rows, initial)


def _individualise(colour: list[int], v: int) -> list[int]:
    """Individualise v: v alone at its cell's start p, the rest of that cell at p+1.

    Every other cell keeps its start, so the colours stay start positions. The
    parent colouring was stable, so only the two new cells can split others.
    """
    p = colour[v]
    out = [p + 1 if c == p else c for c in colour]
    out[v] = p
    return out


def _child(colour: list[int], v: int, rows: list[tuple[tuple[int, int], ...]]) -> list[int]:
    """The refined colouring below a node on individualising v, with its two new cells queued."""
    p = colour[v]
    return _refine(_individualise(colour, v), rows, (p, p + 1))


def _target_cell(colour: list[int]) -> list[int]:
    """Members of the first smallest non-singleton cell."""
    cells: dict[int, list[int]] = {}
    for i, c in enumerate(colour):
        cells.setdefault(c, []).append(i)
    return min((cell for cell in cells.values() if len(cell) > 1), key=lambda cell: (len(cell), colour[cell[0]]))


def _components(rows: list[tuple[tuple[int, int], ...]]) -> list[list[int]]:
    """Intersection components: sets linked by nonempty intersections, each
    ascending, in order of their least set. An empty set is a component alone."""
    seen = [False] * len(rows)
    comps = []
    for i in range(len(rows)):
        if seen[i]:
            continue
        seen[i] = True
        comp, stack = [i], [i]
        while stack:
            for j, _size in rows[stack.pop()]:
                if not seen[j]:
                    seen[j] = True
                    comp.append(j)
                    stack.append(j)
        comps.append(sorted(comp))
    return comps


def _rigid_classes(
    family: SetFamily, rows: list[tuple[tuple[int, int], ...]], colour: list[int]
) -> tuple[list[list[list[int]]], list[int]]:
    """Classes of isomorphic rigid intersection components, and the other sets.

    `colour` is the family's stable colouring. Refinement keys count only
    nonzero intersections, so its restriction to a component is that
    component's own stable colouring, and automorphisms preserve it. A
    component is rigid when its sets have pairwise distinct colours. Two rigid
    components are then isomorphic iff the map matching equal colours carries
    the Venn cells of one onto the other's (colours fix only the pairwise
    intersection sizes), so a class is keyed by the colours and the cells
    written in colours. Each block of a class lists its component's sets in
    colour order; blocks and classes go in order of their least set, and the
    other sets ascend.
    """
    comps = _components(rows)
    where = [0] * len(rows)
    for c, comp in enumerate(comps):
        for i in comp:
            where[i] = c
    cells: list[list[tuple[frozenset[int], int]]] = [[] for _ in comps]
    for pattern, count in cell_signature(family).items():
        if pattern:  # every member of a nonempty pattern lies in one component
            cells[where[next(iter(pattern))]].append((frozenset(colour[i] for i in pattern), count))
    classes: dict[tuple, list[list[int]]] = {}
    rest: list[int] = []
    for comp, venn in zip(comps, cells):
        block = sorted(comp, key=colour.__getitem__)
        colours = tuple(colour[i] for i in block)
        if len(set(colours)) < len(block):
            rest.extend(comp)
        else:
            classes.setdefault((colours, frozenset(venn)), []).append(block)
    return list(classes.values()), sorted(rest)


def family_autgroup(family: SetFamily) -> PermGroup:
    """Automorphism group of the family on member-set indices, for any family:
    it assumes no bound on the family's antichains.

    The sets are coloured by annotation and size and refined on intersection
    sizes once, and the family splits into intersection components. Rigid
    components (pairwise distinct colours) are matched by their colours and
    Venn cells (`_rigid_classes`); a class of k matched blocks contributes
    its k-1 adjacent block transpositions, the first set of its blocks
    0..k-2 to the base, and k! to the order. Only the other sets go to the
    search, on their own sub-family, or on the family itself when no
    component is rigid.

    The search is individualisation-refinement (McKay-Piperno, Practical
    graph isomorphism II, 2014): individualise a member of the first smallest
    non-singleton cell and refine again, down to a discrete first leaf. Then,
    from the bottom of that first path up, search the subtree of each member
    of the node's target cell that lies outside the orbits of the generators
    found so far, pruning nodes whose cell sizes differ from the first path's
    at that depth. A leaf gives the permutation matching equal colours; it is
    kept if it preserves the cardinality Venn diagram. Colours refine the
    annotations, so only annotation-preserving permutations are admitted.

    The search's generators found at depth i and below fix the first i
    individualised sets of the first path and generate their pointwise
    stabiliser. So the orbit of base point i under them, the union-find class
    of the target cell's first member read once depth i is done, is the i-th
    basic orbit, and the product of these class sizes is the search group's
    order. The chain's base is the block points, then the search's first
    path, and it is built to the product of the k! and the search's order,
    which orbit closure alone reaches.
    """
    m = len(family.sets)
    if m == 0:
        return PermGroup(0, [])
    rows, root = _stable_colouring(family)
    classes, rest = _rigid_classes(family, rows, root)
    if not classes:
        return PermGroup(m, *_search(family, rows, root))
    gens: list[Perm] = []
    base: list[int] = []
    order = 1
    for blocks in classes:
        for a, b in zip(blocks, blocks[1:]):
            images = list(range(m))
            for i, j in zip(a, b):
                images[i], images[j] = j, i
            gens.append(Perm._raw(tuple(images)))
        base += [block[0] for block in blocks[:-1]]
        order *= factorial(len(blocks))
    if rest:
        sub = SetFamily(family.ground, [family.sets[i] for i in rest], [family.annotations[i] for i in rest])
        sub_gens, sub_base, sub_order = _search(sub, *_stable_colouring(sub))
        for p in sub_gens:
            images = list(range(m))
            for k, i in enumerate(rest):
                images[i] = rest[p(k)]
            gens.append(Perm._raw(tuple(images)))
        base += [rest[k] for k in sub_base]
        order *= sub_order
    return PermGroup(m, gens, base, order)


def _search(
    family: SetFamily, rows: list[tuple[tuple[int, int], ...]], root: list[int]
) -> tuple[list[Perm], list[int], int]:
    """The generators, base and order of the automorphism group found by
    individualisation-refinement below the stable colouring `root`."""
    m = len(family.sets)
    path = [root]
    cells: list[list[int]] = []
    while len(set(path[-1])) < m:
        cells.append(_target_cell(path[-1]))
        path.append(_child(path[-1], cells[-1][0], rows))
    shapes = [sorted(colour) for colour in path]
    first_leaf = path[-1]
    sig = cell_signature(family)

    def search(colour: list[int], depth: int) -> Optional[Perm]:
        """An automorphism taking the first leaf to a leaf below this node, or None."""
        if sorted(colour) != shapes[depth]:
            return None
        if depth == len(path) - 1:
            at = sorted(range(m), key=colour.__getitem__)  # the set of each colour
            p = Perm._raw(tuple(at[c] for c in first_leaf))
            return p if _preserves_signature(sig, p) else None
        for v in _target_cell(colour):
            p = search(_child(colour, v, rows), depth + 1)
            if p is not None:
                return p
        return None

    parent = list(range(m))  # orbits of the generators found so far, as a union-find forest
    size = [1] * m  # class sizes, valid at the roots

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    gens: list[Perm] = []
    order = 1
    for depth in reversed(range(len(cells))):
        tried = [cells[depth][0]]
        for w in cells[depth][1:]:
            if find(w) in {find(t) for t in tried}:
                continue
            tried.append(w)
            p = search(_child(path[depth], w, rows), depth + 1)
            if p is not None:
                gens.append(p)
                for i, j in enumerate(p.images):
                    a, b = find(i), find(j)
                    if a != b:
                        parent[a] = b
                        size[b] += size[a]
        order *= size[find(cells[depth][0])]
    return gens, [cell[0] for cell in cells], order
