"""Set families over finite ground sets: Venn signatures and automorphism groups.

Families are multisets: duplicate member sets keep distinct indices. The
automorphism group is found by individualisation-refinement on intersection
sizes, each leaf checked against the cardinality Venn diagram.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import chain
from typing import Any, Iterable, Optional, Sequence

from .errors import IndexBoundExceeded
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


def family_autgroup(family: SetFamily, antichain_bound: int) -> PermGroup:
    """Automorphism group of the family on member-set indices.

    Individualisation-refinement (McKay-Piperno, Practical graph isomorphism
    II, 2014): colour the sets by annotation and size and refine on
    intersection sizes; individualise a member of the first smallest
    non-singleton cell and refine again, down to a discrete first leaf. Then,
    from the bottom of that first path up, search the subtree of each member
    of the node's target cell that lies outside the orbits of the generators
    found so far, pruning nodes whose cell sizes differ from the first path's
    at that depth. A leaf gives the permutation matching equal colours; it is
    kept if it preserves the cardinality Venn diagram. Colours refine the
    annotations, so only annotation-preserving permutations are admitted.

    The stabiliser chain comes from the search: its base is the first path's
    individualised sets, and the generators found at depth i and below fix
    the first i of them and generate their pointwise stabiliser. So the orbit
    of base point i under them, the union-find class of the target cell's
    first member read once depth i is done, is the i-th basic orbit, and the
    product of these class sizes is the group order. The chain is built to
    that known order, which orbit closure alone reaches.
    """
    m = len(family.sets)
    if m == 0:
        return PermGroup(0, [])
    if antichain_bound < m:  # no antichain outgrows the family, so a bound of m holds vacuously
        actual = max_antichain_size(family)
        if actual > antichain_bound:
            raise IndexBoundExceeded(
                f"antichain promise violated: {actual} > {antichain_bound}",
                bound=antichain_bound,
                stage="antichain-promise",
            )
    rows = _intersections(family)
    initial = _initial_colour(family)
    path = [_refine(initial, rows, initial)]
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
    return PermGroup(m, gens, base=[cell[0] for cell in cells], order=order)
