"""Set families over finite ground sets: Venn signatures and automorphism groups.

Families are multisets: duplicate member sets keep distinct indices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import factorial
from typing import Any, Iterable, Optional, Sequence

from .errors import IndexBoundExceeded
from .perm import MembershipPredicate, Perm, PermGroup, tower_of_groups


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

    def to_json(self) -> str:
        return json.dumps(
            {
                "ground": self.ground,
                "sets": [sorted(s) for s in self.sets],
                "annotations": [a if a is None else list(a) if isinstance(a, tuple) else a for a in self.annotations],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "SetFamily":
        data = json.loads(text)
        return cls(data["ground"], data["sets"], data.get("annotations"))


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
    sig = cell_signature(family)
    for pattern, count in sig.items():
        image = frozenset(p(i) for i in pattern)
        if sig.get(image) != count:
            return False
    return True


def ground_witness(family: SetFamily, p: Perm) -> Optional[Perm]:
    """A ground bijection realizing p's Venn equality, or None.

    Matches ground elements cell-by-cell; the result preserves incidence but
    is not in general a graph automorphism of anything.
    """
    member = [frozenset() for _ in range(family.ground)]
    buckets: dict[frozenset[int], list[int]] = {}
    for z in range(family.ground):
        pat = frozenset(i for i, s in enumerate(family.sets) if z in s)
        member[z] = pat
        buckets.setdefault(pat, []).append(z)
    images = [0] * family.ground
    taken: dict[frozenset[int], int] = {}
    for z in range(family.ground):
        target = frozenset(p(i) for i in member[z])
        pool = buckets.get(target)
        k = taken.get(target, 0)
        if pool is None or k >= len(pool):
            return None
        images[z] = pool[k]
        taken[target] = k + 1
    return Perm(images)


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


def _bundled_seed(m: int, class_list: list[list[int]], color: dict[int, Any], inter) -> PermGroup:
    """Symmetric product over rigid index bundles.

    Two indices of different classes whose intersection value is unique in
    both its row and its column (within the class pair) are carried onto each
    other's partners by every automorphism, so they move as one bundle. Only
    bundles with at most one member per class are kept (the inter-bundle
    alignment is then forced by the classes), which keeps the seed a
    supergroup of the automorphism group while removing the factorial cost of
    coupling the classes later.
    """
    parent = list(range(m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for ci in range(len(class_list)):
        for cj in range(ci + 1, len(class_list)):
            p_cls, q_cls = class_list[ci], class_list[cj]
            for a in p_cls:
                for b in q_cls:
                    v = inter[a][b]
                    row = sum(1 for b2 in q_cls if inter[a][b2] == v)
                    col = sum(1 for a2 in p_cls if inter[a2][b] == v)
                    if row == 1 and col == 1:
                        ra, rb = find(a), find(b)
                        if ra != rb:
                            parent[ra] = rb
    bundles: dict[int, list[int]] = {}
    for i in range(m):
        bundles.setdefault(find(i), []).append(i)
    kept: list[dict[Any, int]] = []
    singles: list[int] = []
    for members in bundles.values():
        by_class = {}
        rigid = True
        for i in members:
            if color[i] in by_class:
                rigid = False
                break
            by_class[color[i]] = i
        if rigid and len(members) > 1:
            kept.append(by_class)
        else:
            singles.extend(members)
    gens: list[Perm] = []
    by_key: dict[tuple, list[dict[Any, int]]] = {}
    for bundle in kept:
        by_key.setdefault(tuple(sorted(map(repr, bundle))), []).append(bundle)
    for group in by_key.values():
        group.sort(key=lambda b: sorted(b.values()))
        for other in group[1:]:
            images = list(range(m))
            for key, i in group[0].items():
                j = other[key]
                images[i], images[j] = j, i
            gens.append(Perm(images))
    remaining: dict[Any, list[int]] = {}
    for i in singles:
        remaining.setdefault(color[i], []).append(i)
    for members in remaining.values():
        members.sort()
        if len(members) >= 2:
            gens.append(Perm.from_cycles(m, [members[:2]]))
        if len(members) >= 3:
            gens.append(Perm.from_cycles(m, [members]))
    return PermGroup(m, gens)


def family_autgroup(family: SetFamily, antichain_bound: int) -> PermGroup:
    """Automorphism group of the family on member-set indices.

    Tower schedule: a seed of symmetric products over the classes of an
    iterated annotation/cardinality/intersection refinement, with rigid
    bundles moving as one; pairwise intersection profiles per class pair;
    then the exact cardinality Venn diagram. Stages that every generator of
    the current group already satisfies are skipped. Only
    annotation-preserving permutations are admitted.
    """
    m = len(family.sets)
    if m == 0:
        return PermGroup(0, [])
    actual = max_antichain_size(family)
    if actual > antichain_bound:
        raise IndexBoundExceeded(
            f"antichain promise violated: {actual} > {antichain_bound}",
            bound=antichain_bound,
            stage="antichain-promise",
        )
    stage_bound = max(factorial(antichain_bound) * 2**antichain_bound, factorial(antichain_bound) ** 2, 64)

    inter = [[len(family.sets[i] & family.sets[j]) for j in range(m)] for i in range(m)]
    # iterated profile refinement: sound (any automorphism preserves it) and
    # it collapses most pairwise stages to no-ops
    color = {i: (repr(family.annotations[i]), len(family.sets[i])) for i in range(m)}
    while True:
        profile = {
            i: (color[i], tuple(sorted((color[j], inter[i][j]) for j in range(m) if j != i)))
            for i in range(m)
        }
        palette = {key: rank for rank, key in enumerate(sorted(set(profile.values()), key=repr))}
        new_color = {i: palette[profile[i]] for i in range(m)}
        if len(set(new_color.values())) == len(set(color.values())):
            break
        color = new_color
    classes: dict[Any, list[int]] = {}
    for i in range(m):
        classes.setdefault(color[i], []).append(i)
    class_list = [classes[key] for key in sorted(classes, key=repr)]
    g0 = _bundled_seed(m, class_list, color, inter)

    preds: list[MembershipPredicate] = []

    def pairwise_pred(idx_a: tuple[int, ...], idx_b: tuple[int, ...]) -> Optional[MembershipPredicate]:
        pairs = [(a, b) for a in idx_a for b in idx_b if a != b]
        if len({inter[a][b] for a, b in pairs}) <= 1:
            return None  # uniform between the classes: implied by class preservation

        def test(p: Perm, pairs=pairs) -> bool:
            return all(inter[a][b] == inter[p(a)][p(b)] for a, b in pairs)

        def signature(p: Perm, pairs=pairs) -> tuple:
            inv = p.inverse()
            return tuple(inter[inv(a)][inv(b)] for a, b in pairs)

        return MembershipPredicate(
            test, stage_bound, name=f"pairwise{idx_a[:1]}x{idx_b[:1]}", signature=signature
        )

    for ci in range(len(class_list)):
        for cj in range(ci, len(class_list)):
            a, b = tuple(class_list[ci]), tuple(class_list[cj])
            if len(a) == 1 and len(b) == 1:
                continue
            pred = pairwise_pred(a, b)
            if pred is not None:
                preds.append(pred)

    sig_source = cell_signature(family)
    realized = sorted(sig_source, key=lambda pat: sorted(pat))

    def exact_signature(p: Perm) -> tuple:
        return tuple(
            sorted(
                (tuple(sorted(p(i) for i in pat)), sig_source[pat])
                for pat in realized
            )
        )

    preds.append(
        MembershipPredicate(
            lambda p: is_family_automorphism(family, p),
            stage_bound,
            name="exact-venn",
            signature=exact_signature,
        )
    )
    return tower_of_groups(g0, preds)
