"""Permutation groups: base/strong generating sets, bounded-index subgroups, towers.

Composition convention: (p * q)(x) == q(p(x)), i.e. apply p first, then q.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product
from math import factorial, prod
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import (
    DomainMismatch,
    IndexBoundExceeded,
    NotAPartition,
    NotClosed,
)


_IDENTITY_CACHE: dict[int, tuple[int, ...]] = {}


def _identity_images(m: int) -> tuple[int, ...]:
    images = _IDENTITY_CACHE.get(m)
    if images is None:
        images = _IDENTITY_CACHE[m] = tuple(range(m))
    return images


class Perm:
    """A permutation of 0..m-1 stored as a tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("not a permutation of 0..m-1")
        self.images = images

    @classmethod
    def identity(cls, m: int) -> "Perm":
        p = cls.__new__(cls)
        p.images = tuple(range(m))
        return p

    @classmethod
    def from_cycles(cls, m: int, cycles: Iterable[Sequence[int]]) -> "Perm":
        images = list(range(m))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:]):
                images[a] = b
            if cyc:
                images[cyc[-1]] = cyc[0]
        return cls(images)

    @classmethod
    def _raw(cls, images: tuple[int, ...]) -> "Perm":
        p = cls.__new__(cls)
        p.images = images
        return p

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Perm") -> "Perm":
        """Apply self first, then other."""
        return Perm._raw(tuple(map(other.images.__getitem__, self.images)))

    def inverse(self) -> "Perm":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Perm._raw(tuple(inv))

    def is_identity(self) -> bool:
        return self.images == _identity_images(len(self.images))

    def moved_points(self) -> list[int]:
        return [i for i, j in enumerate(self.images) if i != j]

    def image_of_set(self, s: Iterable[int]) -> frozenset[int]:
        return frozenset(self.images[x] for x in s)

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Perm({list(self.images)})"


class _Level:
    __slots__ = ("point", "gens", "transversal", "inv_transversal", "closed", "pending")

    def __init__(self, point: int, degree: int):
        self.point = point
        self.gens: list[Perm] = []
        ident = Perm._raw(_identity_images(degree))
        self.transversal: dict[int, Perm] = {point: ident}
        self.inv_transversal: dict[int, Perm] = {point: ident}
        # (points, generators): the first that many generators are applied to the first that many points
        self.closed = (0, 0)
        # applied (point, generator index) pairs that reached a known point: their Schreier generators are unformed
        self.pending: list[tuple[int, int]] = []


class PermGroup:
    """Permutation group with a base and strong generating set (Schreier-Sims).

    Every generator on chain level i fixes the base points before level i,
    and level i's transversal is the orbit of its base point under level i's
    generators. So each transversal lies inside the true basic orbit, and the
    product of the transversal lengths reaches the group order only when
    every transversal is the whole basic orbit. Then, from the bottom level
    up, each level's generators generate the pointwise stabiliser of the
    earlier base points, so the chain is complete.

    One construction builds every chain (Schreier-Sims; Seress, Permutation
    Group Algorithms, 2003). Each given generator is stripped through the
    chain built so far and installed if it does not strip to the identity;
    installing closes the orbits of the levels it joins. Only the installed
    generators are kept as `generators`. Then the Schreier generators of the
    pairs that reached a known point are sifted until none is left. A caller
    that knows the group order states it as `order`, and construction stops
    as soon as the product reaches it, so when orbit closure alone reaches it
    no Schreier generator is formed. A chain that ends at any other order, or
    a generator that does not strip once the order is reached, raises
    AssertionError. A stated order below the true one that the product passes
    through exactly goes unnoticed, so `order` must come from a counting
    argument.

    Immutable once constructed; derived groups are new values.
    """

    def __init__(
        self,
        degree: int,
        generators: Iterable[Perm] = (),
        base: Sequence[int] = (),
        order: Optional[int] = None,
    ):
        """`base` lists points to lead the base in that order, moved or not;
        `order`, if given, is the order of the group the generators generate."""
        self.degree = degree
        base = list(dict.fromkeys(base))
        for b in base:
            if not 0 <= b < degree:
                raise DomainMismatch(f"base point {b} outside 0..{degree - 1}")
        self._levels: list[_Level] = [_Level(b, degree) for b in base]
        self._sifted: set[tuple[int, ...]] = set()
        kept = []
        for g in generators:
            if g.degree != degree:
                raise DomainMismatch(f"generator degree {g.degree} != {degree}")
            h, l = self._strip(g)
            if h.is_identity():
                continue
            if order is not None and self.order() >= order:
                raise AssertionError(f"a generator lies outside a chain of the stated order {order}")
            self._install(h, l)
            kept.append(g)
        self.generators: tuple[Perm, ...] = tuple(kept)
        queue: list[Perm] = []
        top = len(self._levels) - 1  # pending pairs lie on levels 0..top
        while order is None or self.order() < order:
            for i in range(top, -1, -1):
                self._queue_schreier_generators(i, queue)
            if not queue:
                break
            h, top = self._strip(queue.pop())
            if h.is_identity():
                top = -1
            else:
                self._install(h, top)
        if order is not None and self.order() != order:
            raise AssertionError(f"chain order {self.order()} != stated order {order}")

    # -- construction ---------------------------------------------------

    def _strip(self, g: Perm) -> tuple[Perm, int]:
        h = g
        for i, lvl in enumerate(self._levels):
            x = h(lvl.point)
            if x == lvl.point:
                continue
            inv = lvl.inv_transversal.get(x)
            if inv is None:
                return h, i
            h = h * inv
        return h, len(self._levels)

    def _install(self, h: Perm, l: int):
        """Add the stripped h, which fixes the base points before level l, to
        levels 0..l, and close their orbits."""
        if l == len(self._levels):
            self._levels.append(_Level(min(h.moved_points()), self.degree))
        for i in range(l + 1):
            self._levels[i].gens.append(h)
        for i in range(l, -1, -1):
            self._close_orbit(i)

    def _close_orbit(self, i: int):
        """Extend level i's transversal to the orbit of its base point under
        the level's generators; pairs that reach a known point wait in pending.

        Only pairs not applied before are visited: the new generators on the
        old points, then every generator on each new point, pass by pass.
        """
        lvl = self._levels[i]
        old_points, old_gens = lvl.closed
        gens = lvl.gens
        first = 0 if old_gens < len(gens) else old_points
        while first < len(lvl.transversal):
            points = list(lvl.transversal)
            for idx in range(first, len(points)):
                x = points[idx]
                tx = lvl.transversal[x]
                for gi in range(old_gens if idx < old_points else 0, len(gens)):
                    g = gens[gi]
                    y = g(x)
                    if y not in lvl.transversal:
                        t = tx * g
                        lvl.transversal[y] = t
                        lvl.inv_transversal[y] = t.inverse()
                    else:
                        lvl.pending.append((x, gi))
            first = len(points)
        lvl.closed = (len(lvl.transversal), len(gens))

    def _queue_schreier_generators(self, i: int, queue: list[Perm]):
        """Queue the nontrivial Schreier generators of level i's pending pairs.

        Conjugate Schreier generators recur, so each form is queued once.
        """
        lvl = self._levels[i]
        for x, gi in lvl.pending:
            g = lvl.gens[gi]
            sgen = lvl.transversal[x] * g * lvl.inv_transversal[g(x)]
            if not sgen.is_identity() and sgen.images not in self._sifted:
                self._sifted.add(sgen.images)
                queue.append(sgen)
        lvl.pending.clear()

    # -- queries ---------------------------------------------------------

    @property
    def base(self) -> tuple[int, ...]:
        return tuple(lvl.point for lvl in self._levels)

    def order(self) -> int:
        n = 1
        for lvl in self._levels:
            n *= len(lvl.transversal)
        return n

    def transversal(self, i: int) -> dict[int, Perm]:
        """Level i's transversal: each point of base[i]'s basic orbit -> an element carrying base[i] there."""
        return self._levels[i].transversal

    def contains(self, p: Perm) -> bool:
        if p.degree != self.degree:
            raise DomainMismatch(f"permutation degree {p.degree} != {self.degree}")
        h, _ = self._strip(p)
        return h.is_identity()

    __contains__ = contains

    def elements(self, limit: int = 1_000_000) -> Iterator[Perm]:
        """All group elements (guarded; intended for small groups).

        Each element is a product t_k * ... * t_0 of one transversal element
        per chain level; the last level varies slowest and level 0 fastest.
        Trivial levels contribute only the identity, so they are skipped.
        """
        if self.order() > limit:
            raise ValueError(f"group order {self.order()} exceeds limit {limit}")
        factors = [lvl.transversal.values() for lvl in reversed(self._levels) if len(lvl.transversal) > 1]
        identity = Perm.identity(self.degree)
        return (reduce(Perm.__mul__, ts, identity) for ts in product(*factors))

    def _with_base_prefix(self, points: Sequence[int]) -> "PermGroup":
        """This group, or the same group on a chain whose base starts with points."""
        if set(self.base[: len(points)]) == set(points):
            return self
        return PermGroup(self.degree, self.generators, base=points, order=self.order())

    def stabilizer(self, points: Iterable[int]) -> "PermGroup":
        """Pointwise stabiliser of points, sharing the levels of a chain whose base starts with them."""
        points = list(dict.fromkeys(points))
        chain = self._with_base_prefix(points)
        sub = PermGroup(self.degree)
        sub._levels = chain._levels[len(points) :]
        if sub._levels:
            sub.generators = tuple({g.images: g for g in sub._levels[0].gens}.values())
        return sub

    def restriction(self, points: Sequence[int]) -> "PermGroup":
        """Action restricted to an invariant point subset, renumbered 0..len-1."""
        points = list(points)
        index = {p: i for i, p in enumerate(points)}
        gens = []
        for g in self.generators:
            if any(g(p) not in index for p in points):
                raise DomainMismatch("point set is not invariant under the group")
            gens.append(Perm([index[g(p)] for p in points]))
        return PermGroup(len(points), gens)

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order()})"


@dataclass
class MembershipPredicate:
    """Decidable subgroup membership test with a declared index bound."""

    test: Callable[[Perm], bool]
    index_bound: int
    name: str = ""

    def __call__(self, p: Perm) -> bool:
        return self.test(p)


def fhl_subgroup(group: PermGroup, pred: MembershipPredicate) -> PermGroup:
    """Generators of {p in group : pred(p)} via coset-representative discovery.

    Walks the coset graph of the subgroup: a product x lies in the coset of
    the first representative r with pred(x * r^-1); Schreier generators of
    the subgroup are collected along the way. Aborts with IndexBoundExceeded
    when more than pred.index_bound cosets appear. The representatives form
    an exact transversal, so the subgroup is built with its order stated:
    |group| divided by the number of cosets.
    """
    from collections import deque

    ident = _identity_accepted(pred, group.degree)
    reps: list[Perm] = [ident]
    inv_reps: list[Perm] = [ident]
    hgens: dict[tuple[int, ...], Perm] = {}

    def translate(x: Perm) -> bool:
        """Fold x into a known coset, collecting the subgroup translation."""
        for inv in inv_reps:
            h = x * inv
            if pred(h):
                if not h.is_identity():
                    hgens.setdefault(h.images, h)
                return True
        return False

    queue = deque([ident])
    while queue:
        r = queue.popleft()
        for s in group.generators:
            x = r * s
            if translate(x):
                continue
            if len(reps) >= pred.index_bound:
                raise IndexBoundExceeded(
                    f"more than {pred.index_bound} cosets for predicate {pred.name!r}",
                    bound=pred.index_bound,
                    stage=pred.name,
                )
            reps.append(x)
            inv_reps.append(x.inverse())
            queue.append(x)
    if group.order() % len(reps) != 0:
        raise AssertionError(f"{len(reps)} cosets do not divide the group order for {pred.name!r}")
    return PermGroup(group.degree, hgens.values(), order=group.order() // len(reps))


def _identity_accepted(pred: MembershipPredicate, degree: int) -> Perm:
    """The identity of the given degree; NotClosed if pred rejects it."""
    ident = Perm.identity(degree)
    if not pred(ident):
        raise NotClosed(f"predicate {pred.name!r} rejects the identity")
    return ident


def tower_of_groups(g0: PermGroup, preds: Sequence[MembershipPredicate]) -> PermGroup:
    """Iterated subgroup computation along a chain of restrictions.

    A stage whose predicate holds on every generator of the current group is
    skipped: the predicate defines a subgroup, so it then holds on the whole
    group. Every other stage is one fhl_subgroup call, whose coset count is
    the stage's index; it raises IndexBoundExceeded as soon as that count
    would pass the predicate's declared bound.
    """
    cur = g0
    for pred in preds:
        if all(map(pred, cur.generators)):
            _identity_accepted(pred, cur.degree)
            continue
        cur = fhl_subgroup(cur, pred)
    return cur


def direct_product(groups: Sequence[PermGroup]) -> PermGroup:
    """Direct product on the concatenation of the factors' domains."""
    total = sum(g.degree for g in groups)
    gens = []
    offset = 0
    for g in groups:
        for gen in g.generators:
            images = list(range(total))
            for i, j in enumerate(gen.images):
                images[offset + i] = offset + j
            gens.append(Perm(images))
        offset += g.degree
    return PermGroup(total, gens, order=prod(g.order() for g in groups))


def symmetric_on_classes(classes: Sequence[Iterable[int]], degree: Optional[int] = None) -> PermGroup:
    """All permutations preserving each class setwise, arbitrary within."""
    classes = [sorted(c) for c in classes]
    covered = [v for c in classes for v in c]
    if degree is None:
        degree = max(covered) + 1 if covered else 0
    if sorted(covered) != list(range(degree)):
        raise NotAPartition("classes must partition 0..degree-1")
    gens = []
    for c in classes:
        if len(c) >= 2:
            gens.append(Perm.from_cycles(degree, [c[:2]]))
        if len(c) >= 3:
            gens.append(Perm.from_cycles(degree, [c]))
    return PermGroup(degree, gens, order=prod(factorial(len(c)) for c in classes))


def find_element(group: PermGroup, point_images: dict[int, int]) -> Optional[Perm]:
    """An element with the prescribed point images, or None; one sift, no search.

    On a chain whose base starts with the prescribed points (the group's own
    when its base already does), each of those levels extends the element so
    far, r, to t * r with t its transversal element at r^-1(the prescribed
    image). A missing entry means no element fits, as for non-injective
    images: each level's stabiliser fixes the earlier base points. A point or
    an image outside 0..degree-1 gives None too.
    """
    if not all(0 <= x < group.degree and 0 <= y < group.degree for x, y in point_images.items()):
        return None
    chain = group._with_base_prefix(sorted(point_images))
    r = r_inv = Perm.identity(group.degree)
    for lvl in chain._levels[: len(point_images)]:
        x = r_inv(point_images[lvl.point])
        if x not in lvl.transversal:
            return None
        r, r_inv = lvl.transversal[x] * r, r_inv * lvl.inv_transversal[x]
    return r


def find_block_swap(group: PermGroup, block_a: Iterable[int], block_b: Iterable[int]) -> Optional[Perm]:
    """An element mapping block_a onto block_b and block_b onto block_a, or None.

    Backtracks over the levels of a stabilizer chain whose base starts with
    the blocks' points, pruning as soon as one leaves its target block; later
    levels fix them all. Only levels with more than one transversal element
    branch, so the recursion depth is their number. Exact (no sampling).
    """
    a = frozenset(block_a)
    b = frozenset(block_b)
    if len(a) != len(b):
        return None
    constrained = a | b
    levels = group._with_base_prefix(sorted(constrained))._levels[: len(constrained)]

    def want(p: int, img: int) -> bool:
        return (p not in a or img in b) and (p not in b or img in a)

    def dfs(i: int, r: Perm) -> Optional[Perm]:
        while i < len(levels) and len(levels[i].transversal) == 1:  # trivial levels: their images are final
            if not want(levels[i].point, r(levels[i].point)):
                return None
            i += 1
        if i == len(levels):
            return r
        lvl = levels[i]
        for x in sorted(lvl.transversal):
            r2 = lvl.transversal[x] * r
            if want(lvl.point, r2(lvl.point)):
                found = dfs(i + 1, r2)
                if found is not None:
                    return found
        return None

    return dfs(0, Perm.identity(group.degree))
