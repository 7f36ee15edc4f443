import random
import sys
from functools import reduce
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from tgraphs import perm as perm_module
from tgraphs.errors import DomainMismatch, IndexBoundExceeded, NotAPartition, NotClosed, NotTGraph
from tgraphs.graph import Graph, complete_graph, path_graph
from tgraphs.harness import brute_force_autgroup
from tgraphs.perm import (
    MembershipPredicate,
    Perm,
    PermGroup,
    direct_product,
    fhl_subgroup,
    find_block_swap,
    find_element,
    symmetric_on_classes,
    tower_of_groups,
)


def closure(degree, gens, limit=20000):
    """Exhaustive closure of a generating set (small groups only)."""
    ident = Perm.identity(degree)
    seen = {ident.images: ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = p * g
                if q.images not in seen:
                    seen[q.images] = q
                    nxt.append(q)
        frontier = nxt
        assert len(seen) <= limit
    return list(seen.values())


def random_perm(degree, rng):
    images = list(range(degree))
    rng.shuffle(images)
    return Perm(images)


perms5 = st.permutations(range(5)).map(Perm)


class TestPerm:
    def test_composition_order(self):
        p = Perm([1, 0, 2])  # swap 0,1
        q = Perm([0, 2, 1])  # swap 1,2
        assert (p * q)(0) == q(p(0)) == 2

    @given(perms5, perms5, perms5)
    def test_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(perms5)
    def test_inverse(self, p):
        assert (p * p.inverse()).is_identity()
        assert (p.inverse() * p).is_identity()

    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            Perm([0, 0, 1])


class TestBuildGroup:
    def test_s3(self):
        g = PermGroup(3, [Perm([1, 0, 2]), Perm([1, 2, 0])])
        assert g.order() == 6

    def test_trivial(self):
        assert PermGroup(4, []).order() == 1

    def test_cyclic5(self):
        g = PermGroup(5, [Perm([1, 2, 3, 4, 0])])
        assert g.order() == 5

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatch):
            PermGroup(3, [Perm([1, 0])])

    @pytest.mark.parametrize("seed", range(20))
    def test_order_matches_closure(self, seed):
        rng = random.Random(seed)
        degree = rng.randint(2, 7)
        gens = [random_perm(degree, rng) for _ in range(rng.randint(1, 3))]
        group = PermGroup(degree, gens)
        assert group.order() == len(closure(degree, gens))

    def test_elements_enumeration(self):
        gens = [Perm([1, 0, 2, 3]), Perm([0, 2, 1, 3])]
        group = PermGroup(4, gens)
        elems = set(p.images for p in group.elements())
        assert len(elems) == group.order() == 6

    @pytest.mark.parametrize("base", [(), (3, 0, 4, 1, 2)])
    def test_elements_order(self, base):
        # products t_k * ... * t_0, the last chain level varying slowest
        group = PermGroup(5, [Perm([1, 0, 2, 3, 4]), Perm([1, 2, 3, 4, 0])], base=base)
        want = [Perm.identity(5)]
        for lvl in reversed(group._levels):
            want = [h * t for h in want for t in lvl.transversal.values()]
        assert list(group.elements()) == want
        assert len(want) == 120

    def test_elements_of_a_long_chain_under_default_recursion_limit(self):
        n = 1200
        group = PermGroup(n, [Perm.from_cycles(n, [(0, 1)])], base=range(n))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            elems = list(group.elements())
        finally:
            sys.setrecursionlimit(limit)
        assert [p.moved_points() for p in elems] == [[], [0, 1]]

    def test_keeps_only_installed_generators(self):
        c = Perm([1, 2, 0])
        assert PermGroup(3, [c, c * c]).generators == (c,)
        assert PermGroup(3, [Perm.identity(3), c, c]).generators == (c,)

    @pytest.mark.parametrize("seed", range(20))
    def test_kept_generators_generate_the_given_group(self, seed):
        rng = random.Random(7000 + seed)
        degree = rng.randint(2, 7)
        gens = [random_perm(degree, rng) for _ in range(rng.randint(1, 5))]
        gens += [reduce(Perm.__mul__, rng.choices(gens, k=3)) for _ in range(rng.randint(0, 3))]
        group = PermGroup(degree, gens)
        assert set(group.generators) <= set(gens)
        assert len(closure(degree, group.generators)) == len(closure(degree, gens)) == group.order()
        kept = PermGroup(degree, group.generators)
        for _ in range(10):
            word = reduce(Perm.__mul__, rng.choices(gens, k=rng.randint(1, 8)))
            other = random_perm(degree, rng)
            assert group.contains(word) and kept.contains(word)
            assert group.contains(other) == kept.contains(other)

    def test_restriction_to_a_non_invariant_set_raises(self):
        group = PermGroup(4, [Perm([1, 2, 3, 0])])
        assert group.restriction([0, 1, 2, 3]).order() == 4
        with pytest.raises(DomainMismatch):
            group.restriction([0, 1])

    def test_contains_identity_always(self):
        group = PermGroup(4, [Perm([1, 2, 3, 0])])
        assert group.contains(Perm.identity(4))
        for g in group.generators:
            assert group.contains(g.inverse())


class TestContains:
    def test_s3_contains_transposition(self):
        g = PermGroup(3, [Perm([1, 0, 2]), Perm([1, 2, 0])])
        assert g.contains(Perm([2, 1, 0]))

    def test_cyclic_does_not_contain_swap(self):
        g = PermGroup(5, [Perm([1, 2, 3, 4, 0])])
        assert not g.contains(Perm([1, 0, 2, 3, 4]))

    @pytest.mark.parametrize("seed", range(10))
    def test_random_word_is_member(self, seed):
        rng = random.Random(seed)
        gens = [random_perm(6, rng) for _ in range(2)]
        group = PermGroup(6, gens)
        word = Perm.identity(6)
        for _ in range(rng.randint(1, 8)):
            word = word * rng.choice(gens)
        assert group.contains(word)


def s_n(n):
    return PermGroup(n, [Perm.from_cycles(n, [(0, 1)]), Perm.from_cycles(n, [tuple(range(n))])])


class TestFhlSubgroup:
    def test_point_stabilizer(self):
        pred = MembershipPredicate(lambda p: p(0) == 0, 4, "fixes-0")
        sub = fhl_subgroup(s_n(4), pred)
        assert sub.order() == 6

    def test_alternating(self):
        def is_even(p):
            seen = set()
            parity = 0
            for i in range(p.degree):
                if i in seen:
                    continue
                j, length = i, 0
                while j not in seen:
                    seen.add(j)
                    j = p(j)
                    length += 1
                parity ^= (length - 1) & 1
            return parity == 0

        sub = fhl_subgroup(s_n(4), MembershipPredicate(is_even, 2, "even"))
        assert sub.order() == 12

    def test_partition_preserving(self):
        blocks = [frozenset({0, 1}), frozenset({2, 3}), frozenset({4})]

        def preserves(p):
            return {p.image_of_set(b) for b in blocks} == set(blocks)

        sub = fhl_subgroup(s_n(5), MembershipPredicate(preserves, 15, "blocks"))
        expected = [p for p in permutations(range(5)) if preserves(Perm(p))]
        assert sub.order() == len(expected) == 8
        for p in expected:
            assert sub.contains(Perm(p))

    def test_index_bound_exceeded(self):
        pred = MembershipPredicate(lambda p: p(0) == 0, 3, "fixes-0")
        with pytest.raises(IndexBoundExceeded):
            fhl_subgroup(s_n(4), pred)

    def test_rejecting_identity_raises(self):
        pred = MembershipPredicate(lambda p: not p.is_identity(), 4, "bogus")
        with pytest.raises(NotClosed):
            fhl_subgroup(s_n(3), pred)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_exhaustive_filter(self, seed):
        rng = random.Random(seed)
        gens = [random_perm(6, rng) for _ in range(2)]
        group = PermGroup(6, gens)
        fixed = rng.randrange(6)
        pred = MembershipPredicate(lambda p: p(fixed) == fixed, group.order(), "stab")
        sub = fhl_subgroup(group, pred)
        want = [p for p in group.elements() if p(fixed) == fixed]
        assert sub.order() == len(want)
        assert all(sub.contains(p) for p in want)


class TestTower:
    def test_pointwise_stabilizer(self):
        preds = [
            MembershipPredicate(lambda p: p(0) == 0, 4, "fix0"),
            MembershipPredicate(lambda p: p(1) == 1, 3, "fix1"),
        ]
        assert tower_of_groups(s_n(4), preds).order() == 2

    def test_stage_with_more_cosets_than_its_bound_raises(self):
        preds = [
            MembershipPredicate(lambda p: p(0) == 0, 4, "fix0"),
            MembershipPredicate(lambda p: p(1) == 1, 2, "fix1"),
        ]
        with pytest.raises(IndexBoundExceeded) as exc:
            tower_of_groups(s_n(4), preds)
        assert (exc.value.stage, exc.value.bound) == ("fix1", 2)
        assert isinstance(exc.value, NotTGraph)
        assert exc.value.evidence() == {"reason": "group index bound exceeded", "stage": "fix1", "bound": 2}

    def test_empty_tower(self):
        g = s_n(4)
        assert tower_of_groups(g, []).order() == g.order()

    def test_skips_stage_every_generator_passes(self, monkeypatch):
        computed = []
        real = perm_module.fhl_subgroup

        def counting(group, pred):
            computed.append(pred.name)
            return real(group, pred)

        monkeypatch.setattr(perm_module, "fhl_subgroup", counting)
        preds = [
            MembershipPredicate(lambda p: True, 1, "everything"),
            MembershipPredicate(lambda p: p(0) == 0, 4, "fix0"),
            MembershipPredicate(lambda p: p(0) == 0, 1, "fix0-again"),
        ]
        got = tower_of_groups(s_n(4), preds)
        assert computed == ["fix0"]
        assert got.order() == real(s_n(4), preds[1]).order() == 6

    @pytest.mark.parametrize("group", [PermGroup(3, []), s_n(3)], ids=["trivial", "s3"])
    def test_rejecting_identity_raises(self, group):
        # every generator of S3 is a non-identity element, so the stage is
        # skipped and the identity check alone must reject it
        pred = MembershipPredicate(lambda p: not p.is_identity(), 6, "bogus")
        with pytest.raises(NotClosed):
            tower_of_groups(group, [pred])

    def test_colored_cycle_demo(self):
        """Bounded color multiplicity: color classes of a 2-colored 6-cycle."""
        cycle = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
        colors = [[0, 2, 4], [1, 3, 5]]
        g0 = symmetric_on_classes(colors, degree=6)
        assert g0.order() == 36

        def preserves_edges(p):
            return all(cycle.has_edge(p(u), p(v)) for u, v in cycle.edges)

        preds = [MembershipPredicate(preserves_edges, 36, "edges-12")]
        got = tower_of_groups(g0, preds)
        brute = [
            p
            for p in permutations(range(6))
            if all(Perm(p)(v) % 2 == v % 2 for v in range(6))
            and all(cycle.has_edge(p[u], p[v]) for u, v in cycle.edges)
        ]
        assert got.order() == len(brute) == 6


class TestProducts:
    def test_s2_x_s2(self):
        s2 = s_n(2)
        assert direct_product([s2, s2]).order() == 4

    def test_s3_x_trivial(self):
        assert direct_product([s_n(3), PermGroup(2, [])]).order() == 6

    @pytest.mark.parametrize("seed", range(5))
    def test_order_is_product(self, seed):
        rng = random.Random(seed)
        a = PermGroup(4, [random_perm(4, rng)])
        b = PermGroup(3, [random_perm(3, rng)])
        assert direct_product([a, b]).order() == a.order() * b.order()


class TestSymmetricOnClasses:
    def test_one_class(self):
        assert symmetric_on_classes([[0, 1, 2]]).order() == 6

    def test_singletons(self):
        assert symmetric_on_classes([[0], [1]]).order() == 1

    def test_mixed(self):
        assert symmetric_on_classes([[0, 1], [2, 3, 4]]).order() == 12

    def test_not_a_partition(self):
        with pytest.raises(NotAPartition):
            symmetric_on_classes([[0, 1], [1, 2]])
        with pytest.raises(NotAPartition):
            symmetric_on_classes([[0], [2]])


class TestBlockSwap:
    def test_simple_swap(self):
        group = PermGroup(4, [Perm([2, 3, 0, 1])])
        assert find_block_swap(group, {0, 1}, {2, 3}) is not None

    def test_trivial_group(self):
        assert find_block_swap(PermGroup(2, []), {0}, {1}) is None

    def test_empty_blocks_give_identity(self):
        assert find_block_swap(s_n(3), set(), set()).is_identity()

    def test_k3_plus_p3_components_do_not_swap(self):
        g = complete_graph(3).union_disjoint(path_graph(3))
        aut = brute_force_autgroup(g)
        assert find_block_swap(aut, {0, 1, 2}, {3, 4, 5}) is None

    def test_twin_components_swap(self):
        g = path_graph(3).union_disjoint(path_graph(3))
        aut = brute_force_autgroup(g)
        swap = find_block_swap(aut, {0, 1, 2}, {3, 4, 5})
        assert swap is not None
        assert swap.image_of_set({0, 1, 2}) == {3, 4, 5}


class TestFindWithImages:
    def test_transporter(self):
        group = s_n(5)
        p = find_element(group, {0: 3, 1: 2})
        assert p is not None and p(0) == 3 and p(1) == 2

    def test_infeasible(self):
        group = PermGroup(4, [Perm([1, 2, 3, 0])])
        assert find_element(group, {0: 1, 1: 0}) is None

    def test_long_prescribed_base_under_default_recursion_limit(self):
        # every prescribed point gets a chain level, and 1999 of them are trivial
        n = 2000
        group = PermGroup(n, [Perm.from_cycles(n, [(0, 1)])])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            assert find_element(group, {z: z for z in range(n)}).is_identity()
            swap = find_element(group, {0: 1, **{z: z for z in range(2, n)}})
            assert swap is not None and swap.moved_points() == [0, 1]
            # a trivial level far below the only choice still prunes
            assert find_element(group, {0: 1, n - 2: n - 1}) is None
        finally:
            sys.setrecursionlimit(limit)

    @pytest.mark.parametrize("seed", range(12))
    def test_agrees_with_element_filter(self, seed):
        # a sparse group on a long prescribed base: most levels are trivial
        rng = random.Random(seed)
        n = 7
        gens = [Perm.from_cycles(n, [rng.sample(range(n), rng.randint(2, 3))]) for _ in range(rng.randint(1, 2))]
        group = PermGroup(n, gens)
        points = rng.sample(range(n), 5)
        target = rng.choice(list(group.elements()))
        images = {z: target(z) for z in points}
        if seed % 4 == 1:  # one image moved at random: feasible or not
            images[points[-1]] = rng.randrange(n)
        elif seed % 4 == 2:  # two points onto one image
            images[points[-1]] = images[points[0]]
        elif seed % 4 == 3:  # an image outside 0..n-1
            images[points[-1]] = rng.choice((-1, n))
        want = [p for p in group.elements() if all(p(z) == t for z, t in images.items())]
        prefixed = PermGroup(n, gens, base=rng.sample(points, len(points)))
        assert prefixed._with_base_prefix(sorted(points)) is prefixed
        # on a chain rebuilt for the points, and on one whose base already starts with them
        for chain in (group, prefixed):
            found = find_element(chain, images)
            if want:
                assert found is not None and all(found(z) == t for z, t in images.items())
            else:
                assert found is None


class TestOutOfDomainPoints:
    """A base point or prescribed point outside 0..degree-1 is a typed error or
    no element, never an IndexError or a point aliased by negative indexing."""

    @pytest.mark.parametrize("point", [3, 5, -1])
    def test_base_point_outside_the_domain_is_rejected(self, point):
        with pytest.raises(DomainMismatch, match=f"base point {point} outside 0..2"):
            PermGroup(3, s_n(3).generators, base=[0, point])

    @pytest.mark.parametrize("images", [{5: 0}, {-1: 0}, {0: 1, 3: 2}, {-3: -3}])
    def test_prescribed_point_outside_the_domain_finds_nothing(self, images):
        assert find_element(s_n(3), images) is None

    def test_stabilizer_of_a_point_outside_the_domain_is_rejected(self):
        with pytest.raises(DomainMismatch):
            s_n(3).stabilizer([5])


class TestStabilizer:
    FIXTURES = {
        "s4": lambda: s_n(4),
        "s5": lambda: s_n(5),
        "blocks": lambda: PermGroup(5, [Perm([1, 0, 2, 3, 4]), Perm([2, 3, 0, 1, 4])]),
    }

    @pytest.mark.parametrize("points", [[0], [2, 0], [1, 3], [3, 0, 2]])
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_matches_exhaustive_filter(self, name, points):
        group = self.FIXTURES[name]()
        want = [p for p in group.elements() if all(p(x) == x for x in points)]
        # from a chain with another base, and read off one whose base starts with the points
        for source in (group, PermGroup(group.degree, group.generators, base=points)):
            stab = source.stabilizer(points)
            assert stab.order() == len(want)
            assert all(stab.contains(p) for p in want)
            assert all(g(x) == x for g in stab.generators for x in points)

    @pytest.mark.parametrize("points", [[3, 1], [3, 0], [2, 2, 0]])
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_base_prefix(self, name, points):
        group = self.FIXTURES[name]()
        chain = PermGroup(group.degree, group.generators, base=points)
        prefix = list(dict.fromkeys(points))
        assert list(chain.base[: len(prefix)]) == prefix
        assert chain.order() == group.order()
        assert sorted(p.images for p in chain.elements()) == sorted(p.images for p in group.elements())

    def test_base_prefix_keeps_fixed_points(self):
        group = self.FIXTURES["blocks"]()  # fixes 4
        chain = PermGroup(5, group.generators, base=[4, 0])
        assert chain.base[:2] == (4, 0)
        assert chain.order() == group.order() == 8
        assert chain.stabilizer([4]).order() == 8
        assert chain.stabilizer([4, 0]).order() == 2

    def test_find_element_on_prefixed_chain(self):
        chain = PermGroup(5, s_n(5).generators, base=[1, 0])
        p = find_element(chain, {0: 3, 1: 2})
        assert p is not None and p(0) == 3 and p(1) == 2



def orbit(point, gens):
    seen, stack = {point}, [point]
    while stack:
        x = stack.pop()
        for g in gens:
            if g(x) not in seen:
                seen.add(g(x))
                stack.append(g(x))
    return seen


def assert_valid_chain(group):
    """Each level's generators fix the earlier base points, and its transversal
    is exactly the orbit of its base point under them, each element carrying
    the base point to its key."""
    base = group.base
    for i, lvl in enumerate(group._levels):
        assert all(g(b) == b for g in lvl.gens for b in base[:i])
        assert set(lvl.transversal) == orbit(lvl.point, lvl.gens)
        assert all(t(lvl.point) == x for x, t in lvl.transversal.items())
        assert all((t * lvl.inv_transversal[x]).is_identity() for x, t in lvl.transversal.items())


class TestKnownOrder:
    @pytest.mark.parametrize("seed", range(40))
    def test_agrees_with_general_chain(self, seed):
        rng = random.Random(5000 + seed)
        degree = rng.randint(2, 8)
        gens = [random_perm(degree, rng) for _ in range(rng.randint(1, 3))]
        base = rng.sample(range(degree), rng.randint(0, degree))
        general = PermGroup(degree, gens, base=base)
        known = PermGroup(degree, gens, base=base, order=general.order())
        assert known.generators == general.generators
        assert known.base[: len(base)] == tuple(base)
        assert_valid_chain(known)
        assert known.order() == general.order()
        words = [reduce(Perm.__mul__, rng.choices(gens, k=rng.randint(1, 6))) for _ in range(5)]
        for p in words + [random_perm(degree, rng) for _ in range(10)]:
            assert known.contains(p) == general.contains(p)
        for k in range(degree + 1):
            points = base[:k] if k <= len(base) else rng.sample(range(degree), k)
            assert known.stabilizer(points).order() == general.stabilizer(points).order()

    def test_schreier_generators_complete_a_short_orbit_closure(self):
        # S4 from a 4-cycle and a transposition: orbit closure alone gives
        # transversals of 4 and 3, product 12, so Schreier generators reach 24
        group = PermGroup(4, [Perm([1, 2, 3, 0]), Perm([1, 0, 2, 3])], order=24)
        assert_valid_chain(group)
        assert group.order() == 24
        assert all(group.contains(Perm(p)) for p in permutations(range(4)))

    # 1 and 2 are passed before the second generator is installed, 6 by the
    # orbit closure, and 48 is never reached
    @pytest.mark.parametrize("order", [1, 2, 6, 48])
    def test_wrong_order_raises(self, order):
        with pytest.raises(AssertionError):
            PermGroup(4, [Perm([1, 2, 3, 0]), Perm([1, 0, 2, 3])], order=order)

    def test_trivial_group(self):
        assert PermGroup(3, [], order=1).order() == 1
        with pytest.raises(AssertionError):
            PermGroup(3, [], order=2)

    def test_with_base_prefix_keeps_the_generators(self):
        group = s_n(5)
        chain = group._with_base_prefix([3, 1])
        assert chain.base[:2] == (3, 1)
        assert chain.generators == group.generators
        assert_valid_chain(chain)
        assert chain.order() == 120
