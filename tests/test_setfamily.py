import random
from itertools import combinations, permutations

import pytest

import tgraphs.setfamily
from tgraphs.decompose import canonical_decomposition
from tgraphs.graph import Graph, path_graph
from tgraphs.harness import random_relabel
from tgraphs.interval import MarkedIntervalGraph, _marked_encoding, family_set_action, marked_set_action, marked_union
from tgraphs.iso import combine, level_buckets
from tgraphs.perm import Perm, PermGroup
from tgraphs.setfamily import (
    SetFamily,
    _child,
    _individualise,
    _initial_colour,
    _intersections,
    _refine,
    _rigid_classes,
    _search,
    _stable_colouring,
    _target_cell,
    cell_signature,
    family_autgroup,
    is_family_automorphism,
    max_antichain_size,
)


def brute_is_automorphism(family, p):
    """Exhaustive search for a ground bijection realizing p."""
    m = len(family.sets)
    for zeta in permutations(range(family.ground)):
        ok = True
        for i in range(m):
            target = family.sets[p(i)]
            if frozenset(zeta[z] for z in family.sets[i]) != target:
                ok = False
                break
        if ok:
            return True
    return False


def random_family(rng, max_sets=4, max_ground=6, annotated=False):
    ground = rng.randint(1, max_ground)
    m = rng.randint(1, max_sets)
    sets = []
    for _ in range(m):
        sets.append([z for z in range(ground) if rng.random() < 0.5])
    return SetFamily(ground, sets, [rng.randint(0, 1) for _ in range(m)] if annotated else None)


def random_union(rng, copies, max_sets, max_ground, annotated=False):
    """Relabelled copies of one random family (with an empty set now and then)
    beside one more random family, the sets shuffled."""
    parts = [random_family(rng, max_sets, max_ground, annotated)] * copies
    parts.append(random_family(rng, max_sets, max_ground, annotated))
    sets, annotations, ground = [], [], 0
    for fam in parts:
        zeta = list(range(fam.ground))
        rng.shuffle(zeta)
        sets += [[ground + zeta[z] for z in s] for s in fam.sets]
        annotations += fam.annotations
        ground += fam.ground
    if rng.random() < 0.3:
        sets.append([])
        annotations.append(rng.randint(0, 1) if annotated else None)
    order = list(range(len(sets)))
    rng.shuffle(order)
    return SetFamily(ground, [sets[i] for i in order], [annotations[i] for i in order])


def small_union(seed):
    """A union of 2 or 3 copies and one more family with at most 7 sets, odd seeds annotated."""
    rng = random.Random(seed)
    copies = rng.randint(2, 3)
    return random_union(rng, copies, 6 // copies - 1, 4, annotated=seed % 2 == 1)


def root_classes(family):
    """`_rigid_classes` of the family's stable colouring."""
    return _rigid_classes(family, *_stable_colouring(family))


def exhaustive_automorphisms(family):
    """Every annotation-preserving index permutation preserving the Venn diagram."""
    ann = family.annotations
    return [
        Perm(images)
        for images in permutations(range(len(family.sets)))
        if all(ann[i] == ann[j] for i, j in enumerate(images)) and is_family_automorphism(family, Perm(images))
    ]


class TestCellSignature:
    def test_two_overlapping_sets(self):
        fam = SetFamily(3, [[0, 1], [1, 2]])
        sig = cell_signature(fam)
        assert sig == {
            frozenset({0}): 1,
            frozenset({0, 1}): 1,
            frozenset({1}): 1,
        }

    def test_empty_family(self):
        fam = SetFamily(3, [])
        assert cell_signature(fam) == {frozenset(): 3}

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_direct_formula(self, seed):
        rng = random.Random(seed)
        fam = random_family(rng, max_sets=5)
        sig = cell_signature(fam)
        m = len(fam.sets)
        for size in range(1, m + 1):
            for sub in combinations(range(m), size):
                cell = set.intersection(*(set(fam.sets[i]) for i in sub))
                for j in range(m):
                    if j not in sub:
                        cell -= fam.sets[j]
                assert sig.get(frozenset(sub), 0) == len(cell)

    @pytest.mark.parametrize("seed", range(10))
    def test_invariant_under_ground_relabel(self, seed):
        rng = random.Random(100 + seed)
        fam = random_family(rng)
        zeta = list(range(fam.ground))
        rng.shuffle(zeta)
        relabeled = SetFamily(fam.ground, [[zeta[z] for z in s] for s in fam.sets])
        assert cell_signature(fam) == cell_signature(relabeled)


class TestIsFamilyAutomorphism:
    def test_symmetric_singletons(self):
        fam = SetFamily(2, [[0], [1]])
        assert is_family_automorphism(fam, Perm([1, 0]))

    def test_size_mismatch(self):
        fam = SetFamily(2, [[0], [0, 1]])
        assert not is_family_automorphism(fam, Perm([1, 0]))

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_ground_bijection_search(self, seed):
        rng = random.Random(seed)
        fam = random_family(rng)
        m = len(fam.sets)
        images = list(range(m))
        rng.shuffle(images)
        p = Perm(images)
        assert is_family_automorphism(fam, p) == brute_is_automorphism(fam, p)

    @pytest.mark.parametrize("seed", range(10))
    def test_witness_reconstruction(self, seed):
        # every accepted index permutation has a ground bijection realizing it
        rng = random.Random(500 + seed)
        fam = random_family(rng)
        for images in permutations(range(len(fam.sets))):
            p = Perm(images)
            if is_family_automorphism(fam, p):
                assert brute_is_automorphism(fam, p)


class TestMaxAntichain:
    def test_chain(self):
        fam = SetFamily(3, [[0], [0, 1], [0, 1, 2]])
        assert max_antichain_size(fam) == 1

    def test_disjoint(self):
        fam = SetFamily(6, [[0, 1], [2, 3], [4, 5]])
        assert max_antichain_size(fam) == 3

    def test_duplicates_are_comparable(self):
        fam = SetFamily(2, [[0, 1], [0, 1], [0, 1]])
        assert max_antichain_size(fam) == 1

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_exhaustive(self, seed):
        rng = random.Random(seed)
        fam = random_family(rng, max_sets=8, max_ground=5)
        m = len(fam.sets)
        best = 0
        for size in range(1, m + 1):
            for sub in combinations(range(m), size):
                if all(
                    not (fam.sets[i] <= fam.sets[j] or fam.sets[j] <= fam.sets[i])
                    for i, j in combinations(sub, 2)
                ):
                    best = max(best, size)
        assert max_antichain_size(fam) == best


class TestFamilyAutgroup:
    def test_chain_is_rigid(self):
        fam = SetFamily(3, [[0], [0, 1], [0, 1, 2]])
        assert family_autgroup(fam).order() == 1

    def test_identical_copies(self):
        fam = SetFamily(3, [[0, 2], [0, 2], [0, 2], [0, 2]])
        assert family_autgroup(fam).order() == 24

    def test_annotations_block_swaps(self):
        fam = SetFamily(2, [[0], [1]], annotations=["a", "b"])
        assert family_autgroup(fam).order() == 1
        fam2 = SetFamily(2, [[0], [1]], annotations=["a", "a"])
        assert family_autgroup(fam2).order() == 2

    def test_klein_four_regular_action(self):
        # each pair of the four sets shares a private block of 1, 2 or 3 points;
        # the group is the Klein four-group, regular on the sets, so the search
        # needs two generators at the root
        weights = {(0, 1): 1, (2, 3): 1, (0, 2): 2, (1, 3): 2, (0, 3): 3, (1, 2): 3}
        sets = [[], [], [], []]
        ground = 0
        for (p, q), w in weights.items():
            for z in range(ground, ground + w):
                sets[p].append(z)
                sets[q].append(z)
            ground += w
        group = family_autgroup(SetFamily(ground, sets))
        assert group.order() == 4
        for images in ([1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]):
            assert group.contains(Perm(images))

    # seeds 30 to 999 draw families whose largest antichain has 3, 4 or 5 sets;
    # seeds from 2000 draw families annotated with 0 or 1 (2032 to 2097: the
    # annotations cut the group)
    @pytest.mark.parametrize(
        "seed", [*range(30), 38, 40, 83, 74, 163, 253, 118, 219, 233, 961, *range(2000, 2020), 2032, 2044, 2083, 2097]
    )
    def test_matches_exhaustive_filter(self, seed):
        rng = random.Random(seed)
        fam = random_family(rng, max_sets=6, max_ground=6, annotated=seed >= 2000)
        group = family_autgroup(fam)
        ann = fam.annotations
        want = [
            Perm(images)
            for images in permutations(range(len(fam.sets)))
            if is_family_automorphism(fam, Perm(images)) and all(ann[i] == ann[j] for i, j in enumerate(images))
        ]
        assert group.order() == len(want)
        for p in want:
            assert group.contains(p)

    @pytest.mark.parametrize("seed", range(60))
    def test_unions_match_exhaustive_filter(self, seed):
        fam = small_union(seed)
        group = family_autgroup(fam)
        want = exhaustive_automorphisms(fam)
        assert group.order() == len(want)
        for p in want:
            assert group.contains(p)

    def test_union_seeds_cover_blocks_search_and_empty_sets(self):
        fams = [small_union(seed) for seed in range(60)]
        splits = [root_classes(fam) for fam in fams]
        assert any(any(len(blocks) > 1 for blocks in classes) and rest for classes, rest in splits)
        assert any(any(len(blocks) > 2 for blocks in classes) for classes, _ in splits)
        assert any(not classes for classes, _ in splits)
        assert any(frozenset() in fam.sets and len(set(fam.annotations)) > 1 for fam in fams)

    def test_venn_cells_tell_a_star_from_a_triangle(self):
        # a star (one point in all three sets) and a triangle have the same annotated
        # sizes and pairwise intersection sizes, so every set of each gets its own
        # colour; only the Venn cells keep the triangle from matching the stars
        star = [[0, 1], [0, 2], [0, 3]]
        triangle = [[4, 5], [5, 6], [4, 6]]
        star2 = [[7, 8], [7, 9], [7, 10]]
        fam = SetFamily(11, star + triangle + star2, ["x", "y", "z"] * 3)
        group = family_autgroup(fam)
        assert group.order() == 2
        assert group.contains(Perm([6, 7, 8, 3, 4, 5, 0, 1, 2]))
        assert root_classes(fam) == ([[[0, 1, 2], [6, 7, 8]], [[3, 4, 5]]], [])

    @pytest.mark.parametrize("seed", range(200))
    def test_matches_search_only_group(self, seed):
        rng = random.Random(3000 + seed)
        fam = random_union(rng, rng.randint(1, 6), 4, 5, annotated=seed % 2 == 1)
        group = family_autgroup(fam)
        searched = PermGroup(len(fam.sets), *_search(fam, *_stable_colouring(fam)))
        assert group.order() == searched.order()
        assert all(searched.contains(g) for g in group.generators)
        assert all(group.contains(g) for g in searched.generators)

    def test_spider_searches_only_its_residual_level(self, monkeypatch):
        spider = spider_graph(5, 5, 5)
        built = bucket_families(spider, random_relabel(spider, 1)[0], 3)
        depth = built[0][2]  # the deepest level comes first
        assert depth > 1 and {level for _hosts, _family, level in built} == set(range(1, depth + 1))
        # the decision reads every bucket's action off the PQ-trees; as the
        # oracle, family_autgroup searches only the residual level's family,
        # and its projection has the counted order
        calls, searched = [], []
        inner_search = tgraphs.setfamily._search
        monkeypatch.setattr(tgraphs.setfamily, "_search", lambda *args: calls.append(1) or inner_search(*args))
        for hosts, family, level in built:
            calls.clear()
            family_autgroup(family)
            searched += [level] * len(calls)
            degree = len(hosts) + sum(len(fam) for m in hosts for fam in m.families)
            assert PermGroup(degree, family_set_action(hosts)).order() == marked_set_action(hosts)[2]
        assert searched == [depth]

    @pytest.mark.parametrize("seed", range(10))
    def test_generators_compose_to_automorphisms(self, seed):
        rng = random.Random(700 + seed)
        fam = random_family(rng, max_sets=6, max_ground=6)
        group = family_autgroup(fam)
        gens = list(group.generators)
        for a in gens:
            for b in gens:
                assert is_family_automorphism(fam, a * b)


def whole_key_refine(colour, rows):
    """Reference refinement: every round re-keys every set by its colour and the
    sorted (colour of j, |S_i & S_j|) over its nonempty intersections, and ranks
    the keys, until the number of cells stops growing."""
    cells = len(set(colour))
    while True:
        keys = [(colour[i], tuple(sorted((colour[j], c) for j, c in row))) for i, row in enumerate(rows)]
        palette = {key: rank for rank, key in enumerate(sorted(set(keys)))}
        colour = [palette[key] for key in keys]
        if len(palette) == cells:
            return colour
        cells = len(palette)


def cells_of(colour):
    cells = {}
    for i, c in enumerate(colour):
        cells.setdefault(c, set()).add(i)
    return {frozenset(cell) for cell in cells.values()}


def individualisation_chain(rng, family):
    """A random chain of individualisations down to a discrete leaf: pairs of the set
    individualised (None at the root) and the refined colouring it leads to."""
    rows = _intersections(family)
    colour = _initial_colour(family)
    out = [(None, _refine(colour, rows, colour))]
    while len(set(out[-1][1])) < len(family.sets):
        parent = out[-1][1]
        v = rng.choice([i for i, c in enumerate(parent) if parent.count(c) > 1])
        out.append((v, _child(parent, v, rows)))
    return out


# odd seeds draw annotated families; in 130, 851, 949 and 1093 a queued cell splits
# with a largest fragment that is not its first, so every fragment must be queued
REFINE_SEEDS = [*range(60), 130, 851, 949, 1093]


class TestRefine:
    @pytest.mark.parametrize("seed", range(20))
    def test_intersections_match_direct_formula(self, seed):
        fam = random_family(random.Random(seed), max_sets=8, max_ground=8)
        for i, row in enumerate(_intersections(fam)):
            want = {j: len(fam.sets[i] & t) for j, t in enumerate(fam.sets) if fam.sets[i] & t}
            assert dict(row) == want and len(row) == len(want)

    @pytest.mark.parametrize("seed", REFINE_SEEDS)
    def test_matches_whole_key_refinement(self, seed):
        rng = random.Random(seed)
        fam = random_family(rng, max_sets=10, max_ground=7, annotated=seed % 2 == 1)
        rows = _intersections(fam)
        before = _initial_colour(fam)
        for v, after in individualisation_chain(rng, fam):
            if v is not None:
                before = _individualise(before, v)
            assert cells_of(after) == cells_of(whole_key_refine(before, rows))
            # each colour is the start position of its cell
            assert all(c == sum(1 for d in after if d < c) for c in after)
            before = after

    @pytest.mark.parametrize("seed", REFINE_SEEDS)
    def test_commutes_with_relabelling(self, seed):
        rng = random.Random(seed)
        fam = random_family(rng, max_sets=10, max_ground=7, annotated=seed % 2 == 1)
        m = len(fam.sets)
        pi = list(range(m))  # set i of fam is set pi[i] of moved
        rng.shuffle(pi)
        at = sorted(range(m), key=pi.__getitem__)
        moved = SetFamily(fam.ground, [fam.sets[i] for i in at], [fam.annotations[i] for i in at])
        rows = _intersections(moved)
        colour = _initial_colour(moved)
        for v, after in individualisation_chain(rng, fam):
            colour = _refine(colour, rows, colour) if v is None else _child(colour, pi[v], rows)
            assert colour == [after[i] for i in at]

    def test_decision_group_orders_are_pinned(self):
        # a path's decision reads root codes, so its level bucket is built here
        assert family_autgroup(path_bucket(path_graph(21), 1)).order() == 8
        # a centre 0 with three arms of five vertices
        spider = Graph(16, [(5 * a + k if k else 0, 5 * a + k + 1) for a in range(3) for k in range(5)])
        built = bucket_families(spider, random_relabel(spider, 1)[0], 3)
        assert [family_autgroup(family).order() for _hosts, family, _level in built] == [72, 720, 720, 720, 720]


def first_path_points(family):
    """The sets individualised along the search's first path."""
    rows = _intersections(family)
    colour = _initial_colour(family)
    colour = _refine(colour, rows, colour)
    points = []
    while len(set(colour)) < len(family.sets):
        points.append(_target_cell(colour)[0])
        colour = _child(colour, points[-1], rows)
    return points


def spider_graph(*arms):
    """A centre 0 with one path of each given length hanging off it."""
    edges, nxt = [], 1
    for length in arms:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return Graph(nxt, edges)


def path_bucket(g, seed):
    """The encoded family of the level bucket holding interval graph g and a
    relabelled copy, as a decision of depth 1 would build it."""
    hosts = [MarkedIntervalGraph(h, []) for h in (g, random_relabel(g, seed)[0])]
    return _marked_encoding(marked_union(hosts)[0]).family


def bucket_families(g, h, d):
    """Per level bucket of the combined decomposition of g and h, from the
    deepest level up, as a decision builds the level groups: the bucket's
    hosts, the encoded family of their union, which `family_autgroup`
    serves, and the level."""
    cd = combine(canonical_decomposition(g, d), canonical_decomposition(h, d))
    out = []
    for level in range(cd.depth, 0, -1):
        for frags in level_buckets(cd, level):
            hosts = [cf.marked for cf in frags]
            out.append((hosts, _marked_encoding(marked_union(hosts)[0]).family, level))
    return out


def decision_groups(monkeypatch, g, d):
    """Per level bucket of g against a relabelling: the encoded family,
    `family_autgroup`'s group of it and the number of Schreier generators its
    chain formed."""
    buckets = bucket_families(g, random_relabel(g, 3)[0], d)
    return family_groups(monkeypatch, [family for _hosts, family, _level in buckets])


def family_groups(monkeypatch, families):
    """Per family: the family, `family_autgroup`'s group of it and the number
    of Schreier generators its chain formed."""
    built, formed = [], []
    queue_schreier = PermGroup._queue_schreier_generators

    def counting(self, i, queue):
        formed.append(len(self._levels[i].pending))
        return queue_schreier(self, i, queue)

    monkeypatch.setattr(PermGroup, "_queue_schreier_generators", counting)
    for family in families:
        formed.clear()
        built.append((family, family_autgroup(family), sum(formed)))
    monkeypatch.undo()
    return built


def chain_base(family):
    """The first set of every matched block but each class's last, then the sets
    individualised along the search's first path on the other sets."""
    classes, rest = root_classes(family)
    if not classes:
        return first_path_points(family)
    sub = SetFamily(family.ground, [family.sets[i] for i in rest], [family.annotations[i] for i in rest])
    return [block[0] for blocks in classes for block in blocks[:-1]] + [rest[k] for k in first_path_points(sub)]


class TestChainFromSearch:
    def assert_chain_from_search(self, family, group):
        assert list(group.base) == chain_base(family)
        for i, lvl in enumerate(group._levels):
            assert all(g(b) == b for g in lvl.gens for b in group.base[:i])
            orbit, stack = {lvl.point}, [lvl.point]
            while stack:
                x = stack.pop()
                for g in lvl.gens:
                    if g(x) not in orbit:
                        orbit.add(g(x))
                        stack.append(g(x))
            assert set(lvl.transversal) == orbit
        # the chain built to the search's order is the general one's group
        assert group.order() == PermGroup(group.degree, group.generators).order()

    @pytest.mark.parametrize("seed", range(40))
    def test_random_families(self, seed):
        fam = random_family(random.Random(900 + seed), max_sets=7, max_ground=5, annotated=seed % 2 == 1)
        self.assert_chain_from_search(fam, family_autgroup(fam))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_unions(self, seed):
        fam = random_union(random.Random(4000 + seed), 1 + seed % 4, 4, 5, annotated=seed % 2 == 1)
        self.assert_chain_from_search(fam, family_autgroup(fam))

    @pytest.mark.parametrize(
        "groups",
        [
            lambda mp: family_groups(mp, [path_bucket(path_graph(21), 3)]),
            lambda mp: decision_groups(mp, spider_graph(5, 5, 5), 3),
            lambda mp: decision_groups(mp, spider_graph(2, 2, 2, 2), 4),
        ],
        ids=["path21", "3x5", "4x2"],
    )
    def test_decision_encodings(self, monkeypatch, groups):
        built = groups(monkeypatch)
        assert built
        for family, group, _formed in built:
            self.assert_chain_from_search(family, group)

    def test_spider_family_groups_form_no_schreier_generator(self, monkeypatch):
        built = decision_groups(monkeypatch, spider_graph(*[2] * 8), 8)
        assert max(group.order() for _, group, _ in built) > 1
        assert [formed for _, _, formed in built] == [0] * len(built)
