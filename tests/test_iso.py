import random
import sys
import time
from collections import defaultdict
from itertools import combinations

import pytest

import tgraphs.chordal as chordal
import tgraphs.graph as graph
import tgraphs.iso as iso
from tgraphs.decompose import canonical_decomposition
from tgraphs.graph import Graph, complete_graph, cycle_graph, path_graph, star_graph
from tgraphs.harness import (
    brute_force_autgroup,
    brute_force_isomorphism,
    pendant_swap_pair,
    random_relabel,
    random_t_graph,
    random_tree,
)
from tgraphs.interval import family_set_action
from tgraphs.iso import (
    ISOMORPHIC,
    NOT_ISOMORPHIC,
    NOT_T_GRAPH,
    combine,
    decide_up_to,
    decomposition_autgroup,
    is_isomorphic,
    level_group,
    lift_to_vertices,
    project_automorphism,
)
from tgraphs.perm import Perm, PermGroup, find_block_swap, find_element


def subdivided_claw():
    return Graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])


def spider(*arms):
    """A centre 0 with one path of each given length hanging off it."""
    edges, nxt = [], 1
    for length in arms:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return Graph(nxt, edges)


def path_power(n, k):
    """The k-th power of the path on n vertices."""
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, min(u + k + 1, n))])


SMALL_SPIDERS = [(1, 1, 1), (1, 2, 2), (2, 2, 3), (1, 1, 1, 1), (1, 2, 2, 2)]
# the 75 three-arm spiders with 30 arm vertices: one component key, pairwise non-isomorphic
SAME_KEY_SPIDERS = [(a, b, 30 - a - b) for a in range(1, 11) for b in range(a, (30 - a) // 2 + 1)]


def connected_t_graph(d, n, seed):
    """The first connected random_t_graph(d, n, s) for s = seed, seed + 1, ..."""
    return next(g for s in range(seed, seed + 50) if (g := random_t_graph(d, n, s)[0]).is_connected())


def refinement_separates(g1, g2):
    """Colour refinement (1-WL) on the disjoint union: True when the two sides end
    with different colour histograms, which proves them non-isomorphic."""
    u = g1.union_disjoint(g2)
    colour = [0] * u.n
    while True:
        signature = [(colour[v], tuple(sorted(colour[w] for w in u.adj[v]))) for v in u.vertices()]
        ids = {sig: i for i, sig in enumerate(sorted(set(signature)))}
        refined = [ids[sig] for sig in signature]
        if len(ids) == len(set(colour)):  # stable partition
            return sorted(colour[: g1.n]) != sorted(colour[g1.n :])
        colour = refined


def make_cd(g1, g2, d):
    return combine(canonical_decomposition(g1, d), canonical_decomposition(g2, d))


class TestCombine:
    def test_self_combination(self):
        g = subdivided_claw()
        cd = make_cd(g, g, 3)
        assert cd is not None
        assert cd.depth == 2
        assert len(cd.fragments) == 8  # 3 tips + residual core, per side
        assert len(cd.side_points(0)) == len(cd.side_points(1))

    def test_depth_mismatch_rejected(self):
        g1 = path_graph(6)  # interval: 1 level
        g2 = subdivided_claw()  # 2 levels
        assert make_cd(g1, g2, 3) is None

    def test_domain_size(self):
        g = subdivided_claw()
        cd = make_cd(g, g, 3)
        assert cd.degree == len(cd.fragments) + len(cd.terminals)

    @pytest.mark.parametrize("seed", range(40))
    def test_union_decomposition_matches_both_sides(self, seed):
        """combine's fragments and terminal sets are each side's decomposition, G2's shifted by g1.n."""
        d = 2 + seed % 3
        g1 = connected_t_graph(d, 12, 1300 + seed)
        g2 = connected_t_graph(d, 12, 2300 + seed) if seed % 2 else random_relabel(g1, seed)[0]
        dec1, dec2 = canonical_decomposition(g1, d), canonical_decomposition(g2, d)
        cd = make_cd(g1, g2, d)
        if dec1.depth != dec2.depth:
            assert cd is None
            return
        shift = lambda vs, side: frozenset(v + g1.n * side for v in vs)
        for level in range(1, cd.depth + 1):
            want = {(side, shift(f.vertices, side)) for side, dec in enumerate((dec1, dec2)) for f in dec.levels[level - 1]}
            assert {(cf.side, cf.vertices) for cf in cd.fragments if cf.level == level} == want
        want = {
            (t.host_level, t.origin_level, t.position, shift(t.vertices, side))
            for side, dec in enumerate((dec1, dec2))
            for t in dec.terminal_sets
        }
        assert {(t.level, t.origin_level, t.position, t.vertices) for t in cd.terminals} == want


class TestLevelGroup:
    def test_twin_interval_components_swap(self):
        g = path_graph(3)
        cd = make_cd(g, g, 2)
        lam = level_group(cd, 1)
        assert lam.order() == 2  # swap the two single-fragment sides

    def test_rigid_fragment_with_terminal(self):
        g = subdivided_claw()
        cd = make_cd(g, g, 3)
        lam1 = level_group(cd, 1)
        # six singleton tip fragments, freely permutable within the class
        assert lam1.order() == 720

    def test_brute_level_check(self):
        g = subdivided_claw()
        cd = make_cd(g, g, 3)
        lam2 = level_group(cd, 2)
        # two residual cores carrying 3 singleton shards each; cores swap,
        # and each core's shards admit the star automorphisms (3! each)
        assert lam2.order() == 2 * 6 * 6

    def test_one_marked_group_per_bucket(self, monkeypatch):
        import tgraphs.interval as interval

        calls = []

        def counting(owner, name):
            original = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *args: calls.append(name) or original(*args))

        counting(iso, "marked_set_action")
        for name in ("family_autgroup", "_marked_encoding"):
            counting(interval, name)
        cd = make_cd(subdivided_claw(), subdivided_claw(), 3)
        orders = []
        for level in (1, 2):
            calls.clear()
            orders.append(level_group(cd, level).order())
            # each level holds one bucket: six tips, then two cores, all
            # marked by singletons, so the PQ-tree path builds each action
            assert calls == ["marked_set_action"]
        assert orders == [720, 72]

    @staticmethod
    def projected_level_group(cd, level):
        """The level group as `family_autgroup` gives it: every bucket's
        `family_set_action` carried onto the level's points, at unknown order."""
        offset = sum(cd.level_degrees[: level - 1])
        degree = cd.level_degrees[level - 1]
        gens = []
        for frags in iso.level_buckets(cd, level):
            points = [cd.frag_point[cf.gid] - offset for cf in frags]
            points += [cd.term_point[t.tid] - offset for j in range(level - 1) for cf in frags for t in cf.shards[j]]
            for gen in family_set_action([cf.marked for cf in frags]):
                images = list(range(degree))
                for p, q in zip(points, gen.images):
                    images[p] = points[q]
                gens.append(Perm(images))
        return PermGroup(degree, gens)

    @staticmethod
    def level_stream():
        """Seeded (g, h, d): random T-graphs (d 2-6, n 4-40) against a
        relabelling or another draw, random trees, the bench's `chain` and
        `dense` classes and a path with two equal pendants, each against a
        relabelling."""
        rng = random.Random(35)
        out = []
        for s in range(90):
            d, n = 2 + s % 5, rng.randint(4, 40)
            g = connected_t_graph(d, n, 9000 + s)
            h = connected_t_graph(d, n, 9500 + s) if s % 3 == 0 else random_relabel(g, s)[0]
            out.append((g, h, d))
        for s in range(20):
            t = random_tree(rng.randint(4, 30), rng)
            out.append((t, random_relabel(t, s)[0], max(2, sum(t.degree(v) == 1 for v in t.vertices()))))
        chain = [(path_power(20 + k, k), 2) for k in (1, 2, 3)] + [(spider(5, 5, 5), 3), (spider(6, 6, 6), 3)]
        dense = [(random_t_graph(d, 30, s)[0], d) for d in (3, 4, 5) for s in range(4)]
        # the path 0-6 with a pendant P2 on 2 and on 4: the residual path's
        # reversal exchanges the pendants' shards, so it is not absorbed
        pendants = [(Graph(11, [(i, i + 1) for i in range(6)] + [(2, 7), (7, 8), (4, 9), (9, 10)]), 4)]
        for i, (g, d) in enumerate(chain + dense + pendants):
            out.append((g, random_relabel(g, i)[0], d))
        return out

    def test_counted_levels_equal_the_family_projection(self, monkeypatch):
        """Every level of the stream's combined decompositions: the level group
        equals the projection of the family groups, its counted order is
        reached by a chain of unknown order on the same generators (so it is
        not understated) and raises when doubled (so it is not overstated),
        and both kinds of reversible Q-node occur."""
        import tgraphs.interval as interval

        stated, absorbed = [], []
        inner_absorbed = interval._absorbed
        monkeypatch.setattr(interval, "_absorbed", lambda *args: absorbed.append(inner_absorbed(*args)) or absorbed[-1])

        def recording(*args, order=None, **kw):
            stated.append(order)
            return PermGroup(*args, order=order, **kw)

        monkeypatch.setattr(iso, "PermGroup", recording)
        counted = levels = 0
        for g, h, d in self.level_stream():
            cd = make_cd(g, h, d)  # None when the two depths differ
            for level in range(1, (cd.depth if cd else 0) + 1):
                group = level_group(cd, level)
                order = stated[-1]
                want = self.projected_level_group(cd, level)
                assert group.order() == want.order()
                assert all(want.contains(gen) for gen in group.generators)
                assert all(group.contains(gen) for gen in want.generators)
                levels += 1
                if order is not None:
                    counted += 1
                    assert PermGroup(group.degree, group.generators, group.base).order() == order
                    with pytest.raises(AssertionError):
                        PermGroup(group.degree, group.generators, group.base, 2 * order)
        assert levels > 200 and 0 < counted < levels
        assert absorbed.count(True) > 0 and absorbed.count(False) > 0

    def test_origin_fragments_lead_the_base(self):
        # the six tips carry the shards of level 2, so decomposition_autgroup
        # reads the level-1 group as it is
        cd = make_cd(subdivided_claw(), subdivided_claw(), 3)
        tips = sorted(cd.frag_point[cf.gid] for cf in cd.fragments if cf.level == 1)
        assert len(tips) == 6
        assert list(level_group(cd, 1).base[:6]) == tips


class TestDecompositionAutgroup:
    def test_two_rigid_copies_order(self):
        # the smallest rigid tree: a 6-path with a leaf on the third vertex
        g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)])
        assert brute_force_autgroup(g).order() == 1
        cd = make_cd(g, g, 3)
        group = decomposition_autgroup(cd)
        h_aut = brute_force_autgroup(g.union_disjoint(g), guard=14)
        assert group.order() == h_aut.order() == 2

    def test_projection_equality_small(self):
        inputs = [(random_t_graph(3, 4, 50 + seed)[0], 3) for seed in range(8)]
        inputs += [(spider(*arms), max(3, len(arms))) for arms in SMALL_SPIDERS]
        # seed 8240 is a depth-2 graph whose a2-1 stage cuts (index 9)
        inputs += [(subdivided_claw(), 3), (random_t_graph(3, 7, 8240)[0], 3)]
        # two cherries and a fork of two 2-arms around a centre: half of its
        # group comes from a level group's pointwise stabiliser of the origins
        forked = Graph(12, [(0, 7), (1, 6), (2, 4), (2, 5), (2, 11), (3, 11), (4, 9), (4, 10), (5, 6), (5, 7), (8, 11)])
        inputs.append((forked, 6))
        for g, d in inputs:
            cd = make_cd(g, g, d)
            group = decomposition_autgroup(cd)
            h_aut = brute_force_autgroup(cd.h, guard=24)
            projected = PermGroup(
                cd.degree, [project_automorphism(cd, s) for s in h_aut.generators]
            )
            assert projected.order() == group.order()
            for gen in projected.generators:
                assert group.contains(gen)

    @staticmethod
    def record_fibre_products(monkeypatch) -> list:
        """Per fibre product built, its arguments and the Schreier generators it queued.

        Among the engine's PermGroup calls in iso, the level groups and the
        fibre products state their orders; the calls made inside
        `level_group` are the level groups'."""
        built = []
        in_level = []
        queue_of = PermGroup._queue_schreier_generators
        inner_level = iso.level_group

        def counting(self, i, queue):
            before = len(queue)
            queue_of(self, i, queue)
            if built and built[-1][1] is None:
                built[-1][2] += len(queue) - before

        def fibre_product(degree, gens, base=(), order=None):
            if order is None or in_level:
                return PermGroup(degree, gens, base, order)
            built.append([(degree, gens, base, order), None, 0])
            group = built[-1][1] = PermGroup(degree, gens, base, order)
            return group

        def level_group(cd, level):
            in_level.append(level)
            try:
                return inner_level(cd, level)
            finally:
                in_level.pop()

        monkeypatch.setattr(PermGroup, "_queue_schreier_generators", counting)
        monkeypatch.setattr(iso, "PermGroup", fibre_product)
        monkeypatch.setattr(iso, "level_group", level_group)
        return built

    def test_fibre_product_queues_no_schreier_generator(self, monkeypatch):
        built = self.record_fibre_products(monkeypatch)
        # the bench's chain classes: path powers P(20 + k)^k and the 5x3 and 6x3 spiders
        chain_classes = [path_power(20 + k, k) for k in (1, 2, 3)]
        chain_classes += [spider(5, 5, 5), spider(6, 6, 6)]
        spiders = [spider(*arms) for arms in ((1, 2, 3), (2, 3, 4), (3, 3, 3), (4, 4, 4))]
        spiders += [spider(*(2,) * k) for k in range(3, 17)]
        for i, g in enumerate(chain_classes + spiders):
            d = max(3, sum(g.degree(v) == 1 for v in g.vertices()))
            assert is_isomorphic(g, random_relabel(g, i)[0], d).kind == ISOMORPHIC
        assert len(built) >= len(spiders)
        assert [queued for _args, _group, queued in built] == [0] * len(built)

    def test_equal_arm_spiders_queue_no_schreier_generator(self, monkeypatch):
        """The f(d) family: every level group and fibre product of the equal-arm
        spiders up to 32x2 reaches its stated order by orbit closure alone."""
        queued = []
        queue_of = PermGroup._queue_schreier_generators

        def counting(self, i, queue):
            before = len(queue)
            queue_of(self, i, queue)
            queued.append(len(queue) - before)

        monkeypatch.setattr(PermGroup, "_queue_schreier_generators", counting)
        for k in range(3, 33):
            g = spider(*(2,) * k)
            decomposition_autgroup(make_cd(g, random_relabel(g, k)[0], k))
            assert sum(queued) == 0, k

    def test_fibre_product_base_still_checks_the_stated_order(self, monkeypatch):
        built = self.record_fibre_products(monkeypatch)
        g = spider(2, 2, 2, 2)
        assert is_isomorphic(g, random_relabel(g, 1)[0], 4).kind == ISOMORPHIC
        (degree, gens, base, order), group, _queued = built[-1]
        assert group.order() == order
        for wrong in (2 * order, order + 1):
            with pytest.raises(AssertionError):
                PermGroup(degree, gens, base, wrong)

    @staticmethod
    def class_answer_pairs():
        """(g, h, d): the bench's `chain` classes and the equal-arm spiders with
        3 to 32 arms against relabellings, `pendant_swap_pair` seeds 0-149, and
        the bench's `dense` classes against relabellings by seed 5."""
        chain = [(path_power(20 + k, k), 2) for k in (1, 2, 3)] + [(spider(5, 5, 5), 3), (spider(6, 6, 6), 3)]
        spiders = [(spider(*(2,) * k), k) for k in range(3, 33)]
        pairs = [(g, random_relabel(g, i)[0], d) for i, (g, d) in enumerate(chain + spiders)]
        pairs += [pendant_swap_pair(seed) for seed in range(150)]
        dense = [(random_t_graph(d, 30, s)[0], d) for d in (3, 4, 5) for s in range(4)]
        return pairs + [(g, random_relabel(g, 5)[0], d) for g, d in dense]

    def test_class_answers_agree_with_the_chain(self, monkeypatch):
        """Every counted level a decomposition group reads gets `level_group`'s
        chain, built at the level's stated order, so that order is checked
        here. Against it, on each level below the deepest:
        `LevelAction.carry` returns None exactly when `find_element` does, and
        otherwise an element of the chain with the prescribed origin map;
        `LevelAction.fixer`'s generators lie in the chain's pointwise
        stabiliser of the origins and reach its order at the stated one, so
        they generate it. The levels are asked the origin maps the tower
        asks, and random ones too, some from a prefix of the origins onto any host."""
        carry, fixer = iso.LevelAction.carry, iso.LevelAction.fixer
        asked, fixed = [], []
        monkeypatch.setattr(iso.LevelAction, "carry", lambda self, images: asked.append((self, images)) or carry(self, images))
        monkeypatch.setattr(iso.LevelAction, "fixer", lambda self, origins: fixed.append((self, origins)) or fixer(self, origins))
        rng = random.Random(42)
        answers = defaultdict(int)
        for g, h, d in self.class_answer_pairs():
            cd = make_cd(g, h, d)
            if cd is None or cd.depth < 2:
                continue
            asked.clear()
            fixed.clear()
            decomposition_autgroup(cd)
            level_of = {id(action): level for level, action in cd.level_actions.items()}
            for level, action in cd.level_actions.items():
                if action.counted is not None:
                    assert level_group(cd, level).order() == action.counted
                    answers["chain"] += 1
            for action, origins in fixed:
                lam = level_group(cd, level_of[id(action)])
                # every fragment below the top level is an origin, so half of
                # them (a prefix of the chain's base) leave members to swap
                for points in (origins, origins[: len(origins) // 2]):
                    gens, base, order = fixer(action, points)
                    assert order == lam.stabilizer(points).order()
                    assert all(lam.contains(gen) and all(gen(o) == o for o in points) for gen in gens)
                    PermGroup(action.degree, gens, base, order)  # raises unless the chain reaches that order
                hosts = sorted({m[0] for members in action.classes for m in members} | set(origins))
                for _ in range(4):
                    asked.append((action, dict(zip(origins, rng.sample(origins, len(origins))))))
                    asked.append((action, {o: rng.choice(origins) for o in origins}))
                    asked.append((action, {o: rng.choice(hosts) for o in origins[: rng.randint(1, len(origins))]}))
            for action, images in asked:
                lam = level_group(cd, level_of[id(action)])
                got, want = carry(action, images), find_element(lam, images)
                assert (got is None) == (want is None), images
                if got is not None:
                    assert lam.contains(got) and all(got(x) == y for x, y in images.items())
                answers[got is None, got is not None and not got.is_identity()] += 1
            answers["fixer"] += len(fixed)
        assert answers[True, False] > 100 and answers[False, True] > 100 and answers["fixer"] > 100
        assert answers["chain"] > answers["fixer"]

    def test_counted_levels_build_no_chain(self, monkeypatch):
        """A decision reads every counted level off its classes: no level
        chain, no sift and no stabiliser; only the fibre products are chains."""
        calls, cds = [], []
        for name in ("level_group", "find_element"):
            original = getattr(iso, name)
            monkeypatch.setattr(iso, name, lambda *args, name=name, f=original: calls.append(name) or f(*args))
        stabilizer = PermGroup.stabilizer
        monkeypatch.setattr(PermGroup, "stabilizer", lambda self, points: calls.append("stabilizer") or stabilizer(self, points))
        autgroup = iso.decomposition_autgroup
        monkeypatch.setattr(iso, "decomposition_autgroup", lambda cd: cds.append(cd) or autgroup(cd))
        for g, d in ((spider(5, 5, 5), 3), (spider(6, 6, 6), 3), (spider(*(2,) * 8), 8)):
            assert is_isomorphic(g, random_relabel(g, 1)[0], d).kind == ISOMORPHIC
        assert len(cds) == 3 and calls == []
        assert all(action.counted is not None for cd in cds for action in cd.level_actions.values())

    def test_tower_bound_only_when_a_stage_cuts(self, monkeypatch):
        """`_tower_bound` is computed only when an a2 stage cuts, and the stage
        then reads the same bound as one computed up front."""
        import tgraphs.perm as perm

        read, computed = [], []
        fhl_subgroup, tower_bound = perm.fhl_subgroup, iso._tower_bound
        monkeypatch.setattr(perm, "fhl_subgroup", lambda group, pred: read.append(pred.index_bound) or fhl_subgroup(group, pred))
        monkeypatch.setattr(iso, "_tower_bound", lambda cd: computed.append(cd) or tower_bound(cd))
        for i, (g, d) in enumerate(((spider(5, 5, 5), 3), (spider(6, 6, 6), 3), (spider(*(2,) * 8), 8))):
            assert is_isomorphic(g, random_relabel(g, i)[0], d).kind == ISOMORPHIC
        assert read == computed == []
        cuts = 0
        for seed in range(150):
            cd = make_cd(*pendant_swap_pair(seed))
            if cd is None:
                continue
            read.clear()
            computed.clear()
            decomposition_autgroup(cd)
            assert len(computed) == (1 if read else 0)
            if read:
                cuts += 1
                assert set(read) == {tower_bound(cd)}
        assert cuts > 10

    def test_single_level_equals_lambda(self):
        g = path_graph(4)
        cd = make_cd(g, g, 2)
        group = decomposition_autgroup(cd)
        lam = level_group(cd, 1)
        assert group.order() == lam.order()


class TestLift:
    def test_identity_lifts(self):
        g = subdivided_claw()
        cd = make_cd(g, g, 3)
        from tgraphs.perm import Perm

        sigma = lift_to_vertices(cd, Perm.identity(cd.degree))
        for cf in cd.fragments:
            assert sigma.image_of_set(cf.vertices) == cf.vertices

    def test_swap_lifts_to_cross_isomorphism(self):
        g = subdivided_claw()
        h, p = random_relabel(g, 3)
        cd = make_cd(g, h, 3)
        group = decomposition_autgroup(cd)
        swap = iso._side_swap(cd, group)
        assert swap is not None
        sigma = lift_to_vertices(cd, swap)
        for v in range(g.n):
            assert sigma(v) >= g.n

    def test_every_group_element_lifts(self):
        g, _ = random_t_graph(3, 7, 123)
        if not g.is_connected():
            pytest.skip("connected instance needed")
        # the subdivided claw and the 3x3 spider put six isomorphic tips in one bucket
        for h in (g, subdivided_claw(), spider(3, 3, 3)):
            cd = make_cd(h, h, 3)
            group = decomposition_autgroup(cd)
            for gen in group.generators:
                lift_to_vertices(cd, gen)  # verifies internally

    @staticmethod
    def deep_inputs():
        """A seeded stream of (graph, d) of depth 2 or more: random T-graphs
        with d from 3 to 5 and n up to 30, spiders and the branch graph."""
        out = [(connected_t_graph(3 + i % 3, 12 + 3 * (i % 7), 7100 + 50 * i), 3 + i % 3) for i in range(36)]
        out += [(spider(*arms), len(arms)) for arms in ((2, 2, 3), (3, 3, 3), (1, 2, 2, 2), (2,) * 6)]
        out.append((branch_graph_with_pendants(), 3))
        return [(g, d) for g, d in out if canonical_decomposition(g, d).depth >= 2]

    def test_every_generator_lifts_on_deep_inputs(self):
        multi_vertex_marks = 0
        for i, (g, d) in enumerate(self.deep_inputs()):
            h, _ = random_relabel(g, i)
            cd = make_cd(g, h, d)
            multi_vertex_marks += sum(len(t.vertices) > 1 for t in cd.terminals)
            group = decomposition_autgroup(cd)
            swap = iso._side_swap(cd, group)
            assert swap is not None
            for p in group.generators + (swap,):
                sigma = lift_to_vertices(cd, p)  # checks the edges and the action on the domain
                assert project_automorphism(cd, sigma) == p
        assert multi_vertex_marks > 0

    def test_lift_searches_nothing(self, monkeypatch):
        import tgraphs.interval as interval
        import tgraphs.perm as perm

        calls = []

        def counting(owner, name):
            original = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *args, **kw: calls.append(name) or original(*args, **kw))

        g = branch_graph_with_pendants()
        cd = make_cd(g, random_relabel(g, 7)[0], 3)
        group = decomposition_autgroup(cd)
        swap = iso._side_swap(cd, group)
        for owner, name in ((iso, "find_element"), (perm, "find_element"),
                            (interval, "_realize_vertex_map"), (PermGroup, "_with_base_prefix")):
            counting(owner, name)
        for p in group.generators + (swap,):
            lift_to_vertices(cd, p)
        assert calls == []

    def test_permutation_outside_the_group_raises(self):
        from tgraphs.perm import Perm

        rng = random.Random(3)
        g = branch_graph_with_pendants()
        cd = make_cd(g, random_relabel(g, 7)[0], 3)
        group = decomposition_autgroup(cd)
        classes = defaultdict(list)  # points of one kind and level
        for pt, (kind, ident) in enumerate(cd.point_kind):
            level = cd.fragments[ident].level if kind == "frag" else cd.terminals[ident].level
            classes[(kind, level)].append(pt)
        outside = 0
        for _ in range(40):
            images = list(range(cd.degree))
            for points in classes.values():
                shuffled = points[:]
                rng.shuffle(shuffled)
                for a, b in zip(points, shuffled):
                    images[a] = b
            p = Perm(images)
            if group.contains(p):
                assert project_automorphism(cd, lift_to_vertices(cd, p)) == p
            else:
                outside += 1
                with pytest.raises(AssertionError):
                    lift_to_vertices(cd, p)
        assert outside > 30

    # two shards of pendant_pair_body(1, 2)'s body exchanged, everything else
    # fixed: no automorphism of the body exchanges them
    OUTSIDE_SCRIPT = """
from tgraphs.decompose import canonical_decomposition
from tgraphs.graph import Graph
from tgraphs.iso import combine, lift_to_vertices
from tgraphs.perm import Perm
edges = [(i, i + 1) for i in range(5)] + [(1, 6), (6, 7), (2, 8), (8, 9), (8, 10), (9, 10)]
dec = canonical_decomposition(Graph(11, edges), 4)
cd = combine(dec, dec)
first, *_, last = [cd.term_point[t.tid] for t in cd.terminals if t.host_gid == cd.terminals[0].host_gid]
images = list(range(cd.degree))
images[first], images[last] = last, first
lift_to_vertices(cd, Perm(images))
"""

    def test_outside_permutation_raises_under_python_O(self):
        import os
        import subprocess

        import tgraphs

        src = os.path.dirname(os.path.dirname(os.path.abspath(tgraphs.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-O", "-c", self.OUTSIDE_SCRIPT], capture_output=True, text=True, env=env)
        assert run.returncode != 0
        assert "AssertionError: no host isomorphism carries the fragment's shards as prescribed" in run.stderr, run.stderr

    def test_equal_arm_spider_lift_is_fast(self):
        g = spider(*(2,) * 32)
        cd = make_cd(g, random_relabel(g, 5)[0], 32)
        swap = iso._side_swap(cd, decomposition_autgroup(cd))
        start = time.perf_counter()
        lift_to_vertices(cd, swap)
        assert time.perf_counter() - start < 0.1


class TestSideSwap:
    """The decision reads the side swap off the final chain's first level
    (`iso._side_swap`): no chain rebuild and no backtracking search."""

    @staticmethod
    def deep_pairs():
        """A seeded stream of (g, h, d): the deep inputs against relabellings,
        `pendant_swap_pair` seeds 0-299, and connected random T-graphs of equal
        d, n and m, paired by draw order. Not every pair has depth 2 or more."""
        pairs = [(g, random_relabel(g, i)[0], d) for i, (g, d) in enumerate(TestLift.deep_inputs())]
        pairs += [pendant_swap_pair(seed) for seed in range(300)]
        drawn = defaultdict(list)
        for s in range(400):
            d = 3 + s % 3
            g = connected_t_graph(d, 20 + 4 * (s % 3), 8300 + 50 * s)
            drawn[(d, g.n, g.m)].append(g)
        pairs += [(g, h, d) for (d, _n, _m), gs in drawn.items() for g, h in zip(gs, gs[1:])]
        return pairs

    def test_chain_read_agrees_with_block_swap_search(self):
        found = {True: 0, False: 0}
        for g, h, d in self.deep_pairs():
            cd = make_cd(g, h, d)
            if cd is None or cd.depth < 2:
                continue
            group = decomposition_autgroup(cd)
            swap = iso._side_swap(cd, group)
            reference = find_block_swap(group, cd.side_points(0), cd.side_points(1))
            assert (swap is None) == (reference is None)
            if swap is not None:
                sigma = lift_to_vertices(cd, swap)  # checks the edges and the action on the domain
                assert all(sigma(v) >= cd.n1 for v in range(cd.n1))
            found[swap is not None] += 1
        assert found[True] > 40 and found[False] > 100

    def test_no_levels_read_none_and_a_partial_crossing_raises(self):
        g = subdivided_claw()
        cd = make_cd(g, random_relabel(g, 3)[0], 3)
        assert iso._side_swap(cd, PermGroup(cd.degree)) is None
        # not a decomposition group: it moves one point across and leaves the rest
        a, b = cd.side_points(0)[0], cd.side_points(1)[0]
        with pytest.raises(AssertionError):
            iso._side_swap(cd, PermGroup(cd.degree, [Perm.from_cycles(cd.degree, [(a, b)])]))

    def test_decision_rebuilds_no_chain_and_searches_nothing(self, monkeypatch):
        import tgraphs.interval as interval
        import tgraphs.perm as perm

        rebuilt, searched = [], []
        prefix = PermGroup._with_base_prefix

        def recording(group, points):
            chain = prefix(group, points)
            if chain is not group:
                rebuilt.append(len(points))
            return chain

        monkeypatch.setattr(PermGroup, "_with_base_prefix", recording)
        for module in (perm, interval):
            original = module.find_block_swap
            monkeypatch.setattr(module, "find_block_swap", lambda *args, f=original: searched.append(args) or f(*args))
        for g, d in ((spider(5, 5, 5), 3), (spider(*(2,) * 8), 8), (branch_graph_with_pendants(), 3)):
            assert is_isomorphic(g, random_relabel(g, 1)[0], d).kind == ISOMORPHIC
        assert rebuilt == [] and searched == []


def branch_graph_with_pendants():
    """Three interval branches on cut vertices of a junction, each branch end
    extended by a pendant path: simplicial, separator and residual levels."""
    edges = []
    for b in (1, 5, 9):
        x, y, z = b + 1, b + 2, b + 3
        edges += [(0, b), (b, x), (b, y), (b, z), (x, y), (y, z)]
    for end, nxt in ((4, 13), (8, 15), (12, 17)):
        edges += [(end, nxt), (nxt, nxt + 1)]
    return Graph(19, edges)


class TestTreeReuse:
    """Each fragment's PQ-tree is built by the decomposition, once per distinct
    fragment graph of a side, and the level groups and the lift read it from there."""

    @staticmethod
    def record_builds(monkeypatch) -> list:
        import tgraphs.decompose as decompose
        import tgraphs.interval as interval

        built = []
        original = interval.build_pq_tree

        def recording(g):
            built.append(original(g))
            return built[-1]

        def forbidden(host):
            raise AssertionError("a decision split a marked host to rebuild its trees")

        for module in (decompose, interval):
            monkeypatch.setattr(module, "build_pq_tree", recording)
        monkeypatch.setattr(interval, "_component_trees", forbidden)
        return built

    def test_relabelled_path_builds_two_trees(self, monkeypatch):
        g = path_graph(21)
        h, _ = random_relabel(g, 3)
        built = self.record_builds(monkeypatch)
        assert is_isomorphic(g, h, 2).kind == ISOMORPHIC
        assert len(built) == 2  # each side is one residual fragment

    def test_no_fragment_tree_built_twice(self, monkeypatch):
        import tgraphs.interval as interval

        g = branch_graph_with_pendants()
        h, _ = random_relabel(g, 7)
        built = self.record_builds(monkeypatch)
        bucket_hosts = []  # the hosts of each level bucket's action, on either path
        for name in ("marked_set_action", "family_set_action"):
            inner = getattr(iso, name)
            monkeypatch.setattr(iso, name, lambda hosts, f=inner: bucket_hosts.append(hosts) or f(hosts))
        cd = make_cd(g, h, 3)
        assert cd.depth >= 2
        assert {cf.provenance for cf in cd.fragments} == {"simplicial", "separator", "residual"}
        decomposed = len(built)
        group = decomposition_autgroup(cd)
        lift_to_vertices(cd, iso._side_swap(cd, group))
        assert len(built) == decomposed  # the level groups and the lift build none
        own = {cf.gid: cf.tree if cf.completion is None else cf.completion.tree for cf in cd.fragments}
        for side in (0, 1):
            trees = [own[cf.gid] for cf in cd.fragments if cf.side == side]
            # equal completions share their tree, and distinct graphs have their own
            assert len({id(tree) for tree in trees}) == len({(t.graph.n, t.graph.edges) for t in trees})
            assert len({id(tree) for tree in trees}) < len(trees)
        for cf in cd.fragments:
            if cf.completion is not None:
                assert own[cf.gid].graph.edges == cf.completion.graph.edges
        fragment_of = {id(cf.marked): cf for cf in cd.fragments}
        assert sum(map(len, bucket_hosts)) == len(cd.fragments)
        for hosts in bucket_hosts:
            trees = [id(own[fragment_of[id(m)].gid]) for m in hosts]
            assert [id(m.component_trees()[0][0]) for m in hosts] == trees
            # the union a bucket's family group encodes carries its parts' trees too
            enc = interval._marked_encoding(interval.marked_union(hosts)[0])
            assert list(map(id, enc.trees)) == trees
        assert len(built) == decomposed

class TestSingletonMarks:
    """On the 3-arm spiders every bucket's marked sets are singletons, so its
    action is read off the coloured PQ-trees, with no set family encoded,
    and each tree's canonical forms are computed once."""

    @staticmethod
    def count(monkeypatch, name, owner=None) -> list:
        import tgraphs.interval as interval

        owner = owner or interval
        calls = []
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda arg: calls.append(arg) or original(arg))
        return calls

    def test_no_family_search_on_a_spider_pair(self, monkeypatch):
        searched = self.count(monkeypatch, "family_autgroup")
        encoded = self.count(monkeypatch, "_marked_encoding")
        read = self.count(monkeypatch, "marked_set_action", iso)
        g = spider(6, 6, 6)
        assert is_isomorphic(g, random_relabel(g, 1)[0], 3).kind == ISOMORPHIC
        assert (len(searched), len(encoded), len(read)) == (0, 0, 6)

    def test_canonical_forms_once_per_tree(self, monkeypatch):
        computed = self.count(monkeypatch, "_canonical_forms")
        g = spider(6, 6, 6)
        assert is_isomorphic(g, random_relabel(g, 1)[0], 3).kind == ISOMORPHIC
        assert len(computed) == len({id(tree) for tree in computed}) == 4


class TestIsIsomorphic:
    def test_identity_instance(self):
        g = subdivided_claw()
        verdict = is_isomorphic(g, g, 3)
        assert verdict.kind == ISOMORPHIC
        assert list(verdict.witness) is not None

    def test_p4_vs_claw_not_isomorphic(self):
        verdict = is_isomorphic(path_graph(4), star_graph(3), 3)
        assert verdict.kind == NOT_ISOMORPHIC

    def test_non_chordal_is_not_t_graph(self):
        verdict = is_isomorphic(path_graph(4), cycle_graph(4), 3)
        assert verdict.kind == NOT_T_GRAPH
        assert verdict.evidence is not None

    def test_relabeled_pair(self):
        g = subdivided_claw()
        h, p = random_relabel(g, 9)
        verdict = is_isomorphic(g, h, 3)
        assert verdict.kind == ISOMORPHIC
        for u, v in g.edges:
            assert h.has_edge(verdict.witness[u], verdict.witness[v])

    def test_complete_graphs(self):
        verdict = is_isomorphic(complete_graph(5), complete_graph(5), 2)
        assert verdict.kind == ISOMORPHIC

    def test_empty_graphs(self):
        verdict = is_isomorphic(Graph(0), Graph(0), 2)
        assert verdict.kind == ISOMORPHIC

    def test_disconnected_multiset_matching(self):
        g1 = path_graph(3).union_disjoint(path_graph(5))
        g2 = path_graph(5).union_disjoint(path_graph(3))
        verdict = is_isomorphic(g1, g2, 2)
        assert verdict.kind == ISOMORPHIC
        for u, v in g1.edges:
            assert g2.has_edge(verdict.witness[u], verdict.witness[v])

    def test_disconnected_counts_differ(self):
        g1 = path_graph(3).union_disjoint(path_graph(3))
        g2 = path_graph(6)
        assert is_isomorphic(g1, g2, 2).kind == NOT_ISOMORPHIC

    def test_component_matching_runs_one_decision_per_component(self, monkeypatch):
        calls = []
        original = iso._connected_isomorphism

        def counting(part1, part2):
            calls.append(part1[0].graph.n)
            return original(part1, part2)

        monkeypatch.setattr(iso, "_connected_isomorphism", counting)
        g = Graph(0)
        for _ in range(12):
            g = g.union_disjoint(path_graph(3))
        h, _ = random_relabel(g, 12)
        assert is_isomorphic(g, h, 2).kind == ISOMORPHIC
        assert len(calls) == 12

    def test_components_with_equal_keys_not_isomorphic(self):
        a, b = spider(2, 2, 3), spider(1, 3, 3)
        assert (a.n, a.m, sorted(map(a.degree, a.vertices()))) == (b.n, b.m, sorted(map(b.degree, b.vertices())))
        g1 = a.union_disjoint(b).union_disjoint(a)
        g2, _ = random_relabel(b.union_disjoint(a).union_disjoint(a), 5)
        verdict = is_isomorphic(g1, g2, 3)
        assert verdict.kind == ISOMORPHIC
        for u, v in g1.edges:
            assert g2.has_edge(verdict.witness[u], verdict.witness[v])
        assert is_isomorphic(a.union_disjoint(a), a.union_disjoint(b), 3).kind == NOT_ISOMORPHIC

    def test_same_key_spider_union(self, monkeypatch):
        """18 pairwise non-isomorphic spiders sharing one component key: each
        component is decomposed once, and only depth-2 components with equal
        invariants reach the tower, one tower each."""
        arms = SAME_KEY_SPIDERS[:18]
        depths = [canonical_decomposition(spider(*a), 3).depth for a in arms]
        assert depths.count(1) == 14 and depths.count(2) == 4
        g = Graph(0)
        for a in arms:
            g = g.union_disjoint(spider(*a))
        h, _ = random_relabel(g, 1)
        decomposed, towers = [], []
        inner_dec, inner_aut = iso.canonical_decomposition, iso.decomposition_autgroup
        monkeypatch.setattr(iso, "canonical_decomposition", lambda sub, d: decomposed.append(sub) or inner_dec(sub, d))
        monkeypatch.setattr(iso, "decomposition_autgroup", lambda cd: towers.append(cd) or inner_aut(cd))
        start = time.perf_counter()
        verdict = is_isomorphic(g, h, 3)
        elapsed = time.perf_counter() - start
        assert verdict.kind == ISOMORPHIC
        w = verdict.witness
        assert sorted(w) == list(range(h.n)) and all(h.has_edge(w[u], w[v]) for u, v in g.edges)
        assert len(decomposed) == len(set(decomposed)) <= 2 * len(arms)
        assert len(towers) == depths.count(2)
        assert elapsed < 1.0

    def test_first_component_decides_the_verdict_kind(self):
        """Components are decomposed in the greedy order, so a NotTGraph from a
        component the match never reaches cannot change the verdict."""
        a, b, c = spider(2, 2, 3), spider(1, 3, 3), spider(2, 2, 2, 2)  # c has 4 leaves, beyond d = 3
        assert is_isomorphic(a.union_disjoint(c), b.union_disjoint(c), 3).kind == NOT_ISOMORPHIC
        assert is_isomorphic(c.union_disjoint(a), c.union_disjoint(b), 3).kind == NOT_T_GRAPH

    def test_many_disjoint_copies(self):
        g = Graph(0)
        for _ in range(160):
            g = g.union_disjoint(path_graph(3))
        h, _ = random_relabel(g, 160)
        verdict = is_isomorphic(g, h, 2)
        assert verdict.kind == ISOMORPHIC
        assert all(h.has_edge(verdict.witness[u], verdict.witness[v]) for u, v in g.edges)

    def test_decide_up_to(self):
        g = subdivided_claw()
        h, _ = random_relabel(g, 4)
        verdict = decide_up_to(g, h, 4)
        assert verdict.kind == ISOMORPHIC

    def test_decide_up_to_tests_chordality_once_per_input(self, monkeypatch):
        passes = []
        real = chordal._elimination_pass
        monkeypatch.setattr(chordal, "_elimination_pass", lambda g: passes.append(g) or real(g))
        verdict = decide_up_to(cycle_graph(5), cycle_graph(5), 10**4)
        assert len(passes) <= 2
        assert (verdict.kind, verdict.d, verdict.witness) == (NOT_T_GRAPH, 10**4, None)
        assert verdict.evidence == {"reason": "input graph is not chordal"}

    def test_decide_up_to_matches_the_per_d_loop(self):
        def per_d(g1, g2, d_max):
            """The first decisive verdict over d = 2..d_max, else d_max's, one decision per d."""
            last = None
            for d in range(2, d_max + 1):
                last = is_isomorphic(g1, g2, d)
                if last.kind != NOT_T_GRAPH:
                    break
            return last

        reported = defaultdict(int)
        for seed in range(12):
            rng = random.Random(seed)
            d = rng.choice([2, 3, 4])
            g, _ = random_t_graph(d, rng.randint(2, 14), 8100 + seed)
            other, _ = random_t_graph(d, g.n, 8200 + seed)
            arms = sorted(rng.randint(1, 3) for _ in range(rng.choice([4, 5])))
            s = spider(*arms)
            moved = spider(arms[0] + 1, *arms[1:-1], arms[-1] - 1)  # same n and m
            cycle = cycle_graph(rng.randint(4, 6))
            pairs = [
                (g, random_relabel(g, seed)[0]),
                (g, other),
                (s, random_relabel(s, seed)[0]),
                (s, moved),
                (g.union_disjoint(s), random_relabel(s.union_disjoint(g), seed)[0]),
                (g.union_disjoint(s), other.union_disjoint(moved)),
                (g.union_disjoint(cycle), random_relabel(cycle.union_disjoint(g), seed)[0]),
            ]
            for g1, g2 in pairs:
                for d_max in range(2, 7):
                    got, want = decide_up_to(g1, g2, d_max), per_d(g1, g2, d_max)
                    assert (got.kind, got.d, got.witness, got.evidence) == (want.kind, want.d, want.witness, want.evidence)
                    reported[got.kind, got.d == d_max, got.d > 2] += 1
        # the stream reaches verdicts below d_max above 2, and NOT_T_GRAPH
        assert reported[ISOMORPHIC, False, True] and reported[NOT_ISOMORPHIC, False, True]
        assert reported[NOT_T_GRAPH, True, True]

    @pytest.mark.parametrize("d_max", [1, 0, -5])
    def test_decide_up_to_rejects_d_max_below_2(self, d_max):
        g = path_graph(3)
        with pytest.raises(ValueError):
            decide_up_to(g, g, d_max)

    @pytest.mark.parametrize("seed", range(40))
    def test_agrees_with_brute_force(self, seed):
        rng = random.Random(seed)
        d = rng.choice([2, 3, 4])
        n = rng.randint(1, 9)
        g1, _ = random_t_graph(d, n, 2000 + seed)
        if seed % 2 == 0:
            g2, _ = random_relabel(g1, seed)
            g2 = g2[0] if isinstance(g2, tuple) else g2
        else:
            g2, _ = random_t_graph(d, n, 3000 + seed)
        verdict = is_isomorphic(g1, g2, d)
        assert verdict.kind != NOT_T_GRAPH, verdict.evidence
        expected = brute_force_isomorphism(g1, g2) is not None
        assert (verdict.kind == ISOMORPHIC) == expected
        if verdict.kind == ISOMORPHIC:
            for u, v in g1.edges:
                assert g2.has_edge(verdict.witness[u], verdict.witness[v])

    @pytest.mark.parametrize("chunk", range(4))
    def test_d6_stream(self, chunk):
        """Random T-graphs on six-leaf skeletons, each against a relabelled copy
        and another draw: brute force is the truth up to n = 12, the construction
        above it (a relabelling is isomorphic; a draw that colour refinement
        separates is not). Six-arm spiders with one arm vertex moved keep n, m
        and the degrees, so they reach the decomposition when not isomorphic."""
        reached = defaultdict(int)
        for s in range(50 * chunk, 50 * chunk + 50):
            n = 2 + s % 29
            g = random_t_graph(6, n, 9000 + s)[0]
            pairs = [(g, random_relabel(g, s)[0], True)]
            if n <= 12:
                other = random_t_graph(6, n, 9500 + s)[0]
                pairs.append((g, other, brute_force_isomorphism(g, other) is not None))
            else:
                draws = (random_t_graph(6, n, 9500 + 1000 * k + s)[0] for k in range(20))
                pairs.append((g, next(h for h in draws if refinement_separates(g, h)), False))
            if n > 8:  # eight or more arm vertices on six arms leave a move that changes the lengths
                cuts = sorted(random.Random(s).sample(range(1, n - 1), 5))
                arms = [b - a for a, b in zip([0] + cuts, cuts + [n - 1])]
                moves = ([a - (k == i) + (k == j) for k, a in enumerate(arms)] for i in range(6) for j in range(6))
                moved = next(b for b in moves if min(b) > 0 and sorted(b) != sorted(arms))
                pairs.append((spider(*arms), random_relabel(spider(*moved), s)[0], False))
            for g1, g2, truth in pairs:
                verdict = is_isomorphic(g1, g2, 6)
                assert verdict.kind == (ISOMORPHIC if truth else NOT_ISOMORPHIC), verdict.evidence
                if truth:
                    assert all(g2.has_edge(verdict.witness[u], verdict.witness[v]) for u, v in g1.edges)
                reached[truth, n > 12] += 1
        assert all(reached[truth, big] >= 10 for truth in (False, True) for big in (False, True))

    @pytest.mark.parametrize("arms", [(2, 2, 2, 2, 2), (3, 3, 3, 3), (40, 40)], ids=["5x2", "4x3", "2x40"])
    def test_equal_arm_spider(self, arms):
        g = spider(*arms)
        h, _ = random_relabel(g, 5)
        verdict = is_isomorphic(g, h, len(arms))
        assert verdict.kind == ISOMORPHIC
        for u, v in g.edges:
            assert h.has_edge(verdict.witness[u], verdict.witness[v])

    def test_chordality_is_tested_once_per_input(self, monkeypatch):
        # every module binding of is_chordal is wrapped, as bench/spans.py does
        calls = {"is_chordal": 0, "elimination": 0, "components": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        original = chordal.is_chordal
        for name, mod in list(sys.modules.items()):
            if (name == "tgraphs" or name.startswith("tgraphs.")) and getattr(mod, "is_chordal", None) is original:
                monkeypatch.setattr(mod, "is_chordal", counting("is_chordal", original))
        monkeypatch.setattr(chordal, "_elimination_pass", counting("elimination", chordal._elimination_pass))
        monkeypatch.setattr(graph, "_search_components", counting("components", graph._search_components))
        g = spider(5, 5, 6)
        h, _ = random_relabel(g, 3)
        assert is_isomorphic(g, h, 3).kind == ISOMORPHIC
        assert calls["is_chordal"] == 2
        # one elimination pass per distinct graph, kept on it: per side the input
        # and its four smaller residues; the one completion graph that all 12
        # completions share is a clique completion, built in closed form with
        # no pass; each graph's components come off its pass
        assert calls["elimination"] == 10
        assert calls["components"] == 0

    def test_verdict_json(self):
        verdict = is_isomorphic(path_graph(3), path_graph(3), 2)
        data = verdict.to_json_dict()
        assert data["verdict"] == "isomorphic"
        assert data["d"] == 2
        assert isinstance(data["witness"], list)


def pendant_pair_body(p2_at, lollipop_at):
    """A path 0-5 with a pendant P2 (6-7) on one body vertex and a pendant
    lollipop (8 on the body, triangle 8, 9, 10) on another."""
    edges = [(i, i + 1) for i in range(5)]
    edges += [(p2_at, 6), (6, 7), (lollipop_at, 8), (8, 9), (8, 10), (9, 10)]
    return Graph(11, edges)


class TestConstraintTower:
    """Swapping the two pendants leaves every level group able to match the
    sides; only the a2 stage, which ties the pendants to their attachment
    points, tells the graphs apart."""

    @staticmethod
    def record_tower(monkeypatch):
        stages = []
        original = iso.tower_of_groups

        def recording(g0, preds):
            kept = original(g0, preds)
            stages.append(([p.name for p in preds], g0.order(), kept.order()))
            return kept

        monkeypatch.setattr(iso, "tower_of_groups", recording)
        return stages

    def test_swapped_pendants_cut_by_a2(self, monkeypatch):
        g, h = pendant_pair_body(1, 2), pendant_pair_body(2, 1)
        stages = self.record_tower(monkeypatch)
        verdict = is_isomorphic(g, h, 4)
        assert verdict.kind == NOT_ISOMORPHIC
        assert brute_force_isomorphism(g, h) is None
        assert (["a2-1"], 2) in [(names, before // after) for names, before, after in stages]

    def test_pendant_swap_stream(self, monkeypatch):
        """`harness.pendant_swap_pair`'s seeded stream: every verdict is right
        (brute force up to n = 12; above it, on trees, colour refinement,
        which decides tree isomorphism), every witness verifies, and some a2
        stage cuts with index above 1."""
        stages = self.record_tower(monkeypatch)
        small = trees = 0
        for seed in range(150):
            g, h, d = pendant_swap_pair(seed)
            verdict = is_isomorphic(g, h, d)
            assert verdict.kind in (ISOMORPHIC, NOT_ISOMORPHIC), seed
            if verdict.kind == ISOMORPHIC:
                w = verdict.witness
                assert sorted(w) == list(range(h.n)) and all(h.has_edge(w[u], w[v]) for u, v in g.edges)
            if g.n <= 12:
                small += 1
                assert (brute_force_isomorphism(g, h) is not None) == (verdict.kind == ISOMORPHIC), seed
            elif g.m == g.n - 1:
                trees += 1
                assert refinement_separates(g, h) == (verdict.kind == NOT_ISOMORPHIC), seed
        assert small > 50 and trees > 10
        cuts = {names[0] for names, before, after in stages if names[0].startswith("a2") and before > after}
        assert "a2-1" in cuts and len(cuts) > 1

    def test_relabelled_copy_isomorphic(self):
        g = pendant_pair_body(1, 2)
        h, _ = random_relabel(g, 3)
        verdict = is_isomorphic(g, h, 4)
        assert verdict.kind == ISOMORPHIC
        for u, v in g.edges:
            assert h.has_edge(verdict.witness[u], verdict.witness[v])


def random_interval_graph(n, rng):
    """The intersection graph of n integer intervals, each starting below n
    and at most 4 long."""
    spans = [(a, a + rng.randint(0, 4)) for a in (rng.randrange(n) for _ in range(n))]
    meets = lambda u, v: spans[u][0] <= spans[v][1] and spans[v][0] <= spans[u][1]
    return Graph(n, [(u, v) for u, v in combinations(range(n), 2) if meets(u, v)])


def interval_bucket_pairs(draws, seed):
    """Connected random interval graphs (n from 4 to 10) bucketed by (n, m,
    degree sequence), at most four to a bucket: every pair inside a bucket of
    two or more, plus each of those graphs against a relabelled copy."""
    rng = random.Random(seed)
    buckets = defaultdict(list)
    for _ in range(draws):
        g = random_interval_graph(rng.randint(4, 10), rng)
        key = (g.n, g.m, tuple(sorted(map(g.degree, g.vertices()))))
        if g.is_connected() and len(buckets[key]) < 4:
            buckets[key].append(g)
    graphs = [g for gs in buckets.values() if len(gs) > 1 for g in gs]
    pairs = [pair for gs in buckets.values() for pair in combinations(gs, 2)]
    return pairs + [(g, random_relabel(g, i)[0]) for i, g in enumerate(graphs)]


class TestIntervalRootCodes:
    """A decision of depth 1 (each side one interval residue) is read off the
    two residual PQ-trees' root codes, with no level group or tower."""

    def test_agrees_with_brute_force_and_the_group_path(self):
        pairs = interval_bucket_pairs(3000, 20)
        truths = []
        for g1, g2 in pairs:
            truth = brute_force_isomorphism(g1, g2) is not None
            verdict = is_isomorphic(g1, g2, 2)
            assert verdict.kind == (ISOMORPHIC if truth else NOT_ISOMORPHIC)
            if truth:
                w = verdict.witness
                assert sorted(w) == list(range(g2.n)) and all(g2.has_edge(w[u], w[v]) for u, v in g1.edges)
            cd = make_cd(g1, g2, 2)
            assert cd.depth == 1
            swap = find_block_swap(decomposition_autgroup(cd), cd.side_points(0), cd.side_points(1))
            assert (swap is not None) == truth
            truths.append(truth)
        assert len(pairs) > 1000 and truths.count(False) > 100

    def test_union_of_paths_builds_no_level_group(self, monkeypatch):
        calls = []
        inner = iso.level_group
        monkeypatch.setattr(iso, "level_group", lambda cd, level: calls.append(level) or inner(cd, level))
        g = Graph(36, [(3 * i + k, 3 * i + k + 1) for i in range(12) for k in range(2)])  # 12 copies of P3
        h, _ = random_relabel(g, 4)
        verdict = is_isomorphic(g, h, 2)
        assert verdict.kind == ISOMORPHIC
        assert all(h.has_edge(verdict.witness[u], verdict.witness[v]) for u, v in g.edges)
        assert calls == []


class TestDecompositionInvariant:
    @pytest.mark.parametrize("chunk", range(4))
    def test_equal_on_relabelled_copies(self, chunk):
        """The decomposition commutes with relabelling, so the invariant that
        screens component pairs is equal on a graph and a relabelled copy."""
        deep = 0
        for s in range(50 * chunk, 50 * chunk + 50):
            d, n = 2 + s % 4, 5 + s % 26
            g = random_t_graph(d, n, 6000 + s)[0]
            h = random_relabel(g, s)[0]
            dec = canonical_decomposition(g, d)  # a certified T-graph: no NotTGraph
            deep += dec.depth > 1
            assert iso._invariant(dec) == iso._invariant(canonical_decomposition(h, d))
        assert deep >= 5


# Chordal graphs inside the promise (d at least the clique count) on which the
# extraction fails; a decisive verdict is right, so these pass once it is fixed.
PROMISE_GAPS = {
    "cone-over-spider-plus-two-isolated": Graph(
        10, [(0, u) for u in range(1, 10)] + [(1, 2), (2, 3), (1, 4), (4, 5), (1, 6), (6, 7)]
    ),
    "seventeen-edges": Graph(
        10,
        [(0, 1), (0, 2), (0, 3), (0, 5), (0, 6), (0, 8), (1, 2), (1, 3), (1, 4)]
        + [(1, 5), (1, 7), (1, 9), (2, 4), (2, 6), (2, 8), (4, 7), (4, 9)],
    ),
}


@pytest.mark.xfail(strict=True, reason="the extraction rejects this chordal graph inside the promise")
@pytest.mark.parametrize("name", sorted(PROMISE_GAPS))
def test_promise_gap_is_decided(name):
    g = PROMISE_GAPS[name]  # 8 maximal cliques each, so leafage at most 8
    assert is_isomorphic(g, random_relabel(g, 1)[0], 8).kind == ISOMORPHIC
