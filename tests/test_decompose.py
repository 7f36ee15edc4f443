import random

import pytest

import tgraphs.decompose as decompose
from tgraphs.chordal import is_chordal, maximal_cliques
from tgraphs.decompose import (
    attachment_sets,
    canonical_decomposition,
    extract_fragments,
)
from tgraphs.errors import NotChordal, NotTGraph
from tgraphs.graph import Graph, complete_graph, cycle_graph, path_graph, separates, star_graph
from tgraphs.harness import random_relabel, random_t_graph, random_tree
from tgraphs.interval import build_pq_tree, clique_completion_tree, pq_tree_to_text
from tgraphs.iso import ISOMORPHIC, NOT_ISOMORPHIC, NOT_T_GRAPH, is_isomorphic


def subdivided_claw():
    return Graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])


def figure_branch_graph():
    """Three interval branches, each stacked on its own cut vertex at a junction.

    Every leaf clique lives on a branch and is approx-related to its stack
    neighbor, so the extraction skips the simplicial step, finds the three
    cut vertices as joint separators, and outputs each whole branch as one
    fragment.
    """
    # 0 = junction; branches (b, x, y, z) = (1,2,3,4), (5,6,7,8), (9,10,11,12)
    edges = []
    for b in (1, 5, 9):
        x, y, z = b + 1, b + 2, b + 3
        edges += [(0, b), (b, x), (b, y), (b, z), (x, y), (y, z)]
    return Graph(13, edges)


def relations(g):
    """`_relations` over g's maximal cliques."""
    return decompose._relations(g, [frozenset(c) for c in maximal_cliques(g)])


def approx(witnesses, i, j):
    return bool(witnesses[i][j] & witnesses[j][i])


class TestCliqueRelations:
    def test_path_of_three_cliques(self):
        witnesses = relations(path_graph(4))  # cliques (0,1), (1,2), (2,3)
        # (0,1) below (1,2), witnessed by (2,3)
        assert witnesses[0][1] == {2}
        assert witnesses[1][0] == set()

    def test_claw_preceq_holds_with_witness(self):
        # removing one 2-clique of the claw isolates the other leaves
        witnesses = relations(star_graph(3))
        assert witnesses[0][1] == {2}
        assert witnesses[1][0] == {2}

    def test_claw_approx_everywhere(self):
        witnesses = relations(star_graph(3))
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert approx(witnesses, i, j)

    def test_approx_symmetric(self):
        witnesses = relations(figure_branch_graph())
        for i in range(len(witnesses)):
            for j in range(len(witnesses)):
                assert approx(witnesses, i, j) == approx(witnesses, j, i)

    def test_path_approx_false(self):
        assert not approx(relations(path_graph(4)), 0, 1)

    def test_caterpillar_approx_true(self):
        # two maximal cliques stacked on a shared cutvertex, third clique behind it
        g = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (0, 3), (0, 4)])
        assert approx(relations(g), 0, 1)  # cliques (0,1,2), (0,2,3), (0,4)

    @pytest.mark.parametrize("seed", range(10))
    def test_preceq_transitive(self, seed):
        g = None
        for s in range(300 + seed, 400 + seed):
            cand, _ = random_t_graph(3, 9, s)
            if cand.is_connected():
                g = cand
                break
        assert g is not None
        sets = [frozenset(c) for c in maximal_cliques(g)]
        m = len(sets)
        witnesses = relations(g)
        # oracle: the irreflexive per-pair definition, one separates call per candidate witness
        for i in range(m):
            for j in range(m):
                assert witnesses[i][j] == {
                    k for k in range(m) if i != j and k not in (i, j) and separates(g, sets[j], sets[i], sets[k])
                }
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    if i != j and j != k and i != k and witnesses[i][j] and witnesses[j][k]:
                        assert witnesses[i][k]


class TestExtractFragments:
    def test_claw_single_merged_fragment(self):
        # all three claw cliques are pairwise approx-related; the joint
        # separator is the center and the whole rest is one fragment
        frags = extract_fragments(star_graph(3), 3)
        assert len(frags) == 1
        assert frags[0].vertices == {1, 2, 3}
        assert frags[0].provenance == "separator"
        assert frags[0].attachments == (frozenset({0}),)

    def test_p5_two_simplicial_tips(self):
        frags = extract_fragments(path_graph(5), 2)
        assert [sorted(f.vertices) for f in frags] == [[0], [4]]
        assert all(f.provenance == "simplicial" for f in frags)
        assert frags[0].attachments == (frozenset({1}),)

    def test_complete_graph_single_fragment(self):
        frags = extract_fragments(complete_graph(4), 2)
        assert len(frags) == 1
        assert frags[0].vertices == {0, 1, 2, 3}
        assert frags[0].attachments == ()

    def test_subdivided_claw_three_tips(self):
        frags = extract_fragments(subdivided_claw(), 3)
        assert [sorted(f.vertices) for f in frags] == [[2], [4], [6]]

    def test_figure_branch_whole_interval_piece(self):
        frags = extract_fragments(figure_branch_graph(), 3)
        assert [sorted(f.vertices) for f in frags] == [[2, 3, 4], [6, 7, 8], [10, 11, 12]]
        for f, b in zip(frags, (1, 5, 9)):
            assert f.provenance == "separator"
            assert f.attachments == (frozenset({b}),)

    def test_not_chordal(self):
        with pytest.raises(NotChordal):
            extract_fragments(cycle_graph(5), 3)

    def test_bound_violation_reports_not_t_graph(self):
        # a 4-ray star needs d >= 4... its claw-like merge keeps s small, so
        # use simplicial tips instead: a subdivided 4-star has 4 incomparable
        # leaf cliques
        g = Graph(9, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6), (0, 7), (7, 8)])
        with pytest.raises(NotTGraph):
            extract_fragments(g, 3)
        frags = extract_fragments(g, 4)
        assert len(frags) == 4

    def test_fragments_disjoint_nonadjacent(self):
        for seed in range(15):
            g, _ = random_t_graph(3, 9, 600 + seed)
            if not g.is_connected():
                continue
            frags = extract_fragments(g, 3)
            assert 0 < len(frags) <= 6
            for a in range(len(frags)):
                for b in range(a + 1, len(frags)):
                    fa, fb = frags[a].vertices, frags[b].vertices
                    assert not (fa & fb)
                    assert not any(g.has_edge(u, v) for u in fa for v in fb)

    def test_completion_is_interval_for_separator_fragments(self):
        from tgraphs.interval import build_pq_tree

        frags = extract_fragments(figure_branch_graph(), 3)
        for f in frags:
            assert f.provenance == "separator"
            assert build_pq_tree(f.completion.graph) is not None


class TestCompletion:
    def test_p3_explicit(self):
        frags = extract_fragments(path_graph(3), 2)  # the simplicial tips {0} and {2}, each over {1}
        assert len(frags) == 2
        for f in frags:
            comp = f.completion
            # tip-1 plus l adjacent to 1, tail adjacent to l
            assert comp.graph.n == 4
            assert comp.graph.degree(comp.tail) == 1
            (l,) = comp.graph.adj[comp.tail]  # the contracted vertex
            sep = {i for i, label in enumerate(comp.labels) if i not in (l, comp.tail) and label not in f.vertices}
            assert len(sep) == 1
            assert set(comp.graph.adj[l]) == sep | {comp.tail}

    def test_chordal_preserved(self):
        g, _ = random_t_graph(3, 9, 11)
        if not g.is_connected():
            pytest.skip("connected instance needed")
        frags = extract_fragments(g, 3)
        for f in frags:
            assert is_chordal(f.completion.graph) is not None


class TestCliqueCompletion:
    """A completion whose fragment and nonempty separator make a clique is
    built in closed form, from the two sizes alone."""

    @pytest.mark.parametrize("frag", range(1, 13))
    def test_closed_form_tree_is_the_built_tree(self, frag):
        for sep in range(1, 13):
            k = frag + sep
            g = Graph(k + 2, [(u, v) for u in range(k) for v in range(u + 1, k)] + [(z, k) for z in range(frag, k)] + [(k, k + 1)])
            closed, built = clique_completion_tree(frag, sep), build_pq_tree(g)
            assert closed.graph == g and closed.cliques == built.cliques
            assert closed.vertex_cliques == built.vertex_cliques
            assert pq_tree_to_text(closed) == pq_tree_to_text(built) == f"Q(L{{{k},{k + 1}}},L{{{','.join(map(str, range(frag, k + 1)))}}},L{{{','.join(map(str, range(k)))}}})"
            assert closed.vertex_run == built.vertex_run
            assert closed.belonging == built.belonging
            assert [n.nid for n in closed.nodes] == [n.nid for n in built.nodes]
            assert {n.nid: vs for n, vs in closed.node_vertices.items()} == {n.nid: vs for n, vs in built.node_vertices.items()}
            assert [n.leaf_set for n in closed.nodes] == [n.leaf_set for n in built.nodes]

    @pytest.mark.parametrize("seed", range(30))
    def test_closed_form_completion_is_the_general_one(self, seed):
        g, _ = random_t_graph(2 + seed % 4, 6 + seed, 900 + seed)
        labels = tuple(range(g.n))
        for clique in map(frozenset, maximal_cliques(g)):
            frag = frozenset(v for v in clique if len(g.adj[v]) == len(clique) - 1)
            sep = clique - frag
            if not frag or not sep:
                continue
            trees: dict = {}
            closed = decompose._build_completion(g, labels, frag, sep, ("aux", 0, 0), trees, clique=True)
            general = decompose._build_completion(g, labels, frag, sep, ("aux", 0, 0), {})
            assert closed == general  # graph, labels and tail
            assert pq_tree_to_text(closed.tree) == pq_tree_to_text(general.tree)
            again = decompose._build_completion(g, labels, frag, sep, ("aux", 0, 1), trees, clique=True)
            assert again.tree is closed.tree and again.graph is closed.graph


class TestAttachmentSets:
    def test_claw_fragment_chain(self):
        frags = extract_fragments(star_graph(3), 3)
        assert frags[0].attachments == (frozenset({0}),)

    def test_fully_adjacent_single_chain(self):
        g = star_graph(3)
        chain = attachment_sets(g, frozenset({1, 2, 3}), frozenset({0}))
        assert chain == (frozenset({0}),)

    def test_chain_is_nested(self):
        # u sees {0} inside the separator, w sees {0,1}: a two-step chain
        g = Graph(5, [(0, 1), (2, 3), (2, 0), (3, 0), (3, 1), (4, 0), (4, 1)])
        chain = attachment_sets(g, frozenset({2, 3}), frozenset({0, 1}))
        assert chain == (frozenset({0}), frozenset({0, 1}))

    def test_non_chain_on_a_chordal_graph_is_not_t_graph(self):
        # chordal (triangles 0-2-4, 1-3-4 and 0-1-4), but 2 sees {0} and 3
        # sees {1} inside the separator: the attachment sets are not nested
        g = Graph(5, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4), (0, 4), (1, 4)])
        assert is_chordal(g) is not None
        with pytest.raises(NotTGraph) as info:
            attachment_sets(g, frozenset({2, 3, 4}), frozenset({0, 1}))
        assert info.value.evidence() == {"reason": "attachment sets do not form a chain", "sizes": [1, 1]}


class TestCanonicalDecomposition:
    def test_interval_graph_single_level(self):
        dec = canonical_decomposition(path_graph(6), 2)
        assert dec.depth == 1
        assert dec.levels[0][0].vertices == frozenset(range(6))
        assert dec.levels[0][0].provenance == "residual"
        assert dec.terminal_sets == ()

    def test_subdivided_claw_two_levels(self):
        dec = canonical_decomposition(subdivided_claw(), 3)
        assert dec.depth == 2
        level1 = {tuple(sorted(f.vertices)) for f in dec.levels[0]}
        assert level1 == {(2,), (4,), (6,)}
        assert dec.levels[1][0].vertices == frozenset({0, 1, 3, 5})

    def test_claw_is_interval_single_level(self):
        dec = canonical_decomposition(star_graph(3), 3)
        assert dec.depth == 1
        assert dec.levels[0][0].vertices == frozenset({0, 1, 2, 3})
        assert dec.terminal_sets == ()

    def test_figure_branch_decomposition(self):
        dec = canonical_decomposition(figure_branch_graph(), 3)
        assert dec.depth == 2
        level1 = {tuple(sorted(f.vertices)) for f in dec.levels[0]}
        assert level1 == {(2, 3, 4), (6, 7, 8), (10, 11, 12)}
        assert dec.levels[1][0].vertices == frozenset({0, 1, 5, 9})
        shard_sets = {t.vertices for t in dec.terminal_sets}
        assert shard_sets == {frozenset({1}), frozenset({5}), frozenset({9})}
        for t in dec.terminal_sets:
            assert (t.origin_level, t.host_level) == (1, 2)

    def test_every_vertex_in_exactly_one_fragment(self):
        for seed in range(15):
            g, _ = random_t_graph(3, 10, 700 + seed)
            dec = canonical_decomposition(g, 3)
            seen = []
            for level in dec.levels:
                for f in level:
                    seen.extend(f.vertices)
            assert sorted(seen) == list(range(g.n))

    def test_level_sizes_bounded_on_connected_instances(self):
        for seed in range(15):
            g, _ = random_t_graph(4, 10, 800 + seed)
            if not g.is_connected():
                continue
            dec = canonical_decomposition(g, 4)
            for level in dec.levels[:-1]:
                assert 0 < len(level) <= 8

    def test_terminal_sets_inherited_downward(self):
        for seed in range(10):
            g, _ = random_t_graph(3, 10, 900 + seed)
            dec = canonical_decomposition(g, 3)
            for t in dec.terminal_sets:
                assert t.origin_level < t.host_level
                host = dec.levels[t.host_level - 1][t.host_fragment]
                assert t.vertices <= host.vertices
                origin = dec.levels[t.origin_level - 1][t.origin_fragment]
                att = origin.attachments[t.position - 1]
                assert t.vertices <= att

    def test_attachment_fully_sharded(self):
        for seed in range(10):
            g, _ = random_t_graph(3, 10, 950 + seed)
            dec = canonical_decomposition(g, 3)
            for level in dec.levels:
                for f in level:
                    for pos, att in enumerate(f.attachments, start=1):
                        shards = [
                            t.vertices
                            for t in dec.terminal_sets
                            if (t.origin_level, t.origin_fragment, t.position)
                            == (f.level, f.index, pos)
                        ]
                        assert frozenset().union(*shards) == att if shards else not att

    def test_json_schema(self):
        dec = canonical_decomposition(figure_branch_graph(), 3)
        data = dec.to_json_dict()
        assert data["levels"][0]["fragments"][0]["vertices"] == [2, 3, 4]
        assert data["levels"][0]["fragments"][0]["attachments"] == [[1]]
        assert data["terminal_sets"][0]["level"] == 2
        assert data["terminal_sets"][0]["from_level"] == 1

    @pytest.mark.parametrize("first_is_path", [True, False])
    def test_disjoint_union_completions_label_union_vertices(self, first_is_path):
        parts = (path_graph(3), subdivided_claw())
        g = parts[0].union_disjoint(parts[1]) if first_is_path else parts[1].union_disjoint(parts[0])
        dec = canonical_decomposition(g, 3)
        completed = [f for level in dec.levels for f in level if f.completion is not None]
        assert len(completed) == 3  # the claw's three tips
        for f in completed:
            c = f.completion
            assert set(c.labels[: len(f.vertices)]) == f.vertices  # the fragment leads the completion

    def test_outer_simplicial_levels_then_separator_level(self):
        """Pendant paths peel off as simplicial levels before the branch level."""
        g = figure_branch_graph()
        edges = list(g.edges)
        # extend each branch end (4, 8, 12) with a pendant path of length 2
        nxt = 13
        for end in (4, 8, 12):
            edges += [(end, nxt), (nxt, nxt + 1)]
            nxt += 2
        g2 = Graph(nxt, edges)
        dec = canonical_decomposition(g2, 3)
        provs = [sorted({f.provenance for f in level}) for level in dec.levels]
        assert provs[0] == ["simplicial"]
        assert provs[1] == ["simplicial"]
        assert provs[2] == ["separator"]
        assert provs[3] == ["residual"]
        level3 = {tuple(sorted(f.vertices)) for f in dec.levels[2]}
        assert level3 == {(2, 3, 4), (6, 7, 8), (10, 11, 12)}


class TestLeastD:
    @pytest.mark.parametrize("seed", range(30))
    def test_same_decomposition_from_least_d_up(self, seed):
        rng = random.Random(seed)
        g, _ = random_t_graph(rng.choice([3, 4]), rng.randint(8, 30), 8300 + seed)
        dec = canonical_decomposition(g, 6)
        for d in range(dec.least_d, 6):
            assert canonical_decomposition(g, d).to_json_dict() == dec.to_json_dict()
        if dec.least_d > 2:
            with pytest.raises(NotTGraph):
                canonical_decomposition(g, dec.least_d - 1)

    def test_a_bound_of_2d_needs_half_its_count(self):
        bounds = decompose._Bounds(3)
        bounds.check(5, 2, "too many")
        assert bounds.least == 3
        with pytest.raises(NotTGraph) as raised:
            bounds.check(7, 2, "too many")
        assert raised.value.evidence() == {"reason": "too many", "count": 7, "d": 3}
        assert bounds.least == 4


def assert_relabel_commutes(g, h, p, d):
    """p maps g's decomposition onto h's, level by level, as sets."""
    dec_g = canonical_decomposition(g, d)
    dec_h = canonical_decomposition(h, d)
    assert dec_g.depth == dec_h.depth
    for lv_g, lv_h in zip(dec_g.levels, dec_h.levels):
        image = {frozenset(p(v) for v in f.vertices) for f in lv_g}
        assert image == {f.vertices for f in lv_h}
        chains_image = {
            (
                frozenset(p(v) for v in f.vertices),
                tuple(frozenset(p(v) for v in a) for a in f.attachments),
            )
            for f in lv_g
        }
        chains_h = {(f.vertices, f.attachments) for f in lv_h}
        assert chains_image == chains_h
    shards_image = {
        (
            t.origin_level,
            t.host_level,
            t.position,
            frozenset(p(v) for v in t.vertices),
        )
        for t in dec_g.terminal_sets
    }
    shards_h = {
        (t.origin_level, t.host_level, t.position, t.vertices)
        for t in dec_h.terminal_sets
    }
    assert shards_image == shards_h


def edge_graph(n, text):
    return Graph(n, [tuple(map(int, e.strip("()").split(","))) for e in text.split()])


# Connected chordal graphs outside the promise for d <= 4, each with a seed of
# random_relabel. While step 4 tested joint separators against one witness
# clique picked by vertex number, G15's extraction raised NotChordal and
# G20's relabelled copy was judged NOT_ISOMORPHIC. At d = 4 no component of
# G19 minus its joint separators meets exactly one of them.
OUTSIDE_PROMISE = {
    "G15": (
        edge_graph(
            15,
            "(0,1) (0,3) (0,5) (0,6) (0,8) (0,10) (0,11) (0,14) (1,5) (1,8) (1,14) (2,10) (2,14) (3,5) "
            "(3,6) (3,8) (3,14) (4,6) (4,14) (5,6) (5,8) (5,10) (5,11) (5,14) (6,8) (6,14) (7,10) (7,14) "
            "(8,10) (8,11) (8,12) (8,13) (8,14) (9,12) (10,11) (10,14)",
        ),
        2790,
    ),
    "G19": (
        edge_graph(
            19,
            "(0,1) (0,2) (0,4) (0,5) (0,6) (0,8) (0,9) (0,11) (0,12) (0,15) (0,16) (0,17) (1,2) (1,3) "
            "(1,4) (1,5) (1,6) (1,8) (1,11) (1,12) (1,14) (1,15) (1,18) (2,8) (3,6) (4,8) (6,8) (6,9) "
            "(6,11) (6,12) (6,14) (6,15) (6,18) (7,13) (8,9) (8,11) (8,12) (8,15) (10,11) (10,15) "
            "(11,12) (11,14) (11,15) (12,15) (12,16) (12,17) (13,18) (14,15)",
        ),
        1,
    ),
    "G20": (
        edge_graph(
            20,
            "(0,4) (0,7) (0,8) (0,15) (0,19) (1,5) (1,6) (1,17) (2,5) (2,9) (2,11) (2,14) (2,16) (2,17) "
            "(2,18) (2,19) (3,5) (3,13) (4,19) (5,6) (5,9) (5,11) (5,12) (5,13) (5,16) (5,17) (5,18) "
            "(5,19) (6,17) (7,15) (7,19) (8,10) (8,15) (8,19) (9,16) (9,17) (9,18) (9,19) (11,17) "
            "(11,19) (14,17) (15,19) (17,19) (18,19)",
        ),
        2174,
    ),
}


# 40 trees with 4 to 40 vertices call step 4 30 times in all
TREE_STREAM, TREE_STEP4 = 40, 20


class TestCanonicity:
    """Relabeling commutes with decomposition, level by level, as sets."""

    @pytest.mark.parametrize("seed", range(40))
    def test_relabel_commutes(self, seed):
        rng = random.Random(seed)
        d = rng.choice([2, 3, 4])
        n = rng.randint(2, 10)
        g, _ = random_t_graph(d, n, 1000 + seed)
        h, p = random_relabel(g, seed)
        assert_relabel_commutes(g, h, p, d)

    def test_tree_stream_reaches_joint_separators(self, monkeypatch):
        # trees decomposed at d = their leaf count reach step 4 (joint
        # separators), which random T-graphs almost never do
        calls = []
        real = decompose.minimal_separators
        monkeypatch.setattr(decompose, "minimal_separators", lambda g: calls.append(g.n) or real(g))
        for seed in range(TREE_STREAM):
            rng = random.Random(seed)
            g = random_tree(rng.randint(4, 40), rng)
            d = max(2, sum(1 for v in g.vertices() if g.degree(v) == 1))
            h, p = random_relabel(g, seed)
            assert_relabel_commutes(g, h, p, d)
        assert len(calls) >= TREE_STEP4

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("name", sorted(OUTSIDE_PROMISE))
    def test_outside_promise_relabel(self, name, d):
        g, seed = OUTSIDE_PROMISE[name]
        h, p = random_relabel(g, seed)
        verdict = is_isomorphic(g, h, d)
        assert verdict.kind != NOT_ISOMORPHIC
        if verdict.kind == ISOMORPHIC:
            assert all(h.has_edge(verdict.witness[u], verdict.witness[v]) for u, v in g.edges)
        try:
            canonical_decomposition(g, d)
        except NotTGraph:
            with pytest.raises(NotTGraph):
                canonical_decomposition(h, d)
        else:
            assert_relabel_commutes(g, h, p, d)

    def test_chordal_promise_violation_is_not_t_graph(self):
        g, seed = OUTSIDE_PROMISE["G19"]
        with pytest.raises(NotTGraph, match="no component is incident to a single joint separator"):
            canonical_decomposition(g, 4)
        verdict = is_isomorphic(g, random_relabel(g, seed)[0], 4)
        assert verdict.kind == NOT_T_GRAPH
