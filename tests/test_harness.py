import pytest

import tgraphs.harness as harness
from tgraphs.chordal import is_chordal
from tgraphs.errors import TooLarge
from tgraphs.graph import Graph, complete_graph, cycle_graph, path_graph, star_graph
from tgraphs.harness import (
    TRepresentation,
    _centre_code,
    _pruefer_tree,
    _pruefer_walk,
    brute_force_autgroup,
    brute_force_isomorphism,
    random_relabel,
    random_t_graph,
    tree_catalog,
    verify_t_representation,
)


class TestBruteForceIsomorphism:
    def test_self(self):
        g = path_graph(5)
        p = brute_force_isomorphism(g, g)
        assert p is not None
        assert all(g.has_edge(p(u), p(v)) for u, v in g.edges)

    def test_p4_vs_c4(self):
        assert brute_force_isomorphism(path_graph(4), cycle_graph(4)) is None

    @pytest.mark.parametrize("seed", range(10))
    def test_relabeling_found(self, seed):
        g, _ = random_t_graph(3, 8, seed)
        h, p = random_relabel(g, seed)
        found = brute_force_isomorphism(g, h)
        assert found is not None
        for u, v in g.edges:
            assert h.has_edge(found(u), found(v))

    def test_guard(self):
        with pytest.raises(TooLarge):
            brute_force_isomorphism(path_graph(13), path_graph(13))


class TestBruteForceAutgroup:
    def test_k3(self):
        assert brute_force_autgroup(complete_graph(3)).order() == 6

    def test_p3(self):
        assert brute_force_autgroup(path_graph(3)).order() == 2

    def test_claw(self):
        assert brute_force_autgroup(star_graph(3)).order() == 6


class TestGenerator:
    @pytest.mark.parametrize("d,n,seed", [(2, 6, 0), (3, 9, 1), (4, 10, 2), (2, 1, 3)])
    def test_certificate_verifies(self, d, n, seed):
        g, rep = random_t_graph(d, n, seed)
        assert g.n == n
        assert verify_t_representation(g, rep)

    @pytest.mark.parametrize("d,n,seed", [(2, 7, 4), (3, 8, 5), (4, 9, 6)])
    def test_chordal(self, d, n, seed):
        g, _ = random_t_graph(d, n, seed)
        assert is_chordal(g) is not None

    def test_deterministic(self):
        a, rep_a = random_t_graph(3, 10, 42)
        b, rep_b = random_t_graph(3, 10, 42)
        assert a == b
        assert rep_a == rep_b

    def test_corrupted_model_fails(self):
        g, rep = random_t_graph(3, 8, 7)
        broken = TRepresentation(rep.tree_n, rep.tree_edges, rep.models[:-1] + (frozenset(),))
        assert not verify_t_representation(g, broken)

    @pytest.mark.parametrize("node", [-1, 2, 5])
    def test_model_node_outside_the_tree_fails(self, node):
        """A node id outside 0..tree_n-1 neither aliases a tree node nor raises."""
        rep = TRepresentation(2, ((0, 1),), (frozenset({node}),))
        assert not verify_t_representation(Graph(1), rep)

    def test_extra_edge_fails(self):
        g, rep = random_t_graph(3, 8, 8)
        non_edges = [
            (u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)
        ]
        if not non_edges:
            pytest.skip("instance is complete")
        g2 = Graph(g.n, list(g.edges) + [non_edges[0]])
        assert not verify_t_representation(g2, rep)

    def test_helly_property(self):
        """Every maximal clique's models share a tree node."""
        from tgraphs.chordal import maximal_cliques

        g, rep = random_t_graph(3, 9, 9)
        for clique in maximal_cliques(g):
            common = frozenset.intersection(*(rep.models[v] for v in clique))
            assert common


class TestRandomRelabel:
    def test_returns_isomorphic(self):
        g = path_graph(6)
        h, p = random_relabel(g, 3)
        assert all(h.has_edge(p(u), p(v)) for u, v in g.edges)
        assert h.m == g.m

    def test_deterministic(self):
        g = path_graph(6)
        assert random_relabel(g, 5) == random_relabel(g, 5)


def full_sweep(d):
    """The catalog as the complete Prüfer sweep gives it: the first tree of each
    AHU code over every valid sequence, n by n."""
    found, seen = [], set()
    for n in range(d, 2 * d - 1):
        for seq in _pruefer_walk(n, n - d):
            t = _pruefer_tree(n, seq)
            if (code := _centre_code(t)) not in seen:
                seen.add(code)
                found.append(t)
    return found


class TestTreeCatalog:
    # the catalog picks random_t_graph's skeletons, so any change to its
    # enumeration order or labels moves every generated graph
    @pytest.mark.parametrize(
        "d, expected",
        [
            (2, [[(0, 1)]]),
            (3, [[(0, 1), (0, 2), (0, 3)]]),
            (4, [[(0, 1), (0, 2), (0, 3), (0, 4)], [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)]]),
            (
                5,
                [
                    [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)],
                    [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6)],
                    [(0, 1), (0, 3), (0, 4), (1, 2), (1, 5), (2, 6), (2, 7)],
                ],
            ),
            (  # taken from the complete sweep, which takes about 30 s at d = 6
                6,
                [
                    [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6)],
                    [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 6), (1, 7)],
                    [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7)],
                    [(0, 1), (0, 3), (0, 4), (0, 5), (1, 2), (1, 6), (2, 7), (2, 8)],
                    [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (2, 7), (2, 8)],
                    [(0, 1), (0, 4), (0, 5), (1, 2), (1, 6), (2, 3), (2, 7), (3, 8), (3, 9)],
                    [(0, 1), (0, 4), (0, 5), (1, 2), (1, 3), (2, 6), (2, 7), (3, 8), (3, 9)],
                ],
            ),
        ],
    )
    def test_pinned_edge_lists(self, d, expected):
        assert [list(t.edges) for t in tree_catalog(d)] == expected

    def test_d2(self):
        cat = tree_catalog(2)
        assert len(cat) == 1
        assert cat[0].n == 2

    def test_d3_star_only(self):
        cat = tree_catalog(3)
        assert len(cat) == 1
        assert sorted(cat[0].degree(v) for v in range(cat[0].n)) == [1, 1, 1, 3]

    def test_d4(self):
        cat = tree_catalog(4)
        # the 4-star and the two-branch "H" tree
        assert len(cat) == 2
        for t in cat:
            degs = [t.degree(v) for v in range(t.n)]
            assert sum(1 for x in degs if x == 1) == 4
            assert all(x != 2 for x in degs)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_matches_the_full_sweep(self, d):
        assert [t.edges for t in tree_catalog(d)] == [t.edges for t in full_sweep(d)]

    def test_class_counts(self):
        assert [len(tree_catalog(d)) for d in range(2, 8)] == [1, 1, 2, 3, 7, 13]

    @pytest.mark.parametrize("d", range(2, 8))
    def test_trees_are_distinct_and_leafy(self, d):
        codes = set()
        for t in tree_catalog(d):
            degrees = [t.degree(v) for v in t.vertices()]
            assert t.m == t.n - 1 and t.is_connected()
            assert degrees.count(1) == d and 2 not in degrees
            codes.add(_centre_code(t))
        assert len(codes) == len(tree_catalog(d))

    def test_cold_d6_decodes_few_sequences(self, monkeypatch):
        """The walk stops once every class has appeared: 391 decodes, not the
        full sweep's 584 k (a count, as a wall-clock bound would be flaky)."""
        decoded = []
        monkeypatch.setattr(harness, "_TREE_CATALOG_CACHE", {})
        monkeypatch.setattr(harness, "_pruefer_tree", lambda n, seq: decoded.append(seq) or _pruefer_tree(n, seq))
        assert len(tree_catalog(6)) == 7
        assert len(decoded) <= 1000

    def test_cached_catalog_is_a_tuple(self):
        """No caller can reorder the skeletons that random_t_graph draws from."""
        assert isinstance(tree_catalog(5), tuple)
        assert tree_catalog(5) is tree_catalog(5)
