import pytest

from tgraphs.chordal import is_chordal
from tgraphs.errors import TooLarge
from tgraphs.graph import Graph, complete_graph, cycle_graph, path_graph, star_graph
from tgraphs.harness import (
    TRepresentation,
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
