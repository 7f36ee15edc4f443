import pytest
from hypothesis import given, strategies as st

from tgraphs.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    format_graph_text,
    parse_graph_text,
    path_graph,
    separates,
)

small_graphs = st.integers(1, 8).flatmap(
    lambda n: st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
        max_size=12,
    ).map(lambda edges: Graph(n, [(min(u, v), max(u, v)) for u, v in edges]))
)


class TestConstruction:
    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1

    def test_adjacency_symmetric(self):
        g = Graph(4, [(0, 1), (2, 3)])
        for u, v in g.edges:
            assert u in g.adj[v] and v in g.adj[u]


class TestTextFormat:
    def test_parse_with_comments(self):
        text = "# a path\n3 2\n0 1\n\n1 2  # tail edge\n"
        g = parse_graph_text(text)
        assert g == path_graph(3)

    def test_header_count_enforced(self):
        with pytest.raises(ValueError):
            parse_graph_text("2 2\n0 1\n")

    def test_order_enforced(self):
        with pytest.raises(ValueError):
            parse_graph_text("3 1\n1 0\n")

    def test_repeated_edge_rejected(self):
        with pytest.raises(ValueError, match="repeated"):
            parse_graph_text("3 2\n0 1\n0 1\n")

    @given(small_graphs)
    def test_roundtrip(self, g):
        assert parse_graph_text(format_graph_text(g)) == g


class TestComponents:
    def test_union_components(self):
        g = path_graph(3).union_disjoint(complete_graph(2))
        comps = g.components()
        assert [sorted(c) for c in comps] == [[0, 1, 2], [3, 4]]

    @given(small_graphs)
    def test_components_partition(self, g):
        comps = g.components()
        seen = sorted(v for c in comps for v in c)
        assert seen == list(range(g.n))

    def test_subgraph_relabels(self):
        g = Graph(5, [(1, 3), (3, 4)])
        sub, idx = g.subgraph([1, 3, 4])
        assert sub.n == 3
        assert sub.edges == ((0, 1), (1, 2))
        assert idx == {1: 0, 3: 1, 4: 2}
        split, idx = g.subgraph([3, 0, 1, 0])  # disconnected: 0 is isolated, and edge 3-4 goes with 4
        assert split.n == 3
        assert split.edges == ((1, 2),)
        assert idx == {0: 0, 1: 1, 3: 2}
        far, idx = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)]).subgraph([0, 1, 4, 5])
        assert far.edges == ((0, 1), (2, 3))
        assert idx == {0: 0, 1: 1, 4: 2, 5: 3}

    @pytest.mark.parametrize("g", [Graph(0), Graph(1), Graph(5, [(1, 3), (3, 4)]), path_graph(6)])
    def test_subgraph_on_all_vertices_is_the_graph(self, g):
        sub, idx = g.subgraph(reversed(range(g.n)))
        assert sub is g
        assert idx == {v: v for v in range(g.n)}


class TestSeparates:
    def test_cut_vertex(self):
        g = path_graph(5)
        assert separates(g, [2], [0, 1], [3, 4])
        assert not separates(g, [3], [0], [2])

    def test_cycle_needs_two(self):
        g = cycle_graph(6)
        assert not separates(g, [0], [1], [5])
        assert separates(g, [0, 3], [1, 2], [4, 5])

    @given(small_graphs)
    def test_superset_is_vacuous(self, g):
        if g.n >= 2:
            assert separates(g, range(g.n), [0], [g.n - 1])


class TestRelabel:
    @given(small_graphs, st.randoms(use_true_random=False))
    def test_relabel_preserves_structure(self, g, rnd):
        images = list(range(g.n))
        rnd.shuffle(images)
        h = g.relabel(images)
        assert h.m == g.m
        for u, v in g.edges:
            assert h.has_edge(images[u], images[v])
