import random
from functools import reduce
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import tgraphs.chordal as chordal_mod
import tgraphs.graph as graph_mod
from tgraphs.chordal import (
    component_subgraphs,
    is_chordal,
    leaf_cliques,
    maximal_cliques,
    maximum_cardinality_search,
    minimal_separators,
)
from tgraphs.errors import Disconnected, NotChordal
from tgraphs.graph import Graph, complete_graph, cycle_graph, path_graph, separates, star_graph
from tgraphs.harness import random_relabel, random_t_graph, random_tree


def brute_is_chordal(g):
    """No chordless (induced) cycle of length >= 4."""
    for size in range(4, g.n + 1):
        for sub in combinations(range(g.n), size):
            degs = [sum(1 for w in sub if g.has_edge(v, w)) for v in sub]
            if any(d != 2 for d in degs):
                continue
            allowed = frozenset(sub)
            if g.connected_in(allowed, sub[0]) == set(sub):
                return False
    return True


def brute_maximal_cliques(g):
    """Cliques no outside vertex sees whole, sorted lexicographically."""
    cliques = [c for size in range(1, g.n + 1) for c in combinations(range(g.n), size) if g.is_clique(c)]
    return sorted(
        c for c in cliques if not any(all(g.has_edge(v, w) for w in c) for v in range(g.n) if v not in c)
    )


# every graph on 1..9 vertices, one coin per vertex pair: chordal or not, connected or not
any_graph = st.integers(1, 9).flatmap(
    lambda n: st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2).map(
        lambda coins: Graph(n, [e for e, keep in zip(combinations(range(n), 2), coins) if keep])
    )
)

# disjoint unions of up to four random T-graphs, their vertices interleaved
chordal_unions = st.tuples(
    st.lists(st.tuples(st.integers(2, 4), st.integers(1, 8), st.integers(0, 10**6)), min_size=1, max_size=4),
    st.integers(0, 10**6),
).map(
    lambda spec: random_relabel(
        reduce(Graph.union_disjoint, (random_t_graph(d, n, s)[0] for d, n, s in spec[0])), spec[1]
    )[0]
)


def spanning_trees(k, edges):
    """All spanning trees of a graph on k nodes given weighted edges (i, j, w)."""
    for chosen in combinations(edges, k - 1):
        parent = list(range(k))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for i, j, _w in chosen:
            ri, rj = find(i), find(j)
            if ri == rj:
                ok = False
                break
            parent[ri] = rj
        if ok:
            yield chosen


def clique_graph(g):
    """Maximal cliques of g and the pairs (i, j, |C_i & C_j|), i < j, of cliques that meet."""
    nodes = maximal_cliques(g)
    edges = []
    for i, j in combinations(range(len(nodes)), 2):
        w = len(set(nodes[i]) & set(nodes[j]))
        if w:
            edges.append((i, j, w))
    return nodes, edges


def max_weight_spanning_trees(nodes, edges):
    k = len(nodes)
    if k == 1:
        return [()]
    trees = list(spanning_trees(k, edges))
    best = max(sum(w for _i, _j, w in t) for t in trees)
    return [t for t in trees if sum(w for _i, _j, w in t) == best]


def random_chordal(n, seed):
    """Random chordal graph: take a random T-graph and keep it if connected."""
    for s in range(seed, seed + 50):
        g, _rep = random_t_graph(3, n, s)
        if g.is_connected():
            return g
    raise AssertionError("no connected instance found")


class TestIsChordal:
    def test_c4_is_not_chordal(self):
        assert is_chordal(cycle_graph(4)) is None

    def test_k4_is_chordal(self):
        peo = is_chordal(complete_graph(4))
        assert peo is not None
        assert sorted(peo) == [0, 1, 2, 3]

    def test_empty_graph_ordering_is_empty(self):
        assert is_chordal(Graph(0)) == ()

    def test_generator_output_is_chordal(self):
        g, _ = random_t_graph(3, 12, 1)
        assert is_chordal(g) is not None
        assert brute_is_chordal(g)

    def test_peo_invariant(self):
        g = random_chordal(9, 3)
        order = is_chordal(g)
        pos = {v: i for i, v in enumerate(order)}
        for v in g.vertices():
            later = [w for w in g.adj[v] if pos[w] > pos[v]]
            assert g.is_clique(later)

    @pytest.mark.parametrize("seed", range(30))
    def test_agrees_with_chordless_cycle_scan(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.45]
        g = Graph(n, edges)
        assert (is_chordal(g) is not None) == brute_is_chordal(g)


class TestEliminationPass:
    """`is_chordal` and `maximal_cliques` read one elimination pass."""

    @settings(max_examples=300, deadline=None)
    @given(any_graph)
    def test_recognition_and_cliques_agree_with_brute_force(self, g):
        chordal = is_chordal(g) is not None
        assert chordal == brute_is_chordal(g)
        if chordal:
            assert maximal_cliques(g) == brute_maximal_cliques(g)
        else:
            with pytest.raises(NotChordal):
                maximal_cliques(g)

    @pytest.mark.parametrize("g", [path_graph(5), cycle_graph(5)], ids=["p5", "c5"])
    def test_one_pass_per_graph(self, g, monkeypatch):
        passes = []
        real = chordal_mod._elimination_pass
        monkeypatch.setattr(chordal_mod, "_elimination_pass", lambda h: passes.append(h) or real(h))
        for _ in range(2):
            assert (is_chordal(g) is None) == (g.m == g.n)
        if g.m < g.n:
            for query in (maximal_cliques, leaf_cliques, minimal_separators):
                query(g)
        assert passes == [g]

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(any_graph, chordal_unions))
    def test_components_come_off_the_pass(self, g):
        assert g._components is None
        is_chordal(g)
        assert g._components == graph_mod._search_components(g)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(chordal_unions, any_graph))
    def test_component_slices_equal_fresh_passes(self, g):
        subs = component_subgraphs(g)
        assert [sorted(idx) for _sub, idx in subs] == [sorted(c) for c in g.components()]
        for sub, idx in subs:
            assert list(idx.values()) == list(range(sub.n))  # monotone renumbering
            fresh = Graph(sub.n, sub.edges)
            assert fresh._elimination is None
            if is_chordal(g) is None:
                assert sub is g or sub._elimination is None  # plain subgraphs
                continue
            assert sub._elimination is not None
            assert sub._components == (frozenset(range(sub.n)),)
            assert is_perfect(sub, sub._elimination[0])
            assert is_chordal(fresh) is not None
            # the PEO, the cliques and the separator lists, in the same order
            assert sub._elimination == fresh._elimination
            assert sub.components() == fresh.components()

    def test_results_do_not_share_the_memo(self):
        g = path_graph(4)
        for query in (Graph.components, maximal_cliques, leaf_cliques, minimal_separators):
            first = query(g)
            expected = list(first)
            first.clear()
            assert query(g) == expected, query.__name__


def is_perfect(g, peo):
    """Whether the later neighbours of each vertex of the order form a clique."""
    position = {v: i for i, v in enumerate(peo)}
    return sorted(peo) == list(range(g.n)) and all(
        g.is_clique(w for w in g.adj[v] if position[w] > position[v]) for v in peo
    )


def quadratic_mcs(g):
    """Reference MCS: scan every vertex for the largest weight, smallest id on a tie."""
    weight = [0] * g.n
    visited = [False] * g.n
    order = []
    for _ in range(g.n):
        best = -1
        for v in range(g.n):
            if not visited[v] and (best == -1 or weight[v] > weight[best]):
                best = v
        visited[best] = True
        order.append(best)
        for w in g.adj[best]:
            if not visited[w]:
                weight[w] += 1
    return order


class TestMaximumCardinalitySearch:
    @pytest.mark.parametrize("seed", range(40))
    def test_order_matches_quadratic_scan_on_t_graphs(self, seed):
        g, _ = random_t_graph(2 + seed % 4, 6 + seed, 300 + seed)
        assert maximum_cardinality_search(g) == quadratic_mcs(g)

    @pytest.mark.parametrize("seed", range(40))
    def test_order_matches_quadratic_scan_on_gnp(self, seed):
        rng = random.Random(seed)
        n = rng.randint(0, 30)
        p = rng.choice([0.05, 0.15, 0.4, 0.8])
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        assert maximum_cardinality_search(g) == quadratic_mcs(g)

    @pytest.mark.parametrize("g", [path_graph(20000), star_graph(20000)], ids=["path", "star"])
    def test_large_graphs_are_chordal(self, g):
        assert is_chordal(g) is not None


class TestMaximalCliques:
    def test_path(self):
        assert maximal_cliques(path_graph(3)) == [(0, 1), (1, 2)]

    def test_k4(self):
        assert maximal_cliques(complete_graph(4)) == [(0, 1, 2, 3)]

    def test_claw(self):
        assert maximal_cliques(star_graph(3)) == [(0, 1), (0, 2), (0, 3)]

    def test_not_chordal_raises(self):
        with pytest.raises(NotChordal):
            maximal_cliques(cycle_graph(5))

    @pytest.mark.parametrize("seed", range(10))
    def test_count_and_cover(self, seed):
        g = random_chordal(8, 100 + seed)
        cliques = maximal_cliques(g)
        assert len(cliques) <= g.n
        assert set().union(*map(set, cliques)) == set(range(g.n))
        for c in cliques:
            assert g.is_clique(c)
        # maximality against brute enumeration
        for size in range(1, g.n + 1):
            for sub in combinations(range(g.n), size):
                if not g.is_clique(sub):
                    continue
                if any(all(x in set(c) for x in sub) and len(c) > size for c in cliques):
                    continue
                assert sub in cliques

    def test_matches_inclusion_filter(self):
        # the elimination-ordering rule against the definition: the candidate
        # cliques (a vertex plus its later neighbours) not inside another
        rng = random.Random(77)
        for seed in range(200):
            g, _ = random_t_graph(rng.randint(2, 5), rng.randint(1, 40), 7000 + seed)
            order = is_chordal(g)
            pos = {v: i for i, v in enumerate(order)}
            candidates = {frozenset([v] + [w for w in g.adj[v] if pos[w] > pos[v]]) for v in order}
            expected = sorted(tuple(sorted(c)) for c in candidates if not any(c < o for o in candidates))
            assert maximal_cliques(g) == expected


class TestLeafCliques:
    def test_path4_endpoints(self):
        assert leaf_cliques(path_graph(4)) == [(0, 1), (2, 3)]

    def test_claw_all(self):
        assert leaf_cliques(star_graph(3)) == [(0, 1), (0, 2), (0, 3)]

    def test_single_clique(self):
        assert leaf_cliques(complete_graph(4)) == [(0, 1, 2, 3)]

    def test_clique_between_an_indispensable_edge_and_a_triangle(self):
        # (4, 5, 7, 8) shares {5, 7, 8} only with (2, 3, 5, 7, 8) and {4, 7} only
        # with (0, 4, 7) and (4, 6, 7), so every clique tree joins it to both sides
        edges = [(0, 4), (0, 7), (1, 7), (2, 3), (2, 5), (2, 7), (2, 8), (3, 5), (3, 7)]
        edges += [(3, 8), (4, 5), (4, 6), (4, 7), (4, 8), (5, 7), (5, 8), (6, 7), (7, 8)]
        g = Graph(9, edges)
        assert leaf_cliques(g) == [(0, 4, 7), (1, 7), (2, 3, 5, 7, 8), (4, 6, 7)]
        assert set(leaf_cliques(g)) == brute_leaf_cliques(g)

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_leaf_of_some_tree(self, seed):
        compared = 0
        for n in (7, 9):
            g = random_chordal(n, 400 + seed)
            if not (2 <= len(maximal_cliques(g)) <= 7):
                continue  # keep brute enumeration small
            assert set(leaf_cliques(g)) == brute_leaf_cliques(g)
            compared += 1
        if not compared:
            pytest.skip("keep brute enumeration small")


def brute_leaf_cliques(g):
    """Cliques of degree at most 1 in some maximum-weight spanning tree of the clique graph."""
    nodes, edges = clique_graph(g)
    k = len(nodes)
    out = set()
    for tree in max_weight_spanning_trees(nodes, edges):
        deg = [0] * k
        for i, j, _w in tree:
            deg[i] += 1
            deg[j] += 1
        out.update(nodes[i] for i in range(k) if deg[i] <= 1)
    return out


def brute_minimal_separators(g):
    out = set()
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.has_edge(u, v):
                continue
            others = [x for x in range(g.n) if x not in (u, v)]
            for size in range(len(others) + 1):
                for s in combinations(others, size):
                    if not separates(g, s, [u], [v]):
                        continue
                    if any(separates(g, set(s) - {x}, [u], [v]) for x in s):
                        continue
                    out.add(tuple(sorted(s)))
    return out


def full_component_separators(g):
    """Vertex sets S such that g - S has at least two components whose neighbourhood is all of S."""
    out = []
    for size in range(g.n - 1):
        for s in combinations(range(g.n), size):
            rest = frozenset(range(g.n)) - set(s)
            full, seen = 0, set()
            for v in sorted(rest):
                if v in seen:
                    continue
                comp = g.connected_in(rest, v)
                seen |= comp
                if all(any(g.has_edge(x, w) for w in comp) for x in s):
                    full += 1
            if full >= 2:
                out.append(s)
    return sorted(out)


class TestMinimalSeparators:
    def test_path3(self):
        assert minimal_separators(path_graph(3)) == [(1,)]

    def test_complete(self):
        assert minimal_separators(complete_graph(5)) == []

    def test_not_chordal_raises(self):
        with pytest.raises(NotChordal):
            minimal_separators(cycle_graph(5))

    def test_disconnected_raises(self):
        with pytest.raises(Disconnected):
            minimal_separators(Graph(4, [(0, 1), (2, 3)]))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_exhaustive_scan(self, seed):
        g = random_chordal(8, 500 + seed)
        got = set(minimal_separators(g))
        assert got == brute_minimal_separators(g)
        for s in minimal_separators(g):
            assert g.is_clique(s)

    @settings(max_examples=300, deadline=None)
    @given(any_graph)
    def test_matches_full_component_oracle(self, g):
        if not g.is_connected() or not brute_is_chordal(g):
            return
        assert minimal_separators(g) == full_component_separators(g)


class TestSeparates:
    def test_path(self):
        g = path_graph(3)
        assert separates(g, [1], [0], [2])

    def test_triangle(self):
        g = complete_graph(3)
        assert not separates(g, [0], [1], [2])

    def test_vacuous(self):
        g = path_graph(4)
        assert separates(g, [0, 1], [0], [3])


def tree_dists(tree, s):
    """Distances from s in a tree, by breadth-first search."""
    dist = [-1] * tree.n
    dist[s] = 0
    queue = [s]
    while queue:
        u = queue.pop(0)
        for x in tree.adj[u]:
            if dist[x] == -1:
                dist[x] = dist[u] + 1
                queue.append(x)
    return dist


def tree_path_contains(tree, u, v, w):
    """Whether w lies on the unique u-v path of a tree."""
    dist = tree_dists(tree, u)
    return dist[w] + tree_dists(tree, w)[v] == dist[v]


class TestMarkedTreeObservation:
    """Any d+1 marked vertices of a d-leaf tree put 3 marks on one path."""

    @pytest.mark.parametrize("seed", range(25))
    def test_some_path_has_three_marks(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 10)
        tree = random_tree(n, rng)
        d = sum(1 for v in range(n) if tree.degree(v) == 1)
        if d + 1 > n:
            pytest.skip("cannot mark d+1 distinct vertices")
        marks = rng.sample(range(n), d + 1)
        found = any(
            tree_path_contains(tree, a, b, c)
            for a, b, c in combinations(marks, 3)
        ) or any(
            tree_path_contains(tree, a, c, b) or tree_path_contains(tree, b, c, a)
            for a, b, c in combinations(marks, 3)
        )
        assert found
