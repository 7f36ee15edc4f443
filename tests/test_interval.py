import os
import random
import subprocess
import sys
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

import tgraphs
from tgraphs.chordal import is_chordal, maximal_cliques
from tgraphs.graph import Graph, complete_graph, path_graph, star_graph
from tgraphs.harness import random_relabel, random_t_graph
from tgraphs.interval import (
    MarkedIntervalGraph,
    PQNode,
    PQTree,
    _Cells,
    _insert_row,
    _order_component,
    brute_marked_autgroup,
    build_pq_tree,
    marked_action_group,
    _canonical_forms,
    _forms,
    _marked_encoding,
    _realize_vertex_map,
    family_set_action,
    marked_isomorphism,
    marked_set_action,
    marked_union,
    pq_tree_to_text,
    reduce_clean,
)
from tgraphs.perm import PermGroup, find_element
from tgraphs.setfamily import family_autgroup, max_antichain_size


def brute_valid_orders(g):
    """All clique orders where every vertex's clique set is consecutive."""
    cliques = maximal_cliques(g)
    k = len(cliques)
    rows = []
    for v in range(g.n):
        rows.append(frozenset(i for i, c in enumerate(cliques) if v in c))
    out = []
    for order in permutations(range(k)):
        pos = {c: i for i, c in enumerate(order)}
        ok = True
        for r in rows:
            ps = sorted(pos[c] for c in r)
            if ps != list(range(ps[0], ps[-1] + 1)):
                ok = False
                break
        if ok:
            out.append(order)
    return out


def is_interval(g):
    """Connected interval test by exhaustive clique ordering (small inputs)."""
    if not g.is_connected() or is_chordal(g) is None:
        return False
    return bool(brute_valid_orders(g))


def subdivided_claw():
    # center 0, paths 0-1-2, 0-3-4, 0-5-6
    return Graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])


def random_connected_interval(n, seed):
    for s in range(seed, seed + 200):
        g, _ = random_t_graph(2, n, s)
        if g.is_connected():
            return g
    raise AssertionError("no connected interval instance")


def random_marked(n, seed, with_tail=False):
    rng = random.Random(f"marked-{n}-{seed}")
    g = random_connected_interval(n, seed)
    cliques = maximal_cliques(g)
    families = []
    for _ in range(rng.randint(1, 3)):
        fam = []
        for _ in range(rng.randint(0, 3)):
            c = rng.choice(cliques)
            size = rng.randint(1, len(c))
            fam.append(frozenset(rng.sample(list(c), size)))
        families.append(tuple(fam))
    tail = None
    if with_tail:
        leaves = [v for v in range(g.n) if g.degree(v) == 1]
        if leaves:
            tail = rng.choice(leaves)
    return MarkedIntervalGraph(g, families, tail=tail)


def random_marked_union(seed):
    """The `marked_union` of 1-3 `random_marked` parts: disconnected when
    there are two or more, with marked sets of any size. Every part keeps
    the first part's number of families, cut or padded with empty ones, and
    the parts keep their tails only when each has one."""
    rng = random.Random(f"union-{seed}")
    with_tail = rng.random() < 0.3
    parts = [random_marked(rng.randint(2, 7), rng.randrange(10**6), with_tail) for _ in range(rng.randint(1, 3))]
    families = len(parts[0].families)
    keep_tails = all(part.tail is not None for part in parts)
    return marked_union(
        [
            MarkedIntervalGraph(part.host, (part.families + ((),) * families)[:families], part.tail if keep_tails else None)
            for part in parts
        ]
    )[0]


class TestBuildPQTree:
    def test_path4_two_orders(self):
        tree = build_pq_tree(path_graph(4))
        assert tree is not None
        orders = tree.permissible_orders()
        assert len(orders) == 2
        assert orders[0] == tuple(reversed(orders[1]))

    def test_claw_six_orders(self):
        tree = build_pq_tree(star_graph(3))
        assert tree is not None
        assert tree.root.kind == "P"
        assert len(tree.root.children) == 3
        assert tree.order_count() == 6

    def test_subdivided_claw_not_interval(self):
        assert build_pq_tree(subdivided_claw()) is None

    def test_single_clique(self):
        tree = build_pq_tree(complete_graph(4))
        assert tree is not None
        assert tree.root.kind == "L"
        assert tree.order_count() == 1

    def test_non_chordal(self):
        from tgraphs.graph import cycle_graph

        assert build_pq_tree(cycle_graph(4)) is None

    def test_disconnected(self):
        assert build_pq_tree(Graph(4, [(0, 1), (2, 3)])) is None

    @pytest.mark.parametrize("seed", range(60))
    def test_presence_matches_exhaustive(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 8)
        g, _ = random_t_graph(rng.choice([2, 3]), n, seed)
        if not g.is_connected():
            g = random_connected_interval(n, seed)
        if is_chordal(g) is not None and len(maximal_cliques(g)) > 7:
            pytest.skip("too many cliques for the oracle")
        tree = build_pq_tree(g)
        assert (tree is not None) == is_interval(g)

    @pytest.mark.parametrize("seed", range(40))
    def test_order_counts_match(self, seed):
        g = random_connected_interval(random.Random(seed).randint(2, 7), 900 + seed)
        if len(maximal_cliques(g)) > 6:
            pytest.skip("too many cliques for the oracle")
        tree = build_pq_tree(g)
        assert tree is not None
        got = sorted(tree.permissible_orders())
        want = sorted(brute_valid_orders(g))
        assert got == want

    def test_long_path_under_default_recursion_limit(self):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            tree = build_pq_tree(path_graph(1100))
        finally:
            sys.setrecursionlimit(limit)
        assert tree.root.kind == "Q"
        assert len(tree.root.children) == 1099

    @staticmethod
    def nested_intervals():
        """For i < 200, the interval [2i, 800 - 2i] and the points 2i + 1 and
        799 - 2i: 400 cliques, and the rows of the 200 intervals nest, so most
        cliques lie in many rows."""
        spans = []
        for i in range(200):
            spans += [(2 * i, 800 - 2 * i), (2 * i + 1, 2 * i + 1), (799 - 2 * i, 799 - 2 * i)]
        n = len(spans)
        return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if spans[u][0] <= spans[v][1] and spans[v][0] <= spans[u][1]])

    def test_one_overlap_test_per_pair_of_rows(self, monkeypatch):
        # the spider with three arms of 32 is a tree but no caterpillar, so not
        # interval; the rows of its root are the clique sets of its r = 94
        # vertices of degree >= 2, and the overlap graph on them spans the
        # root. The nested intervals' 199 rows share cliques many times over,
        # and their tree is 200 nodes deep.
        from tgraphs import interval

        calls = []
        overlap_graph = interval._overlap_graph

        def counting(bits, members):
            adj, tests = overlap_graph(bits, members)
            calls.append(tests)
            return adj, tests

        monkeypatch.setattr(interval, "_overlap_graph", counting)
        arms = [(0, 1 + 32 * a) for a in range(3)] + [(i, i + 1) for a in range(3) for i in range(1 + 32 * a, 32 + 32 * a)]
        for g, interval_graph, want_r in ((Graph(97, arms), False, 94), (self.nested_intervals(), True, 199)):
            g, _p = random_relabel(g, 1)
            calls.clear()
            assert (build_pq_tree(g) is not None) == interval_graph
            cliques = maximal_cliques(g)
            rows = {frozenset(i for i, c in enumerate(cliques) if v in c) for v in g.vertices()}
            r = sum(2 <= len(row) < len(cliques) for row in rows)
            assert r == want_r
            assert sum(calls) <= r * (r - 1) // 2

    def test_build_work_is_linear_on_a_path(self):
        # the lines the builder runs, a deterministic count of its work: each
        # row's placement, check and hand-off to a cell, and each vertex's
        # node and run, read only that row's or vertex's cliques. A scan of
        # the root Q-node's 2560 cells per row or per vertex would run
        # millions of lines (about 5200 per vertex at n = 641)
        from tgraphs import interval

        n = 2561
        g = path_graph(n)
        lines = 0

        def local(frame, event, arg):
            nonlocal lines
            lines += event == "line"
            return local

        def tracer(frame, event, arg):
            return local if frame.f_code.co_filename == interval.__file__ else None

        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            tree = build_pq_tree(g)
        finally:
            sys.settrace(previous)
        assert len(tree.root.children) == n - 1
        assert lines <= 400 * n

    def test_subdivided_claw_via_star_triangles(self):
        # a non-interval chordal graph: 3 triangles glued to a center vertex path-wise
        g = subdivided_claw()
        assert is_chordal(g) is not None
        assert not is_interval(g)


def pin_corpus():
    """3119 seeded graphs, 1146 of them not connected interval graphs: random
    T-graphs with three induced subgraphs each, paths, and random interval
    graphs of up to 25 intervals."""
    for d in range(2, 6):
        for n in (5, 10, 20, 40):
            for s in range(40):
                g, _ = random_t_graph(d, n, s)
                yield g
                for k in range(3):
                    rng = random.Random(f"pin-sub-{d}-{n}-{s}-{k}")
                    yield g.subgraph(rng.sample(range(g.n), rng.randint(1, g.n)))[0]
    for n in range(1, 60):
        yield path_graph(n)
    for s in range(500):
        rng = random.Random(f"pin-interval-{s}")
        spans = [(a, a + rng.randrange(12)) for a in (rng.randrange(40) for _ in range(rng.randint(1, 25)))]
        n = len(spans)
        yield Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if spans[u][0] <= spans[v][1] and spans[v][0] <= spans[u][1]])


def test_trees_are_pinned():
    """Every tree of the pin corpus, with its vertex mapping and leaf sets,
    hashes to the value recorded before the builder moved to clique bitsets."""
    import hashlib

    digest = hashlib.sha256()
    graphs = not_interval = 0
    for g in pin_corpus():
        graphs += 1
        tree = build_pq_tree(g)
        if tree is None:
            not_interval += 1
            digest.update(b"None\n")
            continue
        digest.update(pq_tree_to_text(tree).encode())
        digest.update(repr(sorted(tree.vertex_run.items())).encode())
        digest.update(repr(sorted((node.nid, sorted(vs)) for node, vs in tree.node_vertices.items())).encode())
        digest.update(repr([sorted(node.leaf_set) for node in tree.nodes]).encode())
        digest.update(b"\n")
    assert (graphs, not_interval) == (3119, 1146)
    assert digest.hexdigest() == "172da43a5e23135c88d6831b44e5e40353ceb80d9afe060e1ece27a08607f95e"


def test_canonical_forms_are_pinned():
    """Every tree of the pin corpus, with its plain canonical codes and
    orders, and one coloured pass with its reversible Q-nodes, hashes to the
    value recorded before `_finalize` kept each node's vertices in order."""
    import hashlib

    digest = hashlib.sha256()
    trees = 0
    for g in pin_corpus():
        tree = build_pq_tree(g)
        if tree is None:
            continue
        trees += 1
        digest.update(repr(_canonical_forms(tree)).encode())
        # coloured by degree, an invariant, so that 100 Q-nodes reverse
        colour = [(g.degree(v) % 3,) if g.degree(v) % 2 else () for v in g.vertices()]
        blank: list = [()] * len(tree.nodes)
        flips: dict = {}
        digest.update(repr(_forms(tree, tree.nodes, colour, blank, list(blank), flips)).encode())
        digest.update(repr(sorted(flips.items())).encode())
        digest.update(b"\n")
    assert trees == 3119 - 1146
    assert digest.hexdigest() == "222a42eb61dd8bc616a98e47e80b5ac1e89fdfc69e647197f202e68be2e67ec5"


def meet_checked_order(ground, ordered):
    """`_order_component` with its closing check as it was before the cells
    were ranked: a second `_Cells.meet` per row, which must find every clique
    placed, the met cells consecutive, the inner ones whole and the end ones
    whole too. The reference for the rank check."""
    cells = _Cells(ordered[0])
    for w in ordered[1:]:
        if not _insert_row(cells, w):
            return None
    size = cells.size
    for w in ordered:
        parts, new, lo, hi = cells.meet(w)
        if new or lo < 0 or len(parts[lo]) != size[lo] or len(parts[hi]) != size[hi]:
            return None
    position = {}
    k = cells.first
    while k >= 0:
        position[k] = len(position)
        k = cells.right[k]
    out = [[] for _ in position]
    for c in ground:
        out[position[cells.cell_of[c]]].append(c)
    return out


@st.composite
def row_families(draw):
    """1-7 rows over cliques 0..k-1, each a sorted clique list: runs of one
    hidden order, so that many families can be laid out, or any cliques."""
    k = draw(st.integers(2, 9))
    hidden = draw(st.permutations(range(k)))
    rows = []
    for _ in range(draw(st.integers(1, 7))):
        if draw(st.booleans()):
            a = draw(st.integers(0, k - 1))
            rows.append(sorted(hidden[a : draw(st.integers(a, k - 1)) + 1]))
        else:
            rows.append(sorted(draw(st.sets(st.integers(0, k - 1), min_size=1))))
    return rows


class TestClosingCheck:
    """`_order_component`'s closing check by cell ranks accepts exactly what
    the per-row `meet` check accepted, and returns the same cells."""

    @settings(max_examples=500, deadline=None)
    @given(row_families())
    def test_random_row_families(self, rows):
        ground = sorted(set().union(*rows))
        assert _order_component(ground, rows) == meet_checked_order(ground, rows)

    def test_pin_corpus(self, monkeypatch):
        from tgraphs import interval

        calls = []

        def recording(ground, ordered):
            calls.append((list(ground), [list(w) for w in ordered]))
            return _order_component(ground, ordered)

        monkeypatch.setattr(interval, "_order_component", recording)
        for g in pin_corpus():
            build_pq_tree(g)
        accepted = 0
        for ground, ordered in calls:
            got = _order_component(ground, ordered)
            assert got == meet_checked_order(ground, ordered)
            accepted += got is not None
        assert len(calls) > accepted > 0


def path_power(n, k):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, min(n, i + k + 1))])


def full_scan_kv(tree, v):
    """A vertex's clique set, by scanning every clique."""
    return frozenset(i for i, c in enumerate(tree.cliques) if v in c)


def full_scan_confined(tree, node, leafset):
    """The belonging vertices of a node whose clique sets lie inside leafset."""
    return frozenset(v for v in tree.belongs(node) if full_scan_kv(tree, v) <= leafset)


class TestCliqueIncidence:
    """The incidence built once per tree and the Q-node columns read off child
    spans agree with full scans."""

    @staticmethod
    def hosts():
        for seed in range(4):
            yield random_relabel(path_graph(5 + 4 * seed), seed)[0]
            yield random_relabel(path_power(8 + 3 * seed, 1 + seed % 3), seed)[0]
            for n in (6, 12, 20):
                yield random_connected_interval(n, 100 * seed + n)
        # a cone over P5 plus a pendant w on the apex u: u sits at the root
        # P-node and passes through the Q-node below it
        u, w = 5, 6
        yield Graph(7, list(path_graph(5).edges) + [(u, v) for v in range(5)] + [(u, w)])

    def test_incidence_matches_full_scan(self):
        for g in self.hosts():
            tree = build_pq_tree(g)
            assert tree.vertex_cliques == tuple(full_scan_kv(tree, v) for v in g.vertices())

    def test_belonging_counts_match_full_scan(self):
        for g in self.hosts():
            tree = build_pq_tree(g)
            assert tree.belonging == tuple(len(tree.belongs(node)) for node in tree.nodes)

    def test_q_columns_match_full_scan(self):
        checked = 0
        for g in self.hosts():
            # every vertex marked: no subtree is clean, so every Q-node gets its columns
            enc = _marked_encoding(MarkedIntervalGraph(g, [[frozenset([v]) for v in g.vertices()]]))
            (tree,) = enc.trees
            q_nodes = {node.nid for node in tree.nodes if node.kind == "Q"}
            assert {nid for _ti, nid in enc.q_columns} == q_nodes
            for (_ti, nid), indices in enc.q_columns.items():
                node = tree.nodes[nid]
                assert len(indices) == len(node.children)
                confined = full_scan_confined(tree, node, node.leaf_set)
                for child, index in zip(node.children, indices):
                    column = frozenset(v for v in confined if full_scan_kv(tree, v) & child.leaf_set)
                    assert enc.family.sets[index] == column
                    checked += 1
        assert checked > 100


class TestEncodingSize:
    @pytest.mark.parametrize("n", [21, 161, 641])
    def test_path_family_is_linear(self, n):
        # one column per clique of the root Q-node, one node set, one layer set
        family = _marked_encoding(MarkedIntervalGraph(path_graph(n), [])).family
        holders = [0] * n
        for s in family.sets:
            for z in s:
                holders[z] += 1
        assert len(family.sets) == n + 1
        assert sum(map(len, family.sets)) == 4 * n - 2
        assert sum(h * h for h in holders) == 16 * n - 14


class TestInnerVertices:
    def test_claw_root(self):
        tree = build_pq_tree(star_graph(3))
        assert tree.assigned_vertices(tree.root) == {0}

    def test_path4_root(self):
        tree = build_pq_tree(path_graph(4))
        # definition evaluated directly: vertices in >= 2 children, no sibling
        got = tree.assigned_vertices(tree.root)
        want = set()
        for v in range(4):
            kv = [c for c in tree.root.children if v in tree.belongs(c)]
            if len(kv) >= 2:
                want.add(v)
        assert got == want == {1, 2}

    def test_nodes_outside_the_tree_hold_nothing(self):
        tree = build_pq_tree(path_graph(4))
        other = build_pq_tree(path_graph(4))
        assert tree.assigned_vertices(other.root) == frozenset()
        assert tree.assigned_vertices(PQNode("L", clique=0)) == frozenset()
        unfinalised = PQTree(tree.graph, tree.cliques, PQNode("L", clique=0), tree.vertex_cliques)
        assert unfinalised.assigned_vertices(unfinalised.root) == frozenset()
        assert unfinalised.node_vertices == {}


class TestSerialization:
    def test_claw_text(self):
        tree = build_pq_tree(star_graph(3))
        text = pq_tree_to_text(tree)
        assert text.startswith("P(")
        assert text.count("L{") == 3

    def test_path_text(self):
        tree = build_pq_tree(path_graph(5))
        assert pq_tree_to_text(tree).startswith("Q(")

    def test_tree_deeper_than_the_recursion_limit(self):
        depth = sys.getrecursionlimit() + 100
        node = PQNode("L", clique=0)
        for i in range(depth):
            node = PQNode("P" if i % 2 else "Q", [node, PQNode("L", clique=1)])
        tree = PQTree(Graph(3, [(0, 1), (1, 2)]), ((0, 1), (1, 2)), node, ())
        text = pq_tree_to_text(tree)
        assert text.startswith("P(Q(P(")
        assert text.count("L{0,1}") == 1 and text.count("L{1,2}") == depth
        assert text.endswith("L{0,1},L{1,2}),L{1,2})" + ",L{1,2})" * (depth - 2))


class TestReduceClean:
    def test_no_marks_everything_clean(self):
        tree = build_pq_tree(path_graph(6))
        red = reduce_clean(tree, frozenset())
        assert len(red.retained) == 1
        assert red.retained[0] is tree.root

    def test_all_marked_discards_nothing_informative(self):
        tree = build_pq_tree(path_graph(6))
        red = reduce_clean(tree, frozenset(range(6)))
        # every node that holds any vertex is retained; discards are vacuous
        for node in tree.nodes:
            if tree.assigned_vertices(node):
                assert node in red.retained
        for parent_nid, drops in red.discarded.items():
            for pos, _code in drops:
                parent = next(n for n in tree.nodes if n.nid == parent_nid)
                child = parent.children[pos]
                assert not tree.assigned_vertices(child)

    @pytest.mark.parametrize("seed", range(10))
    def test_equal_codes_mean_isomorphic_subtrees(self, seed):
        g = random_connected_interval(9, 40 + seed)
        tree = build_pq_tree(g)
        # regenerate under a relabeling: root codes must match exactly
        from tgraphs.harness import random_relabel
        from tgraphs.interval import _canonical_forms

        h, _p = random_relabel(g, seed)
        tree2 = build_pq_tree(h)
        assert _canonical_forms(tree)[0][tree.root.nid] == _canonical_forms(tree2)[0][tree2.root.nid]

    def test_codes_are_isomorphism_complete(self):
        """Equal codes iff interface-preserving isomorphic belonging subgraphs.

        The interface is the set of pass-through vertices (assigned above the
        subtree); a genuine automorphism maps pass-throughs to pass-throughs,
        so the oracle must too. Equal codes also make the zipped canonical
        orders, with the pass-throughs paired in sorted order, an isomorphism:
        each pass-through lies in every clique of the subtree.
        """
        from itertools import permutations as iperm

        from tgraphs.interval import _canonical_forms

        def marked_iso_exists(sub1, marks1, sub2, marks2):
            if sub1.n != sub2.n or sub1.m != sub2.m or len(marks1) != len(marks2):
                return False
            for images in iperm(range(sub2.n)):
                if {images[v] for v in marks1} != marks2:
                    continue
                if all(sub2.has_edge(images[u], images[v]) for u, v in sub1.edges):
                    return True
            return False

        pool = []
        by_code = {}
        for seed in range(40):
            g = random_connected_interval(random.Random(seed).randint(3, 9), 300 + seed)
            # a relabelled copy numbers its cliques differently, so its Q-nodes
            # often come reversed
            for copy in (g, random_relabel(g, seed)[0]):
                tree = build_pq_tree(copy)
                codes, orders = _canonical_forms(tree)
                for node in tree.nodes:
                    belongs = tree.belongs(node)
                    sub, idx = copy.subgraph(belongs)
                    passthrough = frozenset(idx[v] for v in belongs - frozenset(orders[node.nid]))
                    order = [idx[v] for v in orders[node.nid]] + sorted(passthrough)
                    by_code.setdefault(codes[node.nid], []).append((sub, order))
                    if copy is g and len(belongs) <= 7:
                        pool.append((codes[node.nid], sub, passthrough))
        zipped = 0
        for group in by_code.values():
            for (sub_a, order_a), (sub_b, order_b) in combinations(group, 2):
                images = dict(zip(order_a, order_b))
                assert sorted(images) == list(range(sub_a.n)) and sorted(images.values()) == list(range(sub_b.n))
                assert sub_a.m == sub_b.m
                assert all(sub_b.has_edge(images[u], images[v]) for u, v in sub_a.edges)
                zipped += 1
        assert zipped > 100, zipped
        checked = 0
        for i in range(len(pool)):
            for j in range(i + 1, min(i + 12, len(pool))):
                code_i, sub_i, pt_i = pool[i]
                code_j, sub_j, pt_j = pool[j]
                same_code = code_i == code_j
                iso = marked_iso_exists(sub_i, pt_i, sub_j, pt_j)
                assert same_code == iso, (code_i, code_j, sub_i.edges, sub_j.edges)
                checked += 1
        assert checked > 100


class TestMarkedIntervalGraph:
    @pytest.mark.parametrize(
        "families, tail",
        [([({7},)], None), ([({-1},)], None), ([], 9)],
        ids=["vertex-past-the-host", "negative-vertex", "tail-past-the-host"],
    )
    def test_out_of_range_input_is_a_value_error(self, families, tail):
        with pytest.raises(ValueError):
            MarkedIntervalGraph(path_graph(3), families, tail=tail)


class TestMarkedActionGroup:
    def test_k3_singletons_full_symmetric(self):
        g = complete_graph(3)
        m = MarkedIntervalGraph(g, [({0}, {1}, {2})])
        assert marked_action_group(m).order() == 6

    def test_path_swap(self):
        g = path_graph(3)
        m = MarkedIntervalGraph(g, [({0}, {2})])
        group = marked_action_group(m)
        assert group.order() == 2

    def test_marks_break_symmetry(self):
        g = path_graph(5)
        m = MarkedIntervalGraph(g, [({1},), ({3},)])
        # reversal maps 1 to 3, crossing distinct families: forbidden
        assert marked_action_group(m).order() == 1

    def test_same_family_allows_reversal(self):
        g = path_graph(5)
        m = MarkedIntervalGraph(g, [({1}, {3})])
        group = marked_action_group(m)
        assert group.order() == 2

    def test_tail_pins_reversal(self):
        g = path_graph(5)
        m = MarkedIntervalGraph(g, [({1}, {3})], tail=0)
        assert marked_action_group(m).order() == 1

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 9)
        m = random_marked(n, seed, with_tail=bool(seed % 3 == 0))
        got = marked_action_group(m)
        want = brute_marked_autgroup(m)
        assert got.order() == want.order(), (m.host.edges, m.families, m.tail)
        for gen in want.generators:
            assert got.contains(gen)

    @pytest.mark.parametrize("seed", range(20))
    def test_elements_preserve_families_and_sizes(self, seed):
        m = random_marked(7, 100 + seed)
        group = marked_action_group(m)
        flat = m.flat_sets()
        fam_of = [j for j, fam in enumerate(m.families) for _ in fam]
        for gen in group.generators:
            for i in range(len(flat)):
                assert fam_of[gen(i)] == fam_of[i]
                assert len(flat[gen(i)]) == len(flat[i])


@st.composite
def singleton_marked(draw):
    """Connected marked interval hosts whose marked sets have at most one
    vertex: one host, or up to four, often of one graph with the same marks
    so that hosts swap; 1-3 families and either a tail on every host or on none."""
    families = draw(st.integers(1, 3))
    with_tail = draw(st.booleans())
    first = draw(st.integers(1, 9)), draw(st.integers(0, 10**6))
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        n, seed = first if draw(st.booleans()) else (draw(st.integers(1, 9)), draw(st.integers(0, 10**6)))
        g = random_connected_interval(n, seed) if n > 1 else Graph(1, [])
        vertex = st.integers(0, g.n - 1).map(lambda v: frozenset([v]))
        marked = st.one_of(vertex, vertex, vertex, st.just(frozenset()))
        fams = [draw(st.lists(marked, max_size=4)) for _ in range(families)]
        leaves = [v for v in g.vertices() if g.degree(v) == 1]
        tail = draw(st.sampled_from(leaves)) if with_tail and leaves else None
        part = MarkedIntervalGraph(g, fams, tail=tail)
        parts.append(parts[-1] if parts and draw(st.booleans()) else part)
    if any(part.tail is None for part in parts):
        parts = [MarkedIntervalGraph(part.host, part.families) for part in parts]
    return parts


def action_domain(hosts):
    """The size of `marked_set_action`'s domain: the hosts, then the marked sets."""
    return len(hosts) + sum(len(fam) for m in hosts for fam in m.families)


def check_counted_action(hosts, flips=None):
    """`marked_set_action(hosts)` against the key path, `family_set_action`:
    equal groups, at the counted order, which a chain of unknown order on the
    same generators also reaches (so the count is not understated) and which
    doubled raises (so it is not overstated). `flips`, when given, collects
    each reversible Q-node's absorption."""
    degree = action_domain(hosts)
    gens, leads, order = marked_set_action(hosts)
    assert len(leads) == len(gens) and all(gen(lead) != lead for gen, lead in zip(gens, leads))
    got = PermGroup(degree, gens, leads, order)
    assert not got._sifted  # orbit closure alone reached the counted order
    want = PermGroup(degree, family_set_action(hosts))
    assert got.order() == want.order() == order
    assert all(want.contains(gen) for gen in got.generators)
    assert all(got.contains(gen) for gen in want.generators)
    assert PermGroup(degree, gens, leads).order() == order
    with pytest.raises(AssertionError):
        PermGroup(degree, gens, leads, 2 * order)
    return got


class TestSingletonGroup:
    """Hosts whose marked sets have at most one vertex read their action on
    hosts and marked sets off the coloured PQ-trees (`marked_set_action`);
    `family_autgroup` of their union's encoding, projected, is the oracle."""

    @settings(max_examples=150, deadline=None)
    @given(singleton_marked())
    def test_equals_the_family_group(self, hosts):
        check_counted_action(hosts)
        m = hosts[0] if len(hosts) == 1 else marked_union(hosts)[0]
        enc = _marked_encoding(m)
        group = family_autgroup(enc.family)
        for gen in group.generators:
            element = find_element(group, dict(enumerate(gen.images)))
            assert element == gen
            sigma = _realize_vertex_map(enc, element)
            assert all(m.host.has_edge(sigma(u), sigma(v)) for u, v in m.host.edges)
            for i, s in enumerate(enc.family.sets):
                assert sigma.image_of_set(s) == enc.family.sets[gen(i)]
        self.check_reductions(m, enc)

    @staticmethod
    def check_reductions(m, enc):
        """Each component's retained nodes match their definition, and the
        coloured pass over them agrees with one over every node: a clean
        child keeps its plain code, and no retained child ties a clean sibling."""
        colour = [
            tuple(j for j, fam in enumerate(m.families) for s in fam if v in s) + ((-1,) if v == m.tail else ())
            for v in m.host.vertices()
        ]
        marked = m.marked_vertices()

        def below(x, node):
            while x is not None and x is not node:
                x = x.parent
            return x is node

        for red, back in zip(enc.reductions, enc.backs):
            tree = red.tree
            # retained: the root, and every node with a marked vertex assigned in its subtree
            marked_at = [x for x in tree.nodes if any(back[v] in marked for v in tree.assigned_vertices(x))]
            assert red.retained == tuple(
                node for node in tree.nodes if node.parent is None or any(below(x, node) for x in marked_at)
            )
            local = [colour[hv] for hv in back]
            plain, orders = tree.canonical_forms()
            blank = [()] * len(tree.nodes)
            everywhere, _orders = _forms(tree, tree.nodes, local, list(blank), list(blank))
            codes, _orders = _forms(tree, red.retained, local, list(plain), list(orders))
            kept = set(red.retained)
            for node in red.retained:
                assert codes[node.nid] == everywhere[node.nid]
                clean = [c for c in node.children if c not in kept]
                assert all(everywhere[c.nid] == plain[c.nid] for c in clean)
                assert not {codes[c.nid] for c in node.children if c in kept} & {codes[c.nid] for c in clean}

    def test_singleton_hosts_take_the_tree_path(self, monkeypatch):
        paths = []
        for name in ("family_autgroup", "_marked_encoding"):
            original = getattr(tgraphs.interval, name)
            monkeypatch.setattr(tgraphs.interval, name, lambda arg, f=original, name=name: paths.append(name) or f(arg))
        g = path_graph(5)
        marked_set_action([MarkedIntervalGraph(g, [({1}, set()), ({3},)], tail=0)])
        assert paths == []
        family_set_action([MarkedIntervalGraph(g, [({1, 2}, {3})])])
        assert paths == ["_marked_encoding", "family_autgroup"]
        with pytest.raises(ValueError):
            marked_set_action([MarkedIntervalGraph(g, [({1, 2}, {3})])])

    @pytest.mark.parametrize(
        "m, order",
        [
            # a path's reversal swaps the two marks of one family
            ([MarkedIntervalGraph(path_graph(5), [({1}, {3})])], 2),
            # two equal marked triangles swap; inside each, the two unmarked
            # vertices are twins that move no point
            ([MarkedIntervalGraph(complete_graph(3), [({0},)])] * 2, 2),
            # twins of a triangle: 0 and 1 swap; 2, listed twice, has a colour
            # of its own, and its two equal sets swap
            ([MarkedIntervalGraph(complete_graph(3), [({0}, {1}, {2}, {2})])], 4),
        ],
    )
    def test_orders(self, m, order):
        assert marked_set_action(m)[2] == order == PermGroup(action_domain(m), family_set_action(m)).order()


class TestMarkedIsomorphism:
    def test_identity_instance(self):
        m = random_marked(6, 5)
        result = marked_isomorphism(m, m)
        assert result is not None
        vmap, _smaps = result
        for u, v in m.host.edges:
            assert m.host.has_edge(vmap[u], vmap[v])

    def test_p3_vs_k3(self):
        m1 = MarkedIntervalGraph(path_graph(3), [()])
        m2 = MarkedIntervalGraph(complete_graph(3), [()])
        assert marked_isomorphism(m1, m2) is None

    @pytest.mark.parametrize("seed", range(25))
    def test_relabeled_instance_found(self, seed):
        from tgraphs.harness import random_relabel

        m = random_marked(random.Random(seed).randint(2, 8), 200 + seed)
        h, p = random_relabel(m.host, seed)
        fams = tuple(
            tuple(frozenset(p(v) for v in s) for s in fam) for fam in m.families
        )
        tail = p(m.tail) if m.tail is not None else None
        m2 = MarkedIntervalGraph(h, fams, tail=tail)
        result = marked_isomorphism(m, m2)
        assert result is not None
        vmap, smaps = result
        for u, v in m.host.edges:
            assert h.has_edge(vmap[u], vmap[v])
        for j, fam in enumerate(m.families):
            for pos, s in enumerate(fam):
                image = frozenset(vmap[v] for v in s)
                assert image == m2.families[j][smaps[j][pos]]

    # the path 0-4 with 5 on 3 and 4, an apex 6 on all of them and a pendant 7 on
    # 6: P(Q(...),L{6,7}), and marking 6 leaves the Q-subtree, which is not
    # mirror-symmetric, clean; a relabelling reverses it about half the time
    APEX = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)] + [(6, v) for v in range(6)] + [(6, 7)])

    def test_apex_tree_shape(self):
        text = pq_tree_to_text(build_pq_tree(self.APEX))
        assert text.startswith("P(Q(") and text.endswith(",L{6,7})")

    @pytest.mark.parametrize("seed", range(30))
    def test_clean_q_subtrees_pair_in_either_orientation(self, seed):
        h, p = random_relabel(self.APEX, seed)
        m1 = MarkedIntervalGraph(self.APEX, [({6},)])
        m2 = MarkedIntervalGraph(h, [({p(6)},)])
        result = marked_isomorphism(m1, m2)
        assert result is not None
        vmap, _smaps = result
        assert vmap[6] == p(6)
        assert sorted(vmap) == list(range(8))
        assert all(h.has_edge(vmap[u], vmap[v]) for u, v in self.APEX.edges)

    @pytest.mark.parametrize("seed", range(200))
    def test_disconnected_unions(self, seed):
        m = random_marked_union(seed)
        h, p = random_relabel(m.host, seed)
        fams = [[frozenset(map(p, s)) for s in fam] for fam in m.families]
        m2 = MarkedIntervalGraph(h, fams)  # a union carries its parts' tails as a family
        result = marked_isomorphism(m, m2)
        assert result is not None, (m.host.edges, m.families)
        vmap, smaps = result
        assert sorted(vmap) == list(range(m.host.n))
        assert all(h.has_edge(vmap[u], vmap[v]) for u, v in m.host.edges)
        for j, fam in enumerate(m.families):
            assert sorted(smaps[j]) == list(range(len(fam)))
            for pos, s in enumerate(fam):
                assert frozenset(vmap[v] for v in s) == m2.families[j][smaps[j][pos]]
        # every generator of the encoded family's group is realised on the host
        enc = _marked_encoding(m)
        sets = enc.family.sets
        for gen in family_autgroup(enc.family).generators:
            sigma = _realize_vertex_map(enc, gen)
            assert all(m.host.has_edge(sigma(u), sigma(v)) for u, v in m.host.edges)
            assert all(sigma.image_of_set(s) == sets[gen(i)] for i, s in enumerate(sets))

    def test_empty_marked_set(self):
        m = MarkedIntervalGraph(path_graph(3), [(frozenset(), frozenset({0}))])
        assert marked_isomorphism(m, m) == ([0, 1, 2], [[0, 1]])
        flipped = MarkedIntervalGraph(path_graph(3), [(frozenset({2}), frozenset())])
        assert marked_isomorphism(m, flipped) == ([2, 1, 0], [[1, 0]])

    def test_transport_identity(self):
        # seed 7 has a trivial action group; seeds 6 and 4 add non-identity actions
        for m in (random_marked(6, 7), random_marked(6, 6), random_marked(6, 4)):
            enc = _marked_encoding(m)
            group = family_autgroup(enc.family)
            slots = [(j, pos) for j, fam in enumerate(m.families) for pos in range(len(fam))]
            actions = [{slot: slot for slot in slots}]
            # marked_action_group numbers the marked sets family by family, as slots does
            actions += [{slot: slots[gen(t)] for t, slot in enumerate(slots)} for gen in marked_action_group(m).generators]
            index = enc.a_indices
            for action in actions:
                found = find_element(group, {index[j][pos]: index[j2][pos2] for (j, pos), (j2, pos2) in action.items()})
                assert found is not None
                vmap = _realize_vertex_map(enc, found).images
                for u, v in m.host.edges:
                    assert m.host.has_edge(vmap[u], vmap[v])
                for (j, pos), (j2, pos2) in action.items():
                    assert frozenset(vmap[v] for v in m.families[j][pos]) == m.families[j2][pos2]

    def test_group_computes_antichain_once(self, monkeypatch):
        calls = []

        def counting(family):
            calls.append(len(family))
            return max_antichain_size(family)

        monkeypatch.setattr(tgraphs.setfamily, "max_antichain_size", counting)
        for seed in (4, 6, 7):
            calls.clear()
            family_autgroup(_marked_encoding(random_marked(6, seed)).family)
            # the family group assumes no antichain bound, so it never computes one
            assert len(calls) == 0


class TestRealizeChecks:
    # swapping the marked sets {1} and {3} of P5 across families is no automorphism
    SCRIPT = """
from tgraphs.graph import path_graph
from tgraphs.interval import MarkedIntervalGraph, _marked_encoding, _realize_vertex_map
from tgraphs.perm import Perm
enc = _marked_encoding(MarkedIntervalGraph(path_graph(5), [({1},), ({3},)]))
i, j = enc.a_indices[0][0], enc.a_indices[1][0]
images = list(range(len(enc.family.sets)))
images[i], images[j] = j, i
_realize_vertex_map(enc, Perm(images))
"""

    # root orders that repeat one vertex of the claw leave the vertex map
    # with a vertex hit twice and others never: not a bijection
    COLLIDING_SCRIPT = """
import tgraphs.interval as interval
from tgraphs.graph import star_graph
from tgraphs.perm import Perm
coloured_root_form = interval.coloured_root_form
def repeated(tree, colour):
    code, order = coloured_root_form(tree, colour)
    return code, (order[0],) * len(order)
interval.coloured_root_form = repeated
enc = interval._marked_encoding(interval.MarkedIntervalGraph(star_graph(3), []))
interval._realize_vertex_map(enc, Perm.identity(len(enc.family.sets)))
"""

    @staticmethod
    def run_optimized(script):
        src = os.path.dirname(os.path.dirname(os.path.abspath(tgraphs.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env)

    def test_invalid_tau_raises_under_python_O(self):
        run = self.run_optimized(self.SCRIPT)
        assert run.returncode != 0
        assert "AssertionError: no host isomorphism carries the encoded sets as tau does" in run.stderr, run.stderr

    def test_non_bijective_map_raises_assertion_not_value_error(self):
        run = self.run_optimized(self.COLLIDING_SCRIPT)
        assert run.returncode != 0
        assert "AssertionError: realized map is not a bijection" in run.stderr, run.stderr
        assert "ValueError" not in run.stderr
