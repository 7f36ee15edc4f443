import random
import re

import pytest
from hypothesis import given, settings, strategies as st

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


def old_parse_graph_text(text: str) -> Graph:
    """Reference parser: tokens of every line first, then the header count,
    then each edge's range, order and repetition, then `Graph(n, edges)`."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected two integers, got {raw!r}")
        try:
            rows.append([int(parts[0]), int(parts[1])])
        except ValueError:
            raise ValueError(f"line {lineno}: expected two integers, got {raw!r}") from None
    if not rows:
        raise ValueError("empty graph file (missing 'n m' header)")
    n, m = rows[0]
    edges = rows[1:]
    if len(edges) != m:
        raise ValueError(f"header declares {m} edges, found {len(edges)}")
    seen = set()
    for u, v in edges:
        if not (0 <= u < v < n):
            raise ValueError(f"edge ({u},{v}) violates 0 <= u < v < n={n}")
        if (u, v) in seen:
            raise ValueError(f"edge ({u},{v}) repeated")
        seen.add((u, v))
    return Graph(n, [(u, v) for u, v in edges])


def parse_outcome(parse, text):
    """The graph a parser returns, or the type and message of what it raises."""
    try:
        return parse(text)
    except Exception as e:  # noqa: BLE001 - the outcome is compared, not handled
        return type(e), str(e)


def mangle(rng: random.Random, text: str) -> str:
    """text with a few random line edits: comments, blank lines, CRLF endings,
    bad or extra tokens, dropped, repeated, swapped or shifted edges; half the
    time the header's edge count is then restated to match."""
    lines = text.splitlines()
    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(len(lines) + 1)
        op = rng.randrange(11)
        if op == 0:
            lines.insert(i, rng.choice(["", "   ", "# note", "  # 1 2"]))
        elif op == 1 and i < len(lines):
            lines[i] += rng.choice(["  # tail", "\r", " ", "\t"])
        elif i == len(lines):
            continue
        elif op == 2:
            lines[i] = rng.choice(["x 1", "1", "1 2 3", "1.5 2", "", "0x1 2", "+1 2", "- 1"])
        elif op == 3:
            del lines[i]
        elif op == 4:
            lines.insert(i, lines[i])
        elif op == 5:
            lines[i] = " ".join(reversed(lines[i].split("#")[0].split())) or lines[i]
        elif op in (6, 7):
            parts = lines[i].split("#")[0].split()
            if len(parts) == 2 and all(p.lstrip("-").isdigit() for p in parts):
                k = rng.randrange(2)
                parts[k] = str(int(parts[k]) + rng.choice([-3, -1, 1, 2, 40]))
                lines[i] = " ".join(parts)
        elif op == 8:
            lines[i] = "#" + lines[i]
        elif op == 9:
            lines[i] = "  " + lines[i] + "  "
        else:
            lines = lines[:i]
    rows = [i for i, line in enumerate(lines) if line.split("#")[0].strip()]
    if rows and rng.random() < 0.5:  # restate the edge count, so the edges' own faults show
        parts = lines[rows[0]].split("#")[0].split()
        lines[rows[0]] = " ".join(parts[:1] + [str(len(rows) - 1)])
    return rng.choice(["\n", "\r\n"]).join(lines) + rng.choice(["", "\n"])


class TestParseErrors:
    """`parse_graph_text` raises ValueError with one message per fault kind,
    and on a file with several faults the same one as the reference parser."""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("3 1\n0 x\n", "line 2: expected two integers, got '0 x'"),
            ("3 1\n0 1.0\n", "line 2: expected two integers, got '0 1.0'"),
            ("3 1\n0 1 2\n", "line 2: expected two integers, got '0 1 2'"),
            ("3\n", "line 1: expected two integers, got '3'"),
            ("# c\n\n3 1  # header\n1\n", "line 4: expected two integers, got '1'"),
            ("3 2\n0 1\n", "header declares 2 edges, found 1"),
            ("3 0\n0 1\n", "header declares 0 edges, found 1"),
            ("3 1\n1 0\n", "edge (1,0) violates 0 <= u < v < n=3"),
            ("3 1\n1 1\n", "edge (1,1) violates 0 <= u < v < n=3"),
            ("3 1\n0 3\n", "edge (0,3) violates 0 <= u < v < n=3"),
            ("3 1\n-1 2\n", "edge (-1,2) violates 0 <= u < v < n=3"),
            ("3 2\n0 1\n0 1\n", "edge (0,1) repeated"),
            ("-2 0\n", "vertex count must be nonnegative"),
            ("-2 1\n0 1\n", "edge (0,1) violates 0 <= u < v < n=-2"),
            ("", "empty graph file (missing 'n m' header)"),
            ("# only a comment\n\n   \n", "empty graph file (missing 'n m' header)"),
        ],
        ids=[
            "non-integer",
            "float",
            "three-tokens",
            "one-token-header",
            "after-comments",
            "too-few-edges",
            "too-many-edges",
            "out-of-order",
            "loop",
            "out-of-range",
            "negative-vertex",
            "repeated",
            "negative-n",
            "negative-n-with-edges",
            "empty",
            "comment-only",
        ],
    )
    def test_fault_kinds(self, text, message):
        with pytest.raises(ValueError) as info:
            parse_graph_text(text)
        assert type(info.value) is ValueError
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("4 3\n0 1\n2 1\n0 1\n", "edge (2,1) violates 0 <= u < v < n=4"),
            ("4 3\n0 1\n0 1\n0 9\n", "edge (0,1) repeated"),
            ("4 2\n0 a\n0 1 2\n", "line 2: expected two integers, got '0 a'"),
        ],
        ids=["bad-edge-then-repeat", "repeat-then-out-of-range", "two-bad-lines"],
    )
    def test_first_fault_in_the_file_is_named(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_graph_text(text)

    def test_a_malformed_line_outranks_the_header_and_the_edges(self):
        # every line's tokens are read before the header count and the edges are checked
        with pytest.raises(ValueError, match="^line 4: expected two integers"):
            parse_graph_text("3 5\n1 0\n0 1\n0 z\n")
        with pytest.raises(ValueError, match="^header declares 5 edges, found 2$"):
            parse_graph_text("3 5\n1 0\n0 1\n")

    @settings(max_examples=200)
    @given(small_graphs, st.randoms(use_true_random=False))
    def test_roundtrip_through_comments_blank_lines_and_crlf(self, g, rnd):
        lines = format_graph_text(g).splitlines()
        for _ in range(rnd.randint(0, 4)):
            lines.insert(rnd.randrange(len(lines) + 1), rnd.choice(["", "  ", "# comment", "#"]))
        lines = [line + rnd.choice(["", " ", "  # note"]) for line in lines]
        text = rnd.choice(["\n", "\r\n"]).join(lines) + rnd.choice(["", "\n", "\r\n"])
        assert parse_graph_text(text) == g

    @pytest.mark.parametrize("seed", range(20))
    def test_agrees_with_the_reference_parser(self, seed):
        rng = random.Random(seed)
        for _ in range(100):
            n = rng.randint(0, 7)
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4])
            text = mangle(rng, format_graph_text(g))
            new, old = parse_outcome(parse_graph_text, text), parse_outcome(old_parse_graph_text, text)
            assert new == old, text


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

    @given(small_graphs, st.data())
    def test_subgraph_is_the_graph_only_on_all_vertices(self, g, data):
        # the full-set test reads only the given vertices (their count and
        # ends), so it must agree with comparing against every vertex
        vs = data.draw(st.lists(st.integers(0, g.n - 1), max_size=2 * g.n))
        sub, idx = g.subgraph(vs)
        assert (sub is g) == (set(vs) == set(range(g.n)))
        assert sub.n == len(set(vs)) and idx == {v: i for i, v in enumerate(sorted(set(vs)))}
        assert set(sub.edges) == {(idx[u], idx[v]) for u, v in g.edges if u in idx and v in idx}


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
