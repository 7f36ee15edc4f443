import contextlib
import io
import json
import re

import pytest

from tgraphs.cli import main
from tgraphs.graph import Graph, cycle_graph, format_graph_text, path_graph, star_graph
from tgraphs.harness import random_relabel, random_t_graph
from tgraphs.selftest import ANALYZE_FIXTURE, run_selftest


def write_graph(tmp_path, name, g):
    p = tmp_path / name
    p.write_text(format_graph_text(g))
    return str(p)


class TestIso:
    def test_identical_files(self, tmp_path, capsys):
        p = write_graph(tmp_path, "g.graph", star_graph(3))
        assert main(["iso", p, p, "--d-max", "3"]) == 0

    def test_non_chordal_is_status_2(self, tmp_path):
        p1 = write_graph(tmp_path, "p4.graph", path_graph(4))
        p2 = write_graph(tmp_path, "c4.graph", cycle_graph(4))
        assert main(["iso", p1, p2, "--d-max", "3"]) == 2

    def test_not_isomorphic_is_status_1(self, tmp_path):
        p1 = write_graph(tmp_path, "p4.graph", path_graph(4))
        p2 = write_graph(tmp_path, "claw.graph", star_graph(3))
        assert main(["iso", p1, p2, "--d-max", "3"]) == 1

    def test_relabeled_pair_with_witness_json(self, tmp_path, capsys):
        g, _ = random_t_graph(3, 8, 5)
        h, _ = random_relabel(g, 5)
        p1 = write_graph(tmp_path, "a.graph", g)
        p2 = write_graph(tmp_path, "b.graph", h)
        assert main(["iso", p1, p2, "--d-max", "3", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "isomorphic"
        witness = data["witness"]
        for u, v in g.edges:
            assert h.has_edge(witness[u], witness[v])

    def test_missing_file_is_status_3(self, tmp_path):
        p1 = write_graph(tmp_path, "a.graph", path_graph(3))
        assert main(["iso", p1, str(tmp_path / "missing.graph"), "--d-max", "2"]) == 3

    def test_bad_format_is_status_3(self, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text("not a graph\n")
        p1 = write_graph(tmp_path, "a.graph", path_graph(3))
        assert main(["iso", str(bad), p1, "--d-max", "2"]) == 3


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["iso", "g1.graph"],
            ["iso", "g1.graph", "g2.graph", "--d-max", "x"],
            ["iso", "g1.graph", "g2.graph", "--d-max", "1"],
            ["gen", "--d", "1", "--n", "5", "--out", "unused"],
            ["gen", "--d", "3", "--n", "0", "--out", "unused"],
            ["decompose", "g.graph", "--d", "1"],
        ],
        ids=["missing-operand", "d-max-not-integer", "d-max-1", "gen-d-1", "gen-n-0", "decompose-d-1"],
    )
    def test_status_3_with_one_line(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "input error" in err


class TestDecompose:
    def test_interval_single_level(self, tmp_path, capsys):
        p = write_graph(tmp_path, "p6.graph", path_graph(6))
        assert main(["decompose", p, "--d", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["levels"]) == 1

    def test_subdivided_claw_two_levels(self, tmp_path, capsys):
        g = Graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
        p = write_graph(tmp_path, "sc.graph", g)
        assert main(["decompose", p, "--d", "3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["levels"]) == 2

    def test_non_chordal_reported(self, tmp_path, capsys):
        p = write_graph(tmp_path, "c4.graph", cycle_graph(4))
        assert main(["decompose", p, "--d", "3"]) == 2
        data = json.loads(capsys.readouterr().out)
        assert data["error"] == "not_chordal"

    def test_chordal_promise_violation_is_not_t_graph(self, tmp_path, capsys):
        # chordal, but no component of g minus its joint separators at d = 4
        # meets exactly one of them
        g = Graph(19, [
            (0, 1), (0, 2), (0, 4), (0, 5), (0, 6), (0, 8), (0, 9), (0, 11), (0, 12), (0, 15), (0, 16),
            (0, 17), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 8), (1, 11), (1, 12), (1, 14), (1, 15),
            (1, 18), (2, 8), (3, 6), (4, 8), (6, 8), (6, 9), (6, 11), (6, 12), (6, 14), (6, 15), (6, 18),
            (7, 13), (8, 9), (8, 11), (8, 12), (8, 15), (10, 11), (10, 15), (11, 12), (11, 14), (11, 15),
            (12, 15), (12, 16), (12, 17), (13, 18), (14, 15),
        ])
        p = write_graph(tmp_path, "g19.graph", g)
        assert main(["decompose", p, "--d", "4"]) == 2
        data = json.loads(capsys.readouterr().out)
        assert data["error"] == "not_t_graph"
        assert data["evidence"]["reason"] == "no component is incident to a single joint separator"


class TestGen:
    def test_deterministic_and_verified(self, tmp_path, capsys):
        out1 = str(tmp_path / "one")
        out2 = str(tmp_path / "two")
        assert main(["gen", "--d", "3", "--n", "9", "--seed", "4", "--out", out1]) == 0
        capsys.readouterr()
        assert main(["gen", "--d", "3", "--n", "9", "--seed", "4", "--out", out2]) == 0
        capsys.readouterr()
        assert (tmp_path / "one.graph").read_text() == (tmp_path / "two.graph").read_text()
        assert (tmp_path / "one.rep.json").read_text() == (tmp_path / "two.rep.json").read_text()

    def test_generated_certificate_verifies(self, tmp_path, capsys):
        from tgraphs.graph import parse_graph_text
        from tgraphs.harness import TRepresentation, verify_t_representation

        out = str(tmp_path / "g")
        assert main(["gen", "--d", "3", "--n", "8", "--seed", "1", "--out", out]) == 0
        capsys.readouterr()
        g = parse_graph_text((tmp_path / "g.graph").read_text())
        rep = TRepresentation.from_json_dict(json.loads((tmp_path / "g.rep.json").read_text()))
        assert verify_t_representation(g, rep)

    def test_certificate_with_a_negative_node_id_is_rejected(self):
        from tgraphs.harness import TRepresentation

        # node -1 would alias the last tree node when the certificate is verified
        with pytest.raises(ValueError, match="nonnegative"):
            TRepresentation.from_json_dict({"tree_edges": [[0, 1]], "models": [[-1]]})
        with pytest.raises(ValueError, match="nonnegative"):
            TRepresentation.from_json_dict({"tree_edges": [[-1, 0]], "models": [[0]]})

    @pytest.mark.parametrize("edge", [[0], [0, 1, 2], 0], ids=["one-id", "three-ids", "not-a-list"])
    def test_certificate_with_an_edge_that_is_not_a_pair_is_rejected(self, edge):
        from tgraphs.harness import TRepresentation

        with pytest.raises(ValueError, match="pair"):
            TRepresentation.from_json_dict({"tree_edges": [[0, 1], edge], "models": [[0]]})


class TestAnalyze:
    def test_p4_report(self, tmp_path, capsys):
        p = write_graph(tmp_path, "p4.graph", path_graph(4))
        assert main(["analyze", p, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["chordal"] is True
        assert len(data["leaf_cliques"]) == 2

    def test_one_elimination_pass_and_no_component_search(self, tmp_path, capsys, monkeypatch):
        import tgraphs.chordal as chordal
        import tgraphs.graph as graph

        calls = {"elimination": 0, "components": 0}

        def counting(name, fn):
            def wrapper(g):
                calls[name] += 1
                return fn(g)

            return wrapper

        monkeypatch.setattr(chordal, "_elimination_pass", counting("elimination", chordal._elimination_pass))
        monkeypatch.setattr(graph, "_search_components", counting("components", graph._search_components))
        p = write_graph(tmp_path, "p4.graph", path_graph(4))
        assert main(["analyze", p, "--json"]) == 0
        assert capsys.readouterr().out == (
            '{"n": 4, "m": 3, "chordal": true, "connected": true, "maximal_cliques": [[0, 1], [1, 2], [2, 3]], '
            '"minimal_separators": [[1], [2]], "leaf_cliques": [[0, 1], [2, 3]]}\n'
        )
        assert calls == {"elimination": 1, "components": 0}  # the components come off the elimination pass

    @pytest.mark.parametrize(
        "g, keys",
        [
            (path_graph(4), {"n", "m", "chordal", "connected", "maximal_cliques", "minimal_separators", "leaf_cliques"}),
            (Graph(5, [(0, 1), (1, 2), (3, 4)]), {"n", "m", "chordal", "connected", "maximal_cliques"}),
            (cycle_graph(4), {"n", "m", "chordal", "connected"}),
        ],
        ids=["p4", "disconnected", "c4"],
    )
    def test_json_keys(self, tmp_path, capsys, g, keys):
        p = write_graph(tmp_path, "g.graph", g)
        assert main(["analyze", p, "--json"]) == 0
        assert set(json.loads(capsys.readouterr().out)) == keys

    def test_k4_report(self, tmp_path, capsys):
        from tgraphs.graph import complete_graph

        p = write_graph(tmp_path, "k4.graph", complete_graph(4))
        assert main(["analyze", p, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["maximal_cliques"]) == 1
        assert data["minimal_separators"] == []

    def test_matches_library(self, tmp_path, capsys):
        from tgraphs.chordal import maximal_cliques
        from tgraphs.graph import parse_graph_text

        g, _ = random_t_graph(3, 9, 17)
        if not g.is_connected():
            pytest.skip("connected instance expected")
        p = write_graph(tmp_path, "r.graph", g)
        assert main(["analyze", p, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["maximal_cliques"] == [list(c) for c in maximal_cliques(g)]


@pytest.fixture(scope="module")
def quick_selftest():
    """One `selftest --profile quick --json` run: (exit status, parsed summary)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(["selftest", "--profile", "quick", "--json"])
    return status, json.loads(out.getvalue())


class TestSelftest:
    def test_quick_profile_passes(self, quick_selftest):
        status, data = quick_selftest
        assert status == 0
        assert data["failed"] == 0
        assert {c["name"] for c in data["checks"]} >= {
            "fixture-analysis",
            "oracle-agreement",
            "canonicity",
            "projection-equivalence",
        }

    def test_quick_profile_checks_the_singleton_mark_path(self, quick_selftest):
        """The quick criterion-7 stream checks some groups read off the PQ-trees against brute force."""
        _status, data = quick_selftest
        (detail,) = [c["detail"] for c in data["checks"] if c["name"] == "interval-pq"]
        found = re.search(r"\((\d+) on the singleton-mark path\)", detail)
        assert found is not None and int(found.group(1)) >= 1, detail

    def test_injected_fault_fails(self):
        text, expected = ANALYZE_FIXTURE
        # rewire one edge: the subdivided claw becomes a path, which has a
        # different separator count, so the recomputed summary disagrees
        corrupted = (text.replace("0 5", "4 5"), expected)
        results = run_selftest("quick", fixtures=corrupted)
        by_name = {r.name: r for r in results}
        assert not by_name["fixture-analysis"].ok

    def test_summary_schema_stable(self, quick_selftest):
        status, data = quick_selftest
        assert status == 0
        assert set(data) == {"profile", "passed", "failed", "checks"}
        for check in data["checks"]:
            assert set(check) == {"name", "ok", "detail"}
