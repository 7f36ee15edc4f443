"""Command-line front end: isomorphism decisions, decompositions, generation, analysis."""

from __future__ import annotations

import argparse
import json
import sys

from .chordal import is_chordal, leaf_cliques, maximal_cliques, minimal_separators
from .decompose import canonical_decomposition
from .errors import NotChordal, NotTGraph, TGraphsError
from .graph import Graph, format_graph_text, parse_graph_text
from .harness import random_t_graph, verify_t_representation
from .iso import ISOMORPHIC, NOT_ISOMORPHIC, NOT_T_GRAPH, decide_up_to
from .selftest import run_selftest

EXIT_ISOMORPHIC = 0
EXIT_NOT_ISOMORPHIC = 1
EXIT_NOT_T_GRAPH = 2
EXIT_INPUT_ERROR = 3


def _read_graph(path: str) -> Graph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_graph_text(fh.read())
    except OSError as e:
        raise ValueError(f"cannot read {path}: {e}") from e


def cmd_iso(args) -> int:
    try:
        g1 = _read_graph(args.g1)
        g2 = _read_graph(args.g2)
    except ValueError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    verdict = decide_up_to(g1, g2, args.d_max)
    payload = verdict.to_json_dict()
    if args.json:
        print(json.dumps(payload))
    else:
        if verdict.kind == ISOMORPHIC:
            print(f"isomorphic (d={verdict.d}); witness verified")
        elif verdict.kind == NOT_ISOMORPHIC:
            print(f"not isomorphic (d={verdict.d})")
        else:
            print("not a T-graph for any tried leaf count (this is evidence, not a non-isomorphism proof)")
            print(f"evidence: {verdict.evidence}")
    return {ISOMORPHIC: EXIT_ISOMORPHIC, NOT_ISOMORPHIC: EXIT_NOT_ISOMORPHIC, NOT_T_GRAPH: EXIT_NOT_T_GRAPH}[
        verdict.kind
    ]


def cmd_decompose(args) -> int:
    try:
        g = _read_graph(args.graph)
    except ValueError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        dec = canonical_decomposition(g, args.d)
    except NotChordal as e:
        print(json.dumps({"error": "not_chordal", "message": str(e)}))
        return EXIT_NOT_T_GRAPH
    except NotTGraph as e:
        print(json.dumps({"error": "not_t_graph", "evidence": e.evidence()}))
        return EXIT_NOT_T_GRAPH
    print(json.dumps(dec.to_json_dict()))
    return EXIT_ISOMORPHIC


def cmd_gen(args) -> int:
    g, rep = random_t_graph(args.d, args.n, args.seed)
    graph_path = f"{args.out}.graph"
    rep_path = f"{args.out}.rep.json"
    with open(graph_path, "w", encoding="utf-8") as fh:
        fh.write(format_graph_text(g))
    with open(rep_path, "w", encoding="utf-8") as fh:
        json.dump(rep.to_json_dict(), fh)
    if not verify_t_representation(g, rep):
        raise AssertionError("generated representation does not verify")
    print(json.dumps({"graph": graph_path, "representation": rep_path, "n": g.n, "m": g.m}))
    return 0


def cmd_analyze(args) -> int:
    try:
        g = _read_graph(args.graph)
    except ValueError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    peo = is_chordal(g)
    report: dict = {"n": g.n, "m": g.m, "chordal": peo is not None, "connected": g.is_connected()}
    if peo is not None:
        report["maximal_cliques"] = [list(c) for c in maximal_cliques(g)]
        if report["connected"]:
            report["minimal_separators"] = [list(s) for s in minimal_separators(g)]
            report["leaf_cliques"] = [list(c) for c in leaf_cliques(g)]
    if args.json:
        print(json.dumps(report))
    else:
        print(f"n={report['n']} m={report['m']} chordal={report['chordal']} connected={report['connected']}")
        if peo is not None:
            print(f"maximal cliques ({len(report['maximal_cliques'])}): {report['maximal_cliques']}")
            if report["connected"]:
                print(f"minimal separators: {report['minimal_separators']}")
                print(f"leaf cliques: {report['leaf_cliques']}")
    return 0


def cmd_selftest(args) -> int:
    results = run_selftest(args.profile)
    passed = sum(1 for r in results if r.ok)
    summary = {
        "profile": args.profile,
        "passed": passed,
        "failed": len(results) - passed,
        "checks": [{"name": r.name, "ok": r.ok, "detail": r.detail} for r in results],
    }
    if args.json:
        print(json.dumps(summary))
    else:
        for r in results:
            print(f"[{'PASS' if r.ok else 'FAIL'}] {r.name}: {r.detail}")
        print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one line with the input-error status."""

    def error(self, message: str):
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: input error: {message}\n")


def _at_least(low: int):
    """An argparse type: an integer no smaller than low."""

    def parse(text: str) -> int:
        try:
            if int(text) >= low:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"need an integer >= {low}, got {text!r}")

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tgraphs",
        description="Isomorphism of chordal graphs of bounded leafage via canonical decomposition",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_iso = sub.add_parser("iso", help="decide isomorphism of two graphs")
    p_iso.add_argument("g1")
    p_iso.add_argument("g2")
    p_iso.add_argument("--d-max", type=_at_least(2), default=4, dest="d_max")
    p_iso.add_argument("--json", action="store_true")
    p_iso.set_defaults(func=cmd_iso)

    p_dec = sub.add_parser("decompose", help="emit the canonical decomposition as JSON")
    p_dec.add_argument("graph")
    p_dec.add_argument("--d", type=_at_least(2), required=True)
    p_dec.set_defaults(func=cmd_decompose)

    p_gen = sub.add_parser("gen", help="generate a certified random T-graph")
    p_gen.add_argument("--d", type=_at_least(2), required=True)
    p_gen.add_argument("--n", type=_at_least(1), required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_an = sub.add_parser("analyze", help="report chordal structure of a graph")
    p_an.add_argument("graph")
    p_an.add_argument("--json", action="store_true")
    p_an.set_defaults(func=cmd_analyze)

    p_st = sub.add_parser("selftest", help="run the acceptance corpus")
    p_st.add_argument("--profile", choices=["quick", "full"], default="quick")
    p_st.add_argument("--json", action="store_true")
    p_st.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TGraphsError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
