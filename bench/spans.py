"""Outside-in tracing: spans around calls into the engine's public functions.

The engine's modules bind each other's functions with ``from .x import y``,
so a function is reached through every module namespace that imported it.
``Tracer.install`` replaces each such binding with a timing wrapper and
``Tracer.remove`` puts the originals back, so untraced runs pay nothing.
Spans stay in memory; self time is a span's duration minus the durations of
its wrapped children.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (defining module, function, layer name). A layer name of None names the
# layer after the module the call came through instead.
TARGETS = (
    ("graph", "parse_graph_text", "graph.parse_graph_text"),
    ("chordal", "is_chordal", "chordal.is_chordal"),
    ("decompose", "canonical_decomposition", "decompose.canonical_decomposition"),
    ("interval", "build_pq_tree", "interval.build_pq_tree"),
    ("interval", "marked_isomorphism", "interval.marked_isomorphism"),
    ("setfamily", "family_autgroup", "setfamily.family_autgroup"),
    ("perm", "fhl_subgroup", "perm.fhl_subgroup"),
    ("perm", "direct_product", "perm.direct_product"),
    ("perm", "find_block_swap", None),
    ("iso", "combine", "iso.combine"),
    ("iso", "level_group", "iso.level_group"),
    ("iso", "decomposition_autgroup", "iso.decomposition_autgroup"),
    ("iso", "lift_to_vertices", "iso.lift_to_vertices"),
    ("iso", "is_isomorphic", "iso.is_isomorphic"),
)
# layers whose find_block_swap calls are reported; other callers fold into "other"
SWAP_CALLERS = ("iso", "interval")
FHL_KINDS = ("pairwise", "antichain", "exact-venn", "a2")

LAYERS = tuple(name for _, _, name in TARGETS if name and name != "perm.fhl_subgroup")
LAYERS += tuple(f"{m}.find_block_swap" for m in SWAP_CALLERS)
LAYERS += tuple(f"perm.fhl_subgroup.{k}" for k in FHL_KINDS)


def fhl_kind(stage_name: str) -> str:
    for kind in FHL_KINDS:
        if stage_name.startswith(kind):
            return kind
    return "other"


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []  # [layer, pair, parent, start, end, child_s, extra]
        self.pair = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        prefix = self.package.__name__
        modules = [m for name, m in sorted(sys.modules.items()) if name == prefix or name.startswith(prefix + ".")]
        for mod_name, fn_name, layer in TARGETS:
            original = getattr(sys.modules[f"{prefix}.{mod_name}"], fn_name)
            for mod in modules:
                if getattr(mod, fn_name, None) is not original:
                    continue
                consumer = mod.__name__.rpartition(".")[2]
                name = layer or (f"{consumer}.{fn_name}" if consumer in SWAP_CALLERS else f"other.{fn_name}")
                self._saved.append((mod, fn_name, original))
                setattr(mod, fn_name, self._wrap(name, original))

    def remove(self) -> None:
        while self._saved:
            mod, fn_name, original = self._saved.pop()
            setattr(mod, fn_name, original)

    def _wrap(self, layer: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        is_fhl = layer == "perm.fhl_subgroup"

        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            name = f"{layer}.{fhl_kind(args[1].name)}" if is_fhl else layer
            record = [name, self.pair, parent, 0.0, 0.0, 0.0, None]
            spans.append(record)
            stack.append(idx)
            record[3] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[6] = {"raised": type(exc).__name__}
                raise
            finally:
                end = clock()
                record[4] = end
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += end - record[3]
            if is_fhl:
                index = args[0].order() // result.order()
                record[6] = {"index": index, "bound_use": index / args[1].index_bound}
            elif layer == "interval.marked_isomorphism":
                record[6] = {"hit": result is not None}
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- reduction --------------------------------------------------------

    def layer_totals(self, first_span: int = 0) -> dict[str, dict]:
        """Per layer: calls, self seconds and the layer's own counters."""
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for layer, _pair, _parent, start, end, child, extra in self.spans[first_span:]:
            row = out[layer]
            row["calls"] += 1
            row["self_s"] += (end - start) - child
            extra = extra or {}
            if extra.get("raised") == "NotTGraph":
                row["not_t_graph"] = row.get("not_t_graph", 0) + 1
            if "hit" in extra:
                row["hits"] = row.get("hits", 0) + int(extra["hit"])
            if "index" in extra:
                index = extra["index"]
                row["index_max"] = max(row.get("index_max", 1), index)
                row["bound_use_max"] = max(row.get("bound_use_max", 0.0), extra["bound_use"])
                row["cuts"] = row.get("cuts", 0) + int(index > 1)
        return dict(out)

    def root_seconds(self, first_span: int = 0) -> float:
        return sum(s[4] - s[3] for s in self.spans[first_span:] if s[2] == -1)

    def dump(self, path) -> None:
        """Write every span as one JSON line: layer, pair, parent, start, end, self."""
        with open(path, "w", encoding="utf-8") as fh:
            for layer, pair, parent, start, end, child, extra in self.spans:
                row = [layer, pair, parent, round(start, 7), round(end, 7), round(end - start - child, 7)]
                if extra:
                    row.append(extra)
                fh.write(json.dumps(row) + "\n")
