import importlib
import importlib.util
from pathlib import Path

import tgraphs


def test_every_exported_name_resolves():
    missing = [name for name in tgraphs.__all__ if not hasattr(tgraphs, name)]
    assert missing == []
    assert len(set(tgraphs.__all__)) == len(tgraphs.__all__)


def test_every_traced_benchmark_target_resolves():
    # the benchmark's tracer wraps each target by name, so a missing one crashes every traced run
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{name}"
        for module, name, _layer in spans.TARGETS
        if not callable(getattr(importlib.import_module(f"tgraphs.{module}"), name, None))
    ]
    assert spans.TARGETS and missing == []
