#!/usr/bin/env python3
"""Benchmark of the tgraphs isomorphism engine.

Usage, from the repository root:

    python3 bench/run.py --workload dense|chain|screen --seed N --seconds S --trace 0|1

One closed-loop caller in one process submits each pair only after the
previous verdict has returned. Every verdict is judged by the benchmark's own
oracle. With --trace 0 the run reports end-to-end metrics; with --trace 1 it
alternates untraced and traced passes over the corpus and reports per-layer
metrics. The last line of standard output is one JSON object. README.md in
this directory lists the workloads, the metrics and which layer should move
which metric.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import corpus
import spans
from oracle import Oracle

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("dense", "chain", "screen")
SETUP_REPS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 500
PAIR_LIMIT_S = 60.0
# No pair starts after START_DEADLINE_S and none runs past HARD_DEADLINE_S,
# both counted from process start, so a stalled engine cannot hang a run and
# the fingerprints still finish within 180 s.
START_DEADLINE_S = 120.0
HARD_DEADLINE_S = 150.0
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
TRACE_MIN_COVER = 0.95  # root spans must cover this share of traced pair time

T_START = time.perf_counter()


class PairTimeout(BaseException):
    """Raised by SIGALRM inside the engine when a pair exceeds its wall limit."""


def _on_alarm(signum, frame):
    raise PairTimeout()


def load_engine():
    """Import tgraphs from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "tgraphs" / "__init__.py").is_file():
        raise SystemExit(f"error: no engine source at {src / 'tgraphs'}")
    sys.path.insert(0, str(src))
    import tgraphs

    if Path(tgraphs.__file__).resolve().parent != (src / "tgraphs").resolve():
        raise SystemExit(f"error: imported tgraphs from {tgraphs.__file__}, not {src}")
    return tgraphs


def cold_generator_caches(tg) -> None:
    """Drop the generator's in-process tree catalog, so every set-up pays for it."""
    getattr(tg.harness, "_TREE_CATALOG_CACHE", {}).clear()


def submit(tg, workload: str, pair):
    if workload == "screen":
        g1 = tg.graph.parse_graph_text(pair.text1)
        g2 = tg.graph.parse_graph_text(pair.text2)
        return tg.iso.decide_up_to(g1, g2, pair.d)
    g1, g2 = pair.inputs
    return tg.iso.is_isomorphic(g1, g2, pair.d)


class Runner:
    def __init__(self, tg, workload: str, pairs, oracle: Oracle):
        self.tg, self.workload, self.pairs, self.oracle = tg, workload, pairs, oracle
        self.samples: list[float] = []
        self.failures: list[tuple[int, str]] = []
        self.tracer: spans.Tracer | None = None

    def run_pair(self, i: int) -> tuple[float, str | None]:
        """Submit pair i under the wall limit; its time and failure reason, if any."""
        pair = self.pairs[i]
        if self.tracer is not None:
            self.tracer.pair = i
        limit = min(PAIR_LIMIT_S, HARD_DEADLINE_S - (time.perf_counter() - T_START))
        verdict, reason = None, None
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, max(limit, 0.001))
            try:
                verdict = submit(self.tg, self.workload, pair)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except PairTimeout:
            reason = f"exceeded the {limit:.1f} s wall limit"
        except Exception as exc:  # any escaping exception is a failed pair
            reason = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if reason is None:
            reason = self.oracle.judge(i, pair, verdict)
        return elapsed, reason

    def cycle(self) -> float | None:
        """One pass over the corpus in order; its summed pair time, None if the
        run deadline cut it short."""
        total = 0.0
        for i in range(len(self.pairs)):
            if time.perf_counter() - T_START > START_DEADLINE_S:
                return None
            elapsed, reason = self.run_pair(i)
            total += elapsed
            self.samples.append(elapsed)
            if reason is not None:
                self.failures.append((i, reason))
        return total


def percentile_with_tail(values: list[float]) -> tuple[float, float] | None:
    """The highest sample with TAIL_BEYOND samples above it, and its percentile."""
    if len(values) <= TAIL_BEYOND:
        return None
    ordered = sorted(values)
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def setup(tg, workload: str, seed: int):
    """Build the corpus from cold, at least SETUP_REPS times and for at least
    SETUP_MIN_S; the last corpus and every build time."""
    times, prints, pairs = [], set(), None
    while len(times) < SETUP_REPS or (sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPS):
        cold_generator_caches(tg)
        start = time.perf_counter()
        pairs = corpus.build(tg, workload, seed)
        times.append(time.perf_counter() - start)
        prints.add(corpus.fingerprint(pairs))
    if len(prints) != 1:
        raise SystemExit(f"error: {workload} corpus differs between set-ups of one seed")
    return pairs, times


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runner: Runner, setup_times: list[float], seconds: float) -> tuple[dict, list[str]]:
    # whole passes only, so every run times the same mix of pairs
    passes = []
    while sum(passes) < seconds:
        wall = runner.cycle()
        if wall is None:
            break
        passes.append(wall)
    busy = sum(runner.samples)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    done = len(runner.samples)
    if not done:
        raise SystemExit("error: no pair was submitted before the run deadline")
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "pairs_per_s": metric(done / busy, "1/s"),
        "pair_p50_s": metric(statistics.median(runner.samples), "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    notes = [
        f"set-up repeated {len(setup_times)} times; timed {done} verdicts over {busy:.3f} s "
        f"in {len(passes)} whole passes over the corpus"
    ]
    tail = percentile_with_tail(runner.samples)
    if tail is None:
        notes.append(f"pair_tail_s not reported: {done} verdicts leave no percentile with {TAIL_BEYOND} beyond it")
    else:
        notes.append(f"pair_tail_s {tail[0]!r} s (p{tail[1]:.1f} of {done} verdicts, {TAIL_BEYOND} beyond)")
    fail_frac = len(runner.failures) / done
    notes.append(f"fail_frac {fail_frac!r} ratio ({len(runner.failures)} of {done})")
    return metrics, notes


def per_layer(runner: Runner, tracer: spans.Tracer, seconds: float) -> tuple[dict, list[str], bool]:
    plain, traced, totals = [], [], []
    ok = True
    notes = []
    while not traced or sum(plain) + sum(traced) < seconds:
        wall = runner.cycle()
        if wall is None:
            break
        plain.append(wall)
        first = len(tracer.spans)
        tracer.install()
        try:
            wall = runner.cycle()
        finally:
            tracer.remove()
        if wall is None:
            break
        traced.append(wall)
        totals.append(tracer.layer_totals(first))
        cover = tracer.root_seconds(first) / wall
        self_sum = sum(row["self_s"] for row in totals[-1].values())
        if abs(self_sum - tracer.root_seconds(first)) > 1e-6 * max(wall, 1.0) or cover < TRACE_MIN_COVER:
            ok = False
            notes.append(f"trace check failed: self times {self_sum:.6f} s, roots cover {cover:.4f}")
    if not traced:
        raise SystemExit("error: no traced pass completed before the deadline")

    def med(layer: str, key: str, default=0):
        return statistics.median(t.get(layer, {}).get(key, default) for t in totals)

    metrics = {}
    for layer in spans.LAYERS:
        metrics[f"{layer}.calls"] = metric(med(layer, "calls"), "count")
        metrics[f"{layer}.self_s"] = metric(med(layer, "self_s"), "s")
    metrics["decompose.canonical_decomposition.not_t_graph"] = metric(
        med("decompose.canonical_decomposition", "not_t_graph"), "count"
    )
    calls = med("interval.marked_isomorphism", "calls")
    hits = med("interval.marked_isomorphism", "hits")
    metrics["interval.marked_isomorphism.hit_ratio"] = metric(hits / calls if calls else 0.0, "ratio")
    for kind in spans.FHL_KINDS:
        layer = f"perm.fhl_subgroup.{kind}"
        calls = med(layer, "calls")
        metrics[f"{layer}.index_max"] = metric(med(layer, "index_max", 1), "count")
        metrics[f"{layer}.bound_use_max"] = metric(med(layer, "bound_use_max", 0.0), "ratio")
        metrics[f"{layer}.cut_ratio"] = metric(med(layer, "cuts") / calls if calls else 0.0, "ratio")
    metrics["trace_overhead_frac"] = metric(statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")
    covers = [sum(r["self_s"] for r in t.values()) / w for t, w in zip(totals, traced)]
    metrics["trace_self_cover_frac"] = metric(statistics.median(covers), "ratio")
    shares = sorted(((metrics[f"{l}.self_s"]["value"], l) for l in spans.LAYERS), reverse=True)
    busy = statistics.median(traced)
    notes.append(f"{len(plain)} untraced and {len(traced)} traced passes; self-time shares of a traced pass:")
    notes += [f"  {layer:40s} {100 * s / busy:6.2f} %" for s, layer in shares if s > 0]
    return metrics, notes, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tg = load_engine()
    pairs, setup_times = setup(tg, args.workload, args.seed)
    oracle = Oracle()
    oracle.prepare(pairs)
    signal.signal(signal.SIGALRM, _on_alarm)
    runner = Runner(tg, args.workload, pairs, oracle)
    _, warm_reason = runner.run_pair(0)  # warm-up, not counted

    print(f"workload {args.workload} seed {args.seed} pairs/pass {len(pairs)} trace {args.trace}")
    print(f"warm-up pair 0 ({pairs[0].label}): {warm_reason or 'ok'}")
    ok = True
    if args.trace:
        tracer = runner.tracer = spans.Tracer(tg)
        metrics, notes, ok = per_layer(runner, tracer, args.seconds)
        out_dir = ROOT / "bench" / "out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.dump(span_file)
        notes.append(f"{len(tracer.spans)} spans written to {span_file.relative_to(ROOT)}")
    else:
        metrics, notes = end_to_end(runner, setup_times, args.seconds)
    for note in notes:
        print(note)
    for i, reason in runner.failures:
        print(f"FAILED pair {i} ({pairs[i].label}): {reason}")
    for workload in WORKLOADS:
        own = workload == args.workload
        digest = corpus.fingerprint(pairs if own else corpus.build(tg, workload, args.seed))
        print(f"corpus {workload} seed {args.seed} sha256 {digest}")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    result = {
        "correct": ok and not runner.failures,
        "attempted": len(runner.samples),
        "failed": len(runner.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
