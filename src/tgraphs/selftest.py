"""The acceptance corpus: the nine acceptance criteria as seeded checks.

`full` is exactly the acceptance gate (`tests/test_acceptance.py` wraps it);
`quick` runs a prefix of the same seeded streams.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import permutations
from typing import Iterator

from .chordal import is_chordal, leaf_cliques, maximal_cliques, minimal_separators
from .decompose import canonical_decomposition
from .graph import Graph, parse_graph_text
from .harness import (
    brute_force_autgroup,
    brute_force_isomorphism,
    random_relabel,
    random_t_graph,
    verify_t_representation,
)
from .interval import MarkedIntervalGraph, brute_marked_autgroup, build_pq_tree, family_set_action, marked_set_action
from .iso import ISOMORPHIC, NOT_T_GRAPH, combine, decomposition_autgroup, is_isomorphic, project_automorphism
from .perm import MembershipPredicate, Perm, PermGroup, fhl_subgroup, symmetric_on_classes, tower_of_groups
from .setfamily import SetFamily, family_autgroup, is_family_automorphism


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


ANALYZE_FIXTURE = (
    "7 6\n0 1\n1 2\n0 3\n3 4\n0 5\n5 6\n",  # subdivided claw
    {"chordal": True, "cliques": 6, "separators": 4, "leaf_cliques": 3},
)

PROFILES = {
    "quick": {"pairs": 40, "canon": 20, "bounds": 20, "proj": 6, "filters": 5,
              "families": 60, "family_groups": 12, "pq": 40, "marked": 20, "scaling": False},
    "full": {"pairs": 500, "canon": 200, "bounds": 200, "proj": 50, "filters": 20,
             "families": 300, "family_groups": 60, "pq": 200, "marked": 100, "scaling": True},
}

# Case i of a stream draws its sizes from random.Random(i) and its graphs from
# random_t_graph(.., base + i) (the marked cases scan up from there for a connected
# graph); the family-group cases draw from random.Random(base + i).
SEED_BASES = {
    "oracle": 41000, "oracle-other": 42000, "canonicity": 43000, "bounds": 44000,
    "projection": 45000, "projection-other": 46000, "family-groups": 1000, "pq": 47000, "marked": 48000,
}

# Criterion number and title of each check result, as the acceptance gate prints them.
CRITERIA = {
    "oracle-agreement": "1 (oracle equivalence)",
    "canonicity": "2 (canonicity)",
    "certified-bounds": "3 (structural bounds)",
    "projection-equivalence": "4 (projection equivalence)",
    "group-engine": "5 (group engine)",
    "set-families": "6 (set families)",
    "interval-pq": "7 (interval/PQ)",
    "witness-soundness": "8 (witness soundness)",
    "scaling-smoke": "9 (scaling smoke)",
}

Check = Iterator[CheckResult]


def _fixture_check(fixtures) -> CheckResult:
    text, expected = fixtures
    g = parse_graph_text(text)
    chordal = is_chordal(g) is not None
    got = {
        "chordal": chordal,
        "cliques": len(maximal_cliques(g)) if chordal else 0,
        "separators": len(minimal_separators(g)) if chordal else 0,
        "leaf_cliques": len(leaf_cliques(g)) if chordal else 0,
    }
    ok = got == expected
    return CheckResult("fixture-analysis", ok, f"got {got}" if not ok else "fixture matches")


def _oracle(cfg) -> Check:
    """Criteria 1 and 8: verdicts agree with brute force; isomorphic ones carry an edge-verified bijection."""
    start = time.time()
    count = cfg["pairs"]
    disagreements = spurious = verified = isomorphic = 0
    for seed in range(count):
        rng = random.Random(seed)
        d = [2, 3, 4][seed % 3]
        n = rng.randint(1, 10)
        g1, rep1 = random_t_graph(d, n, SEED_BASES["oracle"] + seed)
        if not verify_t_representation(g1, rep1):
            disagreements += 1  # an uncertified input leaves nothing to compare against
            continue
        if seed % 2 == 0:
            g2, _ = random_relabel(g1, seed)
        else:
            g2, _ = random_t_graph(d, n, SEED_BASES["oracle-other"] + seed)
        verdict = is_isomorphic(g1, g2, d)
        if verdict.kind == NOT_T_GRAPH:
            spurious += 1
            continue
        if (verdict.kind == ISOMORPHIC) != (brute_force_isomorphism(g1, g2) is not None):
            disagreements += 1
        if verdict.kind == ISOMORPHIC:
            isomorphic += 1
            w = verdict.witness
            verified += sorted(w) == list(range(g2.n)) and all(g2.has_edge(w[u], w[v]) for u, v in g1.edges)
    elapsed = time.time() - start
    yield CheckResult(
        "oracle-agreement",
        disagreements == 0 and spurious == 0 and elapsed < 300,
        f"{count} pairs, {disagreements} disagreements, {spurious} spurious rejections, {elapsed:.1f}s",
    )
    detail = f"{verified}/{isomorphic} isomorphic verdicts carried a verified witness"
    yield CheckResult("witness-soundness", verified == isomorphic, detail)


def _canonicity(cfg) -> Check:
    """Criterion 2: the decomposition of a relabelled graph is the relabelled decomposition."""
    count = cfg["canon"]
    failures = 0
    for seed in range(count):
        rng = random.Random(seed)
        d = [2, 3, 4][seed % 3]
        n = rng.randint(2, 10)
        g, _ = random_t_graph(d, n, SEED_BASES["canonicity"] + seed)
        h, p = random_relabel(g, seed)
        dec_g = canonical_decomposition(g, d)
        dec_h = canonical_decomposition(h, d)
        failures += dec_g.depth != dec_h.depth or any(
            {frozenset(p(v) for v in f.vertices) for f in lv_g} != {f.vertices for f in lv_h}
            for lv_g, lv_h in zip(dec_g.levels, dec_h.levels)
        )
    yield CheckResult("canonicity", failures == 0, f"{count} relabelings, {failures} failures")


def _bounds(cfg) -> Check:
    """Criterion 3: certified T-graphs decompose with 1..2d fragments on every level but the last."""
    count = cfg["bounds"]
    violations = 0
    for seed in range(count):
        rng = random.Random(seed)
        d = [2, 3, 4][seed % 3]
        n = rng.randint(2, 12)
        g, rep = random_t_graph(d, n, SEED_BASES["bounds"] + seed)
        if not verify_t_representation(g, rep):
            violations += 1
            continue
        try:
            # the extraction raises the moment |L1| > d, |Z0| > d or s > 2d
            dec = canonical_decomposition(g, d)
        except Exception:
            violations += 1
            continue
        violations += not all(0 < len(level) <= 2 * d for level in dec.levels[:-1])
    yield CheckResult("certified-bounds", violations == 0, f"{count} certified inputs, {violations} violations")


def _projection(cfg) -> Check:
    """Criterion 4: the decomposition group is the projection of Aut(H), on self and cross pairs."""
    mismatches = count = seed = 0
    while count < cfg["proj"]:
        rng = random.Random(seed)
        d = [2, 3][seed % 2]
        n = rng.randint(1, 4)
        g1, _ = random_t_graph(d, n, SEED_BASES["projection"] + seed)
        # n <= 4 keeps |V(H)| = |V(g1)| + |V(g2)| <= 9 within brute force
        if seed % 3 == 0:
            g2, _ = random_t_graph(d, rng.randint(1, 9 - n), SEED_BASES["projection-other"] + seed)
        else:
            g2 = g1
        seed += 1
        cd = combine(canonical_decomposition(g1, d), canonical_decomposition(g2, d))
        if cd is None:
            continue
        count += 1
        group = decomposition_autgroup(cd)
        aut = brute_force_autgroup(cd.h)
        projected = PermGroup(cd.degree, [project_automorphism(cd, s) for s in aut.generators])
        mismatches += projected.order() != group.order() or not all(group.contains(x) for x in projected.generators)
    detail = f"{count} instances with |V(H)| <= 9, {mismatches} mismatches"
    yield CheckResult("projection-equivalence", mismatches == 0, detail)


def _group_engine(cfg) -> Check:
    """Criterion 5: FHL subgroups and a tower of groups against enumeration."""

    def s_n(n: int) -> PermGroup:
        return PermGroup(n, [Perm.from_cycles(n, [(0, 1)]), Perm.from_cycles(n, [tuple(range(n))])])

    def wrong_subgroup(group: PermGroup, pred: MembershipPredicate) -> bool:
        sub = fhl_subgroup(group, pred)
        want = [p for p in group.elements() if pred(p)]
        return sub.order() != len(want) or not all(sub.contains(p) for p in want)

    # point stabiliser and partition stabiliser
    blocks = {frozenset({0, 1}), frozenset({2, 3}), frozenset({4})}
    fixtures = [
        (s_n(4), MembershipPredicate(lambda p: p(0) == 0, 4, "fix0")),
        (s_n(5), MembershipPredicate(lambda p: {p.image_of_set(b) for b in blocks} == blocks, 15, "blocks")),
    ]
    mismatches = sum(wrong_subgroup(group, pred) for group, pred in fixtures)
    # bounded colour multiplicity demo: the 2-coloured 6-cycle
    cycle = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    edges_kept = MembershipPredicate(lambda p: all(cycle.has_edge(p(u), p(v)) for u, v in cycle.edges), 36, "edges")
    tower = tower_of_groups(symmetric_on_classes([[0, 2, 4], [1, 3, 5]], degree=6), [edges_kept])
    brute = [p for p in permutations(range(6)) if all(p[v] % 2 == v % 2 for v in range(6)) and edges_kept(Perm(p))]
    mismatches += tower.order() != len(brute)
    # random point-stabiliser filters
    for seed in range(cfg["filters"]):
        rng = random.Random(seed)
        degree = rng.randint(3, 6)
        gens = []
        for _ in range(2):
            images = list(range(degree))
            rng.shuffle(images)
            gens.append(Perm(images))
        group = PermGroup(degree, gens)
        fixed = rng.randrange(degree)
        mismatches += wrong_subgroup(group, MembershipPredicate(lambda p, f=fixed: p(f) == f, group.order(), "stab"))
    detail = f"{mismatches} fixture mismatches; per-stage bounds asserted in every tower run"
    yield CheckResult("group-engine", mismatches == 0, detail)


def _random_family(rng: random.Random, max_sets: int) -> SetFamily:
    ground = rng.randint(1, 6)
    m = rng.randint(1, max_sets)
    return SetFamily(ground, [[z for z in range(ground) if rng.random() < 0.5] for _ in range(m)])


def _set_families(cfg) -> Check:
    """Criterion 6: family automorphism tests and family groups against enumeration."""
    mismatches = 0
    for seed in range(cfg["families"]):
        rng = random.Random(seed)
        fam = _random_family(rng, 4)
        m = len(fam.sets)
        images = list(range(m))
        rng.shuffle(images)
        p = Perm(images)
        got = is_family_automorphism(fam, p)
        mismatches += got != any(
            all(frozenset(zeta[z] for z in fam.sets[i]) == fam.sets[p(i)] for i in range(m))
            for zeta in permutations(range(fam.ground))
        )
    for seed in range(cfg["family_groups"]):
        fam = _random_family(random.Random(SEED_BASES["family-groups"] + seed), 6)
        group = family_autgroup(fam)
        perms = permutations(range(len(fam.sets)))
        mismatches += group.order() != sum(1 for images in perms if is_family_automorphism(fam, Perm(images)))
    detail = f"{cfg['families']} automorphism tests + {cfg['family_groups']} group orders, {mismatches} mismatches"
    yield CheckResult("set-families", mismatches == 0, detail)


def _has_interval_order(g: Graph) -> bool:
    """Brute force: some clique order makes every vertex's cliques consecutive."""
    cliques = maximal_cliques(g)
    rows = [frozenset(i for i, c in enumerate(cliques) if v in c) for v in g.vertices()]
    for order in permutations(range(len(cliques))):
        pos = {c: i for i, c in enumerate(order)}
        if all(max(pos[c] for c in r) - min(pos[c] for c in r) == len(r) - 1 for r in rows):
            return True
    return False


def _interval_pq(cfg) -> Check:
    """Criterion 7: PQ-tree presence, and the engine's marked-set actions (with tails) against brute force."""
    mismatches = pq_cases = seed = 0
    while pq_cases < cfg["pq"]:
        rng = random.Random(seed)
        n = rng.randint(2, 8)
        g, _ = random_t_graph(rng.choice([2, 3]), n, SEED_BASES["pq"] + seed)
        seed += 1
        sub, _ = g.subgraph(g.components()[0])
        if is_chordal(sub) is None or len(maximal_cliques(sub)) > 7:
            continue
        pq_cases += 1
        mismatches += (build_pq_tree(sub) is not None) != _has_interval_order(sub)
    marked_cases = singleton_cases = seed = 0
    while marked_cases < cfg["marked"]:
        rng = random.Random(seed)
        n = rng.randint(2, 9)
        g = None
        for s in range(SEED_BASES["marked"] + seed, SEED_BASES["marked"] + 600 + seed):
            cand, _ = random_t_graph(2, n, s)
            if cand.is_connected():
                g = cand
                break
        seed += 1
        if g is None:
            continue
        cliques = maximal_cliques(g)
        fams = []
        for _ in range(rng.randint(1, 3)):
            fam = []
            for _ in range(rng.randint(0, 3)):
                c = rng.choice(cliques)
                fam.append(frozenset(rng.sample(list(c), rng.randint(1, len(c)))))
            fams.append(tuple(fam))
        tail = None
        if rng.random() < 0.4:
            leaves = [v for v in range(g.n) if g.degree(v) == 1]
            if leaves:
                tail = rng.choice(leaves)
        m = MarkedIntervalGraph(g, fams, tail=tail)
        marked_cases += 1
        want = brute_marked_autgroup(m)
        # the host is point 0 of the action's domain, the marked sets follow in want's order
        got = PermGroup(1 + want.degree, family_set_action([m])).restriction(range(1, 1 + want.degree))
        mismatches += got.order() != want.order() or not all(got.contains(x) for x in want.generators)
        if all(len(s) <= 1 for fam in fams for s in fam):
            singleton_cases += 1
            gens, _leads, order = marked_set_action([m])
            counted = PermGroup(1 + want.degree, gens)  # at unknown order, so the count is checked
            on_sets = counted.restriction(range(1, counted.degree))
            mismatches += counted.order() != order or on_sets.order() != want.order()
            mismatches += not all(on_sets.contains(x) for x in want.generators)
    detail = (
        f"{pq_cases} presence checks + {marked_cases} marked action groups "
        f"({singleton_cases} on the singleton-mark path), {mismatches} mismatches"
    )
    yield CheckResult("interval-pq", mismatches == 0, detail)


def _scaling(cfg) -> Check:
    """Criterion 9: the n=200, d=4 pair decides within 60 s."""
    if not cfg["scaling"]:
        return
    g1, _ = random_t_graph(4, 200, 1)
    g2, _ = random_relabel(g1, 7)
    start = time.time()
    verdict = is_isomorphic(g1, g2, 4)
    elapsed = time.time() - start
    ok = verdict.kind == ISOMORPHIC and elapsed < 60
    yield CheckResult("scaling-smoke", ok, f"n=200 d=4 decided {verdict.kind} in {elapsed:.1f}s (limit 60s)")


# Each check, keyed by the name of its first result, in criterion order.
CHECKS = {
    "oracle-agreement": _oracle,
    "canonicity": _canonicity,
    "certified-bounds": _bounds,
    "projection-equivalence": _projection,
    "group-engine": _group_engine,
    "set-families": _set_families,
    "interval-pq": _interval_pq,
    "scaling-smoke": _scaling,
}


def run_selftest(profile: str, fixtures=ANALYZE_FIXTURE) -> list[CheckResult]:
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r} (expected quick or full)")
    results = [_fixture_check(fixtures)]
    for check in CHECKS.values():
        results += check(PROFILES[profile])
    return results
