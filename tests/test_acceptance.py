"""Acceptance gate: each criterion of the `tgraphs.selftest` corpus at its full scale.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line per
criterion; `tgraphs selftest --profile full` runs the same checks.
"""

from tgraphs.selftest import CHECKS, CRITERIA, PROFILES, SEED_BASES


def gate(check):
    results = list(CHECKS[check](PROFILES["full"]))
    for r in results:
        print(f"[{'PASS' if r.ok else 'FAIL'}] acceptance {CRITERIA[r.name]}: {r.detail}")
    assert results and all(r.ok for r in results), [r.detail for r in results]


def test_full_profile_is_pinned():
    assert PROFILES["full"] == {
        "pairs": 500, "canon": 200, "bounds": 200, "proj": 50, "filters": 20,
        "families": 300, "family_groups": 60, "pq": 200, "marked": 100, "scaling": True,
    }
    assert SEED_BASES == {
        "oracle": 41000, "oracle-other": 42000, "canonicity": 43000, "bounds": 44000,
        "projection": 45000, "projection-other": 46000, "family-groups": 1000, "pq": 47000, "marked": 48000,
    }


def test_criterion_1_and_8_oracle_equivalence_and_witnesses():
    gate("oracle-agreement")


def test_criterion_2_canonicity():
    gate("canonicity")


def test_criterion_3_bounds_on_certified_inputs():
    gate("certified-bounds")


def test_criterion_4_proposition_equivalence():
    gate("projection-equivalence")


def test_criterion_5_group_engine():
    gate("group-engine")


def test_criterion_6_set_families():
    gate("set-families")


def test_criterion_7_interval_pq():
    gate("interval-pq")


def test_criterion_9_scaling_smoke():
    gate("scaling-smoke")
