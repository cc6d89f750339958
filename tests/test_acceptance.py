"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` for the per-criterion lines,
or `grigorchuk verify` for the same battery behind the CLI.
"""

import time

import pytest

from grigorchuk import battery
from grigorchuk.battery import Caps, DEFAULT_SEED, DEFAULT_SUITE, GRAY4_EXPECTED
from grigorchuk.omega import parse_omega

CAPS = Caps()
OMEGAS = tuple(parse_omega(s) for s in DEFAULT_SUITE)


def _report(name, check):
    passed, detail = check(OMEGAS, CAPS, DEFAULT_SEED)
    print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    assert passed, detail


def test_criterion_01_gray_code_listing():
    # byte-for-byte against the published length-4 listing, under 1 ms
    from grigorchuk import ray_at

    def listing():
        return tuple(ray_at(i).prefix.ljust(4, "1") for i in range(16))

    assert listing() == GRAY4_EXPECTED
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        listing()
        best = min(best, time.perf_counter() - start)
    assert best < 1e-3
    _report("gray_code_matches_published_listing", battery.check_gray_code)


def test_criterion_02_graph_oracle_equivalence():
    _report("graph_oracle_equivalence", battery.check_graph_oracle)


def test_criterion_03_gray_order_is_bfs_order():
    assert CAPS.bfs_vertices == 1 << 10
    _report("gray_order_equals_bfs_distance", battery.check_bfs_order)


def test_criterion_04_complexity_bounds():
    assert CAPS.complexity_max == 256
    _report("complexity_bounds", battery.check_complexity_bounds)


def test_criterion_05_doubling_bound():
    assert CAPS.doubling_max == 128
    _report("doubling_complexity_bound", battery.check_doubling_bound)


def test_criterion_06_homomorphism_and_injectivity():
    assert CAPS.embed_words == 500 and CAPS.embed_len == 12
    _report("embedding_homomorphism_injectivity", battery.check_embedding)


def test_criterion_07_schreier_consistency():
    assert CAPS.schreier_pairs == 200
    _report("schreier_cocycle_consistency", battery.check_schreier_consistency)


def test_criterion_08_relations():
    _report("relations_map_to_identity", battery.check_relations)


def test_criterion_09_torsion_evidence():
    assert CAPS.torsion_words == 100
    assert CAPS.torsion_bound == 1 << 10
    assert CAPS.nontorsion_bound == 64
    _report("torsion_evidence", battery.check_torsion)


def test_criterion_10_commutator_embedding():
    assert CAPS.commutator_involutions == 3 and CAPS.commutator_pairs == 50
    _report("commutator_embedding", battery.check_commutator)


def test_criterion_11_degenerate_case_witnesses():
    assert CAPS.return_order_bound == 64
    _report("degenerate_case_witnesses", battery.check_degenerate_witnesses)


def test_criterion_12_uniform_recurrence_terminates():
    assert CAPS.recurrence_max == 16
    _report("uniform_recurrence_terminates", battery.check_recurrence)
