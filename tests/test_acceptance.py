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


def _report(result):
    print(f"{'PASS' if result.passed else 'FAIL'} {result.name}: {result.detail}")
    assert result.passed, result.detail


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
    _report(battery.check_gray_code(CAPS, DEFAULT_SEED))


def test_criterion_02_graph_oracle_equivalence():
    _report(battery.check_graph_oracle(OMEGAS, CAPS, DEFAULT_SEED))


def test_criterion_03_gray_order_is_bfs_order():
    assert CAPS.bfs_vertices == 1 << 10
    _report(battery.check_bfs_order(OMEGAS, CAPS, DEFAULT_SEED))


def test_criterion_04_complexity_bounds():
    assert CAPS.complexity_max == 256
    _report(battery.check_complexity_bounds(OMEGAS, CAPS, DEFAULT_SEED))


def test_criterion_05_doubling_bound():
    assert CAPS.doubling_max == 128
    _report(battery.check_doubling_bound(OMEGAS, CAPS, DEFAULT_SEED))


def test_criterion_06_homomorphism_and_injectivity():
    assert CAPS.embed_words == 500 and CAPS.embed_len == 12
    _report(battery.check_embedding(OMEGAS, CAPS, DEFAULT_SEED))


def test_criterion_07_schreier_consistency():
    assert CAPS.schreier_pairs == 200
    _report(battery.check_schreier_consistency(OMEGAS, CAPS, DEFAULT_SEED))


def test_criterion_08_relations():
    _report(battery.check_relations(OMEGAS, CAPS, DEFAULT_SEED))


def test_criterion_09_torsion_evidence():
    assert CAPS.torsion_words == 100
    assert CAPS.torsion_bound == 1 << 10
    assert CAPS.nontorsion_bound == 64
    _report(battery.check_torsion(CAPS, DEFAULT_SEED))


def test_criterion_10_commutator_embedding():
    assert CAPS.commutator_involutions == 3 and CAPS.commutator_pairs == 50
    _report(battery.check_commutator(OMEGAS, CAPS, DEFAULT_SEED))


def test_criterion_11_degenerate_case_witnesses():
    assert CAPS.return_order_bound == 64
    _report(battery.check_degenerate_witnesses(CAPS, DEFAULT_SEED))


def test_criterion_12_uniform_recurrence_terminates():
    assert CAPS.recurrence_max == 16
    _report(battery.check_recurrence(OMEGAS, CAPS, DEFAULT_SEED))
