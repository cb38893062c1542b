"""
Acceptance gate: one test per criterion, each printing a pass/fail line.
Bounds and tolerances are pinned here; all comparisons are exact.
"""

import time

import pytest

from affwgraph import (
    Partition,
    build_affine_graph,
    build_equal_variant,
    check_all_rules,
    check_hecke_relations,
)
from affwgraph.fixtures import load_fixture
from affwgraph.regress import check_equal_variants, check_rsk_vector, run_regression

from conftest import check_verification_sweep


@pytest.fixture(scope="module")
def regression():
    # one pass covers criteria 4-10: mutation stops at n = 6, the finite
    # move labels run to n = 9 and the other sweeps to n = 8
    return {r.name: r for r in run_regression(max_n=8)}


def _line(num: int, ok: bool, text: str) -> None:
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}]: {text}")


def test_criterion_01_reference_fixtures():
    start = time.perf_counter()
    built = {
        "gamma_3_2": build_affine_graph(Partition((3, 2))),
        "gamma_4_2": build_affine_graph(Partition((4, 2))),
        "gamma_3_3": build_affine_graph(Partition((3, 3))),
        "gamma_prime_3_3": build_equal_variant(Partition((3, 3)), 0),
    }
    matches = {name: g == load_fixture(name) for name, g in built.items()}
    elapsed = time.perf_counter() - start
    sizes = {name: len(g.vertices) for name, g in built.items()}
    ok = all(matches.values()) and sizes == {
        "gamma_3_2": 10, "gamma_4_2": 15, "gamma_3_3": 20, "gamma_prime_3_3": 20,
    } and elapsed < 1.0
    _line(1, ok, f"four reference graphs reproduced exactly in {elapsed:.2f}s")
    assert matches == {name: True for name in built}
    assert elapsed < 1.0


def test_criterion_02_module_relations_and_rules():
    start = time.perf_counter()
    result = check_verification_sweep(max_n=8)
    elapsed = time.perf_counter() - start
    ok = result.passed and elapsed < 300.0
    _line(2, ok, f"{result.detail} in {elapsed:.1f}s (limit 300s)")
    assert result.passed, result.detail
    assert elapsed < 300.0


def test_verification_sweep_to_n12():
    # raised sweep ceiling: both paths on all 35 two-row shapes with n <= 12
    start = time.perf_counter()
    result = check_verification_sweep(max_n=12)
    elapsed = time.perf_counter() - start
    ok = result.passed and elapsed < 60.0
    print(f"sweep n <= 12 [{'PASS' if ok else 'FAIL'}]: {result.detail} in {elapsed:.1f}s (limit 60s)")
    assert result.passed, result.detail
    assert result.detail.startswith("35 shapes")
    assert elapsed < 60.0


def test_verification_sweep_to_n14():
    # both paths on all 48 two-row shapes with n <= 14
    start = time.perf_counter()
    result = check_verification_sweep(max_n=14)
    elapsed = time.perf_counter() - start
    ok = result.passed and elapsed < 60.0
    print(f"sweep n <= 14 [{'PASS' if ok else 'FAIL'}]: {result.detail} in {elapsed:.1f}s (limit 60s)")
    assert result.passed, result.detail
    assert result.detail.startswith("48 shapes")
    assert elapsed < 60.0


def test_verification_sweep_to_n16():
    # both paths on all 63 two-row shapes with n <= 16
    start = time.perf_counter()
    result = check_verification_sweep(max_n=16)
    elapsed = time.perf_counter() - start
    ok = result.passed and elapsed < 60.0
    print(f"sweep n <= 16 [{'PASS' if ok else 'FAIL'}]: {result.detail} in {elapsed:.1f}s (limit 60s)")
    assert result.passed, result.detail
    assert result.detail.startswith("63 shapes")
    assert elapsed < 60.0


def test_criterion_03_equal_row_variants():
    result = check_equal_variants()
    _line(3, result.passed, "cross-weight 0 for a=2..4 and cross-weight 2 for a=2..3")
    assert result.passed, result.detail


def test_criterion_04_mutation_sensitivity(regression):
    result = regression["mutation_sensitivity"]
    _line(4, result.passed, result.detail)
    assert result.passed, result.detail


def test_criterion_05_underlying_graph_and_shift(regression):
    result = regression["underlying_and_omega"]
    _line(5, result.passed, "Knuth graph equals simple underlying graph; shift equivariance, n <= 8")
    assert result.passed, result.detail


def test_criterion_06_insertion_example():
    result = check_rsk_vector()
    _line(6, result.passed, result.detail)
    assert result.passed, result.detail


def test_criterion_07_restriction_cells(regression):
    result = regression["restriction_cells"]
    _line(7, result.passed, "cells = recording fibers = finite graphs, n <= 8; (3,2) matches fixture")
    assert result.passed, result.detail


def test_criterion_08_finite_move_labels(regression):
    result = regression["finite_move_labels"]
    _line(8, result.passed, result.detail)
    assert result.passed, result.detail


def test_criterion_09_shift_lemma_suite(regression):
    result = regression["shift_suite"]
    _line(9, result.passed, "insertion-shape case table, standardization, cross-component moves, n <= 8")
    assert result.passed, result.detail


def test_criterion_10_coset_suite(regression):
    result = regression["coset_suite"]
    _line(10, result.passed, "coset bijection and descent correspondence, n <= 8")
    assert result.passed, result.detail


def test_both_verification_paths_agree_everywhere():
    # belt and suspenders on top of criterion 2: the reports carry no witnesses
    for shape in [Partition((3, 2)), Partition((3, 3)), Partition((4, 4))]:
        g = build_affine_graph(shape)
        reports = check_all_rules(g) + [check_hecke_relations(g)]
        assert all(r.passed and not r.witnesses for r in reports)


def test_scale_headroom_at_n10():
    # beyond the gate: the largest n = 10 shape stays fast on both paths
    g = build_affine_graph(Partition((5, 5)))
    assert len(g.vertices) == 252
    assert all(r.passed for r in check_all_rules(g))
    assert check_hecke_relations(g).passed


def test_parallel_regression_matches_serial():
    serial = run_regression(max_n=4, jobs=1)
    parallel = run_regression(max_n=4, jobs=2)
    assert serial == parallel
    assert all(r.passed for r in serial)
