"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criterion 9 samples
order 21 uniformly and checks the Inconclusive fraction against the exact
image census, 648 of the 6660 strong starters (cross-checked two ways by the
inverse-analysis tests), within five binomial standard errors.
"""

import math
import sys
import time
from pathlib import Path

import pytest

from tristarter import (
    TriplicationResult,
    UnsatReport,
    apply_phi,
    build_table,
    check_solution,
    crt_merge,
    encode,
    enumerate_solutions,
    enumerate_strong_starters,
    hill_climb,
    inverse_test,
    normalize,
    reduce_mod,
    solution_from_uv,
    solve,
    triplicate,
    uv_pairs,
    verify_pairing,
)
from tristarter.dimacs import (
    export_dimacs, import_dimacs_model, run_external_solver, to_dimacs_text)
from tristarter.harness import derive_seed, run_inverse_sampling
from tristarter.triplication import admissible_keys, compute_weak_sets, row_differences

from fixtures import (
    DEMO_SIGMA3,
    DEMO_STARTER_A,
    DEMO_STARTER_B,
    DEMO_KEY,
    EX1_S21,
    EX2_S39,
    IMAGE_COUNTS,
    STRONG_COUNTS,
    SWEEP_ORDERS,
    T7,
    T13,
    T13_KEY,
)
from oracles import prose_status

TOYSAT_CMD = f"{sys.executable} {Path(__file__).parent / 'toysat.py'} {{cnf}}"


def report(criterion: str, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: PASS{' - ' + detail if detail else ''}")


@pytest.fixture(scope="session")
def sweep_tables():
    """Criterion 3 artifacts, shared with criterion 10: (p, key, table, result)."""
    rows = []
    for p in SWEEP_ORDERS:
        base = hill_climb(p, seed=1000 + p)
        assert verify_pairing(base).is_strong
        for key in admissible_keys(base):
            result = triplicate(base, key)
            rows.append((p, key, result))
    return rows


def test_criterion_01_golden_end_to_end():
    start = time.perf_counter()
    result = triplicate(T7, DEMO_KEY)
    assert isinstance(result, TriplicationResult)
    assert result.starter_a.modulus == 21
    assert result.starter_a.report.is_strong and result.starter_b.report.is_strong

    instance = encode(build_table(T7, DEMO_KEY))
    known = solution_from_uv(instance, DEMO_SIGMA3)
    ok, violated = check_solution(instance, known)
    assert ok, violated
    assert crt_merge(instance, known).pairs == DEMO_STARTER_A
    assert crt_merge(instance, apply_phi(known)).pairs == DEMO_STARTER_B
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report("1 golden end-to-end", f"{elapsed * 1000:.0f} ms")


def test_criterion_02_key_admissibility_statuses():
    start = time.perf_counter()
    statuses = {}
    for key in range(7):
        result = triplicate(T7, key, force=True)
        statuses[key] = result.status
    assert {k for k, s in statuses.items() if s == "UNSAT"} == {0, 3, 5, 6}
    assert {k for k, s in statuses.items() if s == "SAT"} == {1, 2, 4}
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report("2 necessary key condition", f"{elapsed * 1000:.0f} ms for 7 keys")


def test_criterion_03_admissible_key_sweep(sweep_tables):
    count = 0
    for p, key, result in sweep_tables:
        assert isinstance(result, TriplicationResult), f"p={p} key={key}: {result.status}"
        assert result.starter_a.modulus == 3 * p
        assert result.starter_a.report.is_strong and result.starter_b.report.is_strong
        count += 1
    expected = sum((p - 1) // 2 for p in SWEEP_ORDERS)
    assert count == expected
    report("3 admissible-key sweep", f"{count} (base, key) instances over orders 7..49, all SAT")


@pytest.fixture(scope="session")
def small_order_solutions():
    """Criteria 4/5: enumerated solutions for p in {7, 11, 13}, all keys."""
    rows = []
    for p in (7, 11, 13):
        base = hill_climb(p, seed=2000 + p)
        for key in admissible_keys(base):
            table = build_table(base, key)
            instance = encode(table)
            sols = enumerate_solutions(instance, cap=6)
            assert sols
            rows.append((p, key, table, instance, sols))
    return rows


def test_criterion_04_merge_invariants(small_order_solutions):
    merges = 0
    for p, key, table, instance, sols in small_order_solutions:
        for sol in sols:
            merged = crt_merge(instance, sol)
            assert verify_pairing(merged).is_strong
            assert merged.modulus == 3 * p
            assert reduce_mod(merged, p) == table.extension
            assert reduce_mod(merged, 3) == uv_pairs(instance, sol)
            merges += 1
    report("4 merge invariants", f"{merges} solutions merged and round-tripped")


def test_criterion_05_phi_symmetry(small_order_solutions):
    for _, _, _, instance, sols in small_order_solutions:
        for sol in sols:
            ok, _ = check_solution(instance, apply_phi(sol))
            assert ok
    demo_instance = encode(build_table(T7, DEMO_KEY))
    all_sols = enumerate_solutions(demo_instance, cap=1_000_000)
    assert 0 < len(all_sols) < 1_000_000
    values = set(all_sols)
    assert all(apply_phi(s) in values for s in all_sols)
    assert len(all_sols) % 2 == 0
    report("5 phi closure", f"demo instance has {len(all_sols)} solutions, phi-closed")


def test_criterion_06_enumeration_counts():
    got = {n: enumerate_strong_starters(n).count for n in sorted(STRONG_COUNTS)}
    assert got == STRONG_COUNTS
    report("6 enumeration counts", f"{got}")


def test_criterion_07_inverse_examples():
    v1 = inverse_test(EX1_S21)
    assert v1.status == "False" and v1.candidates == ()

    v2 = inverse_test(EX2_S39)
    assert v2.status == "Inconclusive"
    assert len(v2.candidates) == 1
    cand = v2.candidates[0]
    assert cand.pairs == T13.pairs and v2.key == T13_KEY
    assert cand.report.is_starter and not cand.report.is_strong

    blocked = triplicate(T13, 3, allow_nonstrong=True)
    assert isinstance(blocked, UnsatReport) and blocked.status == "UNSAT"
    assert "weak set with sum 1" in blocked.cause and "4" in blocked.cause
    report("7 inverse worked examples",
           "order-21 False; order-39 unique (T13, 4); (T13, 3) UNSAT via 4-member weak set")


def test_criterion_08_round_trip_sampling():
    checked = 0
    for p in (7, 11, 13):
        for i in range(20):
            seed = derive_seed(8000 + p, i)
            base = hill_climb(p, seed=seed)
            keys = admissible_keys(base)
            key = keys[derive_seed(seed, 1) % len(keys)]
            result = triplicate(base, key)
            assert isinstance(result, TriplicationResult)
            verdict = inverse_test(result.starter_a)
            assert verdict.status == "Inconclusive", f"p={p} seed={seed} key={key}"
            canon = normalize(base)
            assert verdict.key == key
            assert any(normalize(c) == canon for c in verdict.candidates)
            checked += 1
    assert checked == 60
    report("8 pipeline round trips", "60 random (base, key) runs reconstructed")


def test_criterion_09_sampling_statistic():
    s39 = run_inverse_sampling(39, samples=10_000, seed=39)
    s21 = run_inverse_sampling(21, samples=100_000, seed=21)
    print(f"ACCEPTANCE 9 measurement: order 21 fraction "
          f"{100 * s21.fraction:.2f}% ({s21.inconclusive}/{s21.samples}); "
          f"order 39 inconclusive {s39.inconclusive}/{s39.samples}")
    assert s39.inconclusive <= 2
    # binomial band around the exact image fraction, from the census and N
    p = IMAGE_COUNTS[21] / STRONG_COUNTS[21]
    sigma = math.sqrt(p * (1 - p) / s21.samples)
    z = (s21.fraction - p) / sigma
    assert abs(z) <= 5, (
        f"order-21 inconclusive fraction {s21.fraction:.4f} is {z:+.1f} sigma from "
        f"the exact image fraction p = {IMAGE_COUNTS[21]}/{STRONG_COUNTS[21]} = {p:.4f} "
        f"(sigma = {sigma:.6f}, band |z| <= 5)")
    report("9 sampling statistic",
           f"order 21: {100 * s21.fraction:.2f}%, order 39: {s39.inconclusive}")


def test_criterion_10_table_guarantees(sweep_tables):
    tables = 0
    for p, key, result in sweep_tables:
        table = result.instance.table
        deltas = row_differences(table)
        assert deltas[0] == 0
        base_diffs = []
        for i, (x, y) in enumerate(table.base.pairs, start=1):
            d = (x - y) % p
            assert deltas[3 * i - 2] == deltas[3 * i - 1] == deltas[3 * i] == d
            base_diffs.append(d)
        assert 0 not in base_diffs
        assert len(set(base_diffs)) == len(base_diffs)
        assert not any((p - d) in base_diffs for d in base_diffs)

        weak = compute_weak_sets(table)
        assert all(len(members) <= 3 for members in weak.values())
        assert len(weak.get(0, ())) <= 2

        # the color groups are the instance's last p constraints
        instance = result.instance
        off = instance.scope_off[-p - 1:]
        colors = [instance.scope_flat[off[c]:off[c + 1]] for c in range(p)]
        assert all(len(g) == 3 for g in colors)
        assert colors[0][-1] == instance.z_id
        tables += 1
    report("10 table guarantees", f"rowwise deltas, weak bounds, color counts on {tables} tables")


def test_criterion_11_solver_cross_checks():
    # native vs independent exhaustive oracle on every key at p = 7
    for key in range(7):
        table = build_table(T7, key)
        assert solve(encode(table)).status == prose_status(table)

    # external DIMACS route on the demo and key-0 instances
    import os

    command = os.environ.get("TRISTARTER_EXTERNAL_SOLVER", TOYSAT_CMD)
    demo_instance = encode(build_table(T7, DEMO_KEY))
    doc = export_dimacs(demo_instance)
    status, literals = run_external_solver(to_dimacs_text(doc), command)
    assert status == solve(demo_instance).status == "SAT"
    decoded = import_dimacs_model(doc, literals)
    ok, _ = check_solution(demo_instance, decoded)
    assert ok

    zero_instance = encode(build_table(T7, 0))
    status, _ = run_external_solver(to_dimacs_text(export_dimacs(zero_instance)), command)
    assert status == solve(zero_instance).status == "UNSAT"
    report("11 solver cross-checks", "oracle equality on 7 keys; external solver agrees and decodes")
