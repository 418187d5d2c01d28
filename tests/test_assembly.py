import pytest

from tristarter import (
    KeyNotAdmissibleError,
    RefusedError,
    SolverConfig,
    TriplicationResult,
    UnsatReport,
    apply_phi,
    build_table,
    crt,
    crt_merge,
    encode,
    enumerate_solutions,
    hill_climb,
    normalize,
    reduce_mod,
    solution_from_uv,
    triplicate,
    uv_pairs,
    verify_pairing,
)
from tristarter.triplication import admissible_keys

from fixtures import (
    DEMO_SIGMA3,
    DEMO_STARTER_A,
    DEMO_STARTER_B,
    DEMO_KEY,
    EX2_S39,
    S21,
    S21_KEY,
    S21_MOD3,
    T7,
    T13,
    T13_KEY,
)


def test_crt_examples():
    assert crt(5, 1, 7) == 19
    assert crt(0, 0, 7) == 0
    assert crt(1, 1, 7) == 1


@pytest.mark.parametrize("p", [7, 11, 13])
def test_crt_bijection(p):
    values = {crt(rp, r3, p) for rp in range(p) for r3 in range(3)}
    assert values == set(range(3 * p))
    for rp in range(p):
        for r3 in range(3):
            x = crt(rp, r3, p)
            assert x % p == rp and x % 3 == r3


def test_crt_refuses_multiple_of_three():
    with pytest.raises(RefusedError):
        crt(1, 1, 9)


def test_known_solution_merges_exactly():
    table = build_table(T7, DEMO_KEY)
    inst = encode(table)
    sol = solution_from_uv(inst, DEMO_SIGMA3)
    assert crt_merge(table, sol, inst).pairs == DEMO_STARTER_A
    assert crt_merge(table, apply_phi(sol), inst).pairs == DEMO_STARTER_B


def test_merge_reconstructs_worked_starter():
    table = build_table(T7, S21_KEY)
    inst = encode(table)
    sol = solution_from_uv(inst, list(S21_MOD3))
    assert crt_merge(table, sol, inst).pairs == S21.pairs


def test_merge_refuses_invalid_solution():
    table = build_table(T7, DEMO_KEY)
    inst = encode(table)
    bad = (0,) * inst.num_variables
    with pytest.raises(RefusedError):
        crt_merge(table, bad, inst)


def test_pipeline_demo():
    result = triplicate(T7, DEMO_KEY)
    assert isinstance(result, TriplicationResult)
    assert result.starter_a.modulus == 21
    assert result.report_a.is_strong and result.report_b.is_strong
    assert result.starter_a.pairs != result.starter_b.pairs


def test_pipeline_inadmissible_key_refused_then_forced():
    with pytest.raises(KeyNotAdmissibleError):
        triplicate(T7, 0)
    forced = triplicate(T7, 0, force=True)
    assert isinstance(forced, UnsatReport)
    assert forced.status == "UNSAT"
    assert forced.cause == "key is zero"
    forced5 = triplicate(T7, 5, force=True)
    assert forced5.cause == "key in pair sums"


def test_pipeline_nonstrong_base_needs_override():
    with pytest.raises(RefusedError):
        triplicate(T13, T13_KEY)
    result = triplicate(T13, T13_KEY, allow_nonstrong=True)
    assert isinstance(result, TriplicationResult)
    assert result.starter_a.modulus == 39
    assert result.report_a.is_strong


def test_pipeline_t13_key3_reports_weak_set():
    result = triplicate(T13, 3, allow_nonstrong=True)
    assert isinstance(result, UnsatReport)
    assert result.status == "UNSAT"
    assert "weak set with sum 1" in result.cause and "4" in result.cause


def test_ex2_starter_reachable_from_t13():
    # the S39 mod-3 values, reordered to the table layout, solve the
    # (T13, 4) instance and merge back to S39 exactly
    table = build_table(T13, T13_KEY)
    inst = encode(table)
    by_mod13 = {}
    for a, b in EX2_S39.pairs:
        by_mod13[(a % 13, b % 13)] = (a % 3, b % 3)
        by_mod13[(b % 13, a % 13)] = (b % 3, a % 3)
    uv = [by_mod13[pair] for pair in table.extension]
    sol = solution_from_uv(inst, uv)
    merged = crt_merge(table, sol, inst)
    assert normalize(merged) == normalize(EX2_S39)


@pytest.mark.parametrize("p", [7, 11, 13])
def test_merges_always_strong_and_round_trip(p):
    base = hill_climb(p, seed=3)
    for key in admissible_keys(base):
        table = build_table(base, key)
        inst = encode(table)
        for sol in enumerate_solutions(inst, cap=4):
            merged = crt_merge(table, sol, inst)
            assert verify_pairing(merged).is_strong
            assert merged.modulus == 3 * p
            assert reduce_mod(merged, p) == table.extension
            assert reduce_mod(merged, 3) == uv_pairs(inst, sol)


@pytest.mark.parametrize("p", [13, 31])
def test_one_pass_merge_matches_crt_merge(p):
    # triplicate merges the solution and its phi image in one pass; the
    # checked two-step route gives the same starters
    base = hill_climb(p, seed=0)
    for key in admissible_keys(base):
        result = triplicate(base, key)
        table, inst, sol = result.table, result.instance, result.solution
        assert result.starter_a == crt_merge(table, sol, inst)
        assert result.starter_b == crt_merge(table, apply_phi(sol), inst)


def test_phi_pair_differs():
    result = triplicate(T7, 2)
    assert normalize(result.starter_a) != normalize(result.starter_b)
    assert result.report_b.is_strong


def test_budget_exhaustion_reported():
    result = triplicate(T7, DEMO_KEY, config=SolverConfig(step_budget=2))
    assert isinstance(result, UnsatReport)
    assert result.status == "BUDGET_EXHAUSTED"
