import pytest

from tristarter import (
    SearchBudgetError,
    SolverConfig,
    StructuralError,
    apply_phi,
    build_table,
    check_solution,
    encode,
    enumerate_solutions,
    solve,
)

from fixtures import DEMO_KEY, T7, T13
from oracles import prose_enumerate, prose_status


@pytest.fixture(scope="module")
def demo_instance():
    return encode(build_table(T7, DEMO_KEY))


def test_demo_sat_and_checked(demo_instance):
    outcome = solve(demo_instance)
    assert outcome.status == "SAT"
    ok, _ = check_solution(demo_instance, outcome.solution)
    assert ok
    assert outcome.stats.decisions > 0


def test_key_zero_unsat():
    outcome = solve(encode(build_table(T7, 0)))
    assert outcome.status == "UNSAT"
    assert outcome.solution is None


def test_t13_key3_unsat_without_search():
    inst = encode(build_table(T13, 3, allow_nonstarter=True))
    outcome = solve(inst)
    assert outcome.status == "UNSAT"
    assert outcome.stats.decisions == 0


def test_budget_exhaustion_status():
    inst = encode(build_table(T7, DEMO_KEY))
    outcome = solve(inst, SolverConfig(step_budget=2))
    assert outcome.status == "BUDGET_EXHAUSTED"


def test_determinism(demo_instance):
    a = solve(demo_instance)
    b = solve(demo_instance)
    assert a.solution == b.solution
    assert (a.stats.decisions, a.stats.backtracks, a.stats.propagations) == \
           (b.stats.decisions, b.stats.backtracks, b.stats.propagations)


def test_random_order_still_sat(demo_instance):
    for seed in (0, 1, 2):
        outcome = solve(demo_instance, SolverConfig(variable_order="random", seed=seed))
        assert outcome.status == "SAT"
        ok, _ = check_solution(demo_instance, outcome.solution)
        assert ok


def test_enumeration_complete_and_phi_closed(demo_instance):
    solutions = enumerate_solutions(demo_instance, cap=100_000)
    assert 0 < len(solutions) < 100_000
    assert len(set(solutions)) == len(solutions)
    values = {s.values for s in solutions}
    for s in solutions:
        assert apply_phi(s).values in values
    assert len(solutions) % 2 == 0


def test_enumeration_matches_prose_oracle(demo_instance):
    # independent exhaustive enumeration over (U, V) assignments
    ours = enumerate_solutions(demo_instance, cap=100_000)
    table = demo_instance.table
    k = len(table.extension)
    ours_uv = {
        tuple((s.values[demo_instance.u_ids[i]], s.values[demo_instance.v_ids[i]])
              for i in range(k))
        for s in ours}
    oracle = set(prose_enumerate(table))
    assert ours_uv == oracle


def test_enumeration_cap_semantics(demo_instance):
    assert len(enumerate_solutions(demo_instance, cap=1)) == 1
    assert enumerate_solutions(encode(build_table(T7, 0)), cap=5) == []


def test_enumeration_budget_reported_distinctly(demo_instance):
    with pytest.raises(SearchBudgetError):
        enumerate_solutions(demo_instance, cap=100_000, config=SolverConfig(step_budget=5))


@pytest.mark.parametrize("key", range(7))
def test_native_status_matches_exhaustive_oracle(key):
    table = build_table(T7, key)
    assert solve(encode(table)).status == prose_status(table)


def test_enumeration_cap_required(demo_instance):
    sols = enumerate_solutions(demo_instance, 3, SolverConfig(variable_order="linear"))
    assert len(sols) == 3
    with pytest.raises(TypeError):
        enumerate_solutions(demo_instance)  # no cap
    with pytest.raises(StructuralError):
        enumerate_solutions(demo_instance, cap=0)


@pytest.mark.parametrize("p", [7, 11, 13])
def test_inadmissible_keys_always_unsat(p):
    from tristarter import hill_climb, pair_sums

    base = hill_climb(p, seed=7)
    forbidden = set(pair_sums(base)) | {0}
    for key in sorted(forbidden):
        outcome = solve(encode(build_table(base, key)))
        assert outcome.status == "UNSAT", f"p={p} key={key}"


def test_native_matches_oracle_at_p11():
    from tristarter import hill_climb

    base = hill_climb(11, seed=23)
    for key in range(11):
        table = build_table(base, key)
        assert solve(encode(table)).status == prose_status(table), f"key={key}"
