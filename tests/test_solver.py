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
    hill_climb,
    solve,
)
from tristarter import _kernels
from tristarter.model import phi_fixed_var
from tristarter._kernels import luby
from tristarter.triplication import admissible_keys

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


def test_solve_counts_on_an_order_31_sweep():
    # The queue is LIFO and a shrink queues its variable's constraints in
    # ascending id order, so these totals pin the incidence order of both
    # kernels, which the C-vs-pure identity tests alone would not.
    base = hill_climb(31, seed=0)
    totals = [0, 0, 0, 0]
    for key in admissible_keys(base):
        stats = solve(encode(build_table(base, key))).stats
        for i, count in enumerate((stats.decisions, stats.backtracks,
                                   stats.propagations, stats.restarts)):
            totals[i] += count
    assert totals == [2014, 738, 24399, 6]


def test_key_zero_unsat():
    outcome = solve(encode(build_table(T7, 0)))
    assert outcome.status == "UNSAT"
    assert outcome.solution is None


def test_t13_key3_unsat_without_search():
    inst = encode(build_table(T13, 3))
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
    # the orders of restarts after run 0
    *arrays, linear = demo_instance.search_arrays()
    for seed in (0, 1, 2):
        order, _ = _kernels.shuffled(linear, _kernels.splitmix64(seed))
        assert order != linear and sorted(order) == sorted(linear)
        status, sols, *_ = _kernels.fd_search(*arrays, order, 0, 1, 0, 0)
        assert status == 1
        ok, _ = check_solution(demo_instance, sols[0])
        assert ok


def test_step_budget_below_one_refused():
    for budget in (0, -5):
        with pytest.raises(StructuralError, match="step_budget"):
            SolverConfig(step_budget=budget)


def test_solver_config_refuses_what_the_kernels_cannot_take(
        monkeypatch, demo_instance, kernel_backends):
    # True once ran as a budget of 1, 2**63 overflowed the C kernel's long
    # long at solve time, and a float seed failed inside the kernel
    for field, value in (("step_budget", True), ("step_budget", 2**63),
                         ("step_budget", 2.0), ("seed", 1.5), ("seed", False)):
        with pytest.raises(StructuralError, match=field):
            SolverConfig(**{field: value})
    # the largest budget and a seed past 64 bits run on every backend
    config = SolverConfig(seed=2**70 + 3, step_budget=2**63 - 1)
    for kernels in kernel_backends:
        monkeypatch.setattr(_kernels, "fd_search", kernels.fd_search)
        assert solve(demo_instance, config).status == "SAT"
        assert len(enumerate_solutions(demo_instance, 2**63 - 1, config)) == 216


def test_luby_sequence():
    assert [luby(i) for i in range(15)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


def test_restarts_deterministic():
    # key 19 of this base needs restarts
    inst = encode(build_table(hill_climb(31, seed=0), 19))
    a = solve(inst)
    b = solve(inst)
    assert a.status == "SAT" and a.stats.restarts >= 1
    assert a.solution == b.solution
    assert (a.stats.decisions, a.stats.backtracks, a.stats.propagations,
            a.stats.restarts) == (b.stats.decisions, b.stats.backtracks,
                                  b.stats.propagations, b.stats.restarts)


def test_budget_bounds_decisions_summed_over_restarts():
    # a key that no run solves within 600 decisions in all (it takes 912):
    # runs of 128, 128 and 256 decisions, then one clamped to the last 88
    inst = encode(build_table(hill_climb(31, seed=2), 14))
    outcome = solve(inst, SolverConfig(step_budget=600))
    assert outcome.status == "BUDGET_EXHAUSTED"
    assert outcome.stats.restarts == 3
    # the last run reports the one decision it refused, as a single run does
    assert outcome.stats.decisions == 600 + 1


def _phi_fix_cases():
    yield from ((T7, key) for key in range(7))
    yield from ((hill_climb(11, seed=23), key) for key in range(11))


def test_phi_fix_keeps_one_solution_per_orbit(ckernels):
    for base, key in _phi_fix_cases():
        inst = encode(build_table(base, key))
        fixed = phi_fixed_var(inst)
        arrays = inst.search_arrays()
        assert inst.table.extension[fixed // 2][fixed % 2] == 0   # a color-0 member
        fixed_arrays = (arrays[0], [inst.z_id, fixed], [0, 1]) + arrays[3:]
        counts = []
        for flat in (arrays, fixed_arrays):
            status, sols, *_ = ckernels.fd_search(*flat, 0, 10 ** 6, 0, 0)
            assert status == 0, f"p={base.modulus} key={key}: over the cap"
            counts.append(len(sols))
        assert counts[0] == 2 * counts[1], f"p={base.modulus} key={key}: {counts}"


def test_enumeration_complete_and_phi_closed(demo_instance):
    solutions = enumerate_solutions(demo_instance, cap=100_000)
    assert 0 < len(solutions) < 100_000
    assert len(set(solutions)) == len(solutions)
    values = set(solutions)
    for s in solutions:
        assert apply_phi(s) in values
    assert len(solutions) % 2 == 0


def test_enumeration_matches_prose_oracle(demo_instance):
    # independent exhaustive enumeration over (U, V) assignments
    ours = enumerate_solutions(demo_instance, cap=100_000)
    table = demo_instance.table
    k = len(table.extension)
    ours_uv = {tuple(zip(s[0:2 * k:2], s[1:2 * k:2])) for s in ours}
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
    sols = enumerate_solutions(demo_instance, 3)
    assert len(sols) == 3
    with pytest.raises(TypeError):
        enumerate_solutions(demo_instance)  # no cap
    for cap in (0, -1, True, 2.0, 2**63):
        with pytest.raises(StructuralError):
            enumerate_solutions(demo_instance, cap=cap)


@pytest.mark.parametrize("p", [7, 11, 13])
def test_inadmissible_keys_always_unsat(p):
    from tristarter import hill_climb, pair_sums

    base = hill_climb(p, seed=7)
    forbidden = set(pair_sums(base)) | {0}
    decisions = 0
    for key in sorted(forbidden):
        outcome = solve(encode(build_table(base, key)))
        assert outcome.status == "UNSAT", f"p={p} key={key}"
        decisions += outcome.stats.decisions
    # dom/wdeg with restarts: min-domain took 82 055 and 86 534 at p = 11, 13
    assert decisions <= 5_000, f"p={p}: {decisions} decisions"


def test_native_matches_oracle_at_p11():
    from tristarter import hill_climb

    base = hill_climb(11, seed=23)
    for key in range(11):
        table = build_table(base, key)
        assert solve(encode(table)).status == prose_status(table), f"key={key}"
