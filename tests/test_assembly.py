import pytest

from tristarter import (
    InternalConsistencyError,
    KeyNotAdmissibleError,
    RefusedError,
    SolverConfig,
    TriplicationResult,
    UnsatReport,
    apply_phi,
    build_table,
    check_solution,
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
from tristarter import solver, starters
from tristarter.assembly import _merge_both
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


def test_crt_closed_form_matches_the_kernel_lifts(kernel_backends):
    # crt answers one query by the closed form the merge kernel lifts every
    # pair by: the two agree on every residue and value for small p, crt
    # reduces its arguments first, and a 61-bit p costs nothing
    for kernels in kernel_backends:
        for p in (1, 2, 4, 5, 7, 11, 13, 31):
            extension = tuple((r, (r + 1) % p) for r in range(p))
            for s in range(3):
                merged, phi = kernels.merge_pairs(p, extension, (s, (s + 1) % 3) * p)
                assert merged == tuple((crt(a, s, p), crt(b, s + 1, p)) for a, b in extension)
                assert phi == tuple((crt(a, -s, p), crt(b, -s - 1, p)) for a, b in extension)
    for p in (1, 2, 4, 5, 7, 11, 13, 31):
        for rp in range(-p, 2 * p):
            for r3 in range(-3, 6):
                assert crt(rp, r3, p) == crt(rp % p, r3 % 3, p)
    p = 2**61 - 1
    for rp, r3 in ((5, 2), (0, 0), (p - 1, 1), (-1, -1), (2**62, 7)):
        x = crt(rp, r3, p)
        assert 0 <= x < 3 * p and x % p == rp % p and x % 3 == r3 % 3


def test_crt_refuses_multiple_of_three():
    for p in (9, -7):   # and a p below 1, which has no residues to lift
        with pytest.raises(RefusedError):
            crt(1, 1, p)


def test_known_solution_merges_exactly():
    inst = encode(build_table(T7, DEMO_KEY))
    sol = solution_from_uv(inst, DEMO_SIGMA3)
    assert crt_merge(inst, sol).pairs == DEMO_STARTER_A
    assert crt_merge(inst, apply_phi(sol)).pairs == DEMO_STARTER_B


def test_merge_reconstructs_worked_starter():
    inst = encode(build_table(T7, S21_KEY))
    sol = solution_from_uv(inst, list(S21_MOD3))
    assert crt_merge(inst, sol).pairs == S21.pairs


def test_crt_merge_verifies_only_the_pairing_it_returns(monkeypatch):
    inst = encode(build_table(T7, DEMO_KEY))
    sol = solution_from_uv(inst, DEMO_SIGMA3)
    calls = []

    def counted(pairing, verify=starters.verify_pairing):
        calls.append(pairing.pairs)
        return verify(pairing)

    monkeypatch.setattr(starters, "verify_pairing", counted)
    assert crt_merge(inst, sol).pairs == DEMO_STARTER_A
    assert calls == [DEMO_STARTER_A]


def test_merge_refuses_invalid_solution():
    inst = encode(build_table(T7, DEMO_KEY))
    bad = (0,) * inst.num_variables
    with pytest.raises(RefusedError):
        crt_merge(inst, bad)


def test_pipeline_demo():
    result = triplicate(T7, DEMO_KEY)
    assert isinstance(result, TriplicationResult)
    assert result.starter_a.modulus == 21
    assert result.starter_a.report.is_strong and result.starter_b.report.is_strong
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
    assert result.starter_a.report.is_strong


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
    merged = crt_merge(inst, sol)
    assert normalize(merged) == normalize(EX2_S39)


@pytest.mark.parametrize("p", [7, 11, 13])
def test_merges_always_strong_and_round_trip(p):
    base = hill_climb(p, seed=3)
    for key in admissible_keys(base):
        table = build_table(base, key)
        inst = encode(table)
        for sol in enumerate_solutions(inst, cap=4):
            merged = crt_merge(inst, sol)
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
        inst, sol = result.instance, result.solution
        assert result.starter_a == crt_merge(inst, sol)
        assert result.starter_b == crt_merge(inst, apply_phi(sol))


def test_phi_pair_differs():
    result = triplicate(T7, 2)
    assert normalize(result.starter_a) != normalize(result.starter_b)
    assert result.starter_b.report.is_strong


def test_budget_exhaustion_reported():
    result = triplicate(T7, DEMO_KEY, config=SolverConfig(step_budget=2))
    assert isinstance(result, UnsatReport)
    assert result.status == "BUDGET_EXHAUSTED"


# the bases of a p = 13 and a p = 31 key sweep
SWEEP_BASES = {p: hill_climb(p, seed=1) for p in (13, 31)}


@pytest.mark.parametrize("p, key", [
    (p, key) for p, base in SWEEP_BASES.items() for key in admissible_keys(base)])
def test_merged_verification_refuses_every_single_uv_change(p, key):
    # The merged starters are strong exactly when the U/V values satisfy the
    # instance (with D = U - V, S = U + V), which lets their verification be
    # triplicate's one check of a SAT key.  Every change of one U or V value,
    # D, S and Z re-derived, must be refused by check_solution and by the
    # verification of both merges.  Changes to D, S or Z alone are left out:
    # the merge reads only U and V, so no merged starter can see them.
    result = triplicate(SWEEP_BASES[p], key)
    assert isinstance(result, TriplicationResult)
    instance = result.instance
    uv = [list(pair) for pair in uv_pairs(instance, result.solution)]
    changes = 0
    for i in range(len(uv)):
        for side in (0, 1):
            for step in (1, 2):
                changed = [list(pair) for pair in uv]
                changed[i][side] = (changed[i][side] + step) % 3
                sol = solution_from_uv(instance, changed)
                assert not check_solution(instance, sol)[0]
                starter_a, starter_b = _merge_both(instance, sol)
                assert not verify_pairing(starter_a).is_strong
                assert not verify_pairing(starter_b).is_strong
                changes += 1
    assert changes == 4 * len(uv)


def test_a_wrong_kernel_solution_is_caught(monkeypatch, kernel_backends):
    # triplicate checks the kernel's solution only through the merged
    # starters; one flipped U must still raise, on every backend
    for kernels in kernel_backends:
        def flipped(*args, fd_search=kernels.fd_search):
            status, solutions, *counts = fd_search(*args)
            sol = list(solutions[0])
            sol[0] = (sol[0] + 1) % 3
            return (status, [tuple(sol)], *counts)

        monkeypatch.setattr(solver._kernels, "fd_search", flipped)
        with pytest.raises(InternalConsistencyError, match="strong verification"):
            triplicate(T7, DEMO_KEY)
