import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tristarter import (
    StructuralError,
    apply_phi,
    build_table,
    check_solution,
    encode,
    hill_climb,
    solution_from_uv,
    uv_pairs,
)
from tristarter.model import constraint_census, phi_fixed_var
from tristarter.triplication import TriplicationTable, compute_weak_sets

from fixtures import (
    DEMO_SIGMA3,
    DEMO_KEY,
    S21_ALT_MOD3,
    S21_KEY,
    S21_MOD3,
    T7,
    T13,
)
from oracles import prose_check


@pytest.fixture(scope="module")
def demo_instance():
    return encode(build_table(T7, DEMO_KEY))


def test_demo_census(demo_instance):
    assert demo_instance.num_variables == 38  # 20 U/V + 10 D + 7 S + Z
    census = constraint_census(demo_instance)
    assert census == {
        "fix_zero": 1,
        "difference_bindings": 10,
        "sum_bindings": 7,
        "row_all_different": 3,
        "weak_all_different": 4,   # one zero-sum plus three nonzero
        "color_all_different": 7,
    }
    off = demo_instance.scope_off
    weak_sizes = sorted(
        off[cid + 1] - off[cid] for cid in range(len(off) - 1)
        if demo_instance.provenance[cid].startswith("weak"))
    assert weak_sizes == [2, 2, 2, 2]  # the zero-sum set pairs S2 with Z


def test_census_formula_across_keys():
    for key in (1, 2, 4):
        inst = encode(build_table(T7, key))
        census = constraint_census(inst)
        q, p = 3, 7
        assert census["difference_bindings"] == 3 * q + 1
        assert census["row_all_different"] == q
        assert census["color_all_different"] == p
        assert census["sum_bindings"] == sum(map(len, compute_weak_sets(inst.table).values()))


@pytest.mark.parametrize("base", [T7, hill_climb(31, seed=0)], ids=["T7", "p31"])
def test_variable_numbering_is_the_fixed_rule(base):
    # U_i = 2i, V_i = 2i + 1, D_i = 2k + i, S from 3k in pair order, Z last
    import random

    rng = random.Random(base.modulus)
    for key in range(base.modulus):
        inst = encode(build_table(base, key))
        k = len(inst.table.extension)
        flat = inst.scope_flat
        bindings = [(*flat[3 * cid:3 * cid + 3], sign)
                    for cid, sign in enumerate(inst.bind_sign)]
        assert bindings[:k] == [(2 * i, 2 * i + 1, 2 * k + i, -1) for i in range(k)]
        s_pairs = sorted(i for members in compute_weak_sets(inst.table).values()
                         for i in members)
        assert bindings[k:] == [(2 * i, 2 * i + 1, 3 * k + j, 1) for j, i in enumerate(s_pairs)]
        assert inst.z_id == inst.num_variables - 1 == 3 * k + len(s_pairs)
        uv = [(rng.randrange(3), rng.randrange(3)) for _ in range(k)]
        assert uv_pairs(inst, solution_from_uv(inst, uv)) == tuple(uv)


def test_known_solution_satisfies(demo_instance):
    sol = solution_from_uv(demo_instance, DEMO_SIGMA3)
    ok, violated = check_solution(demo_instance, sol)
    assert ok and violated == ()


def test_all_zero_assignment_violates(demo_instance):
    zero = (0,) * demo_instance.num_variables
    ok, violated = check_solution(demo_instance, zero)
    assert not ok
    assert "color 0" in violated


def test_worked_order21_solutions_satisfy_key4_instance():
    inst = encode(build_table(T7, S21_KEY))
    for uv in (S21_MOD3, S21_ALT_MOD3):
        ok, violated = check_solution(inst, solution_from_uv(inst, list(uv)))
        assert ok, violated


def test_partial_assignment_is_structural_error(demo_instance):
    with pytest.raises(StructuralError):
        check_solution(demo_instance, (0,) * 5)
    with pytest.raises(StructuralError):
        check_solution(demo_instance, (3,) * demo_instance.num_variables)


# the demo U/V with every 0 and 1 written as False and True
BOOL_UV = [tuple(x if x == 2 else bool(x) for x in pair) for pair in DEMO_SIGMA3]

REFUSED_VALUES = {
    "uv of bools": ("uv", lambda inst: solution_from_uv(inst, BOOL_UV)),
    "uv with 3": ("uv", lambda inst: solution_from_uv(inst, [(3, 0)] + DEMO_SIGMA3[1:])),
    "uv with a triple": ("uv", lambda inst: solution_from_uv(
        inst, [(0, 1, 2)] + DEMO_SIGMA3[1:])),
    "uv with a single": ("uv", lambda inst: solution_from_uv(inst, [(0,)] + DEMO_SIGMA3[1:])),
    "uv with a bare int": ("uv", lambda inst: solution_from_uv(inst, [0] + DEMO_SIGMA3[1:])),
    "solution with True": ("solution", lambda inst: check_solution(
        inst, (True,) + solution_from_uv(inst, DEMO_SIGMA3)[1:])),
    "solution with 1.0": ("solution", lambda inst: check_solution(
        inst, (1.0,) + solution_from_uv(inst, DEMO_SIGMA3)[1:])),
}


@pytest.mark.parametrize("case", REFUSED_VALUES)
def test_ternary_values_follow_one_rule(demo_instance, case):
    # A value is an int, not a bool, in {0, 1, 2}, the test `Pairing` applies
    # to its entries; anything else is malformed input, refused by name.
    name, call = REFUSED_VALUES[case]
    with pytest.raises(StructuralError, match=name):
        call(demo_instance)


@pytest.mark.parametrize("extension, message", [
    (((1, 2), (3, 4)), r"^extension has 2 pairs, not 3q \+ 1$"),
    (build_table(T7, DEMO_KEY).extension[:3] + ((7, 1),)
     + build_table(T7, DEMO_KEY).extension[4:],
     r"^extension\[3\] = \(7, 1\) is not a pair of ints in \[0, 7\)$"),
    (None, r"^extension must be a list or tuple, got None$"),
], ids=["2-pairs", "pair-out-of-range", "none"])
def test_encode_refuses_a_malformed_hand_built_table(extension, message):
    # build_table never makes such a table; the encoder kernel's ValueError
    # reaches the user as a StructuralError with the same message
    table = TriplicationTable(hill_climb(7, seed=0), 1, extension)
    with pytest.raises(StructuralError, match=message) as error:
        encode(table)
    assert type(error.value) is StructuralError


def test_apply_phi_transposes(demo_instance):
    sol = solution_from_uv(demo_instance, DEMO_SIGMA3)
    phi = apply_phi(sol)
    assert uv_pairs(demo_instance, phi)[0] == (2, 1)  # (1, 2) transposed
    ok, _ = check_solution(demo_instance, phi)
    assert ok


@given(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=60))
@settings(max_examples=100)
def test_phi_is_involution(values):
    sol = tuple(values)
    assert apply_phi(apply_phi(sol)) == sol
    assert apply_phi((0,) * len(values)) == (0,) * len(values)


@pytest.mark.parametrize("base", [T7, hill_climb(11, seed=23), hill_climb(13, seed=1)],
                         ids=["T7", "p11", "p13"])
def test_phi_fixed_var_is_first_of_color0(base):
    # the variable solve fixes to 1 leads the group that holds Z
    for key in range(base.modulus):
        inst = encode(build_table(base, key))
        cid = inst.provenance.index("color 0")
        group = inst.scope_flat[inst.scope_off[cid]:inst.scope_off[cid + 1]]
        fixed = phi_fixed_var(inst)
        assert fixed is not None and fixed != inst.z_id
        assert group[0] == fixed and inst.z_id in group
        assert inst.table.extension[fixed // 2][fixed % 2] == 0


def test_trivially_unsat_flag_for_type4_weak_set():
    inst = encode(build_table(T13, 3))
    assert inst.trivially_unsat_reason is not None
    assert "weak set with sum 1" in inst.trivially_unsat_reason
    off = inst.scope_off
    big = [inst.provenance[cid] for cid in range(len(off) - 1) if off[cid + 1] - off[cid] > 3]
    assert big and big[0] == "weak set with sum 1"


def test_trivially_unsat_reasons_golden_digest():
    # the reason of every key of T7, T13 and the 16 order-31 sweep bases,
    # pinned before the encoder moved into `_kernels.encode_table`: six
    # T13 keys name a weak set of four, the rest none
    reasons = [encode(build_table(base, key)).trivially_unsat_reason
               for base in [T7, T13] + [hill_climb(31, seed=j) for j in range(16)]
               for key in range(base.modulus)]
    assert sum(r is not None for r in reasons) == 6
    assert hashlib.sha256(repr(reasons).encode()).hexdigest() == \
        "fb1986dca12b89c86441bf29b0e25098f6eda12b0798b4c6f69fc473db0b8e34"


def test_encoding_faithful_to_prose(demo_instance):
    # agreement between the encoder and the prose rules on full assignments
    import random

    rng = random.Random(0)
    table = demo_instance.table
    k = len(table.extension)
    for _ in range(500):
        uv = [(rng.randrange(3), rng.randrange(3)) for _ in range(k)]
        sol = solution_from_uv(demo_instance, uv)
        ok, _ = check_solution(demo_instance, sol)
        assert ok == prose_check(table, uv)


def test_encoding_faithful_on_satisfying_side(demo_instance):
    # the prose oracle accepts the known solution and phi-image
    table = demo_instance.table
    assert prose_check(table, DEMO_SIGMA3)
    sol = solution_from_uv(demo_instance, DEMO_SIGMA3)
    phi_uv = uv_pairs(demo_instance, apply_phi(sol))
    assert prose_check(table, list(phi_uv))
