import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tristarter import (
    Pairing,
    RefusedError,
    SearchBudgetError,
    StructuralError,
    crt,
    enumerate_strong_starters,
    hill_climb,
    normalize,
    pair_sums,
    reduce_mod,
    verify_pairing,
)
from tristarter.harness import run_inverse_sampling, run_order_sweep
from tristarter.triplication import build_table

from fixtures import S21, S21_KEY, S21_MOD3, S21_MOD7, T7, T7_SUMS, STRONG_COUNTS


def test_pairing_validates_length():
    with pytest.raises(StructuralError):
        Pairing(7, ((1, 2),))


def test_pairing_validates_range():
    with pytest.raises(StructuralError):
        Pairing(7, ((1, 7), (2, 3), (4, 5)))
    with pytest.raises(StructuralError):
        Pairing(7, ((1, -1), (2, 3), (4, 5)))


@pytest.mark.parametrize("pairs, message", [
    (((2, 3), 4, (1, 5)), "pair 1 is not a pair: 4"),
    (None, "pairs must be a sequence of pairs, got None"),
    (5, "pairs must be a sequence of pairs, got 5"),
], ids=["int-pair", "none", "int"])
def test_pairing_refuses_malformed_pairs(pairs, message):
    with pytest.raises(StructuralError, match=message):
        Pairing(7, pairs)


@pytest.mark.parametrize("pairs, message", [
    (((2, 3), (True, 6), (1, 5)), "pair 1 has non-integer entries: (True, 6)"),
    (((2, 3), (4, 2**70), (1, 5)), f"pair 1 entry out of range [0, 7): (4, {2**70})"),
    (((2, 3), [4, 6, 0], (1, 5)), "pair 1 is not a pair: (4, 6, 0)"),
], ids=["bool", "2**70", "three"])
def test_pairing_refusals_are_the_kernel_messages(pairs, message):
    # a pair list is read as a tuple of tuples, then refused by
    # `_kernels.pairing_report` with a message that becomes the StructuralError's
    with pytest.raises(StructuralError) as error:
        Pairing(7, pairs)
    assert str(error.value) == message


def test_pairing_carries_its_report_through_pickle_and_replace():
    copy = pickle.loads(pickle.dumps(S21))
    assert copy == S21 and copy.report == S21.report
    assert copy.report.is_strong
    changed = dataclasses.replace(T7, pairs=((1, 2), (3, 4), (5, 6)))
    assert changed != T7 and changed.report == verify_pairing(changed)
    assert changed.report.is_partition and not changed.report.is_starter
    assert repr(T7) == "Pairing(modulus=7, pairs=((2, 3), (4, 6), (1, 5)))"


def test_pairing_rejects_even_modulus():
    with pytest.raises(StructuralError):
        Pairing(8, ((1, 2), (3, 4), (5, 6)))


def test_verify_demo_base_is_strong():
    report = verify_pairing(T7)
    assert report.is_partition and report.is_starter and report.is_strong
    assert report.pair_sums == T7_SUMS
    assert report.diagnostics == ()


def test_verify_unique_order3_pairing_not_strong():
    report = verify_pairing(Pairing(3, ((1, 2),)))
    assert report.is_starter
    assert not report.is_strong
    assert "zero sum" in report.diagnostics


def test_verify_no_strong_starter_of_order_5():
    # exhaustive: no pairing of Z_5* is a strong starter
    report = verify_pairing(Pairing(5, ((1, 4), (2, 3))))
    assert report.is_starter
    assert not report.is_strong
    found = enumerate_strong_starters(5)
    assert found.count == 0


def test_verify_flag_chain_on_broken_inputs():
    # duplicate element: not a partition
    report = verify_pairing(Pairing(7, ((1, 1), (2, 3), (4, 5))))
    assert not report.is_partition and not report.is_starter and not report.is_strong
    assert any("duplicate element 1" in d for d in report.diagnostics)
    # partition but repeated difference
    report = verify_pairing(Pairing(7, ((1, 2), (3, 4), (5, 6))))
    assert report.is_partition and not report.is_starter


def test_pair_sums_demo():
    assert pair_sums(T7) == T7_SUMS
    assert pair_sums(Pairing(3, ((1, 2),))) == (0,)
    sums21 = pair_sums(S21)
    assert len(set(sums21)) == 10 and 0 not in sums21


def test_reduce_mod_identity():
    assert reduce_mod(T7, 7) == T7.pairs


def test_reduce_mod_worked_order21():
    # the worked starter reduces mod 7 to the (T7, key 4) table, in order
    assert reduce_mod(S21, 7) == S21_MOD7 == build_table(T7, S21_KEY).extension
    assert reduce_mod(S21, 3) == S21_MOD3


def test_reduce_mod_rejects_non_divisor():
    with pytest.raises(StructuralError):
        reduce_mod(S21, 5)


def test_normalize_is_canonical():
    # reorder and flip pairs; normalized forms agree
    variant = Pairing(7, ((5, 1), (3, 2), (4, 6)))
    assert normalize(variant) == normalize(T7)
    assert normalize(normalize(T7)) == normalize(T7)


@st.composite
def random_pairings(draw):
    n = draw(st.sampled_from([7, 9, 11, 13]))
    elements = list(range(1, n))
    perm = draw(st.permutations(elements))
    pairs = tuple((perm[2 * i], perm[2 * i + 1]) for i in range(n // 2))
    return Pairing(n, pairs)


@given(random_pairings())
@settings(max_examples=150, deadline=None)
def test_flag_chain_property(pairing):
    report = verify_pairing(pairing)
    if report.is_strong:
        assert report.is_starter
    if report.is_starter:
        assert report.is_partition
        # differences of a starter cover the nonzero residues exactly
        n = pairing.modulus
        differences = [d % n for a, b in pairing.pairs for d in (a - b, b - a)]
        assert sorted(differences) == list(range(1, n))
    assert verify_pairing(normalize(pairing)).is_starter == report.is_starter


@given(random_pairings())
@settings(max_examples=50, deadline=None)
def test_normalize_preserves_pair_set(pairing):
    canon = normalize(pairing)
    assert {frozenset(p) for p in canon.pairs} == {frozenset(p) for p in pairing.pairs}


@pytest.mark.parametrize("n,count", sorted(STRONG_COUNTS.items()))
def test_enumeration_counts(n, count):
    assert enumerate_strong_starters(n).count == count


def test_enumeration_returns_verified_starters():
    result = enumerate_strong_starters(15, cap=40)
    assert result.count == 32
    assert len(result.starters) == 32
    for s in result.starters:
        assert verify_pairing(s).is_strong
    # counted as sets: all distinct after normalization
    assert len({normalize(s) for s in result.starters}) == 32


@pytest.mark.parametrize("n", [5, 7, 9, 11])
def test_enumeration_matches_matching_filter_oracle(n):
    # independent oracle: all perfect matchings of Z_n*, filtered by verify
    elements = list(range(1, n))

    def matchings(pool):
        if not pool:
            yield ()
            return
        first = pool[0]
        for j in range(1, len(pool)):
            rest = pool[1:j] + pool[j + 1:]
            for rec in matchings(rest):
                yield ((first, pool[j]),) + rec

    oracle = sum(
        1 for m in matchings(elements) if verify_pairing(Pairing(n, m)).is_strong)
    assert enumerate_strong_starters(n).count == oracle


def test_enumeration_bound_refusal():
    with pytest.raises(RefusedError):
        enumerate_strong_starters(23)
    for cap in (-1, True, 2.0, 2**63):   # -1 once returned count=2, starters=()
        with pytest.raises(StructuralError, match="cap"):
            enumerate_strong_starters(7, cap=cap)
    with pytest.warns(UserWarning):
        with pytest.raises(RefusedError):
            enumerate_strong_starters(27, bound=25)


@pytest.mark.parametrize("n", [7, 11, 13, 17, 19])
def test_hill_climb_always_strong(n):
    for seed in range(100):
        assert verify_pairing(hill_climb(n, seed=seed)).is_strong


def test_hill_climb_deterministic():
    assert hill_climb(39, seed=5) == hill_climb(39, seed=5)


@pytest.mark.parametrize("n", [3, 5, 9])
def test_hill_climb_refuses_impossible_orders(n):
    with pytest.raises(RefusedError):
        hill_climb(n)


REFUSED_INPUTS = {
    "hill_climb seed=1.5": ("seed", lambda: hill_climb(7, seed=1.5)),
    "hill_climb seed='3'": ("seed", lambda: hill_climb(7, seed="3")),
    "hill_climb seed=True": ("seed", lambda: hill_climb(7, seed=True)),
    "hill_climb max_steps=0": ("max_steps", lambda: hill_climb(7, max_steps=0)),
    "hill_climb max_steps=-1": ("max_steps", lambda: hill_climb(7, max_steps=-1)),
    "hill_climb max_steps=True": ("max_steps", lambda: hill_climb(7, max_steps=True)),
    "hill_climb max_steps=2.0": ("max_steps", lambda: hill_climb(7, max_steps=2.0)),
    "enumerate bound='x'": ("bound", lambda: enumerate_strong_starters(15, bound="x")),
    "enumerate bound=True": ("bound", lambda: enumerate_strong_starters(15, bound=True)),
    "enumerate bound=2.5": ("bound", lambda: enumerate_strong_starters(15, bound=2.5)),
    "enumerate bound=-1": ("bound", lambda: enumerate_strong_starters(15, bound=-1)),
    "sampling samples=True": ("samples", lambda: run_inverse_sampling(21, True)),
    "sampling samples=2.5": ("samples", lambda: run_inverse_sampling(21, 2.5)),
    "sampling samples=0": ("samples", lambda: run_inverse_sampling(21, 0)),
    "sampling seed=True": ("seed", lambda: run_inverse_sampling(21, 5, seed=True)),
    "sampling seed=1.5": ("seed", lambda: run_inverse_sampling(21, 5, seed=1.5)),
    "sampling order=21.0": ("order", lambda: run_inverse_sampling(21.0, 5)),
    "order sweep seed=True": ("seed", lambda: run_order_sweep([7], seed=True)),
    "order sweep seed='1'": ("seed", lambda: run_order_sweep([7], seed="1")),
    "crt p=7.0": ("p", lambda: crt(1, 1, 7.0)),
    "crt residue_p=5.0": ("residue_p", lambda: crt(5.0, 1, 7)),
    "crt residue_3=True": ("residue_3", lambda: crt(5, True, 7)),
}


@pytest.mark.parametrize("case", REFUSED_INPUTS)
def test_integer_inputs_follow_one_rule(case):
    # Counts, budgets and bounds are ints, not bools, in range; a seed is any
    # int but a bool.  Anything else is malformed input, refused by name.
    name, call = REFUSED_INPUTS[case]
    with pytest.raises(StructuralError, match=name):
        call()


def test_hill_climb_budget_error_is_retriable():
    with pytest.raises(SearchBudgetError):
        hill_climb(21, seed=0, max_steps=3)
    assert verify_pairing(hill_climb(21, seed=0)).is_strong
