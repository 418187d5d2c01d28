import pytest

from tristarter import (
    Pairing,
    RefusedError,
    StructuralError,
    build_table,
    check_key_admissible,
    compute_weak_sets,
    encode,
    hill_climb,
    row_differences,
)
from tristarter.inverse import base_order_of
from tristarter.triplication import admissible_keys

from fixtures import DEMO_DELTAS, DEMO_EXTENSION, DEMO_KEY, DEMO_MONO, DEMO_WEAK, T7, T13


def test_demo_table_extension():
    table = build_table(T7, DEMO_KEY)
    assert table.extension == DEMO_EXTENSION
    assert table.q == 3


def test_key_zero_duplicates_first_column():
    table = build_table(T7, 0)
    for i in range(1, table.q + 1):
        assert table.extension[3 * i - 2] == table.extension[3 * i - 1]


def test_table_formulas_for_other_key():
    # recompute the two column formulas independently
    t, p = 2, 7
    table = build_table(T7, t)
    for i, (x, y) in enumerate(T7.pairs, start=1):
        assert table.extension[3 * i - 2] == (x, y)
        assert table.extension[3 * i - 1] == ((t + x) % p, (t + y) % p)
        assert table.extension[3 * i] == ((t - y) % p, (t - x) % p)


def test_build_table_refusals():
    with pytest.raises(RefusedError):
        build_table(Pairing(5, ((1, 4), (2, 3))), 1)   # p < 7
    with pytest.raises(RefusedError):
        build_table(Pairing(9, tuple((i, i + 1) for i in (1, 3, 5, 7))), 1)  # 3 | p
    with pytest.raises(StructuralError):
        build_table(T7, 7)   # key out of range
    with pytest.raises(StructuralError):
        build_table(T7, True)   # bool is not an integer key
    nonstarter = Pairing(7, ((1, 2), (3, 4), (5, 6)))
    with pytest.raises(RefusedError):
        build_table(nonstarter, 1)


def _refused(fn, *args) -> bool:
    try:
        fn(*args)
    except RefusedError:
        return True
    return False


def test_inverse_test_shares_the_base_order_rule():
    refused = set()
    for p in range(3, 62, 2):
        patterned = Pairing(p, tuple((x, p - x) for x in range(1, (p + 1) // 2)))
        by_table = _refused(build_table, patterned, 1)
        assert by_table == _refused(base_order_of, 3 * p), p
        if by_table:
            refused.add(p)
    assert refused == {p for p in range(3, 62, 2) if p < 7 or p % 3 == 0}


def test_demo_row_differences():
    table = build_table(T7, DEMO_KEY)
    assert row_differences(table) == DEMO_DELTAS


def test_row_differences_constant_per_row():
    table = build_table(T7, 4)
    deltas = row_differences(table)
    assert deltas[0] == 0
    for i, (x, y) in enumerate(T7.pairs, start=1):
        d = (x - y) % 7
        assert deltas[3 * i - 2] == deltas[3 * i - 1] == deltas[3 * i] == d


def color_groups(instance):
    """The last p CSR groups of the instance, color 0 first."""
    p = instance.table.p
    off = instance.ad_off[-p - 1:]
    return [instance.ad_flat[off[c]:off[c + 1]] for c in range(p)]


def test_demo_weak_sets():
    table = build_table(T7, DEMO_KEY)
    weak = compute_weak_sets(table)
    assert weak == DEMO_WEAK
    assert list(weak) == sorted(weak)
    assert {s: len(members) for s, members in weak.items()} == {0: 1, 3: 2, 5: 2, 6: 2}


def test_weak_sets_disjoint():
    table = build_table(T7, DEMO_KEY)
    seen = set()
    for members in compute_weak_sets(table).values():
        assert not (seen & set(members))
        seen |= set(members)


def test_t13_key3_has_type4_weak_set():
    table = build_table(T13, 3)
    assert len(compute_weak_sets(table)[1]) == 4


def test_demo_monochrome_sets():
    instance = encode(build_table(T7, DEMO_KEY))
    groups = color_groups(instance)
    for color, group in enumerate(groups):
        real = tuple(divmod(var, 2) for var in group if var != instance.z_id)
        assert real == DEMO_MONO[color]
    assert groups[0][-1] == instance.z_id
    assert not any(instance.z_id in g for g in groups[1:])


@pytest.mark.parametrize("key", [0, 1, 4])
def test_monochrome_cardinalities_guaranteed(key):
    # 3 per color (color 0: two positions plus Z), both key branches
    instance = encode(build_table(T7, key))
    groups = color_groups(instance)
    assert all(len(g) == 3 for g in groups)
    assert groups[0][-1] == instance.z_id
    if key != 0:
        assert {0, 1} <= set(groups[key])   # U_0 and V_0: the top pair (t, t)


def test_weak_set_bounds_for_strong_bases():
    # cardinality <= 3 overall and <= 2 at sum zero, across orders and keys
    for p in (7, 11, 13):
        base = hill_climb(p, seed=1)
        for key in range(p):
            table = build_table(base, key)
            for total, members in compute_weak_sets(table).items():
                assert len(members) <= 3
                if total == 0:
                    assert len(members) <= 2
            assert encode(table).trivially_unsat_reason is None


def test_key_admissibility():
    assert check_key_admissible(T7, 0) == (False, "key is zero")
    assert check_key_admissible(T7, 5) == (False, "key in pair sums")
    assert check_key_admissible(T7, 1) == (True, "admissible")
    assert admissible_keys(T7) == (1, 2, 4)


def test_admissible_keys_are_the_keys_check_accepts():
    bases = [T7] + [hill_climb(p, seed=0) for p in (7, 11, 13, 31)]
    for base in bases:
        accepted = tuple(t for t in range(base.modulus)
                         if check_key_admissible(base, t)[0])
        assert admissible_keys(base) == accepted


def test_admissible_key_count_law():
    for p in (7, 11, 13, 17):
        base = hill_climb(p, seed=0)
        assert len(admissible_keys(base)) == (p - 1) // 2
