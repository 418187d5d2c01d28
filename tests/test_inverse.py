import pytest

from tristarter import (
    Pairing,
    RefusedError,
    TriplicationResult,
    enumerate_strong_starters,
    hill_climb,
    inverse_test,
    normalize,
    triplicate,
)
from tristarter.cli import main
from tristarter.files import save_starter
from tristarter.harness import run_inverse_sampling
from tristarter.inverse import _passing_orderings, group_rows
from tristarter.triplication import admissible_keys

from fixtures import DEMO_KEY, EX1_S21, EX2_S39, IMAGE_COUNTS, STRONG_COUNTS, T7, T13, T13_KEY


def test_group_rows_example1():
    groups, t = group_rows(EX1_S21)
    assert t == 1
    assert groups[0] == ((1, 1),)
    assert set(groups[3]) == {(0, 4), (3, 0), (2, 6)}
    assert [len(g) for g in groups] == [1, 3, 3, 3]


def test_group_rows_counts_cover_everything():
    groups, _ = group_rows(EX2_S39)
    assert sum(len(g) for g in groups) == 19


def test_group_rows_refusals():
    with pytest.raises(RefusedError):
        group_rows(T7)  # order not 3p
    with pytest.raises(RefusedError):
        group_rows(Pairing(27, tuple((i, 26 - i) for i in range(0, 13))))  # p = 9
    nonstarter = Pairing(21, tuple((2 * i + 1, 2 * i + 2) for i in range(10)))
    with pytest.raises(RefusedError):
        group_rows(nonstarter)


@pytest.mark.parametrize("order", [15, 27])
def test_base_order_refusals_name_the_order_given(order, tmp_path, capsys):
    p = order // 3
    message = f"order {order} = 3 * {p}: base order must be >= 7, odd and coprime to 3, got {p}"
    starter = hill_climb(order, seed=1)
    with pytest.raises(RefusedError) as error:
        inverse_test(starter)
    assert str(error.value) == message
    with pytest.raises(RefusedError) as error:
        run_inverse_sampling(order, samples=5)
    assert str(error.value) == message
    path = tmp_path / "s.json"
    save_starter(starter, path)
    for argv in (["invert", "--starter", str(path)],
                 ["series", "--mode", "inverse-sampling", "--order", str(order), "--samples", "5"]):
        assert main(argv) == 1
        assert message in capsys.readouterr().err


def test_each_starter_is_verified_once_at_construction(monkeypatch):
    # A pairing is verified once, when it is built, and carries its report.
    # The inverse test reads the starter's report and verifies only the
    # candidate bases it builds.
    from tristarter import starters

    calls = []
    real = starters.verify_pairing

    def counting(pairing):
        calls.append(pairing)
        return real(pairing)

    monkeypatch.setattr(starters, "verify_pairing", counting)
    for seed in range(20):
        sample = hill_climb(21, seed=seed)
        assert len(calls) == 1 and calls[0] is sample
        calls.clear()
        verdict = inverse_test(sample)
        assert calls == list(verdict.candidates)
        calls.clear()
    verdict = inverse_test(EX2_S39)   # Inconclusive, one candidate
    assert len(calls) == 1 and calls[0] is verdict.candidates[0]
    calls.clear()
    fresh = Pairing(21, sample.pairs)
    assert calls == [fresh] and fresh.report == real(fresh)


def test_example1_row3_has_no_valid_ordering():
    groups, t = group_rows(EX1_S21)
    assert _passing_orderings(groups[3], t, 7) == ()


def test_example1_false():
    verdict = inverse_test(EX1_S21)
    assert verdict.status == "False"
    assert verdict.key == 1
    assert verdict.candidates == ()
    assert verdict.failed_difference is not None


def test_example2_inconclusive_unique_candidate():
    verdict = inverse_test(EX2_S39)
    assert verdict.status == "Inconclusive"
    assert verdict.key == T13_KEY
    assert len(verdict.candidates) == 1
    cand = verdict.candidates[0]
    assert cand.pairs == T13.pairs
    assert cand.report.is_starter and not cand.report.is_strong


def test_reconstruct_candidates_empty_for_false_input():
    assert inverse_test(EX1_S21).candidates == ()


def test_round_trip_demo():
    result = triplicate(T7, DEMO_KEY)
    verdict = inverse_test(result.starter_a)
    assert verdict.status == "Inconclusive"
    assert verdict.key == DEMO_KEY
    assert any(normalize(c) == normalize(T7) for c in verdict.candidates)


@pytest.mark.parametrize("p", [7, 11, 13])
def test_round_trip_all_admissible_keys(p):
    base = hill_climb(p, seed=17)
    canon = normalize(base)
    for key in admissible_keys(base):
        result = triplicate(base, key)
        assert isinstance(result, TriplicationResult)
        for starter in (result.starter_a, result.starter_b):
            verdict = inverse_test(starter)
            assert verdict.status == "Inconclusive"
            assert verdict.key == key
            assert any(normalize(c) == canon for c in verdict.candidates)


def test_candidates_validated_against_rows():
    # every reported candidate rebuilds to the observed mod-p rows
    from tristarter.triplication import build_table

    verdict = inverse_test(EX2_S39)
    groups, t = group_rows(EX2_S39)
    for cand in verdict.candidates:
        table = build_table(cand, verdict.key)
        for row in range(1, 7):
            got = sorted(tuple(sorted(pr)) for pr in table.extension[3 * row - 2: 3 * row + 1])
            want = sorted(tuple(sorted(pr)) for pr in groups[row])
            assert got == want


def _reproducible_by_any_table(starter):
    # brute force over every (T, t): t is forced by the difference-0 pair;
    # T ranges over all orderings and both orientations of each row group,
    # and each row is laid out by the construction formula written out here.
    # Independent of the passing-orderings logic and of build_table.
    import itertools

    groups, t = group_rows(starter)
    p = starter.modulus // 3
    q = (p - 1) // 2
    observed = {
        d: sorted(tuple(sorted(pr)) for pr in groups[d])
        for d in range(1, len(groups))
    }
    row_choices = []
    for g in groups[1:]:
        options = []
        for perm in itertools.permutations(g):
            first = perm[0]
            options.append(first)
            options.append((first[1], first[0]))
        row_choices.append(sorted(set(options)))
    for combo in itertools.product(*row_choices):
        match = True
        for x, y in combo:
            row_pairs = ((x, y), ((t + x) % p, (t + y) % p), ((t - y) % p, (t - x) % p))
            d = (x - y) % p
            if d > q:
                d = p - d
            if d == 0 or observed[d] != sorted(tuple(sorted(pr)) for pr in row_pairs):
                match = False
                break
        if match:
            return True
    return False


def test_false_verdicts_are_sound_on_order21():
    checked_false = 0
    seed = 0
    while checked_false < 5 and seed < 200:
        starter = hill_climb(21, seed=seed)
        seed += 1
        verdict = inverse_test(starter)
        if verdict.status != "False":
            assert _reproducible_by_any_table(starter)
            continue
        assert not _reproducible_by_any_table(starter)
        checked_false += 1
    assert checked_false == 5
    assert not _reproducible_by_any_table(EX1_S21)


@pytest.fixture(scope="module")
def all21():
    """Every strong starter of order 21."""
    result = enumerate_strong_starters(21, cap=7000)
    assert result.count == STRONG_COUNTS[21]
    return result.starters


def _assert_group_shape(starter):
    groups, t = group_rows(starter)
    q = (starter.modulus // 3 - 1) // 2
    assert [len(g) for g in groups] == [1] + [3] * q
    assert groups[0] == ((t, t),)


def test_group_shape_of_every_order21_strong_starter(all21):
    # the fact that makes group_rows need no shape checks: a starter of
    # order 3p has one difference-0 pair, with equal entries, and three
    # pairs per nonzero difference
    for starter in all21:
        _assert_group_shape(starter)


def test_group_shape_of_hill_climbed_order39_starters():
    for seed in range(40):
        _assert_group_shape(hill_climb(39, seed=seed))


def test_order21_image_census_two_ways(all21):
    # ground truth behind the sampling statistic: the starters flagged
    # Inconclusive at order 21 are exactly the images of the construction,
    # counted by full enumeration in both directions
    from tristarter import (
        build_table as bt,
        crt_merge,
        encode,
        enumerate_solutions,
    )
    from tristarter.harness import starter_digest
    from tristarter.triplication import admissible_keys as keys_of

    inconclusive = {
        starter_digest(s) for s in all21
        if inverse_test(s).status == "Inconclusive"}

    bases = enumerate_strong_starters(7, cap=10).starters
    assert len(bases) == 2
    images = set()
    for base in bases:
        for key in keys_of(base):
            inst = encode(bt(base, key))
            for sol in enumerate_solutions(inst, cap=10_000):
                images.add(starter_digest(crt_merge(inst, sol)))

    assert images == inconclusive
    assert len(images) == IMAGE_COUNTS[21]
