import sys

import pytest

from tristarter import RefusedError, check_solution, hill_climb, verify_pairing
from tristarter.files import load_starter
from tristarter.harness import (
    CSV_HEADER,
    run_inverse_sampling,
    run_key_sweep,
    run_order_sweep,
    starter_digest,
    write_records_csv,
)
from tristarter.starters import Pairing, normalize

from fixtures import T7, T13


def test_key_sweep_demo_base():
    records = run_key_sweep(T7)
    assert [r.key for r in records] == [1, 2, 4]
    assert all(r.status == "SAT" for r in records)
    assert all(r.order_base == 7 and r.row()[1] == 21 for r in records)
    assert all(r.starter_digest for r in records)


def test_key_sweep_count_law():
    for p in (7, 11, 13):
        base = hill_climb(p, seed=2)
        records = run_key_sweep(base)
        assert len(records) == (p - 1) // 2


def test_key_sweep_requires_strong_base():
    with pytest.raises(RefusedError):
        run_key_sweep(Pairing(7, ((1, 2), (3, 4), (5, 6))))


def test_repeat_subseries_refuses_a_nonstrong_starter():
    # the series harness refuses T13 (a starter, not strong) as a base
    with pytest.raises(RefusedError, match="not strong"):
        run_key_sweep(T13)


def _count_calls(monkeypatch, fn) -> list:
    """Wrap ``fn`` at every name a tristarter module binds it to; the list
    collects the arguments of each call."""
    calls = []

    def counted(*args):
        calls.append(args)
        return fn(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("tristarter") and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counted)
    return calls


def test_key_sweep_verifies_its_base_once_and_checks_no_solution(monkeypatch):
    # each SAT key is checked only through its two merged starters, and the
    # base is verified once, by hill_climb or on the first key
    verified = _count_calls(monkeypatch, verify_pairing)
    checked = _count_calls(monkeypatch, check_solution)
    base = hill_climb(13, seed=1)
    records = run_key_sweep(base)
    assert len(records) == 6 and all(r.status == "SAT" for r in records)
    assert [args for args in verified if args[0].modulus == 13] == [(base,)]
    assert sum(args[0].modulus == 39 for args in verified) == 2 * len(records)
    assert checked == []


def test_digest_is_normalization_invariant():
    variant = Pairing(7, ((5, 1), (3, 2), (4, 6)))
    assert starter_digest(variant) == starter_digest(T7)
    other = hill_climb(7, seed=9)
    if normalize(other) != normalize(T7):
        assert starter_digest(other) != starter_digest(T7)


def test_csv_schema(tmp_path):
    records = run_key_sweep(T7)
    out = tmp_path / "sweep.csv"
    text = write_records_csv(records, out)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(records)
    assert out.read_text() == text
    # UNSAT rows leave the digest column empty, seeds are blank when absent
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[3] == "SAT" and fields[7]


def test_order_sweep():
    result = run_order_sweep([7, 11, 13], seed=4)
    assert len(result.records) == 3
    assert result.failures == ()
    assert [r.order_base for r in result.records] == [7, 11, 13]
    assert all(r.status == "SAT" and r.seed is not None for r in result.records)


def test_order_sweep_empty():
    result = run_order_sweep([], seed=0)
    assert result.records == ()


def test_order_sweep_failure_does_not_abort():
    result = run_order_sweep([9, 7], seed=0)
    assert len(result.records) == 1
    assert result.records[0].order_base == 7
    assert len(result.failures) == 1 and result.failures[0][0] == 9


def test_order_sweep_deterministic():
    a = run_order_sweep([7, 13], seed=12)
    b = run_order_sweep([7, 13], seed=12)
    assert [r.starter_digest for r in a.records] == [r.starter_digest for r in b.records]
    assert [r.key for r in a.records] == [r.key for r in b.records]


def test_inverse_sampling_small():
    summary = run_inverse_sampling(21, samples=300, seed=5)
    assert summary.samples == 300
    assert summary.generation_failures == 0
    assert 0 < summary.inconclusive < 300
    assert summary.fraction == pytest.approx(summary.inconclusive / 300)
    assert summary.sampler == "uniform"
    assert run_inverse_sampling(21, samples=300, seed=5) == summary


def test_inverse_sampling_order39_rarely_hits():
    summary = run_inverse_sampling(39, samples=60, seed=5)
    assert summary.inconclusive == 0
    assert summary.sampler == "hill-climb"


def test_inverse_sampling_refuses_non_3p_orders_up_front(monkeypatch, capsys):
    from tristarter import harness
    from tristarter.cli import main

    def must_not_run(*args, **kwargs):
        raise AssertionError("sampled an order the inverse test refuses")

    monkeypatch.setattr(harness, "enumerate_strong_starters", must_not_run)
    monkeypatch.setattr(harness, "hill_climb", must_not_run)
    for order in (7, 15, 25):
        with pytest.raises(RefusedError):
            run_inverse_sampling(order, samples=5)
    code = main(["series", "--mode", "inverse-sampling", "--order", "7", "--samples", "5"])
    assert code == 1
    assert "refused" in capsys.readouterr().err


def test_sat_starter_digest_reloads_strong(tmp_path):
    from tristarter.assembly import triplicate

    result = triplicate(T7, 1)
    path = tmp_path / "a.json"
    from tristarter.files import save_starter

    save_starter(result.starter_a, path)
    reloaded = load_starter(path)
    assert verify_pairing(reloaded).is_strong
    assert starter_digest(reloaded) == starter_digest(result.starter_a)


def test_csv_identical_modulo_durations():
    def scrub(text):
        rows = []
        for line in text.splitlines()[1:]:
            fields = line.split(",")
            fields[4] = "_"
            rows.append(",".join(fields))
        return rows

    a = write_records_csv(run_order_sweep([7, 13, 19], seed=6).records, None)
    b = write_records_csv(run_order_sweep([7, 13, 19], seed=6).records, None)
    assert scrub(a) == scrub(b)
