"""Smoke test of `benchmarks/bench_backends.py` on a tiny pipeline."""

import importlib.util
import types
from pathlib import Path

import pytest

from tristarter import _kernels

_spec = importlib.util.spec_from_file_location(
    "bench_backends", Path(__file__).resolve().parent.parent / "benchmarks" / "bench_backends.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


@pytest.fixture(scope="module")
def calls():
    return bench.record(sweep=(13,), census=7, climbs=1)


def test_the_tiny_pipeline_calls_every_kernel(calls, capsys):
    assert all(calls[name] for name in _kernels.COMPILED)
    assert [getattr(_kernels, name).__name__ for name in calls] == list(calls)  # unwrapped
    assert bench.replay(calls, None) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[:2] for row in rows] == [[name, str(len(c))] for name, c in calls.items()]


def test_c_and_pure_return_alike_on_every_recorded_call(calls, ckernels):
    assert bench.replay(calls, ckernels) == 0


def test_a_c_result_that_differs_fails_the_replay(calls, capsys):
    wrong = types.SimpleNamespace(**dict.fromkeys(_kernels.COMPILED, lambda *args: None))
    assert bench.replay(calls, wrong) == 1
    assert capsys.readouterr().out.count("MISMATCH") == len(_kernels.COMPILED)
