"""Smoke test of `benchmarks/bench_backends.py` on tiny inputs.

The script calls the kernels directly, so a change of their signatures
shows here rather than only when someone runs the benchmark.
"""

import importlib.util
from pathlib import Path

from tristarter import _kernels

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_backends.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_backends", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_backends_runs_on_tiny_inputs():
    bench = _load()
    assert bench.bench_hill_climb(2) > 0
    assert bench.bench_enumerate(_kernels.pure_count_strong_starters, 7) > 0
    assert bench.bench_encode(_kernels.pure_encode_table, 7, repeat=1) > 0
    assert bench.bench_solver(_kernels.pure_fd_search, 7) > 0
    assert bench.bench_export(_kernels.pure_dimacs_clauses, 7, repeat=1) > 0
    assert bench.bench_dimacs(_kernels.pure_dimacs_text, 7, repeat=1) > 0
