#!/usr/bin/env python3
"""Benchmark the compiled kernel extension against the pure-Python kernels.

The kernels are one source file; the built extension shadows it on import.
This script imports whatever the package resolves to (compiled when built)
and additionally loads the .py source directly, then times the three hot
kernels on both.  Run from the repo root:

    python benchmarks/bench_backends.py [--quick]
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tristarter._kernels as active  # noqa: E402
from tristarter import build_table, encode, hill_climb  # noqa: E402
from tristarter.solver import SolverConfig, _branch_order  # noqa: E402
from tristarter.triplication import admissible_keys  # noqa: E402


def load_pure():
    path = Path(active.__file__).parent / "_kernels.py"
    spec = importlib.util.spec_from_file_location("tristarter._kernels_pure", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def timed(fn, repeat: int) -> float:
    start = time.perf_counter()
    for _ in range(repeat):
        fn()
    return (time.perf_counter() - start) / repeat


def bench_hill_climb(mod, repeat):
    seeds = iter(range(10 ** 9))

    def run():
        result = mod.hill_climb_pairs(21, next(seeds), 10 ** 6)
        assert result is not None

    return timed(run, repeat)


def bench_enumerate(mod, order):
    def run():
        count, _ = mod.count_strong_starters(order, 0)
        assert count > 0

    return timed(run, 1)


def bench_solver(mod, p, seed=1000):
    base = hill_climb(p, seed=seed + p)
    prepared = []
    for key in admissible_keys(base):
        inst = encode(build_table(base, key))
        prepared.append((inst.num_variables, inst.search_arrays(),
                         _branch_order(inst, SolverConfig())))

    def run():
        for nvars, flat, order in prepared:
            status, sols, *_ = mod.fd_search(nvars, *flat, order, 1, 0, 1)
            assert status == 1 and sols

    return timed(run, 1)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true", help="smaller workloads")
    args = parser.parse_args()

    pure = load_pure()
    backends = [("pure", pure)]
    if active.COMPILED:
        backends.insert(0, ("compiled", active))
    else:
        print("note: extension not built (python setup.py build_ext --inplace); "
              "timing the pure kernels only")

    climbs = 200 if args.quick else 2000
    enum_order = 15 if args.quick else 21
    solver_p = 31 if args.quick else 43

    workloads = [
        (f"hill_climb_pairs(21) x{climbs}", lambda m: bench_hill_climb(m, climbs) * 1000, "ms/starter"),
        (f"count_strong_starters({enum_order})", lambda m: bench_enumerate(m, enum_order), "s"),
        (f"fd_search key sweep p={solver_p}", lambda m: bench_solver(m, solver_p), "s"),
    ]

    results: dict[str, dict[str, float]] = {}
    for name, bench, unit in workloads:
        results[name] = {}
        for backend_name, mod in backends:
            results[name][backend_name] = bench(mod)

    width = max(len(name) for name, _, _ in workloads) + 2
    header = f"{'workload':<{width}}" + "".join(f"{b:>14}" for b, _ in backends)
    if len(backends) == 2:
        header += f"{'speedup':>10}"
    print(header)
    for name, _, unit in workloads:
        row = f"{name:<{width}}"
        for backend_name, _ in backends:
            row += f"{results[name][backend_name]:>11.3f} {unit[:2]}"
        if len(backends) == 2:
            row += f"{results[name]['pure'] / results[name]['compiled']:>9.1f}x"
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
