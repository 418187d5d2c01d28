#!/usr/bin/env python3
"""Benchmark the C kernels against their pure-Python reference.

Each kernel `_kernels.COMPILED` names is timed on both the C extension
(`_ckernels`, built by `python setup.py build_ext --inplace`) and its pure
definition in `_kernels.py`; the hill climber has only the pure version.
Run from the repo root:

    python benchmarks/bench_backends.py [--quick]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tristarter import _kernels, build_table, encode, hill_climb, triplicate  # noqa: E402
from tristarter.dimacs import export_dimacs  # noqa: E402
from tristarter.solver import RESTART_UNIT  # noqa: E402
from tristarter.triplication import admissible_keys  # noqa: E402


def timed(fn, repeat: int) -> float:
    start = time.perf_counter()
    for _ in range(repeat):
        fn()
    return (time.perf_counter() - start) / repeat


def bench_hill_climb(repeat):
    seeds = iter(range(10 ** 9))

    def run():
        result = _kernels.hill_climb_pairs(21, next(seeds), 10 ** 6)
        assert result is not None

    return timed(run, repeat)


def bench_enumerate(count_strong_starters, order):
    def run():
        count, _ = count_strong_starters(order, 0)
        assert count > 0

    return timed(run, 1)


def bench_pairing_report(pairing_report, p, seed=1000, repeat=20):
    base = hill_climb(p, seed=seed + p)
    starters = []
    for key in admissible_keys(base):
        result = triplicate(base, key)
        starters += [result.starter_a.pairs, result.starter_b.pairs]

    def run():   # the reports of every key's two merged starters, as `triplicate` makes them
        for pairs in starters:
            assert pairing_report(3 * p, pairs)[2]

    return timed(run, repeat)


def bench_encode(encode_table, p, seed=1000, repeat=20):
    base = hill_climb(p, seed=seed + p)
    tables = [build_table(base, key) for key in admissible_keys(base)]

    def run():   # the table of every key, as `encode` builds it
        for table in tables:
            encode_table(table.p, table.extension)

    return timed(run, repeat)


def bench_solver(fd_search, p, seed=1000):
    base = hill_climb(p, seed=seed + p)
    prepared = [encode(build_table(base, key)).search_arrays()
                for key in admissible_keys(base)]

    def run():   # the searches of `solve`, without its phi fix
        for arrays in prepared:
            status, sols, *_ = fd_search(*arrays, 0, 1, 0, RESTART_UNIT)
            assert status == 1 and sols

    return timed(run, 1)


def bench_export(dimacs_clauses, p, seed=1000, repeat=5):
    base = hill_climb(p, seed=seed + p)
    prepared = [encode(build_table(base, key)).search_arrays()[:6]
                for key in admissible_keys(base)]

    def run():   # the clauses of every key's document, as `export_dimacs` builds them
        for arrays in prepared:
            dimacs_clauses(*arrays)

    return timed(run, repeat)


def bench_dimacs(dimacs_text, p, seed=1000, repeat=5):
    base = hill_climb(p, seed=seed + p)
    docs = [export_dimacs(encode(build_table(base, key)))
            for key in admissible_keys(base)]

    def run():   # the text of every key's document, as `to_dimacs_text` writes it
        for doc in docs:
            dimacs_text(doc.num_ternary, doc.clauses)

    return timed(run, repeat)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true", help="smaller workloads")
    args = parser.parse_args()

    compiled = _kernels.BACKEND == "compiled"
    if not compiled:
        print("note: extension not built (python setup.py build_ext --inplace); "
              "timing the pure kernels only")

    climbs = 200 if args.quick else 2000
    enum_order = 15 if args.quick else 21
    solver_p = 31 if args.quick else 43
    dimacs_p = 31 if args.quick else 79

    # (name, unit, pure timing, C timing or None)
    rows = [
        (f"hill_climb_pairs(21) x{climbs}", "ms/starter",
         lambda: bench_hill_climb(climbs) * 1000, None),
        *((f"pairing_report key sweep p={p}", "ms",
           lambda p=p: bench_pairing_report(_kernels.pure_pairing_report, p) * 1000,
           lambda p=p: bench_pairing_report(_kernels.pairing_report, p) * 1000)
          for p in (31, 79)),
        *((f"encode_table key sweep p={p}", "ms",
           lambda p=p: bench_encode(_kernels.pure_encode_table, p) * 1000,
           lambda p=p: bench_encode(_kernels.encode_table, p) * 1000)
          for p in (31, 79)),
        (f"count_strong_starters({enum_order})", "s",
         lambda: bench_enumerate(_kernels.pure_count_strong_starters, enum_order),
         lambda: bench_enumerate(_kernels.count_strong_starters, enum_order)),
        (f"fd_search key sweep p={solver_p}", "s",
         lambda: bench_solver(_kernels.pure_fd_search, solver_p),
         lambda: bench_solver(_kernels.fd_search, solver_p)),
        (f"dimacs_clauses key sweep p={dimacs_p}", "ms",
         lambda: bench_export(_kernels.pure_dimacs_clauses, dimacs_p) * 1000,
         lambda: bench_export(_kernels.dimacs_clauses, dimacs_p) * 1000),
        (f"dimacs_text key sweep p={dimacs_p}", "ms",
         lambda: bench_dimacs(_kernels.pure_dimacs_text, dimacs_p) * 1000,
         lambda: bench_dimacs(_kernels.dimacs_text, dimacs_p) * 1000),
    ]

    width = max(len(name) for name, *_ in rows) + 2
    print(f"{'workload':<{width}}{'C':>14}{'pure':>14}{'speedup':>10}")
    for name, unit, pure, native in rows:
        pure_t = pure()
        native_t = native() if native is not None and compiled else None
        row = f"{name:<{width}}"
        row += f"{native_t:>11.3f} {unit[:2]}" if native_t is not None else f"{'-':>14}"
        row += f"{pure_t:>11.3f} {unit[:2]}"
        if native_t is not None:
            row += f"{pure_t / native_t:>9.1f}x"
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
