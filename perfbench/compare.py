#!/usr/bin/env python3
"""Summarise or compare benchmark result records.

    python3 perfbench/compare.py RESULTS            # one commit
    python3 perfbench/compare.py OLD_RESULTS NEW_RESULTS

Each argument is a directory of records written by ``run.py`` (normally a
copy of ``.bench_build/results``).  Run from the repository root, where
``BENCHMARK.json`` gives the metrics and their bounds.

Records are refused for comparison (exit 2) when the same workload and seed
has a different input fingerprint, or when the kernel backends or the
benchmark's own code (``bench_digest``) differ.
Traced records of the same sources, workload and seed must carry identical
exact counts; a mismatch is a failure of the solver's determinism guarantee
(exit 1).  Between different sources a count change is only reported.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(path: str) -> list[dict]:
    records = [json.loads(p.read_text()) for p in sorted(Path(path).glob("*.json"))]
    if not records:
        raise SystemExit(f"no result records in {path}")
    return records


def refusals(records: list[dict]) -> list[str]:
    out = []
    for field in ("backend", "bench_digest"):
        values = {r.get(field) for r in records}
        if len(values) > 1:
            out.append(f"{field} differs: {sorted(map(str, values))}")
    prints: dict = {}
    for r in records:
        prints.setdefault((r["workload"], r["seed"]), set()).add(r["fingerprint"])
    for (workload, seed), fps in sorted(prints.items()):
        if len(fps) > 1:
            out.append(f"{workload} seed {seed}: input fingerprints differ {sorted(fps)}")
    return out


def count_mismatches(records: list[dict]) -> tuple[list[str], list[str]]:
    """(determinism failures within one source digest, changes across digests)."""
    by_key: dict = {}
    for r in records:
        if r["trace"] == 1 and r.get("correct"):
            by_key.setdefault((r["workload"], r["seed"]), {}).setdefault(
                r["source_digest"], []).append(r["counts"])
    failures, changes = [], []
    for (workload, seed), by_digest in sorted(by_key.items()):
        for digest, counts in by_digest.items():
            if any(c != counts[0] for c in counts):
                failures.append(f"{workload} seed {seed} sources {digest}: {counts}")
        firsts = {d: c[0] for d, c in by_digest.items()}
        if len({json.dumps(c, sort_keys=True) for c in firsts.values()}) > 1:
            changes.append(f"{workload} seed {seed}: {firsts}")
    return failures, changes


def summary(values: list[float]) -> tuple[float, float]:
    """Median and quartile spread as a share of the median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__)
        return 2
    sides = [load(a) for a in argv]
    bench = json.loads(Path("BENCHMARK.json").read_text())
    refused = refusals([r for side in sides for r in side])
    if refused:
        print("REFUSED for comparison:\n  " + "\n  ".join(refused))
        return 2
    failures, changes = count_mismatches([r for side in sides for r in side])
    for line in changes:
        print(f"exact counts changed between sources: {line}")

    status = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        runs = [[r for r in side if r["workload"] == workload and r["trace"] == 0
                 and r.get("correct")] for side in sides]
        if not all(runs):
            continue
        print(f"{workload}: {' vs '.join(str(len(r)) for r in runs)} runs")
        for m in bench["end_to_end"]:
            stats = [summary([r["metrics"][m["name"]]["value"] for r in side]) for side in runs]
            line = "  ".join(f"{med:12.5g} (spread {spread:.3f})" for med, spread in stats)
            verdict = ""
            if len(stats) == 2:
                (old, old_spread), (new, new_spread) = stats
                worse = (new - old) / old if m["better"] == "lower" else (old - new) / old
                if max(old_spread, new_spread) > m["bound"]:
                    verdict = "unresolved (spread above bound)"
                elif worse > m["bound"]:
                    verdict, status = f"REGRESSION {worse:+.1%} > bound {m['bound']}", 1
                else:
                    verdict = f"{-worse:+.1%} better"
            print(f"  {m['name']:<14} {m['unit']:<5} {line}  {verdict}")
    if failures:
        print("DETERMINISM FAILURE: exact counts differ between traced runs of the "
              "same sources, workload and seed:\n  " + "\n  ".join(failures))
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
