#!/usr/bin/env python3
"""The tristarter benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload sweep-p31 --seed 1 --seconds 35 --trace 0

Run from the repository root.  The package is built from this checkout's
sources into ``.bench_build/`` (keyed by a digest of the sources, so a build
of another commit is never reused) and imported from there.  One thread and
one caller run one item at a time.

``--trace 0`` runs items for ``--seconds`` seconds of item wall time, and
on to the end of the pass over the inputs, and prints the end-to-end
metrics.  They time each call and the set-up in process CPU time, scaled to
a nominal core speed by a reference loop timed during the run.
``--trace 1`` runs each item of the workload's fixed trace list twice,
untraced and traced, and prints the per-layer metrics.
Either way the last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record, with the input
fingerprint and the environment stamp, goes to ``.bench_build/results/``.
A wrong output or an exact-count mismatch exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
OUT = ROOT / ".bench_build"
SOURCES = ("setup.py", "pyproject.toml", "src")
SOURCE_SUFFIXES = {".py", ".pyx", ".pxd", ".c", ".h", ".toml", ".cfg"}
SETUP_PROBES = 5

# The reference loop: REFERENCE_ITERATIONS steps take REFERENCE_S of CPU time
# on a core at the speed every reported time is scaled to (an x86-64 core
# of a shared 2-core machine, Python 3.11, at its quieter times).
REFERENCE_ITERATIONS = 20_000
REFERENCE_S = 0.00125
REFERENCE_EVERY_S = 0.02

# Which layer each workload is expected to spend most of its self time in.
PREDICTED_DOMINANT = {
    "sweep-p31": "kernels.fd_search",
    "sample-n21": "kernels.hill_climb_pairs",
    "export-p79": "dimacs",
}

# The span-derived per-layer metrics a traced run reports (the full
# calls/busy/self table is printed and kept in the result record).
LAYER_METRICS = (
    ("kernels.fd_search", "calls"), ("kernels.fd_search", "busy_s"),
    ("solver.solve", "calls"), ("solver.solve", "self_s"),
    ("model.encode", "calls"), ("model.encode", "busy_s"),
    ("model.check_solution", "calls"), ("model.check_solution", "busy_s"),
    ("triplication.build_table", "calls"), ("triplication.build_table", "busy_s"),
    ("starters.verify_pairing", "calls"), ("starters.verify_pairing", "busy_s"),
    ("assembly.crt_merge", "calls"), ("assembly.crt_merge", "busy_s"),
    ("assembly.triplicate", "self_s"),
    ("starters.hill_climb", "calls"), ("starters.hill_climb", "busy_s"),
    ("kernels.hill_climb_pairs", "busy_s"),
    ("starters.enumerate_strong_starters", "busy_s"),
    ("kernels.count_strong_starters", "busy_s"),
    ("inverse.inverse_test", "calls"), ("inverse.inverse_test", "busy_s"),
    ("dimacs.export_dimacs", "busy_s"), ("dimacs.to_dimacs_text", "busy_s"),
)


def generated(f: Path) -> bool:
    """A C file that Cython writes from a sibling .py or .pyx module."""
    return f.suffix == ".c" and any(
        f.with_suffix(s).exists() for s in (".py", ".pyx"))


def digest(paths) -> str:
    """Digest of the source files under `paths` (names and contents)."""
    h = hashlib.sha256()
    for path in paths:
        files = sorted(path.rglob("*")) if path.is_dir() else [path]
        for f in files:
            if (f.is_file() and f.suffix in SOURCE_SUFFIXES and not generated(f)
                    and "__pycache__" not in f.parts
                    and not any(p.endswith(".egg-info") for p in f.parts)):
                h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def build(sources: str) -> Path:
    """Build the package from this checkout once per source digest."""
    base = OUT / f"pkg-{sources}"
    lib = base / "lib"
    if not (base / "built").exists():
        proc = subprocess.run(
            [sys.executable, "setup.py", "build", "--build-base", str(base / "tmp"),
             "--build-lib", str(lib)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            raise SystemExit(f"building the package failed (exit {proc.returncode})")
        (base / "built").write_text(sources + "\n")
    return lib


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_probe(args) -> tuple[float, str]:
    """CPU seconds a fresh process spends from its start to having the
    inputs ready (it then exits), and the fingerprint of those inputs."""
    cmd = [sys.executable, __file__, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe"]
    start = children_cpu_s()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    elapsed = children_cpu_s() - start
    if proc.returncode != 0:
        raise SystemExit(f"setup probe exited {proc.returncode}")
    return elapsed, proc.stdout.strip()


def reference_loop() -> int:
    """Fixed pure-Python work whose CPU time tracks the speed of the core."""
    s = 0
    for i in range(REFERENCE_ITERATIONS):
        s += i * i % 7
    return s


def reference_time() -> float:
    start = time.process_time()
    reference_loop()
    return time.process_time() - start


def run_pass(wl, items, seconds: float, probe):
    """Closed loop: the prelude, then items until `seconds` of item wall
    time have passed and the last pass over the inputs is complete.

    Only the calls are timed; checks run between them.  Each call is
    measured in process CPU time: the calls are single-threaded and do no
    I/O, so that is their wall time on an idle core, without the time other
    tenants of a shared machine hold it.  The reference loop is timed before
    the first item and after every REFERENCE_EVERY_S of item time.  `probe`
    is called SETUP_PROBES times at evenly spaced points of the run, so
    set-up is sampled over the same minutes as the items are.  Returns
    (latencies by item, failed items, timed CPU seconds, timed wall seconds,
    prelude CPU seconds, reference loop times, exact counts).
    """
    # Imported here: workloads needs the package, which main() puts on the path.
    from workloads import COUNT_KEYS

    counts = dict.fromkeys(COUNT_KEYS, 0)
    latencies: dict = {}   # item -> its latency in each pass
    attempted = 0
    references: list[float] = []
    failed = 0
    wall, cpu = time.perf_counter(), time.process_time()
    out = wl.prelude()
    prelude_s = busy = time.process_time() - cpu
    wall_s = time.perf_counter() - wall
    if out is not None:
        wl.check_prelude(out, counts)
    marks = [seconds * i / SETUP_PROBES for i in range(SETUP_PROBES)]
    since_reference = REFERENCE_EVERY_S
    for item in items:
        if wall_s >= seconds and (wl.pass_size is None or attempted % wl.pass_size == 0):
            break
        while marks and wall_s >= marks[0]:
            marks.pop(0)
            probe()
        if since_reference >= REFERENCE_EVERY_S:
            references.append(reference_time())
            since_reference = 0.0
        wall, cpu = time.perf_counter(), time.process_time()
        out = wl.run(item)
        elapsed = time.process_time() - cpu
        wall_s += time.perf_counter() - wall
        busy += elapsed
        since_reference += elapsed
        latencies.setdefault(item, []).append(elapsed)
        attempted += 1
        if not wl.check(item, out, counts):
            failed += 1
    for _ in marks:
        probe()
    return latencies, failed, busy, wall_s, prelude_s, references, counts


def paired_pass(wl, items, tracer):
    """The prelude and each item run twice back to back, untraced and traced.

    The order alternates between items, so machine-speed drift and warm
    caches fall equally on both sides of trace.overhead_frac.  Returns
    (seconds, failed items, exact counts), each as (untraced, traced).
    """
    from workloads import COUNT_KEYS

    seconds = [0.0, 0.0]
    failed = [0, 0]
    counts = [dict.fromkeys(COUNT_KEYS, 0), dict.fromkeys(COUNT_KEYS, 0)]
    for n, (i, item) in enumerate([("prelude", None)] + list(enumerate(items))):
        for traced in (0, 1) if n % 2 == 0 else (1, 0):
            tracer.item = i
            if traced:
                tracer.install()
            try:
                start = time.perf_counter()
                out = wl.prelude() if item is None else wl.run(item)
                seconds[traced] += time.perf_counter() - start
            finally:
                tracer.uninstall()
            if item is None:
                if out is not None:
                    wl.check_prelude(out, counts[traced])
            elif not wl.check(item, out, counts[traced]):
                failed[traced] += 1
    return seconds, failed, counts


def tail(latencies: list[float]):
    """Highest percentile with at least ten items beyond it: (value, pct)."""
    ordered = sorted(latencies)
    n = len(ordered)
    idx = max(0, n - 11)
    return ordered[idx], 100.0 * (idx + 1) / n


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, wl, record: dict):
    probes: list[tuple[float, str]] = []
    timings, failed, busy, wall_s, prelude_s, references, counts = run_pass(
        wl, wl.stream(), args.seconds, lambda: probes.append(setup_probe(args)))
    fingerprint = wl.fingerprint()
    if any(out != fingerprint for _, out in probes):
        raise SystemExit("input generation is not deterministic: setup probes "
                         f"produced {[out for _, out in probes]}, this process {fingerprint}")
    attempted = sum(map(len, timings.values()))
    if attempted == 0:
        raise SystemExit("no item finished within the run")
    # The speed of a shared core drifts by tens of percent over minutes, in
    # CPU time too.  Every time is scaled by how much slower than nominal
    # the reference loop ran over this run, so runs made at different
    # minutes measure the program, not the machine's speed at the time.
    slowdown = statistics.median(references) / REFERENCE_S
    setup_cpu_s = statistics.median(t for t, _ in probes)
    # A workload with a fixed input set times each input once a pass; its
    # latency is the median over the passes, so the percentiles rank the
    # inputs themselves and do not depend on how many passes a run held.
    latencies = [statistics.median(ts) for ts in timings.values()]
    tail_s, tail_pct = tail(latencies)
    p50_s = statistics.median(latencies)
    metrics = {
        "items_per_s": metric((attempted - failed) / busy * slowdown, "1/s"),
        "item_p50_ms": metric(p50_s / slowdown * 1000, "ms"),
        "item_tail_ms": metric(tail_s / slowdown * 1000, "ms"),
        "success_frac": metric((attempted - failed) / attempted, "frac"),
        "setup_s": metric(setup_cpu_s / slowdown, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    # The slowest single item is printed and recorded but is not a gated
    # metric: it is one sample.
    item_max_ms = max(map(max, timings.values())) / slowdown * 1000
    record.update(
        slowdown=slowdown, reference_s=references,
        raw_cpu={"items_per_s": (attempted - failed) / busy, "item_p50_ms": p50_s * 1000,
                 "item_tail_ms": tail_s * 1000, "setup_s": setup_cpu_s},
        setup_probes_s=[t for t, _ in probes],
        timed_cpu_s=busy, timed_wall_s=wall_s, prelude_s=prelude_s,
        failed_frac=failed / attempted, item_max_ms=item_max_ms, tail_percentile=tail_pct,
        distinct_items=len(latencies), tail_items_beyond=min(10, len(latencies) - 1),
        counts=counts)
    print(f"{wl.name} seed {args.seed}: {attempted} items in {busy:.2f} CPU s "
          f"({wall_s:.2f} wall s; prelude {prelude_s:.2f} CPU s), {failed} failed "
          f"(failed_frac {failed / attempted:.4f}), item_max_ms {item_max_ms:.3f} ms")
    print(f"item_tail_ms is p{tail_pct:.1f} of {len(latencies)} distinct items "
          f"({min(10, len(latencies) - 1)} beyond it); times scaled by 1/{slowdown:.3f}, "
          f"the reference loop's slowdown over {len(references)} timings")
    return attempted, failed, metrics


def per_layer(args, wl, record: dict):
    from tracing import Tracer

    items = wl.trace_items()
    tracer = Tracer()
    (untraced_s, traced_s), (failed, failed_traced), (counts_plain, counts) = \
        paired_pass(wl, items, tracer)
    spans_path = OUT / "spans" / f"{wl.name}-s{args.seed}.jsonl"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path)

    deterministic = counts == counts_plain and failed == failed_traced
    if not deterministic:
        print(f"DETERMINISM FAILURE: exact counts differ between two passes over "
              f"the same inputs: untraced {counts_plain}, traced {counts}. "
              "The solver documents results as deterministic for a fixed "
              "(instance, config).")

    layers = tracer.layer_times()
    fd_busy = layers["kernels.fd_search"]["busy_s"]
    metrics = {
        "solver.decisions": metric(counts["decisions"], "count"),
        "solver.backtracks": metric(counts["backtracks"], "count"),
        "solver.propagations": metric(counts["propagations"], "count"),
        "solver.decisions_max": metric(counts["decisions_max"], "count"),
        "solver.budget_exhausted": metric(counts["budget_exhausted"], "count"),
        "solver.decisions_per_s": metric(counts["decisions"] / fd_busy if fd_busy else 0.0, "1/s"),
        "inverse.inconclusive": metric(counts["inconclusive"], "count"),
        "dimacs.clauses": metric(counts["clauses"], "count"),
        "dimacs.bytes": metric(counts["bytes"], "bytes"),
        "starters.hill_climb.failed": metric(layers["starters.hill_climb"]["raised"], "count"),
        "trace.overhead_frac": metric(traced_s / untraced_s - 1, "frac"),
    }
    for name, field in LAYER_METRICS:
        unit = "count" if field == "calls" else "s"
        metrics[f"{name}.{field}"] = metric(layers[name][field], unit)

    by_self = sorted(layers.items(), key=lambda kv: -kv[1]["self_s"])
    dominant = by_self[0][0]
    predicted = PREDICTED_DOMINANT[wl.name]
    found = "as predicted" if dominant.startswith(predicted) else f"predicted {predicted}"
    print(f"{wl.name} seed {args.seed}: {len(items)} items, untraced {untraced_s:.3f} s, "
          f"traced {traced_s:.3f} s, {len(tracer.spans)} spans -> {spans_path.relative_to(ROOT)}")
    print(f"dominant layer by self time: {dominant} ({found})")
    for name, row in by_self:
        if row["calls"]:
            print(f"  {name:<36} calls {row['calls']:>7}  busy {row['busy_s']:9.4f} s"
                  f"  self {row['self_s']:9.4f} s")
    record.update(counts=counts, deterministic=deterministic, dominant_layer=dominant,
                  predicted_dominant=predicted, trace_items=len(items))
    return len(items), failed, metrics, deterministic


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    sources = digest(ROOT / p for p in SOURCES)
    if args.setup_probe:
        sys.path.insert(0, str(OUT / f"pkg-{sources}" / "lib"))
        from workloads import WORKLOADS
        print(WORKLOADS[args.workload](args.seed).fingerprint())
        return 0

    lib = build(sources)
    sys.path.insert(0, str(lib))
    import tristarter
    from workloads import WORKLOADS, WrongOutput

    if not Path(tristarter.__file__).resolve().is_relative_to(lib.resolve()):
        raise SystemExit(f"imported {tristarter.__file__}, not the build in {lib}")
    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.seed)
    fingerprint = wl.fingerprint()

    record = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "fingerprint": fingerprint, "source_digest": sources,
        "bench_digest": digest([Path(__file__).resolve().parent]),
        "backend": tristarter.kernel_backend(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "params": wl.params(),
    }
    correct = True
    try:
        if args.trace:
            attempted, failed, metrics, correct = per_layer(args, wl, record)
        else:
            attempted, failed, metrics = end_to_end(args, wl, record)
    except WrongOutput as exc:
        print(f"WRONG OUTPUT: {exc}")
        attempted, failed, metrics, correct = 1, 1, {}, False
    record.update(correct=correct, attempted=attempted, failed=failed, metrics=metrics)

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{wl.name}-s{args.seed}-t{args.trace}-{time.time_ns()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"inputs {fingerprint}, sources {sources}, backend {record['backend']}, "
          f"python {record['python']}, nproc {record['nproc']} -> {path.relative_to(ROOT)}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
