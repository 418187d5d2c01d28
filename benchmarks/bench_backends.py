#!/usr/bin/env python3
"""Time the C kernels against their pure-Python reference on the calls the
pipeline makes: `pipeline` runs once with each kernel of `_kernels.KERNELS`
recording its arguments; then each kernel's calls are replayed `REPLAYS`
times on its pure definition and, if `setup.py` built the extension, in C,
and the fastest replay of each side is printed.  Exits 1 if a C result
differs from the pure one.  Usage: bench_backends.py [--quick]
"""

import argparse
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tristarter import _kernels, build_table, encode, hill_climb, triplicate  # noqa: E402
from tristarter.dimacs import export_dimacs, to_dimacs_text  # noqa: E402
from tristarter.inverse import inverse_test  # noqa: E402
from tristarter.starters import enumerate_strong_starters  # noqa: E402
from tristarter.triplication import admissible_keys  # noqa: E402


def pipeline(sweep=(31, 79), census=21, climbs=2000):
    """perfbench's code paths: `triplicate` on every admissible key of a base of
    each order in ``sweep``, DIMACS text for the last one's keys, the census of
    order ``census``, and ``climbs`` order-21 hill climbs, each inverse-tested."""
    for p in sweep:
        base = hill_climb(p, seed=1000 + p)
        for key in admissible_keys(base):
            triplicate(base, key)
    for key in admissible_keys(base):
        to_dimacs_text(export_dimacs(encode(build_table(base, key))))
    enumerate_strong_starters(census, cap=10 ** 6)   # collects every starter
    for seed in range(climbs):
        inverse_test(hill_climb(21, seed=seed))


def record(**sizes) -> dict:
    """Run `pipeline` with every kernel of `_kernels.KERNELS` wrapped:
    ``{name: [argument tuple of each call]}``."""
    kernels = {name: getattr(_kernels, name) for name in _kernels.KERNELS}
    calls = {name: [] for name in kernels}

    def recorder(name):
        def call(*args):
            calls[name].append(args)
            return kernels[name](*args)
        return call

    try:
        vars(_kernels).update({name: recorder(name) for name in kernels})
        pipeline(**sizes)
    finally:
        vars(_kernels).update(kernels)
    return calls


#: Replays of each kernel's calls on each side.  A row prints the fastest:
#: one replay slowed by the machine does not move it.
REPLAYS = 5


def _timed(kernel, arglists):
    start = time.perf_counter()
    return [kernel(*args) for args in arglists], time.perf_counter() - start


def replay(calls: dict, native) -> int:
    """Print each kernel's recorded calls timed on its pure definition and, where
    ``native`` (a module, or None) defines it, in C: the fastest of `REPLAYS`
    replays a side, each C replay compared with the pure one before it; 1 if
    a C result differs."""
    width = max(map(len, calls)) + 2
    print(f"{'kernel':<{width}}{'calls':>7}{'C ms':>10}{'pure ms':>10}{'speedup':>9}")
    status = 0
    for name, arglists in calls.items():
        pure = getattr(_kernels, "pure_" + name, getattr(_kernels, name))
        twin = getattr(native, name, None)
        pure_s = c_s = math.inf
        same = True
        for _ in range(REPLAYS):
            expected, seconds = _timed(pure, arglists)
            pure_s = min(pure_s, seconds)
            if twin:
                got, seconds = _timed(twin, arglists)
                c_s = min(c_s, seconds)
                same &= got == expected
        c_ms, speedup = (f"{c_s * 1000:.1f}", f"{pure_s / c_s:>8.1f}x") if twin else ("-", "")
        print(f"{name:<{width}}{len(arglists):>7}{c_ms:>10}{pure_s * 1000:>10.1f}{speedup}"
              + ("" if same else "  MISMATCH: C and pure differ"))
        status |= not same
    return status


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true", help="smaller workloads")
    sizes = {"sweep": (31,), "census": 15, "climbs": 200} if parser.parse_args().quick else {}
    try:
        from tristarter import _ckernels as native
    except ImportError:   # not built: the C column reads "-"
        native = None
    return replay(record(**sizes), native)


if __name__ == "__main__":
    sys.exit(main())
