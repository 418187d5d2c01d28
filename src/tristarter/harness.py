"""Experiment sweeps and CSV emission.

Two sweep modes mirror the measurement series (all admissible keys for
one base; one random admissible key per order over hill-climbed bases)
plus the inverse-test sampling study.
Run records serialize to CSV with the fixed header

    order_base,order_result,key,status,solve_ms,decisions,backtracks,starter_digest,seed

Durations are integer wall-clock milliseconds and are the only column that
may differ between reruns with the same seed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from . import _kernels
from .assembly import TriplicationResult, triplicate
from .errors import TristarterError, require_int, require_seed
from .inverse import INCONCLUSIVE, base_order_of, inverse_test
from .solver import BUDGET_EXHAUSTED
from .starters import (
    DEFAULT_ENUMERATION_BOUND,
    Pairing,
    canonical_pairs,
    enumerate_strong_starters,
    hill_climb,
)
from .triplication import admissible_keys

CSV_HEADER = "order_base,order_result,key,status,solve_ms,decisions,backtracks,starter_digest,seed"

_STATUS_SHORT = {BUDGET_EXHAUSTED: "BUDGET"}


@dataclass(frozen=True)
class RunRecord:
    order_base: int
    key: int
    status: str           # SAT | UNSAT | BUDGET
    solve_ms: int
    decisions: int
    backtracks: int
    starter_digest: str   # empty unless SAT
    seed: Optional[int]   # empty column when not applicable

    def row(self) -> list:
        return [
            self.order_base, 3 * self.order_base, self.key, self.status,
            self.solve_ms, self.decisions, self.backtracks,
            self.starter_digest, "" if self.seed is None else self.seed,
        ]


@dataclass(frozen=True)
class OrderSweepResult:
    records: tuple[RunRecord, ...]
    failures: tuple[tuple[int, str], ...]   # (order, message)


@dataclass(frozen=True)
class SamplingSummary:
    order: int
    samples: int
    inconclusive: int
    generation_failures: int
    sampler: str   # "uniform" or "hill-climb", as `run_inverse_sampling` chose

    @property
    def fraction(self) -> float:
        """Inconclusive share of the tested samples; 0.0 when none was tested."""
        tested = self.samples - self.generation_failures
        return self.inconclusive / tested if tested else 0.0


def starter_digest(pairing: Pairing) -> str:
    """Stable hash of the normalized pairing (order- and orientation-free)."""
    text = f"{pairing.modulus}|" + ";".join(f"{a},{b}" for a, b in canonical_pairs(pairing))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def derive_seed(master: int, index: int) -> int:
    """Deterministic per-task child seed."""
    return _kernels.splitmix64((master & ((1 << 64) - 1)) ^ (index * 0x9E3779B97F4A7C15))


def _record_for(base: Pairing, key: int, seed: Optional[int]) -> RunRecord:
    result = triplicate(base, key)
    status = _STATUS_SHORT.get(result.status, result.status)
    digest = ""
    if isinstance(result, TriplicationResult):
        # triplicate strong-verified the starter (result.starter_a.report).
        digest = starter_digest(result.starter_a)
    return RunRecord(
        order_base=base.modulus,
        key=key,
        status=status,
        solve_ms=result.stats.duration_ms,
        decisions=result.stats.decisions,
        backtracks=result.stats.backtracks,
        starter_digest=digest,
        seed=seed,
    )


def run_key_sweep(base: Pairing) -> list[RunRecord]:
    """One record per admissible key, ascending.

    `triplicate` refuses a base that is not a strong starter (every pairing
    has an admissible key, so the sweep always reaches it) and
    strong-verifies every SAT starter.
    """
    return [_record_for(base, t, None) for t in admissible_keys(base)]


def run_order_sweep(orders: Sequence[int], seed: int = 0) -> OrderSweepResult:
    """Per order: hill-climb a base, pick a seeded random admissible key, run."""
    require_seed(seed)
    records = []
    failures = []
    for idx, order in enumerate(orders):
        child = derive_seed(seed, idx)
        try:
            base = hill_climb(order, seed=child)
            keys = admissible_keys(base)
            key = keys[derive_seed(child, 1) % len(keys)]
            records.append(_record_for(base, key, child))
        except TristarterError as exc:
            failures.append((order, str(exc)))
    return OrderSweepResult(tuple(records), tuple(failures))


def run_inverse_sampling(order: int, samples: int, seed: int = 0) -> SamplingSummary:
    """Draw ``samples`` strong starters of ``order`` and inverse-test each.

    Orders up to ``DEFAULT_ENUMERATION_BOUND`` are sampled uniformly
    (``sampler="uniform"``): every strong starter is enumerated and
    inverse-tested once, and sample ``i`` is the starter at index
    ``derive_seed(seed, i) % count`` (modulo bias below count / 2**64).
    Larger orders are hill-climbed with seed ``derive_seed(seed, i)``
    (``sampler="hill-climb"``).  The hill climber is not uniform: at order
    21 it measures 10.49% Inconclusive against the exact 648/6660 = 9.73%,
    so its fractions carry that bias.  Repetitions are allowed.  Generation
    failures are counted, not fatal.  An order the inverse test refuses is
    refused before any sampling.
    """
    require_int("order", order, 1)
    require_int("samples", samples, 1)
    require_seed(seed)
    base_order_of(order)
    if order <= DEFAULT_ENUMERATION_BOUND:
        sampler, sample = "uniform", _sample_uniform
    else:
        sampler, sample = "hill-climb", _sample_hill_climb
    inconclusive, failures = sample(order, samples, seed)
    return SamplingSummary(
        order=order,
        samples=samples,
        inconclusive=inconclusive,
        generation_failures=failures,
        sampler=sampler,
    )


def _sample_uniform(order: int, samples: int, seed: int) -> tuple[int, int]:
    """(inconclusive, 0) over seeded uniform draws from the enumeration."""
    starters = enumerate_strong_starters(order, cap=sys.maxsize).starters
    flags = [inverse_test(s).status == INCONCLUSIVE for s in starters]
    hits = sum(flags[derive_seed(seed, i) % len(flags)] for i in range(samples))
    return hits, 0


def _sample_hill_climb(order: int, samples: int, seed: int) -> tuple[int, int]:
    """(inconclusive, failures) over one hill climb per sample."""
    inconclusive = 0
    failures = 0
    for i in range(samples):
        try:
            starter = hill_climb(order, seed=derive_seed(seed, i))
        except TristarterError:
            failures += 1
            continue
        if inverse_test(starter).status == INCONCLUSIVE:
            inconclusive += 1
    return inconclusive, failures


def write_records_csv(records: Sequence[RunRecord], path: Union[str, Path, None]) -> str:
    """Serialize records under the fixed header; returns the CSV text."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for record in records:
        writer.writerow(record.row())
    text = buf.getvalue()
    if path is not None:
        Path(path).write_text(text)
    return text
