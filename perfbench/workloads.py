"""The three seeded workloads: input generation, the item call, output checks.

Each workload turns a seed into its inputs (nothing else feeds them), runs
one item per call, and checks each output with code of its own: the strong
starter check below deliberately does not reuse `verify_pairing`, which is
one of the layers being measured.  Layer functions are always called
through their module (``assembly.triplicate``, ``model.encode``, ...), so
the wrappers that `tracing` installs see every call.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

from tristarter import assembly, dimacs, inverse, model, starters, triplication
from tristarter.errors import SearchBudgetError
from tristarter.solver import BUDGET_EXHAUSTED, SAT, SolverConfig

# Decisions one sweep-p31 key may spend before it counts as failed: eight
# times the most any key of the sweep's bases needs (6 233, for every
# relabelling), so only a change that lengthens the search makes keys fail.
SWEEP_BUDGET = 50_000
SWEEP_BASES = 16          # order-31 bases; every seed relabels the same ones
EXPORT_BASES = 4          # order-79 bases per seed
CENSUS_STARTERS = 6660    # strong starters of order 21 (exhaustive count)
CENSUS_INCONCLUSIVE = 648  # of those, triplication images by the inverse test

COUNT_KEYS = ("decisions", "backtracks", "propagations", "decisions_max",
              "budget_exhausted", "inconclusive", "clauses", "bytes")


class WrongOutput(Exception):
    """An output failed its check: the benchmark result is invalid."""


def is_strong_starter(n: int, pairs) -> bool:
    """Definition check, written independently of `starters.verify_pairing`."""
    if len(pairs) != (n - 1) // 2:
        return False
    if sorted(x for pair in pairs for x in pair) != list(range(1, n)):
        return False
    diffs = sorted(d for a, b in pairs for d in ((a - b) % n, (b - a) % n))
    if diffs != list(range(1, n)):
        return False
    sums = [(a + b) % n for a, b in pairs]
    return 0 not in sums and len(set(sums)) == len(sums)


def canonical(pairs) -> tuple:
    """The pairing as a set of unordered pairs, for set-level comparison."""
    return tuple(sorted(tuple(sorted(pair)) for pair in pairs))


def distinct_bases(order: int, seeds):
    """Hill-climbed bases in seed order, keeping the first of each set."""
    seen = set()
    for s in seeds:
        base = starters.hill_climb(order, seed=s)
        key = canonical(base.pairs)
        if key not in seen:
            seen.add(key)
            yield base


def relabel(base, m: int):
    """The base multiplied by the unit m: x -> m*x mod p keeps a strong
    starter strong, and maps its triplication instances to isomorphic ones,
    which the solver searches with the same number of decisions."""
    p = base.modulus
    pairs = tuple((m * a % p, m * b % p) for a, b in base.pairs)
    if not is_strong_starter(p, pairs):
        raise WrongOutput(f"relabelling by {m} broke the order-{p} starter {base.pairs}")
    return starters.Pairing(p, pairs)


class Workload:
    """One seeded workload.  Subclasses fill in the item call and checks."""

    name = ""
    trace_count = 0   # items in the fixed list a traced run measures

    def __init__(self, seed: int):
        self.seed = seed
        self.inputs: list = []   # the generated items, before any cycling

    def fingerprint(self) -> str:
        """Digest of everything the seed generated, plus fixed parameters."""
        blob = json.dumps([self.name, self.params(), self.describe_inputs()],
                          sort_keys=True, default=list)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def params(self) -> dict:
        return {}

    def describe_inputs(self) -> list:
        return [[list(map(list, b.pairs)), k] for b, k in self.inputs]

    @property
    def pass_size(self):
        """Items in one pass over the inputs; a timed run ends on a whole
        pass, so every run measures the same items the same number of
        times.  None for an endless stream."""
        return len(self.inputs)

    def stream(self):
        """Items of the timed run: passes over the inputs, each in an order
        shuffled by the seed."""
        rng = random.Random(self.seed)
        while True:
            order = list(self.inputs)
            rng.shuffle(order)
            yield from order

    def trace_items(self) -> list:
        return list(itertools.islice(self.stream(), self.trace_count))

    def prelude(self):
        """Timed work that is not an item (the census); None when absent."""
        return None

    def check_prelude(self, out, counts: dict) -> None:
        pass

    def run(self, item):
        raise NotImplementedError

    def check(self, item, out, counts: dict) -> bool:
        """Add the item's exact counts; False marks a failed item.

        Raises `WrongOutput` when the output is wrong.
        """
        raise NotImplementedError


def add_solver_counts(counts: dict, stats, status: str) -> None:
    counts["decisions"] += stats.decisions
    counts["backtracks"] += stats.backtracks
    counts["propagations"] += stats.propagations
    counts["decisions_max"] = max(counts["decisions_max"], stats.decisions)
    counts["budget_exhausted"] += status == BUDGET_EXHAUSTED


class SweepP31(Workload):
    """Every admissible key of 16 order-31 bases, in seeded passes.

    The bases are the first distinct `hill_climb(31, seed=j)`, j = 0, 1, ...,
    each multiplied by a unit drawn from the workload seed.  Relabelling
    keeps each key's search, so every seed measures the same heavy-tailed
    set of solves (up to 6 233 decisions a key) on other tables, and a
    run's figures do not rest on which few hard keys a seed happened to draw.
    """

    name = "sweep-p31"
    trace_count = 240

    def __init__(self, seed: int):
        super().__init__(seed)
        self.config = SolverConfig(step_budget=SWEEP_BUDGET)
        rng = random.Random(seed)
        bases = [relabel(b, rng.randrange(1, 31))
                 for b in itertools.islice(distinct_bases(31, itertools.count()), SWEEP_BASES)]
        self.inputs = [(b, k) for b in bases for k in triplication.admissible_keys(b)]

    def params(self) -> dict:
        return {"step_budget": SWEEP_BUDGET, "bases": SWEEP_BASES}

    def run(self, item):
        base, key = item
        return assembly.triplicate(base, key, self.config)

    def check(self, item, out, counts: dict) -> bool:
        add_solver_counts(counts, out.stats, out.status)
        if out.status != SAT:
            return False
        n = 3 * item[0].modulus
        a, b = out.starter_a.pairs, out.starter_b.pairs
        if not (is_strong_starter(n, a) and is_strong_starter(n, b)):
            raise WrongOutput(f"key {item[1]}: a merged starter is not strong")
        if a == b:
            raise WrongOutput(f"key {item[1]}: the two merged starters coincide")
        return True


class SampleN21(Workload):
    """Exact order-21 census, then seeded hill-climb samples, inverse-tested."""

    name = "sample-n21"
    trace_count = 2000
    pass_size = None   # a stream of fresh samples, not passes

    def __init__(self, seed: int):
        super().__init__(seed)
        self.first_seed = seed * 1_000_000
        self.census: dict = {}

    def params(self) -> dict:
        return {"order": 21, "census": [CENSUS_STARTERS, CENSUS_INCONCLUSIVE]}

    def describe_inputs(self) -> list:
        return ["sample seeds from", self.first_seed, "step", 1]

    def stream(self):
        return itertools.count(self.first_seed)

    def prelude(self):
        found = starters.enumerate_strong_starters(21, cap=CENSUS_STARTERS + 1)
        return found, [inverse.inverse_test(s).status for s in found.starters]

    def check_prelude(self, out, counts: dict) -> None:
        found, statuses = out
        inconclusive = statuses.count(inverse.INCONCLUSIVE)
        counts["inconclusive"] += inconclusive
        if found.count != CENSUS_STARTERS or len(found.starters) != CENSUS_STARTERS:
            raise WrongOutput(f"census found {found.count} order-21 starters, "
                              f"expected {CENSUS_STARTERS}")
        if inconclusive != CENSUS_INCONCLUSIVE:
            raise WrongOutput(f"census found {inconclusive} inconclusive, "
                              f"expected {CENSUS_INCONCLUSIVE}")
        for s, status in zip(found.starters, statuses):
            if not is_strong_starter(21, s.pairs):
                raise WrongOutput(f"census returned a non-strong starter {s.pairs}")
            self.census[canonical(s.pairs)] = status
        if len(self.census) != CENSUS_STARTERS:
            raise WrongOutput("census returned the same starter twice")

    def run(self, item):
        try:
            sample = starters.hill_climb(21, seed=item)
        except SearchBudgetError:
            return None
        return sample, inverse.inverse_test(sample)

    def check(self, item, out, counts: dict) -> bool:
        if out is None:
            return False
        sample, verdict = out
        counts["inconclusive"] += verdict.status == inverse.INCONCLUSIVE
        if not is_strong_starter(21, sample.pairs):
            raise WrongOutput(f"hill_climb(21, seed={item}) is not a strong starter")
        # Every order-21 strong starter is in the census, with its verdict.
        if self.census.get(canonical(sample.pairs)) != verdict.status:
            raise WrongOutput(f"seed {item}: verdict {verdict.status} disagrees "
                              "with the census")
        return True


class ExportP79(Workload):
    """DIMACS text for every admissible key of seeded order-79 bases.

    An order-79 hill climb takes from 2 ms to 0.3 s depending on its seed,
    so bases climbed from the workload seed would make set-up time a matter
    of the seed.  Instead the climbs are the same for every seed (the first
    distinct bases of seeds 0, 1, ...), and the seed draws a unit multiplier
    for each: x -> m*x mod 79 maps a strong starter to another one, so each
    seed exports other tables for the same set-up work.
    """

    name = "export-p79"
    trace_count = 400

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(seed)
        bases = [relabel(b, rng.randrange(1, 79))
                 for b in itertools.islice(distinct_bases(79, itertools.count()), EXPORT_BASES)]
        self.inputs = [(b, k) for b in bases for k in triplication.admissible_keys(b)]
        self.digests: dict = {}

    def params(self) -> dict:
        return {"bases": EXPORT_BASES}

    def run(self, item):
        base, key = item
        doc = dimacs.export_dimacs(model.encode(triplication.build_table(base, key)))
        return len(doc.clauses), dimacs.to_dimacs_text(doc)

    def check(self, item, out, counts: dict) -> bool:
        clauses, text = out
        counts["clauses"] += clauses
        counts["bytes"] += len(text)
        digest = hashlib.sha1(text.encode()).digest()
        seen = self.digests.get(item)
        if seen is None:
            # First time this key is exported: parse the text back.
            parsed = dimacs.parse_dimacs_text(text)
            if len(parsed.clauses) != clauses:
                raise WrongOutput(f"key {item[1]}: {len(parsed.clauses)} clauses "
                                  f"parsed back, {clauses} exported")
            self.digests[item] = digest
        elif seen != digest:
            raise WrongOutput(f"key {item[1]}: a repeat export produced other text")
        return True


WORKLOADS = {w.name: w for w in (SweepP31, SampleN21, ExportP79)}
