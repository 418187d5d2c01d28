"""Native finite-domain solver for encoded instances.

Complete chronological backtracking with propagation of the bindings and
all-different pruning (see `_kernels.fd_search`), branching on the U/V
variable with the smallest remaining domain.  D, S and Z are functionally
determined by propagation.

Single min-domain searches are heavy-tailed: a few keys need thousands of
times the median number of decisions, while the same instance searched
with other tie-breaks among equal domains finishes quickly.  `solve`
therefore restarts (Gomes, Selman, Crato and Kautz, J. Automated Reasoning
2000): run i gets ``RESTART_UNIT * luby(i)`` decisions (Luby, Sinclair and
Zuckerman, IPL 1993).  Run 0 breaks ties in the table's linear order U0,
V0, U1, ...; run i >= 1 in an order shuffled by ``(config.seed, i)``.  A
run that ends within its budget searched the whole space, so it decides
SAT or proves UNSAT, and the search stays complete.  ``step_budget``
bounds the decisions summed over all runs.

`solve` also breaks the value swap phi (1 <-> 2), which maps solutions to
solutions: the real members of the color-0 group share a group with Z = 0,
so each is 1 or 2, and fixing the first of them to 1 keeps exactly one
solution of every phi-orbit.  Fixing one variable before the search is
sound; dropping the value 2 at a later branch would not be, once an
earlier variable is nonzero.

`enumerate_solutions` runs one search with neither restarts nor the phi
fix, so its result is the complete, phi-closed solution set.  Everything
is deterministic for a fixed (instance, config) apart from wall-clock time.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Optional

from . import _kernels
from .errors import InternalConsistencyError, SearchBudgetError, StructuralError
from .model import Solution, SudokuInstance, check_solution, phi_fixed_var

SAT = "SAT"
UNSAT = "UNSAT"
BUDGET_EXHAUSTED = "BUDGET_EXHAUSTED"

DEFAULT_STEP_BUDGET = 50_000_000

#: Decisions of a unit Luby run.  The median key of an order-31 sweep
#: (about 120 decisions) finishes within run 0; a unit of 256 lengthens
#: UNSAT proofs at p = 11 and 13 by half (ROADMAP, "Re-measured after
#: restarts").
RESTART_UNIT = 128


@dataclass(frozen=True)
class SolverConfig:
    seed: int = 0                         # seeds the restarts' tie-breaking
    step_budget: int = DEFAULT_STEP_BUDGET

    def __post_init__(self):
        if self.step_budget < 1:
            raise StructuralError(
                f"step_budget must be at least 1, got {self.step_budget!r}")


@dataclass(frozen=True)
class SolveStats:
    decisions: int
    backtracks: int
    propagations: int
    restarts: int
    duration_ms: int


@dataclass(frozen=True)
class SolveOutcome:
    status: str
    solution: Optional[Solution]
    stats: SolveStats


def luby(i: int) -> int:
    """Term i (from 0) of the Luby sequence 1, 1, 2, 1, 1, 2, 4, 1, ..."""
    size, power = 1, 0
    while size < i + 1:           # the smallest 2^k - 1 covering term i
        size = 2 * size + 1
        power += 1
    while size - 1 != i:          # descend into the repeated left half
        size //= 2
        power -= 1
        i %= size
    return 1 << power


def _branch_order(instance: SudokuInstance, seed: Optional[int] = None) -> list[int]:
    """U0, V0, U1, V1, ... (the min-domain tie-break), shuffled by ``seed``."""
    order = list(range(2 * len(instance.table.extension)))
    if seed is not None:
        rng = random.Random(seed)
        order.sort(key=lambda _: rng.random())   # independent random keys
    return order


def _checked(
    instance: SudokuInstance, status: int, solutions: list[Solution]
) -> list[Solution]:
    if status == -1:
        raise InternalConsistencyError(
            "propagation left a derived variable undetermined")
    for sol in solutions:
        ok, violated = check_solution(instance, sol)
        if not ok:
            raise InternalConsistencyError(
                "solver produced an assignment violating " + "; ".join(violated))
    return solutions


def solve(instance: SudokuInstance, config: SolverConfig = SolverConfig()) -> SolveOutcome:
    """Decide the instance; SAT outcomes carry a checked total assignment."""
    if instance.trivially_unsat_reason is not None:
        return SolveOutcome(UNSAT, None, SolveStats(0, 0, 0, 0, 0))
    start = time.perf_counter()
    arrays = instance.search_arrays()
    fixed = phi_fixed_var(instance)
    if fixed is not None:
        arrays = ([instance.z_id, fixed], [0, 1]) + arrays[2:]
    remaining = config.step_budget
    decisions = backtracks = props = 0
    run = 0
    while True:
        order = _branch_order(
            instance, None if run == 0 else _kernels.splitmix64(config.seed) + run)
        budget = min(RESTART_UNIT * luby(run), remaining)
        status, raw, d, b, p = _kernels.fd_search(
            instance.num_variables, *arrays, order, budget, 1)
        backtracks += b
        props += p
        if status != 2 or budget == remaining:
            decisions += d            # an exhausted final run reports budget + 1
            break
        decisions += budget
        remaining -= budget
        run += 1
    duration_ms = int(round((time.perf_counter() - start) * 1000))
    stats = SolveStats(decisions, backtracks, props, run, duration_ms)
    solutions = _checked(instance, status, raw)
    if solutions:
        return SolveOutcome(SAT, solutions[0], stats)
    if status == 2:
        return SolveOutcome(BUDGET_EXHAUSTED, None, stats)
    return SolveOutcome(UNSAT, None, stats)


def enumerate_solutions(
    instance: SudokuInstance,
    cap: int,
    config: SolverConfig = SolverConfig(),
) -> list[Solution]:
    """All solutions up to ``cap``, duplicate-free, each passing the checker.

    A result shorter than the cap is the complete solution set.  Exhausting
    the step budget raises `SearchBudgetError` rather than returning a
    truncated set silently.
    """
    if cap < 1:
        raise StructuralError(f"enumeration needs a cap >= 1, got {cap!r}")
    if instance.trivially_unsat_reason is not None:
        return []
    status, raw, decisions, _, _ = _kernels.fd_search(
        instance.num_variables, *instance.search_arrays(), _branch_order(instance),
        config.step_budget, cap)
    solutions = _checked(instance, status, raw)
    if status == 2:
        raise SearchBudgetError(
            f"enumeration stopped after {decisions} decisions")
    return solutions
