"""Native finite-domain solver for encoded instances.

Complete chronological backtracking with propagation of the bindings and
all-different pruning (see `_kernels.fd_search`).  Branching covers the
U/V variables: the default picks the smallest remaining domain (ties by
the table's linear order U0, V0, U1, ...); "linear" and "random" run the
corresponding static orders.  No order wins everywhere: at p = 79 one key
takes 10.4M decisions under min-domain and 7.2k under the linear order.
D, S and Z are functionally determined by propagation.  Everything is
deterministic for a fixed (instance, config) apart from wall-clock time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from . import _kernels
from .errors import InternalConsistencyError, SearchBudgetError, StructuralError
from .model import SudokuInstance, SudokuSolution, check_solution

SAT = "SAT"
UNSAT = "UNSAT"
BUDGET_EXHAUSTED = "BUDGET_EXHAUSTED"

DEFAULT_STEP_BUDGET = 50_000_000


@dataclass(frozen=True)
class SolverConfig:
    variable_order: str = "min-domain"   # or "linear" / "random"
    seed: int = 0
    step_budget: int = DEFAULT_STEP_BUDGET

    def __post_init__(self):
        if self.variable_order not in ("min-domain", "linear", "random"):
            raise StructuralError(
                "variable_order must be 'min-domain', 'linear' or 'random', "
                f"got {self.variable_order!r}")


@dataclass(frozen=True)
class SolveStats:
    decisions: int
    backtracks: int
    propagations: int
    duration_ms: int


@dataclass(frozen=True)
class SolveOutcome:
    status: str
    solution: Optional[SudokuSolution]
    stats: SolveStats


def _branch_order(instance: SudokuInstance, config: SolverConfig) -> list[int]:
    order: list[int] = []
    for i in range(len(instance.table.extension)):
        order.append(instance.u_ids[i])
        order.append(instance.v_ids[i])
    if config.variable_order == "random":
        state = _kernels.splitmix64(config.seed)
        m64 = (1 << 64) - 1
        for i in range(len(order) - 1, 0, -1):
            state ^= state >> 12
            state = (state ^ (state << 25)) & m64
            state ^= state >> 27
            j = ((state * 0x2545F4914F6CDD1D) & m64) % (i + 1)
            order[i], order[j] = order[j], order[i]
    return order


def _search(instance: SudokuInstance, config: SolverConfig, cap: int):
    order = _branch_order(instance, config)
    dynamic = 1 if config.variable_order == "min-domain" else 0
    start = time.perf_counter()
    status, raw, decisions, backtracks, props = _kernels.fd_search(
        instance.num_variables, *instance.search_arrays(),
        order, dynamic, config.step_budget, cap)
    duration_ms = int(round((time.perf_counter() - start) * 1000))
    if status == -1:
        raise InternalConsistencyError(
            "propagation left a derived variable undetermined")
    stats = SolveStats(decisions, backtracks, props, duration_ms)
    solutions = [SudokuSolution(values) for values in raw]
    for sol in solutions:
        ok, violated = check_solution(instance, sol)
        if not ok:
            raise InternalConsistencyError(
                "solver produced an assignment violating " + "; ".join(violated))
    return status, solutions, stats


def solve(instance: SudokuInstance, config: SolverConfig = SolverConfig()) -> SolveOutcome:
    """Decide the instance; SAT outcomes carry a checked total assignment."""
    if instance.trivially_unsat_reason is not None:
        return SolveOutcome(UNSAT, None, SolveStats(0, 0, 0, 0))
    status, solutions, stats = _search(instance, config, cap=1)
    if solutions:
        return SolveOutcome(SAT, solutions[0], stats)
    if status == 2:
        return SolveOutcome(BUDGET_EXHAUSTED, None, stats)
    return SolveOutcome(UNSAT, None, stats)


def enumerate_solutions(
    instance: SudokuInstance,
    cap: int,
    config: SolverConfig = SolverConfig(),
) -> list[SudokuSolution]:
    """All solutions up to ``cap``, duplicate-free, each passing the checker.

    A result shorter than the cap is the complete solution set.  Exhausting
    the step budget raises `SearchBudgetError` (carrying the partial list)
    rather than returning a truncated set silently.
    """
    if cap < 1:
        raise StructuralError(f"enumeration needs a cap >= 1, got {cap!r}")
    if instance.trivially_unsat_reason is not None:
        return []
    status, solutions, stats = _search(instance, config, cap=cap)
    if status == 2:
        raise SearchBudgetError(
            f"enumeration stopped after {stats.decisions} decisions",
            partial=solutions)
    return solutions
