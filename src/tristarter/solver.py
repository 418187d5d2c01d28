"""Native finite-domain solver for encoded instances.

Complete backtracking with propagation of the bindings and all-different
pruning, branching by dom/wdeg on the U/V variables, with restarts; all
of it runs inside one `_kernels.fd_search` call per instance.  D, S and Z
are functionally determined by propagation.

Single searches are heavy-tailed: a few keys need thousands of times the
median number of decisions, while the same instance searched with other
tie-breaks finishes quickly.  `solve` therefore restarts (Gomes, Selman,
Crato and Kautz, J. Automated Reasoning 2000): run i gets ``RESTART_UNIT
* luby(i)`` decisions.  Run 0 breaks ties in the table's linear order U0,
V0, U1, ...; run i >= 1 in an order shuffled by a stream seeded by
``config.seed``.  The constraint weights of dom/wdeg persist across the
runs, so each run branches first where earlier runs failed.  A run that
ends within its budget searched the whole space, so it decides SAT or
proves UNSAT, and the search stays complete.  ``step_budget`` bounds the
decisions summed over all runs.

`solve` also breaks the value swap phi (1 <-> 2), which maps solutions to
solutions: the real members of the color-0 group share a group with Z = 0,
so each is 1 or 2, and fixing the first of them to 1 keeps exactly one
solution of every phi-orbit.  Fixing one variable before the search is
sound; dropping the value 2 at a later branch would not be, once an
earlier variable is nonzero.

`enumerate_solutions` runs one search with neither restarts nor the phi
fix, so its result is the complete, phi-closed solution set.  Everything
is deterministic for a fixed (instance, config) apart from wall-clock time.
`solve` and `enumerate_solutions` check each solution with `check_solution`;
`assembly.triplicate` calls `_search`, and verifies its merged starters instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from . import _kernels
from .errors import InternalConsistencyError, SearchBudgetError, require_int, require_seed
from .model import Solution, SudokuInstance, check_solution, phi_fixed_var

SAT = "SAT"
UNSAT = "UNSAT"
BUDGET_EXHAUSTED = "BUDGET_EXHAUSTED"

DEFAULT_STEP_BUDGET = 50_000_000

#: Decisions of a unit Luby run.  The median key of an order-31 sweep
#: finishes within run 0 (ROADMAP, "The solver after PR 15").
RESTART_UNIT = 128


@dataclass(frozen=True)
class SolverConfig:
    seed: int = 0                         # seeds the restarts' tie-breaking
    step_budget: int = DEFAULT_STEP_BUDGET

    def __post_init__(self):
        require_seed(self.seed)
        require_int("step_budget", self.step_budget, 1)


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


def _run_kernel(arrays: tuple, budget: int, cap: int, seed: int, unit: int) -> tuple:
    """One `_kernels.fd_search` call; its status -1, a bug, raises here."""
    result = _kernels.fd_search(*arrays, budget, cap, seed, unit)
    if result[0] == -1:
        raise InternalConsistencyError("propagation left a derived variable undetermined")
    return result


def _checked(instance: SudokuInstance, solutions: list[Solution]) -> list[Solution]:
    for sol in solutions:
        ok, violated = check_solution(instance, sol)
        if not ok:
            raise InternalConsistencyError(
                "solver produced an assignment violating " + "; ".join(violated))
    return solutions


def _search(instance: SudokuInstance, config: SolverConfig) -> SolveOutcome:
    """`solve` without its `check_solution` of the solution.  An instance
    `encode` flags as trivially unsatisfiable takes the same path: the root
    propagation wipes out its group of four or more members."""
    start = time.perf_counter()
    arrays = instance.search_arrays()
    fixed = phi_fixed_var(instance)
    if fixed is not None:   # replace fixed_vars and fixed_vals
        arrays = (arrays[0], [instance.z_id, fixed], [0, 1]) + arrays[3:]
    status, raw, decisions, backtracks, props, restarts = _run_kernel(
        arrays, config.step_budget, 1, config.seed, RESTART_UNIT)
    duration_ms = int(round((time.perf_counter() - start) * 1000))
    stats = SolveStats(decisions, backtracks, props, restarts, duration_ms)
    if raw:
        return SolveOutcome(SAT, raw[0], stats)
    if status == 2:
        return SolveOutcome(BUDGET_EXHAUSTED, None, stats)
    return SolveOutcome(UNSAT, None, stats)


def solve(instance: SudokuInstance, config: SolverConfig = SolverConfig()) -> SolveOutcome:
    """Decide the instance; SAT outcomes carry a checked total assignment."""
    outcome = _search(instance, config)
    if outcome.solution is not None:
        _checked(instance, [outcome.solution])
    return outcome


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
    require_int("cap", cap, 1)
    status, raw, decisions, *_ = _run_kernel(   # one run: no seed, no restarts
        instance.search_arrays(), config.step_budget, cap, 0, 0)
    if status == 2:
        raise SearchBudgetError(
            f"enumeration stopped after {decisions} decisions")
    return _checked(instance, raw)
