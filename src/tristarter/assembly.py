"""CRT merge of the extension with a mod-3 solution, and the full pipeline.

A residue mod 3p is recovered from its residues mod p and mod 3 via the
Chinese Remainder Theorem; merging the extension with the (U, V) part of a
checked solution yields a pairing of order 3p that is guaranteed strong
whenever the base was a starter and the solution satisfies the instance.
`triplicate` runs the whole route: build, check the key, encode, search,
merge the solution and its phi image (`model.apply_phi`) in one pass, and
strong-verify both merges, its one check of a SAT key: the merge reads only
U and V, and both merges are strong exactly when those values satisfy every
row, weak set and color group with D = U - V and S = U + V.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

from .errors import InternalConsistencyError, KeyNotAdmissibleError, RefusedError
from .model import PHI, Solution, SudokuInstance, check_solution, encode
from .solver import BUDGET_EXHAUSTED, SAT, SolverConfig, SolveStats, _search
from .starters import Pairing
from .triplication import TriplicationTable, build_table, check_key_admissible


@lru_cache(maxsize=None)
def _crt_lift(p: int) -> tuple[int, ...]:
    """The x in [0, 3p) with x = r (mod p) and x = s (mod 3) at index 3r + s."""
    lift = [0] * (3 * p)
    for x in range(3 * p):
        lift[3 * (x % p) + x % 3] = x
    return tuple(lift)


def crt(residue_p: int, residue_3: int, p: int) -> int:
    """The unique x in [0, 3p) with x = residue_p (mod p), x = residue_3 (mod 3)."""
    if p < 1 or p % 3 == 0:
        raise RefusedError(f"p must be positive and coprime to 3, got {p}")
    return _crt_lift(p)[3 * (residue_p % p) + residue_3 % 3]


def crt_merge(instance: SudokuInstance, solution: Solution) -> Pairing:
    """Merge the instance's extension with the solution into a pairing of order 3p.

    The solution must satisfy the instance; otherwise the strongness
    guarantee would not apply and the merge is refused.  For the
    phi-paired starter, merge ``apply_phi(solution)``.
    """
    ok, violated = check_solution(instance, solution)
    if not ok:
        raise RefusedError(
            "solution violates the instance ("
            + "; ".join(violated[:3])
            + ("..." if len(violated) > 3 else "")
            + "); refusing to merge")
    return _merge_both(instance.table, solution)[0]


def _merge_both(table: TriplicationTable, solution: Solution) -> tuple[Pairing, Pairing]:
    """The merges of a solution and of its phi image, in one pass.

    Extension entries lie in [0, p) and U, V in {0, 1, 2}, so every index
    into the lift table is in range.
    """
    lift = _crt_lift(table.p)
    k = len(table.extension)
    pairs_a = []
    pairs_b = []
    for (u, v), a, b in zip(table.extension, solution[0:2 * k:2], solution[1:2 * k:2]):
        u *= 3
        v *= 3
        pairs_a.append((lift[u + a], lift[v + b]))
        pairs_b.append((lift[u + PHI[a]], lift[v + PHI[b]]))
    n = 3 * table.p
    return Pairing(n, pairs_a), Pairing(n, pairs_b)


@dataclass(frozen=True)
class TriplicationResult:
    """SAT outcome: both phi-paired starters plus everything to re-check them.

    ``starter_a.report`` and ``starter_b.report`` certify the U/V part of
    ``solution``, the only part the merge reads; its D, S and Z are unchecked."""

    starter_a: Pairing
    starter_b: Pairing
    instance: SudokuInstance
    solution: Solution
    stats: SolveStats

    @property
    def status(self) -> str:
        return SAT


@dataclass(frozen=True)
class UnsatReport:
    """Non-SAT outcome; `cause` names a structural reason when one is known."""

    status: str
    cause: Optional[str]
    instance: SudokuInstance
    stats: SolveStats


def triplicate(
    base: Pairing,
    key: int,
    config: SolverConfig = SolverConfig(),
    force: bool = False,
    allow_nonstrong: bool = False,
) -> Union[TriplicationResult, UnsatReport]:
    """Run the full pipeline for (base, key).

    The base must be a starter, and strong unless ``allow_nonstrong``.  An
    inadmissible key is refused unless ``force`` (the forced run then
    reports UNSAT with the violated condition as its cause).
    """
    table = build_table(base, key)
    if not base.report.is_strong and not allow_nonstrong:
        raise RefusedError(
            "base is a starter but not strong ("
            + "; ".join(base.report.diagnostics) + ")")
    admissible, reason = check_key_admissible(base, key)
    if not admissible and not force:
        raise KeyNotAdmissibleError(
            f"key {key} is not admissible ({reason}): a solvable instance "
            "requires the key to avoid 0 and the base pair sums; "
            "pass force=True (--force on the command line) to attempt it anyway")

    instance = encode(table)
    outcome = _search(instance, config)
    if outcome.status != SAT:
        if instance.trivially_unsat_reason is not None:
            cause = instance.trivially_unsat_reason
        elif outcome.status == BUDGET_EXHAUSTED:
            cause = f"step budget {config.step_budget} exhausted"
        else:
            cause = None if admissible else reason
        return UnsatReport(outcome.status, cause, instance, outcome.stats)

    # The one check of the solution.  It also keeps the merges apart: they
    # coincide only where every U and V is 0, which merges to no starter.
    starter_a, starter_b = _merge_both(table, outcome.solution)
    if not (starter_a.report.is_strong and starter_b.report.is_strong):
        raise InternalConsistencyError(
            "merged pairing failed strong verification although the base "
            "was a starter; the solver returned a wrong solution")
    return TriplicationResult(
        starter_a=starter_a,
        starter_b=starter_b,
        instance=instance,
        solution=outcome.solution,
        stats=outcome.stats,
    )
