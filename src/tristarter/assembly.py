"""CRT merge of the extension with a mod-3 solution, and the full pipeline.

A residue mod 3p is recovered from its residues mod p and mod 3 via the
Chinese Remainder Theorem; merging the extension with the (U, V) part of a
checked solution yields a pairing of order 3p that is guaranteed strong
whenever the base was a starter and the solution satisfies the instance.
`triplicate` runs the whole route: build (which verifies the base), check
the key, encode, solve (which checks the solution), merge the solution and
its phi image (`model.apply_phi`) in one pass, re-verify.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

from .errors import (
    InternalConsistencyError,
    KeyNotAdmissibleError,
    RefusedError,
)
from .model import PHI, Solution, SudokuInstance, check_solution, encode, uv_pairs
from .solver import BUDGET_EXHAUSTED, SAT, SolverConfig, SolveStats, solve
from .starters import Pairing, VerificationReport, verify_pairing
from .triplication import TriplicationTable, build_table, check_key_admissible


@lru_cache(maxsize=None)
def _crt_coefficients(p: int) -> tuple[int, int, int]:
    n = 3 * p
    inv3 = pow(3, -1, p)
    invp = pow(p, -1, 3)
    return 3 * inv3 % n, p * invp % n, n


def crt(residue_p: int, residue_3: int, p: int) -> int:
    """The unique x in [0, 3p) with x = residue_p (mod p), x = residue_3 (mod 3)."""
    if p % 3 == 0:
        raise RefusedError(f"p must be coprime to 3, got {p}")
    c_p, c_3, n = _crt_coefficients(p)
    return (residue_p % p * c_p + residue_3 % 3 * c_3) % n


@lru_cache(maxsize=None)
def _crt_lift(p: int) -> tuple[int, ...]:
    """``crt(x, r, p)`` at index ``3 * x + r``, for x in [0, p) and r < 3."""
    return tuple(crt(x, r, p) for x in range(p) for r in range(3))


def crt_merge(
    table: TriplicationTable, solution: Solution, instance: SudokuInstance
) -> Pairing:
    """Merge extension and solution pairwise into a pairing of order 3p.

    The solution must satisfy the instance encoded from the table; otherwise
    the strongness guarantee would not apply and the merge is refused.  For
    the phi-paired starter, merge ``apply_phi(solution)``.
    """
    ok, violated = check_solution(instance, solution)
    if not ok:
        raise RefusedError(
            "solution violates the instance ("
            + "; ".join(violated[:3])
            + ("..." if len(violated) > 3 else "")
            + "); refusing to merge")
    lift = _crt_lift(table.p)
    return Pairing(3 * table.p, tuple(
        (lift[3 * u + a], lift[3 * v + b])
        for (u, v), (a, b) in zip(table.extension, uv_pairs(instance, solution))))


def _merge_both(table: TriplicationTable, solution: Solution) -> tuple[Pairing, Pairing]:
    """`crt_merge` of a checked solution and of its phi image, in one pass.

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
    """SAT outcome: both phi-paired starters plus everything to re-check them."""

    starter_a: Pairing
    starter_b: Pairing
    table: TriplicationTable
    instance: SudokuInstance
    solution: Solution
    report_a: VerificationReport
    report_b: VerificationReport
    stats: SolveStats

    @property
    def status(self) -> str:
        return SAT


@dataclass(frozen=True)
class UnsatReport:
    """Non-SAT outcome; `cause` names a structural reason when one is known."""

    status: str
    cause: Optional[str]
    table: TriplicationTable
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
    if not table.base_report.is_strong and not allow_nonstrong:
        raise RefusedError(
            "base is a starter but not strong ("
            + "; ".join(table.base_report.diagnostics) + ")")
    admissible, reason = check_key_admissible(base, key)
    if not admissible and not force:
        raise KeyNotAdmissibleError(
            f"key {key} is not admissible ({reason}): a solvable instance "
            "requires the key to avoid 0 and the base pair sums; "
            "pass force=True (--force on the command line) to attempt it anyway")

    instance = encode(table)
    outcome = solve(instance, config)
    if outcome.status != SAT:
        if instance.trivially_unsat_reason is not None:
            cause = instance.trivially_unsat_reason
        elif outcome.status == BUDGET_EXHAUSTED:
            cause = f"step budget {config.step_budget} exhausted"
        else:
            cause = None if admissible else reason
        return UnsatReport(outcome.status, cause, table, instance, outcome.stats)

    # The solver checked the solution, and phi maps solutions to solutions.
    starter_a, starter_b = _merge_both(table, outcome.solution)
    report_a = verify_pairing(starter_a)
    report_b = verify_pairing(starter_b)
    if not (report_a.is_strong and report_b.is_strong):
        raise InternalConsistencyError(
            "merged pairing failed strong verification although the base "
            "was a starter and the solution checked out; this is a bug")
    if starter_a.pairs == starter_b.pairs:
        raise InternalConsistencyError(
            "identity and phi merges coincide; this is a bug")
    return TriplicationResult(
        starter_a=starter_a,
        starter_b=starter_b,
        table=table,
        instance=instance,
        solution=outcome.solution,
        report_a=report_a,
        report_b=report_b,
        stats=outcome.stats,
    )
