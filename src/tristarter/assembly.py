"""CRT merge of the extension with a mod-3 solution, and the full pipeline.

A residue mod 3p is recovered from its residues mod p and mod 3 via the
Chinese Remainder Theorem; merging the extension with the (U, V) part of a
checked solution yields a pairing of order 3p that is guaranteed strong
whenever the base was a starter and the solution satisfies the instance.
`triplicate` runs the whole route: build, check the key, encode, search,
merge the solution and its phi image (`model.apply_phi`) in one
`_kernels.merge_pairs` call, and strong-verify both merges, its one check
of a SAT key: the merge reads only U and V, and both merges are strong
exactly when those values satisfy every row, weak set and color group
with D = U - V and S = U + V.  Building each merged `Pairing` is that
verification: its one `_kernels.pairing_report` call checks the pairs and
fills ``report``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from . import _kernels
from .errors import (
    InternalConsistencyError, KeyNotAdmissibleError, RefusedError, from_kernel, require_int)
from .model import Solution, SudokuInstance, check_solution, encode
from .solver import BUDGET_EXHAUSTED, SAT, SolverConfig, SolveStats, _search
from .starters import Pairing
from .triplication import build_table, check_key_admissible


def crt(residue_p: int, residue_3: int, p: int) -> int:
    """The unique x in [0, 3p) with x = residue_p (mod p), x = residue_3 (mod 3)."""
    for name, value in (("residue_p", residue_p), ("residue_3", residue_3), ("p", p)):
        require_int(name, value, -2**63)
    if p < 1 or p % 3 == 0:
        raise RefusedError(f"p must be positive and coprime to 3, got {p}")
    # x = r + p*k is r mod p, and r + p*p*(s - r) = s mod 3 since p*p = 1 mod 3
    r = residue_p % p
    return r + p * ((residue_3 % 3 - r) * p % 3)


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
    table = instance.table
    pairs = from_kernel(_kernels.merge_pairs, table.p, table.extension, solution)[0]
    return Pairing(3 * table.p, pairs)


def _merge_both(instance: SudokuInstance, solution: Solution) -> tuple[Pairing, Pairing]:
    """The merges of a solution and of its phi image, lifted in one kernel
    call, each checked and strong-verified as its `Pairing` is built."""
    table = instance.table
    pairs_a, pairs_b = from_kernel(_kernels.merge_pairs, table.p, table.extension, solution)
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
    starter_a, starter_b = _merge_both(instance, outcome.solution)
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
