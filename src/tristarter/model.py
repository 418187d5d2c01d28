"""Encoding of a triplication table as a ternary constraint problem.

Variables over {0, 1, 2}, numbered U_i = 2i, V_i = 2i + 1 per extension
pair i < k, then D_i = 2k + i, then one S per weak pair in ascending pair
order, then the fixed zero Z last.

An instance is one constraint table, the form `_kernels.fd_search` takes
(the kernel derives each variable's constraint ids from it itself), built
by `_kernels.encode_table`:

* Z is the one fixed variable (Z = 0);
* constraint ``cid`` names the variables
  ``scope_flat[scope_off[cid]:scope_off[cid + 1]]``;
* the first ``len(bind_sign)`` constraints are the bindings: binding ``cid``
  is three variables wide at offset ``3 * cid``, ``(a, b, c)`` with
  ``(a + bind_sign[cid] * b - c) % 3 == 0``, first D_i = U_i - V_i for every
  pair, then S_i = U_i + V_i per weak pair;
* the all-different groups follow: q regular rows (their three D), then the
  weak sets by sum (their S, plus Z for the zero-sum set, forcing the sums
  nonzero), then the p colors (the U/V at the positions holding the color;
  color 0 adds Z), which no other module builds (`phi_fixed_var` reads
  color 0 back);
* ``provenance[cid]`` names each constraint for diagnostics; the names are
  built on first use, not by `encode`.

An all-different over more than three variables cannot hold over three
values, so such an instance is emitted flagged as trivially unsatisfiable
with the offending constraint named (reachable only with a non-strong base
or a forced key).  This flag is the package's one check of the
weak-set and color cardinalities.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Optional

from . import _kernels
from .errors import StructuralError
from .starters import Pair
from .triplication import TriplicationTable, compute_weak_sets

#: The value transposition 0 -> 0, 1 -> 2, 2 -> 1 (negation mod 3).
PHI = (0, 2, 1)

#: A total assignment, indexed densely by variable id.
Solution = tuple[int, ...]


def _constraint_names(
    table: TriplicationTable, weak_sets: dict[int, tuple[int, ...]]
) -> tuple[str, ...]:
    """The name of every constraint of the table's instance, by id."""
    return (tuple(f"difference binding D{i}" for i in range(len(table.extension)))
            + tuple(f"sum binding S{i}" for i in sorted(
                i for members in weak_sets.values() for i in members))
            + tuple(f"row {row} differences" for row in range(1, table.q + 1))
            + tuple(f"weak set with sum {total}" for total in weak_sets)
            + tuple(f"color {c}" for c in range(table.p)))


@dataclass(frozen=True)
class SudokuInstance:
    """The encoded table; the arrays are shared with the solver, read-only."""

    table: TriplicationTable
    num_variables: int
    scope_flat: list[int] = field(repr=False)
    scope_off: list[int] = field(repr=False)
    bind_sign: list[int] = field(repr=False)
    trivially_unsat_reason: Optional[str] = None

    @property
    def z_id(self) -> int:
        """The fixed zero Z, numbered last."""
        return self.num_variables - 1

    @cached_property
    def provenance(self) -> tuple[str, ...]:
        """The name of each constraint by id, for diagnostics."""
        return _constraint_names(self.table, compute_weak_sets(self.table))

    def bindings(self) -> Iterator[tuple[int, int, int, int]]:
        """``(a, b, c, sign)`` of each binding in constraint id order, read
        at stride 3 from the start of ``scope_flat``."""
        flat, end = self.scope_flat, 3 * len(self.bind_sign)
        return zip(flat[0:end:3], flat[1:end:3], flat[2:end:3], self.bind_sign)

    def search_arrays(self) -> tuple:
        """The arguments of `_kernels.fd_search` before ``budget``: Z fixed
        to 0, and the branch variables U0, V0, U1, ... in run 0's tie-break order."""
        return (self.num_variables, [self.z_id], [0], self.scope_flat,
                self.scope_off, self.bind_sign,
                list(range(2 * len(self.table.extension))))


def encode(table: TriplicationTable) -> SudokuInstance:
    """Encode the table's constraint problem (classes 0 through 3).

    A hand-built table whose extension `_kernels.encode_table` refuses
    (not 3q + 1 pairs, or a pair that is not two ints in [0, p)) is refused
    with a `StructuralError`, the kernel's `ValueError` message.
    """
    try:
        num_variables, scope_flat, scope_off, bind_sign = _kernels.encode_table(
            table.p, table.extension)
    except ValueError as exc:
        raise StructuralError(str(exc)) from None
    # the one check of the weak-set and color cardinalities: one pass over
    # the group widths, and the names only for an instance that fails it
    reason = None
    nb = len(bind_sign)
    if max(map(operator.sub, scope_off[nb + 1:], scope_off[nb:-1])) > 3:
        cid = next(c for c in range(nb, len(scope_off) - 1)
                   if scope_off[c + 1] - scope_off[c] > 3)
        name = _constraint_names(table, compute_weak_sets(table))[cid]
        reason = (f"{name}: {scope_off[cid + 1] - scope_off[cid]} mutually "
                  "distinct variables cannot fit in three values")
    return SudokuInstance(
        table=table,
        num_variables=num_variables,
        scope_flat=scope_flat,
        scope_off=scope_off,
        bind_sign=bind_sign,
        trivially_unsat_reason=reason,
    )


def _require_ternary(name: str, values) -> None:
    """Refuse any value that is not an int, not a bool, in {0, 1, 2}."""
    for v in values:
        if type(v) is not int or not 0 <= v <= 2:
            raise StructuralError(f"{name} holds {v!r}, not an int in {{0, 1, 2}}")


def check_solution(
    instance: SudokuInstance, solution: Solution
) -> tuple[bool, tuple[str, ...]]:
    """Evaluate every constraint; violations come back as provenance strings."""
    if len(solution) != instance.num_variables:
        raise StructuralError(
            f"assignment covers {len(solution)} of "
            f"{instance.num_variables} variables")
    _require_ternary("solution", solution)
    violated = ["dummy variable"] if solution[instance.z_id] != 0 else []
    for cid, (a, b, c, sign) in enumerate(instance.bindings()):
        if (solution[a] + sign * solution[b] - solution[c]) % 3:
            violated.append(instance.provenance[cid])
    flat, off = instance.scope_flat, instance.scope_off
    for cid in range(len(instance.bind_sign), len(off) - 1):
        seen = 0
        for var in flat[off[cid]:off[cid + 1]]:
            bit = 1 << solution[var]
            if seen & bit:
                violated.append(instance.provenance[cid])
                break
            seen |= bit
    return not violated, tuple(violated)


def phi_fixed_var(instance: SudokuInstance) -> Optional[int]:
    """The first U/V member of the color-0 group, or None if Z is its only one.

    The colors are the last p groups, and color 0 ends with Z.
    """
    first = instance.scope_flat[instance.scope_off[-1 - instance.table.p]]
    return None if first == instance.z_id else first


def apply_phi(solution: Solution) -> Solution:
    """Transpose values 1 and 2 everywhere (an involution fixing 0)."""
    return tuple(PHI[v] for v in solution)


def solution_from_uv(instance: SudokuInstance, uv: list[Pair]) -> Solution:
    """Build a total solution from (U_i, V_i) values, inducing D, S and Z.

    Every bound variable c takes ``a + sign * b`` from its binding; Z stays 0.
    """
    k = len(instance.table.extension)
    if len(uv) != k:
        raise StructuralError(f"expected {k} (U, V) pairs, got {len(uv)}")
    values = [0] * instance.num_variables
    for i, pair in enumerate(uv):
        try:
            values[2 * i], values[2 * i + 1] = pair
        except (TypeError, ValueError):
            raise StructuralError(f"uv[{i}] is not a (U, V) pair: {pair!r}") from None
    _require_ternary("uv", values[:2 * k])
    for a, b, c, sign in instance.bindings():
        values[c] = (values[a] + sign * values[b]) % 3
    return tuple(values)


def uv_pairs(instance: SudokuInstance, solution: Solution) -> tuple[Pair, ...]:
    """Extract the (U_i, V_i) part of a solution in extension order."""
    k = len(instance.table.extension)
    return tuple(zip(solution[0:2 * k:2], solution[1:2 * k:2]))


def constraint_census(instance: SudokuInstance) -> dict[str, int]:
    """Counts per constraint family, read off the array layout."""
    k = len(instance.table.extension)
    q, p = instance.table.q, instance.table.p
    nb = len(instance.bind_sign)
    return {"fix_zero": 1, "difference_bindings": k, "sum_bindings": nb - k,
            "row_all_different": q,
            "weak_all_different": len(instance.scope_off) - 1 - nb - q - p,
            "color_all_different": p}
