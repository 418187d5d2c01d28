"""Encoding of a triplication table as a ternary constraint problem.

Variables over {0, 1, 2}, numbered U_i = 2i, V_i = 2i + 1 per extension
pair i < k, then D_i = 2k + i, then one S per weak pair in ascending pair
order, then the fixed zero Z last.

An instance is a set of flat arrays, the form `_kernels.fd_search` takes
(the kernel derives each variable's constraint ids from them itself):

* Z is the one fixed variable (Z = 0);
* binding ``cid`` is ``(bind_a + bind_sign * bind_b - bind_c) % 3 == 0``:
  first D_i = U_i - V_i for every pair, then S_i = U_i + V_i per weak pair;
* the all-different groups are CSR rows ``ad_flat[ad_off[g]:ad_off[g + 1]]``,
  in the order q regular rows (their three D), then the weak sets by sum
  (their S, plus Z for the zero-sum set, forcing the sums nonzero), then the
  p colors (the U/V at the positions holding the color; color 0 adds Z),
  which no other module builds (`phi_fixed_var` reads color 0 back); group
  ``g`` has constraint id ``len(bind_a) + g``;
* ``provenance[cid]`` names each constraint for diagnostics; the names are
  built on first use, not by `encode`.

An all-different over more than three variables cannot hold over three
values, so such an instance is emitted flagged as trivially unsatisfiable
with the offending constraint named (reachable only with a non-strong base
or a forced key).  This flag is the package's one check of the
weak-set and color cardinalities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

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
    bind_a: list[int] = field(repr=False)
    bind_b: list[int] = field(repr=False)
    bind_c: list[int] = field(repr=False)
    bind_sign: list[int] = field(repr=False)
    ad_flat: list[int] = field(repr=False)
    ad_off: list[int] = field(repr=False)
    trivially_unsat_reason: Optional[str] = None

    @property
    def z_id(self) -> int:
        """The fixed zero Z, numbered last."""
        return self.num_variables - 1

    @cached_property
    def provenance(self) -> tuple[str, ...]:
        """The name of each constraint by id, for diagnostics."""
        return _constraint_names(self.table, compute_weak_sets(self.table))

    def search_arrays(self) -> tuple:
        """The arguments of `_kernels.fd_search` before ``budget``: Z fixed
        to 0, and the branch variables U0, V0, U1, ... in run 0's tie-break order."""
        return (self.num_variables, [self.z_id], [0], self.bind_a, self.bind_b,
                self.bind_c, self.bind_sign, self.ad_flat, self.ad_off,
                list(range(2 * len(self.table.extension))))


def encode(table: TriplicationTable) -> SudokuInstance:
    """Encode the table's constraint problem (classes 0 through 3)."""
    k = len(table.extension)
    weak_sets = compute_weak_sets(table)
    s_pairs = sorted(i for members in weak_sets.values() for i in members)
    s_ids = {i: 3 * k + j for j, i in enumerate(s_pairs)}
    z_id = 3 * k + len(s_pairs)

    bind_a = [2 * i for i in range(k)] + [2 * i for i in s_pairs]
    bind_b = [a + 1 for a in bind_a]
    bind_c = list(range(2 * k, z_id))
    bind_sign = [-1] * k + [1] * len(s_pairs)

    # Row r holds D_{3r-2}, D_{3r-1}, D_{3r}, so the rows are D_1 .. D_{k-1}.
    ad_flat = list(range(2 * k + 1, 3 * k))
    ad_off = list(range(0, 3 * table.q + 1, 3))
    groups = [[s_ids[i] for i in members] + ([z_id] if total == 0 else [])
              for total, members in weak_sets.items()]
    # Color c holds U_i / V_i for every extension position (i, 0) / (i, 1)
    # with value c, in extension order.
    colors: list[list[int]] = [[] for _ in range(table.p)]
    for i, (u, v) in enumerate(table.extension):
        colors[u].append(2 * i)
        colors[v].append(2 * i + 1)
    colors[0].append(z_id)
    groups.extend(colors)
    for g in groups:
        ad_flat.extend(g)
        ad_off.append(len(ad_flat))

    reason = None
    for gid, g in enumerate(groups):
        if len(g) > 3:
            name = _constraint_names(table, weak_sets)[len(bind_a) + table.q + gid]
            reason = (f"{name}: {len(g)} mutually distinct "
                      "variables cannot fit in three values")
            break

    return SudokuInstance(
        table=table,
        num_variables=z_id + 1,
        bind_a=bind_a,
        bind_b=bind_b,
        bind_c=bind_c,
        bind_sign=bind_sign,
        ad_flat=ad_flat,
        ad_off=ad_off,
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
    for cid, (a, b, c, sign) in enumerate(zip(
            instance.bind_a, instance.bind_b, instance.bind_c, instance.bind_sign)):
        if (solution[a] + sign * solution[b] - solution[c]) % 3 != 0:
            violated.append(instance.provenance[cid])
    nb = len(instance.bind_a)
    ad_flat, ad_off = instance.ad_flat, instance.ad_off
    for gid in range(len(ad_off) - 1):
        seen = 0
        for var in ad_flat[ad_off[gid]:ad_off[gid + 1]]:
            bit = 1 << solution[var]
            if seen & bit:
                violated.append(instance.provenance[nb + gid])
                break
            seen |= bit
    return not violated, tuple(violated)


def phi_fixed_var(instance: SudokuInstance) -> Optional[int]:
    """The first U/V member of the color-0 group, or None if Z is its only one.

    The colors are the last p groups, and color 0 ends with Z.
    """
    first = instance.ad_flat[instance.ad_off[-1 - instance.table.p]]
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
    for i, (u, v) in enumerate(uv):
        values[2 * i] = u
        values[2 * i + 1] = v
    _require_ternary("uv", values[:2 * k])
    for a, b, c, sign in zip(
            instance.bind_a, instance.bind_b, instance.bind_c, instance.bind_sign):
        values[c] = (values[a] + sign * values[b]) % 3
    return tuple(values)


def uv_pairs(instance: SudokuInstance, solution: Solution) -> tuple[Pair, ...]:
    """Extract the (U_i, V_i) part of a solution in extension order."""
    k = len(instance.table.extension)
    return tuple(zip(solution[0:2 * k:2], solution[1:2 * k:2]))


def constraint_census(instance: SudokuInstance) -> dict[str, int]:
    """Counts per constraint family, read off the array layout."""
    k = len(instance.table.extension)
    groups = len(instance.ad_off) - 1
    return {"fix_zero": 1, "difference_bindings": k,
            "sum_bindings": len(instance.bind_a) - k,
            "row_all_different": instance.table.q,
            "weak_all_different": groups - instance.table.q - instance.table.p,
            "color_all_different": instance.table.p}
