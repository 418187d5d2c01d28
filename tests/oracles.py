"""Independent oracles for cross-checking the encoder and solver.

Everything here works straight off the triplication table (rows, sums,
entry values) without touching the encoder or the FD solver, so agreement
with them is meaningful.  The exhaustive search assigns (U, V) pair by pair
and prunes on direct violations of the prose rules only.  `check_cnf`
evaluates a DIMACS document's clauses under a boolean model.
"""

from __future__ import annotations

import itertools

from tristarter.dimacs import _model


def check_cnf(doc, literals) -> bool:
    """True when the model satisfies every clause of ``doc``.

    Raises `DecodeError`, as `import_dimacs_model` does (both read the
    model with `dimacs._model`), on a literal outside the document or one
    named with both signs.
    """
    model = _model(doc, literals)
    return all(any(lit in model for lit in clause) for clause in doc.clauses)


def prose_structures(table):
    """Rows, sum groups and color positions read directly off the table."""
    p = table.base.modulus
    k = len(table.extension)
    rows = [tuple(range(3 * i - 2, 3 * i + 1)) for i in range(1, table.q + 1)]
    sum_groups: dict[int, list[int]] = {}
    for i, (u, v) in enumerate(table.extension):
        sum_groups.setdefault((u + v) % p, []).append(i)
    colors: dict[int, list[tuple[int, int]]] = {}
    for i, (u, v) in enumerate(table.extension):
        colors.setdefault(u, []).append((i, 0))
        colors.setdefault(v, []).append((i, 1))
    return rows, sum_groups, colors, k


def prose_check(table, uv) -> bool:
    """Do the (U, V) values satisfy the constraints stated in prose?"""
    p = table.base.modulus
    rows, sum_groups, colors, k = prose_structures(table)
    if len(uv) != k:
        return False
    # rows: the three differences are 0, 1, 2 in some order
    for row in rows:
        ds = {(uv[i][0] - uv[i][1]) % 3 for i in row}
        if len(ds) != 3:
            return False
    # weak sums: distinct within a group, and nonzero when the group sum is 0
    for s, members in sum_groups.items():
        if s != 0 and len(members) < 2:
            continue
        sums3 = [(uv[i][0] + uv[i][1]) % 3 for i in members]
        if len(set(sums3)) != len(sums3):
            return False
        if s == 0 and 0 in sums3:
            return False
    # colors: values at same-colored positions distinct; color 0 also nonzero
    for c, positions in colors.items():
        vals = [uv[i][slot] for i, slot in positions]
        if len(set(vals)) != len(vals):
            return False
        if c == 0 and 0 in vals:
            return False
    return True


def prose_enumerate(table, cap=None):
    """All satisfying (U, V) tuples by pruned exhaustive search."""
    p = table.base.modulus
    rows, sum_groups, colors, k = prose_structures(table)
    row_of = {}
    for row in rows:
        for i in row:
            row_of[i] = row
    group_of = {}
    for s, members in sum_groups.items():
        for i in members:
            group_of[i] = (s, members)
    color_positions = colors

    solutions = []
    uv = [None] * k

    def consistent(i) -> bool:
        u, v = uv[i]
        if i in row_of and all(uv[j] is not None for j in row_of[i]):
            ds = {(uv[j][0] - uv[j][1]) % 3 for j in row_of[i]}
            if len(ds) != 3:
                return False
        s, members = group_of[i]
        if s == 0 or len(members) > 1:
            mine = (u + v) % 3
            if s == 0 and mine == 0:
                return False
            for j in members:
                if j != i and uv[j] is not None and (uv[j][0] + uv[j][1]) % 3 == mine:
                    return False
        ext = table.extension
        for slot, val in ((0, u), (1, v)):
            c = ext[i][slot]
            if c == 0 and val == 0:
                return False
            for j, jslot in color_positions[c]:
                if (j, jslot) == (i, slot):
                    continue
                if uv[j] is not None and uv[j][jslot] == val:
                    return False
        return True

    def search(i):
        if i == k:
            solutions.append(tuple(uv))
            return cap is not None and len(solutions) >= cap
        for u, v in itertools.product(range(3), repeat=2):
            uv[i] = (u, v)
            if consistent(i) and search(i + 1):
                return True
            uv[i] = None
        return False

    search(0)
    return solutions


def prose_status(table) -> str:
    """SAT/UNSAT by the independent exhaustive route."""
    return "SAT" if prose_enumerate(table, cap=1) else "UNSAT"
