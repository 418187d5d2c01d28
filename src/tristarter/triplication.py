"""The triplication table and its derived index structures.

From a base pairing T of order p (pairs (x_i, y_i), i = 1..q) and a key t,
the extension is the (3q+1)-tuple

    (t, t), then per i: (x_i, y_i), (t+x_i, t+y_i), (t-y_i, t-x_i)   (mod p)

read as a table row by row, left to right: index 0 is the top pair, index
j >= 1 sits in row ceil(j/3), column ((j-1) mod 3) + 1.  Weak sets group
pair indices by sum mod p (kept when the sum is 0 or the group has more
than one member); monochrome sets collect the positions holding each
residue value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import RefusedError, StructuralError
from .starters import Pair, Pairing, VerificationReport, pair_sums, verify_pairing


@dataclass(frozen=True)
class Position:
    """A slot in the extension: pair index plus 0 (first) or 1 (second)."""

    pair_index: Optional[int]
    slot: Optional[int]

    @property
    def is_dummy(self) -> bool:
        return self.pair_index is None


#: Placeholder position of the fixed zero variable inside the color-0 set.
DUMMY_POSITION = Position(None, None)


@dataclass(frozen=True)
class TriplicationTable:
    base: Pairing
    key: int
    q: int
    extension: tuple[Pair, ...]
    base_report: VerificationReport

    @property
    def p(self) -> int:
        return self.base.modulus

    @staticmethod
    def row_col(index: int) -> tuple[int, int]:
        """Linear index -> (row, column); the top pair is row 0, column 2."""
        if index == 0:
            return 0, 2
        return (index + 2) // 3, (index - 1) % 3 + 1

    @staticmethod
    def index_of(row: int, col: int) -> int:
        if row == 0:
            return 0
        return 3 * (row - 1) + col


@dataclass(frozen=True)
class WeakSet:
    """Indices of extension pairs sharing one sum mod p."""

    sum: int
    members: tuple[int, ...]

    @property
    def kind(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class MonochromeSet:
    """Positions of the extension entries holding one residue value."""

    color: int
    positions: tuple[Position, ...]


def build_table(base: Pairing, key: int, allow_nonstarter: bool = False) -> TriplicationTable:
    """Build the triplication table for (base, key).

    The base order must be >= 7 and coprime to 6; the base must verify as a
    starter unless ``allow_nonstarter`` is set (an experiment escape hatch:
    derived guarantees become diagnostics).  Strongness is not required
    here; it is checked by the pipeline.
    """
    p = base.modulus
    if p < 7:
        raise RefusedError(f"base order must be >= 7, got {p}")
    if p % 3 == 0:
        raise RefusedError(f"base order must be coprime to 3, got {p}")
    if not isinstance(key, int) or not 0 <= key < p:
        raise StructuralError(f"key must lie in [0, {p}), got {key!r}")
    report = verify_pairing(base)
    if not report.is_starter and not allow_nonstarter:
        raise RefusedError(
            "base is not a starter: " + "; ".join(report.diagnostics))
    t = key
    ext: list[Pair] = [(t, t)]
    for x, y in base.pairs:
        ext.append((x, y))
        ext.append(((t + x) % p, (t + y) % p))
        ext.append(((t - y) % p, (t - x) % p))
    return TriplicationTable(
        base=base,
        key=key,
        q=len(base.pairs),
        extension=tuple(ext),
        base_report=report,
    )


def row_differences(table: TriplicationTable) -> tuple[int, ...]:
    """delta_i = (u_i - v_i) mod p for every extension index."""
    p = table.p
    return tuple((u - v) % p for u, v in table.extension)


def compute_weak_sets(table: TriplicationTable) -> tuple[WeakSet, ...]:
    """Weak sets of the table, ordered by sum."""
    p = table.p
    by_sum: dict[int, list[int]] = {}
    for i, (u, v) in enumerate(table.extension):
        by_sum.setdefault((u + v) % p, []).append(i)
    out = []
    for s in sorted(by_sum):
        members = by_sum[s]
        if s == 0 or len(members) > 1:
            out.append(WeakSet(sum=s, members=tuple(members)))
    return tuple(out)


def compute_monochrome_sets(table: TriplicationTable) -> tuple[MonochromeSet, ...]:
    """One monochrome set per color 0..p-1; color 0 carries the dummy position.

    For a starter base the cardinalities are 3 (color != 0) and 2 (color 0,
    before the dummy); violations are possible only under the non-starter
    override and are surfaced by `cardinality_violations`, not here.
    """
    p = table.p
    positions: list[list[Position]] = [[] for _ in range(p)]
    for i, (u, v) in enumerate(table.extension):
        positions[u].append(Position(i, 0))
        positions[v].append(Position(i, 1))
    sets = []
    for c in range(p):
        pos = positions[c]
        if c == 0:
            pos = pos + [DUMMY_POSITION]
        sets.append(MonochromeSet(color=c, positions=tuple(pos)))
    return tuple(sets)


def cardinality_violations(table: TriplicationTable) -> tuple[str, ...]:
    """Deviations from the guaranteed weak/monochrome cardinalities.

    Empty for any strong base (the monochrome bounds already hold for any
    starter base).  Checked quantities: weak sets of more than 3 members,
    more than 2 zero-sum pairs, and monochrome sets (dummy excluded) away
    from 3 (color != 0) / 2 (color 0).
    """
    problems = []
    for w in compute_weak_sets(table):
        if w.kind > 3:
            problems.append(f"weak set with sum {w.sum} has {w.kind} members")
    for w in compute_weak_sets(table):
        if w.sum == 0 and w.kind > 2:
            problems.append(f"{w.kind} pairs with sum 0")
    for m in compute_monochrome_sets(table):
        real = sum(1 for pos in m.positions if not pos.is_dummy)
        want = 2 if m.color == 0 else 3
        if real != want:
            problems.append(f"color {m.color} occupies {real} positions, expected {want}")
    return tuple(problems)


def check_key_admissible(base: Pairing, key: int) -> tuple[bool, str]:
    """A solvable instance requires the key to avoid 0 and the base pair sums."""
    if key == 0:
        return False, "key is zero"
    if key in pair_sums(base):
        return False, "key in pair sums"
    return True, "admissible"


def admissible_keys(base: Pairing) -> tuple[int, ...]:
    """All admissible keys for the base, ascending."""
    forbidden = set(pair_sums(base)) | {0}
    return tuple(t for t in range(base.modulus) if t not in forbidden)
