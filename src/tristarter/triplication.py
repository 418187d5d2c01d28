"""The triplication table and its weak sets.

From a base pairing T of order p (pairs (x_i, y_i), i = 1..q) and a key t,
the extension is the (3q+1)-tuple

    (t, t), then per i: (x_i, y_i), (t+x_i, t+y_i), (t-y_i, t-x_i)   (mod p)

read as a table row by row, left to right: index 0 is the top pair, index
j >= 1 sits in row ceil(j/3), column ((j-1) mod 3) + 1.  Weak sets group
pair indices by sum mod p (kept when the sum is 0 or the group has more
than one member); the rule is `_kernels.weak_sets`, which the pure
`_kernels.encode_table` also uses.  The color groups and the cardinality
check live in the encoded instance (`model.encode`).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernels
from .errors import RefusedError, require_int
from .starters import Pair, Pairing


@dataclass(frozen=True)
class TriplicationTable:
    base: Pairing
    key: int
    extension: tuple[Pair, ...]

    @property
    def p(self) -> int:
        return self.base.modulus

    @property
    def q(self) -> int:
        """Pairs of the base, and rows of the table."""
        return len(self.base.pairs)


def check_base_order(p: int) -> None:
    """Refuse a base order outside the construction: p >= 7, odd, coprime to 3."""
    if p < 7 or p % 2 == 0 or p % 3 == 0:
        raise RefusedError(
            f"base order must be >= 7, odd and coprime to 3, got {p}")


def build_table(base: Pairing, key: int) -> TriplicationTable:
    """Build the triplication table for (base, key).

    The base order must pass `check_base_order` and the base must verify as
    a starter (``base.report``, verified once per base).  Strongness is not
    required here; `assembly.triplicate` checks it.
    """
    p = base.modulus
    check_base_order(p)
    require_int("key", key, 0, p - 1)
    if not base.report.is_starter:
        raise RefusedError(
            "base is not a starter: " + "; ".join(base.report.diagnostics))
    t = key
    ext: list[Pair] = [(t, t)]
    for x, y in base.pairs:
        ext.append((x, y))
        ext.append(((t + x) % p, (t + y) % p))
        ext.append(((t - y) % p, (t - x) % p))
    return TriplicationTable(base=base, key=key, extension=tuple(ext))


def row_differences(table: TriplicationTable) -> tuple[int, ...]:
    """delta_i = (u_i - v_i) mod p for every extension index."""
    p = table.p
    return tuple((u - v) % p for u, v in table.extension)


def compute_weak_sets(table: TriplicationTable) -> dict[int, tuple[int, ...]]:
    """Weak sets of the table: sum -> extension indices, sums ascending."""
    return {s: tuple(members)
            for s, members in _kernels.weak_sets(table.p, table.extension).items()}


def _forbidden_keys(base: Pairing) -> set[int]:
    """A solvable instance requires the key to avoid 0 and the base pair sums."""
    return {0, *base.report.pair_sums}


def check_key_admissible(base: Pairing, key: int) -> tuple[bool, str]:
    """(admissible, reason) for the key; see `_forbidden_keys`."""
    if key not in _forbidden_keys(base):
        return True, "admissible"
    return False, "key is zero" if key == 0 else "key in pair sums"


def admissible_keys(base: Pairing) -> tuple[int, ...]:
    """All admissible keys for the base, ascending."""
    forbidden = _forbidden_keys(base)
    return tuple(t for t in range(base.modulus) if t not in forbidden)
