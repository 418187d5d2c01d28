"""Deciding whether a starter of order 3p can come from triplication.

The test reduces the starter mod p, orients each reduced pair so its
difference representative lies in [0, q], and groups pairs by that
representative: a valid input always has one difference-0 pair (t, t),
fixing the key, and three pairs per nonzero difference.  A group passes
when some ordering (u,v), (u',v'), (u'',v'') of its three pairs satisfies

    u' - u = v' - v = t      and      u' + v'' = v' + u'' = 2t   (mod p),

i.e. is literally a construction row.  Any group with no passing ordering
proves the starter is not a triplication image (verdict False); otherwise
the verdict is Inconclusive and every combination of passing orderings
yields a candidate (base, key) reconstruction, reported with the base
oriented to [1, q] representatives and ordered by ascending difference.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .errors import RefusedError, StructuralError
from .starters import Pair, Pairing, VerificationReport, verify_pairing
from .triplication import TriplicationTable, build_table, check_base_order

FALSE = "False"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class RowGroup:
    """Oriented reduced pairs sharing one difference representative."""

    difference: int
    members: tuple[Pair, ...]


@dataclass(frozen=True)
class Candidate:
    base: Pairing
    key: int
    report: VerificationReport


@dataclass(frozen=True)
class InverseVerdict:
    status: str
    key: int
    candidates: tuple[Candidate, ...]
    failed_difference: Optional[int] = None


def base_order_of(n: int) -> int:
    """The base order p of an order n = 3p the inverse test accepts.

    Refuses any n that is not 3p with p a base order `build_table` accepts.
    """
    if n % 3 != 0:
        raise RefusedError(f"order {n} is not of the form 3p")
    check_base_order(n // 3)
    return n // 3


def group_rows(starter: Pairing) -> tuple[tuple[RowGroup, ...], int]:
    """Steps 1-3: reduce mod p, orient, group by difference, extract the key."""
    p = base_order_of(starter.modulus)
    report = verify_pairing(starter)
    if not report.is_starter:
        raise RefusedError(
            "input is not a starter: " + "; ".join(report.diagnostics))
    q = (p - 1) // 2
    buckets: list[list[Pair]] = [[] for _ in range(q + 1)]
    for a, b in starter.pairs:
        ar, br = a % p, b % p
        d = (ar - br) % p
        if d > q:
            ar, br = br, ar
            d = p - d
        buckets[d].append((ar, br))
    if len(buckets[0]) != 1:
        raise StructuralError(
            f"expected one difference-0 pair, found {len(buckets[0])}")
    t_pair = buckets[0][0]
    if t_pair[0] != t_pair[1]:
        raise StructuralError(f"difference-0 pair {t_pair} has unequal entries")
    for d in range(1, q + 1):
        if len(buckets[d]) != 3:
            raise StructuralError(
                f"expected three pairs with difference {d}, found {len(buckets[d])}")
    groups = tuple(RowGroup(d, tuple(buckets[d])) for d in range(q + 1))
    return groups, t_pair[0]


def _passing_orderings(
    members: tuple[Pair, ...], t: int, p: int
) -> tuple[tuple[Pair, Pair, Pair], ...]:
    """Orderings of three pairs that form a construction row for key t.

    Flipping all three pairs leaves the four congruences literally unchanged
    (they swap roles pairwise), so checking the six permutations of the
    [0, q]-oriented pairs already covers both row orientations.
    """
    target = (2 * t) % p
    out = []
    for (u, v), (u1, v1), (u2, v2) in itertools.permutations(members):
        if ((u1 - u) % p == t and (v1 - v) % p == t
                and (u1 + v2) % p == target and (v1 + u2) % p == target):
            out.append(((u, v), (u1, v1), (u2, v2)))
    return tuple(out)


def inverse_test(starter: Pairing) -> InverseVerdict:
    """Steps 1-5; Inconclusive verdicts carry the candidate reconstructions."""
    groups, t = group_rows(starter)
    p = starter.modulus // 3
    per_row = []
    for group in groups[1:]:
        orderings = _passing_orderings(group.members, t, p)
        if not orderings:
            return InverseVerdict(
                status=FALSE, key=t, candidates=(),
                failed_difference=group.difference)
        per_row.append(orderings)
    candidates = _candidates_from(per_row, t, groups, starter.modulus // 3)
    return InverseVerdict(status=INCONCLUSIVE, key=t, candidates=candidates)


def reconstruct_candidates(starter: Pairing) -> tuple[Candidate, ...]:
    """Candidate (base, key) pairs; empty when the verdict is False."""
    return inverse_test(starter).candidates


def _candidates_from(
    per_row: list[tuple[tuple[Pair, Pair, Pair], ...]],
    t: int,
    groups: tuple[RowGroup, ...],
    p: int,
) -> tuple[Candidate, ...]:
    out = []
    seen: set[tuple[Pair, ...]] = set()
    for combo in itertools.product(*per_row):
        base_pairs = tuple(ordering[0] for ordering in combo)
        if base_pairs in seen:
            continue
        seen.add(base_pairs)
        table = _rebuild_matches(Pairing(p, base_pairs), t, groups)
        if table is not None:
            out.append(Candidate(base=table.base, key=t, report=table.base_report))
    return tuple(out)


def _rebuild_matches(
    base: Pairing, t: int, groups: tuple[RowGroup, ...]
) -> Optional[TriplicationTable]:
    """Rebuild the table for (base, t); it is returned when its rows match
    the groups setwise, else None."""
    p = base.modulus
    q = (p - 1) // 2
    table = build_table(base, t, allow_nonstarter=True)
    for row in range(1, q + 1):
        row_pairs = table.extension[3 * row - 2: 3 * row + 1]
        x, y = base.pairs[row - 1]
        d = (x - y) % p
        if d > q:
            d = p - d
        if d == 0:
            return None
        want = sorted(tuple(sorted(pr)) for pr in groups[d].members)
        got = sorted(tuple(sorted(pr)) for pr in row_pairs)
        if want != got:
            return None
    return table
