"""Deciding whether a starter of order 3p can come from triplication.

The test reduces the starter mod p, orients each reduced pair so its
difference representative lies in [0, q], and groups pairs by that
representative.  The signed differences of a starter of order 3p cover
the nonzero residues mod 3p; only +-p reduce to 0 mod p, and each +-d,
d = 1..q, collects six residues.  So there is always one difference-0
pair (t, t), fixing the key, and three pairs per nonzero difference.  A
group passes when some ordering (u,v), (u',v'), (u'',v'') of its three
pairs satisfies

    u' - u = v' - v = t      and      u' + v'' = v' + u'' = 2t   (mod p).

These force u' = u+t, v' = v+t, u'' = 2t-v' = t-v and v'' = 2t-u' = t-u,
so a passing ordering *is* the construction row (x, y), (t+x, t+y),
(t-y, t-x) of its first pair (x, y) = (u, v), and distinct orderings have
distinct first pairs.  Any group with no passing ordering proves the
starter is not a triplication image (verdict False); otherwise the
verdict is Inconclusive and every combination of passing orderings yields
a candidate base for the key t: its first pairs, oriented to [1, q]
representatives and ordered by ascending difference.  Rebuilding the table
of (base, t) reproduces the observed rows by construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .errors import RefusedError
from .starters import Pair, Pairing
from .triplication import check_base_order

FALSE = "False"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class InverseVerdict:
    """The verdict and, when Inconclusive, the candidate bases, all with key ``key``."""

    status: str
    key: int
    candidates: tuple[Pairing, ...]
    failed_difference: Optional[int] = None


def base_order_of(n: int) -> int:
    """The base order p of an order n = 3p the inverse test accepts.

    Refuses any n that is not 3p with p a base order `build_table` accepts.
    """
    if n % 3 != 0:
        raise RefusedError(f"order {n} is not of the form 3p")
    check_base_order(n // 3)
    return n // 3


def group_rows(starter: Pairing) -> tuple[tuple[tuple[Pair, ...], ...], int]:
    """Steps 1-3: reduce mod p, orient, group by difference, extract the key.

    Returns ``(groups, t)``: ``groups[d]`` holds the oriented reduced pairs
    of difference representative d, for d = 0..q.
    """
    p = base_order_of(starter.modulus)
    report = starter.report
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
    return tuple(map(tuple, buckets)), buckets[0][0][0]


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
    for d in range(1, len(groups)):
        orderings = _passing_orderings(groups[d], t, p)
        if not orderings:
            return InverseVerdict(
                status=FALSE, key=t, candidates=(), failed_difference=d)
        per_row.append(orderings)
    candidates = tuple(Pairing(p, tuple(ordering[0] for ordering in combo))
                       for combo in itertools.product(*per_row))
    return InverseVerdict(status=INCONCLUSIVE, key=t, candidates=candidates)
