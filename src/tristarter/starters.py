"""Residue pairings, starter verification, enumeration and generation.

A *pairing* of odd order n is an ordered tuple of (n-1)/2 ordered residue
pairs.  It is a starter when its pairs partition Z_n \\ {0} and the 2k
signed differences cover every nonzero residue exactly once; it is strong
when additionally the pair sums are pairwise distinct and nonzero.  Pair
order and within-pair order are significant downstream (the triplication
table is order-sensitive), so nothing here canonicalizes implicitly;
`normalize` exists for set-level comparisons only.

Every `Pairing` is checked and verified once, when it is built: one
`_kernels.pairing_report` call refuses malformed pairs and fills
``Pairing.report``, so a pairing never exists without its report.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Optional

from . import _kernels
from .errors import (
    InternalConsistencyError, RefusedError, SearchBudgetError, StructuralError, require_int,
    require_seed)

Pair = tuple[int, int]

DEFAULT_ENUMERATION_BOUND = 21
DEFAULT_HILL_CLIMB_STEPS = 1_000_000

# orders with no strong starter; everything else odd >= 7 works
_NO_STRONG_STARTER = frozenset({3, 5, 9})


def _require_odd_order(name: str, n) -> None:
    """Refuse ``n`` unless it is an odd int, not a bool, of at least 3."""
    require_int(name, n, 3)
    if n % 2 == 0:
        raise StructuralError(f"{name} must be odd, got {n!r}")


def _not_pairs(pairs) -> str:
    """Why `tuple` could not read ``pairs`` as a sequence of pairs."""
    if isinstance(pairs, Iterable):
        for i, pair in enumerate(pairs):
            if not isinstance(pair, Iterable):
                return f"pair {i} is not a pair: {pair!r}"
    return f"pairs must be a sequence of pairs, got {pairs!r}"


@dataclass(frozen=True, slots=True)
class VerificationReport:
    """Flags and diagnostics from checking the starter definitions."""

    is_partition: bool
    is_starter: bool
    is_strong: bool
    pair_sums: tuple[int, ...]
    diagnostics: tuple[str, ...] = field(default=())


@dataclass(frozen=True)
class Pairing:
    """Ordered tuple of ordered residue pairs with a declared odd modulus.

    ``report`` is `verify_pairing` of the pairing, filled at construction:
    the one call that checks the pairs also verifies them."""

    modulus: int
    pairs: tuple[Pair, ...]
    report: VerificationReport = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        _require_odd_order("modulus", self.modulus)
        try:
            pairs = tuple(map(tuple, self.pairs))
        except TypeError:
            raise StructuralError(_not_pairs(self.pairs)) from None
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "report", verify_pairing(self))


def pair_sums(pairing: Pairing) -> tuple[int, ...]:
    """Sums (a_i + b_i) mod n in pair order (multiplicity preserved)."""
    return pairing.report.pair_sums


def verify_pairing(pairing: Pairing) -> VerificationReport:
    """Check the pairs and the partition / starter / strong-starter definitions.

    One `_kernels.pairing_report` call (in C when the extension is built).
    A structural problem (wrong length, a pair that is not two ints, an
    entry out of range) is refused with a `StructuralError`, the kernel's
    `ValueError` message; every definitional violation is reported as a
    flag plus a diagnostic, never an exception.
    """
    try:
        return VerificationReport(*_kernels.pairing_report(pairing.modulus, pairing.pairs))
    except ValueError as exc:
        raise StructuralError(str(exc)) from None


def canonical_pairs(pairing: Pairing) -> tuple[Pair, ...]:
    """The pairs of `normalize(pairing)`, without building a second `Pairing`
    (and verifying it again): enough to digest or compare a pairing."""
    n = pairing.modulus
    q = (n - 1) // 2
    oriented = []
    for a, b in pairing.pairs:
        d = (a - b) % n
        if d == 0 or d <= q:
            oriented.append((a, b))
        else:
            oriented.append((b, a))
    return tuple(sorted(oriented))


def normalize(pairing: Pairing) -> Pairing:
    """Canonical form for set-level comparison and digesting.

    Orients each pair so its difference representative lies in [1, (n-1)/2]
    and sorts the pairs; the result is equal for any reordering/reorientation
    of the same underlying set of pairs.
    """
    return Pairing(pairing.modulus, canonical_pairs(pairing))


def reduce_mod(pairing: Pairing, m: int) -> tuple[Pair, ...]:
    """Entrywise reduction mod a divisor m of the order, in pair and entry order."""
    require_int("reduction modulus", m, 2)
    if pairing.modulus % m != 0:
        raise StructuralError(f"{m} does not divide the order {pairing.modulus}")
    return tuple((a % m, b % m) for a, b in pairing.pairs)


@dataclass(frozen=True)
class EnumerationResult:
    count: int
    starters: Optional[tuple[Pairing, ...]]


def enumerate_strong_starters(
    n: int,
    cap: Optional[int] = None,
    bound: int = DEFAULT_ENUMERATION_BOUND,
) -> EnumerationResult:
    """Exact count of labeled strong starters of order n by exhaustive search.

    Pairings are counted as sets of unordered pairs.  With ``cap`` set, up to
    that many starters are also returned (normalized pair order as found by
    the search).  Orders above ``bound`` are refused; raising the bound past
    the default emits a warning because the search space grows steeply.
    """
    _require_odd_order("order", n)
    if cap is not None:
        require_int("cap", cap, 0)
    require_int("bound", bound, 0)
    if bound > DEFAULT_ENUMERATION_BOUND:
        warnings.warn(
            f"enumeration bound {bound} above the default "
            f"{DEFAULT_ENUMERATION_BOUND}; expect a long run",
            stacklevel=2,
        )
    if n > bound:
        raise RefusedError(
            f"order {n} above the enumeration bound {bound}; "
            "pass a larger bound explicitly to override")
    count, collected = _kernels.count_strong_starters(n, cap if cap else 0)
    starters = None
    if cap:
        starters = tuple(Pairing(n, tuple(pairs)) for pairs in collected)
    return EnumerationResult(count=count, starters=starters)


def hill_climb(n: int, seed: int = 0, max_steps: int = DEFAULT_HILL_CLIMB_STEPS) -> Pairing:
    """Generate a strong starter of order n; deterministic for fixed (n, seed)."""
    _require_odd_order("order", n)
    require_seed(seed)
    require_int("max_steps", max_steps, 1)
    if n in _NO_STRONG_STARTER:
        raise RefusedError(f"no strong starter of order {n} exists")
    pairs = _kernels.hill_climb_pairs(n, seed, max_steps)
    if pairs is None:
        raise SearchBudgetError(
            f"hill climb for order {n} exhausted {max_steps} steps "
            f"(seed {seed}); retry with another seed or a larger budget")
    result = Pairing(n, tuple(pairs))
    if not result.report.is_strong:
        raise InternalConsistencyError(
            f"hill climb returned a non-strong pairing for order {n}")
    return result


def kernel_backend() -> str:
    """'compiled' when the C extension supplies `pairing_report`,
    `encode_table`, `fd_search`, `count_strong_starters`, `dimacs_clauses`
    and `dimacs_text`, else 'pure' (the hill climber is always pure)."""
    return _kernels.BACKEND
