"""Exception hierarchy shared across the package.

Structural errors mean the input itself is malformed (wrong shape, out of
range, unparseable).  Refusals mean the input is well formed but the
requested operation is outside the supported domain.  The CLI maps these
to exit codes 2 and 1 respectively.
"""


class TristarterError(Exception):
    """Base class for all package errors."""


class StructuralError(TristarterError):
    """Malformed data: wrong length, out-of-range entry, bad file."""


class RefusedError(TristarterError):
    """Well-formed request refused by a domain rule."""


class KeyNotAdmissibleError(RefusedError):
    """Key equals zero or one of the base pair sums."""


class SearchBudgetError(RefusedError):
    """An iteration/step budget ran out; retriable with a new seed or budget."""


class DecodeError(StructuralError):
    """A boolean model does not decode to a unique ternary value."""


class ExternalSolverError(TristarterError):
    """The external SAT solver bridge failed (spawn, output, or protocol)."""


class InternalConsistencyError(TristarterError):
    """A guaranteed invariant failed; indicates a bug, not bad input."""


def require_int(name: str, value, low: int, high: int = 2**63 - 1) -> None:
    """Refuse ``value`` unless it is an int, not a bool, in [low, high] (C's LLONG_MAX)."""
    if type(value) is not int or not low <= value <= high:
        raise StructuralError(f"{name} must be an integer in [{low}, {high}], got {value!r}")
