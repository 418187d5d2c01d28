"""Strong starters of order 3p from strong starters of order p.

The route: build the triplication table for a base starter and a key,
encode it as a mod-3 constraint problem, solve with the native
finite-domain solver (or export DIMACS CNF for an external one), and merge
the table with a solution by CRT into a pair of strong starters of triple
the order.  The inverse test decides whether a given starter could have
been produced this way.
"""

from .assembly import TriplicationResult, UnsatReport, crt, crt_merge, triplicate
from .errors import (
    DecodeError,
    ExternalSolverError,
    InternalConsistencyError,
    KeyNotAdmissibleError,
    RefusedError,
    SearchBudgetError,
    StructuralError,
    TristarterError,
)
from .inverse import InverseVerdict, inverse_test
from .model import (
    SudokuInstance,
    apply_phi,
    check_solution,
    encode,
    solution_from_uv,
    uv_pairs,
)
from .solver import SolveOutcome, SolverConfig, enumerate_solutions, solve
from .starters import (
    EnumerationResult,
    Pairing,
    VerificationReport,
    enumerate_strong_starters,
    hill_climb,
    kernel_backend,
    normalize,
    pair_sums,
    reduce_mod,
    verify_pairing,
)
from .triplication import (
    TriplicationTable,
    admissible_keys,
    build_table,
    check_key_admissible,
    compute_weak_sets,
    row_differences,
)

__version__ = "0.1.0"

__all__ = [
    "DecodeError",
    "EnumerationResult",
    "ExternalSolverError",
    "InternalConsistencyError",
    "InverseVerdict",
    "KeyNotAdmissibleError",
    "Pairing",
    "RefusedError",
    "SearchBudgetError",
    "SolveOutcome",
    "SolverConfig",
    "StructuralError",
    "SudokuInstance",
    "TriplicationResult",
    "TriplicationTable",
    "TristarterError",
    "UnsatReport",
    "VerificationReport",
    "admissible_keys",
    "apply_phi",
    "build_table",
    "check_key_admissible",
    "check_solution",
    "compute_weak_sets",
    "crt",
    "crt_merge",
    "encode",
    "enumerate_solutions",
    "enumerate_strong_starters",
    "hill_climb",
    "inverse_test",
    "kernel_backend",
    "normalize",
    "pair_sums",
    "reduce_mod",
    "row_differences",
    "solution_from_uv",
    "solve",
    "triplicate",
    "uv_pairs",
    "verify_pairing",
]
