"""DIMACS CNF bridge: one-hot export, model decoding, subprocess runner.

Each ternary variable x becomes three booleans "x = 0/1/2" (one at-least-one
clause plus three pairwise at-most-one clauses), and the constraints add two
more clause families.  A binding a + s*b = c (mod 3) becomes nine
implication clauses, "a = i and b = j imply c = (i + s*j) mod 3"; each
all-different group forbids every member pair a shared value.  Under the
one-hot clauses the nine implications have exactly the models of the 18
clauses that forbid each violating value triple, and unit propagation on them
is never weaker (Walsh, "SAT v CSP", CP 2000; Gent, "Arc consistency in
SAT", ECAI 2002).  The text form is standard DIMACS (`p cnf <vars>
<clauses>`, clauses terminated by 0).

The variable numbering (boolean 3t + v + 1 is "ternary t == v"), the clause
order (one-hot block, fix-zero unit, bindings, all-different pairs) and the
text bytes are a contract: golden sha256 digests in the tests pin them.
The numbering and the clause order live in `_kernels.dimacs_clauses` (C or
pure Python), which `export_dimacs` calls.  The numbering is a fixed rule,
not data: the ``c tmap t 3t+1`` comments restate it for readers of the
text, and the parser refuses any tmap comment that disagrees with it.  The
writer, `_kernels.dimacs_text` (C or pure Python), refuses every document
whose text the parser would refuse, so each text it writes parses back to
the document it came from.  The C writer checks and formats each distinct
literal once per call; the bytes it writes and the documents it refuses,
with their messages, are unchanged.  Both kernels are called through
`errors.from_kernel`, which raises a kernel's refusal as a
`StructuralError` with the same message.

External solvers are invoked as a command template receiving the CNF path
and are expected to print SAT-competition style output (`s SATISFIABLE` /
`s UNSATISFIABLE` plus `v` literal lines).
"""

from __future__ import annotations

import shlex
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

from . import _kernels
from .errors import DecodeError, ExternalSolverError, StructuralError, from_kernel
from .model import Solution, SudokuInstance
from .solver import SAT, UNSAT


@dataclass(frozen=True)
class CnfDocument:
    num_ternary: int
    clauses: tuple[tuple[int, ...], ...]

    @property
    def num_bools(self) -> int:
        """Three one-hot booleans per ternary variable."""
        return 3 * self.num_ternary


def export_dimacs(instance: SudokuInstance) -> CnfDocument:
    """One-hot CNF encoding of the whole instance.

    The clauses are built by `_kernels.dimacs_clauses` (in C when the
    extension is built) from the arrays `fd_search` takes, in the order it
    documents: one-hot block, the Z unit, nine implication clauses per
    binding, three clauses per all-different member pair.  The models, the
    numbering and `import_dimacs_model`'s decoding are those of the
    18-clause conflict form of a binding, and unit propagation is never
    weaker.  Arrays the kernel refuses are refused with a `StructuralError`.
    """
    return CnfDocument(instance.num_variables, from_kernel(
        _kernels.dimacs_clauses, *instance.search_arrays()[:6]))


def to_dimacs_text(doc: CnfDocument) -> str:
    """The DIMACS text of ``doc``, which `parse_dimacs_text` reads back as ``doc``.

    Written by `_kernels.dimacs_text` (in C when the extension is built).
    A document whose text the parser would refuse or read back differently
    is refused with a `StructuralError`, the kernel's message: a
    ``num_ternary`` that is not an int in [0, `_kernels.MAX_LEN`], and,
    naming the clause, a clause that is not a tuple or a literal that is not
    an int, is 0 or lies outside ±``num_bools``.
    """
    return from_kernel(_kernels.dimacs_text, doc.num_ternary, doc.clauses)


def parse_dimacs_text(text: str) -> CnfDocument:
    """Parse DIMACS text back into a document of ``num_bools / 3`` ternaries.

    There must be one problem line, its variable count a multiple of 3 and
    every literal within it, and every ``c tmap t b`` comment must state the
    fixed numbering ``b == 3t + 1`` for a ternary ``t`` of the document.
    """
    num_bools = None
    declared_clauses = None
    clauses: list[tuple[int, ...]] = []
    tmap: list[tuple[int, int, int]] = []   # (ternary index, base, line)
    pending: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("c"):
            fields = line.split()
            if len(fields) == 4 and fields[1] == "tmap":
                t, base = _ints(fields[2:], lineno)
                tmap.append((t, base, lineno))
            continue
        if line.startswith("p"):
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise StructuralError(f"line {lineno}: bad problem line {line!r}")
            if num_bools is not None:
                raise StructuralError(f"line {lineno}: second problem line {line!r}")
            num_bools, declared_clauses = _ints(fields[2:], lineno)
            if num_bools < 0 or declared_clauses < 0:
                raise StructuralError(f"line {lineno}: negative count in {line!r}")
            if num_bools % 3:
                raise StructuralError(
                    f"line {lineno}: {num_bools} booleans is not a multiple of 3, "
                    "three per ternary variable")
            continue
        if num_bools is None:
            raise StructuralError(f"line {lineno}: clause before problem line")
        lits = _ints(line.split(), lineno)
        if lits and max(map(abs, lits)) > num_bools:
            raise StructuralError(
                f"line {lineno}: literal {max(lits, key=abs)} exceeds the "
                f"{num_bools} declared booleans")
        for lit in lits:
            if lit == 0:
                clauses.append(tuple(pending))
                pending = []
            else:
                pending.append(lit)
    if pending:
        raise StructuralError("unterminated clause at end of file")
    if num_bools is None:
        raise StructuralError("missing problem line")
    if declared_clauses != len(clauses):
        raise StructuralError(
            f"header declares {declared_clauses} clauses, found {len(clauses)}")
    num_ternary = num_bools // 3
    for t, base, lineno in tmap:
        if not (0 <= t < num_ternary and base == 3 * t + 1):
            raise StructuralError(
                f"line {lineno}: 'c tmap {t} {base}' must map a ternary "
                f"0 <= t < {num_ternary} to boolean 3t + 1")
    return CnfDocument(num_ternary=num_ternary, clauses=tuple(clauses))


def _ints(tokens: list[str], lineno: int) -> list[int]:
    try:
        return [int(tok) for tok in tokens]
    except ValueError:
        raise StructuralError(
            f"line {lineno}: non-integer field in {' '.join(tokens)!r}") from None


def _model(doc: CnfDocument, literals: Iterable[int]) -> set[int]:
    """The literals of a boolean model, 0 (a line terminator) left out.

    A literal outside ±``num_bools``, or one whose negation the model also
    names, is refused with a `DecodeError` naming it.
    """
    model: set[int] = set()
    for lit in literals:
        if lit == 0:
            continue
        if not -doc.num_bools <= lit <= doc.num_bools:
            raise DecodeError(f"model literal {lit} is outside "
                              f"[-{doc.num_bools}, {doc.num_bools}]")
        if -lit in model:
            raise DecodeError(f"model names both {-lit} and {lit}")
        model.add(lit)
    return model


def import_dimacs_model(doc: CnfDocument, literals: Iterable[int]) -> Solution:
    """Decode a boolean model (iterable of signed literals) to ternary values.

    Every ternary variable must have exactly one of its three booleans true;
    anything else names the offending variable in a `DecodeError`, as do a
    literal outside the document and a literal named with both signs.
    """
    model = _model(doc, literals)
    values = []
    for t in range(doc.num_ternary):
        hits = [v for v in range(3) if 3 * t + v + 1 in model]
        if len(hits) != 1:
            raise DecodeError(
                f"ternary variable {t} has {len(hits)} true booleans, expected 1")
        values.append(hits[0])
    return tuple(values)


def parse_solver_output(text: str) -> tuple[str, Optional[list[int]]]:
    """Extract status and model from SAT-competition style output."""
    status = None
    literals: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("s "):
            word = line[2:].strip().upper()
            if word.startswith("SAT"):
                status = SAT
            elif word.startswith("UNSAT"):
                status = UNSAT
            else:
                status = word
        elif line.startswith("v ") or line.startswith("v\t"):
            try:
                literals.extend(lit for lit in map(int, line[2:].split()) if lit != 0)
            except ValueError:
                raise ExternalSolverError(
                    f"malformed model line in solver output: {line!r}") from None
    if status is None:
        raise ExternalSolverError("no 's' status line in solver output")
    return status, (literals if status == SAT else None)


def run_external_solver(
    cnf_text: str,
    command_template: str,
    timeout: Optional[float] = None,
) -> tuple[str, Optional[list[int]]]:
    """Write the DIMACS text to a temp file and run the solver command on it.

    The template may reference the file as ``{cnf}``; otherwise the path is
    appended as the last argument.  A template that `shlex` cannot split,
    or whose first word is empty or names the file rather than a command,
    is refused with a `StructuralError` before anything is written.
    Nonzero exit codes 10/20 (the SAT convention) are accepted.
    """
    # split before substituting, so the path stays one argument
    try:
        argv = shlex.split(command_template)
    except ValueError as exc:
        raise StructuralError(
            f"cannot split solver command {command_template!r}: {exc}") from None
    if not argv or not argv[0] or "{cnf}" in argv[0]:
        raise StructuralError(f"solver command {command_template!r} names no command")
    with tempfile.TemporaryDirectory(prefix="tristarter-cnf-") as tmp:
        cnf_path = Path(tmp) / "instance.cnf"
        cnf_path.write_text(cnf_text)
        if "{cnf}" in command_template:
            argv = [arg.replace("{cnf}", str(cnf_path)) for arg in argv]
        else:
            argv.append(str(cnf_path))
        try:
            proc = subprocess.run(
                argv, capture_output=True, text=True, timeout=timeout, check=False)
        except OSError as exc:
            raise ExternalSolverError(f"cannot run {argv[0]!r}: {exc}") from exc
        except subprocess.TimeoutExpired as exc:
            raise ExternalSolverError(f"solver timed out after {timeout}s") from exc
        if proc.returncode not in (0, 10, 20):
            raise ExternalSolverError(
                f"solver exited with {proc.returncode}: {proc.stderr.strip()[:500]}")
        return parse_solver_output(proc.stdout)
