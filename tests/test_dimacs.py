import hashlib
import sys
from pathlib import Path

import pytest

from tristarter import DecodeError, build_table, check_solution, encode, solve
from tristarter.dimacs import (
    check_cnf,
    export_dimacs,
    import_dimacs_model,
    parse_dimacs_text,
    parse_solver_output,
    run_external_solver,
    to_dimacs_text,
)
from tristarter.errors import ExternalSolverError, StructuralError

from fixtures import DEMO_KEY, T7

TOYSAT = Path(__file__).parent / "toysat.py"
TOYSAT_CMD = f"{sys.executable} {TOYSAT} {{cnf}}"


@pytest.fixture(scope="module")
def demo_instance():
    return encode(build_table(T7, DEMO_KEY))


@pytest.fixture(scope="module")
def demo_doc(demo_instance):
    return export_dimacs(demo_instance)


def test_one_hot_shape(demo_doc, demo_instance):
    n = demo_instance.num_variables
    assert demo_doc.num_bools == 3 * n
    # leading block: 1 at-least-one + 3 at-most-one clauses per variable
    block = demo_doc.clauses[: 4 * n]
    alo = [c for c in block if all(lit > 0 for lit in c)]
    amo = [c for c in block if all(lit < 0 for lit in c)]
    assert len(alo) == n and len(amo) == 3 * n
    assert all(len(c) == 3 for c in alo) and all(len(c) == 2 for c in amo)


def test_fix_zero_becomes_unit_clause(demo_doc, demo_instance):
    unit = (demo_doc.var_base[demo_instance.z_id],)
    assert unit in demo_doc.clauses


def test_demo_text_golden(demo_doc):
    # Pins the exact CNF bytes: variable numbering and clause order included.
    text = to_dimacs_text(demo_doc)
    assert len(text) == 7423
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "1e451b06e7a515459ea6bd19f28afcdd3eb5b690cdf2517827de055dbdd680df"


def test_text_round_trip(demo_doc):
    text = to_dimacs_text(demo_doc)
    header = next(line for line in text.splitlines() if line.startswith("p "))
    assert header == f"p cnf {demo_doc.num_bools} {len(demo_doc.clauses)}"
    assert text.rstrip().endswith(" 0")
    parsed = parse_dimacs_text(text)
    assert parsed.num_bools == demo_doc.num_bools
    assert parsed.clauses == demo_doc.clauses
    assert parsed.var_base == demo_doc.var_base


def test_model_decode_round_trip(demo_instance, demo_doc):
    solution = solve(demo_instance).solution
    literals = []
    for t, value in enumerate(solution.values):
        base = demo_doc.var_base[t]
        for v in range(3):
            literals.append(base + v if v == value else -(base + v))
    assert check_cnf(demo_doc, literals)
    decoded = import_dimacs_model(demo_doc, literals)
    assert decoded == solution


def test_decode_rejects_non_one_hot(demo_doc):
    with pytest.raises(DecodeError):
        import_dimacs_model(demo_doc, [1, 2])   # two values for variable 0
    with pytest.raises(DecodeError):
        import_dimacs_model(demo_doc, [-1, -2, -3])


def test_single_variable_document():
    # one unconstrained ternary variable: 3 bools, 1 ALO + 3 AMO clauses
    from tristarter.dimacs import CnfDocument

    doc = CnfDocument(
        num_ternary=1, num_bools=3,
        clauses=((1, 2, 3), (-1, -2), (-1, -3), (-2, -3)),
        var_base=(1,))
    assert import_dimacs_model(doc, [-1, 2, -3]).values == (1,)
    text = to_dimacs_text(doc)
    assert parse_dimacs_text(text).clauses == doc.clauses


def test_parse_solver_output_variants():
    status, model = parse_solver_output(
        "c comment\ns SATISFIABLE\nv 1 -2 3 0\n")
    assert status == "SAT" and model == [1, -2, 3]
    status, model = parse_solver_output("s UNSATISFIABLE\n")
    assert status == "UNSAT" and model is None
    with pytest.raises(ExternalSolverError):
        parse_solver_output("nothing here\n")


def test_external_bridge_sat(demo_instance, demo_doc):
    status, literals = run_external_solver(demo_doc, TOYSAT_CMD)
    assert status == "SAT"
    assert check_cnf(demo_doc, literals)
    decoded = import_dimacs_model(demo_doc, literals)
    ok, _ = check_solution(demo_instance, decoded)
    assert ok


def test_external_bridge_bad_command():
    doc = export_dimacs(encode(build_table(T7, DEMO_KEY)))
    with pytest.raises(ExternalSolverError):
        run_external_solver(doc, "/nonexistent/solver {cnf}")


def test_malformed_model_line_is_solver_error():
    with pytest.raises(ExternalSolverError, match="malformed model line"):
        parse_solver_output("s SATISFIABLE\nv 1 x 3 0\n")


@pytest.mark.parametrize("text, lineno", [
    ("p cnf three 1\n1 0\n", 1),
    ("p cnf 3 1\n1 -x 0\n", 2),
    ("c tmap 0 one\np cnf 3 1\n1 0\n", 1),
])
def test_parse_dimacs_non_integer_is_structural(text, lineno):
    with pytest.raises(StructuralError, match=f"line {lineno}: non-integer"):
        parse_dimacs_text(text)


def test_parse_dimacs_tmap_gap_is_structural():
    with pytest.raises(StructuralError, match="index 0 is missing"):
        parse_dimacs_text("c tmap 1 4\np cnf 6 1\n1 0\n")
