import hashlib
import random
import sys
import tempfile
from pathlib import Path

import pytest

from tristarter import DecodeError, build_table, check_solution, encode, hill_climb, solve
from tristarter.dimacs import (
    CnfDocument,
    check_cnf,
    export_dimacs,
    import_dimacs_model,
    parse_dimacs_text,
    parse_solver_output,
    run_external_solver,
    to_dimacs_text,
)
from tristarter.errors import ExternalSolverError, StructuralError
from tristarter.triplication import admissible_keys

from fixtures import DEMO_KEY, MALFORMED_DOCUMENTS, T7, random_document

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
    unit = (3 * demo_instance.z_id + 1,)
    assert unit in demo_doc.clauses


def test_demo_text_golden(demo_doc):
    # Pins the exact CNF bytes: variable numbering and clause order included.
    text = to_dimacs_text(demo_doc)
    assert len(text) == 7423
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "1e451b06e7a515459ea6bd19f28afcdd3eb5b690cdf2517827de055dbdd680df"


def test_p31_sweep_text_golden():
    # Pins the bytes at scale: every admissible key of one order-31 base,
    # with bindings of both signs.
    base = hill_climb(31, seed=0)
    digest = hashlib.sha256()
    size = 0
    signs = set()
    for key in admissible_keys(base):
        instance = encode(build_table(base, key))
        signs.update(instance.bind_sign)
        text = to_dimacs_text(export_dimacs(instance))
        size += len(text)
        digest.update(text.encode())
    assert signs == {1, -1}
    assert size == 598635
    assert digest.hexdigest() == \
        "b54b66bbda3c707eb25eb6a1eb538c1887872a5c5050b44818febcf20f3970ac"


def test_text_of_every_clause_length():
    doc = CnfDocument(
        num_ternary=2,
        clauses=((), (1,), (-2, 3), (4, -5, 6), (1, 2, 3, 4), (-1, -2, -3, -4, -5)))
    assert to_dimacs_text(doc) == (
        "c ternary 2 one-hot booleans 6\n"
        "c tmap 0 1\nc tmap 1 4\n"
        "p cnf 6 6\n"
        " 0\n"
        "1 0\n"
        "-2 3 0\n"
        "4 -5 6 0\n"
        "1 2 3 4 0\n"
        "-1 -2 -3 -4 -5 0\n")
    # the boolean count is derived, so the text always parses back
    assert parse_dimacs_text(to_dimacs_text(doc)) == doc


@pytest.mark.parametrize("num_ternary, clauses, message",
                         list(MALFORMED_DOCUMENTS.values()), ids=list(MALFORMED_DOCUMENTS))
def test_writer_refuses_documents_that_would_not_parse_back(num_ternary, clauses, message):
    # "0 1 0" would parse as two clauses, 2.7 would be written as 2, and 7
    # lies beyond the 3 booleans the parser would accept
    with pytest.raises(StructuralError) as error:
        to_dimacs_text(CnfDocument(num_ternary, clauses))
    assert str(error.value) == message


def test_every_written_document_parses_back():
    rng = random.Random(2026)
    for _ in range(300):
        doc = CnfDocument(*random_document(rng))
        assert parse_dimacs_text(to_dimacs_text(doc)) == doc


def _one_hot(values):
    # Boolean 3t + v + 1 stands for "ternary variable t has value v".
    return [(3 * t + v + 1) * (1 if v == value else -1)
            for t, value in enumerate(values) for v in range(3)]


@pytest.mark.parametrize("base", [T7, hill_climb(13, seed=1)], ids=["T7", "p13"])
def test_cnf_agrees_with_check_solution(base):
    # The CNF accepts exactly the assignments check_solution accepts: random
    # ones on every key, and every one-variable change of each solution.
    rng = random.Random(base.modulus)
    admissible = admissible_keys(base)
    accepted = rejected = 0
    for key in range(base.modulus):
        instance = encode(build_table(base, key))
        doc = export_dimacs(instance)
        n = instance.num_variables
        assignments = [[rng.randrange(3) for _ in range(n)] for _ in range(20)]
        if key in admissible:
            solution = list(solve(instance).solution)
            assignments.append(solution)
            for t in range(n):
                for delta in (1, 2):
                    changed = list(solution)
                    changed[t] = (changed[t] + delta) % 3
                    assignments.append(changed)
        for values in assignments:
            ok, _ = check_solution(instance, tuple(values))
            assert check_cnf(doc, _one_hot(values)) == ok
            accepted += ok
            rejected += not ok
    assert accepted and rejected


def test_text_round_trip():
    for base in (T7, hill_climb(13, seed=1)):
        for key in admissible_keys(base):
            doc = export_dimacs(encode(build_table(base, key)))
            text = to_dimacs_text(doc)
            header = next(line for line in text.splitlines() if line.startswith("p "))
            assert header == f"p cnf {doc.num_bools} {len(doc.clauses)}"
            assert text.rstrip().endswith(" 0")
            assert parse_dimacs_text(text) == doc


def test_model_decode_round_trip(demo_instance, demo_doc):
    solution = solve(demo_instance).solution
    literals = _one_hot(solution)
    assert check_cnf(demo_doc, literals)
    decoded = import_dimacs_model(demo_doc, literals)
    assert decoded == solution


def test_decode_rejects_non_one_hot(demo_doc):
    with pytest.raises(DecodeError):
        import_dimacs_model(demo_doc, [1, 2])   # two values for variable 0
    with pytest.raises(DecodeError):
        import_dimacs_model(demo_doc, [-1, -2, -3])


@pytest.mark.parametrize("literals, message", [
    ([1, -1], "model names both 1 and -1"),
    ([1, -1, -2, -3], "model names both 1 and -1"),
    ([-2, 1, 2], "model names both -2 and 2"),
    ([1, 99], "model literal 99 is outside [-3, 3]"),
    ([-4], "model literal -4 is outside [-3, 3]"),
], ids=["both-signs", "both-signs-one-hot", "both-signs-negative-first", "above", "below"])
def test_models_naming_both_signs_or_foreign_literals_are_refused(literals, message):
    # {1, -1} satisfied both unit clauses, and 99 was ignored
    doc = CnfDocument(1, ((1,), (-1,)))
    for read in (check_cnf, import_dimacs_model):
        with pytest.raises(DecodeError) as error:
            read(doc, literals)
        assert str(error.value) == message


def test_single_variable_document():
    # one unconstrained ternary variable: 3 bools, 1 ALO + 3 AMO clauses
    doc = CnfDocument(
        num_ternary=1,
        clauses=((1, 2, 3), (-1, -2), (-1, -3), (-2, -3)))
    assert import_dimacs_model(doc, [-1, 2, -3]) == (1,)
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
    status, literals = run_external_solver(to_dimacs_text(demo_doc), TOYSAT_CMD)
    assert status == "SAT"
    assert check_cnf(demo_doc, literals)
    decoded = import_dimacs_model(demo_doc, literals)
    ok, _ = check_solution(demo_instance, decoded)
    assert ok


def test_external_bridge_cnf_path_with_a_space(demo_doc, tmp_path, monkeypatch):
    # {cnf} stands for one argument, whatever the temporary directory is called
    spaced = tmp_path / "tmp dir"
    spaced.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spaced))
    status, literals = run_external_solver(to_dimacs_text(demo_doc), TOYSAT_CMD)
    assert status == "SAT" and check_cnf(demo_doc, literals)


def test_external_bridge_bad_command():
    text = to_dimacs_text(export_dimacs(encode(build_table(T7, DEMO_KEY))))
    with pytest.raises(ExternalSolverError):
        run_external_solver(text, "/nonexistent/solver {cnf}")


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


@pytest.mark.parametrize("text, message", [
    ("p cnf 3 1\n5 -7 0\n", "line 2: literal -7 exceeds the 3 declared booleans"),
    ("c tmap 0 10\np cnf 3 0\n", "line 1: 'c tmap 0 10' must map a ternary 0 <= t < 1 "
                                  "to boolean 3t \\+ 1"),
    ("p cnf -3 0\n", "line 1: negative count"),
    # boolean 7 would belong to no ternary variable
    ("p cnf 7 1\n7 0\n", "line 1: 7 booleans is not a multiple of 3"),
    # a second header would re-count the clauses read under the first
    ("p cnf 3 1\n1 0\np cnf 6 1\n", "line 3: second problem line 'p cnf 6 1'"),
], ids=["literal", "tmap", "count", "bool-count", "second-header"])
def test_parse_dimacs_out_of_range_is_structural(text, message):
    with pytest.raises(StructuralError, match=message):
        parse_dimacs_text(text)


@pytest.mark.parametrize("text, lineno", [
    # boolean 2 would read as both "ternary 0 = 1" and "ternary 1 = 0"
    ("c tmap 0 1\nc tmap 1 2\np cnf 6 0\n", 2),
    # a repeated index must not silently replace an earlier line
    ("c tmap 0 4\nc tmap 0 1\np cnf 6 0\n", 1),
    ("c tmap 2 7\np cnf 6 0\n", 1),
    ("c tmap -1 -2\np cnf 6 0\n", 1),
], ids=["overlap", "duplicate", "beyond", "negative"])
def test_parse_dimacs_tmap_must_state_the_numbering(text, lineno):
    with pytest.raises(StructuralError, match=f"line {lineno}: 'c tmap "):
        parse_dimacs_text(text)


def test_parse_dimacs_tmap_stating_the_numbering_is_harmless():
    # a lone line for ternary 1 states the rule; no coverage is required
    doc = parse_dimacs_text("c tmap 1 4\np cnf 6 1\n1 0\n")
    assert doc == CnfDocument(num_ternary=2, clauses=((1,),))
