import hashlib
import itertools
import math
import os
import random
import shlex
import sys
import tempfile
import time
from pathlib import Path

import pytest

from tristarter import DecodeError, build_table, check_solution, encode, hill_climb, solve
from tristarter.dimacs import (
    CnfDocument,
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
from oracles import check_cnf

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
    nb, off = len(demo_instance.bind_sign), demo_instance.scope_off
    # after the one-hot block and the Z unit: nine clauses per binding, each
    # "a = va and b = vb imply c = (va + sign*vb) % 3", its one positive literal
    start = 4 * n + 1
    for cid, (a, b, c, sign) in enumerate(demo_instance.bindings()):
        block = demo_doc.clauses[start + 9 * cid:start + 9 * cid + 9]
        implied = []
        for clause in block:
            assert len(clause) == 3 and [lit > 0 for lit in clause] == [False, False, True]
            va, vb = -clause[0] - 3 * a - 1, -clause[1] - 3 * b - 1
            assert clause[2] == 3 * c + (va + sign * vb) % 3 + 1
            implied.append((va, vb))
        assert implied == list(itertools.product(range(3), repeat=2))
    # then three clauses per member pair of each all-different group
    pairs = [pair for cid in range(nb, len(off) - 1)
             for pair in itertools.combinations(demo_instance.scope_flat[off[cid]:off[cid + 1]], 2)]
    rest = demo_doc.clauses[start + 9 * nb:]
    assert rest == tuple((-3 * x - v - 1, -3 * y - v - 1) for x, y in pairs for v in range(3))
    assert len(demo_doc.clauses) == 4 * n + 1 + 9 * nb + 3 * sum(
        math.comb(off[cid + 1] - off[cid], 2) for cid in range(nb, len(off) - 1))


def _masks(clauses):
    """Each clause as the bit masks of its positive and negative booleans
    (bit l - 1 for boolean l)."""
    return [(sum(1 << (l - 1) for l in c if l > 0), sum(1 << (-l - 1) for l in c if l < 0))
            for c in clauses]


def _unit_propagate(masks, true, false):
    """The fixpoint of unit propagation on the clauses ``masks`` from the
    booleans set in the bit masks ``true`` and ``false``: (true, false), or
    None on a wipeout."""
    changed = True
    while changed:
        changed = False
        for pos, neg in masks:
            if pos & true or neg & false:
                continue
            free_pos, free_neg = pos & ~false, neg & ~true
            if not free_pos | free_neg:
                return None
            if (free_pos | free_neg).bit_count() == 1:
                true |= free_pos
                false |= free_neg
                changed = True
    return true, false


@pytest.mark.parametrize("sign", [-1, 0, 1])
def test_binding_clauses_propagate_no_weaker_than_conflict_clauses(kernel_backends, sign):
    # One binding a + sign*b = c over ternaries 0, 1, 2 (booleans 1-9).  The
    # oracle is the one-hot clauses plus the 18 conflict clauses, one per
    # violating (va, vb, vc).  On every partial assignment of the nine
    # booleans, propagation on the emitted clauses must derive all the
    # oracle derives (a wipeout included); on a full assignment they must
    # accept exactly the one-hot triples that satisfy the binding.
    one_hot_clauses = [clause for b in (1, 4, 7) for clause in (
        (b, b + 1, b + 2), (-b, -b - 1), (-b, -b - 2), (-b - 1, -b - 2))]
    oracle = _masks(one_hot_clauses + [
        (-1 - va, -4 - vb, -7 - vc) for va, vb, vc in itertools.product(range(3), repeat=3)
        if (va + sign * vb - vc) % 3])
    states = []
    for state in itertools.product((None, True, False), repeat=9):
        true = sum(1 << i for i, x in enumerate(state) if x is True)
        false = sum(1 << i for i, x in enumerate(state) if x is False)
        states.append((true, false, _unit_propagate(oracle, true, false)))
    full = (1 << 9) - 1
    one_hot = {sum(1 << (3 * t + v) for t, v in enumerate(values)): values
               for values in itertools.product(range(3), repeat=3)}
    for kernels in kernel_backends:
        clauses = _masks(kernels.dimacs_clauses(3, [], [], [0, 1, 2], [0, 3], [sign]))
        stronger = 0
        for true, false, old in states:
            new = _unit_propagate(clauses, true, false)
            if new is not None:
                assert old is not None and old[0] & ~new[0] == 0 and old[1] & ~new[1] == 0
            stronger += new != old
            if true | false == full:
                values = one_hot.get(true)
                assert (new is not None) == (
                    values is not None and (values[0] + sign * values[1] - values[2]) % 3 == 0)
        assert stronger == {-1: 270, 0: 195, 1: 270}[sign]


def test_fix_zero_becomes_unit_clause(demo_doc, demo_instance):
    unit = (3 * demo_instance.z_id + 1,)
    assert unit in demo_doc.clauses


def test_demo_text_golden(demo_doc):
    # Pins the exact CNF bytes: variable numbering and clause order included.
    # Re-pinned when each binding became nine implication clauses instead of
    # 18 conflict clauses (7423 bytes before).
    text = to_dimacs_text(demo_doc)
    assert len(text) == 5128
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "5f2ceae473046808f7f104581ad0bcb65899eebafbe961cec1f35c52f44893a1"


def test_p31_sweep_text_golden():
    # Pins the bytes at scale: every admissible key of one order-31 base,
    # with bindings of both signs.  Re-pinned with the demo digest above
    # (598635 bytes before).
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
    assert size == 411507
    assert digest.hexdigest() == \
        "bc5454321a35278a96f4f84e74c4bc8ec42f531e53697163faaff6cd40067969"


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
    # every key of T7, through the CNF: the external solver's status is the
    # native solver's, and each SAT model decodes to a valid solution
    statuses = []
    for key in range(T7.modulus):
        instance = encode(build_table(T7, key))
        doc = export_dimacs(instance)
        status, literals = run_external_solver(to_dimacs_text(doc), TOYSAT_CMD)
        assert status == solve(instance).status
        statuses.append(status)
        if status == "SAT":
            assert check_solution(instance, import_dimacs_model(doc, literals))[0]
    assert statuses.count("SAT") == 3 and statuses.count("UNSAT") == 4


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


def test_external_bridge_timeout_kills_the_solver(demo_doc, tmp_path):
    # a solver that would sleep 30 s is stopped at the timeout, and the
    # child, once it has written its pid, is gone (killed and reaped)
    pidfile = tmp_path / "solver.pid"
    code = (f"import os, time; open({str(pidfile)!r}, 'w').write(str(os.getpid())); "
            "time.sleep(30)")
    command = f"{shlex.quote(sys.executable)} -c {shlex.quote(code)}"
    start = time.monotonic()
    with pytest.raises(ExternalSolverError, match="timed out"):
        run_external_solver(to_dimacs_text(demo_doc), command, timeout=0.5)
    assert time.monotonic() - start < 5
    if pidfile.exists():
        with pytest.raises(ProcessLookupError):
            os.kill(int(pidfile.read_text()), 0)


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
