"""C/pure kernel agreement.

`_kernels.py` is the reference.  The C extension `_ckernels` replaces its
`fd_search`, `count_strong_starters` and `dimacs_text` when built; the pure
definitions stay reachable as `_kernels.pure_*`.  These tests require the
two to return identical values, so a seed denotes the same starter, a
search reports the same counts and a document has the same text on every
build.  The ``ckernels`` fixture (conftest.py) compiles the extension when
it is not importable or older than its source; the tests skip only when
there is no C compiler.
"""

import hashlib
import os
import random

import pytest

from tristarter import _kernels, build_table, encode, hill_climb, pair_sums
from tristarter.dimacs import CnfDocument, export_dimacs, parse_dimacs_text
from tristarter.errors import StructuralError
from tristarter.solver import RESTART_UNIT
from tristarter.triplication import _forbidden_keys, admissible_keys

from fixtures import DEMO_KEY, MALFORMED_DOCUMENTS, T7, T13, random_document


def _both(ckernels, arrays, budget, cap, seed=0, unit=0):
    args = (*arrays, budget, cap, seed, unit)
    got = ckernels.fd_search(*args)
    assert got == _kernels.pure_fd_search(*args)
    return got


def test_backend_flag_consistency():
    compiled = _kernels.fd_search is not _kernels.pure_fd_search
    assert compiled == (_kernels.count_strong_starters
                        is not _kernels.pure_count_strong_starters)
    assert compiled == (_kernels.dimacs_text is not _kernels.pure_dimacs_text)
    assert _kernels.BACKEND == ("compiled" if compiled else "pure")


def test_hill_climb_golden_digest():
    # digest of the hill climber's output before its dead state was removed
    results = [_kernels.hill_climb_pairs(n, seed, 10 ** 6)
               for n in (7, 21, 39) for seed in (0, 1, 12345)]
    assert hashlib.sha256(repr(results).encode()).hexdigest() == \
        "4817cefaca45d3c9ba5cd2e0b7261d6ef7368358dda00b50184b1583c1dfa5a7"


def test_pure_fd_search_golden_digest():
    # pins the pure search with no compiler present: restarts on a short
    # unit at p = 31, forbidden keys at p = 11 and every solution of the
    # T7 keys
    def search(inst, budget, cap, seed, unit):
        return _kernels.pure_fd_search(*inst.search_arrays(), budget, cap, seed, unit)

    results = []
    base = hill_climb(31, seed=0)
    for key in admissible_keys(base):
        inst = encode(build_table(base, key))
        results.append(search(inst, 2_000, 1, 0, 8))
    base = hill_climb(11, seed=7)
    for key in sorted(_forbidden_keys(base)):
        inst = encode(build_table(base, key))
        results.append(search(inst, 3_000, 1, 0, RESTART_UNIT))
    for key in range(7):
        inst = encode(build_table(T7, key))
        results.append(search(inst, 0, 10 ** 6, 0, 0))
    assert hashlib.sha256(repr(results).encode()).hexdigest() == \
        "8893363f5f9e6faf2ec0c888c66d3e37a9655b580eb7da01df6fb90c6947b49d"


def test_enumeration_identical_across_backends(ckernels):
    assert ckernels.count_strong_starters(15, 40) == \
        _kernels.pure_count_strong_starters(15, 40)
    assert ckernels.count_strong_starters(21, 0) == (6660, [])


def test_fd_search_identical_on_order_31_sweeps(ckernels):
    for seed in (0, 1):
        base = hill_climb(31, seed=seed)
        for key in admissible_keys(base):
            inst = encode(build_table(base, key))
            status, sols, *_ = _both(ckernels, inst.search_arrays(), 50_000,
                                     1, 0, RESTART_UNIT)
            assert status == 1 and len(sols) == 1


def test_fd_search_identical_under_restart_orders(ckernels):
    # short units restart often, so shuffled orders and carried weights
    # meet solutions, budget exhaustion and UNSAT wipeouts
    sat, unsat = hill_climb(31, seed=0), hill_climb(11, seed=7)
    statuses = set()
    restarts = 0
    for base, keys in ((sat, admissible_keys(sat)),
                       (unsat, sorted(_forbidden_keys(unsat)))):
        for key in keys:
            inst = encode(build_table(base, key))
            for seed, unit, budget in ((0, 4, 100), (1, 4, 2_000), (-1, 32, 2_000)):
                got = _both(ckernels, inst.search_arrays(), budget, 1, seed, unit)
                statuses.add(got[0])
                restarts = max(restarts, got[5])
    assert statuses == {0, 1, 2} and restarts > 1


def test_fd_search_identical_enumerating_all_solutions(ckernels):
    for key in range(7):
        inst = encode(build_table(T7, key))
        _both(ckernels, inst.search_arrays(), 0, 10 ** 6)


def test_fd_search_identical_on_budget_exhaustion(ckernels):
    base = hill_climb(31, seed=0)
    inst = encode(build_table(base, admissible_keys(base)[0]))
    status, _, decisions, *_ = _both(ckernels, inst.search_arrays(), 3, 1)
    assert (status, decisions) == (2, 4)


def test_fd_search_identical_on_inadmissible_key(ckernels):
    base = hill_climb(11, seed=7)
    key = 8
    assert key in pair_sums(base)
    inst = encode(build_table(base, key))
    status, sols, decisions, *_ = _both(ckernels, inst.search_arrays(), 0, 1)
    assert status == 0 and sols == [] and decisions > 0


def test_fd_search_identical_on_conflicting_fixed_variable(ckernels):
    inst = encode(build_table(T7, 1))
    z = inst.z_id
    nvars, _, _, *rest = inst.search_arrays()
    got = _both(ckernels, (nvars, [z, z], [0, 1], *rest), 0, 1)
    assert got == (0, [], 0, 0, 0, 0)


def test_fd_search_identical_on_every_group_size(ckernels):
    # encode makes groups of 2 and 3 members, and of 4 only in the T13
    # instances below, whose weak set of 4 no three values separate and which
    # the solver therefore skips; T7's key-1 arrays take one appended group
    # of 0, 1 or 2 members, enumerated to completion
    for key in (0, 1, 3, 8, 10, 11):
        inst = encode(build_table(T13, key))
        assert inst.trivially_unsat_reason
        assert _both(ckernels, inst.search_arrays(), 0, 1)[0] == 0
    *head, ad_flat, ad_off, order = encode(build_table(T7, 1)).search_arrays()
    for group in ([], [0], [0, 2]):
        arrays = (*head, [*ad_flat, *group], [*ad_off, len(ad_flat) + len(group)],
                  order)
        status, sols, *_ = _both(ckernels, arrays, 0, 10 ** 6)
        assert status == 0 and sols


def test_fd_search_short_order_matches_pure(ckernels):
    # branch variables missing from the order leave variables undetermined
    inst = encode(build_table(T7, 1))
    *arrays, order = inst.search_arrays()
    assert _both(ckernels, (*arrays, order[:2]), 0, 1)[0] == -1


ARRAY_NAMES = ("fixed_vars", "fixed_vals", "bind_a", "bind_b", "bind_c", "bind_sign",
               "ad_flat", "ad_off", "order")


@pytest.mark.parametrize("name, corrupt, message", [
    ("bind_a", lambda xs, n: xs.__setitem__(0, n), "outside"),
    ("order", lambda xs, n: xs.append(-1), "outside"),
    ("fixed_vals", lambda xs, n: xs.__setitem__(0, 3), "outside"),
    ("ad_off", lambda xs, n: xs.append(xs[-1] - 1), "decreases"),
    ("ad_flat", lambda xs, n: xs.__setitem__(0, n), "outside"),
    ("bind_b", lambda xs, n: xs.__setitem__(0, 0), "repeats"),
    ("ad_flat", lambda xs, n: xs.__setitem__(1, xs[0]), "repeats"),
])
def test_fd_search_rejects_malformed_arrays(fd_search_backends, name, corrupt,
                                            message):
    inst = encode(build_table(T7, 1))
    nvars, *flat = inst.search_arrays()
    arrays = dict(zip(ARRAY_NAMES, map(list, flat)))
    corrupt(arrays[name], nvars)
    errors = []
    for fd_search in fd_search_backends:
        with pytest.raises(ValueError, match=message) as error:
            fd_search(nvars, *arrays.values(), 0, 1, 0, 0)
        errors.append(str(error.value))
    assert len(set(errors)) == 1     # the same message from each backend


def _same_text(ckernels, num_ternary, clauses):
    text = ckernels.dimacs_text(num_ternary, clauses)
    pure = _kernels.pure_dimacs_text(num_ternary, clauses)
    if text != pure:   # name the first difference: a diff of megabytes takes minutes
        at = len(os.path.commonprefix([text, pure]))
        pytest.fail(f"byte {at}: C {text[at:at + 40]!r}, pure {pure[at:at + 40]!r}")
    return text


def test_dimacs_text_identical_on_the_golden_documents(ckernels):
    # the documents whose pure text test_dimacs.py pins by digest
    docs = [export_dimacs(encode(build_table(T7, DEMO_KEY)))]
    base = hill_climb(31, seed=0)
    docs += [export_dimacs(encode(build_table(base, key))) for key in admissible_keys(base)]
    for doc in docs:
        _same_text(ckernels, doc.num_ternary, doc.clauses)


def test_dimacs_text_identical_on_edge_documents(ckernels):
    docs = [(0, ()), (0, ((),)),
            (2, ((), (1,), (-2, 3), (4, -5, 6), (1, 2, 3, 4), (-1, -2, -3, -4, -5)))]
    # literals at +-num_bools on each side of a change in its digit count
    for n in (1, 3, 4, 33, 34, 333, 334, 3333, 3334, 10 ** 5):
        b = 3 * n
        docs.append((n, ((b,), (-b,), (1, -b, b, -1))))
    rng = random.Random(20)
    docs += [random_document(rng) for _ in range(300)]
    for n, clauses in docs:
        text = _same_text(ckernels, n, clauses)
        assert parse_dimacs_text(text) == CnfDocument(n, clauses)


@pytest.mark.parametrize("num_ternary, clauses, message",
                         list(MALFORMED_DOCUMENTS.values()), ids=list(MALFORMED_DOCUMENTS))
def test_dimacs_text_refuses_alike(ckernels, num_ternary, clauses, message):
    for dimacs_text in (ckernels.dimacs_text, _kernels.pure_dimacs_text):
        with pytest.raises(StructuralError) as error:
            dimacs_text(num_ternary, clauses)
        assert type(error.value) is StructuralError and str(error.value) == message


def test_splitmix_reference_values():
    # frozen expected values anchor the seeded streams
    assert _kernels.splitmix64(0) == 16294208416658607535
    assert _kernels.splitmix64(1) == 10451216379200822465
