"""C/pure kernel agreement.

`_kernels.py` is the reference.  The C extension `_ckernels` replaces its
`fd_search`, `count_strong_starters`, `dimacs_clauses` and `dimacs_text`
when built; the pure definitions stay reachable as `_kernels.pure_*`.
These tests require the two to return identical values, so a seed denotes
the same starter, a search reports the same counts and an instance has the
same clauses and a document the same text on every build.  The
``ckernels`` fixture (conftest.py) compiles the extension when it is not
importable or older than its source; the tests skip only when there is no
C compiler.
"""

import hashlib
import inspect
import os
import random
import re

import pytest

from tristarter import _kernels, build_table, encode, hill_climb, pair_sums
from tristarter.dimacs import CnfDocument, export_dimacs, parse_dimacs_text
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
    assert compiled == (_kernels.dimacs_clauses is not _kernels.pure_dimacs_clauses)
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
    # instances below, whose weak set of 4 no three values separate, so the
    # root propagation wipes it out; T7's key-1 arrays take one appended
    # group of 0, 1 or 2 members, enumerated to completion
    for key in (0, 1, 3, 8, 10, 11):
        inst = encode(build_table(T13, key))
        assert inst.trivially_unsat_reason
        assert _both(ckernels, inst.search_arrays(), 0, 1)[0] == 0
    *head, scope_flat, scope_off, bind_sign, order = \
        encode(build_table(T7, 1)).search_arrays()
    for group in ([], [0], [0, 2]):
        arrays = (*head, [*scope_flat, *group],
                  [*scope_off, len(scope_flat) + len(group)], bind_sign, order)
        status, sols, *_ = _both(ckernels, arrays, 0, 10 ** 6)
        assert status == 0 and sols


def test_fd_search_short_order_matches_pure(ckernels):
    # branch variables missing from the order leave variables undetermined
    inst = encode(build_table(T7, 1))
    *arrays, order = inst.search_arrays()
    assert _both(ckernels, (*arrays, order[:2]), 0, 1)[0] == -1


# the array arguments of fd_search: those between nvars and budget
_PARAMETERS = list(inspect.signature(_kernels.pure_fd_search).parameters)
ARRAY_NAMES = tuple(_PARAMETERS[1:_PARAMETERS.index("budget")])
# those of dimacs_clauses: the same but order
CLAUSE_ARRAY_NAMES = tuple(inspect.signature(_kernels.pure_dimacs_clauses).parameters)[1:]


# The arrays of T7's key 1, which each case below corrupts.
NVARS, *T7_ARRAYS = encode(build_table(T7, 1)).search_arrays()

# (array, corruption given the array and nvars, message); the "nvars"
# corruption returns the new nvars.  Every case runs on every backend
# present, through `fd_search` and, but for `order`, `dimacs_clauses`.
# An array longer than MAX_LEN is refused too, but is not tested: building
# one takes gigabytes.
MALFORMED_ARRAYS = [
    ("scope_flat", lambda xs, n: xs.__setitem__(0, n), "outside"),    # a binding
    ("order", lambda xs, n: xs.append(-1), "outside"),
    ("fixed_vals", lambda xs, n: xs.__setitem__(0, 3), "outside"),
    ("scope_off", lambda xs, n: xs.append(xs[-1] - 1), "decreases"),
    ("scope_flat", lambda xs, n: xs.__setitem__(-1, n), "outside"),   # a color
    ("scope_flat", lambda xs, n: xs.__setitem__(1, xs[0]), "repeats"),
    ("scope_flat", lambda xs, n: xs.__setitem__(-1, xs[-2]), "repeats"),
    ("scope_off", lambda xs, n: xs.__setitem__(1, 2), "not three wide"),
    ("bind_sign", lambda xs, n: xs.extend([1] * n), "entries for"),
    # each entry must be an exact int in its array's range, checked once
    *(pytest.param(name, lambda xs, n, x=x: xs.__setitem__(0, x),
                   rf"^{name}\[0\] = {re.escape(repr(x))} is outside \[{lo}, {hi}\)$",
                   id=f"{name}={label}")
      for name, x, label, lo, hi in (("scope_flat", 1.0, "1.0", 0, NVARS),
                                     ("fixed_vals", True, "True", 0, 3),
                                     ("scope_flat", 2**40, "2**40", 0, NVARS),
                                     ("fixed_vars", 2**70, "2**70", 0, NVARS),
                                     ("bind_sign", 2, "2", -1, 2),
                                     ("bind_sign", 2**40, "2**40", -1, 2))),
    # nvars passes the same rule: an exact int in [0, MAX_LEN]
    *(pytest.param("nvars", lambda _, n, x=x: x,
                   rf"^nvars = {re.escape(repr(x))} is out of range$",
                   id=f"nvars={label}")
      for x, label in ((_kernels.MAX_LEN + 1, "MAX_LEN+1"), (1.0, "1.0"),
                       (True, "True"), (2**70, "2**70"))),
]


def _refused_alike(kernels, names, name, corrupt, message, *tail):
    """Each kernel, given the ``names`` arrays of T7's key 1 with ``name``
    corrupted and then ``tail``, raises the same `ValueError`."""
    nvars = NVARS
    arrays = dict(zip(ARRAY_NAMES, map(list, T7_ARRAYS)))
    if name == "nvars":
        nvars = corrupt(None, nvars)
    else:
        corrupt(arrays[name], nvars)
    errors = []
    for kernel in kernels:
        with pytest.raises(ValueError, match=message) as error:
            kernel(nvars, *(arrays[a] for a in names), *tail)
        errors.append((type(error.value), str(error.value)))
    # the same type and message from each backend
    assert len(set(errors)) == 1 and errors[0][0] is ValueError


@pytest.mark.parametrize("name, corrupt, message", MALFORMED_ARRAYS)
def test_fd_search_rejects_malformed_arrays(kernel_backends, name, corrupt,
                                            message):
    _refused_alike([k.fd_search for k in kernel_backends], ARRAY_NAMES, name,
                   corrupt, message, 0, 1, 0, 0)


@pytest.mark.parametrize("name, corrupt, message",
                         [case for case in MALFORMED_ARRAYS if case[0] != "order"])
def test_dimacs_clauses_rejects_malformed_arrays(kernel_backends, name, corrupt,
                                                 message):
    _refused_alike([k.dimacs_clauses for k in kernel_backends],
                   CLAUSE_ARRAY_NAMES, name, corrupt, message)


@pytest.mark.parametrize("n", [8, 0, -3, _kernels.MAX_LEN + 1, _kernels.MAX_LEN + 2,
                               7.0, True, 2**70],
                         ids=["8", "0", "-3", "MAX_LEN+1", "MAX_LEN+2",
                              "7.0", "True", "2**70"])
def test_count_strong_starters_refuses_alike(kernel_backends, n):
    # MAX_LEN + 2 is odd: only the upper bound refuses it; 7.0 and True
    # (odd, in range) are refused for their type
    for kernels in kernel_backends:
        with pytest.raises(ValueError) as error:
            kernels.count_strong_starters(n, 0)
        assert type(error.value) is ValueError
        assert str(error.value) == f"order must be odd and positive, got {n!r}"


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
def test_dimacs_text_refuses_alike(kernel_backends, num_ternary, clauses, message):
    # the kernels refuse with ValueError; `to_dimacs_text` makes it the
    # user's StructuralError (test_dimacs.py)
    for kernels in kernel_backends:
        with pytest.raises(ValueError) as error:
            kernels.dimacs_text(num_ternary, clauses)
        assert type(error.value) is ValueError and str(error.value) == message


def _same_clauses(ckernels, arrays):
    clauses = ckernels.dimacs_clauses(*arrays)
    assert clauses == _kernels.pure_dimacs_clauses(*arrays)
    return clauses


def test_dimacs_clauses_identical_on_the_golden_instances(ckernels):
    # the instances whose pure text test_dimacs.py pins by digest
    instances = [encode(build_table(T7, DEMO_KEY))]
    base = hill_climb(31, seed=0)
    instances += [encode(build_table(base, key)) for key in admissible_keys(base)]
    for inst in instances:
        _same_clauses(ckernels, inst.search_arrays()[:6])


def test_dimacs_clauses_identical_on_every_group_size(ckernels):
    # the T13 keys with a weak set of 4 members, and T7's key-1 arrays with
    # an appended group of 0, 1 or 2 members (0, 0 and 3 clauses more)
    for key in (0, 1, 3, 8, 10, 11):
        inst = encode(build_table(T13, key))
        assert inst.trivially_unsat_reason
        _same_clauses(ckernels, inst.search_arrays()[:6])
    *head, scope_flat, scope_off, bind_sign, _ = \
        encode(build_table(T7, 1)).search_arrays()
    plain = _same_clauses(ckernels, (*head, scope_flat, scope_off, bind_sign))
    for group, more in (([], ()), ([0], ()), ([0, 2], ((-1, -7), (-2, -8), (-3, -9)))):
        arrays = (*head, [*scope_flat, *group],
                  [*scope_off, len(scope_flat) + len(group)], bind_sign)
        assert _same_clauses(ckernels, arrays) == plain + more


def test_splitmix_reference_values():
    # frozen expected values anchor the seeded streams
    assert _kernels.splitmix64(0) == 16294208416658607535
    assert _kernels.splitmix64(1) == 10451216379200822465
