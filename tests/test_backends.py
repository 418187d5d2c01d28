"""C/pure kernel agreement.

`_kernels.py` is the reference.  The C extension `_ckernels` replaces the
kernels `_kernels.COMPILED` names when built; the pure definitions stay
reachable as `_kernels.pure_*`.  These tests require the two to return
identical values, so a seed denotes the same starter, a pairing the same
report, a table the same instance, a search reports the same counts and an
instance has the same clauses and a document the same text on every
build.  The ``ckernels`` fixture (conftest.py) compiles the extension when
it is not importable or older than its source; the tests skip only when
there is no C compiler.
"""

import functools
import hashlib
import inspect
import itertools
import os
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tristarter import _kernels, build_table, encode, hill_climb, pair_sums, triplicate
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
    # every kernel of COMPILED is bound to its C twin, or every one to its
    # pure definition, as the flag says
    assert _kernels.BACKEND in ("compiled", "pure")
    compiled = _kernels.BACKEND == "compiled"
    for name in _kernels.COMPILED:
        pure = getattr(_kernels, "pure_" + name)
        assert (pure.__module__, pure.__name__) == (_kernels.__name__, name)
        assert (getattr(_kernels, name) is not pure) == compiled, name


def test_ckernels_defines_exactly_the_compiled_kernels(ckernels):
    public = {name for name, value in vars(ckernels).items()
              if callable(value) and not name.startswith("_")}
    assert public == set(_kernels.COMPILED)


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


@functools.cache
def _golden_tables():
    """Every key, forced and inadmissible ones included, of T7, of T13 (not
    strong: six of its keys give a weak set of four) and of the 16 order-31
    bases `hill_climb(31, seed=j)`."""
    bases = [T7, T13] + [hill_climb(31, seed=j) for j in range(16)]
    return [build_table(base, key) for base in bases for key in range(base.modulus)]


def test_pure_encode_table_golden_digest():
    # digest of the tables `model.encode` built before the encoder became a
    # kernel
    results = [_kernels.pure_encode_table(t.p, t.extension) for t in _golden_tables()]
    assert len(results) == 516
    assert hashlib.sha256(repr(results).encode()).hexdigest() == \
        "2aaaedba4d2fb732361dc7732cbddc20a48a1444e998026bca75ad0cf01b21e9"


def test_encode_identical_on_both_backends(ckernels, monkeypatch):
    # the kernels' tables, and the whole instance built on them, the
    # trivially-unsat reason included
    pure = [encode(t) for t in _golden_tables()]
    monkeypatch.setattr(_kernels, "encode_table", ckernels.encode_table)
    assert [encode(t) for t in _golden_tables()] == pure
    assert sum(inst.trivially_unsat_reason is not None for inst in pure) == 6


def test_encode_table_identical_on_random_extensions(ckernels):
    # any pairs in [0, p), so colors of 0 to 2k members and weak sets of
    # every size; each table is one `fd_search` accepts
    rng = random.Random(25)
    for _ in range(300):
        p = rng.randint(1, 40)
        extension = tuple((rng.randrange(p), rng.randrange(p))
                          for _ in range(3 * rng.randint(0, 12) + 1))
        got = ckernels.encode_table(p, extension)
        assert got == _kernels.pure_encode_table(p, extension)
        nvars, scope_flat, scope_off, bind_sign = got
        _kernels._validate(nvars, [], [], scope_flat, scope_off, bind_sign, ())


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


T7_EXTENSION = build_table(T7, 1).extension


def _with_pair(pair):
    """T7's key-1 extension with pair 3 replaced."""
    return (*T7_EXTENSION[:3], pair, *T7_EXTENSION[4:])


# (p, extension, message) of `encode_table`: the order, then the type and
# length, then the size bound, then the first malformed pair.
MALFORMED_TABLES = [
    *(pytest.param(p, T7_EXTENSION, rf"^p = {re.escape(repr(p))} is out of range$",
                   id=f"p={label}")
      for p, label in ((0, "0"), (True, "True"), (7.0, "7.0"), (2**70, "2**70"),
                       (_kernels.MAX_LEN + 1, "MAX_LEN+1"))),
    pytest.param(7, T7_EXTENSION[:-1], r"^extension has 9 pairs, not 3q \+ 1$",
                 id="9-pairs"),
    pytest.param(7, (), r"^extension has 0 pairs, not 3q \+ 1$", id="no-pairs"),
    pytest.param(_kernels.MAX_LEN - 100, T7_EXTENSION,
                 rf"^p \+ 10 \* len\(extension\) \+ 1 = {_kernels.MAX_LEN + 1} "
                 rf"exceeds {_kernels.MAX_LEN}$", id="too-large"),
    *(pytest.param(7, _with_pair(pair),
                   rf"^extension\[3\] = {re.escape(repr(pair))} is not a pair of "
                   r"ints in \[0, 7\)$", id=f"pair={label}")
      for pair, label in ((5, "int"), ([5, 7], "list"), ((5,), "one"),
                          ((5, 6, 0), "three"), ((True, 6), "bool"),
                          ((5, 6.0), "float"), ((5, 7), "7"), ((-1, 6), "-1"),
                          ((5, 2**70), "2**70"))),
]


@pytest.mark.parametrize("p, extension, message", MALFORMED_TABLES)
def test_encode_table_refuses_alike(kernel_backends, p, extension, message):
    errors = []
    for kernels in kernel_backends:
        with pytest.raises(ValueError, match=message) as error:
            kernels.encode_table(p, extension)
        errors.append((type(error.value), str(error.value)))
    assert len(set(errors)) == 1 and errors[0][0] is ValueError


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


def _literal_forms(clauses):
    """clauses with one int object per value (as `dimacs_clauses` makes
    them), and with a fresh object per occurrence above 256 (as
    `parse_dimacs_text` reads them)."""
    canonical = {}
    shared = tuple(tuple(canonical.setdefault(lit, lit) for lit in c) for c in clauses)
    fresh = tuple(tuple(int(str(lit)) for lit in c) for c in clauses)
    return shared, fresh


def test_dimacs_text_identical_whether_literal_objects_are_shared_or_not(ckernels):
    # one int object per value, as `dimacs_clauses` makes them, or a fresh
    # one per occurrence, as the parser reads them: the C writer reads every
    # literal by value; 4-digit literals, and every text parses and writes
    # back unchanged
    base = hill_climb(79, seed=1079)
    keys = admissible_keys(base)
    assert keys
    for key in keys:
        doc = export_dimacs(encode(build_table(base, key)))
        shared, fresh = _literal_forms(doc.clauses)
        assert len({id(lit) for c in shared for lit in c}) > 1024
        assert len({id(lit) for c in fresh for lit in c}) \
            > len({lit for c in fresh for lit in c})
        text = _same_text(ckernels, doc.num_ternary, shared)
        assert _same_text(ckernels, doc.num_ternary, fresh) == text
        assert doc.num_bools > 1000
        parsed = parse_dimacs_text(text)
        assert parsed == doc
        assert _same_text(ckernels, parsed.num_ternary, parsed.clauses) == text


# literals at +-num_bools, 5 digits with the sign: one clause of 10**5, and
# 10**4 clauses of 7; both texts are far longer than the C writer reserves
# up front, so it grows its buffer, and the last literal's 16-byte copy
# reaches past the text it writes
LONG_DOCUMENTS = {
    "one-long-clause": (334, ((1002, -1002) * 50_000,)),
    "many-clauses": (334, ((1002, -1002, 1002, -1002, 1002, -1002, 1002),) * 10_000),
}


@pytest.mark.parametrize("num_ternary, clauses", LONG_DOCUMENTS.values(), ids=LONG_DOCUMENTS)
def test_dimacs_text_identical_on_documents_longer_than_the_reservation(ckernels, num_ternary,
                                                                       clauses):
    text = _same_text(ckernels, num_ternary, clauses)
    assert len(text) > 400_000
    assert parse_dimacs_text(text) == CnfDocument(num_ternary, clauses)


def test_pure_dimacs_text_memory_is_linear_in_the_longest_clause():
    num_ternary, clauses = LONG_DOCUMENTS["one-long-clause"]
    tracemalloc.start()
    try:
        text = _kernels.pure_dimacs_text(num_ternary, clauses)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.endswith("\n" + "1002 -1002 " * 50_000 + "0\n")
    assert peak < 20 * 2 ** 20


def _after_every_literal(num_ternary, bad):
    """(num_ternary, clauses, message): a clause (b, -b) for every boolean
    b, then clause num_bools = (1, bad)."""
    b = 3 * num_ternary
    clauses = tuple((lit, -lit) for lit in range(1, b + 1)) + ((1, bad),)
    return num_ternary, clauses, f"clause {b}: literal {bad!r} is not a nonzero int in [-{b}, {b}]"


LATE_BAD_LITERALS = {
    "True-after-1": _after_every_literal(400, True),
    "zero": _after_every_literal(400, 0),
    "above": _after_every_literal(400, 1201),
    "below": _after_every_literal(400, -1201),
    "huge": _after_every_literal(400, 2 ** 64),
    "float": _after_every_literal(400, 1.0),
}


@pytest.mark.parametrize("form", ["shared", "fresh"])
@pytest.mark.parametrize("num_ternary, clauses, message",
                         list(LATE_BAD_LITERALS.values()), ids=list(LATE_BAD_LITERALS))
def test_dimacs_text_refuses_a_bad_literal_after_good_ones(kernel_backends, form,
                                                           num_ternary, clauses, message):
    # each value was read, checked and written before the bad literal comes;
    # the refusal still names the bad literal's own clause
    clauses = _literal_forms(clauses[:-1])[form == "fresh"] + clauses[-1:]
    for kernels in kernel_backends:
        with pytest.raises(ValueError) as error:
            kernels.dimacs_text(num_ternary, clauses)
        assert type(error.value) is ValueError and str(error.value) == message


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


def _distinct_bases(order, count):
    """The first ``count`` distinct `hill_climb(order, seed=j)`, j = 0, 1, ...,
    as sets of unordered pairs (the bases of sweep-p31 before relabelling)."""
    seen, bases = set(), []
    for j in itertools.count():
        base = hill_climb(order, seed=j)
        canon = tuple(sorted(tuple(sorted(pair)) for pair in base.pairs))
        if canon not in seen:
            seen.add(canon)
            bases.append(base)
            if len(bases) == count:
                return bases


@functools.cache
def _sweep_31():
    """`triplicate` of every admissible key of the first 16 distinct order-31
    bases: 240 SAT results."""
    return [triplicate(base, key)
            for base in _distinct_bases(31, 16) for key in admissible_keys(base)]


@functools.cache
def _golden_pairings():
    """(n, pairs) of every order-21 strong starter; of both merged starters
    of every admissible key of 16 order-31 bases (480 of order 93); and of
    1 000 seeded random pairings of odd order 3 to 61, half of them perfect
    matchings of 1 .. n - 1 (partitions) and half pairs drawn at random."""
    pairings = [(21, tuple(pairs))
                for pairs in _kernels.count_strong_starters(21, 6660)[1]]
    for result in _sweep_31():
        pairings += [(93, result.starter_a.pairs), (93, result.starter_b.pairs)]
    rng = random.Random(26)
    for i in range(1000):
        n = rng.randrange(3, 62, 2)
        if i % 2:
            perm = rng.sample(range(1, n), n - 1)
            pairs = tuple(zip(perm[0::2], perm[1::2]))
        else:
            pairs = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(n // 2))
        pairings.append((n, pairs))
    return pairings


def test_pure_pairing_report_golden_digest():
    # digest of the `verify_pairing` reports (is_partition, is_starter,
    # is_strong, pair_sums, diagnostics) before the check and the
    # verification became one kernel
    reports = [_kernels.pure_pairing_report(n, pairs) for n, pairs in _golden_pairings()]
    assert len(reports) == 8140
    assert [sum(r[i] for r in reports) for i in range(3)] == [7645, 7178, 7141]
    assert hashlib.sha256(repr(reports).encode()).hexdigest() == \
        "635c6dd4e3c2abf6fee4afa85d24a195d19a9f19ac72bc8e6a56cd6f1f7ee91c"


def test_pairing_report_identical_on_the_golden_pairings(ckernels):
    for n, pairs in _golden_pairings():
        report = ckernels.pairing_report(n, pairs)
        assert report == _kernels.pure_pairing_report(n, pairs)
        assert ckernels.pairing_report(n, list(pairs)) == report


def test_every_single_element_change_is_not_strong(kernel_backends):
    # a strong starter of order 93 holds each of 1 .. 92 once, so any other
    # value at any position is 0 or a duplicate
    base = hill_climb(31, seed=0)
    pairs = triplicate(base, admissible_keys(base)[0]).starter_a.pairs
    assert all(k.pairing_report(93, pairs)[2] for k in kernel_backends)
    changed = 0
    for i, j, value in itertools.product(range(46), range(2), range(93)):
        if value == pairs[i][j]:
            continue
        pair = (value, pairs[i][1]) if j == 0 else (pairs[i][0], value)
        variant = (*pairs[:i], pair, *pairs[i + 1:])
        reports = [k.pairing_report(93, variant) for k in kernel_backends]
        assert reports[0][:3] == (False, False, False)
        assert all(r == reports[0] for r in reports)
        changed += 1
    assert changed == 46 * 2 * 92


@pytest.mark.parametrize("pairs", [
    ((1, 1),) * 300,
    ((1, 1),) * 128 + tuple((2 * i, 2 * i + 1) for i in range(1, 173)),
], ids=["600-ones", "256-ones"])
def test_pairing_report_counts_past_255(kernel_backends, pairs):
    # element 1 occurs 600 or 256 times: a byte counter would wrap, and at
    # 256 read as if 1 were absent
    for kernels in kernel_backends:
        is_partition, is_starter, is_strong, sums, diagnostics = \
            kernels.pairing_report(601, pairs)
        assert (is_partition, is_starter, is_strong) == (False, False, False)
        assert sums == tuple((a + b) % 601 for a, b in pairs)
        assert diagnostics[:2] == ("duplicate element 1",
                                   "zero difference (pair with equal entries)")
        assert "repeated sum 2" in diagnostics
    assert len({k.pairing_report(601, pairs) for k in kernel_backends}) == 1


T7_PAIRS = ((2, 3), (4, 6), (1, 5))
BIG = 2**70


def _modulus_message(n):
    return f"modulus must be odd and in [3, {_kernels.MAX_LEN}], got {n!r}"


def _not_a_pair(name, i, pair, bound):
    """The one refusal of the pair reader of both backends."""
    return f"{name}[{i}] = {pair!r} is not a pair of ints in [0, {bound})"


# (n, pairs, message) of `pairing_report`: the order, the type of the
# pairs, their number, then the first malformed pair.  The malformed-pairs,
# length and range cases of test_starters.py are among them.
MALFORMED_PAIRINGS = [
    *(pytest.param(n, T7_PAIRS, _modulus_message(n), id=f"n={label}")
      for n, label in ((0, "0"), (1, "1"), (-7, "-7"), (8, "8"), (True, "True"),
                       (7.0, "7.0"), (BIG, "2**70"), (_kernels.MAX_LEN + 2, "MAX_LEN+2"))),
    *(pytest.param(7, pairs, f"pairs must be a list or tuple, got {pairs!r}",
                   id=f"pairs={label}")
      for pairs, label in ((None, "None"), (5, "5"), ("abc", "str"),
                           (frozenset({(1, 2)}), "frozenset"))),
    pytest.param(7, ((1, 2),), "pairing of order 7 must have 3 pairs, got 1", id="short"),
    pytest.param(7, T7_PAIRS * 2, "pairing of order 7 must have 3 pairs, got 6", id="long"),
    # a pair is a list or tuple of two: [4, 6] is read as (4, 6)
    *(pytest.param(7, ((2, 3), pair, (1, 5)), _not_a_pair("pairs", 1, pair, 7), id=label)
      for pair, label in ((4, "int-pair"), ([4, 7], "list-pair"), ((4,), "one"),
                          ((4, 6, 0), "three"))),
    *(pytest.param(7, ((2, 3), pair, (1, 5)), _not_a_pair("pairs", 1, pair, 7),
                   id=f"entry={label}")
      for pair, label in (((True, 6), "True"), ((4, False), "False"), ((4.0, 6), "float"),
                          (("4", 6), "str"), ((4, None), "None"), ((9, 6.0), "type-first"))),
    *(pytest.param(7, (pair, (4, 6), (1, 5)), _not_a_pair("pairs", 0, pair, 7),
                   id=f"range={label}")
      for pair, label in (((1, 7), "7"), ((7, 1), "7-first"), ((1, -1), "-1"),
                          ((-1, 1), "-1-first"), ((BIG, 2), "2**70"),
                          ((2, -BIG), "-2**70"), ((2**63, 2), "2**63"),
                          ((2**64 + 1, 2), "2**64+1"))),
    pytest.param(7, ((2, 7), (4.0, 6), (1,)), _not_a_pair("pairs", 0, (2, 7), 7),
                 id="first-pair-first"),
]


@pytest.mark.parametrize("n, pairs, message", MALFORMED_PAIRINGS)
def test_pairing_report_refuses_alike(kernel_backends, n, pairs, message):
    # the kernels refuse with ValueError; `errors.from_kernel` makes it the
    # user's StructuralError (test_starters.py)
    for kernels in kernel_backends:
        with pytest.raises(ValueError) as error:
            kernels.pairing_report(n, pairs)
        assert type(error.value) is ValueError and str(error.value) == message


def test_pairing_report_follows_the_backend_flag():
    compiled = _kernels.BACKEND == "compiled"
    assert compiled == (_kernels.pairing_report is not _kernels.pure_pairing_report)


def test_merged_starters_golden_digest():
    # digest of both merged starters of every sweep key, taken while the
    # merge still lifted each pair in Python
    merged = [(r.starter_a.pairs, r.starter_b.pairs) for r in _sweep_31()]
    assert len(merged) == 240
    assert hashlib.sha256(repr(merged).encode()).hexdigest() == \
        "03a72a67de482e6a347e9a15d641b21100b916daab397547ec4b6cf76da06dc4"


@functools.cache
def _merge_cases():
    """(p, extension, solution) of `merge_pairs`: the table and SAT solution
    of every sweep key, then 10 seeded random ternary solutions, half of
    them only the 2k U and V as a list, for each of the first (up to) five
    admissible keys of a base of each of p = 7, 11, 13 and 79."""
    cases = [(31, r.instance.table.extension, r.solution) for r in _sweep_31()]
    rng = random.Random(29)
    for p in (7, 11, 13, 79):
        base = hill_climb(p, seed=p)
        for key in admissible_keys(base)[:5]:
            extension = build_table(base, key).extension
            for i in range(10):
                solution = [rng.randrange(3) for _ in range(2 * len(extension) + 3 * (i % 2))]
                cases.append((p, extension, tuple(solution) if i % 2 else solution))
    return cases


def test_merge_pairs_identical_on_sweep_and_random_solutions(kernel_backends):
    for p, extension, solution in _merge_cases():
        merged, phi = results = kernel_backends[0].merge_pairs(p, extension, solution)
        assert all(k.merge_pairs(p, extension, solution) == results
                   for k in kernel_backends[1:])
        for i, (a, b) in enumerate(extension):
            u, v = solution[2 * i], solution[2 * i + 1]
            assert [x % p for x in merged[i] + phi[i]] == [a, b, a, b]
            assert [x % 3 for x in merged[i] + phi[i]] == [u, v, -u % 3, -v % 3]
            assert all(0 <= x < 3 * p for x in merged[i] + phi[i])


def test_merge_pairs_reads_only_u_and_v(kernel_backends):
    p, extension, solution = _merge_cases()[0]
    k = len(extension)
    for kernels in kernel_backends:
        assert kernels.merge_pairs(p, extension, list(solution[:2 * k]) + [None, "x"]) == \
            kernels.merge_pairs(p, extension, solution)
        assert kernels.merge_pairs(7, (), ()) == ((), ())


def _with_uv(index, value):
    """The 20 U and V values of T7's extension, all 0 but entry ``index``."""
    uv = [0] * 20
    uv[index] = value
    return tuple(uv)


# (p, extension, solution, message) of `merge_pairs`: the order, the types
# of the extension and the solution, the solution's length, then every
# extension pair, then every U and V in order.
MALFORMED_MERGES = [
    *(pytest.param(p, T7_EXTENSION, (0,) * 20,
                   f"p must be coprime to 3 and in [1, {_kernels.MAX_LEN}], got {p!r}",
                   id=f"p={label}")
      for p, label in ((0, "0"), (-7, "-7"), (3, "3"), (21, "21"), (True, "True"),
                       (7.0, "7.0"), (BIG, "2**70"), (_kernels.MAX_LEN + 1, "MAX_LEN+1"))),
    *(pytest.param(7, ext, (0,) * 20, f"extension must be a list or tuple, got {ext!r}",
                   id=f"extension={label}")
      for ext, label in ((None, "None"), (5, "5"), ("abc", "str"),
                         (frozenset({(1, 2)}), "frozenset"))),
    *(pytest.param(7, T7_EXTENSION, sol, f"solution must be a list or tuple, got {sol!r}",
                   id=f"solution={label}")
      for sol, label in ((None, "None"), ("0" * 20, "str"), (range(20), "range"),
                         (bytes(20), "bytes"))),
    pytest.param(7, 5, None, "extension must be a list or tuple, got 5",
                 id="extension-first"),
    pytest.param(7, T7_EXTENSION, (0,) * 19,
                 "solution has 19 entries, fewer than the 20 of U and V", id="short"),
    pytest.param(7, [(1, 2)] * 3, [], "solution has 0 entries, fewer than the 6 of U and V",
                 id="empty"),
    *(pytest.param(7, _with_pair(pair), (0,) * 20,
                   _not_a_pair("extension", 3, pair, 7), id=f"pair={label}")
      for pair, label in ((5, "int"), ([5, 7], "list"), ((5,), "one"),
                          ((5, 6, 0), "three"), ((True, 6), "bool"),
                          ((5, 6.0), "float"), ((5, 7), "7"), ((-1, 6), "-1"),
                          ((5, 2**70), "2**70"))),
    *(pytest.param(7, T7_EXTENSION, _with_uv(index, value),
                   f"solution[{index}] = {value!r} is outside [0, 3)",
                   id=f"{'UV'[index % 2]}={label}")
      for index, value, label in ((6, 3, "3"), (6, -1, "-1"), (6, True, "True"),
                                  (6, 1.0, "1.0"), (6, None, "None"), (6, BIG, "2**70"),
                                  (7, 3, "3"), (7, False, "False"), (7, -BIG, "-2**70"))),
    pytest.param(7, _with_pair((5, 7)), _with_uv(6, 3),
                 "extension[3] = (5, 7) is not a pair of ints in [0, 7)", id="pair-before-U"),
    pytest.param(7, _with_pair((5, 7)), _with_uv(5, 3),
                 "extension[3] = (5, 7) is not a pair of ints in [0, 7)",
                 id="pairs-before-an-earlier-V"),
    pytest.param(7, T7_EXTENSION, (0, 0, 0, 0, 0, 0, 9, 9, *(0,) * 12),
                 "solution[6] = 9 is outside [0, 3)", id="U-before-V"),
]


@pytest.mark.parametrize("p, extension, solution, message", MALFORMED_MERGES)
def test_merge_pairs_refuses_alike(kernel_backends, p, extension, solution, message):
    # `assembly` reaches the kernel through `errors.from_kernel`, which
    # makes the ValueError a StructuralError
    for kernels in kernel_backends:
        with pytest.raises(ValueError) as error:
            kernels.merge_pairs(p, extension, solution)
        assert type(error.value) is ValueError and str(error.value) == message


# Arguments of the pair-list kernels, mostly well formed: an order, then a
# list or tuple of pairs, each a list or tuple, of which one may be
# replaced by anything a pair reader must refuse.  An order past 15 is one
# the kernels refuse at once: a table of order MAX_LEN takes gigabytes.
_ORDERS = st.one_of(st.integers(1, 15), st.sampled_from(
    [0, -7, True, 7.0, _kernels.MAX_LEN + 1, 2**63, 2**70]))
_ENTRIES = st.one_of(st.integers(-2, 16), st.integers(), st.booleans(),
                     st.floats(-2, 16), st.none())
_NON_PAIRS = st.one_of(_ENTRIES, st.lists(_ENTRIES, max_size=3),
                       st.lists(_ENTRIES, max_size=3).map(tuple))


@st.composite
def _pair_lists(draw, bound, sizes):
    small = st.integers(0, max(bound - 1, 0)) if type(bound) is int else st.integers(0, 7)
    pair = st.one_of(st.tuples(small, small), st.lists(small, min_size=2, max_size=2))
    size = draw(sizes)
    pairs = draw(st.lists(pair, min_size=size, max_size=size))
    if pairs and draw(st.booleans()):
        pairs[draw(st.integers(0, len(pairs) - 1))] = draw(_NON_PAIRS)
    return pairs if draw(st.booleans()) else tuple(pairs)


def _outcomes_alike(ckernels, name, *args):
    """The C and the pure kernel ``name`` return the same value on ``args``,
    or raise the same `ValueError`; any other exception fails the test."""
    outcomes = []
    for kernel in (getattr(_kernels, "pure_" + name), getattr(ckernels, name)):
        try:
            outcomes.append(("returned", kernel(*args)))
        except ValueError as exc:
            outcomes.append(("refused", str(exc)))
    assert outcomes[0] == outcomes[1], (name, args)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_pairing_report_alike_on_random_pairings(ckernels, data):
    n = data.draw(st.sampled_from(range(3, 16, 2)) | _ORDERS)
    half = (n - 1) // 2 if type(n) is int and 3 <= n <= 15 else 3
    pairs = data.draw(_pair_lists(n, st.one_of(st.just(half), st.integers(0, 8))))
    _outcomes_alike(ckernels, "pairing_report", n, pairs)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_encode_table_alike_on_random_extensions(ckernels, data):
    p = data.draw(st.sampled_from(range(1, 16)) | _ORDERS)
    extension = data.draw(_pair_lists(p, st.one_of(st.sampled_from([1, 4, 7, 10]),
                                                   st.integers(0, 11))))
    _outcomes_alike(ckernels, "encode_table", p, extension)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_merge_pairs_alike_on_random_merges(ckernels, data):
    p = data.draw(st.sampled_from([x for x in range(1, 16) if x % 3]) | _ORDERS)
    extension = data.draw(_pair_lists(p, st.integers(0, 7)))
    k = len(extension)
    values = st.integers(0, 2)
    solution = data.draw(st.lists(values, min_size=2 * k, max_size=2 * k + 2)
                         | st.lists(values, max_size=2 * k))
    if solution and data.draw(st.booleans()):
        solution[data.draw(st.integers(0, len(solution) - 1))] = data.draw(_ENTRIES)
    solution = solution if data.draw(st.booleans()) else tuple(solution)
    _outcomes_alike(ckernels, "merge_pairs", p, extension, solution)


_T7_DOC = export_dimacs(encode(build_table(T7, 1)))
# A well-formed argument tuple of each kernel of `COMPILED`.
VALID_CALLS = {"pairing_report": (7, T7_PAIRS), "encode_table": (7, T7_EXTENSION),
               "fd_search": (NVARS, *T7_ARRAYS, 0, 1, 0, 0),
               "count_strong_starters": (7, 0), "dimacs_clauses": (NVARS, *T7_ARRAYS[:5]),
               "dimacs_text": (_T7_DOC.num_ternary, _T7_DOC.clauses),
               "merge_pairs": (7, T7_EXTENSION, (0,) * 20)}


# Everything a kernel must refuse as a sequence: made anew for each call,
# so a generator is unread when the next backend gets it.
NOT_SEQUENCES = {"None": lambda: None, "set": lambda: {(1, 2)},
                 "generator": lambda: (x for x in ()), "range": lambda: range(3)}


def _sequence_arguments():
    """(kernel, argument index, argument name) of every list or tuple in
    the valid calls of the kernels of `COMPILED`."""
    assert set(VALID_CALLS) == set(_kernels.COMPILED)
    for name in _kernels.COMPILED:
        params = list(inspect.signature(getattr(_kernels, "pure_" + name)).parameters)
        for i, arg in enumerate(VALID_CALLS[name]):
            if type(arg) in (list, tuple):
                yield name, i, params[i]


@pytest.mark.parametrize("kind", NOT_SEQUENCES)
@pytest.mark.parametrize("name, index, param", list(_sequence_arguments()), ids=str)
def test_every_sequence_argument_refuses_what_is_not_a_list_or_tuple(
        kernel_backends, name, index, param, kind):
    # one rule on both backends; the clauses of dimacs_text must be a tuple
    args = list(VALID_CALLS[name])
    for kernels in kernel_backends:
        args[index] = bad = NOT_SEQUENCES[kind]()
        expected = (f"clauses must be a tuple, got {type(bad).__name__}"
                    if name == "dimacs_text" else f"{param} must be a list or tuple, got {bad!r}")
        with pytest.raises(ValueError) as error:
            getattr(kernels, name)(*args)
        assert type(error.value) is ValueError and str(error.value) == expected


def test_splitmix_reference_values():
    # frozen expected values anchor the seeded streams
    assert _kernels.splitmix64(0) == 16294208416658607535
    assert _kernels.splitmix64(1) == 10451216379200822465
