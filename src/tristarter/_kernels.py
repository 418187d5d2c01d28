"""Hot kernels: hill climbing, exhaustive enumeration, the check and
verification of a pairing, the encoder of a triplication table, ternary FD
search, the CRT merge of a solution, the DIMACS clause builder and the
DIMACS text writer.

This module is the reference implementation of all eight.  `COMPILED`
names the kernels with a C twin: when the C extension `_ckernels` (built
by `setup.py`) imports and defines every one of them, its versions replace
the ones defined here, which stay reachable as ``pure_<name>``; the two
return exactly the same values and raise the same errors.  The hill
climber always runs as Python.  `KERNELS` names all eight.

The kernels of `COMPILED` have one contract.  They refuse only with
`ValueError`, with the same message on both backends; the package calls
them through `errors.from_kernel`, which raises that refusal as a
`StructuralError`.  Every int they check passes one rule (`exact_int` in
C), an exact int, not a bool, in its range: the order and each pair member
of `pairing_report` and `encode_table`, ``nvars``, each array entry (a
variable id in [0, nvars), a value in [0, 3), a binding sign in [-1, 2),
since -1, 0 and 1 cover every sign mod 3), the order of
`count_strong_starters`, the ``num_ternary`` and literals of
`dimacs_text`, and the order (coprime to 3), each extension pair member
and each U and V value of `merge_pairs`.  `MAX_LEN` bounds every size.
`fd_search` and `dimacs_clauses` check their arguments once, in
`_validate` (`load_arrays` in C).  The callers check the rest, the
search-control scalars and that the arrays are lists or tuples, as
`solver.SolverConfig` and `starters.enumerate_strong_starters` do.

`pairing_report` is the one check of a `starters.Pairing`'s pairs and its
one verification; `encode_table` is where the variable numbering and
constraint order of `model.encode` are built, and `dimacs_clauses` is
where the one-hot numbering and the clause order of `dimacs.export_dimacs`
live.  `merge_pairs` is the CRT lift of `assembly`'s merges, of a solution
and of its phi image in one call.
"""

import itertools

# Largest order, nvars, num_ternary and array length (MAX_LEN in the C
# kernels): small enough that every index and count of the C kernels fits
# in int32.
MAX_LEN = (2**31 - 1) // 4
# singleton-value table for 3-bit domain masks
_SINGLE = (-1, 0, 1, -1, 2, -1, -1, -1)
# the values in each 3-bit domain mask, ascending
_VALUES = tuple(tuple(v for v in range(3) if m >> v & 1) for m in range(8))


def splitmix64(seed):
    """One splitmix64 scramble; never returns 0."""
    z = (seed + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    z = z ^ (z >> 31)
    if z == 0:
        z = 0x9E3779B97F4A7C15
    return z


def hill_climb_pairs(n, seed, max_steps):
    """Randomized construction of a strong starter of order ``n``.

    Keeps a partial pairing whose difference classes are distinct and whose
    sums are distinct and nonzero.  Each step draws a random uncovered
    element x and a random currently-free sum s and proposes the pair
    (x, (s - x) mod n), which by construction cannot clash on sums: it is
    added outright when nothing blocks it, or swapped in for the single
    pair blocking it (the partner's pair or the difference-class owner).
    Proposals blocked by two distinct pairs are normally skipped so the
    placed count never decreases; after 8n steps without a conflict-free
    addition they are accepted as a perturbation until progress resumes
    (pure single-replacement strands small orders on disconnected
    plateaus).  Deterministic for fixed ``(n, seed)`` (private xorshift64*
    stream, no libc / random module involved).

    Returns a list of ``(a, b)`` pairs, or ``None`` if ``max_steps`` runs
    out.  The caller validates ``n``.
    """
    q = (n - 1) // 2
    partner = [-1] * n
    diff_owner = [-1] * (q + 1)  # difference class 1..q -> one endpoint
    unused = list(range(1, n))
    upos = [0] * n
    free_sums = list(range(1, n))
    spos = [0] * n
    i = 0
    while i < n - 1:
        upos[unused[i]] = i
        spos[free_sums[i]] = i
        i += 1

    state = splitmix64((seed & 0xFFFFFFFFFFFFFFFF) * 0x10001 + n)
    gate = 8 * n
    stall = 0
    steps = 0
    while True:
        m = len(unused)
        if m == 0:
            result = []
            x = 1
            while x < n:
                y = partner[x]
                if y > x:
                    result.append((x, y))
                x += 1
            return result
        if steps >= max_steps:
            return None
        steps += 1

        state ^= state >> 12
        state = (state ^ (state << 25)) & 0xFFFFFFFFFFFFFFFF
        state ^= state >> 27
        x = unused[((state * 0x2545F4914F6CDD1D) & 0xFFFFFFFFFFFFFFFF) % m]
        state ^= state >> 12
        state = (state ^ (state << 25)) & 0xFFFFFFFFFFFFFFFF
        state ^= state >> 27
        s = free_sums[((state * 0x2545F4914F6CDD1D) & 0xFFFFFFFFFFFFFFFF) % len(free_sums)]
        y = (s - x) % n
        if y == x or y == 0:
            continue
        d = (x - y) % n
        if d > q:
            d = n - d

        # distinct blocking pairs, keyed by their smaller endpoint
        k1 = -1
        if partner[y] != -1:
            k1 = y if y < partner[y] else partner[y]
        k2 = -1
        owner = diff_owner[d]
        if owner != -1:
            k2 = owner if owner < partner[owner] else partner[owner]
        if k1 != -1 and k2 != -1 and k1 != k2:
            if stall <= gate:
                stall += 1
                continue
            _drop_pair(n, q, k1, partner, diff_owner,
                       unused, upos, free_sums, spos)
            _drop_pair(n, q, k2, partner, diff_owner,
                       unused, upos, free_sums, spos)
            stall += 1
        elif k1 != -1 or k2 != -1:
            _drop_pair(n, q, k1 if k1 != -1 else k2, partner, diff_owner,
                       unused, upos, free_sums, spos)
            stall += 1
        else:
            stall = 0

        partner[x] = y
        partner[y] = x
        diff_owner[d] = x
        _remove_swap(x, unused, upos)
        _remove_swap(y, unused, upos)
        _remove_swap(s, free_sums, spos)


def _remove_swap(x, arr, pos):
    i = pos[x]
    last = arr[len(arr) - 1]
    arr[i] = last
    pos[last] = i
    arr.pop()


def _drop_pair(n, q, a, partner, diff_owner, unused, upos, free_sums, spos):
    b = partner[a]
    partner[a] = -1
    partner[b] = -1
    d = (a - b) % n
    if d > q:
        d = n - d
    diff_owner[d] = -1
    s = (a + b) % n
    spos[s] = len(free_sums)
    free_sums.append(s)
    upos[a] = len(unused)
    unused.append(a)
    upos[b] = len(unused)
    unused.append(b)


def count_strong_starters(n, cap):
    """Exhaustive backtracking count of labeled strong starters of order n.

    Pairings are counted as sets of unordered pairs: the search always pairs
    the smallest unused element, pruning on reused difference classes and on
    zero/reused sums.  Returns ``(count, collected)`` where ``collected``
    holds up to ``cap`` starters as pair lists (``cap <= 0`` collects none).
    Raises `ValueError` unless ``n`` is an int (not a bool), odd and in
    [1, `MAX_LEN`]; ``cap`` is the caller's to check.
    """
    if type(n) is not int or not 1 <= n <= MAX_LEN or n % 2 == 0:
        raise ValueError(f"order must be odd and positive, got {n!r}")
    q = (n - 1) // 2
    used = bytearray(n)
    diff_used = bytearray(q + 1)
    sum_used = bytearray(n)
    stack_a = [0] * (q + 1)
    stack_b = [0] * (q + 1)
    count = 0
    collected = []

    depth = 0
    cur_a = 1
    cur_b = 1  # incremented before each test
    while True:
        cur_b += 1
        if cur_b >= n:
            # exhausted partners for cur_a: backtrack
            depth -= 1
            if depth < 0:
                return count, collected
            cur_a = stack_a[depth]
            cur_b = stack_b[depth]
            used[cur_a] = 0
            used[cur_b] = 0
            d = cur_b - cur_a
            if d > q:
                d = n - d
            diff_used[d] = 0
            sum_used[(cur_a + cur_b) % n] = 0
            continue
        if used[cur_b]:
            continue
        d = cur_b - cur_a
        if d > q:
            d = n - d
        if diff_used[d]:
            continue
        s = (cur_a + cur_b) % n
        if s == 0 or sum_used[s]:
            continue

        if depth == q - 1:
            count += 1
            if cap > 0 and len(collected) < cap:
                pairs = []
                i = 0
                while i < depth:
                    pairs.append((stack_a[i], stack_b[i]))
                    i += 1
                pairs.append((cur_a, cur_b))
                collected.append(pairs)
            continue  # leaf: keep scanning partners for cur_a

        stack_a[depth] = cur_a
        stack_b[depth] = cur_b
        used[cur_a] = 1
        used[cur_b] = 1
        diff_used[d] = 1
        sum_used[s] = 1
        depth += 1
        # next smallest unused element
        cur_a += 1
        while used[cur_a]:
            cur_a += 1
        cur_b = cur_a


def _repeated(values):
    """The values that occur more than once, ascending."""
    seen = set()
    dup = set()
    for x in values:
        if x in seen:
            dup.add(x)
        seen.add(x)
    return sorted(dup)


def pairing_report(n, pairs):
    """Check a pairing of order ``n`` and verify it against the partition,
    starter and strong-starter definitions in one call.

    Returns ``(is_partition, is_starter, is_strong, pair_sums,
    diagnostics)``, the fields of `starters.VerificationReport`: the sums
    (a + b) mod n in pair order, and a tuple of strings naming each
    violation, in this order: the duplicate elements ascending, element 0,
    a zero difference, the missing differences (listed when the signed
    differences repeat), the repeated sums ascending, a zero sum.

    Raises `ValueError`, checking in this order, unless ``n`` is an int
    (not a bool), odd and in [1, `MAX_LEN`], ``pairs`` is a list or tuple
    of (n - 1) / 2 pairs; then names the first pair that is not a tuple of
    two, has an entry that is not an int (not a bool), or has an entry
    outside [0, n).
    """
    if type(n) is not int or not 1 <= n <= MAX_LEN or n % 2 == 0:
        raise ValueError(f"modulus must be odd and in [1, {MAX_LEN}], got {n!r}")
    if type(pairs) is not tuple and type(pairs) is not list:
        raise ValueError(f"pairs must be a sequence of pairs, got {pairs!r}")
    expect_len = (n - 1) // 2
    if len(pairs) != expect_len:
        raise ValueError(
            f"pairing of order {n} must have {expect_len} pairs, got {len(pairs)}")
    for i, pair in enumerate(pairs):
        if type(pair) is not tuple or len(pair) != 2:
            raise ValueError(f"pair {i} is not a pair: {pair!r}")
        a, b = pair
        if not (type(a) is int and type(b) is int):   # bool is refused too
            raise ValueError(f"pair {i} has non-integer entries: {pair!r}")
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"pair {i} entry out of range [0, {n}): {pair!r}")

    # Repeats are found by comparing set sizes; the repeated values are
    # listed only when there are some.
    diagnostics = []
    elements = [x for pair in pairs for x in pair]
    element_set = set(elements)
    dup = len(element_set) != len(elements)
    if dup:
        diagnostics.extend(f"duplicate element {x}" for x in _repeated(elements))
    if 0 in element_set:
        diagnostics.append("element 0 present")
    is_partition = not dup and 0 not in element_set

    diff_set = ({(a - b) % n for a, b in pairs}
                | {(b - a) % n for a, b in pairs})
    zero_diff = 0 in diff_set
    if zero_diff:
        diagnostics.append("zero difference (pair with equal entries)")
    repeated = len(diff_set) != n - 1   # the 2k signed differences are not distinct
    if repeated or zero_diff:
        missing = sorted(set(range(1, n)) - diff_set)
        if missing:
            diagnostics.append("missing differences " + ", ".join(map(str, missing)))
    is_starter = is_partition and not zero_diff and not repeated

    sums = tuple([(a + b) % n for a, b in pairs])
    sum_set = set(sums)
    sum_dup = len(sum_set) != len(sums)
    if sum_dup:
        diagnostics.extend(f"repeated sum {s}" for s in _repeated(sums))
    if 0 in sum_set:
        diagnostics.append("zero sum")
    is_strong = is_starter and not sum_dup and 0 not in sum_set
    return is_partition, is_starter, is_strong, sums, tuple(diagnostics)


def merge_pairs(p, extension, solution):
    """The CRT merges of a triplication table's extension of order ``p``
    with the (U, V) part of a solution and with its phi image: the pairs of
    both merged starters of order 3p, as two tuples of pairs.

    For extension pair i = (a, b), with U_i = ``solution[2i]`` and V_i =
    ``solution[2i + 1]``, pair i of the first tuple is (x, y), the x in
    [0, 3p) with x = a (mod p) and x = U_i (mod 3) and the y with y = b
    (mod p) and y = V_i (mod 3); pair i of the second lifts -U_i and -V_i
    mod 3 instead (phi, `model.PHI`).  Since p * p = 1 (mod 3), the lift of
    (r, s) is r + p * ((s - r) * p mod 3), the closed form of `assembly.crt`.

    Raises `ValueError`, checking in this order, unless ``p`` is an int
    (not a bool) in [1, `MAX_LEN`] coprime to 3, ``extension`` and
    ``solution`` are lists or tuples, and ``solution`` has at least
    2 * len(``extension``) entries; then, for each i in turn, names
    extension pair i if it is not a tuple of two ints (not bools) in
    [0, ``p``), then U_i, then V_i if it is not an int (not a bool) in
    {0, 1, 2}.  The entries after the U and V are not read.
    """
    if type(p) is not int or not 1 <= p <= MAX_LEN or p % 3 == 0:
        raise ValueError(f"p must be coprime to 3 and in [1, {MAX_LEN}], got {p!r}")
    for name, seq in (("extension", extension), ("solution", solution)):
        if type(seq) is not tuple and type(seq) is not list:
            raise ValueError(f"{name} must be a list or tuple, got {seq!r}")
    if len(solution) < 2 * len(extension):
        raise ValueError(f"solution has {len(solution)} entries, fewer than the "
                         f"{2 * len(extension)} of U and V")
    pairs_a = []
    pairs_b = []
    for i, pair in enumerate(extension):
        if not (type(pair) is tuple and len(pair) == 2
                and type(pair[0]) is int and type(pair[1]) is int
                and 0 <= pair[0] < p and 0 <= pair[1] < p):
            raise ValueError(f"extension[{i}] = {pair!r} is not a pair of ints "
                             f"in [0, {p})")
        for j in (2 * i, 2 * i + 1):
            if type(solution[j]) is not int or not 0 <= solution[j] < 3:
                raise ValueError(f"solution[{j}] = {solution[j]!r} is outside [0, 3)")
        a, b = pair
        u = solution[2 * i]
        v = solution[2 * i + 1]
        pairs_a.append((a + p * ((u - a) * p % 3), b + p * ((v - b) * p % 3)))
        pairs_b.append((a + p * ((-u - a) * p % 3), b + p * ((-v - b) * p % 3)))
    return tuple(pairs_a), tuple(pairs_b)


def luby(i):
    """Term i (from 0) of the Luby sequence 1, 1, 2, 1, 1, 2, 4, 1, ..."""
    size, power = 1, 0
    while size < i + 1:           # the smallest 2^k - 1 covering term i
        size = 2 * size + 1
        power += 1
    while size - 1 != i:          # descend into the repeated left half
        size //= 2
        power -= 1
        i %= size
    return 1 << power


def shuffled(order, state):
    """A Fisher-Yates shuffle of ``order`` drawn from the xorshift64* stream
    of `hill_climb_pairs` at ``state``: ``(new list, new state)``."""
    out = list(order)
    i = len(out) - 1
    while i > 0:
        state ^= state >> 12
        state = (state ^ (state << 25)) & 0xFFFFFFFFFFFFFFFF
        state ^= state >> 27
        j = ((state * 0x2545F4914F6CDD1D) & 0xFFFFFFFFFFFFFFFF) % (i + 1)
        out[i], out[j] = out[j], out[i]
        i -= 1
    return out, state


def weak_sets(p, extension):
    """The weak sets of an extension of order ``p``: its pair indices by
    pair sum mod ``p``, sums ascending, each set kept when its sum is 0 or
    it has two or more members, as ``{sum: [index, ...]}``."""
    by_sum = [[] for _ in range(p)]
    for i, (u, v) in enumerate(extension):
        by_sum[(u + v) % p].append(i)
    return {total: members for total, members in enumerate(by_sum)
            if len(members) > 1 or (total == 0 and members)}


def encode_table(p, extension):
    """The constraint table of a triplication table of order ``p``: the
    layout `model` documents, as ``(num_variables, scope_flat, scope_off,
    bind_sign)``, the first four of `fd_search`'s array arguments.

    Raises `ValueError`, checking in this order, unless ``p`` is an int
    (not a bool) in [1, `MAX_LEN`], ``extension`` holds 3q + 1 pairs, and
    ``p + 10 * len(extension) + 1``, a bound on the length of every list
    returned, is at most `MAX_LEN`; then names the first pair that is not a
    tuple of two ints (not bools) in [0, ``p``).  Groups wider than three
    are returned as they are; `model.encode` names them.
    """
    if type(p) is not int or not 1 <= p <= MAX_LEN:
        raise ValueError(f"p = {p!r} is out of range")
    k = len(extension)
    if k % 3 != 1:
        raise ValueError(f"extension has {k} pairs, not 3q + 1")
    if p + 10 * k + 1 > MAX_LEN:
        raise ValueError(f"p + 10 * len(extension) + 1 = {p + 10 * k + 1} "
                         f"exceeds {MAX_LEN}")
    for i, pair in enumerate(extension):
        if type(pair) is tuple and len(pair) == 2:
            u, v = pair
            if type(u) is int and type(v) is int and 0 <= u < p and 0 <= v < p:
                continue
        raise ValueError(f"extension[{i}] = {pair!r} is not a pair of ints "
                         f"in [0, {p})")
    weak = weak_sets(p, extension)
    s_pairs = sorted(itertools.chain.from_iterable(weak.values()))
    s_ids = {i: 3 * k + j for j, i in enumerate(s_pairs)}
    z_id = 3 * k + len(s_pairs)

    # Binding j is (U_i, V_i, D_i) for i = j < k, then (U_i, V_i, S_i) per
    # weak pair i.
    uv = [2 * i for i in range(k)] + [2 * i for i in s_pairs]
    scope_flat = [0] * (3 * len(uv))
    scope_flat[0::3] = uv
    scope_flat[1::3] = [u + 1 for u in uv]
    scope_flat[2::3] = range(2 * k, z_id)
    bind_sign = [-1] * k + [1] * len(s_pairs)

    # Row r holds D_{3r-2}, D_{3r-1}, D_{3r}, so the rows are D_1 .. D_{k-1}.
    scope_flat += range(2 * k + 1, 3 * k)
    scope_off = list(range(0, len(scope_flat) + 1, 3))   # all three wide so far
    groups = [[s_ids[i] for i in members] + ([z_id] if total == 0 else [])
              for total, members in weak.items()]
    # Color c holds U_i / V_i for every extension position (i, 0) / (i, 1)
    # with value c, in extension order.
    colors = [[] for _ in range(p)]
    for i, (u, v) in enumerate(extension):
        colors[u].append(2 * i)
        colors[v].append(2 * i + 1)
    colors[0].append(z_id)
    groups.extend(colors)
    for g in groups:
        scope_flat.extend(g)
        scope_off.append(len(scope_flat))
    return z_id + 1, scope_flat, scope_off, bind_sign


def _validate(nvars, fixed_vars, fixed_vals, scope_flat, scope_off, bind_sign,
              order):
    """Check each argument once, as the C kernels' `load_arrays` does, in
    the same order and with the same `ValueError` messages: ``nvars``, then
    each array's length and entries in argument order, then the checks that
    span whole arrays."""
    if type(nvars) is not int or not 0 <= nvars <= MAX_LEN:
        raise ValueError(f"nvars = {nvars!r} is out of range")
    for name, xs, lo, hi in (
            ("fixed_vars", fixed_vars, 0, nvars), ("fixed_vals", fixed_vals, 0, 3),
            ("scope_flat", scope_flat, 0, nvars),
            ("scope_off", scope_off, 0, len(scope_flat) + 1),
            ("bind_sign", bind_sign, -1, 2), ("order", order, 0, nvars)):
        if len(xs) > MAX_LEN:
            raise ValueError(f"{name} is too long ({len(xs)} items)")
        for i, x in enumerate(xs):
            if type(x) is not int or not lo <= x < hi:
                raise ValueError(f"{name}[{i}] = {x!r} is outside [{lo}, {hi})")
    if len(fixed_vals) != len(fixed_vars):
        raise ValueError(f"fixed_vals has {len(fixed_vals)} entries, "
                         f"fixed_vars {len(fixed_vars)}")
    if not scope_off:
        raise ValueError("scope_off is empty")
    nb, ncons = len(bind_sign), len(scope_off) - 1
    if nb > ncons:
        raise ValueError(f"bind_sign has {nb} entries for {ncons} constraints")
    for i in range(1, len(scope_off)):
        if scope_off[i] < scope_off[i - 1]:
            raise ValueError(f"scope_off decreases at index {i}")
    for c in range(nb):
        if scope_off[c] != 3 * c or scope_off[c + 1] != 3 * c + 3:
            raise ValueError(f"binding {c} is not three wide at offset {3 * c}")
    for c in range(ncons):
        members = scope_flat[scope_off[c]:scope_off[c + 1]]
        if len(set(members)) < len(members):
            raise ValueError(f"constraint {c} repeats a variable")


def fd_search(nvars, fixed_vars, fixed_vals, scope_flat, scope_off, bind_sign,
              order, budget, cap, seed, unit):
    """Restarted backtracking over {0,1,2} domains with propagation.

    Constraint ``cid`` names the distinct variables
    ``scope_flat[scope_off[cid]:scope_off[cid + 1]]``.  The first
    ``len(bind_sign)`` constraints are ternary bindings, three wide from
    offset 0: binding ``cid`` is ``(a, b, c) = scope_flat[3 * cid:3 * cid +
    3]`` with ``(a + bind_sign[cid] * b - c) % 3 == 0``.  The rest are
    all-different groups.  A domain shrink queues its variable's constraint
    ids in ascending order onto a LIFO queue, except the constraint being
    revised (every revision is idempotent): the C kernel derives the same
    lists and has the same `shrink`, `alldiff` and `propagate`, which keeps
    every count equal between the two.

    The branch rule is dom/wdeg (Boussemart, Hemery, Lecoutre and Sais,
    ECAI 2004): every constraint weighs 1 plus the number of wipeouts its
    revisions caused during this call, and the next branch variable is the
    unfixed one of the run's order with the least domain size over the
    summed weight of its constraints, ties going to the earliest; values
    are tried 0, 1, 2.  Variables outside ``order`` must be fixed by
    propagation.

    The root is propagated once; each run starts from it.  Run i may spend
    ``unit * luby(i)`` decisions (Luby, Sinclair and Zuckerman, IPL 1993)
    and breaks ties in ``order`` for i = 0, and in a `shuffled` copy of it
    for i >= 1, drawn from one stream seeded by ``splitmix64(seed)``.  A
    run that ends within its budget or finds a solution ends the call, so
    status 0 is still a proof.  ``unit`` <= 0 means a single run.
    ``budget`` bounds the decisions summed over all runs and ``cap`` the
    collected solutions; either <= 0 means unlimited.

    Returns ``(status, solutions, decisions, backtracks, propagations,
    restarts)`` with status 0 = space exhausted, 1 = cap reached, 2 =
    budget exhausted (the last run counts the decision it refused, so
    ``decisions`` is then ``budget + 1``), -1 = a non-branch variable was
    left undetermined (caller bug).  Raises `ValueError`, naming the
    argument, on a malformed ``nvars`` or array (see `_validate`): each must
    be an exact int in its range, a sign -1, 0 or 1.  ``budget``, ``cap``,
    ``seed`` and ``unit`` are the caller's to check.
    """
    _validate(nvars, fixed_vars, fixed_vals, scope_flat, scope_off, bind_sign,
              order)
    nb = len(bind_sign)
    scopes = [scope_flat[scope_off[c]:scope_off[c + 1]]
              for c in range(len(scope_off) - 1)]
    incidence = [[] for _ in range(nvars)]
    for cid, members in enumerate(scopes):
        for v in members:
            incidence[v].append(cid)
    ncons = len(scopes)
    # the summed weight of each variable's constraints
    wdeg = [len(cids) for cids in incidence]
    dom = [7] * nvars
    in_q = bytearray(b"\1") * ncons  # every constraint starts queued
    queue = list(range(ncons))
    trail = []  # (variable, old mask)

    def shrink(v, m):
        trail.append((v, dom[v]))
        dom[v] = m
        for c in incidence[v]:
            if not in_q[c]:
                in_q[c] = 1
                queue.append(c)

    def alldiff(g):
        """Pigeonhole check, then singleton removal and, for three members,
        the Hall pair rule (two members sharing a 2-value domain exclude
        those values from the third, which gives GAC on triples), repeated
        to a fixpoint.  False on a wipeout."""
        union = 0
        for v in g:
            union |= dom[v]
        if len(_VALUES[union]) < len(g):
            return False
        pairs = ((g[0], g[1], g[2]), (g[0], g[2], g[1]),
                 (g[1], g[2], g[0])) if len(g) == 3 else ()
        changed = True
        while changed:
            changed = False
            for vi in g:
                mi = dom[vi]
                if mi & (mi - 1) == 0:
                    for vj in g:
                        if vj != vi and dom[vj] & mi:
                            nm = dom[vj] & ~mi
                            if nm == 0:
                                return False
                            shrink(vj, nm)
                            changed = True
            for vi, vj, vk in pairs:
                mi = dom[vi]
                if (mi == dom[vj] and mi != 7 and mi & (mi - 1)
                        and dom[vk] & mi):
                    nm = dom[vk] & ~mi
                    if nm == 0:
                        return False
                    shrink(vk, nm)
                    changed = True
        return True

    def propagate():
        """Revise queued constraints to a fixpoint: the number of
        revisions, or -1 on a wipeout, which bumps the weight of the
        constraint that caused it.  The queue ends empty either way."""
        props = 0
        while queue:
            # in_q[cid] stays set while cid is revised, so its own shrinks
            # do not queue it again
            cid = queue.pop()
            props += 1
            if cid < nb:
                a, b, c = scopes[cid]
                sg = bind_sign[cid]
                ma = dom[a]
                mb = dom[b]
                mc = dom[c]
                na = nbm = ncm = 0
                for va in _VALUES[ma]:
                    for vb in _VALUES[mb]:
                        vc = (va + sg * vb) % 3
                        if mc >> vc & 1:
                            na |= 1 << va
                            nbm |= 1 << vb
                            ncm |= 1 << vc
                ok = na != 0
                if ok:
                    if na != ma:
                        shrink(a, na)
                    if nbm != mb:
                        shrink(b, nbm)
                    if ncm != mc:
                        shrink(c, ncm)
            else:
                ok = alldiff(scopes[cid])
            in_q[cid] = 0
            if ok:
                continue
            # a wipeout
            for v in scopes[cid]:
                wdeg[v] += 1
            for c in queue:
                in_q[c] = 0
            queue.clear()
            return -1
        return props

    def run(order, budget):
        """One run from the root: ``(status, decisions, backtracks,
        propagations)``."""
        dom[:] = root
        trail.clear()
        decisions = backtracks = props = 0
        frames = []  # [branch variable, values left to try, trail mark]
        while True:
            branch = -1
            for v in order:
                m = dom[v]
                if m & (m - 1):
                    size = 3 if m == 7 else 2
                    # size / wdeg[v] < best_size / best_w, in integers
                    if branch == -1 or size * best_w < best_size * wdeg[v]:
                        branch, best_size, best_w = v, size, wdeg[v]
            if branch == -1:
                sol = tuple(map(_SINGLE.__getitem__, dom))
                if -1 in sol:
                    return -1, decisions, backtracks, props
                solutions.append(sol)
                if 0 < cap <= len(solutions):
                    return 1, decisions, backtracks, props
            else:
                frames.append([branch, dom[branch], len(trail)])
            # the next untried value of the innermost frame, backtracking
            # out of exhausted frames as needed
            while True:
                if not frames:
                    return 0, decisions, backtracks, props
                frame = frames[-1]
                v, vals, mark = frame
                while len(trail) > mark:
                    tv, tm = trail.pop()
                    dom[tv] = tm
                if vals == 0:
                    frames.pop()
                    continue
                bit = vals & -vals
                frame[1] = vals - bit
                decisions += 1
                if 0 < budget < decisions:
                    return 2, decisions, backtracks, props
                shrink(v, bit)
                r = propagate()
                if r >= 0:
                    props += r
                    break
                backtracks += 1

    solutions = []
    for v, val in zip(fixed_vars, fixed_vals):
        m = dom[v] & (1 << val)
        if m == 0:
            return 0, solutions, 0, 0, 0, 0
        dom[v] = m
    props = propagate()
    if props < 0:
        return 0, solutions, 0, 0, 1, 0
    root = dom[:]
    state = splitmix64(seed)
    decisions = backtracks = restarts = 0
    remaining = budget
    run_order = order
    while True:
        run_budget = remaining
        last = True
        if unit > 0:
            run_budget = unit * luby(restarts)
            last = 0 < remaining <= run_budget
            if last:
                run_budget = remaining
        status, d, b, p = run(run_order, run_budget)
        backtracks += b
        props += p
        if status != 2 or last or solutions:
            return status, solutions, decisions + d, backtracks, props, restarts
        decisions += run_budget
        if budget > 0:
            remaining -= run_budget
        restarts += 1
        run_order, state = shuffled(order, state)


# For each sign mod 3, the (va, vb, vc) with vc = (va + sign*vb) % 3, in
# itertools.product order of (va, vb): the value of c that a = va, b = vb
# implies under one binding.
_IMPLIED = tuple(
    tuple((va, vb, (va + sign * vb) % 3) for va, vb in itertools.product(range(3), repeat=2))
    for sign in range(3))


def dimacs_clauses(nvars, fixed_vars, fixed_vals, scope_flat, scope_off,
                   bind_sign):
    """The one-hot CNF clauses of a constraint table (the arrays of
    `fd_search` before ``order``), as a tuple of literal tuples.

    Boolean 3t + v + 1 is "ternary t == v".  The clauses come in this
    order: for each ternary, at least one value and three pairwise at most
    one; the unit clause of each fixed variable's value; for each binding
    a + sign*b = c (mod 3), nine implication clauses ``(-A=va, -B=vb,
    C=vc)`` with vc = (va + sign*vb) % 3, (va, vb) in ``itertools.product``
    order; for each all-different group, every member pair in
    ``itertools.combinations`` order, forbidding a shared value 0, 1 and 2.
    Under the one-hot clauses the nine implications have the models of the
    18 clauses that forbid each violating (va, vb, vc), and unit propagation
    on them derives at least as much (Walsh, "SAT v CSP", CP 2000; Gent,
    "Arc consistency in SAT", ECAI 2002).  Raises the `ValueError` of
    `fd_search` on malformed arrays: each entry must be an exact int in its
    array's range, a sign -1, 0 or 1.
    """
    _validate(nvars, fixed_vars, fixed_vals, scope_flat, scope_off, bind_sign,
              ())
    first = range(1, 3 * nvars + 1, 3)   # first[t]: boolean "ternary t == 0"
    clauses = [
        clause for b in first
        for clause in ((b, b + 1, b + 2), (-b, -b - 1), (-b, -b - 2), (-b - 1, -b - 2))]

    clauses += [(first[v] + val,) for v, val in zip(fixed_vars, fixed_vals)]
    for cid, sign in enumerate(bind_sign):
        a, b, c = scope_flat[3 * cid:3 * cid + 3]
        na, nb, pc = -first[a], -first[b], first[c]
        clauses.extend([(na - va, nb - vb, pc + vc) for va, vb, vc in _IMPLIED[sign % 3]])
    for cid in range(len(bind_sign), len(scope_off) - 1):
        for x, y in itertools.combinations(scope_flat[scope_off[cid]:scope_off[cid + 1]], 2):
            nx, ny = -first[x], -first[y]
            clauses.extend(((nx, ny), (nx - 1, ny - 1), (nx - 2, ny - 2)))
    return tuple(clauses)


def dimacs_text(num_ternary, clauses):
    """The DIMACS text of a document (see `dimacs.to_dimacs_text`).

    Refuses with a `ValueError`, naming the first offending clause, every
    document whose text `dimacs.parse_dimacs_text` would refuse or read back
    as another document: ``num_ternary`` must be an int (not a bool) in
    [0, `MAX_LEN`], ``clauses`` a tuple of tuples, and each literal an int
    (not a bool), nonzero and within ±3 · ``num_ternary``.
    """
    if type(num_ternary) is not int or not 0 <= num_ternary <= MAX_LEN:
        raise ValueError(f"num_ternary must be an integer in [0, {MAX_LEN}], "
                         f"got {num_ternary!r}")
    if type(clauses) is not tuple:
        raise ValueError(f"clauses must be a tuple, got {type(clauses).__name__}")
    num_bools = 3 * num_ternary
    for i, clause in enumerate(clauses):
        if type(clause) is not tuple:
            raise ValueError(f"clause {i} is not a tuple: {clause!r}")
        for lit in clause:
            if type(lit) is not int or not 0 < abs(lit) <= num_bools:
                raise ValueError(f"clause {i}: literal {lit!r} is not a nonzero "
                                 f"int in [-{num_bools}, {num_bools}]")
    # One %-template per clause, applied once to the flat literal sequence,
    # so the integer formatting runs in C rather than once per clause.
    longest = max(map(len, clauses), default=0)
    templates = [" ".join(["%d"] * k) + " 0\n" for k in range(longest + 1)]
    body = "".join(map(templates.__getitem__, map(len, clauses)))
    n = num_ternary
    tmap = "c tmap %d %d\n" * n
    tmap_fields = itertools.chain.from_iterable(enumerate(range(1, 3 * n + 1, 3)))
    return (f"c ternary {n} one-hot booleans {num_bools}\n"
            + tmap % tuple(tmap_fields)
            + f"p cnf {num_bools} {len(clauses)}\n"
            + body % tuple(itertools.chain.from_iterable(clauses)))


#: The kernels with a C twin in `_ckernels`, the one list of them.
COMPILED = ("pairing_report", "encode_table", "fd_search", "count_strong_starters",
            "dimacs_clauses", "dimacs_text", "merge_pairs")
#: Every kernel the package calls: those of `COMPILED`, then the hill
#: climber, which runs as Python only.
KERNELS = COMPILED + ("hill_climb_pairs",)

globals().update({"pure_" + name: globals()[name] for name in COMPILED})
try:
    from . import _ckernels
    _twins = {name: getattr(_ckernels, name) for name in COMPILED}
except (ImportError, AttributeError):  # not built, or not all: the definitions above run
    BACKEND = "pure"
else:
    globals().update(_twins)
    BACKEND = "compiled"
