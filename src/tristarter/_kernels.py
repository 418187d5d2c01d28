"""Hot kernels: hill climbing, exhaustive enumeration, ternary FD search.

This module is the reference implementation of all three.  When the C
extension `_ckernels` (built by `setup.py`) imports, its `fd_search` and
`count_strong_starters` replace the ones defined here, which stay reachable
as `pure_fd_search` and `pure_count_strong_starters`; the two return
exactly the same values.  The hill climber always runs as Python.
"""

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
    """
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


def fd_search(nvars, fixed_vars, fixed_vals,
              bind_a, bind_b, bind_c, bind_sign,
              ad_flat, ad_off,
              order, budget, cap):
    """Chronological backtracking over {0,1,2} domains with propagation.

    Constraints are ternary bindings ``(a + sign*b - c) % 3 == 0`` and
    all-different groups (flattened into ``ad_flat``/``ad_off``), each
    naming distinct variables; binding ``i`` has constraint id ``i`` and
    group ``g`` has id ``len(bind_a) + g``.  A domain shrink queues its
    variable's constraint ids in ascending order onto a LIFO queue: the C
    kernel derives the same lists and has the same `shrink`, `alldiff` and
    `propagate`, which keeps every count equal between the two.
    Search branches over ``order`` (values tried 0,1,2): the next branch
    variable is the smallest-domain unassigned one, ties broken by position
    in ``order``.  Remaining variables must be fixed by propagation.
    ``budget`` bounds decisions and ``cap`` bounds collected solutions;
    either <= 0 means unlimited.

    Returns ``(status, solutions, decisions, backtracks, propagations)``
    with status 0 = space exhausted, 1 = cap reached, 2 = budget exhausted,
    -1 = a non-branch variable was left undetermined (caller bug).
    """
    nb = len(bind_a)
    bindings = list(zip(bind_a, bind_b, bind_c, bind_sign))
    groups = [ad_flat[ad_off[g]:ad_off[g + 1]] for g in range(len(ad_off) - 1)]
    incidence = [[] for _ in range(nvars)]
    for cid, members in enumerate([*zip(bind_a, bind_b, bind_c), *groups]):
        for v in members:
            incidence[v].append(cid)
    ncons = nb + len(groups)
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
        revisions, or -1 on a wipeout.  The queue ends empty either way."""
        props = 0
        while queue:
            cid = queue.pop()
            in_q[cid] = 0
            props += 1
            if cid < nb:
                a, b, c, sg = bindings[cid]
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
                if na:
                    if na != ma:
                        shrink(a, na)
                    if nbm != mb:
                        shrink(b, nbm)
                    if ncm != mc:
                        shrink(c, ncm)
                    continue
            elif alldiff(groups[cid - nb]):
                continue
            # a wipeout
            for c in queue:
                in_q[c] = 0
            queue.clear()
            return -1
        return props

    solutions = []
    for v, val in zip(fixed_vars, fixed_vals):
        m = dom[v] & (1 << val)
        if m == 0:
            return 0, solutions, 0, 0, 0
        dom[v] = m
    props = propagate()
    if props < 0:
        return 0, solutions, 0, 0, 1
    decisions = backtracks = 0
    frames = []  # [branch variable, values left to try, trail mark]
    while True:
        branch = -1
        for v in order:
            m = dom[v]
            if m & (m - 1):
                if m != 7:
                    branch = v
                    break
                if branch == -1:
                    branch = v
        if branch == -1:
            sol = tuple(map(_SINGLE.__getitem__, dom))
            if -1 in sol:
                return -1, solutions, decisions, backtracks, props
            solutions.append(sol)
            if 0 < cap <= len(solutions):
                return 1, solutions, decisions, backtracks, props
        else:
            frames.append([branch, dom[branch], len(trail)])
        # the next untried value of the innermost frame, backtracking out of
        # exhausted frames as needed
        while True:
            if not frames:
                return 0, solutions, decisions, backtracks, props
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
                return 2, solutions, decisions, backtracks, props
            shrink(v, bit)
            r = propagate()
            if r >= 0:
                props += r
                break
            backtracks += 1


pure_fd_search = fd_search
pure_count_strong_starters = count_strong_starters

try:
    from ._ckernels import count_strong_starters, fd_search
except ImportError:  # extension not built: the definitions above run
    BACKEND = "pure"
else:
    BACKEND = "compiled"
