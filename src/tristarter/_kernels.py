"""Hot kernels: hill climbing, exhaustive enumeration, ternary FD search.

This module is the reference implementation of all three.  When the C
extension `_ckernels` (built by `setup.py`) imports, its `fd_search` and
`count_strong_starters` replace the ones defined here, which stay reachable
as `pure_fd_search` and `pure_count_strong_starters`; the two return
exactly the same values.  The hill climber always runs as Python.
"""

# singleton-value table for 3-bit domain masks
_SINGLE = (-1, 0, 1, -1, 2, -1, -1, -1)


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


def _propagate(dom, nb, bind_a, bind_b, bind_c, bind_sign,
               ad_flat, ad_off, vc_flat, vc_off,
               in_q, queue, trail_v, trail_m):
    """Drain the constraint queue to a fixpoint.

    Returns the number of revisions, or -1 on a domain wipeout (queue is
    left clean either way).  The C kernel replays this rule from tables
    that it fills by running the rule on every binding sign and every
    triple of masks.
    """
    props = 0
    while queue:
        cid = queue.pop()
        in_q[cid] = 0
        props += 1
        if cid < nb:
            a = bind_a[cid]
            b = bind_b[cid]
            c = bind_c[cid]
            sg = bind_sign[cid]
            ma = dom[a]
            mb = dom[b]
            mc = dom[c]
            na = 0
            nbm = 0
            ncm = 0
            va = 0
            while va < 3:
                if (ma >> va) & 1:
                    vb = 0
                    while vb < 3:
                        if (mb >> vb) & 1:
                            vc = (va + sg * vb) % 3
                            if (mc >> vc) & 1:
                                na |= 1 << va
                                nbm |= 1 << vb
                                ncm |= 1 << vc
                        vb += 1
                va += 1
            if na == 0:
                while queue:
                    in_q[queue.pop()] = 0
                return -1
            if na != ma:
                trail_v.append(a)
                trail_m.append(ma)
                dom[a] = na
                j = vc_off[a]
                e = vc_off[a + 1]
                while j < e:
                    c2 = vc_flat[j]
                    if not in_q[c2]:
                        in_q[c2] = 1
                        queue.append(c2)
                    j += 1
            if nbm != mb:
                trail_v.append(b)
                trail_m.append(mb)
                dom[b] = nbm
                j = vc_off[b]
                e = vc_off[b + 1]
                while j < e:
                    c2 = vc_flat[j]
                    if not in_q[c2]:
                        in_q[c2] = 1
                        queue.append(c2)
                    j += 1
            if ncm != mc:
                trail_v.append(c)
                trail_m.append(mc)
                dom[c] = ncm
                j = vc_off[c]
                e = vc_off[c + 1]
                while j < e:
                    c2 = vc_flat[j]
                    if not in_q[c2]:
                        in_q[c2] = 1
                        queue.append(c2)
                    j += 1
        else:
            g = cid - nb
            s = ad_off[g]
            e = ad_off[g + 1]
            union = 0
            i = s
            while i < e:
                union |= dom[ad_flat[i]]
                i += 1
            if (union & 1) + ((union >> 1) & 1) + ((union >> 2) & 1) < e - s:
                while queue:
                    in_q[queue.pop()] = 0
                return -1
            changed = 1
            while changed:
                changed = 0
                # remove fixed values from siblings
                i = s
                while i < e:
                    mi = dom[ad_flat[i]]
                    if mi & (mi - 1) == 0:
                        j = s
                        while j < e:
                            if j != i:
                                vj = ad_flat[j]
                                mj = dom[vj]
                                if mj & mi:
                                    nm = mj & (7 ^ mi)
                                    if nm == 0:
                                        while queue:
                                            in_q[queue.pop()] = 0
                                        return -1
                                    trail_v.append(vj)
                                    trail_m.append(mj)
                                    dom[vj] = nm
                                    k = vc_off[vj]
                                    e2 = vc_off[vj + 1]
                                    while k < e2:
                                        c2 = vc_flat[k]
                                        if not in_q[c2]:
                                            in_q[c2] = 1
                                            queue.append(c2)
                                        k += 1
                                    changed = 1
                            j += 1
                    i += 1
                # Hall pair rule: two vars sharing a 2-value domain exclude
                # those values from the third (gives GAC on triples)
                if e - s == 3:
                    i = s
                    while i < e:
                        j = i + 1
                        while j < e:
                            mi = dom[ad_flat[i]]
                            if mi == dom[ad_flat[j]] and mi != 7 and mi & (mi - 1) != 0:
                                k = s
                                while k < e:
                                    if k != i and k != j:
                                        vk = ad_flat[k]
                                        mk = dom[vk]
                                        if mk & mi:
                                            nm = mk & (7 ^ mi)
                                            if nm == 0:
                                                while queue:
                                                    in_q[queue.pop()] = 0
                                                return -1
                                            trail_v.append(vk)
                                            trail_m.append(mk)
                                            dom[vk] = nm
                                            k2 = vc_off[vk]
                                            e2 = vc_off[vk + 1]
                                            while k2 < e2:
                                                c2 = vc_flat[k2]
                                                if not in_q[c2]:
                                                    in_q[c2] = 1
                                                    queue.append(c2)
                                                k2 += 1
                                            changed = 1
                                    k += 1
                            j += 1
                        i += 1
    return props


def _incidence(nvars, bind_a, bind_b, bind_c, ad_flat, ad_off):
    """CSR lists ``vc_flat[vc_off[v]:vc_off[v + 1]]`` of the constraint ids
    of each variable ``v``, ascending; group ``g`` has id ``len(bind_a) + g``.
    """
    per_var = [[] for _ in range(nvars)]
    for cid, members in enumerate(zip(bind_a, bind_b, bind_c)):
        for v in members:
            per_var[v].append(cid)
    nb = len(bind_a)
    for g in range(len(ad_off) - 1):
        for v in ad_flat[ad_off[g]:ad_off[g + 1]]:
            per_var[v].append(nb + g)
    vc_flat = []
    vc_off = [0]
    for cons in per_var:
        vc_flat.extend(cons)
        vc_off.append(len(vc_flat))
    return vc_flat, vc_off


def fd_search(nvars, fixed_vars, fixed_vals,
              bind_a, bind_b, bind_c, bind_sign,
              ad_flat, ad_off,
              order, budget, cap):
    """Chronological backtracking over {0,1,2} domains with propagation.

    Constraints are ternary bindings ``(a + sign*b - c) % 3 == 0`` and
    all-different groups (flattened into ``ad_flat``/``ad_off``).  The
    kernel derives each variable's constraint ids itself (`_incidence`), in
    ascending id order: that order fixes the LIFO queue, and the C kernel
    derives the same lists, which keeps every count equal between the two.
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
    ncons = nb + len(ad_off) - 1
    vc_flat, vc_off = _incidence(nvars, bind_a, bind_b, bind_c, ad_flat, ad_off)
    dom = [7] * nvars
    in_q = bytearray(ncons)
    queue = []
    trail_v = []
    trail_m = []
    f_vals = []
    f_mark = []
    f_var = []
    solutions = []
    decisions = 0
    backtracks = 0
    props = 0

    i = 0
    while i < len(fixed_vars):
        v = fixed_vars[i]
        m = dom[v] & (1 << fixed_vals[i])
        if m == 0:
            return 0, solutions, decisions, backtracks, props
        dom[v] = m
        i += 1
    cid = 0
    while cid < ncons:
        in_q[cid] = 1
        queue.append(cid)
        cid += 1
    r = _propagate(dom, nb, bind_a, bind_b, bind_c, bind_sign,
                   ad_flat, ad_off, vc_flat, vc_off,
                   in_q, queue, trail_v, trail_m)
    if r < 0:
        return 0, solutions, decisions, backtracks, 1
    props += r

    nord = len(order)
    status = 0
    running = 1
    while running:
        branch = -1
        i = 0
        while i < nord:
            mm = dom[order[i]]
            if mm & (mm - 1):
                if mm != 7:
                    branch = order[i]
                    break
                if branch == -1:
                    branch = order[i]
            i += 1
        if branch == -1:
            sol = [0] * nvars
            v = 0
            ok = 1
            while v < nvars:
                val = _SINGLE[dom[v]]
                if val < 0:
                    ok = 0
                    break
                sol[v] = val
                v += 1
            if not ok:
                status = -1
                break
            solutions.append(tuple(sol))
            if 0 < cap <= len(solutions):
                status = 1
                break
        else:
            f_var.append(branch)
            f_vals.append(dom[branch])
            f_mark.append(len(trail_v))
        # pick the next untried value of the innermost frame, backtracking
        # out of exhausted frames as needed
        while True:
            if not f_var:
                status = 0
                running = 0
                break
            vals = f_vals[len(f_vals) - 1]
            mark = f_mark[len(f_mark) - 1]
            while len(trail_v) > mark:
                tv = trail_v.pop()
                dom[tv] = trail_m.pop()
            if vals == 0:
                f_var.pop()
                f_vals.pop()
                f_mark.pop()
                continue
            bit = vals & (-vals)
            f_vals[len(f_vals) - 1] = vals - bit
            decisions += 1
            if 0 < budget < decisions:
                status = 2
                running = 0
                break
            vv = f_var[len(f_var) - 1]
            trail_v.append(vv)
            trail_m.append(dom[vv])
            dom[vv] = bit
            j = vc_off[vv]
            e = vc_off[vv + 1]
            while j < e:
                c2 = vc_flat[j]
                if not in_q[c2]:
                    in_q[c2] = 1
                    queue.append(c2)
                j += 1
            r = _propagate(dom, nb, bind_a, bind_b, bind_c, bind_sign,
                           ad_flat, ad_off, vc_flat, vc_off,
                           in_q, queue, trail_v, trail_m)
            if r < 0:
                backtracks += 1
                continue
            props += r
            break
    return status, solutions, decisions, backtracks, props


pure_fd_search = fd_search
pure_count_strong_starters = count_strong_starters

try:
    from ._ckernels import count_strong_starters, fd_search
except ImportError:  # extension not built: the definitions above run
    BACKEND = "pure"
else:
    BACKEND = "compiled"
