/*
 * C versions of the kernels of `_kernels.py` that `_kernels.COMPILED`
 * names, one entry each in the method table at the end of this file.
 * `_kernels` binds them over its own definitions when this extension
 * imports and defines every one of them; the Python code stays the
 * reference, and both return exactly the same values and raise the same
 * errors (tests/test_backends.py compares them).  Keep the two searches
 * in step: the queue is a LIFO stack, the branch rule (dom/wdeg), the
 * value order (0, 1, 2), the restart schedule and the shuffles of the
 * tie-break order are the ones of the Python code.
 *
 * The search has the shape of `_kernels.fd_search`, whose nested `shrink`,
 * `alldiff`, `propagate` and `run` are the functions of the same names
 * here, and whose restart loop is `search`, so a rule change touches the
 * same-named function on each side.
 *
 * Propagation looks its revisions up in two tables that module import
 * fills by running the rules of `propagate` and `alldiff` on every input:
 * SUPPORT gives a binding's supported masks for each sign and triple of
 * masks, and ALLDIFF gives the ordered shrinks (or the wipeout) the
 * all-different rule makes on a group of n <= 3 members for each size and
 * tuple of masks.  A group of n >= 4 members is a wipeout at once: three
 * values cannot separate four variables, so the rule's pigeonhole check
 * refuses it before any shrink.  A revision reads nothing but the masks of
 * its distinct variables, so a table entry replays the rule shrink by
 * shrink: the trail, the queue and therefore every decision, backtrack,
 * propagation count, weight and solution stay those of `_kernels`.  The
 * only difference is on a wipeout, where the tables skip the shrinks the
 * rule makes before it; the caller unwinds the trail past them anyway.
 *
 * An instance is one constraint table: constraint cid names the variables
 * scope_flat[scope_off[cid] .. scope_off[cid + 1]).  The first
 * len(bind_sign) constraints are the bindings, three wide from offset 0, so
 * `propagate` reads binding cid at scope_flat + 3 * cid; the all-different
 * groups follow.  Each call derives the variable -> constraint incidence
 * lists from the table, as `_kernels.fd_search` does: every variable's
 * constraint ids in ascending order.  A shrink queues the constraints of
 * its variable in that order, so that order is what keeps the LIFO queue,
 * and therefore every count, equal between the two backends.
 *
 * The kernels keep the contract stated in `_kernels`: ValueError only,
 * every checked int read by `exact_int`, every sequence argument by
 * `sequence` (a list or tuple; the clauses of `dimacs_text` must be a
 * tuple), every pair list by `load_pairs` (each pair a list or tuple of
 * two ints in [0, bound)), MAX_LEN the one size bound, and nothing
 * imported from the package.  `load_arrays` checks each argument once, in
 * the order of `_kernels._validate`: nvars, every array's type, then its
 * entries in the pass that converts it to int32 (binding signs in [-1, 2):
 * -1, 0 and 1 cover every sign mod 3), then the checks that span whole
 * arrays.  The search itself then reads nothing out of bounds.
 * `dimacs_clauses` takes the same arrays (all but `order`) through the
 * same checks and keeps the clause order of `_kernels.dimacs_clauses`, the
 * one place that order is documented: one-hot block, fixed units, the nine
 * implication clauses of each binding, then each group's member pairs.
 * `encode_table` builds the table these take from a triplication table, in
 * the layout `model` documents.  `pairing_report` verifies a pairing in
 * one pass over the pairs `load_pairs` read.  `merge_pairs` lifts a
 * solution's U and V and their phi images onto the extension by the CRT,
 * filling both tuples of pairs of order 3p directly.  Each refuses what its
 * `_kernels` twin refuses.  `dimacs_text` checks and formats each distinct
 * literal once per call, through a table indexed by value; its bytes and
 * refusals are those of `_kernels.dimacs_text`.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdarg.h>
#include <stdint.h>
#include <string.h>

/* Largest size the kernels accept (`_kernels.MAX_LEN`): an array length,
 * nvars, an order or num_ternary.  Small enough that the trail (2 * nvars +
 * 2 entries), the incidence lists (at most len(scope_flat) entries), the
 * constraint count and every offset fit in int32, and that the tmap lines
 * of `dimacs_text`, at most 47 bytes each, fit in 47 * MAX_LEN bytes. */
#define MAX_LEN (INT32_MAX / 4)

/* singleton 3-bit domain mask -> its value, else -1 */
static const int8_t SINGLE[8] = {-1, 0, 1, -1, 2, -1, -1, -1};

/* ------------------------------------------------------------------ */
/* argument conversion                                                 */

typedef struct {
    int32_t *v;
    Py_ssize_t n;
} IntArray;

/* Raise ValueError; returns -1. */
static int
invalid(const char *format, ...)
{
    va_list args;
    va_start(args, format);
    PyErr_FormatV(PyExc_ValueError, format, args);
    va_end(args);
    return -1;
}

/* The one rule for an int argument: 1 when o is an exact int (`bool` is a
 * subclass, so it is refused) in [lo, hi], stored in *x; else 0, with no
 * error set.  The type test comes first, so nothing else is converted.  The
 * three tests after it are joined with &, not &&: with && the literal loop
 * of `dimacs_text` ran about 4% slower on order-79 documents (gcc -O3). */
static inline int
exact_int(PyObject *o, long long lo, long long hi, long long *x)
{
    if (!PyLong_CheckExact(o))
        return 0;
    int overflow;
    long long v = PyLong_AsLongLongAndOverflow(o, &overflow);
    *x = v;
    return (overflow == 0) & (lo <= v) & (v <= hi);
}

/* The one sequence rule: the length of o, a list or tuple; else -1 with
 * ValueError set.  A list or tuple is read through PySequence_Fast_ITEMS
 * without a new reference. */
static Py_ssize_t
sequence(PyObject *o, const char *name)
{
    if (!PyList_CheckExact(o) && !PyTuple_CheckExact(o))
        return invalid("%s must be a list or tuple, got %R", name, o);
    return PySequence_Fast_GET_SIZE(o);
}

/* The one pair reader: read the pairs of the list or tuple seq, named
 * name, into val (pair i at val[2i], val[2i + 1]), each a list or tuple of
 * two exact ints in [0, bound); 0, or -1 with ValueError naming the first
 * pair that is not. */
static int
load_pairs(PyObject *seq, const char *name, long long bound, int32_t *val)
{
    PyObject **items = PySequence_Fast_ITEMS(seq);
    long long hi = bound - 1;
    for (Py_ssize_t i = 0; i < PySequence_Fast_GET_SIZE(seq); i++) {
        PyObject *pair = items[i];
        long long a, b;
        if ((!PyList_CheckExact(pair) && !PyTuple_CheckExact(pair))
                || PySequence_Fast_GET_SIZE(pair) != 2
                || !exact_int(PySequence_Fast_GET_ITEM(pair, 0), 0, hi, &a)
                || !exact_int(PySequence_Fast_GET_ITEM(pair, 1), 0, hi, &b))
            return invalid("%s[%zd] = %R is not a pair of ints in [0, %lld)",
                           name, i, pair, bound);
        val[2 * i] = (int32_t)a;
        val[2 * i + 1] = (int32_t)b;
    }
    return 0;
}

/* Copy a list or tuple into a new int32 array, refusing in the same pass
 * any entry that is not an exact int in [lo, hi); lo and hi lie within
 * int32. */
static int
to_array(PyObject *seq, const char *name, int64_t lo, int64_t hi,
         IntArray *out)
{
    Py_ssize_t n = sequence(seq, name);
    if (n < 0)
        return -1;
    if (n > MAX_LEN)
        return invalid("%s is too long (%zd items)", name, n);
    out->v = PyMem_Malloc((size_t)(n ? n : 1) * sizeof(int32_t));
    if (out->v == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    out->n = n;
    PyObject **items = PySequence_Fast_ITEMS(seq);
    for (Py_ssize_t i = 0; i < n; i++) {
        long long x;
        if (!exact_int(items[i], lo, hi - 1, &x))
            return invalid("%s[%zd] = %R is outside [%lld, %lld)", name, i,
                           items[i], (long long)lo, (long long)hi);
        out->v[i] = (int32_t)x;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* encode_table                                                        */

/* A new list of the ints v[0 .. n). */
static PyObject *
int_list(const int32_t *v, Py_ssize_t n)
{
    PyObject *list = PyList_New(n);
    if (list == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *x = PyLong_FromLong(v[i]);
        if (x == NULL) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, i, x);
    }
    return list;
}

/* `_kernels.encode_table`, with the same checks in the same order.  Two
 * counting sorts replace its lists of lists: the weak pairs by sum (a sum
 * is weak when it has two or more pairs, or is 0 with one) and the U/V
 * variables by value, each placed in ascending index order, so the weak
 * sets come in ascending sum order and each color in extension order with
 * U_i before V_i.  O(k + p) for k pairs. */
static PyObject *
encode_table(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *p_obj, *ext;
    long long p;
    if (!PyArg_ParseTuple(args, "OO:encode_table", &p_obj, &ext))
        return NULL;
    if (!exact_int(p_obj, 1, MAX_LEN, &p)) {
        invalid("p = %R is out of range", p_obj);
        return NULL;
    }
    Py_ssize_t npairs = sequence(ext, "extension");
    if (npairs < 0)
        return NULL;
    int32_t *val = NULL, *sid = NULL, *by_sum = NULL, *by_color = NULL;
    int32_t *flat = NULL, *off = NULL, *sign = NULL;
    PyObject *lists[3] = {NULL, NULL, NULL}, *result = NULL;
    if (npairs % 3 != 1) {
        invalid("extension has %zd pairs, not 3q + 1", npairs);
        goto done;
    }
    /* every list returned has at most p + 10k + 1 entries */
    if (p + 10 * (long long)npairs + 1 > MAX_LEN) {
        invalid("p + 10 * len(extension) + 1 = %lld exceeds %d",
                p + 10 * (long long)npairs + 1, MAX_LEN);
        goto done;
    }
    int32_t k = (int32_t)npairs;
    val = PyMem_Malloc(2 * (size_t)k * sizeof(int32_t));
    sid = PyMem_Malloc((size_t)k * sizeof(int32_t));
    by_sum = PyMem_Calloc((size_t)p, sizeof(int32_t));
    by_color = PyMem_Calloc((size_t)p, sizeof(int32_t));
    if (!val || !sid || !by_sum || !by_color) {
        PyErr_NoMemory();
        goto done;
    }
    if (load_pairs(ext, "extension", p, val) < 0)
        goto done;

    /* count the pairs of each sum and the variables of each value, then
     * number the S of the weak pairs in index order */
    for (Py_ssize_t i = 0; i < k; i++) {
        by_sum[(val[2 * i] + val[2 * i + 1]) % p]++;
        by_color[val[2 * i]]++;
        by_color[val[2 * i + 1]]++;
    }
    int32_t k3 = 3 * k, ns = 0, nweak = 0;
    for (Py_ssize_t i = 0; i < k; i++) {
        int32_t s = (int32_t)((val[2 * i] + val[2 * i + 1]) % p);
        sid[i] = by_sum[s] > (s != 0) ? k3 + ns++ : -1;
    }
    for (int32_t s = 0; s < p; s++)
        nweak += by_sum[s] > (s != 0);
    int32_t z = k3 + ns, nb = k + ns, zero = by_sum[0] > 0;
    /* bindings, rows (k - 1 D's), weak sets with Z in the zero-sum set,
     * colors with Z in color 0 */
    int32_t nflat = 3 * nb + (k - 1) + ns + zero + (2 * k + 1);
    int32_t noff = nb + (k - 1) / 3 + 1 + nweak + (int32_t)p;
    flat = PyMem_Malloc((size_t)nflat * sizeof(int32_t));
    off = PyMem_Malloc((size_t)noff * sizeof(int32_t));
    sign = PyMem_Malloc((size_t)nb * sizeof(int32_t));
    if (!flat || !off || !sign) {
        PyErr_NoMemory();
        goto done;
    }

    /* binding j is (U_i, V_i, D_i) for i = j < k, then (U_i, V_i, S_i) per
     * weak pair i; every binding and row is three wide */
    int32_t j = 0;
    for (int32_t i = 0; i < k; i++) {
        flat[3 * j] = 2 * i;
        flat[3 * j + 1] = 2 * i + 1;
        flat[3 * j + 2] = 2 * k + i;
        sign[j++] = -1;
    }
    for (int32_t i = 0; i < k; i++)
        if (sid[i] >= 0) {
            flat[3 * j] = 2 * i;
            flat[3 * j + 1] = 2 * i + 1;
            flat[3 * j + 2] = sid[i];
            sign[j++] = 1;
        }
    int32_t pos = 3 * nb, c = 0;
    for (int32_t i = 1; i < k; i++)
        flat[pos++] = 2 * k + i;
    for (; 3 * c <= pos; c++)
        off[c] = 3 * c;
    /* turn each count into its group's start and close the group */
    for (int32_t s = 0; s < p; s++)
        if (by_sum[s] > (s != 0)) {
            int32_t n = by_sum[s];
            by_sum[s] = pos;
            pos += n + (s == 0);
            off[c++] = pos;
        }
    for (int32_t v = 0; v < p; v++) {
        int32_t n = by_color[v];
        by_color[v] = pos;
        pos += n + (v == 0);
        off[c++] = pos;
    }
    for (int32_t i = 0; i < k; i++)
        if (sid[i] >= 0)
            flat[by_sum[(val[2 * i] + val[2 * i + 1]) % p]++] = sid[i];
    if (zero)
        flat[by_sum[0]] = z;
    for (int32_t x = 0; x < 2 * k; x++)
        flat[by_color[val[x]]++] = x;
    flat[by_color[0]] = z;

    lists[0] = int_list(flat, nflat);
    lists[1] = int_list(off, noff);
    lists[2] = int_list(sign, nb);
    if (lists[0] && lists[1] && lists[2])
        result = Py_BuildValue("(iOOO)", z + 1, lists[0], lists[1], lists[2]);
done:
    for (int i = 0; i < 3; i++)
        Py_XDECREF(lists[i]);
    PyMem_Free(val);
    PyMem_Free(sid);
    PyMem_Free(by_sum);
    PyMem_Free(by_color);
    PyMem_Free(flat);
    PyMem_Free(off);
    PyMem_Free(sign);
    return result;
}

/* ------------------------------------------------------------------ */
/* fd_search                                                           */

typedef struct {
    int32_t nvars, nb, ncons;
    const int32_t *flat, *off;          /* the constraint table */
    const int32_t *bs;                  /* binding sign mod 3 */
    int32_t *vc_flat, *vc_off;          /* derived by `incidence` */
    uint8_t *dom, *root, *in_q;        /* root: dom after the root propagation */
    int64_t *wdeg;                      /* summed weight of each variable's constraints */
    int32_t *queue, qn;
    int32_t *trail_v, tn;
    uint8_t *trail_m;
    /* branch frames: variable, values left to try, trail mark */
    int32_t *f_var, *f_mark, nf;
    uint8_t *f_vals;
    long long decisions, backtracks, props, restarts;
} Search;

/* SUPPORT[sign mod 3][ma][mb][mc]: the supported masks na | nb << 3 |
 * nc << 6 of a binding (a + sign * b - c) % 3 == 0 whose variables have
 * the masks ma, mb, mc; 0 on a wipeout. */
static uint16_t SUPPORT[3][8][8][8];

/* A strict shrink drops at least one bit of three and keeps one, so a member
 * of a group of three shrinks at most twice. */
#define MAX_STEPS 6

/* The shrinks the all-different rule makes on a group, in order, each as
 * position << 3 | new mask; n = -1 on a wipeout. */
typedef struct {
    int8_t n;
    uint8_t step[MAX_STEPS];
} Shrinks;

/* ALLDIFF[n][m0 | m1 << 3 | m2 << 6]: the shrinks on a group of n <= 3
 * members with the masks m0 .. m(n-1); the masks past the n-th are 0. */
static Shrinks ALLDIFF[4][512];

/* Queue every constraint of variable v not already queued. */
static inline void
enqueue_var(Search *S, int32_t v)
{
    for (int32_t j = S->vc_off[v]; j < S->vc_off[v + 1]; j++) {
        int32_t c = S->vc_flat[j];
        if (!S->in_q[c]) {
            S->in_q[c] = 1;
            S->queue[S->qn++] = c;
        }
    }
}

/* Shrink dom[v] to m, trailing the old mask.  Every call is a strict
 * shrink (constraints are checked to name distinct variables), so a
 * variable has at most two entries on the trail and 2 * nvars suffice. */
static inline void
shrink(Search *S, int32_t v, uint8_t m)
{
    S->trail_v[S->tn] = v;
    S->trail_m[S->tn] = S->dom[v];
    S->tn++;
    S->dom[v] = m;
    enqueue_var(S, v);
}

/* A wipeout in the revision of constraint cid: bump its weight, that is
 * the weighted degree of each of its variables, and empty the queue. */
static int64_t
wipeout(Search *S, int32_t cid)
{
    for (int32_t i = S->off[cid]; i < S->off[cid + 1]; i++)
        S->wdeg[S->flat[i]]++;
    S->in_q[cid] = 0;
    while (S->qn)
        S->in_q[S->queue[--S->qn]] = 0;
    return -1;
}

/* `alldiff` of `_kernels.fd_search` on the masks of a group of n <= 3
 * distinct variables: pigeonhole check, singleton removal and, for n == 3,
 * the Hall pair rule, repeated to a fixpoint on a local copy of the masks.
 * Records each shrink in t, or sets t->n = -1 on a wipeout. */
static void
alldiff(const uint8_t *masks, int n, Shrinks *t)
{
    uint8_t m[3];
    unsigned uni = 0;
    t->n = 0;
    for (int i = 0; i < n; i++)
        uni |= m[i] = masks[i];
    if ((int)((uni & 1) + ((uni >> 1) & 1) + ((uni >> 2) & 1)) < n)
        goto wiped;
    int changed = 1;
    while (changed) {
        changed = 0;
        /* remove fixed values from siblings */
        for (int i = 0; i < n; i++) {
            uint8_t mi = m[i];
            if (mi & (mi - 1))
                continue;
            for (int j = 0; j < n; j++) {
                if (j == i || !(m[j] & mi))
                    continue;
                if (!(m[j] &= 7 ^ mi))
                    goto wiped;
                t->step[t->n++] = (uint8_t)(j << 3 | m[j]);
                changed = 1;
            }
        }
        /* Hall pair rule: two variables sharing a 2-value domain
         * exclude those values from the third */
        if (n != 3)
            continue;
        for (int i = 0; i < n; i++) {
            for (int j = i + 1; j < n; j++) {
                uint8_t mi = m[i];
                if (!(mi == m[j] && mi != 7 && (mi & (mi - 1))))
                    continue;
                int k = 3 - i - j;
                if (!(m[k] & mi))
                    continue;
                if (!(m[k] &= 7 ^ mi))
                    goto wiped;
                t->step[t->n++] = (uint8_t)(k << 3 | m[k]);
                changed = 1;
            }
        }
    }
    return;
wiped:
    t->n = -1;
}

/* `propagate` of `_kernels.fd_search`: revisions made, or -1 on a
 * wipeout. */
static int64_t
propagate(Search *S)
{
    uint8_t *dom = S->dom;
    int64_t props = 0;
    while (S->qn) {
        /* in_q[cid] stays set while cid is revised, so its own shrinks do
         * not queue it again */
        int32_t cid = S->queue[--S->qn];
        props++;
        if (cid < S->nb) {
            const int32_t *sc = S->flat + 3 * cid;
            int32_t a = sc[0], b = sc[1], c = sc[2];
            uint8_t ma = dom[a], mb = dom[b], mc = dom[c];
            unsigned sup = SUPPORT[S->bs[cid]][ma][mb][mc];
            if (sup == 0)
                return wipeout(S, cid);
            if ((sup & 7) != ma)
                shrink(S, a, sup & 7);
            if ((sup >> 3 & 7) != mb)
                shrink(S, b, sup >> 3 & 7);
            if (sup >> 6 != mc)
                shrink(S, c, (uint8_t)(sup >> 6));
        } else {
            const int32_t *g = S->flat + S->off[cid];
            int32_t n = S->off[cid + 1] - S->off[cid];
            if (n > 3)
                return wipeout(S, cid);
            unsigned key = 0;
            for (int32_t i = 0; i < n; i++)
                key |= (unsigned)dom[g[i]] << 3 * i;
            const Shrinks *t = &ALLDIFF[n][key];
            if (t->n < 0)
                return wipeout(S, cid);
            for (int k = 0; k < t->n; k++)
                shrink(S, g[t->step[k] >> 3], t->step[k] & 7);
        }
        S->in_q[cid] = 0;
    }
    return props;
}

/* Fill SUPPORT and ALLDIFF by running the rules on every combination of
 * masks. */
static void
build_tables(void)
{
    for (int sg = 0; sg < 3; sg++)
        for (int ma = 0; ma < 8; ma++)
            for (int mb = 0; mb < 8; mb++)
                for (int mc = 0; mc < 8; mc++) {
                    unsigned na = 0, nbm = 0, ncm = 0;
                    for (int va = 0; va < 3; va++) {
                        if (!((ma >> va) & 1))
                            continue;
                        for (int vb = 0; vb < 3; vb++) {
                            if (!((mb >> vb) & 1))
                                continue;
                            int vc = (va + sg * vb) % 3;
                            if ((mc >> vc) & 1) {
                                na |= 1u << va;
                                nbm |= 1u << vb;
                                ncm |= 1u << vc;
                            }
                        }
                    }
                    SUPPORT[sg][ma][mb][mc] =
                        (uint16_t)(na | nbm << 3 | ncm << 6);
                }

    for (int n = 0; n <= 3; n++)
        for (int key = 0; key < 512; key++) {
            uint8_t m[3] = {key & 7, key >> 3 & 7, key >> 6};
            alldiff(m, n, &ALLDIFF[n][key]);
        }
}

/* A solution tuple from the all-singleton domains; NULL with *undetermined
 * set when some variable is not fixed, NULL alone on a Python error. */
static PyObject *
solution_tuple(const uint8_t *dom, int32_t nvars, int *undetermined)
{
    for (int32_t v = 0; v < nvars; v++) {
        if (SINGLE[dom[v]] < 0) {
            *undetermined = 1;
            return NULL;
        }
    }
    PyObject *sol = PyTuple_New(nvars);
    if (sol == NULL)
        return NULL;
    for (int32_t v = 0; v < nvars; v++) {
        PyObject *x = PyLong_FromLong(SINGLE[dom[v]]);
        if (x == NULL) {
            Py_DECREF(sol);
            return NULL;
        }
        PyTuple_SET_ITEM(sol, v, x);
    }
    return sol;
}

enum {
    A_FIXED_VARS, A_FIXED_VALS, A_SCOPE_FLAT, A_SCOPE_OFF, A_BIND_SIGN,
    A_ORDER, N_ARRAYS
};

static const char *const ARRAY_NAMES[N_ARRAYS] = {
    "fixed_vars", "fixed_vals", "scope_flat", "scope_off", "bind_sign",
    "order",
};

/* No constraint names a variable twice: SUPPORT and ALLDIFF read each
 * member's domain separately, so an aliased scope would diverge from the
 * rules of `_kernels`.  The members are already checked to be in range. */
static int
check_scopes(const IntArray *flat, const IntArray *off, Py_ssize_t nvars)
{
    int32_t *seen = PyMem_Malloc((size_t)(nvars ? nvars : 1) * sizeof(int32_t));
    if (seen == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    memset(seen, 0xff, (size_t)nvars * sizeof(int32_t));   /* all -1 */
    int rc = 0;
    for (Py_ssize_t c = 0; rc == 0 && c + 1 < off->n; c++)
        for (int32_t i = off->v[c]; rc == 0 && i < off->v[c + 1]; i++) {
            int32_t v = flat->v[i];
            if (seen[v] == c)
                rc = invalid("constraint %zd repeats a variable", c);
            seen[v] = (int32_t)c;
        }
    PyMem_Free(seen);
    return rc;
}

/* Read nvars into *nvars and convert the first n array arguments of `seqs`
 * into A (the rest stay empty), each entry in its range, then check what
 * spans whole arrays, so every index of the search is valid; 0, or -1 with
 * ValueError set.  The caller frees A[k].v. */
static int
load_arrays(PyObject *nvars_obj, PyObject *const *seqs, int n, IntArray *A,
            long long *nvars)
{
    if (!exact_int(nvars_obj, 0, MAX_LEN, nvars))
        return invalid("nvars = %R is out of range", nvars_obj);
    for (int k = 0; k < n; k++) {
        int64_t hi = k == A_FIXED_VALS ? 3
            : k == A_SCOPE_OFF ? A[A_SCOPE_FLAT].n + 1
            : k == A_BIND_SIGN ? 2 : *nvars;
        if (to_array(seqs[k], ARRAY_NAMES[k], k == A_BIND_SIGN ? -1 : 0, hi,
                     &A[k]) < 0)
            return -1;
    }
    const IntArray *off = &A[A_SCOPE_OFF];
    Py_ssize_t nb = A[A_BIND_SIGN].n;
    if (A[A_FIXED_VALS].n != A[A_FIXED_VARS].n)
        return invalid("fixed_vals has %zd entries, fixed_vars %zd",
                       A[A_FIXED_VALS].n, A[A_FIXED_VARS].n);
    if (off->n < 1)
        return invalid("scope_off is empty");
    if (nb > off->n - 1)
        return invalid("bind_sign has %zd entries for %zd constraints", nb,
                       off->n - 1);
    for (Py_ssize_t i = 1; i < off->n; i++)
        if (off->v[i] < off->v[i - 1])
            return invalid("scope_off decreases at index %zd", i);
    for (Py_ssize_t c = 0; c < nb; c++)
        if (off->v[c] != 3 * c || off->v[c + 1] != 3 * c + 3)
            return invalid("binding %zd is not three wide at offset %zd", c,
                           3 * c);
    if (check_scopes(&A[A_SCOPE_FLAT], off, (Py_ssize_t)*nvars) < 0)
        return -1;
    /* the sign enters only mod 3: -1, 0, 1 become 2, 0, 1 */
    int32_t *sign = A[A_BIND_SIGN].v;
    for (Py_ssize_t c = 0; c < nb; c++)
        sign[c] = (sign[c] + 3) % 3;
    return 0;
}

/* Fill S->vc_flat / S->vc_off (allocated by the caller with room for
 * len(scope_flat) and nvars + 1 entries) with each variable's constraint
 * ids in ascending order: count each variable's entries into vc_off[v + 1],
 * sum them to offsets, then place the ids in id order with vc_off[v] as
 * variable v's cursor, which leaves it at the next variable's offset, and
 * shift the offsets back by one. */
static void
incidence(Search *S)
{
    int32_t *off = S->vc_off, *flat = S->vc_flat;
    memset(off, 0, ((size_t)S->nvars + 1) * sizeof(int32_t));
    for (int32_t i = S->off[0]; i < S->off[S->ncons]; i++)
        off[S->flat[i] + 1]++;
    for (int32_t v = 0; v < S->nvars; v++)
        off[v + 1] += off[v];
    for (int32_t c = 0; c < S->ncons; c++)
        for (int32_t i = S->off[c]; i < S->off[c + 1]; i++)
            flat[off[S->flat[i]]++] = c;
    memmove(off + 1, off, (size_t)S->nvars * sizeof(int32_t));
    off[0] = 0;
}

/* `splitmix64` of `_kernels`: one scramble, never 0. */
static uint64_t
splitmix64(uint64_t z)
{
    z += 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    return z ? z : 0x9E3779B97F4A7C15ULL;
}

/* `luby` of `_kernels`: term i (from 0) of 1, 1, 2, 1, 1, 2, 4, 1, ... */
static long long
luby(long long i)
{
    long long size = 1;
    int power = 0;
    while (size < i + 1) {
        size = 2 * size + 1;
        power++;
    }
    while (size - 1 != i) {
        size /= 2;
        power--;
        i %= size;
    }
    return 1LL << power;
}

/* `shuffled` of `_kernels`: out = a Fisher-Yates shuffle of in[0..n),
 * drawn from the xorshift64* stream at *state. */
static void
shuffle(int32_t *out, const int32_t *in, Py_ssize_t n, uint64_t *state)
{
    memcpy(out, in, (size_t)n * sizeof(int32_t));
    for (Py_ssize_t i = n - 1; i > 0; i--) {
        uint64_t x = *state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        *state = x;
        Py_ssize_t j = (Py_ssize_t)((x * 0x2545F4914F6CDD1DULL)
                                    % (uint64_t)(i + 1));
        int32_t t = out[i];
        out[i] = out[j];
        out[j] = t;
    }
}

/* `run` of `_kernels.fd_search`: one run from the root snapshot, branching
 * by dom/wdeg over order[0..n), ties to the earliest, with at most `budget`
 * decisions (<= 0: no bound), counted in *decisions.  Returns its status,
 * or -2 with a Python exception set. */
static int
run(Search *S, const int32_t *order, Py_ssize_t n, long long budget,
    long long cap, PyObject *solutions, long long *decisions)
{
    uint8_t *dom = S->dom;
    const int64_t *wdeg = S->wdeg;
    memcpy(dom, S->root, (size_t)S->nvars);
    S->tn = 0;
    S->nf = 0;
    for (;;) {
        int32_t branch = -1;
        int64_t best_size = 0, best_w = 0;
        for (Py_ssize_t i = 0; i < n; i++) {
            int32_t v = order[i];
            uint8_t mm = dom[v];
            if (mm & (mm - 1)) {
                int64_t size = mm == 7 ? 3 : 2;
                /* size / wdeg[v] < best_size / best_w, in integers */
                if (branch == -1 || size * best_w < best_size * wdeg[v]) {
                    branch = v;
                    best_size = size;
                    best_w = wdeg[v];
                }
            }
        }
        if (branch == -1) {
            int undetermined = 0;
            PyObject *sol = solution_tuple(dom, S->nvars, &undetermined);
            if (undetermined)
                return -1;
            if (sol == NULL || PyList_Append(solutions, sol) < 0) {
                Py_XDECREF(sol);
                return -2;
            }
            Py_DECREF(sol);
            if (0 < cap && cap <= PyList_GET_SIZE(solutions))
                return 1;
        } else {
            S->f_var[S->nf] = branch;
            S->f_vals[S->nf] = dom[branch];
            S->f_mark[S->nf] = S->tn;
            S->nf++;
        }
        /* the next untried value of the innermost frame, backtracking out
         * of exhausted frames as needed */
        for (;;) {
            if (S->nf == 0)
                return 0;
            int32_t top = S->nf - 1;
            uint8_t vals = S->f_vals[top];
            while (S->tn > S->f_mark[top]) {
                S->tn--;
                dom[S->trail_v[S->tn]] = S->trail_m[S->tn];
            }
            if (vals == 0) {
                S->nf--;
                continue;
            }
            uint8_t bit = vals & (uint8_t)-vals;
            S->f_vals[top] = vals - bit;
            ++*decisions;
            if (0 < budget && budget < *decisions)
                return 2;
            shrink(S, S->f_var[top], bit);
            int64_t r = propagate(S);
            if (r < 0) {
                S->backtracks++;
                continue;
            }
            S->props += r;
            break;
        }
    }
}

/* The search of `_kernels.fd_search` after its arguments are checked: the
 * root propagation, then the runs on the Luby schedule, run i >= 1 over a
 * shuffle of `order` into `shuffled`.  Returns the status of the last run,
 * or -2 with a Python exception set. */
static int
search(Search *S, const IntArray *fixed_vars, const IntArray *fixed_vals,
       const IntArray *order, long long budget, long long cap,
       uint64_t seed, long long unit, int32_t *shuffled,
       PyObject *solutions)
{
    uint8_t *dom = S->dom;
    memset(dom, 7, (size_t)S->nvars);
    for (Py_ssize_t i = 0; i < fixed_vars->n; i++) {
        int32_t v = fixed_vars->v[i];
        uint8_t m = dom[v] & (1 << fixed_vals->v[i]);
        if (m == 0)
            return 0;
        dom[v] = m;
    }
    for (int32_t cid = 0; cid < S->ncons; cid++) {
        S->in_q[cid] = 1;
        S->queue[S->qn++] = cid;
    }
    int64_t r = propagate(S);
    if (r < 0) {
        S->props = 1;
        return 0;
    }
    S->props += r;
    memcpy(S->root, dom, (size_t)S->nvars);

    uint64_t state = splitmix64(seed);
    long long remaining = budget;
    const int32_t *run_order = order->v;
    for (;;) {
        long long run_budget = remaining;
        int last = 1;
        if (unit > 0) {
            long long l = luby(S->restarts);
            run_budget = l > LLONG_MAX / unit ? LLONG_MAX : unit * l;
            last = 0 < remaining && remaining <= run_budget;
            if (last)
                run_budget = remaining;
        }
        long long d = 0;
        int status = run(S, run_order, order->n, run_budget, cap, solutions,
                         &d);
        if (status != 2 || last || PyList_GET_SIZE(solutions) > 0) {
            S->decisions += d;
            return status;
        }
        S->decisions += run_budget;
        if (budget > 0)
            remaining -= run_budget;
        S->restarts++;
        shuffle(shuffled, order->v, order->n, &state);
        run_order = shuffled;
    }
}

static PyObject *
fd_search(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *nvars_obj, *seqs[N_ARRAYS];
    long long nvars = 0, budget, cap, unit;
    unsigned long long seed;
    if (!PyArg_ParseTuple(args, "OOOOOOOLLKL:fd_search", &nvars_obj, &seqs[0],
                          &seqs[1], &seqs[2], &seqs[3], &seqs[4], &seqs[5],
                          &budget, &cap, &seed, &unit))
        return NULL;

    IntArray A[N_ARRAYS] = {{0}};
    Search S = {0};
    int32_t *shuffled = NULL;
    int status;
    PyObject *solutions = NULL, *result = NULL;
    if (load_arrays(nvars_obj, seqs, N_ARRAYS, A, &nvars) < 0)
        goto done;
    size_t nv1 = (size_t)nvars + 1;

    S.nvars = (int32_t)nvars;
    S.nb = (int32_t)A[A_BIND_SIGN].n;
    S.ncons = (int32_t)A[A_SCOPE_OFF].n - 1;
    S.flat = A[A_SCOPE_FLAT].v;
    S.off = A[A_SCOPE_OFF].v;
    S.bs = A[A_BIND_SIGN].v;
    S.vc_flat = PyMem_Malloc(((size_t)A[A_SCOPE_FLAT].n + 1) * sizeof(int32_t));
    S.vc_off = PyMem_Malloc(nv1 * sizeof(int32_t));
    S.dom = PyMem_Malloc(nv1);
    S.root = PyMem_Malloc(nv1);
    S.wdeg = PyMem_Malloc(nv1 * sizeof(int64_t));
    shuffled = PyMem_Malloc(((size_t)A[A_ORDER].n + 1) * sizeof(int32_t));
    S.in_q = PyMem_Calloc((size_t)S.ncons + 1, 1);
    S.queue = PyMem_Malloc(((size_t)S.ncons + 1) * sizeof(int32_t));
    S.trail_v = PyMem_Malloc(2 * nv1 * sizeof(int32_t));
    S.trail_m = PyMem_Malloc(2 * nv1);
    /* a frame's variable stays fixed while the frame lives, so the frames
     * hold distinct variables */
    S.f_var = PyMem_Malloc(nv1 * sizeof(int32_t));
    S.f_mark = PyMem_Malloc(nv1 * sizeof(int32_t));
    S.f_vals = PyMem_Malloc(nv1);
    if (!S.vc_flat || !S.vc_off || !S.dom || !S.root || !S.wdeg || !shuffled
            || !S.in_q || !S.queue || !S.trail_v || !S.trail_m || !S.f_var
            || !S.f_mark || !S.f_vals) {
        PyErr_NoMemory();
        goto done;
    }
    incidence(&S);
    /* every constraint starts at weight 1 */
    for (int32_t v = 0; v < S.nvars; v++)
        S.wdeg[v] = S.vc_off[v + 1] - S.vc_off[v];
    solutions = PyList_New(0);
    if (solutions == NULL)
        goto done;
    status = search(&S, &A[A_FIXED_VARS], &A[A_FIXED_VALS], &A[A_ORDER],
                    budget, cap, (uint64_t)seed, unit, shuffled, solutions);
    if (status != -2)
        result = Py_BuildValue("(iOLLLL)", status, solutions, S.decisions,
                               S.backtracks, S.props, S.restarts);
done:
    Py_XDECREF(solutions);
    for (int k = 0; k < N_ARRAYS; k++)
        PyMem_Free(A[k].v);
    PyMem_Free(S.vc_flat);
    PyMem_Free(S.vc_off);
    PyMem_Free(S.dom);
    PyMem_Free(S.root);
    PyMem_Free(S.wdeg);
    PyMem_Free(shuffled);
    PyMem_Free(S.in_q);
    PyMem_Free(S.queue);
    PyMem_Free(S.trail_v);
    PyMem_Free(S.trail_m);
    PyMem_Free(S.f_var);
    PyMem_Free(S.f_mark);
    PyMem_Free(S.f_vals);
    return result;
}

/* ------------------------------------------------------------------ */
/* count_strong_starters                                               */

/* The pairs of one starter: the stack below depth, then (a, b). */
static PyObject *
starter_list(const int32_t *sa, const int32_t *sb, int32_t depth,
             int32_t a, int32_t b)
{
    PyObject *pairs = PyList_New(depth + 1);
    if (pairs == NULL)
        return NULL;
    for (int32_t i = 0; i <= depth; i++) {
        PyObject *pair = i < depth ? Py_BuildValue("(ii)", sa[i], sb[i])
                                   : Py_BuildValue("(ii)", a, b);
        if (pair == NULL) {
            Py_DECREF(pairs);
            return NULL;
        }
        PyList_SET_ITEM(pairs, i, pair);
    }
    return pairs;
}

static PyObject *
count_strong_starters(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *n_obj;
    long long n, cap;
    if (!PyArg_ParseTuple(args, "OL:count_strong_starters", &n_obj, &cap))
        return NULL;
    /* an odd order folds every difference into 1..q */
    if (!exact_int(n_obj, 1, MAX_LEN, &n) || n % 2 == 0) {
        invalid("order must be odd and positive, got %R", n_obj);
        return NULL;
    }

    int32_t q = (int32_t)(n - 1) / 2;
    /* used[n] stays 0: a sentinel for the smallest-unused scan */
    uint8_t *used = PyMem_Calloc((size_t)n + 1, 1);
    uint8_t *diff_used = PyMem_Calloc((size_t)q + 1, 1);
    uint8_t *sum_used = PyMem_Calloc((size_t)n, 1);
    int32_t *sa = PyMem_Calloc((size_t)q + 1, sizeof(int32_t));
    int32_t *sb = PyMem_Calloc((size_t)q + 1, sizeof(int32_t));
    PyObject *collected = PyList_New(0), *result = NULL;
    long long count = 0;
    int32_t depth = 0, a = 1, b = 1;   /* b is incremented before each test */
    if (collected == NULL)
        goto done;
    if (!used || !diff_used || !sum_used || !sa || !sb) {
        PyErr_NoMemory();
        goto done;
    }

    for (;;) {
        b++;
        if (b >= n) {
            /* exhausted partners for a: backtrack */
            if (--depth < 0)
                break;
            a = sa[depth];
            b = sb[depth];
            used[a] = used[b] = 0;
            int32_t d = b - a;
            if (d > q)
                d = (int32_t)n - d;
            diff_used[d] = 0;
            sum_used[(a + b) % n] = 0;
            continue;
        }
        if (used[b])
            continue;
        int32_t d = b - a;
        if (d > q)
            d = (int32_t)n - d;
        if (diff_used[d])
            continue;
        int32_t s = (int32_t)((a + b) % n);
        if (s == 0 || sum_used[s])
            continue;

        if (depth == q - 1) {
            count++;
            if (cap > 0 && PyList_GET_SIZE(collected) < cap) {
                PyObject *pairs = starter_list(sa, sb, depth, a, b);
                if (pairs == NULL || PyList_Append(collected, pairs) < 0) {
                    Py_XDECREF(pairs);
                    goto done;
                }
                Py_DECREF(pairs);
            }
            continue;   /* leaf: keep scanning partners for a */
        }

        sa[depth] = a;
        sb[depth] = b;
        used[a] = used[b] = 1;
        diff_used[d] = 1;
        sum_used[s] = 1;
        depth++;
        /* next smallest unused element */
        a++;
        while (used[a])
            a++;
        b = a;
    }
    result = Py_BuildValue("(LO)", count, collected);
done:
    Py_XDECREF(collected);
    PyMem_Free(used);
    PyMem_Free(diff_used);
    PyMem_Free(sum_used);
    PyMem_Free(sa);
    PyMem_Free(sb);
    return result;
}

/* ------------------------------------------------------------------ */
/* dimacs_clauses                                                      */

/* The clause tuple being filled, and the literal objects it shares. */
typedef struct {
    PyObject *tuple;
    Py_ssize_t n;           /* clauses placed */
    PyObject **lit;         /* lit[l]: the int l, for 0 < |l| <= 3 * nvars */
} Clauses;

/* Place the clause of the first k of l0, l1, l2; 0, or -1 with a Python
 * error set.  A tuple of ints is in no reference cycle, so it leaves the
 * garbage collector's lists at once, as the collector itself would
 * untrack it on its next pass. */
static inline int
add_clause(Clauses *C, int k, long l0, long l1, long l2)
{
    PyObject *t = PyTuple_New(k);
    if (t == NULL)
        return -1;
    const long ls[3] = {l0, l1, l2};
    for (int j = 0; j < k; j++) {
        PyObject *x = C->lit[ls[j]];
        Py_INCREF(x);
        PyTuple_SET_ITEM(t, j, x);
    }
    PyObject_GC_UnTrack(t);
    PyTuple_SET_ITEM(C->tuple, C->n++, t);
    return 0;
}

/* `_kernels.dimacs_clauses`: counts the clauses, then fills one tuple in
 * the same order, every literal one shared object. */
static PyObject *
dimacs_clauses(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *nvars_obj, *seqs[A_ORDER];
    long long nvars = 0;
    if (!PyArg_ParseTuple(args, "OOOOOO:dimacs_clauses", &nvars_obj, &seqs[0],
                          &seqs[1], &seqs[2], &seqs[3], &seqs[4]))
        return NULL;

    IntArray A[N_ARRAYS] = {{0}};
    Clauses C = {NULL, 0, NULL};
    PyObject **lits = NULL, *result = NULL;
    long nbools = 0;
    if (load_arrays(nvars_obj, seqs, A_ORDER, A, &nvars) < 0)
        goto done;

    const int32_t *flat = A[A_SCOPE_FLAT].v, *off = A[A_SCOPE_OFF].v;
    const int32_t *sign = A[A_BIND_SIGN].v;     /* mod 3 after `load_arrays` */
    Py_ssize_t nb = A[A_BIND_SIGN].n, ncons = A[A_SCOPE_OFF].n - 1;
    /* 4 per ternary, 1 per fixed variable, 9 per binding, 3 per member pair
     * of each group; a group of m <= MAX_LEN members keeps this in int64 */
    int64_t count = 4 * (int64_t)nvars + A[A_FIXED_VARS].n + 9 * (int64_t)nb;
    for (Py_ssize_t c = nb; c < ncons; c++) {
        int64_t m = off[c + 1] - off[c];
        count += 3 * (m * (m - 1) / 2);
    }
    if (count > PY_SSIZE_T_MAX) {
        PyErr_NoMemory();
        goto done;
    }
    nbools = 3 * (long)nvars;
    lits = PyMem_Calloc(2 * (size_t)nbools + 1, sizeof(PyObject *));
    if (lits == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    C.lit = lits + nbools;
    for (long l = 1; l <= nbools; l++)
        if ((C.lit[l] = PyLong_FromLong(l)) == NULL
                || (C.lit[-l] = PyLong_FromLong(-l)) == NULL)
            goto done;
    C.tuple = PyTuple_New((Py_ssize_t)count);
    if (C.tuple == NULL)
        goto done;

    for (long b = 1; b <= nbools; b += 3)
        if (add_clause(&C, 3, b, b + 1, b + 2) < 0
                || add_clause(&C, 2, -b, -b - 1, 0) < 0
                || add_clause(&C, 2, -b, -b - 2, 0) < 0
                || add_clause(&C, 2, -b - 1, -b - 2, 0) < 0)
            goto done;
    for (Py_ssize_t i = 0; i < A[A_FIXED_VARS].n; i++)
        if (add_clause(&C, 1, 3L * A[A_FIXED_VARS].v[i] + 1 + A[A_FIXED_VALS].v[i],
                       0, 0) < 0)
            goto done;
    for (Py_ssize_t c = 0; c < nb; c++) {
        const int32_t *sc = flat + 3 * c;
        long na = -(3L * sc[0] + 1), nbm = -(3L * sc[1] + 1), pc = 3L * sc[2] + 1;
        /* a = va and b = vb imply c = (va + sign * vb) mod 3, for each
         * (va, vb) in itertools.product order */
        for (int va = 0; va < 3; va++)
            for (int vb = 0; vb < 3; vb++)
                if (add_clause(&C, 3, na - va, nbm - vb, pc + (va + sign[c] * vb) % 3) < 0)
                    goto done;
    }
    for (Py_ssize_t c = nb; c < ncons; c++)
        for (int32_t i = off[c]; i < off[c + 1]; i++)
            for (int32_t j = i + 1; j < off[c + 1]; j++) {
                long nx = -(3L * flat[i] + 1), ny = -(3L * flat[j] + 1);
                for (int v = 0; v < 3; v++)
                    if (add_clause(&C, 2, nx - v, ny - v, 0) < 0)
                        goto done;
            }
    result = C.tuple;
    C.tuple = NULL;
done:
    Py_XDECREF(C.tuple);
    if (lits != NULL) {
        for (size_t l = 0; l <= 2 * (size_t)nbools; l++)
            Py_XDECREF(lits[l]);
        PyMem_Free(lits);
    }
    for (int k = 0; k < N_ARRAYS; k++)
        PyMem_Free(A[k].v);
    return result;
}

/* ------------------------------------------------------------------ */
/* dimacs_text                                                         */

/* A growing output buffer. */
typedef struct {
    char *s;
    size_t len, cap;
} Text;

/* Room for `more` bytes past the end; 0, or -1 with MemoryError set. */
static int
reserve(Text *t, size_t more)
{
    if (t->cap - t->len >= more)
        return 0;
    size_t cap = 2 * t->cap;
    if (cap - t->len < more)
        cap = t->len + more;
    char *s = PyMem_Realloc(t->s, cap);
    if (s == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    t->s = s;
    t->cap = cap;
    return 0;
}

/* "00" "01" ... "99": the two digits of each n < 100 at 2 * n. */
static const char DIGIT_PAIRS[201] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536"
    "37383940414243444546474849505152535455565758596061626364656667686970717273"
    "7475767778798081828384858687888990919293949596979899";

/* Write x in decimal at p, two digits a step; returns the end. */
static inline char *
put_int(char *p, long long x)
{
    char digits[20], *d = digits + sizeof digits;
    unsigned long long u = (unsigned long long)x;
    if (x < 0) {
        *p++ = '-';
        u = 0 - u;
    }
    while (u >= 100) {
        d -= 2;
        memcpy(d, DIGIT_PAIRS + 2 * (u % 100), 2);
        u /= 100;
    }
    if (u >= 10) {
        d -= 2;
        memcpy(d, DIGIT_PAIRS + 2 * u, 2);
    }
    else
        *--d = (char)('0' + u);
    size_t n = (size_t)(digits + sizeof digits - d);
    memcpy(p, d, n);
    return p + n;
}

/* Write the NUL-terminated s at p; returns the end. */
static inline char *
put_str(char *p, const char *s)
{
    size_t n = strlen(s);
    memcpy(p, s, n);
    return p + n;
}

/* The text of one literal and the space after it, as `dimacs_text` writes
 * it ("-12 "); len is 0 until it is filled.  A literal takes at most 12
 * bytes, and 16 let one fixed-size copy move a whole entry. */
typedef struct {
    char s[15];
    uint8_t len;
} LitText;

/* The direct-mapped front of the literal table: slot h(o) holds the last
 * literal object o seen there and its entry. */
#define FRONT_BITS 10
typedef struct {
    PyObject *obj;
    const LitText *text;
} FrontSlot;

static inline size_t
front_slot(const PyObject *o)
{
    return (size_t)(((uint64_t)(uintptr_t)o >> 4) * UINT64_C(0x9E3779B97F4A7C15)
                    >> (64 - FRONT_BITS));
}

/* The header, tmap and problem lines, then each clause as it is checked:
 * one pass over the literals writes the same bytes as the %-templates of
 * `_kernels.dimacs_text` and refuses the same documents, with the same
 * ValueError messages.
 *
 * Each distinct literal is checked and formatted once per call.  Its text
 * goes into a table indexed by value (2 * num_bools + 1 entries), filled
 * on first use, and every clause copies entries out of it.  A front keyed
 * by the literal object's address then skips `exact_int` for an object
 * seen before in this call: the clauses tuple keeps every literal alive
 * for the whole call, and nothing here runs Python code, so an address
 * seen earlier still names the same int.  A bool or an out-of-range int
 * is never entered in the front, so it is refused at its own clause. */
static PyObject *
dimacs_text(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *nt_obj, *clauses;
    long long nt;
    if (!PyArg_ParseTuple(args, "OO:dimacs_text", &nt_obj, &clauses))
        return NULL;
    if (!exact_int(nt_obj, 0, MAX_LEN, &nt)) {
        invalid("num_ternary must be an integer in [0, %d], got %R", MAX_LEN,
                nt_obj);
        return NULL;
    }
    if (!PyTuple_CheckExact(clauses)) {
        PyObject *name = PyObject_GetAttrString((PyObject *)Py_TYPE(clauses),
                                                "__name__");
        if (name != NULL) {
            invalid("clauses must be a tuple, got %U", name);
            Py_DECREF(name);
        }
        return NULL;
    }

    long long nb = 3 * nt;
    Py_ssize_t nc = PyTuple_GET_SIZE(clauses);
    char scratch[20];
    /* a literal takes at most sign, digits and one separator */
    size_t lit_bytes = (size_t)(put_int(scratch, nb) - scratch) + 2;
    Text t = {NULL, 0, 0};
    PyObject *result = NULL;
    FrontSlot front[1 << FRONT_BITS] = {{0}};
    LitText *table = PyMem_Calloc(2 * (size_t)nb + 1, sizeof(LitText));
    if (table == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (reserve(&t, (size_t)nt * 47 + 128 + (size_t)nc * (3 * lit_bytes + 3)) < 0)
        goto done;
    char *p = put_str(t.s, "c ternary ");
    p = put_int(p, nt);
    p = put_str(p, " one-hot booleans ");
    p = put_int(p, nb);
    *p++ = '\n';
    for (long long i = 0; i < nt; i++) {
        p = put_str(p, "c tmap ");
        p = put_int(p, i);
        *p++ = ' ';
        p = put_int(p, 3 * i + 1);
        *p++ = '\n';
    }
    p = put_str(p, "p cnf ");
    p = put_int(p, nb);
    *p++ = ' ';
    p = put_int(p, nc);
    *p++ = '\n';
    t.len = (size_t)(p - t.s);

    for (Py_ssize_t i = 0; i < nc; i++) {
        PyObject *clause = PyTuple_GET_ITEM(clauses, i);
        if (!PyTuple_CheckExact(clause)) {
            invalid("clause %zd is not a tuple: %R", i, clause);
            goto done;
        }
        Py_ssize_t k = PyTuple_GET_SIZE(clause);
        /* the last entry copied writes sizeof(LitText) bytes from its start */
        if (reserve(&t, (size_t)k * lit_bytes + sizeof(LitText)) < 0)
            goto done;
        p = t.s + t.len;
        for (Py_ssize_t j = 0; j < k; j++) {
            PyObject *item = PyTuple_GET_ITEM(clause, j);
            FrontSlot *slot = &front[front_slot(item)];
            if (slot->obj != item) {
                long long lit;
                if (!exact_int(item, -nb, nb, &lit) || lit == 0) {
                    invalid("clause %zd: literal %R is not a nonzero int in "
                            "[-%lld, %lld]", i, item, nb, nb);
                    goto done;
                }
                LitText *e = &table[lit + nb];
                if (e->len == 0) {
                    char *end = put_int(e->s, lit);
                    *end++ = ' ';
                    e->len = (uint8_t)(end - e->s);
                }
                slot->obj = item;
                slot->text = e;
            }
            memcpy(p, slot->text, sizeof(LitText));
            p += slot->text->len;
        }
        if (k == 0)   /* " 0\n"; else the last entry's space ends "1 -2 0\n" */
            *p++ = ' ';
        *p++ = '0';
        *p++ = '\n';
        t.len = (size_t)(p - t.s);
    }

    result = PyUnicode_New((Py_ssize_t)t.len, 127);
    if (result != NULL)
        memcpy(PyUnicode_1BYTE_DATA(result), t.s, t.len);
done:
    PyMem_Free(table);
    PyMem_Free(t.s);
    return result;
}

/* ------------------------------------------------------------------ */
/* pairing_report                                                      */

/* Append the new string s to list; 0, or -1 with an error set (also when
 * s is NULL). */
static int
append_new(PyObject *list, PyObject *s)
{
    if (s == NULL)
        return -1;
    int rc = PyList_Append(list, s);
    Py_DECREF(s);
    return rc;
}

/* Append format % x for every x in [0, n) counted more than once,
 * ascending. */
static int
append_repeats(PyObject *list, const char *format, const int32_t *count,
               int32_t n)
{
    for (int32_t x = 0; x < n; x++)
        if (count[x] > 1
                && append_new(list, PyUnicode_FromFormat(format, (int)x)) < 0)
            return -1;
    return 0;
}

/* Append "missing differences a, b, ..." naming every x in [1, n) that no
 * signed difference hit, unless there is none. */
static int
append_missing(PyObject *list, const int32_t *diff, int32_t n)
{
    /* each x takes at most 10 digits and ", " */
    char *s = PyMem_Malloc(32 + 12 * (size_t)n);
    if (s == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    char *start = put_str(s, "missing differences "), *p = start;
    for (int32_t x = 1; x < n; x++)
        if (diff[x] == 0) {
            if (p != start)
                p = put_str(p, ", ");
            p = put_int(p, x);
        }
    int rc = p == start
        ? 0 : append_new(list, PyUnicode_FromStringAndSize(s, p - s));
    PyMem_Free(s);
    return rc;
}

/* `_kernels.pairing_report`, with the same checks in the same order.  One
 * pass over the pairs `load_pairs` read counts each one's elements, both
 * signed differences and its sum in three arrays of length n; a count that
 * passes 1 marks a repeat as it happens, so no count can hide one.  The
 * diagnostics, made only when some flag is off, come from a scan of the
 * counts in ascending order, which is the order of the pure lists. */
static PyObject *
pairing_report(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *n_obj, *pairs;
    long long n;
    if (!PyArg_ParseTuple(args, "OO:pairing_report", &n_obj, &pairs))
        return NULL;
    if (!exact_int(n_obj, 3, MAX_LEN, &n) || n % 2 == 0) {
        invalid("modulus must be odd and in [3, %d], got %R", MAX_LEN, n_obj);
        return NULL;
    }
    Py_ssize_t k = sequence(pairs, "pairs");
    if (k < 0)
        return NULL;
    if (k != (n - 1) / 2) {
        invalid("pairing of order %lld must have %lld pairs, got %zd", n,
                (n - 1) / 2, k);
        return NULL;
    }

    /* the counts, then the 2k = n - 1 entries of the pairs */
    int32_t *count = PyMem_Calloc(4 * (size_t)n, sizeof(int32_t));
    int32_t *elem = count, *diff = count + n, *sum = count + 2 * n;
    int32_t *val = count + 3 * n;
    PyObject *sums = PyTuple_New(k), *diags = NULL, *result = NULL;
    if (sums == NULL)
        goto done;
    if (count == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (load_pairs(pairs, "pairs", n, val) < 0)
        goto done;
    int dup = 0, repeated = 0, sum_dup = 0;
    for (Py_ssize_t i = 0; i < k; i++) {
        long long a = val[2 * i], b = val[2 * i + 1];
        /* a == b and d == 0 count one slot twice: one increment a statement */
        long long d = (a - b + n) % n, s = (a + b) % n;
        dup |= ++elem[a] > 1;
        dup |= ++elem[b] > 1;
        repeated |= ++diff[d] > 1;
        repeated |= ++diff[d ? n - d : 0] > 1;
        sum_dup |= ++sum[s] > 1;
        PyObject *s_obj = PyLong_FromLongLong(s);
        if (s_obj == NULL)
            goto done;
        PyTuple_SET_ITEM(sums, i, s_obj);
    }

    int zero_elem = elem[0] > 0, zero_diff = diff[0] > 0;
    int zero_sum = sum[0] > 0;
    int partition = !dup && !zero_elem;
    int starter = partition && !zero_diff && !repeated;
    int strong = starter && !sum_dup && !zero_sum;
    if (strong)
        diags = PyTuple_New(0);
    else {
        PyObject *list = PyList_New(0);
        if (list == NULL)
            goto done;
        int32_t n32 = (int32_t)n;
        int rc = 0;
        if (dup)
            rc = append_repeats(list, "duplicate element %d", elem, n32);
        if (rc == 0 && zero_elem)
            rc = append_new(list, PyUnicode_FromString("element 0 present"));
        if (rc == 0 && zero_diff)
            rc = append_new(list, PyUnicode_FromString(
                "zero difference (pair with equal entries)"));
        if (rc == 0 && (repeated || zero_diff))
            rc = append_missing(list, diff, n32);
        if (rc == 0 && sum_dup)
            rc = append_repeats(list, "repeated sum %d", sum, n32);
        if (rc == 0 && zero_sum)
            rc = append_new(list, PyUnicode_FromString("zero sum"));
        if (rc < 0) {
            Py_DECREF(list);
            goto done;
        }
        diags = PyList_AsTuple(list);
        Py_DECREF(list);
    }
    if (diags != NULL)
        result = PyTuple_Pack(5, partition ? Py_True : Py_False,
                              starter ? Py_True : Py_False,
                              strong ? Py_True : Py_False, sums, diags);
done:
    Py_XDECREF(sums);
    Py_XDECREF(diags);
    PyMem_Free(count);
    return result;
}

/* ------------------------------------------------------------------ */
/* merge_pairs                                                         */

/* The new int x in [0, 3p) with x = r (mod p) and x = s (mod 3), for r in
 * [0, p) and s in {0, 1, 2}: r + p * ((s - r) * p mod 3), with r and p
 * reduced mod 3 first so the product is nonnegative and C's % is mod. */
static inline PyObject *
lift(long r, long s, long p)
{
    return PyLong_FromLong(r + p * ((s - r % 3 + 3) * (p % 3) % 3));
}

/* A new pair of the lifts of (a, u) and (b, v); NULL with an error set. */
static PyObject *
lifted_pair(long a, long b, long u, long v, long p)
{
    PyObject *x = lift(a, u, p);
    PyObject *y = x == NULL ? NULL : lift(b, v, p);
    PyObject *pair = y == NULL ? NULL : PyTuple_New(2);
    if (pair == NULL) {
        Py_XDECREF(x);
        Py_XDECREF(y);
        return NULL;
    }
    PyTuple_SET_ITEM(pair, 0, x);
    PyTuple_SET_ITEM(pair, 1, y);
    return pair;
}

/* `_kernels.merge_pairs`, with the same checks in the same order: the
 * pairs `load_pairs` read, then every U and V; then one pass fills pair i
 * of both merges.  phi maps a value v to -v mod 3.  3p <= 3 * MAX_LEN fits
 * in a long. */
static PyObject *
merge_pairs(PyObject *Py_UNUSED(self), PyObject *args)
{
    static const long PHI[3] = {0, 2, 1};
    PyObject *p_obj, *ext, *sol;
    long long p;
    if (!PyArg_ParseTuple(args, "OOO:merge_pairs", &p_obj, &ext, &sol))
        return NULL;
    if (!exact_int(p_obj, 1, MAX_LEN, &p) || p % 3 == 0) {
        invalid("p must be coprime to 3 and in [1, %d], got %R", MAX_LEN,
                p_obj);
        return NULL;
    }
    Py_ssize_t k = sequence(ext, "extension"), nsol;
    if (k < 0 || (nsol = sequence(sol, "solution")) < 0)
        return NULL;
    if (nsol < 2 * k) {
        invalid("solution has %zd entries, fewer than the %zd of U and V",
                nsol, 2 * k);
        return NULL;
    }

    /* the 2k entries of the pairs, then the 2k U and V */
    PyObject **items = PySequence_Fast_ITEMS(sol);
    int32_t *val = PyMem_Malloc((4 * (size_t)k + 1) * sizeof(int32_t)), *uv;
    PyObject *merged = PyTuple_New(k);
    PyObject *phi = merged == NULL ? NULL : PyTuple_New(k);
    PyObject *result = NULL;
    if (phi == NULL)
        goto done;
    if (val == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (load_pairs(ext, "extension", p, val) < 0)
        goto done;
    uv = val + 2 * k;
    for (Py_ssize_t j = 0; j < 2 * k; j++) {
        long long x;
        if (!exact_int(items[j], 0, 2, &x)) {
            invalid("solution[%zd] = %R is outside [0, 3)", j, items[j]);
            goto done;
        }
        uv[j] = (int32_t)x;
    }
    for (Py_ssize_t i = 0; i < k; i++) {
        long a = val[2 * i], b = val[2 * i + 1];
        long u = uv[2 * i], v = uv[2 * i + 1];
        PyObject *x = lifted_pair(a, b, u, v, (long)p);
        if (x == NULL)
            goto done;
        PyTuple_SET_ITEM(merged, i, x);
        x = lifted_pair(a, b, PHI[u], PHI[v], (long)p);
        if (x == NULL)
            goto done;
        PyTuple_SET_ITEM(phi, i, x);
    }
    result = PyTuple_Pack(2, merged, phi);
done:
    PyMem_Free(val);
    Py_XDECREF(merged);
    Py_XDECREF(phi);
    return result;
}

/* ------------------------------------------------------------------ */

static PyMethodDef methods[] = {
    {"encode_table", encode_table, METH_VARARGS,
     "C version of `_kernels.encode_table`; same arguments and result."},
    {"fd_search", fd_search, METH_VARARGS,
     "C version of `_kernels.fd_search`; same arguments and result."},
    {"count_strong_starters", count_strong_starters, METH_VARARGS,
     "C version of `_kernels.count_strong_starters`; same arguments and "
     "result."},
    {"dimacs_clauses", dimacs_clauses, METH_VARARGS,
     "C version of `_kernels.dimacs_clauses`; same arguments and result."},
    {"dimacs_text", dimacs_text, METH_VARARGS,
     "C version of `_kernels.dimacs_text`; same arguments and result."},
    {"pairing_report", pairing_report, METH_VARARGS,
     "C version of `_kernels.pairing_report`; same arguments and result."},
    {"merge_pairs", merge_pairs, METH_VARARGS,
     "C version of `_kernels.merge_pairs`; same arguments and result."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_ckernels",
    "C versions of the kernels `_kernels.COMPILED` names.",
    -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__ckernels(void)
{
    build_tables();
    return PyModule_Create(&module);
}
