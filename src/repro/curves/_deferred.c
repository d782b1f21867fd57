/*
 * Compiled loops of the deferred ("numpy") curve kernel.
 *
 * The four loops the DP spends its time in -- the join cross product,
 * the buffer offer, the relocation round (with its snapshot) and the
 * prune -- over the unchanged Python representation of
 * repro.curves.kernels.PendingCurve: a dict mapping the bucket key
 * (round(load * inv_load), round(area * inv_area)) to an entry tuple
 * (load, area, req, ctx, i).  repro.curves.native builds this file on
 * first import; repro.curves.kernels binds it to the kernel contract.
 *
 * Bit-identical to the python oracle (repro.curves.backend_python):
 *   - every double is the same expression tree, in the same order, as
 *     the Python loops; the build passes -ffp-contract=off, so no
 *     multiply-add is fused, and never -ffast-math;
 *   - Python's round() rounds half to even: nearbyint() in the default
 *     rounding mode does the same, and PyLong_FromDouble() raises on
 *     NaN and infinity with round()'s own exceptions;
 *   - a candidate replaces a bucket's incumbent only on a strictly
 *     higher required time, and candidates are offered in the python
 *     stream order, so the dict ends with the same values in the same
 *     insertion order.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdlib.h>
#include <string.h>

#if PY_VERSION_HEX < 0x030A0000
static inline PyObject *
Py_NewRef(PyObject *o)
{
    Py_INCREF(o);
    return o;
}
#endif

static PyObject *s_by_bucket, *s_inv_load, *s_inv_area, *s_root, *s_pruned,
    *s_load, *s_area, *s_required_time, *s_manhattan_to, *s_join, *s_buf,
    *s_ext1, *s_buf1, *s_zero;

static const char SNAPSHOT[] = "repro.curves._deferred.snapshot";

/* ------------------------------------------------------------------ */
/* Helpers                                                             */
/* ------------------------------------------------------------------ */

static inline int
as_double(PyObject *o, double *out)
{
    if (PyFloat_CheckExact(o)) {
        *out = PyFloat_AS_DOUBLE(o);
        return 0;
    }
    *out = PyFloat_AsDouble(o);
    return (*out == -1.0 && PyErr_Occurred()) ? -1 : 0;
}

/* round(x) as Python computes it, as a new int object. */
static inline PyObject *
bucket(double x)
{
    return PyLong_FromDouble(nearbyint(x));
}

/* The key tuple (a, b); steals both references, NULLs fail cleanly. */
static PyObject *
pair(PyObject *a, PyObject *b)
{
    PyObject *t;
    if (a == NULL || b == NULL || (t = PyTuple_New(2)) == NULL) {
        Py_XDECREF(a);
        Py_XDECREF(b);
        return NULL;
    }
    PyTuple_SET_ITEM(t, 0, a);
    PyTuple_SET_ITEM(t, 1, b);
    return t;
}

/* (round(x), round(y)): x is rounded first, as in the Python tuple. */
static PyObject *
bucket_key(double x, double y)
{
    PyObject *a = bucket(x);
    if (a == NULL)
        return NULL;
    return pair(a, bucket(y));
}

/* The entry (load, area, req, ctx, i) from five stolen references. */
static PyObject *
new_entry(PyObject *load, PyObject *area, PyObject *req, PyObject *ctx,
          PyObject *i)
{
    PyObject *items[5] = {load, area, req, ctx, i};
    PyObject *t = NULL;
    int k, ok = 1;
    for (k = 0; k < 5; k++)
        ok = ok && items[k] != NULL;
    if (ok)
        t = PyTuple_New(5);
    if (t == NULL) {
        for (k = 0; k < 5; k++)
            Py_XDECREF(items[k]);
        return NULL;
    }
    for (k = 0; k < 5; k++)
        PyTuple_SET_ITEM(t, k, items[k]);
    return t;
}

/* The bucket map's rule: 1 when ``key`` is empty or its incumbent's
 * required time is strictly lower than ``req``, 0 when not, -1 on error. */
static inline int
accepts(PyObject *by_bucket, PyObject *key, double req)
{
    double held;
    PyObject *incumbent = PyDict_GetItemWithError(by_bucket, key);
    if (incumbent == NULL)
        return PyErr_Occurred() ? -1 : 1;
    if (!PyTuple_Check(incumbent) || PyTuple_GET_SIZE(incumbent) < 3) {
        PyErr_SetString(PyExc_TypeError, "bucket value is not an entry");
        return -1;
    }
    if (as_double(PyTuple_GET_ITEM(incumbent, 2), &held) < 0)
        return -1;
    return held < req;
}

/* Store ``entry`` (stolen) under ``key`` (borrowed). */
static inline int
store(PyObject *by_bucket, PyObject *key, PyObject *entry)
{
    int rc;
    if (entry == NULL)
        return -1;
    rc = PyDict_SetItem(by_bucket, key, entry);
    Py_DECREF(entry);
    return rc;
}

/* The live state of one PendingCurve. */
typedef struct {
    PyObject *by_bucket;
    PyObject *root;
    double inv_load, inv_area;
} Curve;

static void
curve_close(Curve *c)
{
    Py_CLEAR(c->by_bucket);
    Py_CLEAR(c->root);
}

static int
curve_open(PyObject *curve, Curve *c)
{
    PyObject *v;
    int rc;
    c->root = NULL;
    c->by_bucket = PyObject_GetAttr(curve, s_by_bucket);
    if (c->by_bucket == NULL)
        return -1;
    if (!PyDict_CheckExact(c->by_bucket)) {
        PyErr_SetString(PyExc_TypeError, "_by_bucket is not a dict");
        goto fail;
    }
    if ((v = PyObject_GetAttr(curve, s_inv_load)) == NULL)
        goto fail;
    rc = as_double(v, &c->inv_load);
    Py_DECREF(v);
    if (rc < 0 || (v = PyObject_GetAttr(curve, s_inv_area)) == NULL)
        goto fail;
    rc = as_double(v, &c->inv_area);
    Py_DECREF(v);
    if (rc < 0 || (c->root = PyObject_GetAttr(curve, s_root)) == NULL)
        goto fail;
    return 0;
fail:
    curve_close(c);
    return -1;
}

static int
mark_unpruned(PyObject *curve)
{
    return PyObject_SetAttr(curve, s_pruned, Py_False);
}

/* The (buffer, input_cap, area, d0, slope) library tuples, with the
 * quantized input-cap keys when given; the objects stay borrowed from
 * the caller's lists, which outlive the call. */
typedef struct {
    Py_ssize_t m;
    PyObject **buffer, **input_cap, **cap_key;
    double *area, *d0, *slope;
} Library;

static void
library_close(Library *lib)
{
    PyMem_Free(lib->buffer);
    PyMem_Free(lib->area);
    lib->buffer = NULL;
    lib->area = NULL;
}

static int
library_open(PyObject *params, PyObject *cap_keys, Library *lib)
{
    Py_ssize_t j, m;
    lib->buffer = NULL;
    lib->area = NULL;
    if (!PyList_CheckExact(params) || (cap_keys != NULL && (
            !PyList_CheckExact(cap_keys)
            || PyList_GET_SIZE(params) != PyList_GET_SIZE(cap_keys)))) {
        PyErr_SetString(PyExc_TypeError,
                        "params and cap_keys must be lists of one length");
        return -1;
    }
    m = lib->m = PyList_GET_SIZE(params);
    lib->buffer = PyMem_Calloc(3 * m + 1, sizeof(PyObject *));
    lib->area = PyMem_Calloc(3 * m + 1, sizeof(double));
    if (lib->buffer == NULL || lib->area == NULL) {
        library_close(lib);
        PyErr_NoMemory();
        return -1;
    }
    lib->input_cap = lib->buffer + m;
    lib->cap_key = lib->buffer + 2 * m;
    lib->d0 = lib->area + m;
    lib->slope = lib->area + 2 * m;
    for (j = 0; j < m; j++) {
        PyObject *p = PyList_GET_ITEM(params, j);
        if (!PyTuple_Check(p) || PyTuple_GET_SIZE(p) != 5) {
            PyErr_SetString(PyExc_TypeError,
                            "buffer params must be 5-tuples");
            goto fail;
        }
        lib->buffer[j] = PyTuple_GET_ITEM(p, 0);
        lib->input_cap[j] = PyTuple_GET_ITEM(p, 1);
        lib->cap_key[j] = cap_keys ? PyList_GET_ITEM(cap_keys, j) : NULL;
        if (as_double(PyTuple_GET_ITEM(p, 2), &lib->area[j]) < 0
                || as_double(PyTuple_GET_ITEM(p, 3), &lib->d0[j]) < 0
                || as_double(PyTuple_GET_ITEM(p, 4), &lib->slope[j]) < 0)
            goto fail;
    }
    return 0;
fail:
    library_close(lib);
    return -1;
}

/* (load, area, required_time) of a Solution or an entry tuple. */
static int
attributes(PyObject *s, double *load, double *area, double *req)
{
    PyObject *v[3];
    int k, rc = 0;
    if (PyTuple_CheckExact(s)) {
        if (PyTuple_GET_SIZE(s) < 3) {
            PyErr_SetString(PyExc_TypeError, "entry tuples have 5 items");
            return -1;
        }
        return (as_double(PyTuple_GET_ITEM(s, 0), load) < 0
                || as_double(PyTuple_GET_ITEM(s, 1), area) < 0
                || as_double(PyTuple_GET_ITEM(s, 2), req) < 0) ? -1 : 0;
    }
    v[0] = PyObject_GetAttr(s, s_load);
    v[1] = v[0] ? PyObject_GetAttr(s, s_area) : NULL;
    v[2] = v[1] ? PyObject_GetAttr(s, s_required_time) : NULL;
    if (v[2] == NULL || as_double(v[0], load) < 0
            || as_double(v[1], area) < 0 || as_double(v[2], req) < 0)
        rc = -1;
    for (k = 0; k < 3; k++)
        Py_XDECREF(v[k]);
    return rc;
}

/* ------------------------------------------------------------------ */
/* join                                                                */
/* ------------------------------------------------------------------ */

PyDoc_STRVAR(join_doc,
"join(curve, lefts, rights)\n--\n\n"
"Cross-product join of two frozen Solution blocks into ``curve``,\n"
"left-major: loads and areas add, the required time is the smaller\n"
"one.  Accepted pairs store ``(load, area, req, ctx, i)`` with\n"
"``ctx = (\"join\", root, lefts, rights, len(rights))`` and ``i`` the\n"
"pair's flat index.");

static PyObject *
deferred_join(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *curve, *lefts, *rights, *ctx = NULL, *result = NULL;
    PyObject **req_obj = NULL;
    double *load = NULL, *area, *req;
    Py_ssize_t na, nb, n = 0, a, b, i = 0;
    Curve c = {NULL, NULL, 0.0, 0.0};
    int stored = 0;

    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "join(curve, lefts, rights)");
        return NULL;
    }
    curve = args[0];
    lefts = PySequence_Fast(args[1], "join blocks must be sequences");
    rights = lefts ? PySequence_Fast(args[2], "join blocks must be "
                                              "sequences") : NULL;
    if (rights == NULL)
        goto done;
    na = PySequence_Fast_GET_SIZE(lefts);
    nb = PySequence_Fast_GET_SIZE(rights);
    if (na == 0 || nb == 0) {
        result = Py_NewRef(Py_None);
        goto done;
    }
    if (curve_open(curve, &c) < 0)
        goto done;
    n = na + nb;
    load = PyMem_Malloc(3 * n * sizeof(double));
    req_obj = PyMem_Calloc(n, sizeof(PyObject *));
    if (load == NULL || req_obj == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    area = load + n;
    req = load + 2 * n;
    /* Attributes of lefts then rights: index a < na is left a, na + b
     * is right b. */
    for (a = 0; a < n; a++) {
        PyObject *s = a < na ? PySequence_Fast_GET_ITEM(lefts, a)
                             : PySequence_Fast_GET_ITEM(rights, a - na);
        PyObject *v = PyObject_GetAttr(s, s_load);
        int rc = v == NULL ? -1 : as_double(v, &load[a]);
        Py_XDECREF(v);
        if (rc < 0 || (v = PyObject_GetAttr(s, s_area)) == NULL)
            goto done;
        rc = as_double(v, &area[a]);
        Py_DECREF(v);
        if (rc < 0
                || (req_obj[a] = PyObject_GetAttr(s, s_required_time)) == NULL
                || as_double(req_obj[a], &req[a]) < 0)
            goto done;
    }
    {
        PyObject *nb_obj = PyLong_FromSsize_t(nb);
        if (nb_obj == NULL)
            goto done;
        ctx = PyTuple_Pack(5, s_join, c.root, lefts, rights, nb_obj);
        Py_DECREF(nb_obj);
        if (ctx == NULL)
            goto done;
    }
    for (a = 0; a < na; a++) {
        double a_load = load[a], a_area = area[a], a_req = req[a];
        for (b = na; b < n; b++, i++) {
            double p_load = a_load + load[b];
            int pick_left = a_req < req[b];
            double p_req = pick_left ? a_req : req[b];
            double p_area = a_area + area[b];
            int ok;
            PyObject *key = bucket_key(p_load * c.inv_load,
                                       p_area * c.inv_area);
            if (key == NULL)
                goto done;
            ok = accepts(c.by_bucket, key, p_req);
            if (ok > 0) {
                ok = store(c.by_bucket, key, new_entry(
                    PyFloat_FromDouble(p_load), PyFloat_FromDouble(p_area),
                    Py_NewRef(req_obj[pick_left ? a : b]), Py_NewRef(ctx),
                    PyLong_FromSsize_t(i)));
                stored = 1;
            }
            Py_DECREF(key);
            if (ok < 0)
                goto done;
        }
    }
    if (stored && mark_unpruned(curve) < 0)
        goto done;
    result = Py_NewRef(Py_None);
done:
    if (req_obj != NULL)
        for (a = 0; a < n; a++)
            Py_XDECREF(req_obj[a]);
    PyMem_Free(req_obj);
    PyMem_Free(load);
    Py_XDECREF(ctx);
    Py_XDECREF(lefts);
    Py_XDECREF(rights);
    curve_close(&c);
    return result;
}

/* ------------------------------------------------------------------ */
/* Buffer offer                                                        */
/* ------------------------------------------------------------------ */

PyDoc_STRVAR(add_buffer_doc,
"add_buffer(curve, sources, params, cap_keys)\n--\n\n"
"Offer every library buffer at the root of each source (Solutions or\n"
"entry tuples), source-major.  Accepted offers store\n"
"``(input_cap, area, req, ctx, i)`` with\n"
"``ctx = (\"buf\", root, list(sources), params)``.");

static PyObject *
deferred_add_buffer(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *curve, *sources = NULL, *ctx = NULL, *result = NULL;
    Py_ssize_t n, s, j, i = 0;
    Curve c = {NULL, NULL, 0.0, 0.0};
    Library lib = {0, NULL, NULL, NULL, NULL, NULL, NULL};
    int stored = 0;

    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "add_buffer(curve, sources, params, cap_keys)");
        return NULL;
    }
    curve = args[0];
    if ((sources = PySequence_List(args[1])) == NULL)
        return NULL;
    if (library_open(args[2], args[3], &lib) < 0)
        goto done;
    n = PyList_GET_SIZE(sources);
    if (n == 0 || lib.m == 0) {
        result = Py_NewRef(Py_None);
        goto done;
    }
    if (curve_open(curve, &c) < 0)
        goto done;
    ctx = PyTuple_Pack(4, s_buf, c.root, sources, args[2]);
    if (ctx == NULL)
        goto done;
    for (s = 0; s < n; s++) {
        double load, area, req;
        if (attributes(PyList_GET_ITEM(sources, s), &load, &area, &req) < 0)
            goto done;
        for (j = 0; j < lib.m; j++, i++) {
            double new_req = req - lib.d0[j] - lib.slope[j] * load;
            double new_area = area + lib.area[j];
            int ok;
            PyObject *key = pair(Py_NewRef(lib.cap_key[j]),
                                 bucket(new_area * c.inv_area));
            if (key == NULL)
                goto done;
            ok = accepts(c.by_bucket, key, new_req);
            if (ok > 0) {
                ok = store(c.by_bucket, key, new_entry(
                    Py_NewRef(lib.input_cap[j]), PyFloat_FromDouble(new_area),
                    PyFloat_FromDouble(new_req), Py_NewRef(ctx),
                    PyLong_FromSsize_t(i)));
                stored = 1;
            }
            Py_DECREF(key);
            if (ok < 0)
                goto done;
        }
    }
    if (stored && mark_unpruned(curve) < 0)
        goto done;
    result = Py_NewRef(Py_None);
done:
    Py_XDECREF(ctx);
    Py_XDECREF(sources);
    library_close(&lib);
    curve_close(&c);
    return result;
}

/* ------------------------------------------------------------------ */
/* Relocation                                                          */
/* ------------------------------------------------------------------ */

/* One curve as a relocation source, computed once per round: moving an
 * entry over a wire changes its load and required time but not its
 * area, so the area half of every offer's key holds for each target
 * and wire width (the curves of one round share one CurveConfig). */
typedef struct {
    Py_ssize_t n, m;
    PyObject **entry;   /* n entries, owned */
    PyObject **akey;    /* n area keys, owned */
    PyObject **bkey;    /* n * m buffered-offer keys, owned */
    double *load, *req; /* n each */
    double *b_area;     /* n * m */
} Snapshot;

static void
snapshot_free(Snapshot *snap)
{
    Py_ssize_t k;
    if (snap == NULL)
        return;
    if (snap->entry != NULL)
        for (k = 0; k < snap->n * (2 + snap->m); k++)
            Py_XDECREF(snap->entry[k]);
    PyMem_Free(snap->entry);
    PyMem_Free(snap->load);
    PyMem_Free(snap);
}

static void
snapshot_destructor(PyObject *capsule)
{
    snapshot_free(PyCapsule_GetPointer(capsule, SNAPSHOT));
}

PyDoc_STRVAR(snapshot_doc,
"snapshot(curve, params, cap_keys)\n--\n\n"
"Snapshot ``curve`` as a relocation source for one round: its entries\n"
"with their offer keys, computed once for every target.");

static PyObject *
deferred_snapshot(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *key, *value, *capsule;
    Py_ssize_t pos = 0, e = 0, j, n, m;
    Curve c = {NULL, NULL, 0.0, 0.0};
    Library lib = {0, NULL, NULL, NULL, NULL, NULL, NULL};
    Snapshot *snap = NULL;

    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError,
                        "snapshot(curve, params, cap_keys)");
        return NULL;
    }
    if (curve_open(args[0], &c) < 0)
        return NULL;
    if (library_open(args[1], args[2], &lib) < 0)
        goto fail;
    n = PyDict_GET_SIZE(c.by_bucket);
    m = lib.m;
    snap = PyMem_Calloc(1, sizeof(Snapshot));
    if (snap == NULL)
        goto nomem;
    snap->m = m;
    snap->entry = PyMem_Calloc(n * (2 + m) + 1, sizeof(PyObject *));
    snap->load = PyMem_Calloc(n * (2 + m) + 1, sizeof(double));
    if (snap->entry == NULL || snap->load == NULL)
        goto nomem;
    snap->n = n;
    snap->akey = snap->entry + n;
    snap->bkey = snap->entry + 2 * n;
    snap->req = snap->load + n;
    snap->b_area = snap->load + 2 * n;
    while (PyDict_Next(c.by_bucket, &pos, &key, &value)) {
        double area;
        if (!PyTuple_CheckExact(value) || PyTuple_GET_SIZE(value) < 3) {
            PyErr_SetString(PyExc_TypeError, "bucket value is not an entry");
            goto fail;
        }
        snap->entry[e] = Py_NewRef(value);
        if (as_double(PyTuple_GET_ITEM(value, 0), &snap->load[e]) < 0
                || as_double(PyTuple_GET_ITEM(value, 2), &snap->req[e]) < 0
                || as_double(PyTuple_GET_ITEM(value, 1), &area) < 0
                || (snap->akey[e] = bucket(area * c.inv_area)) == NULL)
            goto fail;
        for (j = 0; j < m; j++) {
            double b_area = area + lib.area[j];
            snap->b_area[e * m + j] = b_area;
            snap->bkey[e * m + j] = pair(Py_NewRef(lib.cap_key[j]),
                                         bucket(b_area * c.inv_area));
            if (snap->bkey[e * m + j] == NULL)
                goto fail;
        }
        e++;
    }
    capsule = PyCapsule_New(snap, SNAPSHOT, snapshot_destructor);
    if (capsule == NULL)
        goto fail;
    library_close(&lib);
    curve_close(&c);
    return capsule;
nomem:
    PyErr_NoMemory();
fail:
    snapshot_free(snap);
    library_close(&lib);
    curve_close(&c);
    return NULL;
}

/* The moved entry (load, area, req, ("ext1", root, t, length, width), 0). */
static PyObject *
moved_entry(double load, PyObject *t, double req, PyObject *root,
            PyObject *length, PyObject *width)
{
    return new_entry(PyFloat_FromDouble(load),
                     Py_NewRef(PyTuple_GET_ITEM(t, 1)),
                     PyFloat_FromDouble(req),
                     PyTuple_Pack(5, s_ext1, root, t, length, width),
                     Py_NewRef(s_zero));
}

/* matrix[row][col] as a double. */
static int
cell(PyObject *matrix, Py_ssize_t row, Py_ssize_t col, double *out)
{
    PyObject *r = PySequence_GetItem(matrix, row), *v;
    int rc;
    if (r == NULL)
        return -1;
    v = PySequence_GetItem(r, col);
    Py_DECREF(r);
    if (v == NULL)
        return -1;
    rc = as_double(v, out);
    Py_DECREF(v);
    return rc;
}

PyDoc_STRVAR(relocate_doc,
"relocate(curve, to_idx, snapshots, params, wire_res, wire_cap,\n"
"         candidates, wire_widths)\n--\n\n"
"One target's relocation relaxation over every other snapshot:\n"
"sources ascending, then wire widths, then snapshot entries, each\n"
"offering the unbuffered move and then every buffer; buffered offers\n"
"share one moved entry.  Returns True when any bucket accepted.");

static PyObject *
deferred_relocate(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *curve, *snapshots, *widths = NULL, *result = NULL;
    Py_ssize_t to_idx, frm, w, e, j, n_widths;
    Curve c = {NULL, NULL, 0.0, 0.0};
    Library lib = {0, NULL, NULL, NULL, NULL, NULL, NULL};
    double *width = NULL;
    int changed = 0;

    if (nargs != 8) {
        PyErr_SetString(PyExc_TypeError,
                        "relocate(curve, to_idx, snapshots, params, "
                        "wire_res, wire_cap, candidates, wire_widths)");
        return NULL;
    }
    curve = args[0];
    snapshots = args[2];
    to_idx = PyLong_AsSsize_t(args[1]);
    if (to_idx == -1 && PyErr_Occurred())
        return NULL;
    if (!PyList_CheckExact(snapshots)) {
        PyErr_SetString(PyExc_TypeError, "snapshots must be a list");
        return NULL;
    }
    if ((widths = PySequence_Tuple(args[7])) == NULL)
        return NULL;
    n_widths = PyTuple_GET_SIZE(widths);
    if ((width = PyMem_Malloc((n_widths + 1) * sizeof(double))) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (w = 0; w < n_widths; w++)
        if (as_double(PyTuple_GET_ITEM(widths, w), &width[w]) < 0)
            goto done;
    if (library_open(args[3], NULL, &lib) < 0 || curve_open(curve, &c) < 0)
        goto done;
    for (frm = 0; frm < PyList_GET_SIZE(snapshots); frm++) {
        Snapshot *snap;
        PyObject *length;
        double base_res, base_cap;
        if (frm == to_idx)
            continue;
        snap = PyCapsule_GetPointer(PyList_GET_ITEM(snapshots, frm),
                                    SNAPSHOT);
        if (snap == NULL)
            goto done;
        if (snap->n == 0)
            continue;
        if (snap->m != lib.m) {
            PyErr_SetString(PyExc_ValueError,
                            "snapshot taken with another library");
            goto done;
        }
        if (cell(args[4], frm, to_idx, &base_res) < 0
                || cell(args[5], frm, to_idx, &base_cap) < 0)
            goto done;
        {
            PyObject *source = PySequence_GetItem(args[6], frm);
            if (source == NULL)
                goto done;
            length = PyObject_CallMethodOneArg(source, s_manhattan_to,
                                               c.root);
            Py_DECREF(source);
            if (length == NULL)
                goto done;
        }
        for (w = 0; w < n_widths; w++) {
            double res = base_res / width[w];
            double cap = base_cap * width[w];
            double half_self = 0.5 * cap;
            PyObject *width_obj = PyTuple_GET_ITEM(widths, w);
            for (e = 0; e < snap->n; e++) {
                double s_load = snap->load[e];
                double load = s_load + cap;
                double req = snap->req[e] - res * (half_self + s_load);
                PyObject *t = snap->entry[e], *moved = NULL, *key;
                int ok;
                key = pair(bucket(load * c.inv_load),
                           Py_NewRef(snap->akey[e]));
                if (key == NULL)
                    goto fail_length;
                ok = accepts(c.by_bucket, key, req);
                if (ok > 0) {
                    moved = moved_entry(load, t, req, c.root, length,
                                        width_obj);
                    ok = moved == NULL ? -1 : PyDict_SetItem(c.by_bucket,
                                                             key, moved);
                    changed = 1;
                }
                Py_DECREF(key);
                for (j = 0; ok >= 0 && j < lib.m; j++) {
                    double b_req = req - lib.d0[j] - lib.slope[j] * load;
                    PyObject *b_key = snap->bkey[e * lib.m + j];
                    ok = accepts(c.by_bucket, b_key, b_req);
                    if (ok <= 0)
                        continue;
                    if (moved == NULL && (moved = moved_entry(
                            load, t, req, c.root, length, width_obj)) == NULL) {
                        ok = -1;
                        break;
                    }
                    ok = store(c.by_bucket, b_key, new_entry(
                        Py_NewRef(lib.input_cap[j]),
                        PyFloat_FromDouble(snap->b_area[e * lib.m + j]),
                        PyFloat_FromDouble(b_req),
                        PyTuple_Pack(4, s_buf1, c.root, moved,
                                     lib.buffer[j]),
                        Py_NewRef(s_zero)));
                    changed = 1;
                }
                Py_XDECREF(moved);
                if (ok < 0)
                    goto fail_length;
            }
        }
        Py_DECREF(length);
        continue;
fail_length:
        Py_DECREF(length);
        goto done;
    }
    if (changed && mark_unpruned(curve) < 0)
        goto done;
    result = Py_NewRef(changed ? Py_True : Py_False);
done:
    PyMem_Free(width);
    Py_XDECREF(widths);
    library_close(&lib);
    curve_close(&c);
    return result;
}

/* ------------------------------------------------------------------ */
/* Prune                                                               */
/* ------------------------------------------------------------------ */

typedef struct {
    double load, area, req;
    PyObject *key, *entry; /* borrowed from the input dict */
} Item;

/* (load, area) order: unique within a curve, because every entry is
 * keyed from exactly the two doubles it stores, so this is the order of
 * Python's tuple sort of the entries, which never compares past area. */
static int
load_area_order(const void *pa, const void *pb)
{
    const Item *a = pa, *b = pb;
    if (a->load != b->load)
        return a->load < b->load ? -1 : 1;
    if (a->area != b->area)
        return a->area < b->area ? -1 : 1;
    return 0;
}

/* bisect.bisect_right(a[lo:hi], x) + lo, with bisect's comparisons. */
static Py_ssize_t
bisect_right(const double *a, double x, Py_ssize_t lo, Py_ssize_t hi)
{
    while (lo < hi) {
        Py_ssize_t mid = (lo + hi) / 2;
        if (x < a[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

/* The capacity cap over pruned items in sweep order, in place: the
 * best-required-time, first (least-load) and least-area items first,
 * then the rest sampled at an even stride.  Returns the new count. */
static Py_ssize_t
thin(Item *items, Py_ssize_t n, Py_ssize_t cap, Item *scratch)
{
    Py_ssize_t by_req = 0, by_area = 0, i, k, n_forced = 0, n_rest = 0;
    Py_ssize_t forced[3], candidates[3], slots;
    double best_req = items[0].req, best_area = items[0].area;
    for (i = 1; i < n; i++) {
        if (items[i].req > best_req) {
            best_req = items[i].req;
            by_req = i;
        }
        if (items[i].area < best_area) {
            best_area = items[i].area;
            by_area = i;
        }
    }
    candidates[0] = by_req;
    candidates[1] = 0;
    candidates[2] = by_area;
    for (i = 0; i < 3; i++) {
        int seen = 0;
        for (k = 0; k < n_forced; k++)
            seen = seen || forced[k] == candidates[i];
        if (!seen)
            forced[n_forced++] = candidates[i];
    }
    for (k = 0; k < n_forced; k++)
        scratch[k] = items[forced[k]];
    for (i = 0; i < n; i++) {
        int is_forced = 0;
        for (k = 0; k < n_forced; k++)
            is_forced = is_forced || forced[k] == i;
        if (!is_forced)
            scratch[n_forced + n_rest++] = items[i];
    }
    slots = cap - n_forced;
    if (slots <= 0) {
        n_rest = 0;
    }
    else if (n_rest > slots) {
        double stride = (double)n_rest / (double)slots;
        Item *rest = scratch + n_forced;
        for (i = 0; i < slots; i++)
            rest[i] = rest[(Py_ssize_t)((double)i * stride)];
        n_rest = slots;
    }
    memcpy(items, scratch, (n_forced + n_rest) * sizeof(Item));
    return n_forced + n_rest;
}

PyDoc_STRVAR(prune_doc,
"prune(by_bucket, max_solutions)\n--\n\n"
"The pruned bucket map: entries 3-D dominated by another dropped by a\n"
"2-D frontier sweep in (load, area) order, the survivors thinned to\n"
"``max_solutions``, each under its own key, in sweep order.");

static PyObject *
deferred_prune(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *by_bucket, *key, *value, *out = NULL;
    Py_ssize_t n, pos = 0, i = 0, kept = 0, front = 0, cap;
    Item *items = NULL;
    double *areas = NULL, *reqs;

    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "prune(by_bucket, max_solutions)");
        return NULL;
    }
    by_bucket = args[0];
    if (!PyDict_CheckExact(by_bucket)) {
        PyErr_SetString(PyExc_TypeError, "by_bucket must be a dict");
        return NULL;
    }
    cap = PyLong_AsSsize_t(args[1]);
    if (cap == -1 && PyErr_Occurred())
        return NULL;
    n = PyDict_GET_SIZE(by_bucket);
    items = PyMem_Malloc((2 * n + 1) * sizeof(Item));
    areas = PyMem_Malloc((2 * n + 1) * sizeof(double));
    if (items == NULL || areas == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    reqs = areas + n;
    while (PyDict_Next(by_bucket, &pos, &key, &value)) {
        Item *it = &items[i++];
        if (!PyTuple_CheckExact(value) || PyTuple_GET_SIZE(value) < 3) {
            PyErr_SetString(PyExc_TypeError, "bucket value is not an entry");
            goto done;
        }
        it->key = key;
        it->entry = value;
        if (as_double(PyTuple_GET_ITEM(value, 0), &it->load) < 0
                || as_double(PyTuple_GET_ITEM(value, 1), &it->area) < 0
                || as_double(PyTuple_GET_ITEM(value, 2), &it->req) < 0)
            goto done;
    }
    qsort(items, n, sizeof(Item), load_area_order);
    /* Every earlier item has load no larger, so an item is dominated iff
     * an earlier survivor has area no larger and required time no lower.
     * The frontier keeps the survivors' 2-D (area, req) staircase: both
     * strictly rising, except that an equal area may repeat; a new
     * survivor overwrites the points it dominates with itself. */
    for (i = 0; i < n; i++) {
        Item *it = &items[i];
        Py_ssize_t idx = bisect_right(areas, it->area, 0, front), end;
        if (idx && reqs[idx - 1] >= it->req)
            continue;
        items[kept++] = *it;
        end = bisect_right(reqs, it->req, idx, front);
        memmove(areas + idx + 1, areas + end,
                (front - end) * sizeof(double));
        memmove(reqs + idx + 1, reqs + end, (front - end) * sizeof(double));
        areas[idx] = it->area;
        reqs[idx] = it->req;
        front += idx + 1 - end;
    }
    if (kept > cap)
        kept = thin(items, kept, cap, items + n);
    if ((out = PyDict_New()) == NULL)
        goto done;
    for (i = 0; i < kept; i++)
        if (PyDict_SetItem(out, items[i].key, items[i].entry) < 0) {
            Py_CLEAR(out);
            goto done;
        }
done:
    PyMem_Free(items);
    PyMem_Free(areas);
    return out;
}

/* ------------------------------------------------------------------ */
/* Module                                                              */
/* ------------------------------------------------------------------ */

static PyMethodDef deferred_methods[] = {
    {"join", (PyCFunction)(void (*)(void))deferred_join, METH_FASTCALL,
     join_doc},
    {"add_buffer", (PyCFunction)(void (*)(void))deferred_add_buffer,
     METH_FASTCALL, add_buffer_doc},
    {"snapshot", (PyCFunction)(void (*)(void))deferred_snapshot,
     METH_FASTCALL, snapshot_doc},
    {"relocate", (PyCFunction)(void (*)(void))deferred_relocate,
     METH_FASTCALL, relocate_doc},
    {"prune", (PyCFunction)(void (*)(void))deferred_prune, METH_FASTCALL,
     prune_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef deferred_module = {
    PyModuleDef_HEAD_INIT, "_deferred",
    "Compiled loops of the deferred curve kernel (see _deferred.c).", -1,
    deferred_methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__deferred(void)
{
    static const char *const names[] = {
        "_by_bucket", "_inv_load", "_inv_area", "root", "_pruned", "load",
        "area", "required_time", "manhattan_to", "join", "buf", "ext1",
        "buf1"};
    PyObject **slots[] = {
        &s_by_bucket, &s_inv_load, &s_inv_area, &s_root, &s_pruned,
        &s_load, &s_area, &s_required_time, &s_manhattan_to, &s_join,
        &s_buf, &s_ext1, &s_buf1};
    size_t k;
    for (k = 0; k < sizeof(names) / sizeof(names[0]); k++)
        if (*slots[k] == NULL
                && (*slots[k] = PyUnicode_InternFromString(names[k])) == NULL)
            return NULL;
    if (s_zero == NULL && (s_zero = PyLong_FromLong(0)) == NULL)
        return NULL;
    return PyModule_Create(&deferred_module);
}
