"""Hot numeric kernels: exact elimination over GF(q), products, the MDS scan.

Rank, solve and product have two backends that produce the same element
values:

* ``numba`` -- the loop kernels below compiled with ``@njit`` (default
  whenever numba imports cleanly; numba is an optional extra);
* ``numpy`` -- interpreted Python for small systems, numpy row operations
  for large ones, and a table-driven product kernel; no compilation step.

``PMDS_BACKEND=numba|numpy`` selects the backend at import time.  The MDS
scan (``mds_scan``) is one numpy implementation on both backends: a
depth-first walk of the lexicographic combination tree that eliminates each
column prefix once, for all the subsets through it, and tests every pair
that completes a (k-2)-column prefix with one vectorised 2 x 2 determinant
grid.

Kernels take field arithmetic unpacked as ``(p, h, q, log, exp)`` int/array
arguments (see ``GF.tables``): addition is digit-wise mod p on base-p digit
vectors (XOR when p = 2) and multiplication goes through the log/antilog
tables.  Matrices passed in are int64 arrays of element indices.

The numpy ``matmul`` multiplies by lookup: an extended antilog table read at
``log[c] + log[x]``, where ``log[0]`` is a sentinel that lands on zeros, so
the slice ``exp_ext[log[c]:]`` is the full row of products by the
coefficient c and one 1-D gather multiplies a whole operand row by c.  Zero
coefficients are skipped, so a generator's zeros cost nothing.  Products
are accumulated by XOR (p = 2), as an integer sum reduced mod p (h = 1), or
digit-wise (odd p, h > 1).  Its result holds narrow symbols: ``uint8`` for
q <= 256, ``uint16`` above.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

_requested = os.environ.get("PMDS_BACKEND", "").strip().lower()
if _requested not in ("", "numba", "numpy"):
    raise RuntimeError(f"PMDS_BACKEND must be 'numba' or 'numpy', got {_requested!r}")

HAVE_NUMBA = False
if _requested != "numpy":
    try:
        from numba import njit

        HAVE_NUMBA = True
    except ImportError:
        if _requested == "numba":
            raise RuntimeError("PMDS_BACKEND=numba but numba is not importable")
        warnings.warn("numba not importable; falling back to the numpy backend")

BACKEND = "numba" if HAVE_NUMBA else "numpy"


# -- scalar element ops (compiled on the numba backend) -----------------------


def _s_add(a, b, p, h):
    if p == 2:
        return a ^ b
    if h == 1:
        return (a + b) % p
    s = 0
    mul = 1
    for _ in range(h):
        s += ((a + b) % p) * mul
        a //= p
        b //= p
        mul *= p
    return s


def _s_sub(a, b, p, h):
    if p == 2:
        return a ^ b
    if h == 1:
        return (a - b) % p
    s = 0
    mul = 1
    for _ in range(h):
        s += ((a - b) % p) * mul
        a //= p
        b //= p
        mul *= p
    return s


def _s_mul(a, b, q, logt, expt):
    if a == 0 or b == 0:
        return 0
    return expt[(logt[a] + logt[b]) % (q - 1)]


def _s_inv(a, q, logt, expt):
    return expt[(q - 1 - logt[a]) % (q - 1)]


# -- loop kernels (the numba backend compiles these) ---------------------------


def _rank_in_place(m, p, h, q, logt, expt):
    """Row rank by Gaussian elimination; m is destroyed.

    Pivoting takes the first nonzero entry scanning top to bottom (exact
    arithmetic needs no magnitude ordering).
    """
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = -1
        for i in range(r, rows):
            if m[i, c] != 0:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            for j in range(c, cols):
                t = m[r, j]
                m[r, j] = m[piv, j]
                m[piv, j] = t
        pinv = _s_inv(m[r, c], q, logt, expt)
        for j in range(c, cols):
            m[r, j] = _s_mul(m[r, j], pinv, q, logt, expt)
        for i in range(r + 1, rows):
            f = m[i, c]
            if f != 0:
                for j in range(c, cols):
                    m[i, j] = _s_sub(m[i, j], _s_mul(f, m[r, j], q, logt, expt), p, h)
        r += 1
    return r


def _solve_in_place(a, b, p, h, q, logt, expt):
    """Gauss-Jordan on a k x k system with multiple right-hand sides.

    a is k x k and b is k x w; both are destroyed.  Returns 0 and leaves the
    solution in b, or returns 1 if a is singular.
    """
    k = a.shape[0]
    w = b.shape[1]
    for c in range(k):
        piv = -1
        for i in range(c, k):
            if a[i, c] != 0:
                piv = i
                break
        if piv < 0:
            return 1
        if piv != c:
            for j in range(k):
                t = a[c, j]
                a[c, j] = a[piv, j]
                a[piv, j] = t
            for j in range(w):
                t = b[c, j]
                b[c, j] = b[piv, j]
                b[piv, j] = t
        pinv = _s_inv(a[c, c], q, logt, expt)
        for j in range(c, k):
            a[c, j] = _s_mul(a[c, j], pinv, q, logt, expt)
        for j in range(w):
            b[c, j] = _s_mul(b[c, j], pinv, q, logt, expt)
        for i in range(k):
            if i != c and a[i, c] != 0:
                f = a[i, c]
                for j in range(c, k):
                    a[i, j] = _s_sub(a[i, j], _s_mul(f, a[c, j], q, logt, expt), p, h)
                for j in range(w):
                    b[i, j] = _s_sub(b[i, j], _s_mul(f, b[c, j], q, logt, expt), p, h)
    return 0


def _matmul(a, b, p, h, q, logt, expt):
    n, inner = a.shape
    cols = b.shape[1]
    out = np.zeros((n, cols), dtype=np.int64)
    for i in range(n):
        for t in range(inner):
            f = a[i, t]
            if f != 0:
                for j in range(cols):
                    out[i, j] = _s_add(out[i, j], _s_mul(f, b[t, j], q, logt, expt), p, h)
    return out


if HAVE_NUMBA:
    _jit = njit(cache=True, nogil=True)
    _s_add = _jit(_s_add)
    _s_sub = _jit(_s_sub)
    _s_mul = _jit(_s_mul)
    _s_inv = _jit(_s_inv)
    _rank_in_place = _jit(_rank_in_place)
    _solve_in_place = _jit(_solve_in_place)
    _matmul = _jit(_matmul)


# -- vectorized element ops (numpy; shared by builders and the numpy backend) --


def v_add(a, b, p, h):
    a, b = np.broadcast_arrays(np.asarray(a, np.int64), np.asarray(b, np.int64))
    if p == 2:
        return np.bitwise_xor(a, b)
    if h == 1:
        return (a + b) % p
    out = np.zeros(a.shape, dtype=np.int64)
    aa, bb, mul = a.copy(), b.copy(), 1
    for _ in range(h):
        out += ((aa + bb) % p) * mul
        aa //= p
        bb //= p
        mul *= p
    return out


def v_sub(a, b, p, h):
    a, b = np.broadcast_arrays(np.asarray(a, np.int64), np.asarray(b, np.int64))
    if p == 2:
        return np.bitwise_xor(a, b)
    if h == 1:
        return (a - b) % p
    out = np.zeros(a.shape, dtype=np.int64)
    aa, bb, mul = a.copy(), b.copy(), 1
    for _ in range(h):
        out += ((aa - bb) % p) * mul
        aa //= p
        bb //= p
        mul *= p
    return out


def v_neg(a, p, h):
    return v_sub(np.zeros_like(np.asarray(a, np.int64)), a, p, h)


def v_mul(a, b, q, logt, expt):
    a, b = np.broadcast_arrays(np.asarray(a, np.int64), np.asarray(b, np.int64))
    out = np.zeros(a.shape, dtype=np.int64)
    nz = (a != 0) & (b != 0)
    if np.any(nz):
        out[nz] = expt[(logt[a[nz]] + logt[b[nz]]) % (q - 1)]
    return out


# -- numpy backend kernels -----------------------------------------------------
#
# Vectorized row operations carry a fixed per-call numpy cost, so eliminating
# a 4x4 decode system that way is pure overhead.  Below the cutoff the numpy
# backend runs the same algorithm as interpreted Python over plain ints
# (exact arithmetic: results are identical either way).

_SCALAR_CUTOFF = 400  # elements

_BLOCK = 16384  # product entries per pass: a block of operand logs stays in cache

_table_cache: dict[int, tuple] = {}


def _field_tables(logt, expt):
    """Tables derived once per field: (log list, exp list) for the scalar
    path and (log_ext, exp_ext) for the product kernel.

    ``log_ext`` is ``log`` as intp with ``log_ext[0]`` set to a sentinel
    past every sum of two logs; ``exp_ext[i]`` is ``exp[i mod (q-1)]`` below
    the sentinel and 0 from it on, in the narrow symbol dtype.  The zero tail
    runs to twice the sentinel, so ``exp_ext[log_ext[a] + log_ext[b]]`` is
    the product a * b for every pair of elements, zeros included.
    """
    hit = _table_cache.get(id(logt))
    if hit is None or hit[0] is not logt:
        qm = logt.size - 1
        sentinel = 2 * qm - 1
        log_ext = logt.astype(np.intp)
        log_ext[0] = sentinel
        exp_ext = np.zeros(2 * sentinel + 1, dtype=np.uint8 if qm < 256 else np.uint16)
        exp_ext[:sentinel] = expt[np.arange(sentinel) % qm]
        hit = (logt, logt.tolist(), expt.tolist(), log_ext, exp_ext)
        _table_cache[id(logt)] = hit
    return hit[1:]


def _scalar_sub_fn(p, h):
    if p == 2:
        return lambda a, b: a ^ b
    if h == 1:
        return lambda a, b: (a - b) % p

    def sub(a, b):
        s, mul = 0, 1
        for _ in range(h):
            s += ((a - b) % p) * mul
            a //= p
            b //= p
            mul *= p
        return s

    return sub


def _rank_scalar(m, p, h, q, logt, expt):
    lt, et, _, _ = _field_tables(logt, expt)
    sub = _scalar_sub_fn(p, h)
    qm = q - 1
    rows = m.tolist()
    nrows, ncols = len(rows), len(rows[0])
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = -1
        for i in range(r, nrows):
            if rows[i][c]:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        rr = rows[r]
        li = (qm - lt[rr[c]]) % qm  # log of the pivot inverse
        for j in range(c, ncols):
            x = rr[j]
            if x:
                rr[j] = et[(lt[x] + li) % qm]
        for i in range(r + 1, nrows):
            ri = rows[i]
            f = ri[c]
            if f:
                lf = lt[f]
                for j in range(c, ncols):
                    y = rr[j]
                    if y:
                        ri[j] = sub(ri[j], et[(lf + lt[y]) % qm])
        r += 1
    return r


def _solve_scalar(a, b, p, h, q, logt, expt):
    lt, et, _, _ = _field_tables(logt, expt)
    sub = _scalar_sub_fn(p, h)
    qm = q - 1
    rows_a = a.tolist()
    rows_b = b.tolist()
    k = len(rows_a)
    w = len(rows_b[0]) if rows_b else 0
    for c in range(k):
        piv = -1
        for i in range(c, k):
            if rows_a[i][c]:
                piv = i
                break
        if piv < 0:
            return 1
        if piv != c:
            rows_a[c], rows_a[piv] = rows_a[piv], rows_a[c]
            rows_b[c], rows_b[piv] = rows_b[piv], rows_b[c]
        ac, bc = rows_a[c], rows_b[c]
        li = (qm - lt[ac[c]]) % qm
        for j in range(c, k):
            x = ac[j]
            if x:
                ac[j] = et[(lt[x] + li) % qm]
        for j in range(w):
            x = bc[j]
            if x:
                bc[j] = et[(lt[x] + li) % qm]
        for i in range(k):
            if i != c and rows_a[i][c]:
                ai, bi = rows_a[i], rows_b[i]
                lf = lt[ai[c]]
                for j in range(c, k):
                    y = ac[j]
                    if y:
                        ai[j] = sub(ai[j], et[(lf + lt[y]) % qm])
                for j in range(w):
                    y = bc[j]
                    if y:
                        bi[j] = sub(bi[j], et[(lf + lt[y]) % qm])
    a[:] = rows_a
    b[:] = rows_b
    return 0


def _rank_numpy(m, p, h, q, logt, expt):
    if m.size <= _SCALAR_CUTOFF:
        return _rank_scalar(m, p, h, q, logt, expt)
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        pinv = int(expt[(q - 1 - int(logt[m[r, c]])) % (q - 1)])
        m[r, c:] = v_mul(m[r, c:], pinv, q, logt, expt)
        f = m[r + 1 :, c]
        if f.size:
            m[r + 1 :, c:] = v_sub(
                m[r + 1 :, c:], v_mul(f[:, None], m[r, c:][None, :], q, logt, expt), p, h
            )
        r += 1
    return r


def _solve_numpy(a, b, p, h, q, logt, expt):
    if a.size <= _SCALAR_CUTOFF:
        if b.size <= _SCALAR_CUTOFF:
            return _solve_scalar(a, b, p, h, q, logt, expt)
        # Many right-hand sides: invert a once, then one product applies it.
        inv = np.eye(a.shape[0], dtype=np.int64)
        if _solve_scalar(a, inv, p, h, q, logt, expt):
            return 1
        b[:] = _matmul_numpy(inv, b, p, h, q, logt, expt)
        return 0
    k = a.shape[0]
    for c in range(k):
        nz = np.nonzero(a[c:, c])[0]
        if nz.size == 0:
            return 1
        piv = c + int(nz[0])
        if piv != c:
            a[[c, piv]] = a[[piv, c]]
            b[[c, piv]] = b[[piv, c]]
        pinv = int(expt[(q - 1 - int(logt[a[c, c]])) % (q - 1)])
        a[c, c:] = v_mul(a[c, c:], pinv, q, logt, expt)
        b[c] = v_mul(b[c], pinv, q, logt, expt)
        f = a[:, c].copy()
        f[c] = 0
        hit = np.nonzero(f)[0]
        if hit.size:
            a[hit, c:] = v_sub(
                a[hit, c:], v_mul(f[hit, None], a[c, c:][None, :], q, logt, expt), p, h
            )
            b[hit] = v_sub(b[hit], v_mul(f[hit, None], b[c][None, :], q, logt, expt), p, h)
    return 0


def _matmul_numpy(a, b, p, h, q, logt, expt):
    """a @ b by table lookups, one pass per row of the smaller output side.

    Over columns the result is the transpose of a C-ordered (cols, rows)
    buffer, so each output column is contiguous.
    """
    if a.shape[0] >= b.shape[1]:
        return _product_rows(b.T, a.T, p, h, logt, expt).T
    return _product_rows(a, b, p, h, logt, expt)


def _product_rows(coef, x, p, h, logt, expt):
    """out[i] = sum over t of coef[i, t] * x[t], skipping zero coefficients."""
    lt, _, log_ext, exp_ext = _field_tables(logt, expt)
    length = x.shape[1]
    out = np.zeros((coef.shape[0], length), dtype=exp_ext.dtype)
    xlog = log_ext[x]
    passes = [[(t, lt[c]) for t, c in enumerate(row) if c] for row in coef.tolist()]
    for s in range(0, length, _BLOCK):
        xs = xlog[:, s : s + _BLOCK]
        for acc, terms in zip(out[:, s : s + _BLOCK], passes):
            if p == 2:
                for t, lc in terms:
                    acc ^= exp_ext[lc:][xs[t]]
            elif h == 1:
                total = np.zeros(acc.size, dtype=np.int64)
                for t, lc in terms:
                    total += exp_ext[lc:][xs[t]]
                acc[:] = total % p
            else:
                for t, lc in terms:
                    acc[:] = v_add(acc, exp_ext[lc:][xs[t]], p, h)
    return out


# -- the MDS scan (one implementation on both backends) ---------------------------


def mds_scan(m, p, h, q, logt, expt):
    """The lexicographically first linearly dependent k-column subset of the
    k x n matrix m, as a list of column indices, or None if there is none.

    A depth-first walk of the lexicographic combination tree.  A node is a
    column prefix and holds R: the coordinates of every later column in the
    quotient space modulo the span of the prefix, k - depth rows.  Taking
    column c is one elimination step on R; an all-zero R[:, c] makes every
    subset through prefix + c dependent, and the first of those is prefix + c
    followed by the next consecutive columns.  At depth k - 2, R has two rows
    and prefix + {j, l} is dependent iff R[0, j] R[1, l] = R[1, j] R[0, l]:
    one vectorised test over the grid of pairs, whose row-major order is the
    lexicographic order.  The walk keeps one R per depth at most, so its
    memory is O(k * k * n) entries plus one ``_BLOCK`` of the pair grid.
    """
    k = m.shape[0]
    lt, _, log_ext, exp_ext = _field_tables(logt, expt)
    if k == 1:
        zero = np.flatnonzero(m[0] == 0)
        return [int(zero[0])] if zero.size else None
    qm = q - 1
    sentinel = int(log_ext[0])
    # Nodes with children left to visit: [prefix, R over columns base.., base,
    # offset of the next child].  A node's last child replaces it, so a k = n
    # scan holds one R at a time.
    stack = [[[], np.asarray(m, dtype=np.int64), 0, 0]]
    while stack:
        node = stack[-1]
        prefix, r, base, t = node
        rows, cols = r.shape
        if rows == 2:
            stack.pop()
            pair = _dependent_pair(r, log_ext, exp_ext)
            if pair is not None:
                return prefix + [base + pair[0], base + pair[1]]
            continue
        if t == cols - rows:  # the last child that leaves room for the rest
            stack.pop()
        else:
            node[3] = t + 1
        col = r[:, t].tolist()
        piv = next((i for i, x in enumerate(col) if x), None)
        if piv is None:
            return prefix + list(range(base + t, base + t + rows))
        # Coordinates of columns t+1.. modulo column t: subtract col_i / pivot
        # times the pivot row from every other row, then drop the pivot row.
        li = qm - lt[col[piv]]
        coef = [(lt[x] + li) % qm if x else sentinel for x in col]
        del coef[piv]
        prod = exp_ext[np.array(coef)[:, None] + log_ext[r[piv, t + 1 :]]]
        rest = r[[i for i in range(rows) if i != piv], t + 1 :]
        if p == 2:
            rest ^= prod
        elif h == 1:
            rest = (rest - prod) % p
        else:
            rest = v_sub(rest, prod, p, h)
        stack.append([prefix + [base + t], rest, base + t + 1, 0])
    return None


def _dependent_pair(r, log_ext, exp_ext):
    """The first (j, l) with j < l, in row-major order, whose columns of the
    two-row r are dependent, or None.  Works in row blocks of at most
    ``_BLOCK`` grid entries, so memory does not grow with the pair count."""
    l0, l1 = log_ext[r]
    cols = l0.size
    step = max(1, _BLOCK // cols)
    for j0 in range(0, cols - 1, step):
        j1 = min(j0 + step, cols - 1)
        # Entry (j - j0, l - j0 - 1) compares r0[j] r1[l] with r1[j] r0[l].
        # The test is symmetric in j and l, and a hit at l < j is preceded in
        # row-major order by its mirror at row l of the same block, so only
        # the always-equal diagonal l = j needs masking.
        hit = (
            exp_ext[l0[j0:j1, None] + l1[j0 + 1 :]] == exp_ext[l1[j0:j1, None] + l0[j0 + 1 :]]
        )
        width = hit.shape[1]
        flat = hit.reshape(-1)
        flat[width :: width + 1] = False
        at = int(flat.argmax())
        if flat[at]:
            j, l = divmod(at, width)
            return j0 + j, j0 + 1 + l
    return None


# -- public backend bindings ----------------------------------------------------

if BACKEND == "numba":
    rank_in_place = _rank_in_place
    solve_in_place = _solve_in_place
    matmul = _matmul
else:
    rank_in_place = _rank_numpy
    solve_in_place = _solve_numpy
    matmul = _matmul_numpy
