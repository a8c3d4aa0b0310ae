"""Hot numeric kernels: exact elimination over GF(q), products, the MDS scan.

One numpy implementation per operation:

* ``rank_in_place`` and ``solve_in_place`` -- Gauss-Jordan elimination that
  loops one table-driven pivot step (``_pivot``); a solve with more
  right-hand sides than unknowns inverts once and applies the inverse with
  the product kernel.  ``_pivot`` also takes a stack of matrices with one
  (row, column) per matrix, and ``_span`` sums the rows of each matrix of a
  stack with its own coefficients: together they are the simulator's rank
  tracker step for all receivers at once.  ``_reduce_stack`` is the same
  elimination on a stack, with one vectorised pivot search per column: the
  simulator's reduction of every receiver's first K receptions;
* ``matmul`` -- a table-driven product kernel: row gathers from tables of
  multiples for long extension-field products, one gather per coefficient
  otherwise;
* ``mds_scan`` -- the lexicographic combination tree settled by levels:
  each level's column-prefix quotients come from one stacked ``_pivot`` per
  piece of about ``_CHUNK`` * ``_BLOCK`` entries, and every stack of 3-row
  quotients that share a last column is tested against all triples after
  it (pairs if k = 2) with one 3 x 3 determinant grid from 2 x 2 minors, in
  blocks of about ``_BLOCK`` entries.

Kernels take field arithmetic unpacked as ``(p, h, q, log, exp)`` int/array
arguments, read as ``GF`` builds them (see ``GF.tables``): addition is
``fields.add_sub`` and multiplication is one gather on the antilog table at
``log[a] + log[b]``, where ``log[0]`` is a sentinel that lands on zeros, so
no product needs a mask for its zero operands.  Matrices passed in are int64
arrays of element indices.

Over a prime field (h = 1) ``matmul`` is one exact int64 product per block
of about ``_BLOCK`` output entries, reduced mod p once: an inner dimension
of K sums K products of at most (p - 1)^2, and K (p - 1)^2 < 2^63 for every
K <= q <= 2^16, so no partial sum overflows.

For h > 1 a long product gathers whole rows from tables of multiples of
its short side c: for each inner index t where c has a nonzero entry,
T_t[a, :] = a * c[:, t] for all q elements a, one 2-D gather padded to
8-byte rows.  A block of output columns is then one row gather per table
at the operand's symbols, summed by XOR of whole uint64 lanes (8 uint8 or
4 uint16 symbols, p = 2) or digit-wise (odd p), and stored transposed.  Zero coefficients sit in
the tables as zero entries, so they cost no per-word work.  The tables are
used only when they hold at most a quarter as many entries as the nonzero
products they replace (so the long side has at least 4q entries) and fit
``_TABLE_BYTES`` = 4 MiB together, a constant.  Every other product -- the
simulator's tiny vectors, short decodes, GF(2^16) products at the default
n -- uses that the slice ``exp[log[c]:]`` is the full row of products by
the coefficient c, so one 1-D gather multiplies a whole operand row by c;
zero coefficients are skipped, so a generator's zeros cost nothing, and
products are accumulated by XOR (p = 2) or digit-wise (odd p).  The result
holds narrow symbols: ``uint8`` for q <= 256, ``uint16`` above.
"""

from __future__ import annotations

import operator
from functools import reduce

import numpy as np

from .fields import add_sub

# The name of the one kernel set, recorded in benchmark fingerprints.
BACKEND = "numpy"


# -- vectorized element ops (shared by the builders and the kernels) ------------


def v_add(a, b, p, h):
    return add_sub(p, h)[0](np.asarray(a, np.int64), np.asarray(b, np.int64))


def v_sub(a, b, p, h):
    return add_sub(p, h)[1](np.asarray(a, np.int64), np.asarray(b, np.int64))


def v_mul(a, b, q, log, exp):
    return exp[log[a] + log[b]].astype(np.int64)


# -- elimination and products ---------------------------------------------------

_BLOCK = 16384  # product entries per pass: a block of operand logs stays in cache
_TABLE_BYTES = 1 << 22  # bytes of all the tables of multiples of one product


def _pivot(m, r, c, p, h, q, log, exp):
    """One Gauss-Jordan step, in place: scale row r by the inverse of m[r, c],
    then clear column c from every other row.

    m is one int64 matrix with int r and c, or a stack (n, rows, cols) with
    int arrays r and c of length n, one step per matrix.  Both run the same
    lines: for a stack, ``lead`` indexes the matrices in front of r and c.
    """
    lead = (np.arange(m.shape[0]),) if m.ndim == 3 else ()
    # The log of the inverse is reduced mod q - 1: in GF(2) the unreduced
    # 1 - 0 would be the sentinel, and the row would scale to zeros.
    linv = -log[m[(*lead, r, c)]] % (q - 1)
    row = exp[log[m[(*lead, r)]] + linv[..., None]]
    # Row r is cleared with the others, then overwritten with its scaled self.
    at_c = log[m[(*lead, slice(None), c)]]
    m[...] = add_sub(p, h)[1](m, exp[at_c[..., None] + log[row][..., None, :]])
    m[(*lead, r)] = row


def _span(coef, basis, p, h, q, log, exp):
    """out[i] = sum over t of coef[i, t] * basis[i, t] for a stack of
    matrices basis (n, rows, cols) and coefficients coef (n, rows): the
    combination of each matrix's rows, summed with ``fields.add_sub`` by
    halving the rows, about log2(rows) passes.
    """
    terms = exp[log[coef][:, :, None] + log[basis]]
    if p != 2:  # narrow symbols would wrap in a sum mod p
        terms = terms.astype(np.int64)
    add = add_sub(p, h)[0]
    rows = terms.shape[1]
    while rows > 1:
        half = rows // 2
        terms[:, :half] = add(terms[:, :half], terms[:, rows - half : rows])
        rows -= half
    return terms[:, 0]


def _reduce(m, ncols, p, h, q, log, exp):
    """Bring m to reduced row-echelon form over its first ncols columns, in
    place, and return the number of pivots.

    The pivot of a column is its first nonzero entry at or below the next
    pivot row (exact arithmetic needs no magnitude ordering).
    """
    r = 0
    for c in range(ncols):
        if r == m.shape[0]:
            break
        col = m[r:, c].tolist()
        piv = next((r + i for i, x in enumerate(col) if x), None)
        if piv is not None:
            if piv != r:
                m[[r, piv]] = m[[piv, r]]
            _pivot(m, r, c, p, h, q, log, exp)
            r += 1
    return r


def _reduce_stack(m, ncols, p, h, q, log, exp):
    """``_reduce`` for each matrix of a stack m (n, rows, cols), in place;
    returns the number of pivots of each, an intp array of length n.

    Each column is one vectorised pivot search over the stack (the same
    rule as ``_reduce``, against each matrix's own next pivot row) and one
    stacked ``_pivot`` of the matrices that have a pivot there.  A stack of
    one costs about three times ``_reduce``, so single matrices keep it.
    """
    n, rows = m.shape[:2]
    r = np.zeros(n, dtype=np.intp)
    below = np.arange(rows)
    for c in range(ncols):
        if (r == rows).all():
            break
        nz = (m[:, :, c] != 0) & (below >= r[:, None])
        piv = nz.argmax(axis=1)
        has = nz[np.arange(n), piv]
        if has.all():
            ids, sub = slice(None), m
        elif has.any():
            ids = np.flatnonzero(has)
            sub = m[ids]
        else:
            continue
        at, piv = r[ids], piv[ids]
        if (piv != at).any():
            lead = np.arange(sub.shape[0])
            sub[lead, at], sub[lead, piv] = sub[lead, piv], sub[lead, at]
        _pivot(sub, at, c, p, h, q, log, exp)
        if sub is not m:
            m[ids] = sub
        r[ids] += 1
    return r


def rank_in_place(m, p, h, q, log, exp):
    """Row rank by Gauss-Jordan elimination; m is destroyed."""
    return _reduce(m, m.shape[1], p, h, q, log, exp)


def solve_in_place(a, b, p, h, q, log, exp):
    """Solve a x = b for a k x k and b k x w by Gauss-Jordan elimination.

    Returns 0 and leaves the solution in b, or returns 1 if a is singular.
    The elimination runs on [a | b] when w <= k.  With more right-hand sides
    it runs on [a | I], and one product applies the inverse to b.
    """
    k, w = b.shape
    aug = np.concatenate([a, b if w <= k else np.eye(k, dtype=np.int64)], axis=1)
    if _reduce(aug, k, p, h, q, log, exp) < k:
        return 1
    b[:] = aug[:, k:] if w <= k else _matmul(aug[:, k:], b, p, h, q, log, exp)
    return 0


def _matmul(a, b, p, h, q, log, exp):
    """a @ b by table lookups, one pass per row of the smaller output side.

    Over columns the result is the transpose of a C-ordered (cols, rows)
    buffer, so each output column is contiguous.
    """
    if a.shape[0] >= b.shape[1]:
        return _product_rows(b.T, a.T, p, h, log, exp).T
    return _product_rows(a, b, p, h, log, exp)


# The public product.  solve_in_place (with more right-hand sides than
# unknowns) and codec.decode call _matmul, so a wrapper around ``matmul``
# (counting encode products, say) sees no decode.
matmul = _matmul


def _product_rows(coef, x, p, h, log, exp):
    """out[i] = sum over t of coef[i, t] * x[t].

    Over GF(p) one exact int64 product per block of about ``_BLOCK`` output
    entries.  Otherwise row gathers from tables of multiples where they
    pay (see ``_multiples``), else one gather per nonzero coefficient.
    """
    rows, length = coef.shape[0], x.shape[1]
    out = np.zeros((rows, length), dtype=exp.dtype)
    if h == 1:
        coef = np.asarray(coef, dtype=np.int64)
        step = max(1, _BLOCK // max(rows, 1))
        for s in range(0, length, step):
            block = coef @ x[:, s : s + step].astype(np.int64, copy=False)
            out[:, s : s + step] = np.remainder(block, p, out=block)
        return out
    tables = _multiples(coef, length, log, exp)
    if tables is not None:
        _gather_rows(out, tables, x, p, h)
        return out
    xlog = log[x]
    sentinel = int(log[0])
    passes = [
        [(t, lc) for t, lc in enumerate(row) if lc != sentinel] for row in log[coef].tolist()
    ]
    for s in range(0, length, _BLOCK):
        xs = xlog[:, s : s + _BLOCK]
        for acc, terms in zip(out[:, s : s + _BLOCK], passes):
            if p == 2:
                for t, lc in terms:
                    acc ^= exp[lc:][xs[t]]
            else:
                for t, lc in terms:
                    acc[:] = v_add(acc, exp[lc:][xs[t]], p, h)
    return out


def _multiples(coef, length, log, exp):
    """The tables of multiples of coef's nonzero columns, as (live, tables),
    or None where they do not pay.

    tables[j, a, i] is a * coef[i, live[j]] for every element a, with rows
    padded by zeros to whole 8-byte lanes.  They pay when they hold at most
    a quarter as many entries as the nonzero products they replace, so the
    long side has at least 4q entries, and when they fit ``_TABLE_BYTES``.
    """
    q = log.size
    if length < 4 * q:  # implied by the entry count below, and cheap to test
        return None
    rows = coef.shape[0]
    lanes = 8 // exp.itemsize
    width = -(-rows // lanes) * lanes
    live = [t for t in range(coef.shape[1]) if coef[:, t].any()]
    entries = len(live) * q * width
    if (
        not live
        or 4 * entries > np.count_nonzero(coef) * length
        or entries * exp.itemsize > _TABLE_BYTES
    ):
        return None
    tables = np.zeros((len(live), q, width), dtype=exp.dtype)
    for j, t in enumerate(live):
        tables[j, :, :rows] = exp[log[:, None] + log[coef[:, t]]]
    return live, tables


def _gather_rows(out, multiples, x, p, h):
    """out[:, s] = sum over live t of tables[t][x[t, s]]: one row gather per
    live t for a block of columns, each block stored transposed into out.

    Over p = 2 the rows are XORed as whole uint64 lanes; otherwise they are
    accumulated digit-wise in int64.
    """
    live, tables = multiples
    rows, length = out.shape
    # Blocks of 16 _BLOCK bytes of table rows: about 1,000 words of 264-byte
    # rows, the fastest block measured for a GF(2^8), K=8 encode.
    step = max(1, (_BLOCK << 4) // (tables.shape[2] * tables.itemsize))
    if p == 2:
        tables, acc, add = tables.view(np.uint64), np.uint64, operator.ixor
    else:
        acc, add = np.int64, add_sub(p, h)[0]
    for s in range(0, length, step):
        e = min(s + step, length)
        block = np.zeros((e - s, tables.shape[2]), dtype=acc)
        for table, t in zip(tables, live):
            block = add(block, np.take(table, x[t, s:e], axis=0))
        if p == 2:
            block = block.view(out.dtype)
        out[:, s:e] = block[:, :rows].T


# -- the MDS scan ------------------------------------------------------------------

_CHUNK = 4  # quotient entries per stacked piece of a scan level, in units of _BLOCK


def mds_scan(m, p, h, q, log, exp):
    """The lexicographically first linearly dependent k-column subset of the
    k x n matrix m, as a list of column indices, or None if there is none.

    The combination tree is settled by levels.  A node is a column prefix
    and holds its quotient: the coordinates of the columns modulo the span
    of the prefix, k - depth rows.  A level is a stack of quotients in
    lexicographic prefix order, in global column numbering: column j of a
    stack is column lo + j of m, one lo per stack.  The children of a level
    (prefix + b for every b after the prefix's last column) are taken in
    lexicographic pieces of about ``_CHUNK`` * ``_BLOCK`` entries, one
    stacked quotient each, with one pivot column per matrix; each piece is
    settled before the next, so one piece per depth is held at a time.  A
    zero pivot column makes every subset through prefix + b dependent, the
    first of them prefix + b followed by the next consecutive columns.
    Quotients of four rows are settled by ``_groups``, three-row stacks of
    them at a time.  Each candidate found bounds the rest: a piece or group
    is cut to the prefixes that come before it, so those after it are
    skipped.
    """
    k = m.shape[0]
    if k == 1:
        zero = np.flatnonzero(m[0] == 0)
        return [int(zero[0])] if zero.size else None
    field = (p, h, q, log, exp)
    root = np.asarray(m, dtype=np.int64)[None]
    pre = np.zeros((1, 0), dtype=np.intp)
    if k <= 3:
        found = _dependent_tuple(root, p, h, log, exp)
        return None if found is None else list(found[1:])
    best = _groups(root, 0, pre, None, field) if k == 4 else _levels(root, pre, field)
    return None if best is None else list(best)


def _levels(root, pre, field):
    """``mds_scan`` above four rows: the pieces of each level by depth, one
    level per depth held at a time, the four-row quotients to ``_groups``."""
    best, levels = None, [[root, 0, *_children(root, 0, pre), 0]]
    while levels:
        level = levels[-1]
        stack, lo, par, at, start = level
        rows, width = stack.shape[1:]
        step = max(1, _CHUNK * _BLOCK // (rows * width))
        piece = at[start : start + step]
        if best is not None:
            piece = piece[: _before(piece, best[: piece.shape[1]])]
        level[4] = start + step
        if len(piece) < step or level[4] >= len(at):  # no piece after this one is left
            levels.pop()
        if not len(piece):
            continue
        col = piece[:, -1]
        w0 = int(col.min())  # the piece's quotients keep the columns from w0 on
        has, quot = _quotients(stack, par[start : start + len(piece)], col - lo, w0 - lo, field)
        z = len(piece) if has.all() else int(has.argmin())
        if z < len(piece):
            best = (*piece[z].tolist(), *range(col[z] + 1, col[z] + rows))
        if z and rows == 5:
            best = _groups(quot[:z], w0, piece[:z], best, field)
        elif z:
            levels.append([quot[:z], w0, *_children(quot[:z], w0, piece[:z]), 0])
    return best


def _children(stack, lo, pre):
    """The children of the prefixes pre (s, depth), sorted, of a stack over
    the columns from lo on: prefix + b for every b after the prefix's last
    column that leaves room for the rest, in lexicographic order, as
    (parent index, child prefix) arrays."""
    rows, n = stack.shape[1], lo + stack.shape[2]
    last = pre[:, -1] if pre.shape[1] else np.full(len(pre), -1)
    counts = np.maximum(n - rows - last, 0)  # b = last + 1 .. n - rows
    par = np.repeat(np.arange(last.size), counts)
    col = np.arange(par.size) + np.repeat(last + 1 - (np.cumsum(counts) - counts), counts)
    return par, np.column_stack([pre[par], col])


def _groups(stack, lo, pre, best, field):
    """The lexicographically first dependent subset through the children of
    a stack of four-row quotients over the columns from lo on, with
    prefixes pre (s, depth), sorted, if one comes before the tuple best;
    else best.

    The children are grouped by their last column b: the quotients whose
    last column is below b, pivoted on column b over the columns from b on,
    form one three-row stack for ``_dependent_tuple``, in prefix order.
    Groups are taken by increasing b, each cut to the prefixes that come
    before best.
    """
    n, depth = lo + stack.shape[2], pre.shape[1]
    last = pre[:, -1] if depth else np.full(len(pre), -1)
    b, limit = int(last.min()) + 1, 0
    while b < n - 3:
        if best is not None and (*pre[0].tolist(), b) >= best[: depth + 1]:
            break  # every later group's prefixes come after pre[0] + b
        # One stacked quotient per batch of groups of about _BLOCK / 4
        # entries, but for the first group alone: an early hit there costs
        # no more than it.
        sizes = np.sort(last).searchsorted(np.arange(b, n - 3))
        b1 = b + max(1, int(np.cumsum(sizes * (4 * (n - b))).searchsorted(limit, "right")))
        limit = _BLOCK // 4
        groups = [np.flatnonzero(last < x) for x in range(b, b1)]
        cols = np.repeat(np.arange(b, b1), sizes[: b1 - b])
        has, quot = _quotients(stack, np.concatenate(groups), cols - lo, b - lo, field)
        end = 0
        for x, ids in zip(range(b, b1), groups):
            start, end = end, end + ids.size
            if best is not None:
                at = np.column_stack([pre[ids], np.full(ids.size, x)])
                ids = ids[: _before(at, best[: depth + 1])]
            g = has[start : start + ids.size]
            z = ids.size if g.all() else int(g.argmin())
            if z < ids.size:
                best = (*pre[ids[z]].tolist(), x, x + 1, x + 2, x + 3)
            found = None
            if z:
                found = _dependent_tuple(quot[start : start + z, :, x + 1 - b :], *field[:2], *field[3:])
            if found is not None:
                best = (*pre[ids[found[0]]].tolist(), x, *(x + 1 + c for c in found[1:]))
        b = b1
    return best


def _before(pre, bound):
    """The number of rows of the lexicographically sorted array pre that
    come before the tuple bound (of one entry per column)."""
    differ = pre != bound
    first = differ.argmax(1)
    lead = np.arange(len(pre))
    return int(np.count_nonzero(differ[lead, first] & (pre[lead, first] < np.take(bound, first))))


def _quotients(stack, ids, c, lo, field):
    """Quotients of the matrices stack[ids] modulo their columns c (one per
    matrix), over the columns from lo on.

    Returns has, whether each matrix's column c is nonzero, and the
    quotients (len(ids), rows - 1, cols - lo): the last nonzero row of each
    column c is swapped last (most often it is last already), one stacked
    ``_pivot`` clears column c with it, and it is dropped.  A matrix whose
    column c is zero gets no quotient of use.
    """
    rows = stack.shape[1]
    nz = stack[ids, :, c] != 0
    piv = rows - 1 - nz[:, ::-1].argmax(1)
    g = stack[ids, :, lo:]
    if (piv != rows - 1).any():
        lead = np.arange(len(ids))
        g[lead, piv], g[:, -1] = g[:, -1], g[lead, piv]
    _pivot(g, rows - 1, c - lo, *field)
    return nz.any(1), g[:, :-1]


def _dependent_tuple(r, p, h, log, exp):
    """The lexicographically first dependent set of as many columns as the
    matrices of the stack r (s, rows, cols) have rows (two or three), as a
    tuple (matrix, column, ...) with matrices first in the order, or None.

    A set is a column i and a tuple S of later columns (a column, or a pair
    j < l), with determinant r[0, i] M_0 - r[1, i] M_1 (+ r[2, i] M_2) where
    M_x is the minor of S over the rows other than x.  Chunks of tuples in
    lexicographic order, about ``_BLOCK`` of them over all matrices, get
    their minors once.  They meet blocks of (matrix, i) of about ``_BLOCK``
    entries in all -- whole matrices, or a run of i in one -- whose
    row-major order is lexicographic; a hit at (matrix, i) leaves later
    chunks only the (matrix, i) before it.
    """
    s, rows, cols = r.shape
    lr = log[r].transpose(1, 0, 2)
    starts = np.arange(cols + 1)  # starts[j]: the tuples whose first column is below j
    if rows == 3:
        starts = starts * (2 * cols - 1 - starts) // 2
    add, sub = add_sub(p, h)
    best, stop, total = None, (s, 0), int(starts[-1])
    for s0 in range(int(starts[1]), total, max(1, _BLOCK // s)):
        t = np.arange(s0, min(s0 + max(1, _BLOCK // s), total))
        live = lr[:, : stop[0] + 1]
        if rows == 2:
            tup, lm = [t], live[::-1].take(t, 2)
        else:
            first = starts.searchsorted(t, "right") - 1
            tup = [first, t - starts.take(first) + first + 1]
            e = exp[live.take(first, 2)[[1, 0, 0, 2, 2, 1]] + live.take(tup[1], 2)[[2, 2, 1, 1, 0, 0]]]
            lm = log[sub(*e.astype(np.int64).reshape(2, 3, *e.shape[1:]))]  # narrow would wrap mod p
        i_hi = int(tup[0][-1])  # no tuple of the chunk lies above an i from i_hi on
        mat, i0 = 0, 0
        while (mat, i0) < stop:
            a = max(int(starts[i0 + 1]) - s0, 0)  # the first tuple above i0
            per = max(1, _BLOCK // (t.size - a))
            if i0 == 0 and per >= i_hi:
                m1, i1 = min(mat + per // i_hi, lm.shape[1]), i_hi
            else:
                m1, i1 = mat + 1, min(i0 + per, i_hi)
            terms = exp[lr[:, mat:m1, i0:i1, None] + lm[:, mat:m1, None, a:]]
            if p == 2:
                hit = np.bitwise_xor.reduce(terms) == 0
            elif h == 1:  # t0 + t2 - t1 in (-p, 2p), mod 2^16 > 2p or 2^32: p | d iff d is 0 or p
                d = terms[::2].sum(0, dtype=np.uint32 if p >> 15 else np.uint16) - terms[1]
                hit = (d == 0) | (d == p)
            else:  # uint32 holds digit-wise sums of two symbols below 2^16
                hit = reduce(add, terms[::2].astype(np.uint32)) == terms[1]
            edge = max(int(starts[i1]) - s0 - a, 0)  # tuples starting at or below some i
            hit[..., :edge] &= tup[0][a : a + edge] > np.arange(i0, i1)[:, None]
            at = int(hit.argmax())
            if hit.flat[at]:
                j, i, b = (int(x) for x in np.unravel_index(at, hit.shape))
                if (mat + j, i0 + i) < stop:
                    stop = (mat + j, i0 + i)
                    best = (*stop, *(int(c[a + b]) for c in tup))
                break
            mat, i0 = (m1, 0) if i1 == i_hi else (mat, i1)
        if stop == (0, 0):
            break
    return best
