"""The Pascal matrix over GF(q), its truncation, and the supplemented form.

Entry (m, n) of the q x q Pascal matrix is the finite-field binomial

    f_m(n) = prod_{i=1..m} (sigma(n) - sigma(i-1)) / sigma(i),   f_0(n) = 1

a degree-m polynomial in sigma(n) whose roots are sigma(0..m-1), so row m
starts with exactly m zeros and the matrix is upper triangular with nonzero
diagonal.  Truncating to the first k rows and appending the unit column
s_k = (0,...,0,1)^T yields a k x (q+1) generator in which any k columns are
linearly independent.

``generator_columns`` builds just the requested columns of any of the
``KINDS``: these two and the Reed-Solomon generator with and without s_k.

Over a prime field the same matrix also satisfies the classic additive rule
entry(m,n) = entry(m-1,n-1) + entry(m,n-1) mod p; ``pascal_additive`` builds
it that way (no multiplications) and is cross-checked against the polynomial
route in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fields import GF, is_prime, make_field
from .kernels import v_mul, v_sub
from .matrices import MatrixGF, count_zeros


def binom(field: GF, m: int, n: int) -> int:
    """Finite-field binomial f_m(n); zero exactly when n < m."""
    field.sigma(m), field.sigma(n)
    val = 1
    for i in range(1, m + 1):
        val = field.mul(val, field.div(field.sub(n, i - 1), i))
    return val


KINDS = ("supplemented_pascal", "truncated_pascal", "rs", "supplemented_rs")


def width(field: GF, kind: str) -> int:
    """Column count of the kind's full generator: q+1, q, q-1 and q, in
    ``KINDS`` order (the RS kinds use the q-1 nonzero evaluation points)."""
    if kind not in KINDS:
        raise ValueError(f"unknown generator kind {kind!r}")
    return field.q + {"supplemented_pascal": 1, "rs": -1}.get(kind, 0)


def generator_columns(field: GF, k: int, kind: str, us) -> np.ndarray:
    """Columns us, in the given order, of the kind's k-row generator: a
    k x len(us) int64 array.

    Column u of a Pascal kind is (f_m(sigma(u)))_m and column u of an RS kind
    is (sigma(u+1)^m)_m, for m < k; a supplemented kind's last column is s_k.
    One row recurrence builds them, rows[m] = rows[m-1] * factor_m over the
    requested columns only.
    """
    q = field.q
    if not 1 <= k <= q:
        raise ValueError(f"k must be in [1, {q}], got {k}")
    n = width(field, kind)
    if isinstance(us, range):  # without a per-element conversion
        us = np.arange(us.start, us.stop, us.step)
    us = np.asarray(us, np.int64)
    if np.any((us < 0) | (us >= n)):
        raise ValueError(f"generator columns must lie in [0, {n}) for kind {kind!r}")
    p, h, _, logt, expt = field.tables()
    rs = kind.endswith("rs")
    unit = us == n - 1 if kind.startswith("supplemented") else np.zeros(us.shape, bool)
    x = np.where(unit, 0, us + 1 if rs else us)  # sigma(u+1) or sigma(u); s_k is set below
    rows = np.empty((k, us.size), dtype=np.int64)
    rows[0] = 1
    for m in range(1, k):
        # Pascal: f_m(n) = f_{m-1}(n) * (sigma(n) - sigma(m-1)) / sigma(m)
        factor = x if rs else v_mul(v_sub(x, m - 1, p, h), field.inv(m), q, logt, expt)
        rows[m] = v_mul(rows[m - 1], factor, q, logt, expt)
    rows[:, unit] = 0
    rows[k - 1, unit] = 1
    return rows


def truncated_pascal(field: GF, k: int) -> MatrixGF:
    """First k rows of the Pascal matrix, as a k x q generator."""
    return MatrixGF(field, generator_columns(field, k, "truncated_pascal", range(field.q)))


def pascal_matrix(field: GF) -> MatrixGF:
    """The full q x q Pascal matrix."""
    return truncated_pascal(field, field.q)


def supplement(m: MatrixGF) -> MatrixGF:
    """Append the unit column s_k = (0,...,0,1)^T."""
    s = np.zeros((m.rows, 1), dtype=np.int64)
    s[m.rows - 1, 0] = 1
    return MatrixGF(m.field, np.hstack([m.data, s]))


def supplemented_pascal(field: GF, k: int) -> MatrixGF:
    """Truncated Pascal matrix with the unit column s_k appended: k x (q+1)."""
    return MatrixGF(field, generator_columns(field, k, "supplemented_pascal", range(field.q + 1)))


def pascal_additive(p: int, k: int) -> MatrixGF:
    """First k rows of the prime-field Pascal matrix built by the additive
    rule alone: row 0 all ones, column 0 = (1,0,...,0)^T, and
    entry(m,n) = entry(m-1,n-1) + entry(m,n-1) mod p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not 1 <= k <= p:
        raise ValueError(f"k must be in [1, {p}], got {k}")
    rows = np.zeros((k, p), dtype=np.int64)
    rows[0] = 1
    for m in range(1, k):
        # the rule telescopes along the row: entry(m,n) = sum_{t<n} entry(m-1,t)
        rows[m, 1:] = np.cumsum(rows[m - 1, :-1]) % p
    return MatrixGF(make_field(p), rows)


@dataclass(frozen=True)
class SparsityReport:
    zeros: int
    max_possible: int
    ratio: Fraction | None  # None when k = 1 (max_possible = 0)


def sparsity_report(m: MatrixGF, k: int | None = None, n: int | None = None) -> SparsityReport:
    """Zero count of a k x n generator against the k(k-1) ceiling.

    Any k columns of an MDS generator are independent, so no row can hold
    k or more zeros (k chosen columns would contain an all-zero row); the
    matrix-wide ceiling is k(k-1).  Whether m actually is MDS is the
    caller's concern.
    """
    if k is None:
        k = m.rows
    if n is None:
        n = m.cols
    if (k, n) != (m.rows, m.cols):
        raise ValueError(f"stated shape {k}x{n} does not match matrix {m.rows}x{m.cols}")
    zeros = count_zeros(m)
    max_possible = k * (k - 1)
    ratio = Fraction(zeros, max_possible) if max_possible else None
    return SparsityReport(zeros=zeros, max_possible=max_possible, ratio=ratio)
