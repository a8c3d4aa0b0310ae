"""The Pascal matrix over GF(q), its truncation, and the supplemented form.

Entry (m, n) of the q x q Pascal matrix is the finite-field binomial

    f_m(n) = prod_{i=1..m} (sigma(n) - sigma(i-1)) / sigma(i),   f_0(n) = 1

a degree-m polynomial in sigma(n) whose roots are sigma(0..m-1), so row m
starts with exactly m zeros and the matrix is upper triangular with nonzero
diagonal.  Truncating to the first k rows and appending the unit column
s_k = (0,...,0,1)^T yields a k x (q+1) generator in which any k columns are
linearly independent.

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


def truncated_pascal(field: GF, k: int) -> MatrixGF:
    """First k rows of the Pascal matrix, as a k x q generator."""
    q = field.q
    if not 1 <= k <= q:
        raise ValueError(f"k must be in [1, {q}], got {k}")
    p, h, _, logt, expt = field.tables()
    rows = np.empty((k, q), dtype=np.int64)
    rows[0] = 1
    sig = np.arange(q, dtype=np.int64)
    for m in range(1, k):
        # f_m(n) = f_{m-1}(n) * (sigma(n) - sigma(m-1)) / sigma(m)
        factor = v_mul(v_sub(sig, m - 1, p, h), field.inv(m), q, logt, expt)
        rows[m] = v_mul(rows[m - 1], factor, q, logt, expt)
    return MatrixGF(field, rows)


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
    return supplement(truncated_pascal(field, k))


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
