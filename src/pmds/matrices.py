"""Dense exact linear algebra over GF(q): rank, solve, column selection.

A matrix is a 2-D int64 numpy array of element indices bound to a field.
Matrices are values: operations never mutate their inputs, elimination works
on private copies, and singular systems raise instead of returning garbage.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .fields import GF, field_from_order


class SingularMatrixError(ValueError):
    """Raised when a linear solve meets a singular coefficient matrix."""


def int_array(data) -> np.ndarray:
    """Integer data as int64, not copied if it already is; ValueError for
    any other dtype, so that 2.9 is never read as the element 2."""
    arr = np.asarray(data)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"field elements must be integers, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


class MatrixGF:
    __slots__ = ("field", "data")

    def __init__(self, field: GF, data):
        arr = int_array(data).copy()
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"matrix data must be 2-D and non-empty, got shape {arr.shape}")
        if np.any((arr < 0) | (arr >= field.q)):
            raise ValueError(f"matrix entries must be element indices in [0, {field.q})")
        self.field = field
        self.data = arr

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def column(self, j: int) -> np.ndarray:
        return self.data[:, j].copy()

    def __eq__(self, other):
        return (
            isinstance(other, MatrixGF)
            and self.field == other.field
            and self.data.shape == other.data.shape
            and bool(np.all(self.data == other.data))
        )

    def __repr__(self):
        return f"MatrixGF({self.field!r}, {self.data.tolist()!r})"

    def tolist(self):
        return self.data.tolist()


def rank(m: MatrixGF) -> int:
    """Row rank by Gaussian elimination over GF(q)."""
    return int(kernels.rank_in_place(m.data.copy(), *m.field.tables()))


def solve_many(a: MatrixGF, b) -> np.ndarray:
    """Solve a @ X = b for a k x k system with right-hand sides as columns of b.

    Raises SingularMatrixError rather than ever returning a wrong answer.
    """
    if a.rows != a.cols:
        raise ValueError(f"coefficient matrix must be square, got {a.rows}x{a.cols}")
    bmat = int_array(b).copy()  # solved in place
    if bmat.ndim != 2 or bmat.shape[0] != a.rows:
        raise ValueError("right-hand side shape does not match the system")
    if np.any((bmat < 0) | (bmat >= a.field.q)):
        raise ValueError("right-hand side entries out of range")
    work = a.data.copy()
    status = kernels.solve_in_place(work, bmat, *a.field.tables())
    if status != 0:
        raise SingularMatrixError("singular coefficient matrix")
    return bmat


def solve(a: MatrixGF, b) -> np.ndarray:
    """Solve a @ x = b for a vector b; returns x as an int64 vector."""
    vec = int_array(b)
    if vec.ndim != 1:
        raise ValueError("b must be a vector")
    return solve_many(a, vec[:, None])[:, 0]


def submatrix_columns(m: MatrixGF, cols) -> MatrixGF:
    """Column-selected copy; indices must be strictly increasing."""
    idx = list(cols)
    if not idx:
        raise ValueError("column selection must be non-empty")
    for j in idx:
        if not 0 <= j < m.cols:
            raise ValueError(f"column index {j} out of range [0, {m.cols})")
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise ValueError("column indices must be strictly increasing (no duplicates)")
    return MatrixGF(m.field, m.data[:, idx])


def count_zeros(m: MatrixGF) -> int:
    return int(np.count_nonzero(m.data == 0))


def mat_mul(a: MatrixGF, b: MatrixGF) -> MatrixGF:
    if a.field != b.field:
        raise ValueError("field mismatch")
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    return MatrixGF(a.field, kernels.matmul(a.data, b.data, *a.field.tables()))


def vec_mat_mul(vec, m: MatrixGF) -> np.ndarray:
    """Row vector times matrix."""
    row = int_array(vec)
    if row.ndim != 1 or row.shape[0] != m.rows:
        raise ValueError("vector length must equal the matrix row count")
    if np.any((row < 0) | (row >= m.field.q)):
        raise ValueError("vector entries out of range")
    return kernels.matmul(row[None, :], m.data, *m.field.tables())[0].astype(np.int64)


# -- text interchange format ----------------------------------------------------
#
# First line: "q rows cols"; then `rows` lines of space-separated element
# indices.  This is the lingua franca between CLI subcommands.


def format_matrix_text(m: MatrixGF) -> str:
    lines = [f"{m.field.q} {m.rows} {m.cols}"]
    lines.extend(" ".join(str(x) for x in row) for row in m.data.tolist())
    return "\n".join(lines) + "\n"


def parse_matrix_text(text: str) -> MatrixGF:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    head = lines[0].split()
    if len(head) != 3:
        raise ValueError("matrix header must be 'q rows cols'")
    try:
        q, rows, cols = (int(x) for x in head)
    except ValueError:
        raise ValueError("matrix header must be three integers") from None
    if len(lines) - 1 != rows:
        raise ValueError(f"expected {rows} matrix rows, got {len(lines) - 1}")
    data = []
    for ln in lines[1:]:
        row = [int(x) for x in ln.split()]
        if len(row) != cols:
            raise ValueError(f"expected {cols} entries per row, got {len(row)}")
        data.append(row)
    return MatrixGF(field_from_order(q), data)
