import numpy as np
import pytest

from pmds.fields import make_field
from pmds.matrices import (
    MatrixGF,
    SingularMatrixError,
    count_zeros,
    format_matrix_text,
    mat_mul,
    parse_matrix_text,
    rank,
    solve,
    solve_many,
    submatrix_columns,
    vec_mat_mul,
)
from pmds.pascal import pascal_matrix, truncated_pascal
from reference_gf import make_ref, ref_rank

F5 = make_field(5)
F4 = make_field(2, 2)

# The two-row generator displayed with five columns (unit column last);
# several solve/submatrix cases below index into this layout.
H52_DISPLAY = MatrixGF(F5, [[1, 1, 1, 1, 0], [0, 1, 2, 3, 1]])


def test_matrix_validation():
    with pytest.raises(ValueError):
        MatrixGF(F5, [[0, 5]])  # entry out of range
    with pytest.raises(ValueError):
        MatrixGF(F5, [1, 2, 3])  # not 2-D
    m = MatrixGF(F5, [[1, 2], [3, 4]])
    assert (m.rows, m.cols) == (2, 2)


def test_matrix_rejects_non_integer_entries():
    with pytest.raises(ValueError, match="integers"):
        MatrixGF(F5, [[2.9, 1]])  # would be read as [[2, 1]]
    with pytest.raises(ValueError, match="integers"):
        MatrixGF(F5, np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError, match="integers"):
        solve(MatrixGF(F5, [[1, 0], [0, 1]]), [1.5, 2])
    assert MatrixGF(F5, np.array([[2, 1]], dtype=np.uint8)).tolist() == [[2, 1]]
    assert MatrixGF(F5, [[np.int32(2), 1]]).data.dtype == np.int64


def test_rank_identity():
    assert rank(MatrixGF(F5, np.eye(3, dtype=int))) == 3


def test_rank_full_pascal_gf4():
    assert rank(pascal_matrix(F4)) == 4


def test_rank_equal_columns():
    assert rank(MatrixGF(F5, [[2, 2], [3, 3]])) == 1


def test_rank_against_oracle():
    rng = np.random.RandomState(7)
    for f in (F5, F4, make_field(2, 3)):
        ref = make_ref(f)
        for _ in range(25):
            r, c = rng.randint(1, 6), rng.randint(1, 6)
            data = rng.randint(0, f.q, size=(r, c))
            m = MatrixGF(f, data)
            assert rank(m) == ref_rank(ref, data.tolist())


def test_solve_identity():
    a = MatrixGF(F5, [[1, 0], [0, 1]])
    assert solve(a, [2, 3]).tolist() == [2, 3]


def test_solve_display_columns():
    # columns {0, 4} of the five-column display form the identity
    a = submatrix_columns(H52_DISPLAY, [0, 4])
    assert a.tolist() == [[1, 0], [0, 1]]
    assert solve(a, [1, 4]).tolist() == [1, 4]


def test_solve_and_multiply_back():
    a = MatrixGF(F5, [[1, 1], [1, 2]])
    x = solve(a, [0, 1])
    assert x.tolist() == [4, 1]
    # verify by multiplying back: 4+1=5=0, 4+2=6=1
    b = mat_mul(a, MatrixGF(F5, x[:, None]))
    assert b.data[:, 0].tolist() == [0, 1]


def test_solve_singular_is_an_error():
    a = MatrixGF(F5, [[1, 1], [1, 1]])
    with pytest.raises(SingularMatrixError):
        solve(a, [0, 1])


def test_solve_shape_errors():
    a = MatrixGF(F5, [[1, 1, 1], [0, 1, 2]])
    with pytest.raises(ValueError):
        solve(a, [1, 2])  # not square
    with pytest.raises(ValueError):
        solve(MatrixGF(F5, [[1, 0], [0, 1]]), [1, 2, 3])  # length mismatch


def test_solve_roundtrip_random():
    rng = np.random.RandomState(11)
    for q in (4, 5, 16):
        f = make_field(2, 2) if q == 4 else (make_field(5) if q == 5 else make_field(2, 4))
        for k in range(1, 7):
            trials = 0
            while trials < 100:
                a = MatrixGF(f, rng.randint(0, q, size=(k, k)))
                if rank(a) < k:
                    continue
                trials += 1
                x = rng.randint(0, q, size=(k, 3))
                b = mat_mul(a, MatrixGF(f, x))
                got = solve_many(a, b.data)
                assert np.array_equal(got, x)


def test_submatrix_columns():
    assert submatrix_columns(H52_DISPLAY, [0, 1]).tolist() == [[1, 1], [0, 1]]
    assert submatrix_columns(H52_DISPLAY, [2, 4]).tolist() == [[1, 0], [2, 1]]
    m = MatrixGF(F5, [[1, 2, 3], [4, 0, 1]])
    assert submatrix_columns(m, [0, 1, 2]) == m
    with pytest.raises(ValueError):
        submatrix_columns(m, [0, 3])
    with pytest.raises(ValueError):
        submatrix_columns(m, [1, 1])
    with pytest.raises(ValueError):
        submatrix_columns(m, [2, 0])


def test_count_zeros():
    assert count_zeros(truncated_pascal(F5, 2)) == 1
    assert count_zeros(H52_DISPLAY) == 2
    assert count_zeros(MatrixGF(F5, [[0, 0], [0, 0]])) == 4


def test_mat_mul_identity_and_zero():
    m = MatrixGF(F5, [[1, 2], [3, 4]])
    eye = MatrixGF(F5, np.eye(2, dtype=int))
    assert mat_mul(eye, m) == m
    assert vec_mat_mul([0, 0], m).tolist() == [0, 0]


def test_vec_mat_mul_example():
    m = MatrixGF(F5, [[1, 1], [1, 2]])
    assert vec_mat_mul([1, 4], m).tolist() == [0, 4]


def test_mat_mul_mismatches():
    m = MatrixGF(F5, [[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        mat_mul(m, MatrixGF(F4, [[1, 1], [1, 1]]))  # field mismatch
    with pytest.raises(ValueError):
        mat_mul(m, MatrixGF(F5, [[1, 2, 3]]))  # dimension mismatch


def test_mat_mul_against_oracle():
    rng = np.random.RandomState(3)
    for f in (F5, make_field(2, 3)):
        ref = make_ref(f)
        for _ in range(10):
            a = rng.randint(0, f.q, size=(3, 4))
            b = rng.randint(0, f.q, size=(4, 2))
            got = mat_mul(MatrixGF(f, a), MatrixGF(f, b))
            want = [
                [0] * b.shape[1] for _ in range(a.shape[0])
            ]
            for i in range(a.shape[0]):
                for j in range(b.shape[1]):
                    acc = 0
                    for t in range(a.shape[1]):
                        acc = ref.add(acc, ref.mul(int(a[i, t]), int(b[t, j])))
                    want[i][j] = acc
            assert got.tolist() == want


def test_rank_transpose_property():
    rng = np.random.RandomState(19)
    for _ in range(30):
        f = make_field(2, 2)
        data = rng.randint(0, 4, size=(rng.randint(1, 6), rng.randint(1, 6)))
        assert rank(MatrixGF(f, data)) == rank(MatrixGF(f, data.T))


def test_rank_submatrix_bound():
    rng = np.random.RandomState(23)
    m = MatrixGF(F5, rng.randint(0, 5, size=(3, 6)))
    for cols in ([0, 2], [1, 3, 5], [0, 1, 2, 3]):
        assert rank(submatrix_columns(m, cols)) <= min(len(cols), m.rows)


def test_text_format_roundtrip():
    m = truncated_pascal(F5, 3)
    text = format_matrix_text(m)
    assert text.splitlines()[0] == "5 3 5"
    assert parse_matrix_text(text) == m


def test_text_format_errors():
    with pytest.raises(ValueError):
        parse_matrix_text("")
    with pytest.raises(ValueError):
        parse_matrix_text("5 2\n1 2\n3 4")
    with pytest.raises(ValueError):
        parse_matrix_text("5 2 2\n1 2\n3 4 0")
    with pytest.raises(ValueError):
        parse_matrix_text("6 1 2\n1 2")  # not a prime power
    with pytest.raises(ValueError):
        parse_matrix_text("5 1 2\n1 7")  # entry out of range
