"""Kernel checks.  The numpy kernels are compared with the independent
oracle in ``reference_gf``; the numba kernels, where numba is installed,
must agree with the numpy ones bit for bit (same pivots, same ranks, same
statuses)."""

import numpy as np
import pytest

from pmds import kernels
from pmds.fields import make_field
from reference_gf import make_ref

needs_numba = pytest.mark.skipif(
    not kernels.HAVE_NUMBA, reason="numba unavailable; only one backend to compare"
)

FIELDS = [make_field(5), make_field(2, 2), make_field(2, 4), make_field(3, 2), make_field(2, 8)]


def _pairs():
    # sizes straddle the numpy backend's scalar/vectorized cutoff
    rng = np.random.RandomState(42)
    for f in FIELDS:
        for _ in range(20):
            rows = rng.randint(1, 7)
            cols = rng.randint(1, 9)
            yield f, rng.randint(0, f.q, size=(rows, cols)).astype(np.int64), rng
        yield f, rng.randint(0, f.q, size=(24, 30)).astype(np.int64), rng


@needs_numba
def test_rank_parity():
    for f, data, _ in _pairs():
        t = f.tables()
        assert kernels._rank_in_place(data.copy(), *t) == kernels._rank_numpy(data.copy(), *t)


@needs_numba
def test_solve_parity():
    rng = np.random.RandomState(1)
    for f in FIELDS:
        t = f.tables()
        for k, w in [(rng.randint(1, 6), 3) for _ in range(20)] + [(25, 25)]:
            a = rng.randint(0, f.q, size=(k, k)).astype(np.int64)
            b = rng.randint(0, f.q, size=(k, w)).astype(np.int64)
            a1, b1 = a.copy(), b.copy()
            a2, b2 = a.copy(), b.copy()
            s1 = kernels._solve_in_place(a1, b1, *t)
            s2 = kernels._solve_numpy(a2, b2, *t)
            assert s1 == s2
            if s1 == 0:
                assert np.array_equal(b1, b2)


@needs_numba
def test_matmul_parity():
    rng = np.random.RandomState(2)
    for f in FIELDS:
        t = f.tables()
        a = rng.randint(0, f.q, size=(4, 5)).astype(np.int64)
        b = rng.randint(0, f.q, size=(5, 3)).astype(np.int64)
        assert np.array_equal(kernels._matmul(a, b, *t), kernels._matmul_numpy(a, b, *t))


def test_backend_selection_reporting():
    assert kernels.BACKEND in ("numba", "numpy")
    if kernels.HAVE_NUMBA:
        assert kernels.BACKEND == "numba"


# -- numpy kernels against the oracle -------------------------------------------

# One field per accumulation rule and symbol width: prime (uint8 and uint16),
# odd characteristic with h > 1, characteristic 2 (uint8 and uint16).
REF_FIELDS = [make_field(5), make_field(3, 2), make_field(2, 4), make_field(257),
              make_field(2, 16)]


def _sparse(rng, q, shape, zero_frac=0.5):
    vals = rng.integers(1, q, size=shape)
    return np.where(rng.random(shape) < zero_frac, 0, vals).astype(np.int64)


def _ref_matmul(ref, a, b):
    memo = {}

    def mul(x, y):
        if (x, y) not in memo:
            memo[x, y] = ref.mul(x, y)
        return memo[x, y]

    out = []
    for row in a.tolist():
        out_row = []
        for col in b.T.tolist():
            acc = 0
            for x, y in zip(row, col):
                acc = ref.add(acc, mul(x, y))
            out_row.append(acc)
        out.append(out_row)
    return np.array(out, dtype=np.int64).reshape(a.shape[0], b.shape[1])


@pytest.mark.parametrize("field", REF_FIELDS, ids=repr)
@pytest.mark.parametrize("shape", [(150, 6, 5), (3, 6, 150)], ids=["over-cols", "over-rows"])
def test_matmul_matches_oracle(field, shape, monkeypatch):
    monkeypatch.setattr(kernels, "_BLOCK", 32)  # several blocks per pass
    rows, inner, cols = shape
    rng = np.random.default_rng(rows * cols + field.q)
    a = _sparse(rng, field.q, (rows, inner))
    b = _sparse(rng, field.q, (inner, cols))
    a[:, 1] = 0  # a coefficient row or column that is all zeros
    b[2] = 0
    got = kernels._matmul_numpy(a, b, *field.tables())
    assert got.dtype == (np.uint8 if field.q <= 256 else np.uint16)
    assert np.array_equal(got, _ref_matmul(make_ref(field), a, b))
    if rows >= cols:
        assert got[:, 0].flags.c_contiguous  # output columns are contiguous


@pytest.mark.parametrize("field", REF_FIELDS, ids=repr)
def test_solve_many_rhs_matches_oracle(field):
    rng = np.random.default_rng(field.q)
    t = field.tables()
    k, w = 4, 120
    assert k * w > kernels._SCALAR_CUTOFF >= k * k
    a = _sparse(rng, field.q, (k, k), zero_frac=0.3)
    a[np.arange(k), np.arange(k)] = rng.integers(1, field.q, size=k)
    a[0, 1:] = 0  # lower triangular with a nonzero diagonal: nonsingular
    a[1, 2:] = 0
    a[2, 3:] = 0
    a = a[[2, 0, 3, 1]]  # rows out of order, so elimination has to swap
    b = _sparse(rng, field.q, (k, w))
    x = b.copy()
    assert kernels._solve_numpy(a.copy(), x, *t) == 0
    assert np.array_equal(_ref_matmul(make_ref(field), a, x), b)

    singular = a.copy()
    singular[3] = singular[1]
    assert kernels._solve_numpy(singular, b.copy(), *t) == 1
