"""Kernel checks against the independent oracle in ``reference_gf``."""

import numpy as np
import pytest

from pmds import kernels
from pmds.codec import CodecConfig, encode, generator_matrix
from pmds.fields import make_field
from reference_gf import make_ref, ref_rank

# One field per accumulation rule and symbol width: prime (uint8 and uint16),
# odd characteristic with h > 1, characteristic 2 (uint8 and uint16), and
# GF(2), whose only nonzero log is 0.
REF_FIELDS = [make_field(5), make_field(3, 2), make_field(2, 4), make_field(257),
              make_field(2, 16), make_field(2)]


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
    got = kernels.matmul(a, b, *field.tables())
    assert got.dtype == (np.uint8 if field.q <= 256 else np.uint16)
    assert np.array_equal(got, _ref_matmul(make_ref(field), a, b))
    if rows >= cols:
        assert got[:, 0].flags.c_contiguous  # output columns are contiguous


@pytest.mark.parametrize("field", REF_FIELDS, ids=repr)
def test_solve_many_rhs_matches_oracle(field):
    rng = np.random.default_rng(field.q)
    t = field.tables()
    k, w = 4, 120
    assert w > k  # the [a | I] route: invert a, then one product applies it
    a = _sparse(rng, field.q, (k, k), zero_frac=0.3)
    a[np.arange(k), np.arange(k)] = rng.integers(1, field.q, size=k)
    a[0, 1:] = 0  # lower triangular with a nonzero diagonal: nonsingular
    a[1, 2:] = 0
    a[2, 3:] = 0
    a = a[[2, 0, 3, 1]]  # rows out of order, so elimination has to swap
    b = _sparse(rng, field.q, (k, w))
    x = b.copy()
    assert kernels.solve_in_place(a.copy(), x, *t) == 0
    assert np.array_equal(_ref_matmul(make_ref(field), a, x), b)

    singular = a.copy()
    singular[3] = singular[1]
    assert kernels.solve_in_place(singular, b.copy(), *t) == 1


# One field per subtraction rule of the elimination: mod p (a small and a large
# prime), digit-wise, XOR, and GF(2).
ELIM_FIELDS = [make_field(5), make_field(3, 2), make_field(2, 4), make_field(257),
               make_field(2)]


@pytest.mark.parametrize("field", ELIM_FIELDS, ids=repr)
def test_rank_vectorised_matches_oracle(field):
    rng = np.random.default_rng(field.q + 1)
    m = _sparse(rng, field.q, (24, 30), zero_frac=0.3)
    m[0, 0] = 0  # the first pivot comes from a lower row: a swap
    m[5, 0] = 1
    m[:, 3] = 0  # a column with no pivot
    m[7] = m[2]  # dependent rows, so the rank is below the row count
    m[11] = 0
    expected = ref_rank(make_ref(field), m.tolist())
    assert expected < 24
    assert kernels.rank_in_place(m.copy(), *field.tables()) == expected


@pytest.mark.parametrize("field", ELIM_FIELDS, ids=repr)
def test_solve_vectorised_matches_oracle(field):
    rng = np.random.default_rng(field.q + 2)
    t = field.tables()
    k, w = 25, 4
    assert w <= k  # the [a | b] route
    ref = make_ref(field)
    while True:
        a = _sparse(rng, field.q, (k, k), zero_frac=0.3)
        a[0, 0] = 0  # the first pivot comes from a lower row: a swap
        if ref_rank(ref, a.tolist()) == k:
            break
    b = _sparse(rng, field.q, (k, w))
    x = b.copy()
    assert kernels.solve_in_place(a.copy(), x, *t) == 0
    assert np.array_equal(_ref_matmul(ref, a, x), b)

    singular = a.copy()
    singular[k - 1] = singular[3]
    assert kernels.solve_in_place(singular, b.copy(), *t) == 1


# GF(65521), the largest prime field: the exact int64 product's worst case is
# every operand p - 1 over a long inner dimension.
@pytest.mark.parametrize("shape", [(5, 4099, 3), (3, 4099, 5)], ids=["over-cols", "over-rows"])
def test_prime_product_worst_case_is_exact(shape, monkeypatch):
    monkeypatch.setattr(kernels, "_BLOCK", 7)  # blocks with ragged edges
    field = make_field(65521)
    p = field.p
    rows, inner, cols = shape
    rng = np.random.default_rng(inner)
    a = np.full((rows, inner), p - 1, dtype=np.int64)
    b = np.full((inner, cols), p - 1, dtype=np.int64)
    a[1] = rng.integers(p - 9, p, size=inner)  # one row and one column near the top
    b[:, 1] = rng.integers(p - 9, p, size=inner)
    got = kernels.matmul(a, b, *field.tables())
    a_int, b_int = a.tolist(), b.T.tolist()
    expected = [[sum(x * y for x, y in zip(r, c)) % p for c in b_int] for r in a_int]
    assert got.dtype == np.uint16
    assert got.tolist() == expected


def test_prime_encode_is_narrow_with_contiguous_shares(monkeypatch):
    monkeypatch.setattr(kernels, "_BLOCK", 1000)  # several ragged blocks
    cfg = CodecConfig(make_field(257), 16)
    words = np.random.default_rng(257).integers(0, 257, size=(300, 16))
    shares = encode(cfg, words)  # 300 words >= 258 shares: one column per share
    assert len(shares) == 258
    assert all(s.symbols.dtype == np.uint16 and s.symbols.flags.c_contiguous for s in shares)
    gen = generator_matrix(cfg).data
    expected = (words.astype(object) @ gen.astype(object)) % 257  # Python ints
    assert np.array_equal(np.stack([s.symbols for s in shares], axis=1), expected)
