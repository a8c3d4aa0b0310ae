"""Kernel checks against the independent oracle in ``reference_gf``."""

import pickle
import tracemalloc

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


@pytest.mark.parametrize("field", ELIM_FIELDS, ids=repr)
def test_stacked_pivot_and_span_match_one_matrix_at_a_time(field):
    """A stack of matrices with one (r, c) each pivots like each matrix on
    its own, and ``_span`` sums each matrix's rows with its coefficients."""
    rng = np.random.default_rng(field.q + 3)
    t = field.tables()
    stack = _sparse(rng, field.q, (4, 5, 7), zero_frac=0.3)
    r = np.array([0, 4, 2, 2])
    c = np.array([3, 0, 6, 6])
    stack[np.arange(4), r, c] = rng.integers(1, field.q, size=4)  # nonzero pivots
    stack[3, :, 6] = 0
    stack[3, 2, 6] = 1  # the pivot is the only nonzero entry of its column
    one_by_one = stack.copy()
    for m, ri, ci in zip(one_by_one, r.tolist(), c.tolist()):
        kernels._pivot(m, ri, ci, *t)
    kernels._pivot(stack, r, c, *t)
    assert np.array_equal(stack, one_by_one)
    assert (stack[np.arange(4), r, c] == 1).all()

    ref = make_ref(field)
    coef = _sparse(rng, field.q, (4, 5), zero_frac=0.3)
    span = kernels._span(coef, stack, *t)
    for i in range(4):
        assert span[i].tolist() == _ref_matmul(ref, coef[i : i + 1], stack[i])[0].tolist()


@pytest.mark.parametrize("field", ELIM_FIELDS, ids=repr)
def test_stacked_reduce_matches_one_matrix_at_a_time(field):
    """``_reduce_stack`` gives each matrix of a stack the rank and the reduced
    form that ``_reduce`` gives it alone: full rank, swaps, a column without
    a pivot, dependent and zero rows, and an all-zero matrix."""
    rng = np.random.default_rng(field.q + 4)
    t = field.tables()
    stack = _sparse(rng, field.q, (6, 5, 9), zero_frac=0.3)
    stack[1, 0, 0], stack[1, 3, 0] = 0, 1  # a swap in one matrix only
    stack[2, :, 1] = 0  # no pivot in column 1
    stack[3, 4] = stack[3, 1]  # a dependent row
    stack[4, 2:] = 0  # zero rows
    stack[5] = 0
    one_by_one = stack.copy()
    ranks = [kernels._reduce(m, 6, *t) for m in one_by_one]
    ref = make_ref(field)
    assert ranks == [ref_rank(ref, m[:, :6].tolist()) for m in stack]
    assert len(set(ranks)) > 2  # the matrices reach different ranks
    assert kernels._reduce_stack(stack, 6, *t).tolist() == ranks
    assert np.array_equal(stack, one_by_one)


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


# -- products by row gathers from tables of multiples ---------------------------


def _spy_tables(monkeypatch):
    """Record the output shape of every product that gathers table rows."""
    calls = []
    gather = kernels._gather_rows

    def spy(out, *args):
        calls.append(out.shape)
        gather(out, *args)

    monkeypatch.setattr(kernels, "_gather_rows", spy)
    return calls


def _by_coefficient(a, b, field, monkeypatch):
    """a @ b by one gather per coefficient: no table fits a bound of 0."""
    with monkeypatch.context() as m:
        m.setattr(kernels, "_TABLE_BYTES", 0)
        return kernels.matmul(a, b, *field.tables())


def _dense(rng, q, shape):
    return rng.integers(1, q, size=shape).astype(np.int64)


# (field, rows of the short side, long side): uint8 XOR with rows that are
# not whole 8-byte lanes, and digit-wise sums at GF(9).  Each long side is
# past the switch for 3 live inner indices and one all-zero short row.
TABLE_CASES = [(make_field(2, 8), 5, 2049), (make_field(2, 8), 257, 1101),
               (make_field(3, 2), 5, 301)]


@pytest.mark.parametrize("field,rows,length", TABLE_CASES,
                         ids=["gf256-rows5", "gf256-rows257", "gf9-rows5"])
@pytest.mark.parametrize("over_cols", [True, False], ids=["over-cols", "over-rows"])
def test_table_product_matches_oracle(field, rows, length, over_cols, monkeypatch):
    # Blocks of 1600 bytes: 200 words of 8-byte rows, 6 of 264-byte rows,
    # each with a ragged last block.
    monkeypatch.setattr(kernels, "_BLOCK", 100)
    calls = _spy_tables(monkeypatch)
    rng = np.random.default_rng(rows + length + field.q)
    inner = 4
    short = _dense(rng, field.q, (rows, inner))
    short[:, 1] = 0  # an inner index with no coefficient: no table
    short[3] = 0  # an output row of zeros
    long = rng.integers(0, field.q, size=(inner, length))
    long[:, 7] = 0  # an all-zero operand column
    a, b = (long.T, short.T) if over_cols else (short, long)
    got = kernels.matmul(a, b, *field.tables())
    assert calls == [(rows, length)]
    assert got.dtype == (np.uint8 if field.q <= 256 else np.uint16)
    if rows * length <= 20_000:
        expected = _ref_matmul(make_ref(field), a, b)
    else:
        expected = _by_coefficient(a, b, field, monkeypatch)
    assert np.array_equal(got, expected)
    if over_cols:
        assert got[:, 0].flags.c_contiguous  # output columns are contiguous
        assert not got[:, 3].any()
    else:
        assert not got[3].any()


def test_table_product_uint16_lanes(monkeypatch):
    """XOR of 4 uint16 symbols per lane at GF(2^16), with a long side past
    the switch for four rows and two live inner indices (4 * 2 * q * 4 <=
    8 * length), checked in full against the per-coefficient loop and on a
    column sample against the oracle."""
    field = make_field(2, 16)
    rng = np.random.default_rng(16)
    a = _dense(rng, field.q, (4, 2))
    b = rng.integers(0, field.q, size=(2, 4 * field.q + 3))
    calls = _spy_tables(monkeypatch)
    got = kernels.matmul(a, b, *field.tables())
    assert calls == [(4, b.shape[1])]
    assert got.dtype == np.uint16
    assert np.array_equal(got, _by_coefficient(a, b, field, monkeypatch))
    sample = np.r_[0:40, b.shape[1] - 40 : b.shape[1]]
    assert np.array_equal(got[:, sample], _ref_matmul(make_ref(field), a, b[:, sample]))


@pytest.mark.parametrize("rows,length,tables",
                         [(8, 63, False), (8, 64, True), (6, 85, False), (6, 86, True)])
def test_table_switch(rows, length, tables, monkeypatch):
    """Over GF(16) with 2 dense inner indices, the tables hold 2 * 16 * 8
    entries for 6 or 8 rows (padded to 8-byte lanes).  They are used from
    the long side where that is a quarter of the rows * 2 * length products
    replaced: 64 = 4q for 8 rows, 86 for 6 rows."""
    field = make_field(2, 4)
    calls = _spy_tables(monkeypatch)
    rng = np.random.default_rng(length)
    a = _dense(rng, field.q, (rows, 2))
    b = rng.integers(0, field.q, size=(2, length))
    got = kernels.matmul(a, b, *field.tables())
    assert bool(calls) is tables
    assert np.array_equal(got, _ref_matmul(make_ref(field), a, b))


def test_tables_over_the_bound_fall_back(monkeypatch):
    """64 live inner indices with 264-byte rows need 64 * 256 * 264 B, over
    ``_TABLE_BYTES``: the per-coefficient loop runs, and agrees with the
    tables once the bound is raised."""
    field = make_field(2, 8)
    rng = np.random.default_rng(64)
    a = _dense(rng, field.q, (264, 64))
    b = rng.integers(0, field.q, size=(64, 1100))
    assert 64 * 256 * 264 > kernels._TABLE_BYTES
    calls = _spy_tables(monkeypatch)
    got = kernels.matmul(a, b, *field.tables())
    assert calls == []
    monkeypatch.setattr(kernels, "_TABLE_BYTES", 1 << 23)
    assert np.array_equal(kernels.matmul(a, b, *field.tables()), got)
    assert calls == [(264, 1100)]
    assert np.array_equal(got[:, :3], _ref_matmul(make_ref(field), a, b[:, :3]))


@pytest.mark.parametrize("k,words", [(2, 1), (2, 8), (8, 4)])
def test_gf65536_default_n_encode_builds_no_tables(k, words, monkeypatch):
    calls = _spy_tables(monkeypatch)
    cfg = CodecConfig(make_field(2, 16), k)
    msg = np.random.default_rng(k * words).integers(0, 65536, size=(words, k))
    shares = encode(cfg, msg)
    assert len(shares) == 65537 and calls == []


def test_decode_product_reads_rows_without_a_copy():
    """An 8 x 8 inverse applied to 65,536 words at GF(2^8), as in a decode:
    beyond its narrow output the product allocates under a quarter of the
    int64 operand, so it copies neither the operand nor its logs."""
    field = make_field(2, 8)
    cfg = CodecConfig(field, 8)
    inv = generator_matrix(cfg).data[:, 3:11].T.copy()  # 8 x 8 coefficients
    rhs = np.random.default_rng(8).integers(0, 256, size=(8, 65536))
    tracemalloc.start()
    try:
        got = kernels._matmul(inv, rhs, *field.tables())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < got.nbytes + rhs.nbytes // 4
    assert np.array_equal(got[:, :50], _ref_matmul(make_ref(field), inv, rhs[:, :50]))


def test_kernels_keep_no_tables_of_dropped_fields():
    """Each field owns its one table pair and the kernels keep no tables of
    their own: 30 unpickled copies of GF(2^12), each used once and dropped,
    retain under 1 MB, where 30 kept table sets would retain about 7 MB."""
    blob = pickle.dumps(make_field(2, 12))
    a = np.arange(4096, dtype=np.int64)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(30):
            _, _, q, log, exp = pickle.loads(blob).tables()
            kernels.v_mul(a, a[::-1], q, log, exp)
            del log, exp
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1 << 20


def test_dropped_codec_configs_keep_no_generators():
    """A config keeps its generator only as long as it lives: 30 GF(2^12)
    configs with K = 8..37, each used for one encode and dropped, retain under
    1 MB, where 30 kept full-width generators would retain about 22 MB."""
    field = make_field(2, 12)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(8, 38):
            encode(CodecConfig(field, k), [list(range(k))])
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1 << 20
