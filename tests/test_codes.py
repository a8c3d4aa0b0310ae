import functools
import tracemalloc
from itertools import combinations
from math import comb

import numpy as np
import pytest

from pmds import kernels
from pmds.codes import (
    DEFAULT_SUBSET_CAP,
    MdsVerdict,
    SubsetCapExceeded,
    decompose_supplemented,
    is_mds,
    lex_rank,
    rs_generator,
    supplement,
    uniform_matroid_representation,
)
from pmds.fields import field_from_order, make_field
from pmds.matrices import MatrixGF, rank, submatrix_columns
from pmds.pascal import supplemented_pascal, truncated_pascal
from reference_gf import make_ref, ref_rank

F4 = make_field(2, 2)
F5 = make_field(5)


def brute_force_verdict(m: MatrixGF) -> MdsVerdict:
    """Independent verifier: oracle arithmetic, itertools enumeration."""
    ref = make_ref(m.field)
    ref.inv = functools.lru_cache(maxsize=None)(ref.inv)  # exhaustive search, memoized
    k = m.rows
    checked = 0
    for cols in combinations(range(m.cols), k):
        checked += 1
        sub = [[int(m.data[i, j]) for j in cols] for i in range(k)]
        if ref_rank(ref, sub) < k:
            return MdsVerdict(False, list(cols), checked)
    return MdsVerdict(True, None, checked)


def test_is_mds_h52():
    v = is_mds(supplemented_pascal(F5, 2))
    assert v == MdsVerdict(True, None, 15)


def test_is_mds_equal_columns():
    v = is_mds(MatrixGF(F5, [[1, 1], [1, 1]]))
    assert not v.is_mds
    assert v.witness == [0, 1]


def test_is_mds_duplicate_column_witness():
    base = truncated_pascal(F4, 3)
    dup = MatrixGF(F4, np.hstack([base.data, base.data[:, :1]]))
    v = is_mds(dup)
    assert not v.is_mds
    assert v.witness is not None and 0 in v.witness and 4 in v.witness


# Dependent matrices with a known lexicographically first witness.
STRUCTURED = [
    # k = 1: a nonzero test per column.
    (F5, [[3, 1, 0, 2]], [2]),
    # A zero column at index 0: the prefix [0] is dependent at depth 0.
    (F5, [[0, 1, 0, 1, 2], [0, 0, 1, 1, 3], [0, 2, 2, 1, 4], [0, 3, 1, 4, 4]], [0, 1, 2, 3]),
    # Column 2 repeats column 0 inside the first prefix (k = 5, depth 2).
    (make_field(3, 2), [[1, 4, 1, 0, 2, 8], [2, 0, 2, 1, 5, 3], [0, 7, 0, 6, 1, 1],
                        [5, 3, 5, 2, 0, 4], [8, 1, 8, 3, 7, 6]], [0, 1, 2, 3, 4]),
    # Only the very last subset is dependent.
    (F5, [[1, 0, 1, 1, 2], [0, 1, 1, 2, 4]], [3, 4]),
    (make_field(7), [[1, 5, 0, 4, 0, 6], [3, 2, 4, 3, 2, 4], [2, 4, 0, 0, 5, 4]], [3, 4, 5]),
]


def _brute_force_cases():
    rng = np.random.RandomState(5)
    fields = (make_field(2), make_field(3), F4, F5, make_field(2, 3), make_field(2, 4),
              make_field(3, 2), make_field(5, 2))
    for f in fields:
        for zero_frac in (0.0, 0.6):
            for _ in range(8):
                k = rng.randint(1, 6)
                n = rng.randint(k, k + 4)
                vals = rng.randint(1, f.q, size=(k, n))
                yield MatrixGF(f, np.where(rng.rand(k, n) < zero_frac, 0, vals))
        for k in (1, 2, 4):  # k = n: one subset
            yield MatrixGF(f, rng.randint(0, f.q, size=(k, k)))
    for f, rows, _ in STRUCTURED:
        yield MatrixGF(f, rows)
    yield supplemented_pascal(make_field(3, 2), 3)
    yield supplemented_pascal(make_field(2, 3), 4)


def test_is_mds_matches_brute_force(monkeypatch):
    cases = [(m, brute_force_verdict(m)) for m in _brute_force_cases()]
    assert any(want.is_mds for _, want in cases)
    assert sum(not want.is_mds for _, want in cases) > len(cases) // 3
    for f, rows, witness in STRUCTURED:
        m = MatrixGF(f, rows)
        assert brute_force_verdict(m).witness == witness
    # _BLOCK = 1 and 8 split the tuple grid of every case into several blocks.
    for block in (kernels._BLOCK, 8, 1):
        monkeypatch.setattr(kernels, "_BLOCK", block)
        for m, want in cases:
            assert is_mds(m) == want, (block, m.field.q, m.tolist())


def _scan_oracle_cases():
    """Matrices over GF(2), GF(7), GF(8), GF(9) and GF(257) for k = 1..5,
    and over GF(7), GF(8) and GF(9) for k = 6 and 7.

    Each k <= q gets the first n = min(k + 12, q + 1) columns of H (MDS, a
    full scan) and, for k >= 3, H with one dependency planted at the first
    and at the last triple of its first three-row node: a zero column, a
    duplicate, a scalar multiple, and a sum of two columns (dependent only
    as a triple).  k <= 2 gets the first three at its first two and last
    two columns.  k >= 6 also gets the plants of ``_level_plants``.  Every
    k also gets a random k x (k + 12) matrix, and GF(257) one random MDS
    5 x 9 matrix with two circuits planted.  At GF(257), k = 5, the
    unplanted ones are left out: each would take the oracle through all
    6,188 subsets.
    """
    rng = np.random.RandomState(15)
    for q in (2, 7, 8, 9, 257):
        f = field_from_order(q)
        for k in range(1, 8 if q in (7, 8, 9) else 6):
            unplanted = q < 257 or k < 5
            if unplanted:
                yield MatrixGF(f, rng.randint(0, q, size=(k, k + 12)))
            if k > q:
                continue
            n = min(k + 12, q + 1)
            base = supplemented_pascal(f, k).data[:, :n]
            if unplanted:
                yield MatrixGF(f, base)
            spots = [(k - 3, k - 2, k - 1), (n - 3, n - 2, n - 1)] if k >= 3 else [
                (0, 0, 1), (n - 2, n - 2, n - 1)]
            for i, j, l in spots:
                for plant in ("zero", "duplicate", "multiple", "sum"):
                    if plant == "sum" and k < 3:
                        continue
                    m = base.copy()
                    m[:, l] = {
                        "zero": 0,
                        "duplicate": m[:, i],
                        "multiple": kernels.v_mul(m[:, j], f.q - 1, *f.tables()[2:]),
                        "sum": kernels.v_add(m[:, i], m[:, j], f.p, f.h),
                    }[plant]
                    yield MatrixGF(f, m)
            if k >= 6:
                yield from _level_plants(f, base)
    # Circuits through (1, 3, 5, 6, 7) and (2, 4, 5, 6, 8) in a random MDS
    # 5 x 9 matrix over GF(257): the witness lies in the three-row group of
    # prefix (1, 3); the next group, of last column 4, starts before it at
    # (0, 4) but hits only at (2, 4), after it.
    m = np.random.RandomState(3).randint(1, 257, size=(5, 9))
    f = field_from_order(257)
    for circuit in ((1, 3, 5, 6, 7), (2, 4, 5, 6, 8)):
        m[:, circuit[-1]] = functools.reduce(
            lambda a, b: kernels.v_add(a, b, f.p, f.h), (m[:, c] for c in circuit[:-1]))
    yield MatrixGF(f, m)


def _level_plants(f, base):
    """Plants in the MDS matrix base (k x n, k >= 6) that the scan by levels
    meets out of lexicographic order.

    In the first k + 2 columns, circuits through C1 = (1, 2, ..., k) and
    C2 = (0, ..., k - 5, k - 2, ..., k + 1): each one's last column becomes
    a combination of the others (weights 1 for C1, 2, 3, ... for C2).  C1's
    three-row group (last prefix column k - 3) is taken before C2's (k - 2),
    so C1's hit comes first and C2's is the witness.  Zero pivot columns at
    the first stacked level (a zero column 0, whose candidate is the
    witness, or 3, whose is not) and at the second (a multiple of column 0
    in column 1 or 4).
    """
    k, n = base.shape
    tables = f.tables()[2:]

    def combination(m, cols, weights):
        terms = (kernels.v_mul(m[:, c], w, *tables) for c, w in zip(cols, weights))
        return functools.reduce(lambda a, b: kernels.v_add(a, b, f.p, f.h), terms)

    m = base[:, : k + 2].copy()
    m[:, k] = combination(m, range(1, k), [1] * (k - 1))
    if k + 2 <= n:
        c2 = (*range(k - 4), *range(k - 2, k + 1))
        m[:, k + 1] = combination(m, c2, [2 + i % (f.q - 2) for i in range(k - 1)])
    yield MatrixGF(f, m)
    for col, source in ((0, None), (3, None), (1, 0), (4, 0)):
        m = base.copy()
        m[:, col] = 0 if source is None else kernels.v_mul(m[:, source], 2, *tables)
        yield MatrixGF(f, m)


def test_mds_scan_matches_rank_oracle(monkeypatch):
    """Exhaustive check of the scan against per-subset rank: the same witness
    and subsets_checked, with the tuple grid and its chunks split at every
    _BLOCK of 1 and 7 as well as the default."""
    cases = [(m, brute_force_verdict(m)) for m in _scan_oracle_cases()]
    assert sum(want.is_mds for _, want in cases) >= 15
    assert sum(not want.is_mds for _, want in cases) >= 100
    for block in (kernels._BLOCK, 7, 1):
        monkeypatch.setattr(kernels, "_BLOCK", block)
        for m, want in cases:
            assert is_mds(m) == want, (block, m.field.q, m.tolist())


def test_mds_scan_memory_is_bounded_at_full_width():
    """k = 3 over GF(2^16) on all 65,537 columns of H with column 5 a copy of
    column 2: the same witness with a tracemalloc peak under 8 MB, and scans
    of every width 3..300 retain under 1 MB (no per-width cache survives)."""
    f = field_from_order(1 << 16)
    h = supplemented_pascal(f, 3).data.copy()
    h[:, 5] = h[:, 2]
    tracemalloc.start()
    try:
        assert kernels.mds_scan(h, *f.tables()) == [0, 2, 5]
        peak = tracemalloc.get_traced_memory()[1]
        before = tracemalloc.get_traced_memory()[0]
        for width in range(3, 301):
            m = h[:, 6 : 6 + width].copy()
            m[:, 2] = m[:, 1]
            assert kernels.mds_scan(m, *f.tables()) == [0, 1, 2]
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    assert retained < 1 << 20


@pytest.mark.parametrize("q,k,n", [(256, 4, 100), (257, 5, 60)])
def test_mds_scan_memory_is_bounded_with_an_early_exit(q, k, n):
    """A wide H under the default cap with column 5 a copy of column 2: the
    oracle's witness, found early, with a tracemalloc peak under 8 MB."""
    f = field_from_order(q)
    h = supplemented_pascal(f, k).data[:, :n].copy()
    h[:, 5] = h[:, 2]
    assert comb(n, k) <= DEFAULT_SUBSET_CAP
    want = brute_force_verdict(MatrixGF(f, h)).witness
    tracemalloc.start()
    try:
        assert kernels.mds_scan(h, *f.tables()) == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_is_mds_shape_and_cap():
    with pytest.raises(ValueError):
        is_mds(MatrixGF(F5, [[1, 2], [3, 4], [0, 1]]))  # n < k
    big = supplemented_pascal(make_field(2, 4), 6)
    with pytest.raises(SubsetCapExceeded, match="cap 100"):
        is_mds(big, cap=100)


def test_lex_rank():
    n, k = 8, 3
    for i, combo in enumerate(combinations(range(n), k)):
        assert lex_rank(combo, n) == i
    assert lex_rank([0, 1, 2, 3], 4) == 0


def test_rs_generator_gf5():
    g = rs_generator(F5, 2, 4)
    assert g.tolist() == [[1, 1, 1, 1], [1, 2, 3, 4]]


def test_rs_generator_k1():
    assert rs_generator(F5, 1, 4).tolist() == [[1, 1, 1, 1]]


def test_rs_generator_gf4_powers():
    g = rs_generator(F4, 3, 3)
    for j in range(3):
        pt = j + 1
        assert g.data[:, j].tolist() == [F4.pow(pt, 0), F4.pow(pt, 1), F4.pow(pt, 2)]
    assert is_mds(g).is_mds


def test_rs_generator_bounds():
    with pytest.raises(ValueError):
        rs_generator(F5, 2, 5)  # only q-1 nonzero points
    with pytest.raises(ValueError):
        rs_generator(F5, 3, 2)  # k > n


def test_supplement():
    assert supplement(truncated_pascal(F5, 2)) == supplemented_pascal(F5, 2)
    srs = supplement(rs_generator(F5, 2, 4))
    assert srs.cols == 5
    assert is_mds(srs) == MdsVerdict(True, None, comb(5, 2))
    one = supplement(MatrixGF(F5, [[3]]))
    assert one.tolist() == [[3, 1]]


def test_uniform_matroid_representation():
    assert uniform_matroid_representation(F5, 2, 6) == supplemented_pascal(F5, 2)
    square = uniform_matroid_representation(F5, 3, 3)
    assert rank(square) == 3
    m = uniform_matroid_representation(F4, 3, 5)
    assert m == MatrixGF(F4, supplemented_pascal(F4, 3).data[:, :5])
    assert is_mds(m) == MdsVerdict(True, None, comb(5, 3))
    with pytest.raises(ValueError):
        uniform_matroid_representation(F5, 2, 7)  # n > q+1
    with pytest.raises(ValueError):
        uniform_matroid_representation(F5, 4, 3)  # k > n


def test_uniform_matroid_representation_builds_only_its_columns():
    """k = 256, n = 300 over GF(2^16) builds 300 columns, not the 256 x 65,537
    supplemented matrix (134 MB) that the first 300 columns were cut from."""
    field = make_field(2, 16)
    tracemalloc.start()
    try:
        m = uniform_matroid_representation(field, 256, 300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.data.shape == (256, 300) and peak < 8 << 20


def test_decompose_supplemented_h52():
    out = decompose_supplemented(supplemented_pascal(F5, 2))
    assert out.tolist() == [[1, 1, 1, 1, 1, 0], [0, 0, 0, 0, 0, 1]]


def test_decompose_supplemented_block_structure(small_field):
    f = small_field
    for k in range(2, min(f.q, 5) + 1):
        out = decompose_supplemented(supplemented_pascal(f, k))
        assert np.array_equal(out.data[: k - 1, : f.q], truncated_pascal(f, k - 1).data)
        last = out.data[k - 1].tolist()
        assert last == [0] * f.q + [1]


def test_decompose_supplemented_rejects_wrong_shape():
    with pytest.raises(ValueError):
        decompose_supplemented(truncated_pascal(F5, 2))  # q columns, no unit column
    bad = supplemented_pascal(F5, 2).data.copy()
    bad[:, 5] = [1, 1]
    with pytest.raises(ValueError):
        decompose_supplemented(MatrixGF(F5, bad))
    with pytest.raises(ValueError):
        decompose_supplemented(supplemented_pascal(F5, 1))  # k < 2


def test_decompose_preserves_dependence_with_unit_column(small_field):
    """Column operations that add multiples of the unit column preserve the
    dependence of any subset containing it; subsets of size < k without it
    stay independent on both sides.  (A size-k subset omitting the unit
    column is independent in H but not in H', so it is excluded here.)"""
    f = small_field
    rng = np.random.RandomState(29)
    for k in range(2, min(f.q, 4) + 1):
        h = supplemented_pascal(f, k)
        hp = decompose_supplemented(h)
        n = h.cols
        for _ in range(20):
            size = rng.randint(1, min(k + 1, n) + 1)
            if rng.rand() < 0.7:  # subsets through the unit column
                rest = rng.choice(n - 1, size=size - 1, replace=False) if size > 1 else []
                cols = sorted(set(map(int, rest)) | {n - 1})
            else:  # small subsets avoiding it
                size = min(size, k - 1)
                if size == 0:
                    continue
                cols = sorted(map(int, rng.choice(n - 1, size=size, replace=False)))
            dep_h = rank(submatrix_columns(h, cols)) < len(cols)
            dep_hp = rank(submatrix_columns(hp, cols)) < len(cols)
            assert dep_h == dep_hp


GRID = [(q, k) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16) for k in range(1, min(q, 6) + 1)]


@pytest.mark.parametrize("q,k", [(2, 2), (4, 3), (5, 4), (9, 3), (16, 5)])
def test_theorem_grid_spot_checks(q, k):
    f = field_from_order(q)
    assert is_mds(supplemented_pascal(f, k)).is_mds
    assert is_mds(truncated_pascal(f, k)).is_mds
    if k <= q - 1:
        g = rs_generator(f, k, q - 1)
        assert is_mds(g).is_mds
        assert is_mds(supplement(g)).is_mds


def test_rs_suite_full_grid():
    for q, k in GRID:
        if k > q - 1:
            continue
        f = field_from_order(q)
        g = rs_generator(f, k, q - 1)
        assert is_mds(g).is_mds, (q, k)
        assert is_mds(supplement(g)).is_mds, (q, k)


def test_extension_probe_logged_not_asserted(capsys):
    """Exploratory: try every single-column extension of H_{q,k}.  The MDS
    conjecture says none survives except q = 2^h with k in {3, q-1}; log
    what happens, assert nothing about the exceptional cases."""
    findings = []
    for q in (2, 3, 4, 5):
        f = field_from_order(q)
        for k in range(2, q):
            h = supplemented_pascal(f, k)
            extendable = []
            for idx in range(q**k):
                col = [(idx // q**i) % q for i in range(k)]
                ext = MatrixGF(f, np.hstack([h.data, np.array(col)[:, None]]))
                if is_mds(ext).is_mds:
                    extendable.append(col)
            findings.append((q, k, len(extendable)))
    for q, k, count in findings:
        print(f"extension probe q={q} k={k}: {count} of {q**k} columns keep MDS")
    # sanity only: the probe ran over the whole grid
    assert len(findings) == sum(max(0, q - 2) for q in (2, 3, 4, 5))
