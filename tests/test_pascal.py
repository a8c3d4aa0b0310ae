from fractions import Fraction
from math import comb

import numpy as np
import pytest

from pmds.cli import SELFTEST_ORDERS
from pmds.codes import rs_generator
from pmds.fields import field_from_order, make_field
from pmds.matrices import count_zeros
from pmds.pascal import (
    KINDS,
    binom,
    generator_columns,
    pascal_additive,
    pascal_matrix,
    sparsity_report,
    supplemented_pascal,
    truncated_pascal,
    width,
)
from reference_gf import make_ref

F4 = make_field(2, 2)
F5 = make_field(5)

# The published mod-5 matrix, including the reduced entry 1 at (2, 4) where
# the integer Pascal matrix has 6.
P5_EXPECTED = [
    [1, 1, 1, 1, 1],
    [0, 1, 2, 3, 4],
    [0, 0, 1, 3, 1],
    [0, 0, 0, 1, 4],
    [0, 0, 0, 0, 1],
]

# The GF(4) matrix. Entry (2, 2) is x+1 (index 3): direct evaluation gives
# f_2(2) = (x * (x+1)) / (1 * x) = (x+1)/x * x ... = x+1, confirmed by the
# independent oracle below; a printed table elsewhere shows 1 there, which
# evaluation contradicts.
P4_EXPECTED = [
    [1, 1, 1, 1],
    [0, 1, 2, 3],
    [0, 0, 3, 3],
    [0, 0, 0, 1],
]


def test_binom_examples():
    assert binom(F4, 1, 3) == 3  # x+1
    assert binom(F5, 2, 4) == 1  # 6 mod 5
    for f in (F4, F5, make_field(2, 3)):
        assert binom(f, 3, 2) == 0  # n < m


def test_binom_gf4_2_2_against_oracle():
    ref = make_ref(F4)
    assert ref.binom(2, 2) == 3
    assert binom(F4, 2, 2) == 3


def test_binom_range_errors():
    with pytest.raises(ValueError):
        binom(F5, 5, 0)
    with pytest.raises(ValueError):
        binom(F5, 0, 5)


def test_binom_matches_oracle_everywhere(small_field):
    f = small_field
    ref = make_ref(f)
    for m in range(f.q):
        for n in range(f.q):
            assert binom(f, m, n) == ref.binom(m, n)


def test_pascal_matrix_gf4():
    assert pascal_matrix(F4).tolist() == P4_EXPECTED


def test_pascal_matrix_gf5():
    assert pascal_matrix(F5).tolist() == P5_EXPECTED


def test_pascal_matrix_gf2():
    assert pascal_matrix(make_field(2)).tolist() == [[1, 1], [0, 1]]


def test_matrix_entries_equal_binom(small_field):
    f = small_field
    m = pascal_matrix(f)
    for i in range(f.q):
        for j in range(f.q):
            assert m.data[i, j] == binom(f, i, j)


def _oracle_column(field, k, kind, u):
    """Column u of the kind's k-row generator from scalar arithmetic."""
    if kind.startswith("supplemented") and u == width(field, kind) - 1:
        return [0] * (k - 1) + [1]  # s_k
    if kind.endswith("pascal"):
        return [binom(field, m, u) for m in range(k)]
    return [field.pow(u + 1, m) for m in range(k)]


@pytest.mark.parametrize("q", SELFTEST_ORDERS + (27, 243, 256, 257))
def test_generator_columns_match_the_scalar_column_rules(q):
    field = field_from_order(q)
    rng = np.random.default_rng(q)
    ks = range(1, q + 1) if q <= 16 else (1, 2, 7, 27)
    for kind in KINDS:
        n = width(field, kind)
        assert n == {"supplemented_pascal": q + 1, "truncated_pascal": q,
                     "rs": q - 1, "supplemented_rs": q}[kind]
        for k in ks:
            # Unsorted columns that take in the first and the last (s_k for the
            # supplemented kinds); every column while q is small.
            picked = range(n) if q <= 16 else [0, n - 1, *rng.choice(n, 10, replace=False)]
            us = rng.permutation(list(picked)).tolist()
            got = generator_columns(field, k, kind, us)
            assert got.shape == (k, len(us)) and got.dtype == np.int64
            expected = [_oracle_column(field, k, kind, u) for u in us]
            assert got.T.tolist() == expected, (kind, k)
        for bad in ([n], [-1], [0, 1, n]):
            with pytest.raises(ValueError, match="columns must lie in"):
                generator_columns(field, 1, kind, bad)
    for k in (0, q + 1):
        with pytest.raises(ValueError, match="k must be in"):
            generator_columns(field, k, "truncated_pascal", [0])
    with pytest.raises(ValueError, match="unknown generator kind"):
        generator_columns(field, 1, "vandermonde", [0])


def test_truncated_pascal():
    assert truncated_pascal(F5, 2).tolist() == [[1, 1, 1, 1, 1], [0, 1, 2, 3, 4]]
    assert truncated_pascal(F5, 5) == pascal_matrix(F5)
    assert truncated_pascal(F5, 1).tolist() == [[1, 1, 1, 1, 1]]
    with pytest.raises(ValueError):
        truncated_pascal(F5, 0)
    with pytest.raises(ValueError):
        truncated_pascal(F5, 6)


def test_supplemented_pascal():
    assert supplemented_pascal(F5, 2).tolist() == [[1, 1, 1, 1, 1, 0], [0, 1, 2, 3, 4, 1]]
    assert supplemented_pascal(F5, 1).tolist() == [[1, 1, 1, 1, 1, 1]]
    m = supplemented_pascal(F4, 3)
    assert m.cols == F4.q + 1
    assert m.data[:, F4.q].tolist() == [0, 0, 1]


def test_pascal_additive_examples():
    assert pascal_additive(5, 5).tolist() == P5_EXPECTED
    assert pascal_additive(2, 2).tolist() == [[1, 1], [0, 1]]
    assert pascal_additive(7, 4) == truncated_pascal(make_field(7), 4)
    with pytest.raises(ValueError):
        pascal_additive(4, 2)  # non-prime


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_additive_equals_polynomial_route(p):
    f = make_field(p)
    for k in range(1, p + 1):
        assert pascal_additive(p, k) == truncated_pascal(f, k)


def test_root_structure(small_field):
    f = small_field
    for m in range(f.q):
        for n in range(f.q):
            assert (binom(f, m, n) == 0) == (n < m)


def test_degree_one_row_is_sigma(small_field):
    f = small_field
    for n in range(f.q):
        assert binom(f, 1, n) == f.sigma(n)


def test_zero_counts(small_field):
    f = small_field
    for k in range(1, f.q + 1):
        assert count_zeros(truncated_pascal(f, k)) == k * (k - 1) // 2
        assert count_zeros(supplemented_pascal(f, k)) == k * (k - 1) // 2 + (k - 1)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_prime_field_entries_are_integer_binomials(p):
    m = pascal_matrix(make_field(p))
    for i in range(p):
        for j in range(p):
            assert m.data[i, j] == comb(j, i) % p


def test_sparsity_report_truncated(small_field):
    f = small_field
    for k in range(2, min(f.q, 6) + 1):
        rep = sparsity_report(truncated_pascal(f, k))
        assert rep.zeros == k * (k - 1) // 2
        assert rep.max_possible == k * (k - 1)
        assert rep.ratio == Fraction(1, 2)


def test_sparsity_report_h52():
    rep = sparsity_report(supplemented_pascal(F5, 2))
    assert (rep.zeros, rep.max_possible, rep.ratio) == (2, 2, Fraction(1))


def test_sparsity_report_rs_has_no_zeros(small_field):
    f = small_field
    if f.q < 3:
        pytest.skip("needs at least two evaluation points")
    k = min(f.q - 1, 4)
    rep = sparsity_report(rs_generator(f, k, f.q - 1))
    assert rep.zeros == 0


def test_sparsity_report_k1_ratio_undefined():
    rep = sparsity_report(truncated_pascal(F5, 1))
    assert rep.max_possible == 0 and rep.ratio is None


def test_sparsity_report_shape_check():
    with pytest.raises(ValueError):
        sparsity_report(truncated_pascal(F5, 2), k=3, n=5)
