import pickle

import numpy as np
import pytest
import sympy

from pmds import kernels
from pmds.fields import (
    FIELD_ORDER_CAP,
    GF,
    field_from_order,
    find_reduction_poly,
    is_irreducible,
    is_prime,
    make_field,
    parse_field_spec,
)
from reference_gf import make_ref


def test_make_field_prime():
    f = make_field(5, 1)
    assert (f.p, f.h, f.q) == (5, 1, 5)
    assert f.reduction_poly is None


def test_make_field_gf4_reduction_poly():
    # The only irreducible monic quadratic over GF(2): enumerate all four
    # candidates and root-check each.
    candidates = []
    for c0 in (0, 1):
        for c1 in (0, 1):
            poly = (c0, c1, 1)
            has_root = any((x * x + c1 * x + c0) % 2 == 0 for x in (0, 1))
            if not has_root:
                candidates.append(poly)
    assert candidates == [(1, 1, 1)]
    assert make_field(2, 2).reduction_poly == (1, 1, 1)


def test_make_field_rejects_non_prime():
    with pytest.raises(ValueError):
        make_field(4, 1)
    with pytest.raises(ValueError):
        make_field(1, 1)


def test_make_field_rejects_bad_degree_and_cap():
    with pytest.raises(ValueError):
        GF(2, 0)
    make_field(2, 16)  # exactly at the cap
    with pytest.raises(ValueError):
        make_field(2, 17)


def test_find_reduction_poly_gf9():
    # x^2 + 1 has no roots mod 3 (1, 2, 2) and nothing smaller works.
    assert find_reduction_poly(3, 2) == (1, 0, 1)


def test_is_irreducible_square():
    # (x+1)^2 = x^2 + 1 over GF(2)
    assert not is_irreducible((1, 0, 1), 2)
    assert is_irreducible((1, 1, 1), 2)
    assert is_irreducible((1, 1), 2)  # linear
    assert not is_irreducible((1,), 2)  # constant


@pytest.mark.parametrize("p,h", [(2, 2), (2, 3), (2, 4), (2, 8), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_reduction_poly_against_sympy(p, h):
    """The chosen polynomial is irreducible and minimal in coefficient-index
    order, with sympy as the independent judge of irreducibility."""
    x = sympy.Symbol("x")

    def as_poly(coeffs):
        return sympy.Poly(sum(int(c) * x**i for i, c in enumerate(coeffs)), x, modulus=p)

    chosen = make_field(p, h).reduction_poly
    assert len(chosen) == h + 1 and chosen[-1] == 1
    assert as_poly(chosen).is_irreducible
    chosen_idx = sum(c * p**i for i, c in enumerate(chosen[:h]))
    for idx in range(chosen_idx):
        digits = []
        m = idx
        for _ in range(h):
            digits.append(m % p)
            m //= p
        assert not as_poly(digits + [1]).is_irreducible


def test_sigma_gf8():
    f = make_field(2, 3)
    assert f.digits(5) == [1, 0, 1]  # x^2 + 1
    assert f.sigma(0) == 0
    assert f.sigma(1) == 1
    assert f.sigma(5) == 5
    with pytest.raises(ValueError):
        f.sigma(8)
    with pytest.raises(ValueError):
        f.sigma(-1)


def test_sigma_bijection(small_field):
    f = small_field
    assert sorted(f.sigma(n) for n in range(f.q)) == list(range(f.q))
    assert all(f.from_digits(f.digits(n)) == n for n in range(f.q))


def test_add_examples():
    f4 = make_field(2, 2)
    assert f4.add(2, 2) == 0  # x + x, characteristic 2
    assert f4.add(2, 1) == 3  # x + 1, no carry between digits
    f5 = make_field(5)
    assert f5.add(2, 4) == 1  # 6 mod 5


def test_mul_inv_examples():
    f5 = make_field(5)
    assert f5.inv(2) == 3
    f4 = make_field(2, 2)
    assert f4.mul(2, 3) == 1  # x(x+1) = x^2+x = 1 mod x^2+x+1
    # inverse by exhaustive search over the nonzero elements
    assert [b for b in range(1, 4) if f4.mul(2, b) == 1] == [3]
    assert f4.inv(2) == 3
    with pytest.raises(ZeroDivisionError):
        f4.inv(0)
    with pytest.raises(ZeroDivisionError):
        f4.div(1, 0)


def test_pow_conventions(small_field):
    f = small_field
    assert f.pow(0, 0) == 1  # 0^0 = 1
    assert f.pow(0, 3) == 0
    with pytest.raises(ValueError):
        f.pow(1, -1)


def test_pow_matches_polynomial_pow(small_field):
    f = small_field
    for a in range(f.q):
        for e in range(2 * f.q + 1):
            assert f.pow(a, e) == f.pow_poly(a, e)


def test_fermat(small_field):
    f = small_field
    for a in range(1, f.q):
        assert f.pow(a, f.q - 1) == 1


def test_field_axioms_exhaustive(small_field):
    f = small_field
    if f.q > 9:
        pytest.skip("exhaustive triple loop kept to q <= 9; larger orders sampled elsewhere")
    elems = range(f.q)
    for a in elems:
        for b in elems:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.add(a, f.neg(a)) == 0
            if a:
                assert f.mul(a, f.inv(a)) == 1
            for c in elems:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_table_mul_matches_polynomial_mul(small_field):
    f = small_field
    for a in range(f.q):
        for b in range(f.q):
            assert f.mul(a, b) == f.mul_poly(a, b)


def test_against_reference_oracle(small_field):
    f = small_field
    ref = make_ref(f)
    for a in range(f.q):
        for b in range(f.q):
            assert f.add(a, b) == ref.add(a, b)
            assert f.sub(a, b) == ref.sub(a, b)
            assert f.mul(a, b) == ref.mul(a, b)
        if a:
            assert f.inv(a) == ref.inv(a)


def test_vectorized_ops_match_scalar(small_field):
    f = small_field
    ref = make_ref(f)
    p, h, q, logt, expt = f.tables()
    a = np.arange(q, dtype=np.int64)
    for b in range(q):
        bb = np.full(q, b, dtype=np.int64)
        assert kernels.v_add(a, bb, p, h).tolist() == [ref.add(int(x), b) for x in a]
        assert kernels.v_sub(a, bb, p, h).tolist() == [ref.sub(int(x), b) for x in a]
        assert kernels.v_mul(a, bb, q, logt, expt).tolist() == [ref.mul(int(x), b) for x in a]
    table = [[ref.mul(x, y) for y in range(q)] for x in range(q)]
    assert kernels.v_mul(a[:, None], a, q, logt, expt).tolist() == table  # broadcasting


def test_field_pickles(small_field):
    f = pickle.loads(pickle.dumps(small_field))
    assert f == small_field
    assert [f.sub(a, f.add(a, 1)) for a in range(f.q)] == [f.neg(1)] * f.q


def test_gf256_sampled_against_oracle():
    f = make_field(2, 8)
    ref = make_ref(f)
    # deterministic sample walk over the 65536 pairs
    for i in range(0, 256, 7):
        for j in range(0, 256, 11):
            assert f.mul(i, j) == ref.mul(i, j) == f.mul_poly(i, j)
    for a in range(1, 256, 5):
        assert f.mul(a, f.inv(a)) == 1


def test_prime_field_mul_is_modular(small_field):
    f = small_field
    if f.h != 1:
        pytest.skip("prime fields only")
    for a in range(f.q):
        for b in range(f.q):
            assert f.mul(a, b) == (a * b) % f.p


def test_cap_boundary_field():
    f = make_field(2, 16)
    assert f.q == FIELD_ORDER_CAP
    ref = make_ref(f)
    for a, b in [(1, 1), (2, 3), (40000, 65535), (12345, 54321)]:
        assert f.mul(a, b) == ref.mul(a, b) == f.mul_poly(a, b)
    a = 40000
    assert f.mul(a, f.inv(a)) == 1


def test_parse_field_spec():
    assert parse_field_spec("5").q == 5
    assert parse_field_spec("2^4").q == 16
    assert parse_field_spec(" 2^4 ").q == 16
    with pytest.raises(ValueError):
        parse_field_spec("4")
    with pytest.raises(ValueError):
        parse_field_spec("2^")
    with pytest.raises(ValueError):
        parse_field_spec("banana")


def test_field_from_order():
    assert field_from_order(9).spec == "3^2"
    assert field_from_order(7).spec == "7"
    assert field_from_order(16).spec == "2^4"
    with pytest.raises(ValueError):
        field_from_order(6)
    with pytest.raises(ValueError):
        field_from_order(12)


def test_is_prime():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)
    assert not is_prime(0)
