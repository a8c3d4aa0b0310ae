"""Arithmetic in GF(p^h) under a canonical integer labelling of elements.

An element of GF(q), q = p^h, is a polynomial b_{h-1}x^{h-1} + ... + b_0
with coefficients in [0, p).  Its *index* is sum(b_i * p^i), i.e. the
coefficient vector read as base-p digits.  Indices run over [0, q) and are
the representation used everywhere in this package: matrices store indices,
wire formats serialize indices, and ``sigma(n)`` is index n read back as an
element.

For h > 1 products are reduced modulo a fixed monic irreducible polynomial:
the lexicographically smallest one, ordering degree-h monic polynomials by
the index of their coefficient vector.  Fixing this convention (rather than
using tabulated Conway polynomials) keeps every matrix built on top
byte-reproducible from (p, h) alone.

Multiplication normally goes through log/antilog tables over a generator of
the multiplicative group; ``mul_poly`` is the table-free polynomial route
kept as a cross-check (the two must agree bit for bit).
"""

from __future__ import annotations

import functools
import operator
from math import isqrt

import numpy as np

# Largest supported field order: keeps log/antilog tables and exhaustive
# verification at desk scale.
FIELD_ORDER_CAP = 1 << 16


def _check_cap(p: int, h: int) -> None:
    """Refuse GF(p^h) above ``FIELD_ORDER_CAP`` before any work that grows
    with p or h (primality, p**h, factoring): p and h are bounded first,
    since p >= 2 makes any h above log2(cap) too large, then p**h.  The
    message names the spec, never a large p**h."""
    if p > FIELD_ORDER_CAP or h >= FIELD_ORDER_CAP.bit_length() or p**h > FIELD_ORDER_CAP:
        spec = str(p) if h == 1 else f"{p}^{h}"
        raise ValueError(f"field {spec} exceeds cap {FIELD_ORDER_CAP}")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending (trial division)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _poly_trim(poly: list[int]) -> list[int]:
    i = len(poly)
    while i > 0 and poly[i - 1] == 0:
        i -= 1
    return poly[:i]


def _poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of num / den over GF(p); den must be monic."""
    num = list(num)
    dd = len(den) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            for j in range(dd + 1):
                num[i - dd + j] = (num[i - dd + j] - c * den[j]) % p
    return _poly_trim(num[:dd])


def is_irreducible(poly, p: int) -> bool:
    """Whether a monic polynomial (coefficients low to high) is irreducible
    over GF(p), decided by trial division against every monic polynomial of
    degree in [1, deg/2]."""
    poly = list(poly)
    if any(not 0 <= c < p for c in poly):
        raise ValueError(f"polynomial coefficients must lie in [0, {p})")
    poly = _poly_trim(poly)
    deg = len(poly) - 1
    if deg < 1:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for idx in range(p**d):
            den = _digits(idx, p, d) + [1]
            if not _poly_mod(poly, den, p):
                return False
    return True


def find_reduction_poly(p: int, h: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible polynomial of degree h
    over GF(p), ordering candidates by coefficient index."""
    if h < 2:
        raise ValueError("reduction polynomial only applies to extension degree >= 2")
    for idx in range(p**h):
        cand = _digits(idx, p, h) + [1]
        if is_irreducible(cand, p):
            return tuple(cand)
    raise AssertionError("unreachable: an irreducible polynomial of every degree exists")


def _digits(n: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        n, r = divmod(n, p)
        out.append(r)
    return out


@functools.lru_cache(maxsize=None)
def add_sub(p: int, h: int):
    """The ``(add, sub)`` functions of GF(p^h) on element indices.

    An index is the element's base-p digit vector, so addition and
    subtraction are digit-wise mod p: XOR when p = 2, one reduction mod p
    when h = 1, and a loop over the h digits otherwise.  Both functions take
    plain ints or int64 arrays (broadcasting).  An unsigned narrow array may
    meet an int64 one, which numpy widens it to, but two narrow operands
    wrap: widen one first.
    """
    if p == 2:
        return operator.xor, operator.xor
    if h == 1:
        return (lambda a, b: (a + b) % p), (lambda a, b: (a - b) % p)
    return _digitwise(operator.add, p, h), _digitwise(operator.sub, p, h)


def _digitwise(combine, p: int, h: int):
    def op(a, b):
        s, mul = 0, 1
        for _ in range(h):
            s = s + combine(a, b) % p * mul
            a, b, mul = a // p, b // p, mul * p
        return s

    return op


class GF:
    """The finite field GF(p^h) operating on element indices (plain ints).

    Attributes:
        p, h, q: characteristic, extension degree, order q = p^h.
        reduction_poly: monic irreducible degree-h coefficient tuple
            (low to high); None when h = 1.
        generator: index of the multiplicative-group generator behind the
            log/antilog tables.
        log, exp: the one log/antilog pair every product reads.  ``log`` is
            intp with q entries; ``log[0]`` is the sentinel s = 2(q-1) - 1,
            past every sum of two logs.  ``exp`` holds narrow symbols (uint8
            for q <= 256, else uint16) with 2s + 1 entries: ``exp[i]`` is
            g^(i mod (q-1)) below s and 0 from s on, so ``exp[log[a] +
            log[b]]`` is a * b for every pair of elements, zeros included.
    """

    def __init__(self, p: int, h: int = 1):
        if h < 1:
            raise ValueError(f"extension degree must be >= 1, got {h}")
        _check_cap(p, h)
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        q = p**h
        self.p = p
        self.h = h
        self.q = q
        self.reduction_poly = None if h == 1 else find_reduction_poly(p, h)
        # Bit mask form of the reduction polynomial for the p=2 fast path.
        self._red_mask = None
        if h > 1 and p == 2:
            self._red_mask = sum(c << i for i, c in enumerate(self.reduction_poly))
        self.generator = self._find_generator()
        self.log, self.exp = self._build_tables()

    # -- construction helpers ------------------------------------------------

    def _find_generator(self) -> int:
        if self.q == 2:
            return 1
        order = self.q - 1
        factors = prime_factors(order)
        for g in range(2, self.q):
            if all(self.pow_poly(g, order // f) != 1 for f in factors):
                return g
        raise AssertionError("unreachable: multiplicative group is cyclic")

    def _build_tables(self):
        qm = self.q - 1
        sentinel = 2 * qm - 1
        log = np.empty(self.q, dtype=np.intp)
        log[0] = sentinel
        exp = np.zeros(2 * sentinel + 1, dtype=np.uint8 if self.q <= 256 else np.uint16)
        e = 1
        for i in range(qm):
            exp[i] = e
            log[e] = i
            e = self.mul_poly(e, self.generator)
        exp[qm:sentinel] = exp[: sentinel - qm]
        return log, exp

    # -- element plumbing ----------------------------------------------------

    def _check(self, a: int) -> int:
        if not 0 <= a < self.q:
            raise ValueError(f"element index {a} out of range [0, {self.q})")
        return a

    def digits(self, n: int) -> list[int]:
        """Base-p coefficient vector (length h, low to high) of an index."""
        return _digits(self._check(n), self.p, self.h)

    def from_digits(self, digits) -> int:
        n = 0
        for d in reversed(list(digits)):
            n = n * self.p + d
        return self._check(n)

    def sigma(self, n: int) -> int:
        """Element with canonical index n (identity on valid indices)."""
        return self._check(n)

    @property
    def spec(self) -> str:
        """Field spec string: bare prime or 'p^h'."""
        return str(self.p) if self.h == 1 else f"{self.p}^{self.h}"

    def __repr__(self):
        return f"GF({self.q})" if self.h == 1 else f"GF({self.q}={self.p}^{self.h})"

    def __eq__(self, other):  # (p, h) fixes the reduction polynomial
        return isinstance(other, GF) and (self.p, self.h) == (other.p, other.h)

    def __hash__(self):
        return hash((self.p, self.h))

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        self._check(a), self._check(b)
        return add_sub(self.p, self.h)[0](a, b)

    def sub(self, a: int, b: int) -> int:
        self._check(a), self._check(b)
        return add_sub(self.p, self.h)[1](a, b)

    def neg(self, a: int) -> int:
        return self.sub(0, a)

    def mul(self, a: int, b: int) -> int:
        """Product via the log/antilog tables (fast path)."""
        self._check(a), self._check(b)
        return int(self.exp[self.log[a] + self.log[b]])

    def mul_poly(self, a: int, b: int) -> int:
        """Product via polynomial multiplication mod the reduction polynomial
        (table-free reference path; must match ``mul`` bit for bit)."""
        self._check(a), self._check(b)
        p, h = self.p, self.h
        if h == 1:
            return (a * b) % p
        if p == 2:
            acc, x, y, red = 0, a, b, self._red_mask
            while y:
                if y & 1:
                    acc ^= x
                y >>= 1
                x <<= 1
                if (x >> h) & 1:
                    x ^= red
            return acc
        da, db = _digits(a, p, h), _digits(b, p, h)
        prod = [0] * (2 * h - 1)
        for i, ca in enumerate(da):
            if ca:
                for j, cb in enumerate(db):
                    prod[i + j] = (prod[i + j] + ca * cb) % p
        for i in range(2 * h - 2, h - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(h):
                    prod[i - h + j] = (prod[i - h + j] - c * self.reduction_poly[j]) % p
        return self.from_digits(prod[:h])

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        n = self.q - 1
        return int(self.exp[(n - int(self.log[a])) % n])

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        """a**e with the convention pow(a, 0) = 1 for every a, including 0."""
        self._check(a)
        if e < 0:
            raise ValueError("exponent must be non-negative")
        if e == 0:
            return 1
        if a == 0:
            return 0
        n = self.q - 1
        return int(self.exp[(int(self.log[a]) * (e % n)) % n])

    def pow_poly(self, a: int, e: int) -> int:
        """Square-and-multiply over ``mul_poly`` (used before tables exist)."""
        self._check(a)
        if e < 0:
            raise ValueError("exponent must be non-negative")
        result, base = 1, a
        while e:
            if e & 1:
                result = self.mul_poly(result, base)
            base = self.mul_poly(base, base)
            e >>= 1
        return result

    def tables(self):
        """(p, h, q, log, exp): the field's one table pair, as every kernel reads it."""
        return self.p, self.h, self.q, self.log, self.exp


@functools.lru_cache(maxsize=None)
def make_field(p: int, h: int = 1) -> GF:
    """GF(p^h) with the deterministic reduction polynomial (cached)."""
    return GF(p, h)


def parse_field_spec(spec: str) -> GF:
    """Parse 'p' or 'p^h' (e.g. '5', '2^4') into a field."""
    text = spec.strip()
    try:
        if "^" in text:
            p_str, h_str = text.split("^", 1)
            return make_field(int(p_str), int(h_str))
        return make_field(int(text), 1)
    except ValueError as e:
        raise ValueError(f"bad field spec {spec!r}: {e}") from None


def field_from_order(q: int) -> GF:
    """The field of a given prime-power order (p and h recovered from q)."""
    if q < 2:
        raise ValueError(f"field order must be >= 2, got {q}")
    _check_cap(q, 1)
    for p in range(2, isqrt(q) + 1):
        if q % p == 0:
            h = 0
            m = q
            while m % p == 0:
                m //= p
                h += 1
            if m != 1:
                raise ValueError(f"{q} is not a prime power")
            return make_field(p, h)
    return make_field(q, 1)  # q itself is prime
