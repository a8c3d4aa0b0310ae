"""Independent finite-field oracle for cross-checking the package.

Deliberately shares no code with pmds: elements are coefficient tuples,
multiplication is schoolbook convolution followed by long division on every
call (no tables), and inverses come from exhaustive search.  Slow and
obviously correct.
"""

from __future__ import annotations


class RefGF:
    def __init__(self, p: int, h: int, reduction_poly):
        self.p = p
        self.h = h
        self.q = p**h
        # reduction_poly: coefficients low to high, length h+1, monic
        self.red = tuple(reduction_poly) if reduction_poly is not None else None

    def to_vec(self, n: int) -> tuple:
        out = []
        for _ in range(self.h):
            out.append(n % self.p)
            n //= self.p
        return tuple(out)

    def to_index(self, vec) -> int:
        n = 0
        for c in reversed(vec):
            n = n * self.p + c
        return n

    def add(self, a: int, b: int) -> int:
        va, vb = self.to_vec(a), self.to_vec(b)
        return self.to_index(tuple((x + y) % self.p for x, y in zip(va, vb)))

    def sub(self, a: int, b: int) -> int:
        va, vb = self.to_vec(a), self.to_vec(b)
        return self.to_index(tuple((x - y) % self.p for x, y in zip(va, vb)))

    def mul(self, a: int, b: int) -> int:
        va, vb = self.to_vec(a), self.to_vec(b)
        prod = [0] * (2 * self.h - 1) if self.h > 1 else [0]
        for i, x in enumerate(va):
            for j, y in enumerate(vb):
                prod[i + j] = (prod[i + j] + x * y) % self.p
        if self.h == 1:
            return prod[0]
        # long division by the monic reduction polynomial
        for top in range(len(prod) - 1, self.h - 1, -1):
            c = prod[top]
            if c:
                prod[top] = 0
                for j in range(self.h + 1):
                    prod[top - self.h + j] = (prod[top - self.h + j] - c * self.red[j]) % self.p
        return self.to_index(prod[: self.h])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError
        for b in range(1, self.q):
            if self.mul(a, b) == 1:
                return b
        raise AssertionError("no inverse found; field arithmetic is broken")

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        out = 1
        for _ in range(e):
            out = self.mul(out, a)
        return out

    def binom(self, m: int, n: int) -> int:
        """Direct evaluation of prod_{i=1..m} (sigma(n) - sigma(i-1)) / sigma(i)."""
        val = 1
        for i in range(1, m + 1):
            val = self.mul(val, self.div(self.sub(n, i - 1), i))
        return val


def ref_rank(ref: RefGF, rows) -> int:
    """Row rank via elimination written against the oracle arithmetic."""
    mat = [list(r) for r in rows]
    n_rows = len(mat)
    n_cols = len(mat[0])
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        piv = next((i for i in range(r, n_rows) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        pinv = ref.inv(mat[r][c])
        mat[r] = [ref.mul(x, pinv) for x in mat[r]]
        for i in range(r + 1, n_rows):
            f = mat[i][c]
            if f:
                mat[i] = [ref.sub(x, ref.mul(f, y)) for x, y in zip(mat[i], mat[r])]
        r += 1
    return r


def ref_solve(ref: RefGF, a_rows, b_rows):
    """X with a X = b for a nonsingular square a, by Gauss-Jordan elimination
    written against the oracle arithmetic; None if a is singular."""
    k = len(a_rows)
    mat = [list(a) + list(b) for a, b in zip(a_rows, b_rows)]
    for c in range(k):
        piv = next((i for i in range(c, k) if mat[i][c] != 0), None)
        if piv is None:
            return None
        mat[c], mat[piv] = mat[piv], mat[c]
        pinv = ref.inv(mat[c][c])
        mat[c] = [ref.mul(x, pinv) for x in mat[c]]
        for i in range(k):
            f = mat[i][c]
            if i != c and f:
                mat[i] = [ref.sub(x, ref.mul(f, y)) for x, y in zip(mat[i], mat[c])]
    return [row[k:] for row in mat]


def make_ref(field) -> RefGF:
    """Oracle over the same (p, h, reduction polynomial) as a pmds field."""
    return RefGF(field.p, field.h, field.reduction_poly)
