"""Small exact matrices over cyclotomic fields.

Sizes are desk scale (at most 4), so determinants go through Leibniz
expansion, inverses through the adjugate, and characteristic polynomials
through Faddeev-LeVerrier, all exact.  Eigenvalues of finite-order elements
are roots of unity and are extracted by trial evaluation over divisor orders
followed by synthetic division.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from .errors import MalformedInput, SizeMismatch
from .scalars import Cyclotomic, rational, root_of_unity

MAX_SIZE = 4


def _as_cyclotomic(x) -> Cyclotomic:
    if isinstance(x, Cyclotomic):
        return x
    return Cyclotomic.from_rational(rational(x))


class CycMatrix:
    """Immutable square matrix with Cyclotomic entries."""

    __slots__ = ("size", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(_as_cyclotomic(x) for x in row) for row in rows)
        r = len(rows)
        if r == 0 or r > MAX_SIZE or any(len(row) != r for row in rows):
            raise MalformedInput(f"need a square matrix of size 1..{MAX_SIZE}")
        object.__setattr__(self, "size", r)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, val):
        raise AttributeError("CycMatrix is immutable")

    @classmethod
    def identity(cls, r: int) -> "CycMatrix":
        return cls([[1 if i == j else 0 for j in range(r)] for i in range(r)])

    @classmethod
    def zero(cls, r: int) -> "CycMatrix":
        return cls([[0] * r for _ in range(r)])

    @classmethod
    def diagonal(cls, entries) -> "CycMatrix":
        entries = list(entries)
        r = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(r)] for i in range(r)])

    @classmethod
    def scalar(cls, r: int, value) -> "CycMatrix":
        return cls.diagonal([value] * r)

    def entry(self, i: int, j: int) -> Cyclotomic:
        return self.rows[i][j]

    def _check(self, other):
        if not isinstance(other, CycMatrix):
            raise SizeMismatch("expected a matrix")
        if other.size != self.size:
            raise SizeMismatch(f"sizes {self.size} and {other.size} differ")

    def __add__(self, other):
        self._check(other)
        return CycMatrix([[a + b for a, b in zip(ra, rb)]
                          for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        self._check(other)
        return CycMatrix([[a - b for a, b in zip(ra, rb)]
                          for ra, rb in zip(self.rows, other.rows)])

    def __matmul__(self, other):
        self._check(other)
        r = self.size
        out = []
        for i in range(r):
            row = []
            for j in range(r):
                acc = Cyclotomic.zero()
                for k in range(r):
                    a = self.rows[i][k]
                    if a.is_zero():
                        continue
                    b = other.rows[k][j]
                    if b.is_zero():
                        continue
                    acc = acc + a * b
                row.append(acc)
            out.append(row)
        return CycMatrix(out)

    def scale(self, c) -> "CycMatrix":
        c = _as_cyclotomic(c)
        return CycMatrix([[c * x for x in row] for row in self.rows])

    def __pow__(self, n: int) -> "CycMatrix":
        if n < 0:
            return self.inverse() ** (-n)
        out = CycMatrix.identity(self.size)
        base = self
        while n:
            if n & 1:
                out = out @ base
            base = base @ base
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, CycMatrix) or other.size != self.size:
            return False
        return all(a == b for ra, rb in zip(self.rows, other.rows)
                   for a, b in zip(ra, rb))

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.rows for x in row)

    def is_identity(self) -> bool:
        return self == CycMatrix.identity(self.size)

    def trace(self) -> Cyclotomic:
        acc = Cyclotomic.zero()
        for i in range(self.size):
            acc = acc + self.rows[i][i]
        return acc

    def det(self) -> Cyclotomic:
        acc = Cyclotomic.zero()
        for perm in permutations(range(self.size)):
            sign = 1
            seen = list(perm)
            for i in range(len(seen)):  # parity by counting inversions
                for j in range(i + 1, len(seen)):
                    if seen[i] > seen[j]:
                        sign = -sign
            term = Cyclotomic.from_rational(sign)
            for i, j in enumerate(perm):
                x = self.rows[i][j]
                if x.is_zero():
                    term = Cyclotomic.zero()
                    break
                term = term * x
            acc = acc + term
        return acc

    def charpoly(self) -> list[Cyclotomic]:
        """Coefficients of det(xI - A), lowest degree first, leading coeff 1."""
        r = self.size
        coeffs = [Cyclotomic.zero() for _ in range(r + 1)]
        coeffs[r] = Cyclotomic.one()
        M = CycMatrix.identity(r)
        for k in range(1, r + 1):
            M = self @ M
            c = M.trace() * Fraction(-1, k)
            coeffs[r - k] = c
            M = M + CycMatrix.scalar(r, c)
        return coeffs

    def inverse(self) -> "CycMatrix":
        d = self.det()
        if d.is_zero():
            raise ZeroDivisionError("matrix is singular")
        r = self.size
        inv_d = d.inverse()
        if r == 1:
            return CycMatrix([[inv_d]])
        cof = [[None] * r for _ in range(r)]
        for i in range(r):
            for j in range(r):
                minor = [[self.rows[a][b] for b in range(r) if b != j]
                         for a in range(r) if a != i]
                sign = -1 if (i + j) % 2 else 1
                cof[j][i] = CycMatrix(minor).det() * sign * inv_d
        return CycMatrix(cof)

    def __repr__(self):
        return f"CycMatrix({self.size}x{self.size})"


def poly_eval(coeffs, x: Cyclotomic) -> Cyclotomic:
    acc = Cyclotomic.zero()
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_deflate(coeffs, root: Cyclotomic):
    """Divide a monic-led polynomial by (x - root); remainder must be zero."""
    out = []
    carry = Cyclotomic.zero()
    for c in reversed(coeffs):
        carry = c + carry * root
        out.append(carry)
    remainder = out.pop()
    if not remainder.is_zero():
        raise ValueError("not a root")
    return list(reversed(out))


def root_of_unity_eigenvalues(A: CycMatrix, order_bound: int) -> list[Fraction]:
    """Eigenvalue exponents of A, assuming all eigenvalues are roots of unity
    of order dividing order_bound.  Trial evaluation over k/order_bound with
    multiplicities by synthetic division; raises if the assumption fails.
    """
    p = A.charpoly()
    found = []
    for k in range(order_bound):
        q = Fraction(k, order_bound)
        lam = root_of_unity(q, order_bound)
        while len(p) > 1 and poly_eval(p, lam).is_zero():
            p = poly_deflate(p, lam)
            found.append(q)
    if len(found) != A.size:
        raise ValueError("matrix has eigenvalues outside the trial roots of unity")
    return sorted(found, reverse=True)
