"""Small exact matrices over cyclotomic fields.

Sizes are desk scale (at most 4).  On the product path a matrix is
multiplied, compared and traced; eigenvalues of a finite-order element come
from its power traces alone (``root_of_unity_eigenvalues``).  No verb
reaches ``charpoly`` (Faddeev-LeVerrier), ``det`` (Leibniz expansion) or
``inverse`` (the adjugate); perfbench's tracer still wraps them by name.

Entries are Cyclotomics as they are given; nothing here coerces a rational.
A product is fused: each entry already is integer numerators over one
denominator, and each output entry sum_k a_ik b_kj is one ``scalars.dot``
over its nonzero terms, which embeds them into their lcm field and sums
them as one integer polynomial, reduced and normalised once.  Zero entries
cost nothing.  So an output entry lies in the lcm field of the orders of
its nonzero terms, and is the order-1 zero when it has none, as if it were
summed term by term from 0.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from .errors import MalformedInput, SizeMismatch
from .scalars import Cyclotomic, dot, root_of_unity

MAX_SIZE = 4


class CycMatrix:
    """Immutable square matrix with Cyclotomic entries."""

    __slots__ = ("size", "rows")

    def __init__(self, rows):
        rows = tuple(map(tuple, rows))
        r = len(rows)
        if r == 0 or r > MAX_SIZE or any(len(row) != r for row in rows):
            raise MalformedInput(f"need a square matrix of size 1..{MAX_SIZE}")
        object.__setattr__(self, "size", r)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, val):
        raise AttributeError("CycMatrix is immutable")

    def _check(self, other):
        if not isinstance(other, CycMatrix):
            raise SizeMismatch("expected a matrix")
        if other.size != self.size:
            raise SizeMismatch(f"sizes {self.size} and {other.size} differ")

    def __matmul__(self, other):
        self._check(other)
        cols = tuple(zip(*other.rows))
        return CycMatrix([[dot([(a, b) for a, b in zip(row, col) if a and b]) for col in cols]
                          for row in self.rows])

    def __eq__(self, other):
        if not isinstance(other, CycMatrix) or other.size != self.size:
            return False
        return all(a == b for ra, rb in zip(self.rows, other.rows)
                   for a, b in zip(ra, rb))

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.rows for x in row)

    def trace(self) -> Cyclotomic:
        acc = self.rows[0][0]
        for i in range(1, self.size):
            acc = acc + self.rows[i][i]
        return acc

    def det(self) -> Cyclotomic:
        """Leibniz sum over the permutations whose entries are all nonzero; it
        lies in the lcm field of their orders."""
        acc = None
        for perm in permutations(range(self.size)):
            factors = [self.rows[i][j] for i, j in enumerate(perm)]
            if not all(factors):
                continue
            term = factors[0]
            for x in factors[1:]:
                term = term * x
            inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
            if inversions % 2:
                term = -term
            acc = term if acc is None else acc + term
        return Cyclotomic.zero() if acc is None else acc

    def charpoly(self) -> list[Cyclotomic]:
        """Coefficients of det(xI - A), lowest degree first, leading coeff 1."""
        r = self.size
        coeffs = [None] * r + [Cyclotomic.one()]
        M = self
        for k in range(1, r + 1):
            if k > 1:
                M = self @ M
            c = M.trace() * Fraction(-1, k)
            coeffs[r - k] = c
            M = CycMatrix([[x + c if i == j else x for j, x in enumerate(row)]
                           for i, row in enumerate(M.rows)])
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


def root_of_unity_eigenvalues(power_traces, zeta: Fraction, rank: int) -> list[Fraction]:
    """Eigenvalue exponents of a matrix A with A^n = e^{2 pi i zeta} Id, from
    power_traces[j] = tr A^j for j < n.

    A is diagonalisable, and each root lambda of lambda^n = e^{2 pi i zeta} has
    multiplicity (1/n) sum_j tr(A^j) lambda^-j.  A pseudorepresentation that
    passed verification gives non-negative integers adding up to the rank.
    """
    n = len(power_traces)
    found = []
    for k in range(n):
        q = (zeta + k) / n
        mult = dot([(t, root_of_unity(-j * q % 1)) for j, t in enumerate(power_traces)])
        count, rest = divmod(mult.nums[0], mult.den * n)
        if any(mult.nums[1:]) or rest or count < 0:
            raise AssertionError(f"multiplicity of e^(2 pi i {q}) is not a count")
        found += [q] * count
    if len(found) != rank:
        raise AssertionError(f"multiplicities add up to {len(found)}, not the rank {rank}")
    return sorted(found, reverse=True)
