"""Exact scalar arithmetic: rationals, rationals mod 1, and cyclotomic fields.

Rationals are ``fractions.Fraction`` (always lowest terms, positive
denominator), read from the wire by ``jsonio``.  Weights and exponents mod 1
are plain Fractions: ``x % 1`` is the residue in [0,1), and ``signed_mod1``
the signed representative in (-1,1) that eigenvalue exponents of Ad use.
``Cyclotomic`` models Q(zeta_M) as Q[x]/(Phi_M(x)), so every root of unity,
and hence every eigenvalue of a finite-order group element, is represented
exactly and equality is a coefficient comparison.

A ``Cyclotomic`` is phi(M) int numerators over one positive int denominator
with gcd(den, *nums) == 1, zero being all zeros over 1.  The form is unique,
so equality is a tuple comparison, and the arithmetic runs on ints alone.
``_embedded`` is the one embedding: it writes a list of Cyclotomics as
nonzero int terms in one field Q(zeta_M) over one common denominator.
``dot`` embeds its left and its right operands into the lcm field of their
orders and sums their products as one unreduced integer polynomial; a
product of two Cyclotomics is one ``dot`` and a matrix product one per
entry, each normalised by one gcd.  Nothing here parses or coerces, and
``Cyclotomic(order, nums, den)`` stores its arguments as given.

Every product, embedding and root of unity is an unreduced polynomial that
``_reduce`` brings to its phi(M) coefficients mod Phi_M.  It first folds the
degrees at or above M/2 (M even) or M (M odd) down by the sparse relation
x^(M/2) = -1, resp. x^M = 1, then divides by Phi_M from the top degree,
touching only the nonzero terms.  Memory stays O(M), and each memo table
(phi, Phi_M, roots of unity) is an lru_cache keyed by value with a
finite bound, so it does not grow with the orders a process has seen.

Phi_M is built once per M over the ints, with no polynomial long division:
Phi_M(x) = Phi_R(x^(M/R)) for the radical R of M, and Phi_R is the Moebius
product of the binomials y^(R/e) - 1 over the divisors e of R, each a
multiplication or an exact division by a sparse binomial in O(R) steps.  The
orders an input asks for are capped at MAX_CYCLOTOMIC_ORDER before any
coefficient list of that length is built.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm, prod

from .errors import DenominatorNotDividing, IncompatibleOrders, ScaleExceeded

MAX_CYCLOTOMIC_ORDER = 2 ** 13  # working order of a series or a pseudorepresentation


def signed_mod1(x: Fraction) -> Fraction:
    """The representative of x mod 1 with the sign of x.

    Nonnegative x lands in [0,1), negative x in (-1,0], matching the usual
    split of eigenvalue exponents into beta < 0 versus 0 <= beta < 1.
    """
    r = x % 1
    return r - 1 if x < 0 and r else r


def _prime_factors(n: int) -> tuple:
    """The distinct primes dividing n, by trial division, O(sqrt n)."""
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    return (*primes, n) if n > 1 else tuple(primes)


@lru_cache(maxsize=1024)
def euler_phi(n: int) -> int:
    """phi(n) from the distinct primes of n, O(sqrt n); 0 for n < 1."""
    out = max(n, 0)
    for p in _prime_factors(n):
        out -= out // p
    return out


def check_order(M: int) -> int:
    """M, if it is at most MAX_CYCLOTOMIC_ORDER; inputs are checked before any
    work builds coefficient lists of length M."""
    if M > MAX_CYCLOTOMIC_ORDER:
        raise ScaleExceeded(f"cyclotomic order {M} exceeds bound {MAX_CYCLOTOMIC_ORDER}")
    return M


@lru_cache(maxsize=64)
def cyclotomic_poly(M: int) -> tuple:
    """Coefficients of Phi_M, lowest degree first, as ints.

    Phi_M(x) = Phi_R(x^(M/R)) for R = rad M, and Phi_R is the Moebius product
    prod_{e | R} (y^(R/e) - 1)^mu(e) over the ints: multiply by the binomials
    with mu(e) = 1 first, so that every division by one with mu(e) = -1 is exact.
    """
    primes = _prime_factors(M)
    R = prod(primes)
    p = [1]
    for r in (*range(0, len(primes) + 1, 2), *range(1, len(primes) + 1, 2)):
        for subset in combinations(primes, r):
            a = R // prod(subset)
            if r % 2 == 0:  # times y^a - 1
                q = [0] * a + p
                for i, c in enumerate(p):
                    q[i] -= c
            else:  # over y^a - 1: p_i = q_(i-a) - q_i
                q = [0] * (len(p) - a)
                for i in range(len(q)):
                    q[i] = (q[i - a] if i >= a else 0) - p[i]
            p = q
    spread = [0] * ((len(p) - 1) * (M // R) + 1)
    spread[::M // R] = p
    out = tuple(spread)
    if len(out) != euler_phi(M) + 1 or out[-1] != 1:
        raise AssertionError(f"Phi_{M} is not monic of degree phi({M})")
    return out


@lru_cache(maxsize=64)
def _phi_tail(M: int) -> tuple:
    """The nonzero terms (j, c) of x^phi - Phi_M, so that x^phi = sum c x^j mod Phi_M."""
    return tuple((j, -c) for j, c in enumerate(cyclotomic_poly(M)[:-1]) if c)


def _reduce(M: int, poly) -> list:
    """The phi(M) coefficients of poly(x) mod Phi_M, for a list of ints of any
    length."""
    phi = euler_phi(M)
    p = list(poly) + [0] * (phi - len(poly))
    h, sign = (M // 2, -1) if M % 2 == 0 else (M, 1)  # x^h = sign mod Phi_M
    for i in range(len(p) - 1, h - 1, -1):
        if p[i]:
            p[i - h] += sign * p[i]
    for i in range(min(len(p), h) - 1, phi - 1, -1):
        c = p[i]
        if c:
            for j, t in _phi_tail(M):
                p[i - phi + j] += c * t
    del p[phi:]
    return p


# -- integer numerators -------------------------------------------------------

def _nonzero(nums) -> list:
    """The nonzero numerators as [(i, n)]."""
    return [(i, n) for i, n in enumerate(nums) if n]


def _spread(terms, step: int, M: int) -> list:
    """The reduced integer numerators of sum n x^(i*step) in Q(zeta_M)."""
    poly = [0] * (terms[-1][0] * step + 1 if terms else 0)
    for i, n in terms:
        poly[i * step] = n
    return _reduce(M, poly)


def _cyclotomic(M: int, nums, d: int) -> "Cyclotomic":
    """The element sum (nums[i] / d) x^i of Q(zeta_M), for d > 0, normalised."""
    if d != 1:
        g = gcd(d, *nums)
        if g != 1:
            nums = [n // g for n in nums]
            d //= g
    return Cyclotomic(M, tuple(nums), d)


def _embedded(xs, M: int):
    """The nonzero (index, int) terms of each Cyclotomic of xs in Q(zeta_M),
    over one common denominator D, and D.  Every order must divide M."""
    D = lcm(*[x.den for x in xs])
    out = []
    for x in xs:
        terms = _nonzero(x.nums)
        if M != x.order:
            terms = _nonzero(_spread(terms, M // x.order, M))
        s = D // x.den
        out.append([(i, n * s) for i, n in terms] if s != 1 else terms)
    return out, D


def dot(pairs) -> "Cyclotomic":
    """sum a*b over the (a, b) pairs, in the lcm field of all their orders;
    the order-1 zero when there are no pairs.

    The left and the right operands are each embedded once, as int terms
    over one denominator, and the products are summed as one unreduced
    integer polynomial, reduced once.  A zero operand costs nothing."""
    if not pairs:
        return Cyclotomic.zero()
    M = lcm(*[x.order for pair in pairs for x in pair])
    left, ld = _embedded([a for a, _ in pairs], M)
    right, rd = _embedded([b for _, b in pairs], M)
    acc = [0] * max((at[-1][0] + bt[-1][0] + 1 for at, bt in zip(left, right) if at and bt),
                    default=0)
    for at, bt in zip(left, right):
        for i, a in at:
            for j, b in bt:
                acc[i + j] += a * b
    return _cyclotomic(M, _reduce(M, acc), ld * rd)


class Cyclotomic:
    """An element sum (nums[i] / den) x^i of Q(zeta_M), reduced modulo Phi_M.

    ``nums`` holds phi(M) ints and ``den`` is a positive int with
    gcd(den, *nums) == 1; zero is all zeros over 1.  So equality within one
    field is a tuple comparison; mixed-order operands are promoted to the lcm
    order first.  All values are immutable.
    """

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, nums: tuple, den: int):
        """nums and den are in the normal form above; they are not checked."""
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, val):
        raise AttributeError("Cyclotomic is immutable")

    # -- construction --------------------------------------------------

    @classmethod
    def from_rational(cls, x, order: int = 1) -> "Cyclotomic":
        """The int or Fraction x in Q(zeta_order)."""
        return cls(order, (x.numerator,) + (0,) * (euler_phi(order) - 1), x.denominator)

    @classmethod
    def zero(cls, order: int = 1) -> "Cyclotomic":
        return cls(order, (0,) * euler_phi(order), 1)

    @classmethod
    def one(cls, order: int = 1) -> "Cyclotomic":
        return cls.from_rational(1, order)

    @classmethod
    def zeta_power(cls, order: int, k: int) -> "Cyclotomic":
        """zeta_order^k, reduced."""
        return cls(order, tuple(_reduce(order, [0] * (k % order) + [1])), 1)

    # -- promotion ------------------------------------------------------

    def embed(self, new_order: int) -> "Cyclotomic":
        """Field embedding Q(zeta_M) -> Q(zeta_M') via zeta_M -> zeta_M'^(M'/M)."""
        if new_order % self.order != 0:
            raise IncompatibleOrders(f"{self.order} does not divide {new_order}")
        if new_order == self.order:
            return self
        spread = _spread(_nonzero(self.nums), new_order // self.order, new_order)
        return _cyclotomic(new_order, spread, self.den)

    def _common(self, other):
        if not isinstance(other, Cyclotomic):
            return self, Cyclotomic.from_rational(other, self.order)
        if self.order == other.order:
            return self, other
        M = lcm(self.order, other.order)
        return self.embed(M), other.embed(M)

    # -- arithmetic -----------------------------------------------------

    def _sum(self, other, sign: int):
        a, b = self._common(other)
        D = lcm(a.den, b.den)
        s, t = D // a.den, sign * (D // b.den)
        return _cyclotomic(a.order, [x * s + y * t for x, y in zip(a.nums, b.nums)], D)

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, tuple(-n for n in self.nums), self.den)

    def __mul__(self, other):
        """The product with a Cyclotomic, an int or a Fraction."""
        if isinstance(other, Cyclotomic):
            return dot([(self, other)])
        return _cyclotomic(self.order, [n * other.numerator for n in self.nums],
                           self.den * other.denominator)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """1/x: the product of the other Galois conjugates sigma_k(x), k a unit
        mod M, over the norm of x, which is rational.  Only tests reach it."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of 0 in a cyclotomic field")
        M, rest = self.order, Cyclotomic.one(self.order)
        for k in range(2, M):
            if gcd(k, M) == 1:  # sigma_k: zeta -> zeta^k
                poly = [0] * M
                for i, n in _nonzero(self.nums):
                    poly[i * k % M] = n
                rest = rest * _cyclotomic(M, _reduce(M, poly), self.den)
        norm = self * rest
        return rest * Fraction(norm.den, norm.nums[0])

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __eq__(self, other):
        if not isinstance(other, (Cyclotomic, int, Fraction)):
            return NotImplemented
        a, b = self._common(other)
        return a.nums == b.nums and a.den == b.den

    def __bool__(self):
        return any(self.nums)

    def __repr__(self):
        return f"Cyclotomic({self.order}, {[str(Fraction(n, self.den)) for n in self.nums]})"


# a pass of perfbench's reps workload asks for 58 distinct (M, k); a root of
# order M holds phi(M) ints
_zeta_power = lru_cache(maxsize=128)(Cyclotomic.zeta_power)


def root_of_unity(q, M: int | None = None) -> Cyclotomic:
    """e^{2 pi i q} for a Fraction q, as an element of Q(zeta_M); q must embed,
    i.e. M*q integral."""
    if M is None:
        M = q.denominator
    if (M * q).denominator != 1:
        raise DenominatorNotDividing(f"{M}*{q} is not an integer")
    return _zeta_power(M, int(M * q) % M)
