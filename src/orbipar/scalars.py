"""Exact scalar arithmetic: rationals, rationals mod 1, and cyclotomic fields.

Rationals are ``fractions.Fraction`` (always lowest terms, positive
denominator); ``rational`` reads them from ``p/q`` strings or ints, with
numerator and denominator below 10^MAX_RATIONAL_DIGITS.  Weights and exponents
mod 1 are plain Fractions: ``x % 1`` is the residue in [0,1), and
``signed_mod1`` the signed representative in (-1,1) that eigenvalue exponents
of Ad use.  ``Cyclotomic`` models Q(zeta_M) as Q[x]/(Phi_M(x)), so every
root of unity, and hence every eigenvalue of a finite-order group element, is
represented exactly and equality is a coefficient comparison.

A ``Cyclotomic`` stores its phi(M) coefficients as Fractions, but products
run on Python ints: each operand is written as its nonzero integer numerators
over the lcm of its denominators, ``dot`` sums the products of any number of
pairs as one unreduced integer polynomial over the lcm of their
denominators, and a Fraction is built once per nonzero output coefficient.
``CycMatrix.__matmul__`` uses the same ``dot`` for each output entry, so
every entry is reduced once.  Beyond ``rational``, which only ``jsonio`` and
the CLI's ``--twist`` call, nothing here parses or coerces: the arithmetic
takes ints, Fractions and Cyclotomics, and ``Cyclotomic(order, coeffs)``
stores a tuple of phi(order) Fractions as it is.

Every product, embedding and root of unity is an unreduced polynomial that
``_reduce`` brings to its phi(M) coefficients mod Phi_M.  It first folds the
degrees at or above M/2 (M even) or M (M odd) down by the sparse relation
x^(M/2) = -1, resp. x^M = 1, then divides by Phi_M from the top degree,
touching only the nonzero terms.  Memory stays O(M); phi(M) comes from a
cached factorisation.

Phi_M is built once per M over the ints, with no polynomial long division:
Phi_M(x) = Phi_R(x^(M/R)) for the radical R of M, and Phi_R is the Moebius
product of the binomials y^(R/e) - 1 over the divisors e of R, each a
multiplication or an exact division by a sparse binomial in O(R) steps.  The
orders an input asks for are capped at MAX_CYCLOTOMIC_ORDER before any
coefficient list of that length is built.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm, prod

from .errors import (DenominatorNotDividing, IncompatibleOrders, MalformedInput,
                     ScaleExceeded)

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
_ZERO = Fraction(0)
MAX_CYCLOTOMIC_ORDER = 2 ** 13  # working order of a series or a pseudorepresentation
MAX_RATIONAL_DIGITS = 64  # numerator and denominator of one input rational, and one input int
_DIGIT_BOUND = 10 ** MAX_RATIONAL_DIGITS


def rational(x) -> Fraction:
    """An input rational, from an int or a 'p/q' string.

    Strings must match [+-]?digits(/digits)?: no spaces, decimals or exponents,
    so a short string cannot ask Fraction() for a huge power of ten.  Numerator
    and denominator must stay below 10^MAX_RATIONAL_DIGITS, so that sums of
    the few rationals a request may carry print within Python's 4300 digits.
    """
    if not (isinstance(x, int) or isinstance(x, str) and _RATIONAL.fullmatch(x)):
        raise MalformedInput(f"bad rational {x!r}: expected p/q")
    try:
        q = Fraction(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedInput(f"bad rational {x!r}: {exc}") from None
    if abs(q.numerator) >= _DIGIT_BOUND or q.denominator >= _DIGIT_BOUND:
        raise ScaleExceeded(f"rational with more than {MAX_RATIONAL_DIGITS} digits "
                            f"in its numerator or denominator")
    return q


def signed_mod1(x: Fraction) -> Fraction:
    """The representative of x mod 1 with the sign of x.

    Nonnegative x lands in [0,1), negative x in (-1,0], matching the usual
    split of eigenvalue exponents into beta < 0 versus 0 <= beta < 1.
    """
    r = x % 1
    return r - 1 if x < 0 and r else r


# -- polynomial helpers over Fraction (dense, lowest degree first) ----------

def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    b_terms = [(j, bj) for j, bj in enumerate(b) if bj]
    for i, ai in enumerate(a):
        if ai:
            for j, bj in b_terms:
                out[i + j] += ai * bj
    return _poly_trim(out)


def _poly_divmod(a, b):
    """Division with remainder in Q[x]: a = q*b + r with deg r < deg b."""
    a = _poly_trim(list(a))
    b = _poly_trim(list(b))
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    inv_lead = 1 / b[-1]
    while len(a) >= len(b):
        shift = len(a) - len(b)
        coef = a[-1] * inv_lead
        if coef != 0:
            q[shift] = coef
            for i, bi in enumerate(b):
                a[shift + i] -= coef * bi
        a.pop()
    return _poly_trim(q), _poly_trim(a)


def _poly_sub(a, b):
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else Fraction(0)) - (b[i] if i < len(b) else Fraction(0))
           for i in range(n)]
    return _poly_trim(out)


def _poly_egcd_inverse(f, m):
    """Inverse of f modulo the monic polynomial m; m irreducible, f != 0 mod m."""
    # extended Euclid over Q[x], keeping s_i with s_i * f = r_i (mod m)
    r0, r1 = _poly_trim(list(m)), _poly_trim(list(f))
    s0, s1 = [], [Fraction(1)]
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
    if len(r0) != 1:
        raise AssertionError("gcd with an irreducible modulus must be constant")
    c = r0[0]
    return [x / c for x in s0]


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


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def cyclotomic_poly(M: int) -> tuple:
    """Coefficients of Phi_M, lowest degree first, as Fractions.

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
    out = tuple(Fraction(c) for c in spread)
    if len(out) != euler_phi(M) + 1 or out[-1] != 1:
        raise AssertionError(f"Phi_{M} is not monic of degree phi({M})")
    return out


@lru_cache(maxsize=None)
def _phi_tail(M: int) -> tuple:
    """The nonzero terms (j, c) of x^phi - Phi_M, so that x^phi = sum c x^j mod Phi_M.

    Phi_M has integer coefficients, so c is an int.
    """
    return tuple((j, -c.numerator) for j, c in enumerate(cyclotomic_poly(M)[:-1]) if c)


def _reduce(M: int, poly) -> list:
    """The phi(M) coefficients of poly(x) mod Phi_M, for a list of any length
    of ints or Fractions."""
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

def _terms(coeffs):
    """The nonzero coefficients as integer numerators [(i, n)] over their lcm d."""
    nonzero = [(i, c.numerator, c.denominator) for i, c in enumerate(coeffs) if c]
    d = lcm(*[den for _, _, den in nonzero])
    return [(i, n * (d // den)) for i, n, den in nonzero], d


def _spread(terms, step: int, M: int) -> list:
    """The reduced integer numerators of sum n x^(i*step) in Q(zeta_M)."""
    poly = [0] * (terms[-1][0] * step + 1 if terms else 0)
    for i, n in terms:
        poly[i * step] = n
    return _reduce(M, poly)


def _cyclotomic(M: int, numerators, d: int) -> "Cyclotomic":
    """The element sum (n_i / d) x^i of Q(zeta_M); one Fraction per nonzero n_i."""
    if d == 1:
        coeffs = tuple(Fraction(n) if n else _ZERO for n in numerators)
    else:
        coeffs = tuple(Fraction(n, d) if n else _ZERO for n in numerators)
    return Cyclotomic(M, coeffs)


def _embedded(x: "Cyclotomic", M: int, cache: dict):
    """The integer terms of x in Q(zeta_M), computed once per (x, M) in cache."""
    key = (id(x), M)
    found = cache.get(key)
    if found is None:
        terms, d = _terms(x.coeffs)
        if M != x.order:
            spread = _spread(terms, M // x.order, M)
            terms = [(i, n) for i, n in enumerate(spread) if n]
        found = cache[key] = terms, d
    return found


def dot(M: int, pairs, cache: dict | None = None) -> "Cyclotomic":
    """sum a*b over the (a, b) pairs, an element of Q(zeta_M).

    Every order must divide M.  The products are summed as one unreduced
    integer polynomial over the lcm of their denominators and reduced once.
    A zero operand costs nothing.  ``cache`` keeps each operand's embedding
    into Q(zeta_M) across calls; it is keyed by identity, so it must not
    outlive the operands.
    """
    if cache is None:
        cache = {}
    products = []
    for a, b in pairs:
        at, ad = _embedded(a, M, cache)
        bt, bd = _embedded(b, M, cache)
        if at and bt:
            products.append((at, bt, ad * bd))
    if not products:
        return Cyclotomic.zero(M)
    D = lcm(*[d for _, _, d in products])
    acc = [0] * (max(at[-1][0] + bt[-1][0] for at, bt, _ in products) + 1)
    for at, bt, d in products:
        s = D // d
        if s != 1:
            at = [(i, a * s) for i, a in at]
        for i, a in at:
            for j, b in bt:
                acc[i + j] += a * b
    return _cyclotomic(M, _reduce(M, acc), D)


class Cyclotomic:
    """An element of Q(zeta_M), stored reduced modulo Phi_M.

    The coefficient vector has length phi(M), so equality within one field is
    a tuple comparison; mixed-order operands are promoted to the lcm order
    first.  All values are immutable.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: tuple):
        """coeffs is a tuple of phi(order) Fractions; it is not checked."""
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, val):
        raise AttributeError("Cyclotomic is immutable")

    # -- construction --------------------------------------------------

    @classmethod
    def from_rational(cls, x, order: int = 1) -> "Cyclotomic":
        """The int or Fraction x in Q(zeta_order)."""
        return cls(order, (Fraction(x),) + (_ZERO,) * (euler_phi(order) - 1))

    @classmethod
    def zero(cls, order: int = 1) -> "Cyclotomic":
        return _zero(order)

    @classmethod
    def one(cls, order: int = 1) -> "Cyclotomic":
        return cls.from_rational(1, order)

    @classmethod
    def zeta_power(cls, order: int, k: int) -> "Cyclotomic":
        """zeta_order^k, reduced."""
        return _cyclotomic(order, _reduce(order, [0] * (k % order) + [1]), 1)

    # -- promotion ------------------------------------------------------

    def embed(self, new_order: int) -> "Cyclotomic":
        """Field embedding Q(zeta_M) -> Q(zeta_M') via zeta_M -> zeta_M'^(M'/M)."""
        if new_order % self.order != 0:
            raise IncompatibleOrders(f"{self.order} does not divide {new_order}")
        if new_order == self.order:
            return self
        terms, d = _terms(self.coeffs)
        return _cyclotomic(new_order, _spread(terms, new_order // self.order, new_order), d)

    def _common(self, other):
        if not isinstance(other, Cyclotomic):
            other = Cyclotomic.from_rational(other)
        if self.order == other.order:
            return self, other
        M = lcm(self.order, other.order)
        return self.embed(M), other.embed(M)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        a, b = self._common(other)
        return Cyclotomic(a.order, tuple(x + y if y else x for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, tuple(-x if x else x for x in self.coeffs))

    def __sub__(self, other):
        a, b = self._common(other)
        return Cyclotomic(a.order, tuple(x - y if y else x for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """The product with a Cyclotomic, an int or a Fraction."""
        if isinstance(other, Cyclotomic):
            return dot(lcm(self.order, other.order), [(self, other)])
        return Cyclotomic(self.order, tuple(c * other if c else _ZERO for c in self.coeffs))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        if self.is_zero():
            raise ZeroDivisionError("inverse of 0 in a cyclotomic field")
        inv = _poly_egcd_inverse(list(self.coeffs), list(cyclotomic_poly(self.order)))
        return Cyclotomic(self.order, tuple(Fraction(c) if c else _ZERO
                                            for c in _reduce(self.order, inv)))

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, (Cyclotomic, int, Fraction)):
            return NotImplemented
        a, b = self._common(other)
        return a.coeffs == b.coeffs

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"Cyclotomic({self.order}, {[str(c) for c in self.coeffs]})"


@lru_cache(maxsize=64)
def _zero(order: int) -> Cyclotomic:
    return Cyclotomic(order, (_ZERO,) * euler_phi(order))


_ROOT_CACHE: dict[tuple, Cyclotomic] = {}


def root_of_unity(q, M: int | None = None) -> Cyclotomic:
    """e^{2 pi i q} for a Fraction q, as an element of Q(zeta_M); q must embed,
    i.e. M*q integral."""
    if M is None:
        M = q.denominator
    if (M * q).denominator != 1:
        raise DenominatorNotDividing(f"{M}*{q} is not an integer")
    k = int(M * q) % M
    key = (M, k)
    if key not in _ROOT_CACHE:
        _ROOT_CACHE[key] = Cyclotomic.zeta_power(M, k)
    return _ROOT_CACHE[key]
