"""Plain-Python cyclotomic arithmetic for input generation and output oracles.

An element of Q(zeta_M) is a list of phi(M) Fractions in the power basis
1, x, ..., x^(phi-1) of Q[x]/(Phi_M).  This is deliberately independent of
``orbipar.scalars``: Phi_M is built over the integers and reduction is plain
long division, so an oracle that uses it does not go through the layer whose
output it checks.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd


def lcm(*values):
    out = 1
    for v in values:
        out = out * v // gcd(out, v)
    return out


@lru_cache(maxsize=None)
def phi(n):
    out, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(M):
    """Integer coefficients of Phi_M, lowest degree first."""
    num = [-1] + [0] * (M - 1) + [1]
    for d in range(1, M):
        if M % d == 0:
            num = _exact_div(num, cyclotomic_poly(d))
    return tuple(num)


def _exact_div(a, b):
    """a / b for a monic integer divisor b that divides a exactly."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for shift in range(len(a) - len(b), -1, -1):
        c = a[shift + len(b) - 1]
        q[shift] = c
        if c:
            for i, bi in enumerate(b):
                a[shift + i] -= c * bi
    if any(a):
        raise ArithmeticError("inexact cyclotomic division")
    return q


@lru_cache(maxsize=None)
def monomial(M, k):
    """x^k mod Phi_M as a tuple of phi(M) integers."""
    k %= M
    mod = cyclotomic_poly(M)
    n = len(mod) - 1
    vec = [0] * max(k + 1, n)
    vec[k] = 1
    for top in range(len(vec) - 1, n - 1, -1):
        c = vec[top]
        if c:
            for i, mi in enumerate(mod):
                vec[top - n + i] -= c * mi
    return tuple(vec[:n])


def root(M, k, scale=1):
    """scale * zeta_M^k as a coefficient list."""
    return [Fraction(scale) * c for c in monomial(M, k)]


def embed(vec, M, M2):
    """Image of vec under Q(zeta_M) -> Q(zeta_M2), zeta_M -> zeta_M2^(M2/M)."""
    if M2 % M:
        raise ValueError(f"{M} does not divide {M2}")
    step = M2 // M
    out = [Fraction(0)] * phi(M2)
    for i, c in enumerate(vec):
        if c:
            for j, r in enumerate(monomial(M2, i * step)):
                if r:
                    out[j] += c * r
    return out


def to_json(M, vec):
    return {"order": M, "coeffs": [str(Fraction(c)) for c in vec]}


def from_json(data):
    """(order, coefficient list) of a cyclotomic JSON value or plain rational."""
    if isinstance(data, (str, int)):
        return 1, [Fraction(data)]
    return data["order"], [Fraction(c) for c in data["coeffs"]]


def json_equal(a, b, scale=1):
    """Whether the cyclotomic JSON values a and scale * b are equal as numbers."""
    (Ma, va), (Mb, vb) = from_json(a), from_json(b)
    M = lcm(Ma, Mb)
    return embed(va, Ma, M) == [scale * c for c in embed(vb, Mb, M)]
