import random
from fractions import Fraction
from math import lcm

import pytest
import sympy

from orbipar.errors import DenominatorNotDividing, IncompatibleOrders
from orbipar.scalars import (Convention, Cyclotomic, FractionalWeight,
                             cyclotomic_poly, euler_phi, normalize_weight,
                             root_of_unity)

import helpers  # noqa: F401  (attaches Cyclotomic.multiplicative_order, is_one)


def test_cyclotomic_polynomials():
    # Phi_1 = x - 1, Phi_2 = x + 1, Phi_4 = x^2 + 1, Phi_12 = x^4 - x^2 + 1
    assert cyclotomic_poly(1) == (Fraction(-1), Fraction(1))
    assert cyclotomic_poly(2) == (Fraction(1), Fraction(1))
    assert cyclotomic_poly(4) == (Fraction(1), Fraction(0), Fraction(1))
    assert cyclotomic_poly(12) == tuple(Fraction(c) for c in (1, 0, -1, 0, 1))
    for M in range(1, 25):
        assert len(cyclotomic_poly(M)) == euler_phi(M) + 1


def test_root_of_unity_examples():
    assert root_of_unity(Fraction(0), 4).is_one()
    minus_one = root_of_unity(Fraction(1, 2), 4)
    assert (minus_one * minus_one).is_one() and not minus_one.is_one()
    # q = 1/3 in Q(zeta_12): multiplicative order 3, found by repeated product
    z = root_of_unity(Fraction(1, 3), 12)
    acc, order = z, 1
    while not acc.is_one():
        acc = acc * z
        order += 1
    assert order == 3
    assert z == Cyclotomic.zeta_power(12, 4)


def test_root_of_unity_requires_divisibility():
    with pytest.raises(DenominatorNotDividing):
        root_of_unity(Fraction(1, 3), 4)


def test_root_of_unity_multiplicative():
    qs = [Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(5, 6), Fraction(11, 12)]
    for a in qs:
        for b in qs:
            lhs = root_of_unity(a, 12) * root_of_unity(b, 12)
            assert lhs == root_of_unity((a + b) % 1, 12)


def test_multiplicative_order_equals_denominator():
    for den in (1, 2, 3, 4, 6, 8, 12):
        for num in range(den):
            q = Fraction(num, den)
            assert root_of_unity(q, 24).multiplicative_order() == q.denominator


def test_normalize_weight_examples():
    assert normalize_weight(Fraction(7, 3)).value == Fraction(1, 3)
    w = normalize_weight(Fraction(-1, 2), Convention.SIGNED)
    assert w.value == Fraction(-1, 2)
    assert normalize_weight(Fraction(5, 4), Convention.SIGNED).value == Fraction(1, 4)


def test_normalize_weight_idempotent_and_congruent():
    rng = random.Random(1)
    for _ in range(200):
        x = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        for conv in Convention:
            w = normalize_weight(x, conv)
            assert normalize_weight(w.value, conv).value == w.value
            assert (w.value - x).denominator == 1
            assert w.congruent(x)


def test_field_axioms_random():
    rng = random.Random(2)

    def rand(M):
        return Cyclotomic(M, [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                              for _ in range(euler_phi(M))])

    for M in (1, 2, 3, 4, 6, 8, 12):
        for _ in range(25):
            x, y, z = rand(M), rand(M), rand(M)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert (x + y) * z == x * z + y * z
            if not x.is_zero():
                assert (x * x.inverse()).is_one()


def test_embedding_examples():
    one = Cyclotomic.one(2)
    assert one.embed(6).is_one()
    minus = root_of_unity(Fraction(1, 2), 2)
    lifted = minus.embed(4)
    assert (lifted * lifted).is_one() and not lifted.is_one()
    assert lifted == Cyclotomic.zeta_power(4, 2)
    z3 = root_of_unity(Fraction(1, 3), 3)
    assert z3.embed(12).multiplicative_order() == 3
    with pytest.raises(IncompatibleOrders):
        z3.embed(8)


def test_embedding_commutes_with_comparison():
    rng = random.Random(3)
    for _ in range(50):
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(euler_phi(6))]
        x = Cyclotomic(6, coeffs)
        assert x.embed(12) == x


def test_mixed_order_arithmetic_promotes():
    a = root_of_unity(Fraction(1, 3), 3)
    b = root_of_unity(Fraction(1, 4), 4)
    assert a * b == root_of_unity(Fraction(7, 12), 12)
    assert lcm(3, 4) == 12


def test_weight_range_validation():
    with pytest.raises(Exception):
        FractionalWeight(Fraction(3, 2))
    with pytest.raises(Exception):
        FractionalWeight(Fraction(-1, 2))  # zero_one convention
    FractionalWeight(Fraction(-1, 2), Convention.SIGNED)


# -- sympy as an independent oracle for the reduction kernel -----------------

X = sympy.Symbol("x")


def test_euler_phi_matches_sympy():
    for n in range(1, 300):
        assert euler_phi(n) == sympy.totient(n), n
    for n in (4001, 10 ** 12, 999999999989):
        assert euler_phi(n) == sympy.totient(n), n


def test_cyclotomic_poly_matches_sympy():
    for M in [*range(1, 121), 2520, 5040, 30030]:
        expected = sympy.cyclotomic_poly(M, X, polys=True).all_coeffs()[::-1]
        assert cyclotomic_poly(M) == tuple(Fraction(int(c)) for c in expected), M


def _as_poly(coeffs):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(coeffs)], X, domain="QQ")


@pytest.mark.parametrize("M", [18, 64, 101, 218, 226])
def test_sparse_times_dense_matches_sympy_remainder(M):
    rng = random.Random(M)
    phi = euler_phi(M)
    modulus = sympy.Poly(sympy.cyclotomic_poly(M, X), X, domain="QQ")
    for _ in range(3):
        sparse = [Fraction(0)] * phi
        for i in rng.sample(range(phi), 3):
            sparse[i] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        dense = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(phi)]
        product = Cyclotomic(M, sparse) * Cyclotomic(M, dense)
        expected = (_as_poly(sparse) * _as_poly(dense)).rem(modulus).all_coeffs()[::-1]
        expected = [Fraction(int(c.p), int(c.q)) for c in expected]
        assert list(product.coeffs) == expected + [Fraction(0)] * (phi - len(expected))
