"""The integer-numerator product kernel against the per-term Fraction oracle
in helpers, against sympy, and for the invariants of its internal results:
every operation keeps the stored form canonical, and the hot paths build no
Fraction."""

import random
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from orbipar.cli import run_command
from orbipar.jsonio import cyclotomic_from_json, cyclotomic_to_json
from orbipar.matrices import CycMatrix
from orbipar.scalars import Cyclotomic, _embedded, dot, euler_phi

from helpers import cyclotomic, fraction_embed, fraction_matmul, fraction_product

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

ORDERS = (1, 2, 3, 4, 6, 9, 12, 18, 36, 101, 218)
# each field with the listed orders that embed in it, so mixed-order products
# stay in fields of at most 218
SUBFIELDS = {M: tuple(d for d in ORDERS if M % d == 0) for M in ORDERS}
FRACTIONS = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 1, 2, 3, 4, 7, 12]))


@st.composite
def cyclotomics(draw, orders=ORDERS, dense_up_to=None):
    """Zero, a sparse q*x^k monomial, q*zeta^k, up to three terms, or dense."""
    M = draw(st.sampled_from(orders))
    phi = euler_phi(M)
    kinds = ["zero", "monomial", "root", "sparse"]
    if dense_up_to is None or phi <= dense_up_to:
        kinds.append("dense")
    kind = draw(st.sampled_from(kinds))
    coeffs = [Fraction(0)] * phi
    if kind == "dense":
        coeffs = draw(st.lists(FRACTIONS, min_size=phi, max_size=phi))
    elif kind == "root":
        q = draw(FRACTIONS.filter(bool))
        return Cyclotomic.zeta_power(M, draw(st.integers(0, M - 1))) * q
    elif kind != "zero":
        count = 1 if kind == "monomial" else draw(st.integers(1, 3))
        for i in draw(st.lists(st.integers(0, phi - 1), min_size=count, max_size=count)):
            coeffs[i] = draw(FRACTIONS)
    return cyclotomic(M, coeffs)


@st.composite
def scalar_pairs(draw):
    M = draw(st.sampled_from(ORDERS))
    return draw(cyclotomics(SUBFIELDS[M])), draw(cyclotomics(SUBFIELDS[M]))


@st.composite
def matrix_pairs(draw):
    M = draw(st.sampled_from(ORDERS))
    r = draw(st.integers(1, 4))
    entries = cyclotomics(SUBFIELDS[M], dense_up_to=12)
    grid = st.lists(st.lists(entries, min_size=r, max_size=r), min_size=r, max_size=r)
    return CycMatrix(draw(grid)), CycMatrix(draw(grid))


def same(x: Cyclotomic, y: Cyclotomic) -> bool:
    """Equal as stored: the same order and the same coefficient tuple."""
    return (x.order, x.coeffs) == (y.order, y.coeffs)


def all_fractions(x: Cyclotomic) -> bool:
    return (isinstance(x.coeffs, tuple) and len(x.coeffs) == euler_phi(x.order)
            and all(type(c) is Fraction for c in x.coeffs))


@settings(max_examples=120, deadline=None)
@given(pair=scalar_pairs())
def test_product_matches_fraction_oracle(pair):
    a, b = pair
    got = a * b
    assert same(got, fraction_product(a, b)) and all_fractions(got)
    L = lcm(a.order, b.order)
    assert same(a.embed(L), cyclotomic(L, fraction_embed(a, L)))


@settings(max_examples=60, deadline=None)
@given(pair=matrix_pairs())
def test_matmul_matches_fraction_oracle(pair):
    A, B = pair
    got, expected = A @ B, fraction_matmul(A, B)
    for row, exp_row in zip(got.rows, expected.rows):
        for x, y in zip(row, exp_row):
            assert same(x, y) and all_fractions(x)


X = sympy.Symbol("x")


def _sympy(x: Cyclotomic, M: int):
    coeffs = fraction_embed(x, M)
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)],
                      X, domain="QQ")


@pytest.mark.parametrize("M", [12, 36, 101, 218])
def test_matmul_matches_sympy_remainder(M):
    rng = random.Random(M)
    phi = euler_phi(M)
    modulus = sympy.Poly(sympy.cyclotomic_poly(M, X), X, domain="QQ")

    def entry():
        coeffs = [Fraction(0)] * phi
        for i in rng.sample(range(phi), min(phi, rng.choice([0, 1, 3, phi]))):
            coeffs[i] = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        return cyclotomic(M, coeffs)

    A = CycMatrix([[entry() for _ in range(3)] for _ in range(3)])
    B = CycMatrix([[entry() for _ in range(3)] for _ in range(3)])
    C = A @ B
    for i in range(3):
        for j in range(3):
            total = sum((_sympy(A.rows[i][k], M) * _sympy(B.rows[k][j], M) for k in range(3)),
                        sympy.Poly(0, X, domain="QQ"))
            expected = total.rem(modulus).all_coeffs()[::-1]
            expected = [Fraction(int(c.p), int(c.q)) for c in expected]
            expected += [Fraction(0)] * (phi - len(expected))
            assert list(C.rows[i][j].embed(M).coeffs) == expected


def test_internal_results_keep_the_constructor_invariants(monkeypatch):
    built = []
    init = Cyclotomic.__init__

    def recording_init(self, order, nums, den):
        init(self, order, nums, den)
        built.append(self)

    monkeypatch.setattr(Cyclotomic, "__init__", recording_init)
    rng = random.Random(5)
    for M in (1, 4, 6, 9, 12, 36):
        x = cyclotomic(M, [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                           for _ in range(euler_phi(M))])
        y = Cyclotomic.zeta_power(M, 5) + Cyclotomic.from_rational(Fraction(1, 3), M)
        z = Cyclotomic.zeta_power(M, 1)
        for value in (x * y, x + y, x - y, -x, x * 3, x / 2, x.embed(2 * M), y.inverse(),
                      y ** 3, y ** -2, Cyclotomic.zero(M), Cyclotomic.one(M), z * 0):
            assert isinstance(value, Cyclotomic)
        A = CycMatrix([[x, y], [z, Cyclotomic.zero()]])
        A.det(), A.trace(), A.charpoly(), A.scale(y), A @ A, A.inverse(), A ** 4
    assert run_command(["corpus", "run", str(CORPUS)])[0] == 0
    assert len(built) > 500
    bad = [x for x in built if not (type(x.order) is int and x.order >= 1 and all_fractions(x))]
    assert bad == []
    assert [x for x in built if not canonical(x)] == []


# -- the stored form: ints over one denominator, in lowest terms ---------------

def canonical(x: Cyclotomic) -> bool:
    return (type(x.nums) is tuple and len(x.nums) == euler_phi(x.order)
            and all(type(n) is int for n in x.nums) and type(x.den) is int and x.den > 0
            and gcd(x.den, *x.nums) == 1 and (any(x.nums) or x.den == 1))


def _sum_oracle(a, b, sign):
    L = lcm(a.order, b.order)
    return [u + sign * v for u, v in zip(fraction_embed(a, L), fraction_embed(b, L))]


SCALARS = st.one_of(st.integers(-12, 12), FRACTIONS)


@st.composite
def field_triples(draw):
    """Three elements whose orders divide one field of ORDERS up to 36, sparse
    past phi = 12; the Fraction oracles are slow in the larger fields."""
    M = draw(st.sampled_from([M for M in ORDERS if M <= 36]))
    elements = cyclotomics(SUBFIELDS[M], dense_up_to=12)
    return draw(elements), draw(elements), draw(elements)


@settings(max_examples=100, deadline=None)
@given(triple=field_triples(), k=SCALARS)
def test_every_operation_keeps_the_canonical_form(triple, k):
    a, b, extra = triple
    L = lcm(a.order, b.order)
    M = lcm(L, extra.order)
    built = [
        (a + b, _sum_oracle(a, b, 1)),
        (a - b, _sum_oracle(a, b, -1)),
        (a * b, list(fraction_product(a, b).coeffs)),
        (a * k, [c * k for c in a.coeffs]),
        (k * b, [c * k for c in b.coeffs]),
        (a.embed(M), fraction_embed(a, M)),
        (dot([(a, b), (extra, a)]),
         [u + v for u, v in zip(fraction_embed(fraction_product(a, b), M),
                                fraction_embed(fraction_product(extra, a), M))]),
    ]
    A = CycMatrix([[a, b], [extra, Cyclotomic.zero()]])
    B = CycMatrix([[b, extra], [a, a]])
    for got, expected in zip((A @ B).rows, fraction_matmul(A, B).rows):
        built += [(x, list(y.coeffs)) for x, y in zip(got, expected)]
    for got, x in zip(A.scale(b).rows, A.rows):
        built += [(y, list(fraction_product(b, z).coeffs)) for y, z in zip(got, x)]
    for x, expected in built:
        assert canonical(x) and list(x.coeffs) == expected
    for x, y in [(a, b), (a + b - b, a), (a * k, k * a), (a.embed(M), a), (a, extra)]:
        N = lcm(x.order, y.order)
        assert (x == y) == (fraction_embed(x, N) == fraction_embed(y, N))


@st.composite
def field_lists(draw, elements):
    """A field M of ORDERS and a list drawn from the elements strategy over
    cyclotomics of its subfields, sparse past phi = 12."""
    M = draw(st.sampled_from(ORDERS))
    x = cyclotomics(SUBFIELDS[M], dense_up_to=12)
    return M, draw(elements(x))


@settings(max_examples=100, deadline=None)
@given(field=field_lists(lambda x: st.lists(x, max_size=6)))
def test_one_embedding_writes_a_list_over_one_denominator(field):
    M, xs = field
    phi = euler_phi(M)
    terms, D = _embedded(xs, M)
    assert D == lcm(*[x.den for x in xs]) and len(terms) == len(xs)
    for x, t in zip(xs, terms):
        indices = [i for i, _ in t]
        assert indices == sorted(set(indices)) and all(0 <= i < phi for i in indices)
        assert all(type(n) is int and n for _, n in t)
        coeffs = [Fraction(0)] * phi
        for i, n in t:
            coeffs[i] = Fraction(n, D)
        assert coeffs == fraction_embed(x, M)


@settings(max_examples=100, deadline=None)
@given(field=field_lists(lambda x: st.lists(st.tuples(x, x), max_size=4)))
def test_dot_sums_in_the_lcm_field_of_its_operands(field):
    _, pairs = field
    L = lcm(*[x.order for pair in pairs for x in pair])
    expected = [Fraction(0)] * euler_phi(L)
    for a, b in pairs:
        expected = [u + v for u, v in zip(expected, fraction_embed(fraction_product(a, b), L))]
    got = dot(pairs)
    assert canonical(got) and got.order == L and list(got.coeffs) == expected


def test_int_paths_build_no_fractions(monkeypatch):
    rng = random.Random(12)
    texts = ["0", "0", "1", "-1", "1/2", "-2/3", "5/6", "3"]
    wire = [[{"order": 12, "coeffs": [rng.choice(texts) for _ in range(4)]} for _ in range(4)]
            for _ in range(4)]
    A = CycMatrix([[cyclotomic_from_json(x) for x in row] for row in wire])
    fresh = {"order": 12, "coeffs": ["987654321987/123456789123", "-0006/0004", "0", "7"]}
    A @ A, [cyclotomic_to_json(x) for row in (A @ A).rows for x in row]  # warm the caches
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    Fraction(1, 2)
    assert len(built) == 1  # the counter sees a Fraction being built
    C = A @ A
    encoded = [cyclotomic_to_json(x) for row in C.rows for x in row]
    parsed = cyclotomic_from_json(fresh), [cyclotomic_from_json(x) for row in wire for x in row]
    assert len(built) == 1
    monkeypatch.undo()
    assert C == fraction_matmul(A, A) and parsed[0].coeffs[1] == Fraction(-3, 2)
    assert [cyclotomic_from_json(x) for x in encoded] == [x for row in C.rows for x in row]
