import random
from fractions import Fraction
from math import comb, gcd, lcm

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from orbipar.cocycles import Cochain2, FiniteAbelianGroup, Verdict, zeta
from orbipar.errors import (IsotropyMismatch, MalformedInput, NotAHomomorphism,
                            NotAPseudoRep, ScaleExceeded, SizeMismatch)
from orbipar.matrices import CycMatrix
from orbipar.pseudoreps import (PseudoRep, PseudoRepClass, QuotientClass,
                                classify,
                                deck_transport, enumerate_classes,
                                project_mod_center,
                                verify_pseudorep)
from orbipar.scalars import Cyclotomic, root_of_unity

from orbipar import jsonio

from helpers import (charpoly_classify, exhaustive_project, exhaustive_verify,
                     fraction_class_check, fraction_enumerate_classes, fraction_project,
                     induced_cocycle, matrix, random_cochain, random_invertible,
                     random_pseudorep)

Z2 = FiniteAbelianGroup([2])
Z3 = FiniteAbelianGroup([3])

I4 = root_of_unity(Fraction(1, 4), 4)
MINUS_I4 = root_of_unity(Fraction(3, 4), 4)


def neg_cocycle():
    return Cochain2(Z2, 2, [[0, 0], [0, 1]])


def diag_pseudorep():
    return PseudoRep.from_generator(neg_cocycle(), CycMatrix.diagonal([I4, MINUS_I4]))


def test_verify_examples():
    triv = Cochain2.trivial(Z2, 1)
    assert verify_pseudorep(PseudoRep(triv, [CycMatrix.identity(2)] * 2)).ok
    assert verify_pseudorep(diag_pseudorep()).ok
    bad = PseudoRep(Cochain2.trivial(Z2, 2),
                    [CycMatrix.identity(2), CycMatrix.diagonal([I4, 1])])
    verdict = verify_pseudorep(bad)
    assert not verdict.ok and verdict.witness is not None


def generator_row_pseudorep(rng, n, m, r):
    """Images built along the generator row of a random cochain, usually not a
    cocycle, with sigma(g)^n = e^{2 pi i T_n/m} so that the whole row holds."""
    c = random_cochain(rng, [n], m)
    z = Fraction(sum(c.table[1 % n]) % m, m)
    exps = [(z + rng.randrange(n)) / n for _ in range(r)]
    g = random_invertible(rng, r)
    diag = CycMatrix.diagonal([root_of_unity(q) for q in exps])
    return PseudoRep.from_generator(c, g.inverse() @ diag @ g)


def perturbed(rng, sigma):
    """sigma with one entry of one image moved by a nonzero integer."""
    images = list(sigma.images)
    k, i, j = rng.randrange(sigma.order), rng.randrange(sigma.size), rng.randrange(sigma.size)
    rows = [list(row) for row in images[k].rows]
    rows[i][j] = rows[i][j] + rng.choice([-2, -1, 1, 2])
    images[k] = CycMatrix(rows)
    return PseudoRep(sigma.cochain, images)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 6), m=st.integers(1, 4),
       r=st.integers(1, 3), kind=st.sampled_from(["valid", "perturbed", "generator_row",
                                                   "foreign_cochain"]))
def test_verify_matches_exhaustive_oracle(seed, n, m, r, kind):
    rng = random.Random(seed)
    if kind == "generator_row":
        sigma = generator_row_pseudorep(rng, n, m, r)
    else:
        sigma = random_pseudorep(rng, n, m, r)
    if kind == "perturbed":
        sigma = perturbed(rng, sigma)
    if kind == "foreign_cochain":
        sigma = PseudoRep(random_cochain(rng, [n], m), sigma.images)
    assert verify_pseudorep(sigma) == exhaustive_verify(sigma)


def test_verify_witness_past_a_passing_generator_row():
    # c(2, 2) = -1 on Z/3 is no cocycle; every product of the generator row holds
    table = [[0, 0, 0], [0, 0, 0], [0, 0, 1]]
    sigma = PseudoRep(Cochain2(Z3, 2, table), [matrix([[1]])] * 3)
    report = Verdict(False, ((2,), (2,)))
    assert verify_pseudorep(sigma) == exhaustive_verify(sigma) == report


def in_mixed_fields(rng, sigma, identity_order):
    """sigma conjugated by a rational diagonal matrix, so that its entries carry
    differing denominators, with about a third of the entries of sigma(g^j),
    j > 0, re-embedded into twice or three times their order, and sigma(1)
    written at identity_order ("L", the lcm of m and every entry order, or 1)."""
    d = CycMatrix.diagonal([Fraction(rng.randint(1, 6), rng.randint(1, 6))
                            for _ in range(sigma.size)])
    images = [CycMatrix([[x.embed(x.order * rng.choice([2, 3])) if rng.random() < 0.3 else x
                          for x in row] for row in im.rows])
              for im in sigma.conjugate(d).images[1:]]
    L = lcm(sigma.cochain.coeff_order, *(x.order for im in images for row in im.rows for x in row))
    M = L if identity_order == "L" else 1
    one = CycMatrix([[Cyclotomic.one(M) if i == j else Cyclotomic.zero(M)
                      for j in range(sigma.size)] for i in range(sigma.size)])
    return PseudoRep(sigma.cochain, [one] + images)


def with_image(sigma, k, image):
    images = list(sigma.images)
    images[k] = image
    return PseudoRep(sigma.cochain, images)


def spoiled(rng, sigma, how):
    """sigma with one image changed: an entry moved by a nonzero rational, an entry
    multiplied by a primitive d-th root of unity, or the image times zeta_m."""
    k = rng.randrange(sigma.order)
    rows = [list(row) for row in sigma.images[k].rows]
    if how == "rational":
        i, j = rng.randrange(sigma.size), rng.randrange(sigma.size)
        rows[i][j] = rows[i][j] + Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 5))
    elif how == "root":  # an image is invertible, so it has a nonzero entry
        i, j = rng.choice([(a, b) for a, row in enumerate(rows) for b, x in enumerate(row) if x])
        d = rng.choice([2, 3, 4, 5, 6])
        q = Fraction(rng.choice([t for t in range(1, d) if gcd(t, d) == 1]), d)
        rows[i][j] = rows[i][j] * root_of_unity(q)
    else:
        m = sigma.cochain.coeff_order
        return with_image(sigma, k, sigma.images[k].scale(root_of_unity(Fraction(1, m), m)))
    return with_image(sigma, k, CycMatrix(rows))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 8), m=st.integers(1, 6),
       r=st.integers(1, 4), identity_order=st.sampled_from(["L", "1"]),
       how=st.sampled_from(["none", "rational", "root", "zeta_m"]))
def test_verify_in_mixed_fields_matches_exhaustive_oracle(seed, n, m, r, identity_order, how):
    # the generator row is checked in one field Q(zeta_L): entries of any order and
    # denominator must embed exactly, and zeta_m^c must act as a shift of +c L/m
    rng = random.Random(seed)
    sigma = in_mixed_fields(rng, random_pseudorep(rng, n, m, r), identity_order)
    assert verify_pseudorep(sigma).ok
    if how != "none":
        sigma = spoiled(rng, sigma, how)
    assert verify_pseudorep(sigma) == exhaustive_verify(sigma)


def test_verify_builds_no_matrix_product(monkeypatch):
    # perfbench's costliest verify shape (n, m, rank, k) = (6, 3, 4, 1): a dense
    # rank-4 pseudorep over Q(zeta_18) for 1 times the carry cocycle, so zeta = 1/3
    n, m = 6, 3
    carry = Cochain2(FiniteAbelianGroup([n]), m, [[(a + b) // n for b in range(n)]
                                                  for a in range(n)])
    exps = [Fraction(1, 18), Fraction(2, 9), Fraction(7, 18), Fraction(8, 9)]
    upper = matrix([[1, 2, -1, 3], [0, 1, 2, -1], [0, 0, 1, 2], [0, 0, 0, 1]])
    lower = matrix([[1, 0, 0, 0], [2, 1, 0, 0], [-1, 3, 1, 0], [1, -2, 2, 1]])
    h = upper @ lower  # unimodular and dense
    diag = CycMatrix.diagonal([root_of_unity(q) for q in exps])
    sigma = PseudoRep.from_generator(carry, h.inverse() @ diag @ h)
    rows = [list(row) for row in sigma.images[3].rows]
    rows[2][1] = rows[2][1] + 1
    bad = with_image(sigma, 3, CycMatrix(rows))
    expected = exhaustive_verify(bad)
    assert not expected.ok and {x.order for im in sigma.images[1:]
                                for row in im.rows for x in row} == {18}

    def refuse(*args):
        raise AssertionError("a matrix product or scaling on the verify path")

    monkeypatch.setattr(CycMatrix, "__matmul__", refuse)
    monkeypatch.setattr(CycMatrix, "scale", refuse)
    assert verify_pseudorep(sigma) == Verdict(True, None)
    assert verify_pseudorep(bad) == expected


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 8), m=st.integers(1, 6),
       r=st.integers(1, 4))
def test_classify_matches_charpoly_oracle(seed, n, m, r):
    # random_pseudorep conjugates a diagonal generator image by a random integer matrix
    sigma = random_pseudorep(random.Random(seed), n, m, r)
    assert classify(sigma) == charpoly_classify(sigma)


def test_size_mismatch():
    with pytest.raises(SizeMismatch):
        PseudoRep(Cochain2.trivial(Z2, 1),
                  [CycMatrix.identity(2), CycMatrix.identity(3)])


def test_classify_examples():
    triv = Cochain2.trivial(Z2, 1)
    cls0 = classify(PseudoRep(triv, [CycMatrix.identity(2)] * 2))
    assert cls0.exponents == (0, 0)

    z3 = root_of_unity(Fraction(1, 3), 3)
    sig = PseudoRep.from_generator(Cochain2.trivial(Z3, 1),
                                   CycMatrix.diagonal([z3, z3 * z3]))
    assert classify(sig).exponents == (Fraction(2, 3), Fraction(1, 3))

    cls = classify(diag_pseudorep())
    assert cls.exponents == (Fraction(3, 4), Fraction(1, 4))
    assert cls.zeta == Fraction(1, 2)


def test_classify_rejects_invalid():
    bad = PseudoRep(Cochain2.trivial(Z2, 2),
                    [CycMatrix.identity(2), CycMatrix.diagonal([I4, 1])])
    with pytest.raises(NotAPseudoRep):
        classify(bad)


def test_power_identity_random():
    # sigma(gen)^n = zeta * Id, zeta from the cocycle product formula
    rng = random.Random(8)
    for _ in range(40):
        n = rng.choice([2, 3, 4, 5, 6])
        m = rng.choice([1, 2, 3, 4])
        r = rng.choice([1, 2, 3])
        sigma = random_pseudorep(rng, n, m, r)
        assert verify_pseudorep(sigma).ok
        z = zeta(sigma.cochain, (1,))
        power = sigma.image((1,)) ** n
        assert power == CycMatrix.scalar(r, root_of_unity(z))


def test_classify_conjugation_invariant():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.choice([2, 3, 4])
        sigma = random_pseudorep(rng, n, rng.choice([1, 2]), rng.choice([1, 2, 3]))
        cls = classify(sigma)
        g = random_invertible(rng, sigma.size)
        assert classify(sigma.conjugate(g)).exponents == cls.exponents


def test_enumerate_classes_examples():
    assert len(enumerate_classes(3, 2, Fraction(0), "gl")) == 6
    cl = enumerate_classes(2, 1, Fraction(0), "gl")
    assert [c.exponents for c in cl] == [(Fraction(0),), (Fraction(1, 2),)]
    cl3 = enumerate_classes(3, 2, Fraction(1, 3), "gl")
    assert len(cl3) == 6
    exps = {q for c in cl3 for q in c.exponents}
    assert exps == {Fraction(1, 9), Fraction(4, 9), Fraction(7, 9)}


def test_enumerate_classes_counts():
    for n in (2, 3, 4):
        for r in (1, 2, 3):
            assert len(enumerate_classes(n, r, Fraction(0), "gl")) == comb(n + r - 1, r)


def test_enumerate_classes_sl_filter():
    for c in enumerate_classes(4, 2, Fraction(0), "sl"):
        assert sum(c.exponents).denominator == 1


def test_enumerate_scale():
    with pytest.raises(ScaleExceeded):
        enumerate_classes(13, 2, Fraction(0), "gl")


def test_class_validation():
    with pytest.raises(Exception):
        PseudoRepClass(2, Fraction(0), (Fraction(1, 3),))


def test_class_range_validation():
    # 2q - z is integral in each case, so only the range check rejects
    for z, exps in [(0, (Fraction(3, 2),)), (0, (Fraction(-1, 2),)), (1, (Fraction(0),))]:
        with pytest.raises(MalformedInput, match=r"outside \[0,1\)"):
            PseudoRepClass(2, Fraction(z), exps)
    PseudoRepClass(2, Fraction(0), (Fraction(1, 2),))


def test_deck_transport():
    rng = random.Random(10)
    ambient = FiniteAbelianGroup([6])
    sigma = random_pseudorep(rng, 3, 2, 2)
    moved = deck_transport(sigma, (5,), ambient, (2,))
    # conjugation in an abelian group fixes the pseudorep pointwise
    assert all(a == b for a, b in zip(moved.images, sigma.images))
    back = deck_transport(moved, (1,), ambient, (2,))
    assert all(a == b for a, b in zip(back.images, sigma.images))
    assert classify(moved).exponents == classify(sigma).exponents
    with pytest.raises(IsotropyMismatch):
        deck_transport(sigma, (1,), ambient, (1,))  # wrong generator order


def test_projected_class_independent_of_transport_element():
    # the induced quotient class does not depend on the deck transformation
    rng = random.Random(30)
    ambient = FiniteAbelianGroup([6])
    for _ in range(10):
        sigma = random_pseudorep(rng, 3, 2, 2)
        baseline = None
        for gamma0 in ambient.elements:
            moved = deck_transport(sigma, gamma0, ambient, (2,))
            q = project_mod_center(classify(moved), 2)
            if baseline is None:
                baseline = q
            assert q == baseline


def test_classify_then_alcove_is_conjugation_invariant():
    from orbipar.liemodel import GroupModel, alcove_normalize
    rng = random.Random(31)
    for _ in range(10):
        sigma = random_pseudorep(rng, 4, 2, 2)
        model = GroupModel("gl", r=2)
        w1 = alcove_normalize(model, classify(sigma).exponents)
        g = random_invertible(rng, 2)
        w2 = alcove_normalize(model, classify(sigma.conjugate(g)).exponents)
        assert w1.entries == w2.entries


def test_project_mod_center_examples():
    zero = Fraction(0)
    c00 = PseudoRepClass(2, zero, (zero, zero))
    half = Fraction(1, 2)
    c_halves = PseudoRepClass(2, zero, (half, half))
    assert project_mod_center(c00, 2) == project_mod_center(c_halves, 2)
    c34 = PseudoRepClass(2, half, (Fraction(3, 4), Fraction(1, 4)))
    q = project_mod_center(c34, 2)
    assert q.exponents == (Fraction(3, 4), Fraction(1, 4))
    assert project_mod_center(c34, 1).exponents == c34.exponents


@settings(max_examples=100, deadline=None)
@given(exps=st.lists(st.tuples(st.integers(0, 23), st.integers(1, 24)), max_size=4),
       m=st.integers(1, 30))
def test_project_matches_exhaustive_oracle(exps, m):
    values = sorted((Fraction(a % b, b) for a, b in exps), reverse=True)
    cls = QuotientClass(1, tuple(values))
    assert project_mod_center(cls, m) == exhaustive_project(cls, m)


# (n, r) with n * r <= MAX_ENUMERATION, and zeta = a/b with b <= 12
SIZES = st.integers(1, 24).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, 24 // n)))
ZETAS = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


@settings(max_examples=100, deadline=None)
@given(size=SIZES, z=ZETAS, kind=st.sampled_from(["gl", "sl"]))
def test_enumerate_classes_matches_fraction_oracle(size, z, kind):
    n, r = size
    classes = enumerate_classes(n, r, z, kind)
    assert classes == fraction_enumerate_classes(n, r, z, kind)  # same list, same order
    assert all(type(q) is Fraction for c in classes for q in (c.zeta, *c.exponents))


@st.composite
def wire_classes(draw):
    """A class read by rep_class_from_json, from exponents (zeta + j)/n written
    unreduced and off [0,1) by whole turns, so their denominators are n b."""
    n = draw(st.integers(1, 12))
    a, b = draw(st.integers(-30, 30)), draw(st.integers(1, 12))
    js = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=24 // n))
    turns = draw(st.lists(st.integers(-2, 2), min_size=len(js), max_size=len(js)))
    z = Fraction(a, b) % 1
    exps = sorted(((z + j) / n for j in js), reverse=True)
    return jsonio.rep_class_from_json({
        "order": n, "zeta": f"{a}/{b}",
        "exponents": [f"{(q + t).numerator * b}/{(q + t).denominator * b}"
                      for q, t in zip(exps, turns)]})


@st.composite
def enumerated_classes(draw):
    (n, r), z = draw(SIZES), draw(ZETAS)
    classes = enumerate_classes(n, r, z, draw(st.sampled_from(["gl", "sl"])))
    assume(classes)  # an sl enumeration can be empty
    return draw(st.sampled_from(classes))


@settings(max_examples=150, deadline=None)
@given(cls=st.one_of(wire_classes(), enumerated_classes()), m=st.integers(1, 60))
def test_project_matches_fraction_and_exhaustive_oracles(cls, m):
    out = project_mod_center(cls, m)
    assert out == fraction_project(cls, m) == exhaustive_project(cls, m)
    assert all(type(q) is Fraction for q in out.exponents)


def test_project_of_wire_classes_off_the_scalar_grid():
    # denominators 9 and 12 do not divide m; -4/18 and 13/9 read as 7/9 and 4/9
    cls = jsonio.rep_class_from_json({"order": 3, "zeta": "1/3",
                                      "exponents": ["-4/18", "13/9", "1/9"]})
    assert cls.exponents == (Fraction(7, 9), Fraction(4, 9), Fraction(1, 9))
    for m in (2, 4, 7, 60):
        assert project_mod_center(cls, m) == fraction_project(cls, m) == exhaustive_project(cls, m)
    cls = jsonio.rep_class_from_json({"order": 4, "zeta": "1/3", "exponents": ["19/12", "1/12"]})
    for m, best in [(2, (Fraction(7, 12), Fraction(1, 12))),
                    (7, (Fraction(43, 84), Fraction(1, 84)))]:
        assert project_mod_center(cls, m).exponents == best == exhaustive_project(cls, m).exponents


FRACTIONS = st.builds(Fraction, st.integers(-3, 30), st.integers(1, 24))


@settings(max_examples=150, deadline=None)
@given(order=st.integers(1, 12), z=FRACTIONS, exps=st.lists(FRACTIONS, max_size=5),
       js=st.lists(st.integers(0, 11), max_size=5), sort=st.booleans())
def test_class_checks_match_fraction_oracle(order, z, exps, js, sort):
    # exponents (z + j)/order pass the lambda check whenever z is in range
    exps = exps + [(z + j) / order for j in js]
    if sort:
        exps.sort(reverse=True)
    try:
        fraction_class_check(order, z, exps)
    except MalformedInput as exc:
        with pytest.raises(MalformedInput) as got:
            PseudoRepClass(order, z, tuple(exps))
        assert str(got.value) == str(exc)
    else:
        assert PseudoRepClass(order, z, tuple(exps)).exponents == tuple(exps)


def test_induced_cocycle_examples():
    c = Cochain2(Z2, 4, [[0, 0], [0, 1]])  # c(g,g) = i
    out = induced_cocycle(c, 4, 2)  # z -> z^2
    assert out.value((1,), (1,)) == 2
    assert induced_cocycle(c, 4, 1) == c
    assert not np.asarray(induced_cocycle(c, 1, 0).table).any()
    with pytest.raises(NotAHomomorphism):
        induced_cocycle(c, 3, 1)  # mu_4 -> mu_3 sending zeta4 to zeta3


def test_induced_cocycle_of_coboundary_is_coboundary():
    from orbipar.cocycles import are_cohomologous, coboundary
    rng = random.Random(11)
    for _ in range(20):
        n = rng.choice([2, 3, 4])
        f = [0] + [rng.randrange(4) for _ in range(n - 1)]
        g = FiniteAbelianGroup([n])
        cb = coboundary(g, 4, f)
        pushed = induced_cocycle(cb, 2, 1)  # mu_4 ->> mu_2
        ok, _ = are_cohomologous(pushed, Cochain2.trivial(g, 2))
        assert ok
