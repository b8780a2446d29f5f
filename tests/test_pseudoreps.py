import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbipar.cocycles import Cochain2, CoefficientGroup, FiniteAbelianGroup, zeta
from orbipar.errors import (IsotropyMismatch, NotAHomomorphism, NotAPseudoRep,
                            ScaleExceeded, SizeMismatch)
from orbipar.matrices import CycMatrix
from orbipar.pseudoreps import (PseudoRep, PseudoRepClass, VerifyReport, classify,
                                deck_transport, enumerate_classes,
                                induced_cocycle, project_mod_center,
                                verify_pseudorep)
from orbipar.scalars import FractionalWeight, root_of_unity

from helpers import (charpoly_classify, exhaustive_verify, random_cochain,
                     random_invertible, random_pseudorep)

Z2 = FiniteAbelianGroup([2])
Z3 = FiniteAbelianGroup([3])

I4 = root_of_unity(Fraction(1, 4), 4)
MINUS_I4 = root_of_unity(Fraction(3, 4), 4)


def neg_cocycle():
    return Cochain2(Z2, CoefficientGroup(2), [[0, 0], [0, 1]])


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
    sigma = PseudoRep(Cochain2(Z3, CoefficientGroup(2), table), [CycMatrix([[1]])] * 3)
    report = VerifyReport(False, ((2,), (2,)))
    assert verify_pseudorep(sigma) == exhaustive_verify(sigma) == report


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
    assert cls0.exponent_values() == (0, 0)

    z3 = root_of_unity(Fraction(1, 3), 3)
    sig = PseudoRep.from_generator(Cochain2.trivial(Z3, 1),
                                   CycMatrix.diagonal([z3, z3 * z3]))
    assert classify(sig).exponent_values() == (Fraction(2, 3), Fraction(1, 3))

    cls = classify(diag_pseudorep())
    assert cls.exponent_values() == (Fraction(3, 4), Fraction(1, 4))
    assert cls.zeta.value == Fraction(1, 2)


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
        assert power == CycMatrix.scalar(r, root_of_unity(z.value))


def test_classify_conjugation_invariant():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.choice([2, 3, 4])
        sigma = random_pseudorep(rng, n, rng.choice([1, 2]), rng.choice([1, 2, 3]))
        cls = classify(sigma)
        g = random_invertible(rng, sigma.size)
        assert classify(sigma.conjugate(g)).exponent_values() == cls.exponent_values()


def test_enumerate_classes_examples():
    assert len(enumerate_classes(3, 2, 0, "gl")) == 6
    cl = enumerate_classes(2, 1, 0, "gl")
    assert [c.exponent_values() for c in cl] == [(Fraction(0),), (Fraction(1, 2),)]
    cl3 = enumerate_classes(3, 2, Fraction(1, 3), "gl")
    assert len(cl3) == 6
    exps = {q for c in cl3 for q in c.exponent_values()}
    assert exps == {Fraction(1, 9), Fraction(4, 9), Fraction(7, 9)}


def test_enumerate_classes_counts():
    for n in (2, 3, 4):
        for r in (1, 2, 3):
            assert len(enumerate_classes(n, r, 0, "gl")) == comb(n + r - 1, r)


def test_enumerate_classes_sl_filter():
    for c in enumerate_classes(4, 2, 0, "sl"):
        assert sum(c.exponent_values()).denominator == 1


def test_enumerate_scale():
    with pytest.raises(ScaleExceeded):
        enumerate_classes(13, 2, 0, "gl")


def test_class_validation():
    with pytest.raises(Exception):
        PseudoRepClass(2, FractionalWeight(Fraction(0)),
                       (FractionalWeight(Fraction(1, 3)),))


def test_deck_transport():
    rng = random.Random(10)
    ambient = FiniteAbelianGroup([6])
    sigma = random_pseudorep(rng, 3, 2, 2)
    moved = deck_transport(sigma, (5,), ambient, (2,))
    # conjugation in an abelian group fixes the pseudorep pointwise
    assert all(a == b for a, b in zip(moved.images, sigma.images))
    back = deck_transport(moved, (1,), ambient, (2,))
    assert all(a == b for a, b in zip(back.images, sigma.images))
    assert classify(moved).exponent_values() == classify(sigma).exponent_values()
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
        w1 = alcove_normalize(model, classify(sigma).exponent_values())
        g = random_invertible(rng, 2)
        w2 = alcove_normalize(model, classify(sigma.conjugate(g)).exponent_values())
        assert w1.values() == w2.values()


def test_project_mod_center_examples():
    zero = FractionalWeight(Fraction(0))
    c00 = PseudoRepClass(2, zero, (zero, zero))
    half = FractionalWeight(Fraction(1, 2))
    c_halves = PseudoRepClass(2, zero, (half, half))
    assert project_mod_center(c00, 2) == project_mod_center(c_halves, 2)
    c34 = PseudoRepClass(2, half, (FractionalWeight(Fraction(3, 4)),
                                   FractionalWeight(Fraction(1, 4))))
    q = project_mod_center(c34, 2)
    assert q.exponent_values() == (Fraction(3, 4), Fraction(1, 4))
    assert project_mod_center(c34, 1).exponent_values() == c34.exponent_values()


def test_induced_cocycle_examples():
    c = Cochain2(Z2, CoefficientGroup(4), [[0, 0], [0, 1]])  # c(g,g) = i
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
