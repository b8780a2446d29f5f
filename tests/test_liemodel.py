import random
from fractions import Fraction

import numpy as np
import pytest

from orbipar.errors import NotAlcoveForm, NotInIH, RankMismatch
from orbipar.liemodel import (GroupModel, alcove_normalize, beta_of_basis,
                              isotropy_eigenspaces, parabolic_from_s)
from orbipar.matrices import CycMatrix
from orbipar.scalars import root_of_unity

import helpers  # noqa: F401  (attaches CycMatrix.diagonal)

GL2 = GroupModel("gl", r=2)
GL3 = GroupModel("gl", r=3)
SL2 = GroupModel("sl", r=2)
UPQ11 = GroupModel("upq", p=1, q=1)

ALL_MODELS = [GroupModel("gl", r=r) for r in (2, 3, 4)] + \
             [GroupModel("sl", r=r) for r in (2, 3, 4)] + \
             [GroupModel("upq", p=p, q=q) for p, q in ((1, 1), (1, 2), (2, 2), (1, 3))]


def test_model_dimensions():
    assert GL2.dim_m == 4 and GL3.dim_m == 9
    assert SL2.dim_m == 3 and GroupModel("sl", r=3).dim_m == 8
    assert UPQ11.dim_m == 2 and GroupModel("upq", p=2, q=2).dim_m == 8


def test_upq_cartan_relation():
    # [m, m] lands in h: off-block times off-block is block diagonal
    model = GroupModel("upq", p=2, q=1)
    for a in model.m_basis:
        for b in model.m_basis:
            x, y = np.asarray(model.basis_array(a)), np.asarray(model.basis_array(b))
            br = x @ y - y @ x
            assert not ((br != 0) & ~np.asarray(model.h_mask)).any()


def test_alcove_examples():
    assert alcove_normalize(GL2, [Fraction(1, 4), Fraction(3, 4)]).values() == \
        (Fraction(3, 4), Fraction(1, 4))
    w0 = alcove_normalize(GL3, [0, 0, 0])
    assert w0.values() == (0, 0, 0) and not w0.is_interior()
    assert alcove_normalize(GL2, [Fraction(5, 4), Fraction(-1, 3)]).values() == \
        (Fraction(2, 3), Fraction(1, 4))


def test_alcove_sl_zero_sum():
    w = alcove_normalize(SL2, [Fraction(1, 2), Fraction(1, 2)])
    assert w.values() == (Fraction(1, 2), Fraction(-1, 2))
    assert not w.is_interior()  # the wall alpha_1 - alpha_2 = 1
    w2 = alcove_normalize(SL2, [Fraction(1, 3), Fraction(2, 3)])
    assert w2.values() == (Fraction(1, 3), Fraction(-1, 3)) and w2.is_interior()
    with pytest.raises(NotInIH):
        alcove_normalize(SL2, [Fraction(1, 3), 0])


def test_alcove_idempotent_and_permutation_invariant():
    rng = random.Random(12)
    for model in ALL_MODELS:
        for _ in range(25):
            exps = [Fraction(rng.randint(-12, 12), rng.randint(1, 6))
                    for _ in range(model.size)]
            if model.kind == "sl":
                exps[-1] = -sum(exps[:-1])  # make the sum integral
            w = alcove_normalize(model, exps)
            assert alcove_normalize(model, w.values()).values() == w.values()
            perm = list(exps)
            for blk in model.blocks:  # permute within blocks only
                vals = [perm[i] for i in blk]
                rng.shuffle(vals)
                for slot, v in zip(blk, vals):
                    perm[slot] = v
            assert alcove_normalize(model, perm).values() == w.values()


def test_alcove_rank_mismatch():
    with pytest.raises(RankMismatch):
        alcove_normalize(GL2, [0])


def test_alcove_torus_order():
    # e^{2 pi i N alpha} = id whenever all denominators divide N
    w = alcove_normalize(GL3, [Fraction(1, 6), Fraction(5, 6), Fraction(1, 2)])
    N = 6
    t = CycMatrix.diagonal([root_of_unity(v) for v in w.values()])
    assert (t ** N).is_identity()


def test_eigenspace_examples():
    es = isotropy_eigenspaces(GL2, alcove_normalize(GL2, [0, 0]))
    assert len(es) == 1 and es[0][0].value == 0 and len(es[0][1]) == 4
    es2 = isotropy_eigenspaces(GL2, alcove_normalize(GL2, [Fraction(1, 3), 0]))
    assert {b.value: len(ix) for b, ix in es2} == \
        {Fraction(0): 2, Fraction(1, 3): 1, Fraction(-1, 3): 1}
    esu = isotropy_eigenspaces(UPQ11, alcove_normalize(UPQ11, [Fraction(1, 2), 0]))
    got = {b.value: [UPQ11.basis_key(i) for i in ix] for b, ix in esu}
    assert got == {Fraction(1, 2): [(0, 1)], Fraction(-1, 2): [(1, 0)]}


def test_eigenspaces_require_alcove_form():
    w = alcove_normalize(GL2, [Fraction(1, 3), 0])
    with pytest.raises(NotAlcoveForm):
        isotropy_eigenspaces(GL3, w)


def test_eigenspace_dimensions_and_exact_ad_action():
    rng = random.Random(13)
    for model in ALL_MODELS:
        for _ in range(5):
            exps = [Fraction(rng.randint(0, 11), 12) for _ in range(model.size)]
            if model.kind == "sl":
                s = sum(exps)
                exps[-1] += (0 - s) % 1
            w = alcove_normalize(model, exps)
            betas = beta_of_basis(model, w)
            assert sum(len(ix) for _, ix in isotropy_eigenspaces(model, w)) == model.dim_m
            t = CycMatrix.diagonal([root_of_unity(v) for v in w.values()])
            t_inv = CycMatrix.diagonal([root_of_unity(-v % 1) for v in w.values()])
            for idx in range(model.dim_m):
                e = model.basis_matrix(idx)
                lhs = t @ e @ t_inv
                rhs = e.scale(root_of_unity(betas[idx].value % 1))
                assert lhs == rhs


def test_interior_betas_in_open_interval():
    for model, exps in [(GL2, [Fraction(2, 3), Fraction(1, 4)]),
                        (SL2, [Fraction(1, 3), Fraction(-1, 3)]),
                        (GL3, [Fraction(3, 4), Fraction(1, 2), 0])]:
        w = alcove_normalize(model, exps)
        assert w.is_interior()
        for beta in beta_of_basis(model, w):
            assert Fraction(-1) < beta.value < 1


def test_parabolic_examples():
    p0 = parabolic_from_s(GL2, [0, 0])
    assert np.asarray(p0.p_mask).all() and np.asarray(p0.l_mask).all()
    p1 = parabolic_from_s(GL2, [1, 0])
    assert np.array_equal(np.asarray(p1.p_mask), np.array([[True, False], [True, True]]))
    assert np.array_equal(np.asarray(p1.l_mask), np.eye(2, dtype=bool))
    p2 = parabolic_from_s(GL3, [1, 1, 0])
    assert np.array_equal(np.asarray(p2.l_mask),
                          np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=bool))
    assert np.asarray(p2.p_mask)[2, 0] and not np.asarray(p2.p_mask)[0, 2]


def test_parabolic_rejects_bad_s():
    with pytest.raises(NotInIH):
        parabolic_from_s(SL2, [1, 0])
    with pytest.raises(NotInIH):
        parabolic_from_s(GL2, [1, 0, 0])


def test_parabolic_invariants_random():
    rng = random.Random(14)
    for model in ALL_MODELS:
        for _ in range(10):
            s = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                 for _ in range(model.size)]
            if model.kind == "sl":
                s[-1] = -sum(s[:-1])
            p = parabolic_from_s(model, s)
            assert p.levi_is_intersection()
            assert p.bracket_closed()
            assert p.p_preserves_m()
            assert p.levi_preserves_m0()
