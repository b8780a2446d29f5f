import json
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbipar.cli import run_command
from orbipar.errors import NotInIH, RankMismatch
from orbipar.jsonio import model_from_json, model_to_json
from orbipar.liemodel import GroupModel, alcove_normalize, isotropy_eigenspaces, parabolic_from_s
from orbipar.matrices import CycMatrix
from orbipar.scalars import root_of_unity

# helpers also attaches CycMatrix.diagonal
from helpers import basis_array, basis_matrix, bracket_scan_verify

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


# every valid model, with its wire fields and its repr
VALID_MODELS = [({"kind": k, "r": r}, f"GroupModel({k}, r={r})")
                for k in ("gl", "sl") for r in range(1, 5)] + \
               [({"kind": "upq", "p": p, "q": q}, f"GroupModel(upq, p={p}, q={q})")
                for p in range(1, 4) for q in range(1, 5 - p)]


def test_every_model_round_trips_and_prints_its_fields():
    models = [model_from_json(wire) for wire, _ in VALID_MODELS]
    for model, (wire, text) in zip(models, VALID_MODELS):
        assert model_to_json(model) == wire and repr(model) == text
        assert model_from_json(model_to_json(model)) == model
    for a, b in product(range(len(models)), repeat=2):
        assert (models[a] == models[b]) == (a == b), (models[a], models[b])


MISSING = object()
SIZES = [MISSING, 0, -1, 1, 2, 5, True, "2"]


def test_malformed_models_exit_as_pinned(tmp_path):
    """Every kind in {gl, sl, upq, unknown, missing, an int} with every r, p
    and q in SIZES, through `lie alcove`: a model is valid iff its kind is
    known and each of its own size fields is the int 1 or 2; a valid one
    exits 0, any other exits 2 with malformed_input."""
    fields = {"gl": ("r",), "sl": ("r",), "upq": ("p", "q")}
    path = tmp_path / "in.json"
    for kind, r, p, q in product(["gl", "sl", "upq", "xx", MISSING, 3], SIZES, SIZES, SIZES):
        wire = {k: v for k, v in (("kind", kind), ("r", r), ("p", p), ("q", q))
                if v is not MISSING}
        own = [wire.get(name) for name in fields.get(kind, ())]
        valid = bool(own) and all(type(v) is int and v in (1, 2) for v in own)
        size = sum(own) if valid else 2
        path.write_text(json.dumps({"model": wire, "exponents": ["0"] * size}))
        code, text = run_command(["lie", "alcove", str(path)])
        assert (code, json.loads(text).get("error")) == \
            ((0, None) if valid else (2, "malformed_input")), (wire, text)


def test_upq_cartan_relation():
    # [m, m] lands in h: off-block times off-block is block diagonal
    model = GroupModel("upq", p=2, q=1)
    for a in model.basis:
        for b in model.basis:
            x, y = basis_array(model, a), basis_array(model, b)
            br = x @ y - y @ x
            assert not ((br != 0) & ~np.asarray(model.h_mask)).any()


def test_alcove_examples():
    assert alcove_normalize(GL2, [Fraction(1, 4), Fraction(3, 4)]).entries == \
        (Fraction(3, 4), Fraction(1, 4))
    w0 = alcove_normalize(GL3, [0, 0, 0])
    assert w0.entries == (0, 0, 0) and not w0.is_interior()
    assert alcove_normalize(GL2, [Fraction(5, 4), Fraction(-1, 3)]).entries == \
        (Fraction(2, 3), Fraction(1, 4))


def test_alcove_sl_zero_sum():
    w = alcove_normalize(SL2, [Fraction(1, 2), Fraction(1, 2)])
    assert w.entries == (Fraction(1, 2), Fraction(-1, 2))
    assert not w.is_interior()  # the wall alpha_1 - alpha_2 = 1
    w2 = alcove_normalize(SL2, [Fraction(1, 3), Fraction(2, 3)])
    assert w2.entries == (Fraction(1, 3), Fraction(-1, 3)) and w2.is_interior()
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
            assert alcove_normalize(model, w.entries).entries == w.entries
            perm = list(exps)
            for blk in model.blocks:  # permute within blocks only
                vals = [perm[i] for i in blk]
                rng.shuffle(vals)
                for slot, v in zip(blk, vals):
                    perm[slot] = v
            assert alcove_normalize(model, perm).entries == w.entries


def test_alcove_rank_mismatch():
    with pytest.raises(RankMismatch):
        alcove_normalize(GL2, [0])


def test_alcove_torus_order():
    # e^{2 pi i N alpha} = id whenever all denominators divide N
    w = alcove_normalize(GL3, [Fraction(1, 6), Fraction(5, 6), Fraction(1, 2)])
    N = 6
    t = CycMatrix.diagonal([root_of_unity(v) for v in w.entries])
    assert (t ** N).is_identity()


def test_eigenspace_examples():
    es = isotropy_eigenspaces(alcove_normalize(GL2, [0, 0]))
    assert len(es) == 1 and es[0][0] == 0 and len(es[0][1]) == 4
    es2 = isotropy_eigenspaces(alcove_normalize(GL2, [Fraction(1, 3), 0]))
    assert {b: len(ix) for b, ix in es2} == \
        {Fraction(0): 2, Fraction(1, 3): 1, Fraction(-1, 3): 1}
    esu = isotropy_eigenspaces(alcove_normalize(UPQ11, [Fraction(1, 2), 0]))
    assert dict(esu) == {Fraction(1, 2): [(0, 1)], Fraction(-1, 2): [(1, 0)]}


def test_eigenspace_dimensions_and_exact_ad_action():
    rng = random.Random(13)
    for model in ALL_MODELS:
        for _ in range(5):
            exps = [Fraction(rng.randint(0, 11), 12) for _ in range(model.size)]
            if model.kind == "sl":
                s = sum(exps)
                exps[-1] += (0 - s) % 1
            w = alcove_normalize(model, exps)
            betas = w.beta
            assert sum(len(ix) for _, ix in isotropy_eigenspaces(w)) == model.dim_m
            t = CycMatrix.diagonal([root_of_unity(v) for v in w.entries])
            t_inv = CycMatrix.diagonal([root_of_unity(-v % 1) for v in w.entries])
            for key in model.basis:
                e = basis_matrix(model, key)
                lhs = t @ e @ t_inv
                rhs = e.scale(root_of_unity(betas[key] % 1))
                assert lhs == rhs


def test_interior_betas_in_open_interval():
    for model, exps in [(GL2, [Fraction(2, 3), Fraction(1, 4)]),
                        (SL2, [Fraction(1, 3), Fraction(-1, 3)]),
                        (GL3, [Fraction(3, 4), Fraction(1, 2), 0])]:
        w = alcove_normalize(model, exps)
        assert w.is_interior()
        for beta in w.beta.values():
            assert Fraction(-1) < beta < 1


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


def diagonals(model):
    """A rational diagonal s for the model; traceless for sl."""
    entries = st.lists(st.fractions(-6, 6, max_denominator=4),
                       min_size=model.size, max_size=model.size)
    if model.kind == "sl":
        return entries.map(lambda s: s[:-1] + [-sum(s[:-1])])
    return entries


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ALL_MODELS), st.data())
def test_verify_matches_the_bracket_scan(model, data):
    p = parabolic_from_s(model, data.draw(diagonals(model)))
    assert p.verify() and bracket_scan_verify(p)
    # masks of a second diagonal in place of some of the first's: the mask rule
    # and the scan must then fail alike
    q = parabolic_from_s(model, data.draw(diagonals(model)))
    for name in data.draw(st.sets(st.sampled_from(["l_mask", "ms_mask", "m0_mask"]))):
        setattr(p, name, getattr(q, name))
    assert p.verify() == bracket_scan_verify(p)
