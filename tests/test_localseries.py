import random
from fractions import Fraction

import pytest

from orbipar import liemodel, localseries
from orbipar.errors import (BadResidueSupport, MalformedInput, NotInvariant,
                            TwistDenominator, WeightOnWall)
from orbipar.liemodel import GroupModel, alcove_normalize
from orbipar.localseries import (GradedSeries, ascend, check_invariance,
                                 decompose_by_beta, descend, residue_report)
from orbipar.scalars import Cyclotomic, FractionalWeight

from helpers import (MODELS_GRID, N_GRID, interior_weights,
                     random_downstairs_series, random_invariant_series,
                     random_nonzero_cyclotomic)

GL2 = GroupModel("gl", r=2)
W_THIRD = alcove_normalize(GL2, [Fraction(1, 3), 0])
W_HALF = alcove_normalize(GL2, [Fraction(1, 2), 0])


def series(model, weight, N, var, trunc, keyed_terms):
    terms = {(model.basis_index(key), k): coeff
             for (key, k), coeff in keyed_terms.items()}
    return GradedSeries(model, weight, N, var, trunc, terms)


def test_constructor_validation():
    with pytest.raises(WeightOnWall):
        GradedSeries(GL2, alcove_normalize(GL2, [0, 0]), 2, "z", 4, {})
    with pytest.raises(MalformedInput):
        series(GL2, W_HALF, 2, "z", 4, {((0, 1), -1): Cyclotomic.one()})
    with pytest.raises(MalformedInput):
        series(GL2, W_HALF, 2, "w", 4, {((0, 1), -2): Cyclotomic.one()})
    with pytest.raises(MalformedInput):
        series(GL2, W_HALF, 2, "z", 4, {((0, 1), 5): Cyclotomic.one()})
    # N * alpha must be integral
    from orbipar.errors import NonIntegralGauge
    with pytest.raises(NonIntegralGauge):
        GradedSeries(GL2, W_THIRD, 2, "z", 4, {})


def test_decompose_by_beta():
    s = series(GL2, W_THIRD, 3, "z", 6, {
        ((0, 0), 0): Cyclotomic.one(), ((1, 1), 0): Cyclotomic.one(),
        ((0, 1), 1): Cyclotomic.one(), ((1, 0), 0): Cyclotomic.one(),
    })
    parts = decompose_by_beta(s)
    by_val = {b.value: p for b, p in parts.items()}
    assert set(by_val) == {Fraction(0), Fraction(1, 3), Fraction(-1, 3)}
    assert len(by_val[Fraction(0)].terms) == 2
    total = None
    for p in parts.values():
        total = p if total is None else total.add(p)
    assert total.equal_on_common_range(s)


def test_invariance_examples():
    s1 = series(GL2, W_THIRD, 3, "z", 9, {((0, 1), 1): Cyclotomic.one()})
    assert check_invariance(s1).invariant
    s2 = series(GL2, W_HALF, 2, "z", 8, {((1, 0), 0): Cyclotomic.one()})
    assert check_invariance(s2).invariant
    empty = series(GL2, W_HALF, 2, "z", 8, {})
    assert check_invariance(empty).invariant
    assert check_invariance(empty, Fraction(1, 2)).invariant


def test_invariance_violations_reported():
    bad = series(GL2, W_THIRD, 3, "z", 9, {((0, 1), 0): Cyclotomic.one(),
                                           ((0, 1), 1): Cyclotomic.one()})
    report = check_invariance(bad)
    assert not report.invariant
    assert len(report.violations) == 1
    beta, k, key = report.violations[0]
    assert (beta.value, k, key) == (Fraction(1, 3), 0, (0, 1))


def test_substitution_verdict_does_not_read_beta(monkeypatch):
    # with a wrong beta the index criterion moves and the substitution must not
    s1 = series(GL2, W_THIRD, 3, "z", 9, {((0, 1), 1): Cyclotomic.one()})
    assert check_invariance(s1).invariant
    wrong = lambda model, weight: [FractionalWeight(Fraction(0))] * model.dim_m  # noqa: E731
    monkeypatch.setattr(liemodel, "beta_of_basis", wrong)
    monkeypatch.setattr(localseries, "beta_of_basis", wrong)
    s1 = series(GL2, W_THIRD, 3, "z", 9, {((0, 1), 1): Cyclotomic.one()})
    with pytest.raises(AssertionError, match="invariance oracles disagree"):
        check_invariance(s1)


def test_twist():
    # E12 z^0 dz at alpha = (1/3, 0), N = 3 has total phase 2/3
    s = series(GL2, W_THIRD, 3, "z", 9, {((0, 1), 0): Cyclotomic.one()})
    assert not check_invariance(s).invariant
    assert check_invariance(s, Fraction(2, 3)).invariant
    with pytest.raises(TwistDenominator):
        check_invariance(s, Fraction(1, 2))


def test_descend_examples():
    s2 = series(GL2, W_HALF, 2, "z", 8, {((1, 0), 0): Cyclotomic.one()})
    down, res = descend(s2)
    assert down.variable == "w"
    assert {(down.model.basis_key(b), k): c for (b, k), c in down.terms.items()} \
        == {((1, 0), -1): Cyclotomic.from_rational(Fraction(1, 2))}
    assert res.nilpotent and res.nilpotency_index == 2
    assert res.levi_projection_zero and res.support_in_negative_beta
    assert res.residue.entry(1, 0) == Cyclotomic.from_rational(Fraction(1, 2))

    s1 = series(GL2, W_THIRD, 3, "z", 9, {((0, 1), 1): Cyclotomic.one()})
    down3, res3 = descend(s1)
    assert {(down3.model.basis_key(b), k): c for (b, k), c in down3.terms.items()} \
        == {((0, 1), 0): Cyclotomic.from_rational(Fraction(1, 3))}
    assert res3.residue.is_zero() and res3.nilpotent

    empty = series(GL2, W_HALF, 2, "z", 8, {})
    dz, rz = descend(empty)
    assert dz.is_zero() and rz.residue.is_zero() and rz.nilpotent


def test_descend_refuses_noninvariant():
    bad = series(GL2, W_THIRD, 3, "z", 9, {((0, 1), 0): Cyclotomic.one()})
    with pytest.raises(NotInvariant):
        descend(bad)


def test_ascend_examples():
    down = series(GL2, W_HALF, 2, "w", 3,
                  {((1, 0), -1): Cyclotomic.from_rational(Fraction(1, 2))})
    up = ascend(down)
    assert {(up.model.basis_key(b), k): c for (b, k), c in up.terms.items()} \
        == {((1, 0), 0): Cyclotomic.one()}
    down3 = series(GL2, W_THIRD, 3, "w", 2,
                   {((0, 1), 0): Cyclotomic.from_rational(Fraction(1, 3))})
    up3 = ascend(down3)
    assert {(up3.model.basis_key(b), k): c for (b, k), c in up3.terms.items()} \
        == {((0, 1), 1): Cyclotomic.one()}
    assert ascend(series(GL2, W_HALF, 2, "w", 3, {})).is_zero()


def test_ascend_rejects_bad_residue_support():
    bad = series(GL2, W_HALF, 2, "w", 3, {((0, 1), -1): Cyclotomic.one()})
    with pytest.raises(BadResidueSupport):
        ascend(bad)


def test_residue_report_mixed_pole():
    s = series(GL2, W_HALF, 2, "w", 3, {((0, 1), -1): Cyclotomic.one(),
                                        ((1, 0), -1): Cyclotomic.one()})
    report = residue_report(s)
    assert not report.support_in_negative_beta
    assert not report.nilpotent  # (E12 + E21)^2 = Id
    assert report.nilpotency_index is None


def test_exponent_bookkeeping():
    # descend maps k to (k + 1 + N*beta)/N - 1, an integer >= -1
    rng = random.Random(15)
    for model in MODELS_GRID:
        for N in N_GRID:
            weights = interior_weights(model, N)
            if not weights:
                continue
            w = weights[rng.randrange(len(weights))]
            s = random_invariant_series(rng, model, w, N, 16)
            down, _ = descend(s)
            for (b, k) in s.terms:
                beta = s.beta_of(b).value
                j = Fraction(k + 1 + N * beta, N) - 1
                assert j.denominator == 1 and j >= -1
                if j <= down.trunc:
                    assert (b, int(j)) in down.terms


def test_round_trip_small_grid():
    rng = random.Random(16)
    for model in MODELS_GRID:
        for N in N_GRID:
            weights = interior_weights(model, N)
            for w in weights[:3]:
                s = random_invariant_series(rng, model, w, N, 20)
                down, res = descend(s)
                assert res.support_in_negative_beta and res.nilpotent \
                    and res.levi_projection_zero
                assert ascend(down).equal_on_common_range(s)
                t = random_downstairs_series(rng, model, w, N, 5)
                up = ascend(t)
                down2, _ = descend(up)
                assert down2.equal_on_common_range(t)


def test_linearity():
    rng = random.Random(17)
    w = W_THIRD
    a = random_invariant_series(rng, GL2, w, 3, 18)
    b = random_invariant_series(rng, GL2, w, 3, 18)
    c = random_nonzero_cyclotomic(rng)
    lhs, _ = descend(a.scale(c).add(b))
    da, _ = descend(a)
    db, _ = descend(b)
    assert lhs.equal_on_common_range(da.scale(c).add(db))
    t = random_downstairs_series(rng, GL2, w, 3, 6)
    u = random_downstairs_series(rng, GL2, w, 3, 6)
    assert ascend(t.scale(c).add(u)).equal_on_common_range(
        ascend(t).scale(c).add(ascend(u)))


def test_truncation_rules():
    s = series(GL2, W_HALF, 2, "z", 24, {((1, 0), 0): Cyclotomic.one()})
    down, _ = descend(s)
    # beta = 0 component: first slot above 24 is k = 25, landing at j = 12
    assert down.trunc == 11
    up = ascend(down)
    # beta = 1/2 component unknown from k = 2*(11+2) - 1 - 1 = 24 upstairs
    assert up.trunc == 23
