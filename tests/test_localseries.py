import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbipar.errors import (BadResidueSupport, MalformedInput, NotInvariant,
                            TwistDenominator, UnsupportedModel, WeightOnWall)
from orbipar.liemodel import GroupModel, alcove_normalize
from orbipar.localseries import (GradedSeries, ascend, check_invariance, descend,
                                 residue_report)
from orbipar.scalars import Cyclotomic, root_of_unity

from helpers import (MODELS_GRID, N_GRID, _ascend_trunc, _descend_trunc,
                     cyclotomic_substitution, decompose_by_beta, interior_weights,
                     mask_scan_residue, random_downstairs_series, random_invariant_series,
                     random_nonzero_cyclotomic)

GL1 = GroupModel("gl", r=1)
GL2 = GroupModel("gl", r=2)
W_THIRD = alcove_normalize(GL2, [Fraction(1, 3), 0])
W_HALF = alcove_normalize(GL2, [Fraction(1, 2), 0])


def test_constructor_validation():
    with pytest.raises(WeightOnWall):
        GradedSeries(alcove_normalize(GL2, [0, 0]), 2, "z", 4, {})
    with pytest.raises(MalformedInput):
        GradedSeries(W_HALF, 2, "z", 4, {((0, 1), -1): Cyclotomic.one()})
    with pytest.raises(MalformedInput):
        GradedSeries(W_HALF, 2, "w", 4, {((0, 1), -2): Cyclotomic.one()})
    with pytest.raises(MalformedInput):
        GradedSeries(W_HALF, 2, "z", 4, {((0, 1), 5): Cyclotomic.one()})
    with pytest.raises(MalformedInput, match=r"\(2, 0\) is not a basis key of this model"):
        GradedSeries(W_HALF, 2, "z", 4, {((2, 0), 0): Cyclotomic.one()})
    # N * alpha must be integral
    from orbipar.errors import NonIntegralGauge
    with pytest.raises(NonIntegralGauge):
        GradedSeries(W_THIRD, 2, "z", 4, {})
    # sl(1) has m^C = 0: no basis key, so no local series
    sl1 = alcove_normalize(GroupModel("sl", r=1), [0])
    for variable in ("z", "w"):
        with pytest.raises(UnsupportedModel, match="m\\^C = 0"):
            GradedSeries(sl1, 2, variable, 4, {})


def test_decompose_by_beta():
    s = GradedSeries(W_THIRD, 3, "z", 6, {
        ((0, 0), 0): Cyclotomic.one(), ((1, 1), 0): Cyclotomic.one(),
        ((0, 1), 1): Cyclotomic.one(), ((1, 0), 0): Cyclotomic.one(),
    })
    parts = decompose_by_beta(s)
    by_val = {b: p for b, p in parts.items()}
    assert set(by_val) == {Fraction(0), Fraction(1, 3), Fraction(-1, 3)}
    assert len(by_val[Fraction(0)].terms) == 2
    total = None
    for p in parts.values():
        total = p if total is None else total.add(p)
    assert total.equal_on_common_range(s)


def test_invariance_examples():
    s1 = GradedSeries(W_THIRD, 3, "z", 9, {((0, 1), 1): Cyclotomic.one()})
    assert check_invariance(s1).invariant
    s2 = GradedSeries(W_HALF, 2, "z", 8, {((1, 0), 0): Cyclotomic.one()})
    assert check_invariance(s2).invariant
    empty = GradedSeries(W_HALF, 2, "z", 8, {})
    assert check_invariance(empty).invariant
    assert check_invariance(empty, Fraction(1, 2)).invariant


def test_invariance_violations_reported():
    bad = GradedSeries(W_THIRD, 3, "z", 9, {((0, 1), 0): Cyclotomic.one(),
                                                 ((0, 1), 1): Cyclotomic.one()})
    report = check_invariance(bad)
    assert not report.invariant
    assert len(report.violations) == 1
    beta, k, key = report.violations[0]
    assert (beta, k, key) == (Fraction(1, 3), 0, (0, 1))


def test_substitution_verdict_does_not_read_beta():
    # with a wrong beta the index criterion moves and the substitution must not
    s1 = GradedSeries(W_THIRD, 3, "z", 9, {((0, 1), 1): Cyclotomic.one()})
    assert check_invariance(s1).invariant
    wrong = W_THIRD._replace(beta=dict.fromkeys(GL2.basis, Fraction(0)))
    s1 = GradedSeries(wrong, 3, "z", 9, {((0, 1), 1): Cyclotomic.one()})
    with pytest.raises(AssertionError, match="invariance oracles disagree"):
        check_invariance(s1)


LOCAL_MODELS = [(model, N, weight) for model in MODELS_GRID for N in N_GRID
                for weight in interior_weights(model, N)]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(LOCAL_MODELS), st.data())
def test_substitution_matches_the_cyclotomic_oracle(local, data):
    # terms at any exponent, so most series are not invariant, under any twist
    model, N, weight = local
    trunc = 2 * N + 1
    keys = data.draw(st.sets(st.tuples(st.sampled_from(model.basis),
                                       st.integers(0, trunc)), max_size=6))
    twist = data.draw(st.none() | st.integers(-N, 2 * N).map(lambda j: Fraction(j, N)))
    s = GradedSeries(weight, N, "z", trunc, {key: Cyclotomic.one() for key in keys})
    report = check_invariance(s, twist)
    expected = cyclotomic_substitution(s, twist)
    assert list(report.violations) == expected
    assert report.by_substitution == (not expected)


def test_twist():
    # E12 z^0 dz at alpha = (1/3, 0), N = 3 has total phase 2/3
    s = GradedSeries(W_THIRD, 3, "z", 9, {((0, 1), 0): Cyclotomic.one()})
    assert not check_invariance(s).invariant
    assert check_invariance(s, Fraction(2, 3)).invariant
    with pytest.raises(TwistDenominator):
        check_invariance(s, Fraction(1, 2))


def test_descend_examples():
    s2 = GradedSeries(W_HALF, 2, "z", 8, {((1, 0), 0): Cyclotomic.one()})
    down, res = descend(s2)
    assert down.variable == "w"
    assert down.terms == {((1, 0), -1): Cyclotomic.from_rational(Fraction(1, 2))}
    assert res.nilpotent and res.nilpotency_index == 2
    assert res.levi_projection_zero and res.support_in_negative_beta
    assert res.residue.rows[1][0] == Cyclotomic.from_rational(Fraction(1, 2))

    s1 = GradedSeries(W_THIRD, 3, "z", 9, {((0, 1), 1): Cyclotomic.one()})
    down3, res3 = descend(s1)
    assert down3.terms == {((0, 1), 0): Cyclotomic.from_rational(Fraction(1, 3))}
    assert res3.residue.is_zero() and res3.nilpotent

    empty = GradedSeries(W_HALF, 2, "z", 8, {})
    dz, rz = descend(empty)
    assert dz.is_zero() and rz.residue.is_zero() and rz.nilpotent


def test_descend_refuses_noninvariant():
    bad = GradedSeries(W_THIRD, 3, "z", 9, {((0, 1), 0): Cyclotomic.one()})
    with pytest.raises(NotInvariant):
        descend(bad)


def test_ascend_examples():
    down = GradedSeries(W_HALF, 2, "w", 3,
                        {((1, 0), -1): Cyclotomic.from_rational(Fraction(1, 2))})
    up = ascend(down)
    assert up.terms == {((1, 0), 0): Cyclotomic.one()}
    down3 = GradedSeries(W_THIRD, 3, "w", 2,
                         {((0, 1), 0): Cyclotomic.from_rational(Fraction(1, 3))})
    up3 = ascend(down3)
    assert up3.terms == {((0, 1), 1): Cyclotomic.one()}
    assert ascend(GradedSeries(W_HALF, 2, "w", 3, {})).is_zero()


def test_ascend_rejects_bad_residue_support():
    bad = GradedSeries(W_HALF, 2, "w", 3, {((0, 1), -1): Cyclotomic.one()})
    with pytest.raises(BadResidueSupport):
        ascend(bad)


def test_residue_report_mixed_pole():
    s = GradedSeries(W_HALF, 2, "w", 3, {((0, 1), -1): Cyclotomic.one(),
                                              ((1, 0), -1): Cyclotomic.one()})
    report = residue_report(s)
    assert not report.support_in_negative_beta
    assert not report.nilpotent  # (E12 + E21)^2 = Id
    assert report.nilpotency_index is None


RESIDUE_MODELS = ([GroupModel("gl", r=r) for r in range(1, 5)]
                  + [GroupModel("sl", r=r) for r in range(2, 5)]
                  + [GroupModel("upq", p=p, q=q) for p in range(1, 4) for q in range(1, 5 - p)])
RESIDUE_LOCALS = [(model, N, weight) for model in RESIDUE_MODELS for N in (2, 3, 4, 6)
                  for weight in interior_weights(model, N)]
# u(p,q) weights with an entry shared across the blocks (beta = 0 off the
# diagonal), and sl weights, whose diagonal keys H_i overlap on the diagonal
SHARED_UPQ = [(model, N, w) for model, N, w in RESIDUE_LOCALS
              if model.kind == "upq" and 0 in w.beta.values()]
SL_LOCALS = [local for local in RESIDUE_LOCALS if local[0].kind == "sl"]
POLE_VALUES = [Cyclotomic.one(), -Cyclotomic.one(), Cyclotomic.from_rational(Fraction(1, 2)),
               root_of_unity(Fraction(1, 3)), root_of_unity(Fraction(3, 4)),
               Cyclotomic.one() + root_of_unity(Fraction(1, 3))]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(RESIDUE_LOCALS) | st.sampled_from(SHARED_UPQ)
       | st.sampled_from(SL_LOCALS), st.data())
def test_residue_verdicts_match_the_mask_scan(local, data):
    # poles on any keys, equal values included (sl's H_0 + H_1 cancels an entry),
    # and holomorphic terms, which no verdict reads
    model, N, weight = local
    terms = data.draw(st.dictionaries(st.tuples(st.sampled_from(model.basis),
                                                st.integers(-1, 1)),
                                      st.sampled_from(POLE_VALUES), max_size=8))
    series = GradedSeries(weight, N, "w", 1, terms)
    report = residue_report(series)
    residue, support, levi_zero = mask_scan_residue(series)
    assert report.residue == residue
    assert (report.support_in_negative_beta, report.levi_projection_zero) == (support, levi_zero)


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
            for (key, k) in s.terms:
                beta = s.beta[key]
                j = Fraction(k + 1 + N * beta, N) - 1
                assert j.denominator == 1 and j >= -1
                if j <= down.trunc:
                    assert (key, int(j)) in down.terms


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
    s = GradedSeries(W_HALF, 2, "z", 24, {((1, 0), 0): Cyclotomic.one()})
    down, _ = descend(s)
    # beta = 0 component: first slot above 24 is k = 25, landing at j = 12
    assert down.trunc == 11
    up = ascend(down)
    # beta = 1/2 component unknown from k = 2*(11+2) - 1 - 1 = 24 upstairs
    assert up.trunc == 23


# gl(1) has the one component beta = 0, here at prime orders
TRUNC_LOCALS = LOCAL_MODELS + [(GL1, p, alcove_normalize(GL1, [Fraction(1, p)]))
                               for p in (7, 4001)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(TRUNC_LOCALS), st.data())
def test_truncations_match_the_slot_search(local, data):
    # the output truncation depends on the weight, N and T alone, so the series
    # are empty; -2 is a valid truncation downstairs only
    _, N, weight = local
    T = data.draw(st.sampled_from([-2, -1, 10 ** 9]) | st.integers(0, 4 * N))
    if T >= -1:
        up = GradedSeries(weight, N, "z", T, {})
        assert descend(up)[0].trunc == _descend_trunc(up)
    down = GradedSeries(weight, N, "w", T, {})
    assert ascend(down).trunc == _ascend_trunc(down)
