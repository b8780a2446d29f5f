import random
from fractions import Fraction

import pytest

from orbipar.cocycles import FiniteAbelianGroup, are_cohomologous
from orbipar.errors import (MalformedInput, NegativeGenus, NonIntegralGenus,
                            UnsupportedModel)
from orbipar.liemodel import GroupModel
from orbipar.moduli import (CoveringData, FlagDegreeData, degree_pairing,
                            degree_scaling_check, enumerate_strata,
                            riemann_hurwitz, stability_verdict)

import helpers  # noqa: F401  (attaches StratumIndex.canonical_key)


def test_riemann_hurwitz_examples():
    assert riemann_hurwitz(CoveringData(2, 2, (2, 2))) == 1
    assert riemann_hurwitz(CoveringData(3, 2, ())) == 2


def test_riemann_hurwitz_rejections():
    with pytest.raises(NonIntegralGenus):
        riemann_hurwitz(CoveringData(2, 2, (2,)))  # 4 g_Y = 5
    with pytest.raises(NegativeGenus):
        riemann_hurwitz(CoveringData(2, 2, (2,) * 10))
    with pytest.raises(MalformedInput):
        CoveringData(2, 4, (3,))  # 3 does not divide 4
    with pytest.raises(MalformedInput):
        CoveringData(1, 2, ())


def test_riemann_hurwitz_feeds_back():
    rng = random.Random(18)
    for _ in range(200):
        N = rng.choice([1, 2, 3, 4, 6])
        divisors = [d for d in (2, 3, 4, 6) if N % d == 0]
        orbits = tuple(rng.choice(divisors) for _ in range(rng.randint(0, 4))) \
            if divisors else ()
        gx = rng.randint(2, 12)
        try:
            gy = riemann_hurwitz(CoveringData(gx, N, orbits))
        except (NonIntegralGenus, NegativeGenus):
            continue
        ram = sum((N // nj) * (nj - 1) for nj in orbits)
        assert 2 * gx - 2 == N * (2 * gy - 2) + ram


def test_strata_examples():
    g2 = FiniteAbelianGroup([2])
    # 2 cocycle classes x 1 quotient class ({0} ~ {1/2} mod scalars)
    strata = enumerate_strata(g2, 2, CoveringData(2, 2, (2,)), GroupModel("gl", r=1))
    assert len(strata) == 2
    # trivial group: exactly one stratum
    assert len(enumerate_strata(FiniteAbelianGroup([1]), 1, CoveringData(2, 1, ()),
                                GroupModel("gl", r=2))) == 1
    # trivial coefficients, GL(2): the 3 multisets over square roots of unity
    strata3 = enumerate_strata(g2, 1, CoveringData(2, 2, (2,)), GroupModel("gl", r=2))
    assert len(strata3) == 3
    got = sorted(tuple(str(v) for v in s.orbit_classes[0].exponent_values())
                 for s in strata3)
    assert got == [("0", "0"), ("1/2", "0"), ("1/2", "1/2")]


def _brute_force_orbit_classes(n, r, m):
    """Independent oracle: diagonal homomorphism classes of Z/n into GL(r),
    i.e. multisets of n-th roots of unity, identified under simultaneous
    multiplication by an m-th root of unity."""
    import itertools
    roots = [Fraction(j, n) for j in range(n)]
    classes = set()
    for combo in itertools.combinations_with_replacement(roots, r):
        shifts = []
        for k in range(m):
            shifted = tuple(sorted(((q + Fraction(k, m)) % 1 for q in combo),
                                   reverse=True))
            shifts.append(shifted)
        classes.add(min(shifts))
    return classes


def test_strata_count_factorizes():
    from orbipar.cocycles import h2_classes
    g4 = FiniteAbelianGroup([4])
    model = GroupModel("gl", r=2)
    covering = CoveringData(5, 4, (2, 4))
    strata = enumerate_strata(g4, 2, covering, model)
    expected = len(h2_classes(g4, 2))
    for nj in covering.orbit_orders:
        expected *= len(_brute_force_orbit_classes(nj, model.size, 2))
    assert len(strata) == expected
    # canonical keys are distinct
    keys = {s.canonical_key() for s in strata}
    assert len(keys) == len(strata)
    # and the per-orbit class sets agree with the oracle exactly
    for orbit_pos, nj in enumerate(covering.orbit_orders):
        got = {s.orbit_classes[orbit_pos].exponent_values() for s in strata}
        assert got == _brute_force_orbit_classes(nj, model.size, 2)


def test_strata_cocycles_are_class_representatives():
    g2 = FiniteAbelianGroup([2])
    strata = enumerate_strata(g2, 2, CoveringData(2, 2, (2,)), GroupModel("gl", r=1))
    c1, c2 = strata[0].cocycle, strata[1].cocycle
    ok, _ = are_cohomologous(c1, c2)
    assert not ok


def test_strata_rejects_upq():
    with pytest.raises(UnsupportedModel):
        enumerate_strata(FiniteAbelianGroup([2]), 2, CoveringData(2, 2, (2,)),
                         GroupModel("upq", p=1, q=1))


def flag(s, pieces, corrections=()):
    return FlagDegreeData(s, [{"value": v, "rank": r, "degree": d}
                              for v, r, d in pieces], corrections)


def test_degree_pairing_examples():
    assert degree_pairing(flag([0, 0], [(0, 2, 7)])) == 0
    assert degree_pairing(flag([-1, 1], [(-1, 1, 1), (1, 1, -1)])) == -2
    half = Fraction(1, 2)
    assert degree_pairing(flag([half, half], [(half, 2, 0)], [half])) == half


def test_degree_pairing_linearity():
    rng = random.Random(19)
    for _ in range(50):
        values = sorted({Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                         for _ in range(3)}, reverse=True)
        ranks = [rng.randint(1, 2) for _ in values]
        degs = [rng.randint(-5, 5) for _ in values]
        s = [v for v, r in zip(values, ranks) for _ in range(r)]
        f1 = flag(s, list(zip(values, ranks, degs)))
        scaled = flag([3 * v for v in s],
                      [(3 * v, r, d) for v, r, d in zip(values, ranks, degs)])
        assert degree_pairing(scaled) == 3 * degree_pairing(f1)
        degs2 = [rng.randint(-5, 5) for _ in values]
        f2 = flag(s, list(zip(values, ranks, degs2)))
        fsum = flag(s, list(zip(values, ranks, [a + b for a, b in zip(degs, degs2)])))
        assert degree_pairing(fsum) == degree_pairing(f1) + degree_pairing(f2)


def test_flag_validation():
    with pytest.raises(MalformedInput):
        flag([0, 1], [(0, 2, 1)])  # ranks disagree with multiplicities


def test_stability_examples():
    assert stability_verdict([], "stable").ok
    bad = flag([-1, 1], [(-1, 1, 1), (1, 1, -1)])
    verdict = stability_verdict([bad], "semistable")
    assert not verdict.ok and verdict.violator == 0 and verdict.pairing == -2
    zero = flag([0, 0], [(0, 2, 3)])
    pos = flag([1, 0], [(1, 1, 3), (0, 1, 0)])
    assert stability_verdict([zero, pos], "semistable").ok
    strict = stability_verdict([zero, pos], "stable")
    assert not strict.ok and strict.violator == 0 and strict.pairing == 0


def test_degree_scaling_examples():
    r = degree_scaling_check(Fraction(1, 2), 2, 1)
    assert r.scaling_ok and r.integral
    r = degree_scaling_check(0, 5, 0)
    assert r.scaling_ok and r.integral
    r = degree_scaling_check(Fraction(1, 3), 2, Fraction(2, 3))
    assert r.scaling_ok and not r.integral
    r = degree_scaling_check(Fraction(1, 2), 2, 2)
    assert not r.scaling_ok
