import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbipar.cocycles import (DEFAULT_MAX_ORDER, DEFAULT_SCALE_BOUND, MAX_EXTENSION_ORDER,
                              Cochain2, FiniteAbelianGroup, central_extension, h2_classes,
                              h2_count, is_cocycle, power_sums, zeta)
from orbipar.errors import NotACocycle, NotNormalized, ScaleExceeded
from orbipar.moduli import MAX_STRATA_CELLS

from helpers import (ExtensionGroup, NotASubgroup, _coboundary_batches, _coboundary_form,
                     _reduce, are_cohomologous, brute_force_element_order,
                     brute_force_extension, brute_force_h2, brute_force_is_cyclic,
                     brute_force_power_sums,
                     coboundary, extension_table,
                     random_cyclic_cochain, random_cyclic_cocycle, restrict,
                     scan_is_cocycle, table_is_associative, tuple_add_table)

Z2 = FiniteAbelianGroup([2])
Z3 = FiniteAbelianGroup([3])
Z4 = FiniteAbelianGroup([4])


def neg_cocycle():
    return Cochain2(Z2, 2, [[0, 0], [0, 1]])


def test_is_cocycle_examples():
    assert is_cocycle(Cochain2.trivial(Z4, 3)).ok
    assert is_cocycle(neg_cocycle()).ok
    bad = Cochain2(Z3, 3, [[0, 0, 0], [0, 1, 0], [0, 0, 0]])
    verdict = is_cocycle(bad)
    assert not verdict.ok and verdict.witness is not None
    a, b, d = verdict.witness
    # the witness triple really violates the identity
    m = 3
    lhs = (bad.value(Z3.add(a, b), d) + bad.value(a, b)) % m
    rhs = (bad.value(a, Z3.add(b, d)) + bad.value(b, d)) % m
    assert lhs != rhs


def test_normalization_enforced():
    with pytest.raises(NotNormalized):
        Cochain2(Z2, 2, [[1, 0], [0, 0]])


def test_coboundary_examples():
    assert not np.asarray(coboundary(Z3, 3, [0, 0, 0]).table).any()
    # f(gamma) = i in Z/4 coefficients: c(g,g) = f(1) f(g)^-2 = -1
    cb = coboundary(Z2, 4, [0, 1])
    assert cb.value((1,), (1,)) == 2
    cb2 = coboundary(Z3, 3, [0, 1, 0])
    assert is_cocycle(cb2).ok


def test_coboundary_always_cocycle_random():
    rng = random.Random(4)
    for _ in range(100):
        n = rng.choice([2, 3, 4, 5, 6])
        m = rng.choice([2, 3, 4])
        g = FiniteAbelianGroup([n])
        f = [0] + [rng.randrange(m) for _ in range(n - 1)]
        assert is_cocycle(coboundary(g, m, f)).ok


def test_are_cohomologous_examples():
    c = neg_cocycle()
    ok, f = are_cohomologous(c, c)
    assert ok and f == [0, 0]
    ok, _ = are_cohomologous(Cochain2.trivial(Z2, 2), c)
    assert not ok
    triv4 = Cochain2.trivial(Z2, 4)
    neg4 = Cochain2(Z2, 4, [[0, 0], [0, 2]])
    ok, f = are_cohomologous(triv4, neg4)
    assert ok
    # the witness actually works: neg4 = coboundary(f) * triv4
    assert coboundary(Z2, 4, f) == neg4


def test_are_cohomologous_is_equivalence():
    rng = random.Random(5)
    for _ in range(10):
        n, m = rng.choice([(2, 2), (2, 4), (3, 3), (4, 2)])
        cs = [random_cyclic_cocycle(rng, n, m) for _ in range(3)]
        r01, _ = are_cohomologous(cs[0], cs[1])
        r12, _ = are_cohomologous(cs[1], cs[2])
        r02, _ = are_cohomologous(cs[0], cs[2])
        assert are_cohomologous(cs[0], cs[0])[0]
        assert r01 == are_cohomologous(cs[1], cs[0])[0]
        if r01 and r12:
            assert r02


@pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 7) for m in range(1, 7)])
def test_h2_count_is_gcd(n, m):
    assert len(h2_classes(FiniteAbelianGroup([n]), m)) == gcd(n, m)


def test_h2_product_group():
    # Kunneth: H^2(Z/2 x Z/2, Z/2) has 2^3 elements
    assert len(h2_classes(FiniteAbelianGroup([2, 2]), 2)) == 8


def test_h2_representatives_are_cocycles_and_inequivalent():
    reps = h2_classes(Z4, 2)
    assert len(reps) == 2
    for r in reps:
        assert is_cocycle(r).ok
    assert not are_cohomologous(reps[0], reps[1])[0]


def test_scale_bound():
    # the bound is on the output: Z/8 with m = 8 has 8 classes
    with pytest.raises(ScaleExceeded):
        h2_classes(FiniteAbelianGroup([8]), 8, scale_bound=4)
    assert len(h2_classes(FiniteAbelianGroup([8]), 8, scale_bound=8)) == 8
    # no cap on the coefficient order: residues are Python ints
    assert len(h2_classes(Z2, 2 ** 40)) == 2


ORACLE_CASES = ([([n], m) for n in range(1, 7) for m in range(1, 7)]
                + [([2, 2], 2), ([2, 2], 3), ([2, 2], 4), ([2, 4], 2)])


@pytest.mark.parametrize("factors,m", ORACLE_CASES)
def test_h2_matches_brute_force(factors, m):
    g = FiniteAbelianGroup(factors)
    assert [r.key() for r in h2_classes(g, m)] == [r.key() for r in brute_force_h2(g, m)]


def test_h2_matches_coset_oracle_on_z2_cubed():
    # Enumerating every cocycle of (Z/2)^3 scans 2^21 tables (about a minute),
    # so this checks the same list through the 2^7 coboundaries: the brute
    # force emits, sorted, the least table of each coset of B^2 in Z^2, and
    # there are |H^2| = 2^3 * 2^3 such cosets.
    g = FiniteAbelianGroup([2, 2, 2])
    reps = h2_classes(g, 2)
    cob = np.concatenate([t.reshape(len(t), -1) for _, t in _coboundary_batches(g, 2)])
    assert len(reps) == 64 and all(is_cocycle(r).ok for r in reps)
    keys = [r.key() for r in reps]
    assert keys == sorted(set(keys))
    cosets = [{tuple(x) for x in (np.array(k) + cob) % 2} for k in keys]
    assert all(min(coset) == key for coset, key in zip(cosets, keys))
    assert len(set().union(*cosets)) == 64 * len({tuple(x) for x in cob})


def abelian_groups(max_order):
    """Invariant factors d_1 | d_2 | ... of every abelian group up to max_order."""
    def chains(order, least):
        if order == 1:
            yield ()
        for d in range(least, order + 1):
            if order % d == 0:
                for rest in chains(order // d, d):
                    if not rest or rest[0] % d == 0:
                        yield (d,) + rest
    return [list(c) for order in range(1, max_order + 1) for c in chains(order, 2)]


def uct_count(factors, m):
    count = 1
    for i, a in enumerate(factors):
        count *= gcd(a, m)
        for b in factors[i + 1:]:
            count *= gcd(gcd(a, b), m)
    return count


def test_h2_sweep_matches_uct():
    groups = abelian_groups(24)
    assert len(groups) == 37
    for factors in groups:
        g = FiniteAbelianGroup(factors)
        for m in (1, 2, 3, 4, 6, 12, 24):
            reps = h2_classes(g, m)
            assert len({r.key() for r in reps}) == uct_count(factors, m), (factors, m)
            if m == 24:  # checking every m triples the sweep's time
                assert all(is_cocycle(r).ok for r in reps), factors


CERTIFIED_MODULI = list(range(1, 13)) + [16, 24, 36, 48, 2 ** 40, 10 ** 12 + 39]


def test_h2_representatives_are_least_in_their_class():
    # The Howell reduction returns the least table of a class, so it must fix
    # every representative.  The argument in h2_classes reads m only through
    # gcd(n_i, m), which gcd(m, exponent of G) fixes: each group takes the first
    # modulus of each such gcd, and the two large moduli always.
    groups = ordered_factors(24) + [(1, 4), (2, 1, 2)]
    assert {(3, 2), (4, 2), (2, 6), (6, 2), (2, 2, 2, 2)} <= set(groups)
    for factors in groups:
        g, seen = FiniteAbelianGroup(factors), set()
        for m in CERTIFIED_MODULI:
            key = gcd(m, lcm(*factors))
            if key in seen and m < 2 ** 40:
                continue
            seen.add(key)
            form = _coboundary_form(g, m)
            for r in h2_classes(g, m):
                row = [x for t in r.table for x in t] + [0] * (g.order - 1)
                assert _reduce(row, form, m) == row, (factors, m, r.table)


COHOMOLOGY_GROUPS = [[2], [3], [4], [6], [8], [12], [2, 2], [2, 4], [3, 3], [2, 2, 2]]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(COHOMOLOGY_GROUPS), st.integers(1, 8), st.data())
def test_are_cohomologous_finds_a_witness(factors, m, data):
    g = FiniteAbelianGroup(factors)
    reps = h2_classes(g, m)
    c = reps[data.draw(st.integers(0, len(reps) - 1))]
    f = [0] + data.draw(st.lists(st.integers(0, m - 1), min_size=g.order - 1,
                                 max_size=g.order - 1))
    shifted = c.mul(coboundary(g, m, f))
    ok, witness = are_cohomologous(c, shifted)
    assert ok and coboundary(g, m, witness).mul(c) == shifted
    other = reps[data.draw(st.integers(0, len(reps) - 1))]
    assert are_cohomologous(other, shifted)[0] == (other == c)


def test_central_extension_examples():
    ext = central_extension(Cochain2.trivial(Z2, 2))
    assert ext.order_profile == (1, 2, 2, 2)  # Z/2 x Z/2
    ext2 = central_extension(neg_cocycle())
    assert ext2.order_profile == (1, 2, 4, 4)  # Z/4
    ext3 = central_extension(Cochain2.trivial(Z3, 2))
    assert ext3.order_profile == (1, 2, 3, 3, 6, 6)  # Z/6
    assert ExtensionGroup(Cochain2.trivial(Z3, 2)).element_order(
        np.asarray(ext3.table)[Z3.order, 1]) in (2, 3, 6)


EXTENSION_GROUPS = [[1], [2], [3], [4], [6], [8], [12], [2, 2], [2, 4], [3, 3], [2, 6],
                    [2, 2, 2], [2, 2, 4], [2, 3]]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(EXTENSION_GROUPS), st.data())
def test_central_extension_matches_the_table_scan(factors, data):
    # a random cocycle: an H^2 representative times a random coboundary; on a
    # non-cyclic group it need not be symmetric
    g = FiniteAbelianGroup(factors)
    m = data.draw(st.integers(1, MAX_EXTENSION_ORDER // g.order))
    reps = h2_classes(g, m)
    f = [0] + data.draw(st.lists(st.integers(0, m - 1), min_size=g.order - 1,
                                 max_size=g.order - 1))
    c = reps[data.draw(st.integers(0, len(reps) - 1))].mul(coboundary(g, m, f))
    ext, oracle = central_extension(c), brute_force_extension(c)
    assert (ext.order, ext.table) == (oracle.order, oracle.table)
    assert ext.is_abelian == oracle.is_abelian()
    assert ext.order_profile == oracle.order_profile()


def ordered_factors(limit):
    """Every tuple of factors >= 2, in every order, whose product is at most limit."""
    out, frontier = [()], [()]
    while frontier:
        frontier = [t + (n,) for t in frontier for n in range(2, limit // prod(t) + 1)]
        out += frontier
    return out


def test_cyclic_and_element_orders_match_the_scan_on_every_small_group():
    groups = ordered_factors(24)
    for factors in groups + [(1,) + t for t in groups] + [t + (1, 1) for t in groups]:
        g = FiniteAbelianGroup(factors)
        assert g.is_cyclic() == brute_force_is_cyclic(g), factors
        assert [g.element_order(a) for a in g.elements] == \
            [brute_force_element_order(g, a) for a in g.elements], factors


def test_prod_is_the_tuple_add_table_on_every_small_group():
    groups = ordered_factors(24)
    for factors in groups + [(1,) + t for t in groups] + [t + (1, 1) for t in groups] + \
            [(1, 4), (2, 1, 2)]:
        g = FiniteAbelianGroup(factors)
        assert g.prod == tuple_add_table(g), factors


VERDICT_GROUPS = [[1], [2], [5], [6], [2, 2], [2, 3], [3, 2], [2, 4], [4, 2], [3, 3],
                  [2, 6], [6, 2], [2, 2, 2], [1, 4], [2, 1, 2], [2, 2, 3], [4, 4]]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(VERDICT_GROUPS), st.integers(1, 6),
       st.sampled_from(["random", "cell", "factor"]), st.data())
def test_is_cocycle_matches_the_full_scan(factors, m, kind, data):
    # a random cochain, or a UCT cocycle times a random coboundary perturbed
    # at one cell or by u(a_k, b), which vanishes on every row with a_k = 0:
    # then the identity holds on every generator row but that of factor k
    g = FiniteAbelianGroup(factors)
    n = g.order
    cells = st.lists(st.integers(0, m - 1), min_size=n - 1, max_size=n - 1)
    if kind == "random":
        table = [[0] * n] + [[0] + data.draw(cells) for _ in range(n - 1)]
    else:
        reps = h2_classes(g, m)
        f = [0] + data.draw(cells)
        table = [list(row) for row in
                 reps[data.draw(st.integers(0, len(reps) - 1))].mul(coboundary(g, m, f)).table]
    if kind == "cell" and n > 1:
        a, b = data.draw(st.integers(1, n - 1)), data.draw(st.integers(1, n - 1))
        table[a][b] = (table[a][b] + data.draw(st.integers(0, m - 1))) % m
    if kind == "factor" and n > 1:
        k = data.draw(st.sampled_from([i for i, ni in enumerate(factors) if ni > 1]))
        u = [[0] * n] + [[0] + data.draw(cells) for _ in range(factors[k] - 1)]
        table = [[(x + u[a[k]][b]) % m for b, x in enumerate(row)]
                 for a, row in zip(g.elements, table)]
    c = Cochain2(g, m, table)
    assert is_cocycle(c) == scan_is_cocycle(c)


def test_central_extension_rejects_noncocycles():
    bad = Cochain2(Z3, 3, [[0, 0, 0], [0, 1, 0], [0, 0, 0]])
    with pytest.raises(NotACocycle):
        central_extension(bad)


def test_associativity_matches_cocycle_verdict_random():
    rng = random.Random(6)
    for _ in range(300):
        n = rng.choice([2, 3, 4, 5, 6])
        m = rng.choice([2, 3, 4])
        c = random_cyclic_cochain(rng, n, m)
        assert table_is_associative(extension_table(c)) == is_cocycle(c).ok


def test_cohomologous_cocycles_give_isomorphic_extensions():
    triv = Cochain2.trivial(Z2, 4)
    cob = coboundary(Z2, 4, [0, 1])
    assert central_extension(triv).isomorphic_to(central_extension(cob))
    assert not central_extension(Cochain2.trivial(Z2, 2)).isomorphic_to(
        central_extension(neg_cocycle()))


def test_zeta_examples():
    assert zeta(Cochain2.trivial(Z4, 3), (1,)) == 0
    assert zeta(neg_cocycle(), (1,)) == Fraction(1, 2)
    c3 = Cochain2(Z3, 3, [[0, 0, 0], [0, 1, 0], [0, 0, 2]])
    assert is_cocycle(c3).ok
    assert zeta(c3, (1,)) == Fraction(1, 3)


def test_zeta_identity_element():
    assert zeta(neg_cocycle(), (0,)) == 0


def test_zeta_invariant_under_homomorphic_coboundary():
    # f restricted to <gamma> a homomorphism leaves zeta unchanged
    rng = random.Random(7)
    for _ in range(30):
        n, m = rng.choice([(2, 2), (3, 3), (4, 4), (4, 2), (6, 6)])
        g = FiniteAbelianGroup([n])
        c = random_cyclic_cocycle(rng, n, m)
        t = rng.randrange(m)
        if (t * n) % m != 0:
            continue  # need a homomorphism Z/n -> Z/m
        f = [(t * k) % m for k in range(n)]
        shifted = c.mul(coboundary(g, m, f))
        assert zeta(shifted, (1,)) == zeta(c, (1,))


POWER_SUM_GROUPS = [(1,), (2,), (5,), (6,), (24,), (2, 2), (2, 4), (3, 3), (2, 12),
                    (4, 4), (2, 2, 2), (2, 2, 6), (2, 2, 2, 2)]


@lru_cache(maxsize=None)
def _h2_reps(factors, m):
    return h2_classes(FiniteAbelianGroup(factors), m)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(POWER_SUM_GROUPS), st.integers(1, 6), st.randoms(use_true_random=False))
def test_power_sums_match_their_definition(factors, m, rng):
    # a random cocycle: a class representative times a random coboundary
    g = FiniteAbelianGroup(factors)
    f = [0] + [rng.randrange(m) for _ in range(g.order - 1)]
    c = rng.choice(_h2_reps(factors, m)).mul(coboundary(g, m, f))
    for a, e in enumerate(g.elements):
        assert power_sums(c, a) == brute_force_power_sums(c, e)
    assert power_sums(c, 0) == [0, 0]


def _factorisations(bound, least=2):
    """Every nondecreasing tuple of factors >= least with product <= bound."""
    yield ()
    for n in range(least, bound + 1):
        for rest in _factorisations(bound // n, n):
            yield (n, *rest)


def test_largest_h2_under_the_order_cap():
    # m = lcm(factors) attains every gcd(n_i, m) = n_i and gcd(n_i, n_j, m) =
    # gcd(n_i, n_j), so it gives each group its largest H^2
    counts = {f: h2_count(FiniteAbelianGroup(f), lcm(*f))
              for f in _factorisations(DEFAULT_MAX_ORDER)}
    assert len(counts) == 53  # the trivial group among them
    top = max(counts.values())
    assert top == 2 ** 10 and [f for f, k in counts.items() if k == top] == [(2, 2, 2, 2)]
    # a moduli strata output holds at most MAX_STRATA_CELLS strata, so the
    # default bound refuses nothing the two caps admit
    assert max(top, MAX_STRATA_CELLS) < DEFAULT_SCALE_BOUND


def test_restrict_examples():
    reps = h2_classes(Z4, 2)
    c = reps[-1]
    sub = FiniteAbelianGroup([2])
    r = restrict(c, sub, [(2,)])
    assert is_cocycle(r).ok and r.group.order == 2
    assert restrict(c, Z4, [(1,)]) == c
    triv_sub = FiniteAbelianGroup([1])
    assert not np.asarray(restrict(c, triv_sub, []).table).any()
    with pytest.raises(NotASubgroup):
        restrict(c, FiniteAbelianGroup([3]), [(1,)])


def test_extension_table_layout():
    # (z, a)(z', b) = (z + z' + c(a,b), ab) with index z*|G| + a
    c = neg_cocycle()
    t = np.asarray(extension_table(c))
    n = 2
    assert t[0 * n + 1, 0 * n + 1] == 1 * n + 0  # (1,g)(1,g) = (-1, 1)
    assert np.array_equal(t[0], np.arange(4))
