"""Shared generators for randomized suites: cocycles, pseudoreps, series.

Also the brute-force oracles the tests compare against: the
exhaustive enumeration of cocycles and coboundaries, H^2 by striking out
coboundary cosets, an exhaustive isomorphism search between Cayley tables,
the order of a root of unity by trial exponentiation, cyclotomic and
matrix products computed with a Fraction for every term, the composition
rule of a pseudorepresentation checked on all n^2 pairs, and eigenvalues by
a trial search over the roots of the characteristic polynomial.

And the conveniences that only tests call, attached to the library classes
as methods: powers, division and is_one on cyclotomics, matrix powers and
diagonal and scalar matrices, pseudorepresentations from a generator image,
their images by element and their conjugates, cochain keys and products, and
series sums and comparisons.
"""

import operator
from fractions import Fraction
from itertools import combinations, product
from math import lcm

import numpy as np

from orbipar.cocycles import (DEFAULT_SCALE_BOUND, Cochain2, CoefficientGroup,
                              ExtensionGroup, FiniteAbelianGroup, is_cocycle, zeta)
from orbipar.errors import MalformedInput
from orbipar.liemodel import GroupModel, alcove_normalize, beta_of_basis
from orbipar.localseries import DOWNSTAIRS, UPSTAIRS, GradedSeries
from orbipar.matrices import CycMatrix
from orbipar.moduli import StratumIndex
from orbipar.pseudoreps import PseudoRep, PseudoRepClass, VerifyReport
from orbipar.scalars import (Cyclotomic, FractionalWeight, cyclotomic_poly, euler_phi,
                             root_of_unity)

MODELS_GRID = [GroupModel("gl", r=2), GroupModel("gl", r=3),
               GroupModel("sl", r=2), GroupModel("upq", p=1, q=1)]
N_GRID = [2, 3, 4, 6]


def random_cyclotomic(rng, orders=(1, 2, 3, 4), span=5):
    M = rng.choice(orders)
    coeffs = [Fraction(rng.randint(-span, span), rng.randint(1, 3))
              for _ in range(euler_phi(M))]
    return Cyclotomic(M, coeffs)


def random_nonzero_cyclotomic(rng, orders=(1, 2, 3, 4), span=5):
    while True:
        c = random_cyclotomic(rng, orders, span)
        if not c.is_zero():
            return c


def random_invertible(rng, r, span=3):
    while True:
        rows = [[rng.randint(-span, span) for _ in range(r)] for _ in range(r)]
        mat = CycMatrix(rows)
        if not mat.det().is_zero():
            return mat


def random_cochain(rng, factors, m):
    """A random normalized 2-cochain table (not necessarily a cocycle)."""
    g = FiniteAbelianGroup(factors)
    n = g.order
    table = np.zeros((n, n), dtype=np.int64)
    table[1:, 1:] = [[rng.randrange(m) for _ in range(n - 1)] for _ in range(n - 1)]
    return Cochain2(g, CoefficientGroup(m), table.tolist())


def random_cyclic_cochain(rng, n, m):
    return random_cochain(rng, [n], m)


def random_cyclic_cocycle(rng, n, m):
    """A uniformly random element of Z^2(Z/n, Z/m), by seeding the first column.

    Every seed column propagates to a cocycle: the seed map is a bijection
    from (Z/m)^(n-1) onto Z^2, which has exactly m^(n-1) elements.
    """
    g = FiniteAbelianGroup([n])
    table = np.zeros((n, n), dtype=np.int64)
    for a in range(1, n):
        table[a, 1] = rng.randrange(m)
    for b in range(1, n - 1):
        # c(a, g^{b+1}) = c(a + g^b, g) + c(a, g^b) - c(g^b, g)
        for a in range(n):
            table[a, b + 1] = (table[(a + b) % n, 1] + table[a, b] - table[b, 1]) % m
    c = Cochain2(g, CoefficientGroup(m), table.tolist())
    assert is_cocycle(c).ok
    return c


def random_pseudorep(rng, n, m, r):
    """A verified pseudorep: random cocycle, admissible eigenvalues, conjugated."""
    c = random_cyclic_cocycle(rng, n, m)
    z = zeta(c, (1 % n,))
    base = z.value / n
    candidates = [(base + Fraction(j, n)) % 1 for j in range(n)]
    exps = [candidates[rng.randrange(n)] for _ in range(r)]
    diag = CycMatrix.diagonal([root_of_unity(q) for q in exps])
    g = random_invertible(rng, r)
    gen_image = g.inverse() @ diag @ g
    return PseudoRep.from_generator(c, gen_image)


def interior_weights(model, N):
    """Every interior alcove weight whose entries have denominator dividing N."""
    grid = [Fraction(k, N) for k in range(N)]
    out = []
    if model.kind == "gl":
        for combo in combinations(grid, model.size):
            out.append(alcove_normalize(model, list(combo)))
    elif model.kind == "sl":
        seen = set()
        for combo in product(grid, repeat=model.size):
            if sum(combo).denominator != 1:
                continue
            w = alcove_normalize(model, list(combo))
            if w.values() not in seen:
                seen.add(w.values())
                out.append(w)
    else:
        blocks = [combinations(grid, len(blk)) for blk in model.blocks]
        for combo in product(*blocks):
            flat = [v for blk in combo for v in blk]
            out.append(alcove_normalize(model, flat))
    return [w for w in out if w.is_interior()]


def invariant_exponents(beta, N, trunc):
    """All k in [0, trunc] with k = N*l - N*beta - 1 for integral l."""
    base = (-int(N * beta.value) - 1) % N
    return list(range(base, trunc + 1, N))


def random_invariant_series(rng, model, weight, N, trunc, density=0.5):
    betas = beta_of_basis(model, weight)
    terms = {}
    for b in range(model.dim_m):
        for k in invariant_exponents(betas[b], N, trunc):
            if rng.random() < density:
                terms[(b, k)] = random_nonzero_cyclotomic(rng)
    return GradedSeries(model, weight, N, UPSTAIRS, trunc, terms)


def random_downstairs_series(rng, model, weight, N, trunc, density=0.5):
    """A downstairs series with poles supported only on negative components."""
    betas = beta_of_basis(model, weight)
    terms = {}
    for b in range(model.dim_m):
        lo = -1 if betas[b].value < 0 else 0
        for k in range(lo, trunc + 1):
            if rng.random() < density:
                terms[(b, k)] = random_nonzero_cyclotomic(rng)
    return GradedSeries(model, weight, N, DOWNSTAIRS, trunc, terms)


# -- brute-force oracles ------------------------------------------------------

def _mixed_radix(count: int, digits: int, base: int, start: int):
    """Rows start..start+count of all base^digits tuples, lexicographic."""
    out = np.zeros((count, digits), dtype=np.int64)
    idx = np.arange(start, start + count)
    for d in range(digits - 1, -1, -1):
        out[:, d] = idx % base
        idx //= base
    return out


_CHUNK = 1 << 15


def _coboundary_batches(g: FiniteAbelianGroup, m: int):
    """Yield (f-values, coboundary tables) over all normalized f, in chunks."""
    n = g.order
    total = m ** (n - 1)
    for start in range(0, total, _CHUNK):
        count = min(_CHUNK, total - start)
        fs = _mixed_radix(count, n - 1, m, start)
        f_full = np.concatenate([np.zeros((count, 1), dtype=np.int64), fs], axis=1)
        tables = (f_full[:, np.asarray(g.prod)] - f_full[:, :, None] - f_full[:, None, :]) % m
        yield fs, tables


def _cocycle_batches(g: FiniteAbelianGroup, m: int, max_candidates: int | None):
    """Enumerate Z^2(G, Z/m) by seeding generator columns and verifying.

    A normalized 2-cochain is determined by its generator columns through
    c(a, p+g) = c(a+p, g) + c(a, p) - c(p, g); every derived table is then
    checked against the full cocycle identity, so the output is exactly the
    set of cocycles.
    """
    n = g.order
    gens = g.generators()
    t = len(gens)
    seeds_total = m ** (t * (n - 1)) if n > 1 else 1
    bound = DEFAULT_SCALE_BOUND if max_candidates is None else max_candidates
    if seeds_total > bound:
        raise ValueError(f"{seeds_total} candidate tables exceed bound {bound}")
    if n == 1:
        yield np.zeros((1, 1, 1), dtype=np.int64)
        return

    gen_idx = [g.index[x] for x in gens]
    # fill order: by total exponent, so each element e = p + gen with p earlier
    order = sorted(range(n), key=lambda i: (sum(g.elements[i]), g.elements[i]))
    decomp = {}
    for i in order:
        e = g.elements[i]
        if sum(e) < 2 or i in gen_idx:
            continue
        j = max(k for k, x in enumerate(e) if x)
        gen = tuple(1 if k == j else 0 for k in range(len(e)))
        p = tuple(x - (1 if k == j else 0) for k, x in enumerate(e))
        decomp[i] = (g.index[p], g.index[gen])

    p_tab = np.asarray(g.prod)
    I, J, K = [a.reshape(-1) for a in
               np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")]
    PIJ, PJK = p_tab[I, J], p_tab[J, K]

    for start in range(0, seeds_total, _CHUNK):
        count = min(_CHUNK, seeds_total - start)
        seeds = _mixed_radix(count, t * (n - 1), m, start)
        T = np.zeros((count, n, n), dtype=np.int64)
        for jg, gi in enumerate(gen_idx):
            T[:, 1:, gi] = seeds[:, jg * (n - 1):(jg + 1) * (n - 1)]
        for i in order:
            if i not in decomp:
                continue
            pi, gi = decomp[i]
            T[:, :, i] = (T[np.arange(count)[:, None], p_tab[:, pi][None, :], gi]
                          + T[:, :, pi] - T[:, pi, gi][:, None]) % m
        lhs = (T[:, PIJ, K] + T[:, I, J] - T[:, I, PJK] - T[:, J, K]) % m
        good = (lhs == 0).all(axis=1)
        if good.any():
            yield T[good]


def brute_force_h2(group: FiniteAbelianGroup, m: int) -> list[Cochain2]:
    """Lexicographically least table of each class: every cocycle, sorted,
    with the coboundary coset of each new representative struck out."""
    n = group.order
    cocycles = np.concatenate([b.reshape(b.shape[0], n * n)
                               for b in _cocycle_batches(group, m, None)])
    cob = np.unique(np.concatenate([t.reshape(t.shape[0], n * n)
                                    for _, t in _coboundary_batches(group, m)]), axis=0)
    reps, seen = [], set()
    for row in cocycles[np.lexsort(cocycles.T[::-1])]:
        if row.tobytes() in seen:
            continue
        reps.append(Cochain2(group, CoefficientGroup(m), row.reshape(n, n).tolist()))
        seen.update(r.tobytes() for r in (row[None, :] + cob) % m)
    return reps


def _table_identity(table) -> int:
    n = len(table)
    for e in range(n):
        if np.array_equal(table[e, :], np.arange(n)):
            return e
    raise ValueError("table has no identity")


def _table_orders(table):
    n = len(table)
    e = _table_identity(table)
    orders = []
    for i in range(n):
        k, cur = 1, i
        while cur != e:
            cur = int(table[cur, i])
            k += 1
        orders.append(k)
    return orders, e


def tables_isomorphic(ta, tb) -> bool:
    """Exhaustive isomorphism search between two Cayley tables (desk scale)."""
    ta, tb = np.asarray(ta), np.asarray(tb)
    n = len(ta)
    if len(tb) != n:
        return False
    orders_a, ea = _table_orders(ta)
    orders_b, eb = _table_orders(tb)
    if sorted(orders_a) != sorted(orders_b):
        return False

    # greedy generating sequence for ta
    gens = []
    closure = {ea}
    for x in range(n):
        if x not in closure:
            gens.append(x)
            frontier = set(closure) | {x}
            while True:
                new = {int(ta[a, b]) for a in frontier for b in frontier} - frontier
                if not new:
                    break
                frontier |= new
            closure = frontier

    # express every element as (parent, generator) via BFS
    word = {ea: None}
    queue = [ea]
    while queue:
        cur = queue.pop(0)
        for gi in gens:
            nxt = int(ta[cur, gi])
            if nxt not in word:
                word[nxt] = (cur, gi)
                queue.append(nxt)
    assert len(word) == n

    by_order_b = {}
    for i, o in enumerate(orders_b):
        by_order_b.setdefault(o, []).append(i)

    bfs_order = sorted(word, key=lambda x: 0 if word[x] is None else 1)

    def extend(assignment):
        if len(assignment) == len(gens):
            phi = {ea: eb}
            for x in bfs_order:
                if word[x] is None:
                    continue
                parent, gi = word[x]
                phi[x] = int(tb[phi[parent], assignment[gi]])
            if len(set(phi.values())) != n:
                return False
            for a in range(n):
                for b in range(n):
                    if phi[int(ta[a, b])] != int(tb[phi[a], phi[b]]):
                        return False
            return True
        gi = gens[len(assignment)]
        for cand in by_order_b.get(orders_a[gi], []):
            if cand in assignment.values():
                continue
            nxt = dict(assignment)
            nxt[gi] = cand
            if extend(nxt):
                return True
        return False

    return extend({})


def _isomorphic_to(self, other: ExtensionGroup) -> bool:
    return tables_isomorphic(self.table, other.table)


# the isomorphism search is a test oracle only; tests call it as a method
ExtensionGroup.isomorphic_to = _isomorphic_to


def _multiplicative_order(self: Cyclotomic):
    """Order as a root of unity, or None if the element is not one.

    Roots of unity in Q(zeta_M) form the cyclic group of order lcm(2, M),
    so trial exponentiation up to that bound is exhaustive.
    """
    L = self.order if self.order % 2 == 0 else 2 * self.order
    acc = self
    for d in range(1, L + 1):
        if acc.is_one():
            return d
        acc = acc * self
    return None


# trial exponentiation is a test oracle only; tests call it as a method
Cyclotomic.multiplicative_order = _multiplicative_order


# -- arithmetic that no verb reaches; the tests call it as methods -------------

def _is_one(self: Cyclotomic) -> bool:
    return self.coeffs[0] == 1 and all(c == 0 for c in self.coeffs[1:])


def _truediv(self: Cyclotomic, other):
    if isinstance(other, (int, Fraction)):
        return self * (Fraction(1) / Fraction(other))
    a, b = self._common(other)
    return a * b.inverse()


def _power(identity, mul):
    """x ** n by repeated squaring from identity(x); n < 0 goes through inverse()."""
    def power(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out, base = identity(self), self
        while n:
            if n & 1:
                out = mul(out, base)
            base = mul(base, base)
            n >>= 1
        return out
    return power


Cyclotomic.is_one = _is_one
Cyclotomic.__truediv__ = _truediv
Cyclotomic.__pow__ = _power(lambda x: Cyclotomic.one(x.order), operator.mul)
CycMatrix.__pow__ = _power(lambda A: CycMatrix.identity(A.size), operator.matmul)


def _diagonal(cls, entries) -> CycMatrix:
    entries = list(entries)
    r = len(entries)
    return cls([[entries[i] if i == j else 0 for j in range(r)] for i in range(r)])


CycMatrix.diagonal = classmethod(_diagonal)
CycMatrix.scalar = classmethod(lambda cls, r, value: cls.diagonal([value] * r))


def _from_generator(cls, cochain: Cochain2, gen_image: CycMatrix) -> PseudoRep:
    """Extend an image of the canonical generator along the composition rule."""
    group = cochain.group
    coeff = cochain.coefficients
    images = [CycMatrix.identity(gen_image.size)]
    gen = (1 % group.order,)
    cur_elt = group.identity
    for _ in range(group.order - 1):
        # sigma(g) sigma(g^k) = c(g, g^k) sigma(g^{k+1})
        nxt = (gen_image @ images[-1]).scale(coeff.value(-cochain.value(gen, cur_elt)))
        images.append(nxt)
        cur_elt = group.add(cur_elt, gen)
    return cls(cochain, images)


def _conjugate(self: PseudoRep, g: CycMatrix) -> PseudoRep:
    g_inv = g.inverse()
    return PseudoRep(self.cochain, [g_inv @ im @ g for im in self.images])


PseudoRep.from_generator = classmethod(_from_generator)
PseudoRep.conjugate = _conjugate
PseudoRep.image = lambda self, element: self.images[self.group.index[tuple(element)]]


def _cochain_key(self: Cochain2):
    return tuple(x for row in self.table for x in row)


def _cochain_mul(self: Cochain2, other: Cochain2) -> Cochain2:
    if self.group != other.group or self.coefficients.order != other.coefficients.order:
        raise MalformedInput("cochains live over different (group, coefficients)")
    return Cochain2(self.group, self.coefficients,
                    [[x + y for x, y in zip(r, s)] for r, s in zip(self.table, other.table)])


Cochain2.trivial = classmethod(
    lambda cls, group, m: cls(group, CoefficientGroup(m), [[0] * group.order] * group.order))
Cochain2.key = _cochain_key
Cochain2.mul = _cochain_mul
StratumIndex.canonical_key = lambda self: (
    self.cocycle.key(), tuple(c.exponent_values() for c in self.orbit_classes))


def _series_scale(self: GradedSeries, c) -> GradedSeries:
    return self.with_terms({key: coeff * c for key, coeff in self.terms.items()})


def _series_add(self: GradedSeries, other: GradedSeries) -> GradedSeries:
    if (self.model != other.model or self.weight.values() != other.weight.values()
            or self.N != other.N or self.variable != other.variable):
        raise MalformedInput("series live on different local models")
    trunc = min(self.trunc, other.trunc)
    terms = {}
    for (b, k), c in list(self.terms.items()) + list(other.terms.items()):
        if k <= trunc:
            terms[(b, k)] = terms.get((b, k), Cyclotomic.zero()) + c
    return GradedSeries(self.model, self.weight, self.N, self.variable, trunc, terms)


def _equal_on_common_range(self: GradedSeries, other: GradedSeries) -> bool:
    """Exact term equality on exponents valid for both series."""
    t = min(self.trunc, other.trunc)
    mine = {k: v for k, v in self.terms.items() if k[1] <= t}
    theirs = {k: v for k, v in other.terms.items() if k[1] <= t}
    if set(mine) != set(theirs):
        return False
    return all(mine[k] == theirs[k] for k in mine)


GradedSeries.is_zero = lambda self: not self.terms
GradedSeries.scale = _series_scale
GradedSeries.add = _series_add
GradedSeries.equal_on_common_range = _equal_on_common_range


# -- the per-term Fraction product: an oracle for the integer-numerator kernel --

def _fraction_reduce(M: int, poly) -> list:
    """poly mod Phi_M by schoolbook long division, one Fraction per term."""
    modulus = cyclotomic_poly(M)
    phi = len(modulus) - 1
    p = [Fraction(c) for c in poly] + [Fraction(0)] * (phi - len(poly))
    for i in range(len(p) - 1, phi - 1, -1):
        c = p[i]
        if c:
            for j, t in enumerate(modulus):
                p[i - phi + j] -= c * t
    return p[:phi]


def fraction_embed(x: Cyclotomic, L: int) -> list:
    """The coefficients of x in Q(zeta_L), through zeta_M -> zeta_L^(L/M)."""
    step = L // x.order
    poly = [Fraction(0)] * ((len(x.coeffs) - 1) * step + 1)
    poly[::step] = x.coeffs
    return _fraction_reduce(L, poly)


def fraction_product(a: Cyclotomic, b: Cyclotomic) -> Cyclotomic:
    """a*b in the lcm field, with a Fraction built for every term."""
    L = lcm(a.order, b.order)
    x, y = fraction_embed(a, L), fraction_embed(b, L)
    poly = [Fraction(0)] * (len(x) + len(y) - 1)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            poly[i + j] += xi * yj
    return Cyclotomic(L, _fraction_reduce(L, poly))


def fraction_matmul(A: CycMatrix, B: CycMatrix) -> CycMatrix:
    """A @ B summed term by term from 0: entry ij lies in the lcm field of the
    orders of its nonzero terms a_ik b_kj, and is the order-1 zero without one."""
    rows = []
    for i in range(A.size):
        row = []
        for j in range(A.size):
            terms = [fraction_product(A.rows[i][k], B.rows[k][j]) for k in range(A.size)
                     if not A.rows[i][k].is_zero() and not B.rows[k][j].is_zero()]
            L = lcm(*[t.order for t in terms])
            acc = [Fraction(0)] * euler_phi(L)
            for t in terms:
                acc = [u + v for u, v in zip(acc, fraction_embed(t, L))]
            row.append(Cyclotomic(L, acc))
        rows.append(row)
    return CycMatrix(rows)


# -- pseudorepresentations by brute force: oracles for the generator-row check --

def exhaustive_verify(sigma: PseudoRep) -> VerifyReport:
    """The composition rule multiplied out on all n^2 pairs, plus sigma(1) = Id."""
    if not sigma.images[0].is_identity():
        return VerifyReport(False, (sigma.group.identity, sigma.group.identity))
    g = sigma.group
    coeff = sigma.cochain.coefficients
    for a in g.elements:
        sa = sigma.image(a)
        for b in g.elements:
            lhs = sa @ sigma.image(b)
            rhs = sigma.image(g.add(a, b)).scale(coeff.value(sigma.cochain.value(a, b)))
            if lhs != rhs:
                return VerifyReport(False, (a, b))
    return VerifyReport(True, None)


def poly_eval(coeffs, x: Cyclotomic) -> Cyclotomic:
    acc = Cyclotomic.zero(x.order)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_deflate(coeffs, root: Cyclotomic):
    """Divide a monic-led polynomial by (x - root); remainder must be zero."""
    out = []
    carry = Cyclotomic.zero(root.order)
    for c in reversed(coeffs):
        carry = c + carry * root
        out.append(carry)
    remainder = out.pop()
    if not remainder.is_zero():
        raise ValueError("not a root")
    return list(reversed(out))


def charpoly_eigenvalues(A: CycMatrix, order_bound: int) -> list[Fraction]:
    """Eigenvalue exponents of A, assuming all eigenvalues are roots of unity
    of order dividing order_bound.  Trial evaluation over k/order_bound with
    multiplicities by synthetic division; raises if the assumption fails.
    """
    p = A.charpoly()
    found = []
    for k in range(order_bound):
        q = Fraction(k, order_bound)
        lam = root_of_unity(q, order_bound)
        while len(p) > 1 and poly_eval(p, lam).is_zero():
            p = poly_deflate(p, lam)
            found.append(q)
    if len(found) != A.size:
        raise ValueError("matrix has eigenvalues outside the trial roots of unity")
    return sorted(found, reverse=True)


def charpoly_classify(sigma: PseudoRep) -> PseudoRepClass:
    """classify of a valid pseudorep through zeta of the cocycle and the trial
    roots of the characteristic polynomial of sigma(g)."""
    n = sigma.order
    m = sigma.cochain.coefficients.order
    gen = (1 % n,)
    exps = charpoly_eigenvalues(sigma.image(gen), lcm(n * m, 2))
    return PseudoRepClass(n, zeta(sigma.cochain, gen),
                          tuple(FractionalWeight(q) for q in exps))
