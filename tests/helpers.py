"""Shared generators for randomized suites: cocycles, pseudoreps, series.

Also the brute-force oracles the tests compare against: the exhaustive
enumeration of cocycles and coboundaries, H^2 by striking out coboundary
cosets, the Howell form of the coboundaries over Z/m (_gcdex, _howell_form,
_combine, _reduce, _coboundary_form), which reduces a cocycle to the least
table of its class and so certifies h2_classes, the cocycle identity
scanned on every triple (for is_cocycle), the product table by adding
exponent tuples (for FiniteAbelianGroup.prod), element orders and
cyclicity by repeated addition, central extensions as Cayley tables with
every group axiom scanned and element orders by repeated multiplication, an
exhaustive isomorphism search between Cayley tables, the order of a root of
unity by trial exponentiation, cyclotomic and matrix products computed with
a Fraction for every term, the composition rule of a pseudorepresentation
checked on all n^2 pairs, pseudorep classes enumerated, projected and
checked with a Fraction for every exponent, eigenvalues by a trial search
over the roots of the characteristic polynomial, the parabolic masks
checked by brackets of basis pairs, invariance by substituting roots of
unity into each basis matrix, the residue's support and Levi verdicts by
scanning its entries against the masks of s = alpha, the basis matrix of a
key read from the README's definition (not from GroupModel.entries), the
power sums of zeta by adding exponent tuples, input rationals read by
Fraction(), and the strata, cochains and pseudoreps encoded with every
cochain table a list of [i, j, "k/m"] cells, the strata as one dict per
stratum.  strata_list lists the strata one StratumIndex each, in the order
jsonio renders them.

And the conveniences that only tests call, attached to the library classes
as methods: the Fraction coefficients, subtraction, powers, division and
is_one on cyclotomics, identity, diagonal and scalar matrices, is_identity,
matrix powers and scalar multiples, the generators of a group and the sum
of two of its elements, a cochain's value at a pair of elements, its key
and products, pseudorepresentations from a generator image, their images by
element and their conjugates, and series sums and comparisons.  coboundary
builds df, are_cohomologous finds an f with c2 = df * c1 by the Howell
reduction, and restrict pulls a cocycle back to a subgroup;
decompose_by_beta splits a series into its eigencomponents, and
induced_cocycle pushes a cocycle's values along mu_m -> mu_m'.  restrict
raises NotASubgroup and induced_cocycle NotAHomomorphism, DomainErrors with
a code like the library's.
"""

import operator
import re
from collections import namedtuple
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import lcm

import numpy as np

from orbipar import jsonio
from orbipar.cocycles import (DEFAULT_SCALE_BOUND, Cochain2, Extension,
                              FiniteAbelianGroup, Verdict, is_cocycle, zeta)
from orbipar.errors import DomainError, MalformedInput, NotACocycle, ScaleExceeded
from orbipar.jsonio import MAX_RATIONAL_DIGITS, rational_parts
from orbipar.liemodel import GroupModel, ParabolicData, alcove_normalize
from orbipar.localseries import DOWNSTAIRS, UPSTAIRS, GradedSeries
from orbipar.matrices import CycMatrix
from orbipar.pseudoreps import PseudoRep, PseudoRepClass, QuotientClass
from orbipar.scalars import Cyclotomic, cyclotomic_poly, euler_phi, root_of_unity

MODELS_GRID = [GroupModel("gl", r=2), GroupModel("gl", r=3),
               GroupModel("sl", r=2), GroupModel("upq", p=1, q=1)]
N_GRID = [2, 3, 4, 6]


def cyclotomic(M: int, coeffs) -> Cyclotomic:
    """The element sum coeffs[i] x^i of Q(zeta_M), from phi(M) ints or Fractions."""
    coeffs = [Fraction(c) for c in coeffs]
    den = lcm(*[c.denominator for c in coeffs])
    return Cyclotomic(M, tuple(c.numerator * (den // c.denominator) for c in coeffs), den)


def matrix(rows) -> CycMatrix:
    """A CycMatrix from rows of ints, Fractions and Cyclotomics, as tests write them."""
    return CycMatrix([[x if isinstance(x, Cyclotomic) else Cyclotomic.from_rational(x)
                       for x in row] for row in rows])


def basis_array(model: GroupModel, key) -> np.ndarray:
    """The basis element of m^C (or h^C) with wire key [i, j], read from the
    README's definition: the matrix unit E_ij, and for sl models with i == j
    the diagonal difference E_ii - E_{i+1,i+1}."""
    i, j = key
    out = np.zeros((model.size, model.size), dtype=np.int64)
    out[i, j] = 1
    if model.kind == "sl" and i == j:
        out[i + 1, i + 1] = -1
    return out


def basis_matrix(model: GroupModel, key) -> CycMatrix:
    """basis_array as a CycMatrix of rationals."""
    return matrix(basis_array(model, key).tolist())


def random_cyclotomic(rng, orders=(1, 2, 3, 4), span=5):
    M = rng.choice(orders)
    coeffs = tuple(Fraction(rng.randint(-span, span), rng.randint(1, 3))
                   for _ in range(euler_phi(M)))
    return cyclotomic(M, coeffs)


def random_nonzero_cyclotomic(rng, orders=(1, 2, 3, 4), span=5):
    while True:
        c = random_cyclotomic(rng, orders, span)
        if not c.is_zero():
            return c


def random_invertible(rng, r, span=3):
    while True:
        rows = [[rng.randint(-span, span) for _ in range(r)] for _ in range(r)]
        mat = matrix(rows)
        if not mat.det().is_zero():
            return mat


def random_cochain(rng, factors, m):
    """A random normalized 2-cochain table (not necessarily a cocycle)."""
    g = FiniteAbelianGroup(factors)
    n = g.order
    table = np.zeros((n, n), dtype=np.int64)
    table[1:, 1:] = [[rng.randrange(m) for _ in range(n - 1)] for _ in range(n - 1)]
    return Cochain2(g, m, table.tolist())


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
    c = Cochain2(g, m, table.tolist())
    assert is_cocycle(c).ok
    return c


def random_pseudorep(rng, n, m, r):
    """A verified pseudorep: random cocycle, admissible eigenvalues, conjugated."""
    c = random_cyclic_cocycle(rng, n, m)
    z = zeta(c, (1 % n,))
    base = z / n
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
            if w.entries not in seen:
                seen.add(w.entries)
                out.append(w)
    else:
        blocks = [combinations(grid, len(blk)) for blk in model.blocks]
        for combo in product(*blocks):
            flat = [v for blk in combo for v in blk]
            out.append(alcove_normalize(model, flat))
    return [w for w in out if w.is_interior()]


def invariant_exponents(beta, N, trunc):
    """All k in [0, trunc] with k = N*l - N*beta - 1 for integral l."""
    base = (-int(N * beta) - 1) % N
    return list(range(base, trunc + 1, N))


def random_invariant_series(rng, model, weight, N, trunc, density=0.5):
    betas = weight.beta
    terms = {}
    for key in model.basis:
        for k in invariant_exponents(betas[key], N, trunc):
            if rng.random() < density:
                terms[(key, k)] = random_nonzero_cyclotomic(rng)
    return GradedSeries(weight, N, UPSTAIRS, trunc, terms)


def random_downstairs_series(rng, model, weight, N, trunc, density=0.5):
    """A downstairs series with poles supported only on negative components."""
    betas = weight.beta
    terms = {}
    for key in model.basis:
        lo = -1 if betas[key] < 0 else 0
        for k in range(lo, trunc + 1):
            if rng.random() < density:
                terms[(key, k)] = random_nonzero_cyclotomic(rng)
    return GradedSeries(weight, N, DOWNSTAIRS, trunc, terms)


# -- the cocycle API that no verb reaches; tests call it as functions and methods

class NotASubgroup(DomainError):
    code = "not_a_subgroup"


class NotAHomomorphism(DomainError):
    code = "not_a_homomorphism"


def _generators(self: FiniteAbelianGroup):
    """The standard basis elements, one per cyclic factor of size > 1."""
    gens = []
    for j, n in enumerate(self.factors):
        if n > 1:
            gens.append(tuple(1 if i == j else 0 for i in range(len(self.factors))))
    return gens


FiniteAbelianGroup.generators = _generators
FiniteAbelianGroup.add = lambda self, a, b: tuple(
    (x + y) % n for x, y, n in zip(a, b, self.factors))
Cochain2.value = lambda self, a, b: self.table[self.group.index[a]][self.group.index[b]]


def tuple_add_table(group: FiniteAbelianGroup):
    """The product table by adding exponent tuples and looking the sum up:
    the oracle for FiniteAbelianGroup.prod."""
    return tuple(tuple(group.index[group.add(a, b)] for b in group.elements)
                 for a in group.elements)


def scan_is_cocycle(c: Cochain2) -> Verdict:
    """The cocycle identity checked on every triple in row-major order, the
    first failing triple its witness: the oracle for is_cocycle."""
    g, t, m = c.group, c.table, c.coeff_order
    p, span = g.prod, range(1, g.order)
    for a in span:
        for b in span:
            for d in span:
                if (t[p[a][b]][d] + t[a][b] - t[a][p[b][d]] - t[b][d]) % m:
                    return Verdict(False, (g.elements[a], g.elements[b], g.elements[d]))
    return Verdict(True, None)


def coboundary(group: FiniteAbelianGroup, m: int, f) -> Cochain2:
    """The 2-cocycle (a,b) -> f(ab) f(a)^-1 f(b)^-1 for a 1-cochain f with f(1)=1.

    f is given as exponents in Z/m, one per element in canonical order.
    """
    f = [x % m for x in f]
    if len(f) != group.order:
        raise MalformedInput(f"need {group.order} values for f")
    if f[0] != 0:
        raise MalformedInput("f(1) must equal 1")
    table = [[(f[p] - fa - fb) % m for p, fb in zip(row, f)]
             for row, fa in zip(group.prod, f)]
    return Cochain2(group, m, table)


def _gcdex(a: int, b: int):
    """(g, s, t) with s*a + t*b = g = gcd(a, b), for a, b >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b, s0, s1, t0, t1 = b, a - q * b, s1, s0 - q * s1, t1, t0 - q * t1
    return a, s0, t0


def _howell_form(rows, m: int):
    """Howell form of the span of `rows` over Z/m, as (pivot column, row) pairs.

    The rows are in echelon form, each pivot d divides m, and (m/d) * row lies
    in the span of the rows after it (Howell 1986; Storjohann 2000).  So the
    members of the span that vanish before column k are spanned by the rows
    pivoting at or after k, which is what makes `_reduce` lexicographic.
    """
    work = [r for r in ([x % m for x in r] for r in rows) if any(r)]
    form = []
    while work:
        col = min(next(i for i, x in enumerate(r) if x) for r in work)
        piv, rest = None, []
        for r in work:
            if not r[col]:
                rest.append(r)
            elif piv is None:
                piv = r
            else:  # a unimodular pair of combinations: gcd pivot, zero below
                a, b = piv[col], r[col]
                g, s, t = _gcdex(a, b)
                piv, r = _combine(s, piv, t, r, m), _combine(b // g, piv, -(a // g), r, m)
                rest.append(r)
        # s*piv has pivot d = gcd(a, m); it and (m/d)*piv span what piv did
        d, s, _ = _gcdex(piv[col], m)
        form.append((col, [s * x % m for x in piv]))
        rest.append([m // d * x % m for x in piv])
        work = [r for r in rest if any(r)]
    return form


def _combine(s: int, u, t: int, v, m: int):
    return [(s * x + t * y) % m for x, y in zip(u, v)]


def _reduce(vector, form, m: int):
    """The lexicographically least member of the vector's coset of the span."""
    for col, row in form:
        q = vector[col] // row[col]
        if q:
            vector = _combine(1, vector, -q, row, m)
    return vector


def _coboundary_form(group: FiniteAbelianGroup, m: int):
    """Howell form of the rows [d(e_g) | e_g], g != 1: a table, then its f."""
    n, prod = group.order, group.prod
    rows = []
    for g in range(1, n):
        # d(e_g)(a, b) = [ab = g] - [a = g] - [b = g]
        table = [(p == g) - (a == g) - (b == g)
                 for a, row in enumerate(prod) for b, p in enumerate(row)]
        rows.append(table + [int(h == g) for h in range(1, n)])
    return _howell_form(rows, m)


def are_cohomologous(c1: Cochain2, c2: Cochain2):
    """Whether c2 = (df) * c1 for a normalized f; returns (bool, f|None)."""
    if c1.group != c2.group or c1.coeff_order != c2.coeff_order:
        raise MalformedInput("cochains live over different (group, coefficients)")
    for c in (c1, c2):
        v = is_cocycle(c)
        if not v.ok:
            raise NotACocycle(f"cocycle condition fails at {v.witness}")
    g, m = c1.group, c1.coeff_order
    n = g.order
    diff = [(y - x) % m for r1, r2 in zip(c1.table, c2.table) for x, y in zip(r1, r2)]
    rest = _reduce(diff + [0] * (n - 1), _coboundary_form(g, m), m)
    if any(rest[:n * n]):
        return False, None
    return True, [0] + [-x % m for x in rest[n * n:]]


def restrict(c: Cochain2, subgroup: FiniteAbelianGroup, gen_images) -> Cochain2:
    """Restrict c along an embedding of `subgroup` sending its generators to gen_images."""
    g = c.group
    gens = subgroup.generators()
    if len(gen_images) != len(gens):
        raise NotASubgroup(f"expected {len(gens)} generator images")
    gen_images = [tuple(x) for x in gen_images]
    # build the embedding and check it is an injective homomorphism
    embed = {}
    for h in subgroup.elements:
        img = g.identity
        for coord, im in zip(h, gen_images):
            for _ in range(coord):
                img = g.add(img, im)
        embed[h] = img
    for h, im in embed.items():
        if subgroup.element_order(h) != g.element_order(im):
            raise NotASubgroup(f"generator image orders do not match at {h}")
    if len(set(embed.values())) != subgroup.order:
        raise NotASubgroup("embedding is not injective")
    table = [[c.value(embed[a], embed[b]) for b in subgroup.elements]
             for a in subgroup.elements]
    return Cochain2(subgroup, c.coeff_order, table)


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
        reps.append(Cochain2(group, m, row.reshape(n, n).tolist()))
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


def _isomorphic_to(self, other) -> bool:
    return tables_isomorphic(self.table, other.table)


# the isomorphism search is a test oracle only; tests call it as a method
Extension.isomorphic_to = _isomorphic_to


# -- groups and their extensions by repeated multiplication: oracles for the --
# -- closed forms of FiniteAbelianGroup and central_extension

def brute_force_element_order(group: FiniteAbelianGroup, a) -> int:
    """The order of a, adding it to itself until the identity comes back."""
    cur, k = a, 1
    while any(cur):
        cur = group.add(cur, a)
        k += 1
    return k


def brute_force_power_sums(c: Cochain2, a) -> list:
    """T_j = sum_{i<j} c(a, a^i) for j = 0..ord(a), the powers a^i by adding
    exponent tuples: the oracle for cocycles.power_sums."""
    powers = [c.group.identity]
    for _ in range(brute_force_element_order(c.group, a) - 1):
        powers.append(c.group.add(powers[-1], a))
    return [sum(c.value(a, x) for x in powers[:j]) for j in range(len(powers) + 1)]


def brute_force_is_cyclic(group: FiniteAbelianGroup) -> bool:
    return any(brute_force_element_order(group, e) == group.order for e in group.elements)


def extension_table(c: Cochain2):
    """Cayley table of Z/m x G with (z,a)(z',b) = (z + z' + c(a,b), ab), element
    z * |G| + (index of a), without any group-axiom checks."""
    m, n = c.coeff_order, c.group.order
    t, p = c.table, c.group.prod
    return tuple(tuple((z1 + z2 + t[a][b]) % m * n + p[a][b] for z2 in range(m) for b in range(n))
                 for z1 in range(m) for a in range(n))


def table_is_associative(table) -> bool:
    """(ij)k = i(jk) on every triple, for a table of tuples as `extension_table` builds."""
    return all(table[ti[j]] == tuple(map(ti.__getitem__, tj))
               for ti in table for j, tj in enumerate(table))


class ExtensionGroup:
    """The extension of a cochain as its Cayley table, its facts scanned off it."""

    def __init__(self, cochain: Cochain2):
        self.order = cochain.coeff_order * cochain.group.order
        self.table = extension_table(cochain)

    def element_order(self, i: int) -> int:
        k, cur = 1, i
        while cur != 0:
            cur = self.table[cur][i]
            k += 1
        return k

    def order_profile(self):
        return tuple(sorted(self.element_order(i) for i in range(self.order)))

    def is_abelian(self) -> bool:
        return self.table == tuple(zip(*self.table))

    isomorphic_to = _isomorphic_to


def brute_force_extension(c: Cochain2) -> ExtensionGroup:
    """The extension of a cocycle with every group axiom checked on its table:
    associativity, the identity at index 0, inverses, and a central copy of Z/m."""
    ext = ExtensionGroup(c)
    t, identity = ext.table, tuple(range(ext.order))
    assert table_is_associative(t)
    assert t[0] == identity and tuple(row[0] for row in t) == identity
    assert all(0 in row for row in t)
    n = c.group.order
    assert all(t[z] == tuple(row[z] for row in t) for z in range(0, ext.order, n))
    return ext


# -- parabolic closure by brackets of basis pairs: an oracle for the mask rule --

def _h_basis(model: GroupModel):
    """Keys of a basis of h^C: matrix units on its mask, with the diagonal
    differences (i, i), i < n - 1, in place of the diagonal units for sl."""
    n = model.size
    basis = [(i, j) for i in range(n) for j in range(n)
             if model.h_mask[i][j] and not (i == j and model.kind == "sl")]
    if model.kind == "sl":
        basis += [(i, i) for i in range(n - 1)]
    return basis


def _brackets_inside(model: GroupModel, xs, x_mask, ys, y_mask, target) -> bool:
    """[x, y] supported in target for every basis pair supported in the two masks."""
    outside = ~np.asarray(target)

    def supported(keys, mask):
        arrays = (basis_array(model, key) for key in keys)
        return [a for a in arrays if not ((a != 0) & ~np.asarray(mask)).any()]

    return all(not ((x @ y - y @ x != 0) & outside).any()
               for x in supported(xs, x_mask) for y in supported(ys, y_mask))


def _levi_is_intersection(self: ParabolicData) -> bool:
    opposite = ParabolicData(self.model, [-x for x in self.s])
    return np.array_equal(self.l_mask, np.asarray(self.p_mask) & np.asarray(opposite.p_mask))


ParabolicData.levi_is_intersection = _levi_is_intersection
ParabolicData.bracket_closed = lambda self: _brackets_inside(
    self.model, _h_basis(self.model), self.p_mask, _h_basis(self.model), self.p_mask,
    self.p_mask)
ParabolicData.p_preserves_m = lambda self: _brackets_inside(
    self.model, _h_basis(self.model), self.p_mask, self.model.basis, self.ms_mask,
    self.ms_mask)
ParabolicData.levi_preserves_m0 = lambda self: _brackets_inside(
    self.model, _h_basis(self.model), self.l_mask, self.model.basis, self.m0_mask,
    self.m0_mask)


def bracket_scan_verify(data: ParabolicData) -> bool:
    """ParabolicData.verify by brackets of basis pairs and the opposite parabolic."""
    return (data.levi_is_intersection() and data.bracket_closed()
            and data.p_preserves_m() and data.levi_preserves_m0())


# -- invariance by cyclotomic substitution: an oracle for the exponent test ---

def cyclotomic_substitution(series: GradedSeries, twist=None):
    """The violations of check_invariance's substitution verdict, multiplying
    roots of unity: t_i zeta_N^(k+1) against t_j e^{2 pi i twist} on each
    nonzero entry (i, j) of the term's basis matrix."""
    t = Fraction(0) if twist is None else twist % 1
    N = series.N
    torus = [root_of_unity(v) for v in series.weight.entries]
    twist_scalar = root_of_unity(t)
    violations = []
    for key, k in series.terms:
        phase = root_of_unity(Fraction((k + 1) % N, N), N)
        rows = basis_matrix(series.model, key).rows
        if any(torus[i] * phase != torus[j] * twist_scalar
               for i, row in enumerate(rows) for j, e in enumerate(row) if e):
            violations.append((series.beta[key], k, key))
    return violations


# -- the residue's verdicts by a mask scan: an oracle for reading them off beta --

def mask_scan_residue(series: GradedSeries):
    """(residue, support_in_negative_beta, levi_projection_zero) of a
    downstairs series.  The residue sums each pole coefficient times its
    basis_array, and its nonzero entries are scanned against the masks of
    s = alpha: the support lies in beta < 0 iff each of them has s_i < s_j
    (in m_s, off m_s^0), and the Levi projection is zero iff none is on m_s^0."""
    n = series.model.size
    rows = [[Cyclotomic.zero()] * n for _ in range(n)]
    for (key, k), coeff in series.terms.items():
        if k == -1:
            for (i, j), x in np.ndenumerate(basis_array(series.model, key)):
                if x:
                    rows[i][j] = rows[i][j] + coeff * int(x)
    para = ParabolicData(series.model, series.weight.entries)
    nonzero = [(i, j) for i in range(n) for j in range(n) if rows[i][j]]
    return (CycMatrix(rows),
            all(para.ms_mask[i][j] and not para.m0_mask[i][j] for i, j in nonzero),
            not any(para.m0_mask[i][j] for i, j in nonzero))


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


def _identity(cls, r: int) -> CycMatrix:
    one, zero = Cyclotomic.one(), Cyclotomic.zero()
    return cls([[one if i == j else zero for j in range(r)] for i in range(r)])


Cyclotomic.coeffs = property(lambda self: tuple(Fraction(n, self.den) for n in self.nums),
                             doc="The phi(M) coefficients as Fractions.")
Cyclotomic.__sub__ = lambda self, other: self._sum(other, -1)
Cyclotomic.__rsub__ = lambda self, other: (-self) + other
Cyclotomic.is_one = _is_one
Cyclotomic.__truediv__ = _truediv
Cyclotomic.__pow__ = _power(lambda x: Cyclotomic.one(x.order), operator.mul)
CycMatrix.identity = classmethod(_identity)
CycMatrix.is_identity = lambda self: self == CycMatrix.identity(self.size)
CycMatrix.__pow__ = _power(lambda A: CycMatrix.identity(A.size), operator.matmul)


def _diagonal(cls, entries) -> CycMatrix:
    entries = list(entries)
    r = len(entries)
    return matrix([[entries[i] if i == j else 0 for j in range(r)] for i in range(r)])


def _scale(self: CycMatrix, c: Cyclotomic) -> CycMatrix:
    """c times every entry, each product in the lcm field of the two orders."""
    return CycMatrix([[c * x for x in row] for row in self.rows])


CycMatrix.diagonal = classmethod(_diagonal)
CycMatrix.scalar = classmethod(lambda cls, r, value: cls.diagonal([value] * r))
CycMatrix.scale = _scale


def _from_generator(cls, cochain: Cochain2, gen_image: CycMatrix) -> PseudoRep:
    """Extend an image of the canonical generator along the composition rule."""
    group = cochain.group
    m = cochain.coeff_order
    images = [CycMatrix.identity(gen_image.size)]
    gen = (1 % group.order,)
    cur_elt = group.identity
    for _ in range(group.order - 1):
        # sigma(g) sigma(g^k) = c(g, g^k) sigma(g^{k+1})
        scalar = root_of_unity(Fraction(-cochain.value(gen, cur_elt), m), m)
        nxt = (gen_image @ images[-1]).scale(scalar)
        images.append(nxt)
        cur_elt = group.add(cur_elt, gen)
    return cls(cochain, images)


def _conjugate(self: PseudoRep, g: CycMatrix) -> PseudoRep:
    g_inv = g.inverse()
    return PseudoRep(self.cochain, [g_inv @ im @ g for im in self.images])


PseudoRep.from_generator = classmethod(_from_generator)
PseudoRep.conjugate = _conjugate
PseudoRep.image = lambda self, element: self.images[self.group.index[tuple(element)]]


def induced_cocycle(c: Cochain2, target_order: int, generator_image: int) -> Cochain2:
    """Push the coefficient values through z -> z^t seen as mu_m -> mu_m'.

    The map zeta_m -> zeta_m'^t is a homomorphism iff m' divides t*m.
    """
    m, t, m2 = c.coeff_order, generator_image, target_order
    if m2 < 1 or (t * m) % m2 != 0:
        raise NotAHomomorphism(
            f"zeta_{m} -> zeta_{m2}^{t} does not define a homomorphism")
    out = Cochain2(c.group, m2, [[x * t % m2 for x in row] for row in c.table])
    verdict = is_cocycle(out)
    if not verdict.ok:
        raise AssertionError("homomorphic image of a cocycle must be a cocycle")
    return out


def _cochain_key(self: Cochain2):
    return tuple(x for row in self.table for x in row)


def _cochain_mul(self: Cochain2, other: Cochain2) -> Cochain2:
    if self.group != other.group or self.coeff_order != other.coeff_order:
        raise MalformedInput("cochains live over different (group, coefficients)")
    return Cochain2(self.group, self.coeff_order,
                    [[(x + y) % self.coeff_order for x, y in zip(r, s)]
                     for r, s in zip(self.table, other.table)])


Cochain2.trivial = classmethod(
    lambda cls, group, m: cls(group, m, [[0] * group.order] * group.order))
Cochain2.key = _cochain_key
Cochain2.mul = _cochain_mul


class StratumIndex(namedtuple("StratumIndex", "cocycle orbit_classes")):
    """One fixed-point stratum label: a cocycle class representative plus a
    tuple of quotient pseudorep classes, one per branch orbit."""

    __slots__ = ()

    def canonical_key(self):
        return self.cocycle.key(), tuple(c.exponents for c in self.orbit_classes)


def strata_list(strata) -> list:
    """One StratumIndex per stratum: block by block, and within a block in
    the order of itertools.product over the orbits, the last orbit fastest."""
    return [StratumIndex(cocycle, combo) for cocycle, per_orbit in strata.blocks
            for combo in product(*per_orbit)]


def cochain_to_json(c: Cochain2) -> dict:
    """The cochain with its table as a list of [i, j, "k/m"] cells, one per
    cell in row-major order: the oracle for jsonio.cochain_to_json, whose
    rendering must equal the stdlib's of this."""
    m = c.coeff_order
    return {"group": list(c.group.factors), "coeff_order": m,
            "table": [[i, j, str(Fraction(k, m))] for i, row in enumerate(c.table)
                      for j, k in enumerate(row)]}


def pseudorep_to_json(sigma: PseudoRep) -> dict:
    """jsonio.pseudorep_to_json with the cocycle in the oracle's list form."""
    return {**jsonio.pseudorep_to_json(sigma), "cocycle": cochain_to_json(sigma.cochain)}


def strata_to_json(strata) -> list:
    """The strata as a list with one {"cocycle", "orbit_classes"} dict per
    stratum, sharing one dict per distinct cocycle and quotient class object
    and one list per distinct tuple of class objects: the oracle for
    jsonio.strata_to_json, whose rendering must equal the stdlib's of this."""
    encoded = {}  # id, or tuple of ids -> encoding; the strata keep every object alive

    def once(key, encode, x):
        if key not in encoded:
            encoded[key] = encode(x)
        return encoded[key]

    def classes(cs):
        return [once(id(c), jsonio.quotient_class_to_json, c) for c in cs]

    return [{"cocycle": once(id(s.cocycle), cochain_to_json, s.cocycle),
             "orbit_classes": once(tuple(map(id, s.orbit_classes)), classes, s.orbit_classes)}
            for s in strata_list(strata)]


def _series_scale(self: GradedSeries, c) -> GradedSeries:
    return self.with_terms({key: coeff * c for key, coeff in self.terms.items()})


def _series_add(self: GradedSeries, other: GradedSeries) -> GradedSeries:
    if (self.model != other.model or self.weight.entries != other.weight.entries
            or self.N != other.N or self.variable != other.variable):
        raise MalformedInput("series live on different local models")
    trunc = min(self.trunc, other.trunc)
    terms = {}
    for (key, k), c in list(self.terms.items()) + list(other.terms.items()):
        if k <= trunc:
            terms[(key, k)] = terms.get((key, k), Cyclotomic.zero()) + c
    return GradedSeries(self.weight, self.N, self.variable, trunc, terms)


def _equal_on_common_range(self: GradedSeries, other: GradedSeries) -> bool:
    """Exact term equality on exponents valid for both series."""
    t = min(self.trunc, other.trunc)
    mine = {k: v for k, v in self.terms.items() if k[1] <= t}
    theirs = {k: v for k, v in other.terms.items() if k[1] <= t}
    if set(mine) != set(theirs):
        return False
    return all(mine[k] == theirs[k] for k in mine)


def decompose_by_beta(series: GradedSeries):
    """Split into eigencomponents; the direct sum reassembles the input."""
    out: dict[Fraction, GradedSeries] = {}
    buckets: dict[Fraction, dict] = {}
    for (key, k), coeff in series.terms.items():
        buckets.setdefault(series.beta[key], {})[(key, k)] = coeff
    for beta in sorted(buckets, reverse=True):
        out[beta] = series.with_terms(buckets[beta])
    return out


GradedSeries.is_zero = lambda self: not self.terms
GradedSeries.scale = _series_scale
GradedSeries.add = _series_add
GradedSeries.equal_on_common_range = _equal_on_common_range


# -- truncation by slot search: an oracle for descend's and ascend's closed forms

def _descend_trunc(series: GradedSeries) -> int:
    """Largest downstairs exponent determined in every eigencomponent.

    Component beta has upstairs slots k = -N*beta - 1 (mod N); its first slot
    above the input truncation maps to the first unknown downstairs exponent.
    """
    N, T = series.N, series.trunc
    best = None
    for beta in set(series.beta.values()):
        nb = int(N * beta)
        r = (-nb - 1) % N
        k_star = T + 1 + ((r - (T + 1)) % N)  # least k > T with k = r (mod N)
        j_unknown = (k_star + 1 + nb) // N - 1
        best = j_unknown - 1 if best is None else min(best, j_unknown - 1)
    return max(best, -2)


def _ascend_trunc(series: GradedSeries) -> int:
    """Largest upstairs exponent determined in every eigencomponent.

    Downstairs every exponent above the truncation is unknown, so component
    beta is unknown upstairs from k = N*(T_w + 2) - N*beta - 1 on.
    """
    N, Tw = series.N, series.trunc
    best = None
    for beta in set(series.beta.values()):
        k_unknown = N * (Tw + 2) - int(N * beta) - 1
        best = k_unknown - 1 if best is None else min(best, k_unknown - 1)
    return max(best, -1)


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


def _fraction_times(L: int, x: list, y: list) -> Cyclotomic:
    """The product in Q(zeta_L) of two coefficient lists, a Fraction for every
    product of two nonzero terms."""
    poly = [Fraction(0)] * (len(x) + len(y) - 1)
    y_terms = [(j, yj) for j, yj in enumerate(y) if yj]
    for i, xi in enumerate(x):
        if xi:
            for j, yj in y_terms:
                poly[i + j] += xi * yj
    return cyclotomic(L, _fraction_reduce(L, poly))


def fraction_product(a: Cyclotomic, b: Cyclotomic) -> Cyclotomic:
    """a*b in the lcm field, with a Fraction built for every term."""
    L = lcm(a.order, b.order)
    return _fraction_times(L, fraction_embed(a, L), fraction_embed(b, L))


def fraction_matmul(A: CycMatrix, B: CycMatrix) -> CycMatrix:
    """A @ B summed term by term from 0: entry ij lies in the lcm field of the
    orders of its nonzero terms a_ik b_kj, and is the order-1 zero without one.
    Each operand is embedded once per field it meets."""
    embedded = {}  # (id, L) -> coefficients; A and B keep every operand alive

    def embed(x: Cyclotomic, L: int) -> list:
        if (id(x), L) not in embedded:
            embedded[id(x), L] = fraction_embed(x, L)
        return embedded[id(x), L]

    def product(a: Cyclotomic, b: Cyclotomic) -> Cyclotomic:
        L = lcm(a.order, b.order)
        return _fraction_times(L, embed(a, L), embed(b, L))

    rows = []
    for i in range(A.size):
        row = []
        for j in range(A.size):
            terms = [product(A.rows[i][k], B.rows[k][j]) for k in range(A.size)
                     if not A.rows[i][k].is_zero() and not B.rows[k][j].is_zero()]
            L = lcm(*[t.order for t in terms])
            acc = [Fraction(0)] * euler_phi(L)
            for t in terms:
                acc = [u + v for u, v in zip(acc, fraction_embed(t, L))]
            row.append(cyclotomic(L, acc))
        rows.append(row)
    return CycMatrix(rows)


# -- rationals through Fraction(str): an oracle for the int parser ------------

_RATIONAL_TEXT = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def rational(x) -> Fraction:
    """An input rational as jsonio.rational_parts reads it."""
    return Fraction(*rational_parts(x))


def fraction_rational(x) -> Fraction:
    """An input rational read by Fraction(), with the errors jsonio.rational_parts
    must raise: an oracle for its int parser.  A JSON int past the digit cap
    meets the int cap, and a value that is neither a string nor an int (a
    float, a boolean) is not a wire rational."""
    bound = 10 ** MAX_RATIONAL_DIGITS
    is_int = isinstance(x, int) and not isinstance(x, bool)
    if is_int and abs(x) >= bound:
        raise ScaleExceeded(f"integer with more than {MAX_RATIONAL_DIGITS} digits")
    if not (is_int or isinstance(x, str)):
        raise MalformedInput(f"expected a rational string, got {x!r}")
    if not (is_int or _RATIONAL_TEXT.fullmatch(x)):
        raise MalformedInput(f"bad rational {x!r}: expected p/q")
    try:
        q = Fraction(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedInput(f"bad rational {x!r}: {exc}") from None
    if abs(q.numerator) >= bound or q.denominator >= bound:
        raise ScaleExceeded(f"rational with more than {MAX_RATIONAL_DIGITS} digits "
                            f"in its numerator or denominator")
    return q


def fraction_cochain_value(value, m: int) -> int:
    """A cochain table value as the exponent k of zeta_m, read as (Fraction % 1) * m."""
    k = fraction_rational(value) % 1 * m
    if k.denominator != 1:
        raise MalformedInput(f"value {value!r} is not an m-th root of unity exponent")
    return k.numerator


# -- pseudorepresentations by brute force: oracles for the generator-row check --

def exhaustive_verify(sigma: PseudoRep) -> Verdict:
    """The composition rule multiplied out on all n^2 pairs, plus sigma(1) = Id."""
    if not sigma.images[0].is_identity():
        return Verdict(False, (sigma.group.identity, sigma.group.identity))
    g = sigma.group
    m = sigma.cochain.coeff_order
    for a in g.elements:
        sa = sigma.image(a)
        for b in g.elements:
            lhs = sa @ sigma.image(b)
            scalar = root_of_unity(Fraction(sigma.cochain.value(a, b), m), m)
            rhs = sigma.image(g.add(a, b)).scale(scalar)
            if lhs != rhs:
                return Verdict(False, (a, b))
    return Verdict(True, None)


# -- pseudorep classes with a Fraction for every exponent: oracles for the ----
# -- int residues of enumerate_classes, project_mod_center and the class checks

def fraction_enumerate_classes(n: int, r: int, zeta_value: Fraction,
                               model: str = "gl") -> list[PseudoRepClass]:
    """enumerate_classes on valid arguments, combining and sorting Fractions."""
    z = zeta_value % 1
    base = z / n
    candidates = sorted((base + Fraction(j, n)) % 1 for j in range(n))
    classes = []
    for combo in combinations_with_replacement(candidates, r):
        if model == "sl" and sum(combo).denominator != 1:
            continue
        classes.append(PseudoRepClass(n, z, tuple(sorted(combo, reverse=True))))
    classes.sort(key=lambda c: c.exponents)
    return classes


def fraction_project(cls, m: int) -> QuotientClass:
    """project_mod_center on valid arguments, shifting Fractions."""
    shifts = {-(q * m // 1) % m for q in cls.exponents} or {0}
    best = min(tuple(sorted(((v + Fraction(k, m)) % 1 for v in cls.exponents), reverse=True))
               for k in shifts)
    return QuotientClass(cls.order, best)


def fraction_class_check(order, zeta, exponents) -> None:
    """PseudoRepClass's checks, compared as Fractions."""
    for q in (zeta, *exponents):
        if not 0 <= q < 1:
            raise MalformedInput(f"{q} outside [0,1)")
    if list(exponents) != sorted(exponents, reverse=True):
        raise MalformedInput("exponents must be sorted descending")
    for q in exponents:
        if (order * q - zeta).denominator != 1:
            raise MalformedInput(f"exponent {q} does not satisfy lambda^{order} = zeta")


def exhaustive_project(cls, m: int) -> QuotientClass:
    """project_mod_center by trying all m shifts k/m."""
    best = None
    for k in range(m):
        shift = Fraction(k, m)
        shifted = tuple(sorted(((v + shift) % 1 for v in cls.exponents), reverse=True))
        if best is None or shifted < best:
            best = shifted
    return QuotientClass(cls.order, best)


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
    m = sigma.cochain.coeff_order
    gen = (1 % n,)
    exps = charpoly_eigenvalues(sigma.image(gen), lcm(n * m, 2))
    return PseudoRepClass(n, zeta(sigma.cochain, gen), tuple(exps))
