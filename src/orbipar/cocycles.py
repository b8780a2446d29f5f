"""Normalized 2-cocycles on finite abelian groups with root-of-unity values.

A coefficient value is stored as an exponent k in Z/m, standing for the root
of unity e^{2 pi i k/m}.  All tables are written additively in these
exponents; the identities below are the multiplicative ones of the glossary:

    cocycle:     c(ab, d) + c(a, b) = c(a, bd) + c(b, d)        (mod m)
    coboundary:  (df)(a, b) = f(ab) - f(a) - f(b)               (mod m)

H^2 is computed by linear algebra over Z/m.  The coboundaries B^2 are the
span of the d(e_g), put in Howell form; one cocycle per class comes from the
universal coefficient theorem (carry cocycles and alternating bilinear
forms), and reducing it against the Howell form gives the lexicographically
least table of its class.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd

from .errors import (MalformedInput, NotACocycle, NotASubgroup, NotNormalized,
                     ScaleExceeded)
from .scalars import Cyclotomic, FractionalWeight, root_of_unity

DEFAULT_MAX_ORDER = 24
DEFAULT_SCALE_BOUND = 2 ** 21  # classes or strata in one output
MAX_EXTENSION_ORDER = 64  # m * |G|; the extension table has its square entries


class FiniteAbelianGroup:
    """Direct sum of cyclic groups Z/n_1 x ... x Z/n_t; elements are exponent tuples.

    Elements are indexed in lexicographic (row-major) order, so index 0 is the
    identity.  The full product table is precomputed; groups are desk scale.
    """

    def __init__(self, cyclic_factors):
        factors = tuple(int(n) for n in cyclic_factors)
        if any(n < 1 for n in factors):
            raise MalformedInput(f"bad cyclic factors {factors}")
        order = 1
        for n in factors:
            order *= n
        if order > DEFAULT_MAX_ORDER:
            raise ScaleExceeded(f"group order {order} exceeds bound {DEFAULT_MAX_ORDER}")
        self.factors = factors
        self.order = order
        self.elements = list(product(*map(range, factors)))
        self.index = {e: i for i, e in enumerate(self.elements)}
        self.prod = tuple(tuple(self.index[self.add(a, b)] for b in self.elements)
                          for a in self.elements)

    def add(self, a, b):
        return tuple((x + y) % n for x, y, n in zip(a, b, self.factors))

    @property
    def identity(self):
        return self.elements[0]

    def element_order(self, a) -> int:
        cur, k = a, 1
        while any(cur):
            cur = self.add(cur, a)
            k += 1
        return k

    def generators(self):
        """The standard basis elements, one per cyclic factor of size > 1."""
        gens = []
        for j, n in enumerate(self.factors):
            if n > 1:
                gens.append(tuple(1 if i == j else 0 for i in range(len(self.factors))))
        return gens

    def powers(self, a):
        """[identity, a, a^2, ...] up to the order of a."""
        out = [self.identity]
        cur = a
        while any(cur):
            out.append(cur)
            cur = self.add(cur, a)
        return out

    def is_cyclic(self) -> bool:
        return any(self.element_order(e) == self.order for e in self.elements)

    def __eq__(self, other):
        return isinstance(other, FiniteAbelianGroup) and self.factors == other.factors

    def __repr__(self):
        return f"FiniteAbelianGroup{self.factors}"


@dataclass(frozen=True)
class CoefficientGroup:
    """Cyclic group of m-th roots of unity with trivial group action."""

    order: int

    def value(self, k: int) -> Cyclotomic:
        return root_of_unity(Fraction(k % self.order, self.order), self.order)


class Cochain2:
    """A normalized 2-cochain: total table G x G -> Z/m with identity rows zero.

    Only normalized cochains are representable; construction raises if the
    identity row or column is nonzero.
    """

    def __init__(self, group: FiniteAbelianGroup, coefficients: CoefficientGroup, table):
        m, n = coefficients.order, group.order
        table = tuple(tuple([x % m for x in row]) for row in table)
        if len(table) != n or any(len(row) != n for row in table):
            raise MalformedInput(f"table is not {n} x {n}")
        if any(table[0]) or any(row[0] for row in table):
            raise NotNormalized("c(gamma, 1) and c(1, gamma) must equal 1")
        self.group = group
        self.coefficients = coefficients
        self.table = table

    def value(self, a, b) -> int:
        return self.table[self.group.index[a]][self.group.index[b]]

    def __eq__(self, other):
        return (isinstance(other, Cochain2) and self.group == other.group
                and self.coefficients == other.coefficients and self.table == other.table)

    def __repr__(self):
        return f"Cochain2({self.group}, m={self.coefficients.order})"


@dataclass(frozen=True)
class CocycleVerdict:
    ok: bool
    witness: tuple | None  # first violating (a, b, d) on failure

    def __bool__(self):
        return self.ok


def is_cocycle(c: Cochain2) -> CocycleVerdict:
    """Check c(ab,d) c(a,b) = c(a,bd) c(b,d) on every triple.

    The witness is the first failing triple in row-major order.  Triples
    holding the identity pass for any normalized cochain and are skipped.
    """
    g, t, m = c.group, c.table, c.coefficients.order
    p, span = g.prod, range(1, g.order)
    for a in span:
        ta, pa = t[a], p[a]
        for b in span:
            tab, tb, pb = t[pa[b]], t[b], p[b]
            cab = ta[b]
            for d in span:
                if (tab[d] + cab - ta[pb[d]] - tb[d]) % m:
                    return CocycleVerdict(False, (g.elements[a], g.elements[b], g.elements[d]))
    return CocycleVerdict(True, None)


def coboundary(group: FiniteAbelianGroup, m: int, f) -> Cochain2:
    """The 2-cocycle (a,b) -> f(ab) f(a)^-1 f(b)^-1 for a 1-cochain f with f(1)=1.

    f is given as exponents in Z/m, one per element in canonical order.
    """
    f = [x % m for x in f]
    if len(f) != group.order:
        raise MalformedInput(f"need {group.order} values for f")
    if f[0] != 0:
        raise MalformedInput("f(1) must equal 1")
    table = [[f[p] - fa - fb for p, fb in zip(row, f)] for row, fa in zip(group.prod, f)]
    return Cochain2(group, CoefficientGroup(m), table)


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


def h2_count(group: FiniteAbelianGroup, m: int) -> int:
    """|H^2(G, Z/m)| = prod gcd(n_i, m) * prod_{i<j} gcd(n_i, n_j, m) (UCT)."""
    count = 1
    for i, ni in enumerate(group.factors):
        count *= gcd(ni, m)
        for nj in group.factors[i + 1:]:
            count *= gcd(ni, nj, m)
    return count


def h2_classes(group: FiniteAbelianGroup, m: int,
               max_candidates: int = DEFAULT_SCALE_BOUND) -> list[Cochain2]:
    """Lexicographically least representatives of H^2(G, Z/m), sorted.

    One cocycle per class, by the universal coefficient theorem: k * carry_i
    with k < gcd(n_i, m), plus (m/g) * l * a_i b_j with l < g = gcd(n_i, n_j, m)
    for i < j.  `max_candidates` bounds the number of classes; below 1 it is
    malformed.
    """
    if max_candidates < 1:
        raise MalformedInput(f"scale bound {max_candidates} is below 1")
    count = h2_count(group, m)
    if count > max_candidates:
        raise ScaleExceeded(f"{count} classes exceed bound {max_candidates}")
    form = _coboundary_form(group, m)
    n, factors, el = group.order, group.factors, group.elements
    orders, tables = [], []
    for i, ni in enumerate(factors):
        orders.append(gcd(ni, m))
        tables.append([(a[i] + b[i]) // ni for a in el for b in el])
        for j in range(i + 1, len(factors)):
            g = gcd(ni, factors[j], m)
            orders.append(g)
            tables.append([m // g * a[i] * b[j] for a in el for b in el])
    rows = [[0] * (n * n)]
    for order, t in zip(orders, tables):
        rows = [[(x + k * y) % m for x, y in zip(row, t)] for row in rows for k in range(order)]
    reps = sorted(_reduce(row + [0] * (n - 1), form, m)[:n * n] for row in rows)
    coeff = CoefficientGroup(m)
    return [Cochain2(group, coeff, [row[i:i + n] for i in range(0, n * n, n)]) for row in reps]


def are_cohomologous(c1: Cochain2, c2: Cochain2):
    """Whether c2 = (df) * c1 for a normalized f; returns (bool, f|None)."""
    if c1.group != c2.group or c1.coefficients.order != c2.coefficients.order:
        raise MalformedInput("cochains live over different (group, coefficients)")
    for c in (c1, c2):
        v = is_cocycle(c)
        if not v:
            raise NotACocycle(f"cocycle condition fails at {v.witness}")
    g, m = c1.group, c1.coefficients.order
    n = g.order
    diff = [(y - x) % m for r1, r2 in zip(c1.table, c2.table) for x, y in zip(r1, r2)]
    rest = _reduce(diff + [0] * (n - 1), _coboundary_form(g, m), m)
    if any(rest[:n * n]):
        return False, None
    return True, [0] + [-x % m for x in rest[n * n:]]


def zeta(c: Cochain2, gamma) -> FractionalWeight:
    """The product of c(gamma, gamma^i) for i = 1..ord(gamma)-1, as a weight k/m."""
    v = is_cocycle(c)
    if not v:
        raise NotACocycle(f"cocycle condition fails at {v.witness}")
    g, m = c.group, c.coefficients.order
    powers = g.powers(gamma)
    total = 0
    for p in powers[1:]:
        total += c.value(gamma, p)
    return FractionalWeight(Fraction(total % m, m))


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
    return Cochain2(subgroup, c.coefficients, table)


# -- central extensions ------------------------------------------------------

class ExtensionGroup:
    """The group Z' x G with (z,a)(z',b) = (z + z' + c(a,b), ab), as a Cayley table.

    Element index is z * |G| + (index of a); identity is 0.
    """

    def __init__(self, cochain: Cochain2):
        self.cochain = cochain
        self.coeff_order = cochain.coefficients.order
        self.group = cochain.group
        self.order = self.coeff_order * self.group.order
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

    def center_contains_coefficients(self) -> bool:
        n, t = self.group.order, self.table
        return all(t[z] == tuple(row[z] for row in t) for z in range(0, self.order, n))


def table_is_associative(table) -> bool:
    """(ij)k = i(jk) on every triple, for a table of tuples as `extension_table` builds."""
    return all(table[ti[j]] == tuple(map(ti.__getitem__, tj))
               for ti in table for j, tj in enumerate(table))


def extension_table(c: Cochain2):
    """Raw Cayley table of Z' x G without any group-axiom checks."""
    m, n = c.coefficients.order, c.group.order
    if m * n > MAX_EXTENSION_ORDER:
        raise ScaleExceeded(f"extension order {m * n} exceeds bound {MAX_EXTENSION_ORDER}")
    t, p = c.table, c.group.prod
    return tuple(tuple((z1 + z2 + t[a][b]) % m * n + p[a][b] for z2 in range(m) for b in range(n))
                 for z1 in range(m) for a in range(n))


def central_extension(c: Cochain2) -> ExtensionGroup:
    """The extension group of a cocycle, with all group axioms verified.

    Associativity of the table and the cocycle condition are checked
    independently; they must agree, and both fail together on non-cocycles.
    """
    ext = ExtensionGroup(c)
    verdict = is_cocycle(c)
    if table_is_associative(ext.table) != verdict.ok:
        raise AssertionError("associativity and cocycle verdicts disagree")
    if not verdict.ok:
        raise NotACocycle(f"cocycle condition fails at {verdict.witness}")
    # identity, inverses, centrality of the coefficient copy
    t, identity = ext.table, tuple(range(ext.order))
    if t[0] != identity or tuple(row[0] for row in t) != identity:
        raise AssertionError("index 0 is not the identity")
    for i, row in enumerate(t):
        if 0 not in row:
            raise AssertionError(f"no inverse for element {i}")
    if not ext.center_contains_coefficients():
        raise AssertionError("the coefficient copy is not central")
    return ext
