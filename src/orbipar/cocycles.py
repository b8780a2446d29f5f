"""Normalized 2-cocycles on finite abelian groups with root-of-unity values.

A coefficient value is stored as an exponent k in Z/m, standing for the root
of unity e^{2 pi i k/m}.  All tables are written additively in these
exponents; the identities below are the multiplicative ones of the glossary:

    cocycle:     c(ab, d) + c(a, b) = c(a, bd) + c(b, d)        (mod m)
    coboundary:  (df)(a, b) = f(ab) - f(a) - f(b)               (mod m)

H^2 comes from the universal coefficient theorem: one cocycle per class,
built from carry cocycles and alternating bilinear forms.  Each of these
cocycles is already the lexicographically least table of its class (the
argument is in h2_classes), so no linear algebra over Z/m runs.

A check returns the named tuple Verdict(ok, witness); a tuple is always
true, so callers read .ok.  is_cocycle reads only the rows of the factor
generators unless they fail (the argument is in is_cocycle).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm

from .errors import MalformedInput, NotACocycle, NotNormalized, ScaleExceeded

DEFAULT_MAX_ORDER = 24
DEFAULT_SCALE_BOUND = 2 ** 21  # classes or strata in one output
MAX_EXTENSION_ORDER = 64  # m * |G|; the extension table has its square entries


class FiniteAbelianGroup:
    """Direct sum of cyclic groups Z/n_1 x ... x Z/n_t; elements are exponent tuples.

    Elements are indexed in lexicographic (row-major) order, so index 0 is the
    identity.  The product table is precomputed in mixed radix; groups are
    desk scale, in their order and in their number of factors.
    """

    def __init__(self, cyclic_factors):
        factors = tuple(cyclic_factors)
        if any(n < 1 for n in factors):
            raise MalformedInput(f"bad cyclic factors {factors}")
        order = 1
        for i, n in enumerate(factors, 1):
            order *= n
            if order > DEFAULT_MAX_ORDER:
                raise ScaleExceeded(f"the first {i} factors have order {order}, "
                                    f"above the bound {DEFAULT_MAX_ORDER}")
        if len(factors) > DEFAULT_MAX_ORDER:
            raise ScaleExceeded(f"{len(factors)} cyclic factors exceed the bound "
                                f"{DEFAULT_MAX_ORDER}")
        self.factors = factors
        self.order = order
        self.elements = list(product(*map(range, factors)))
        self.index = {e: i for i, e in enumerate(self.elements)}
        prod = [[0]]  # the table of the first factors; appending Z/n maps index a to a n + x
        for n in factors:
            shifts = [[(x + y) % n for y in range(n)] for x in range(n)]
            prod = [[p + s for p in row for s in shift]
                    for row in ([p * n for p in row] for row in prod) for shift in shifts]
        self.prod = tuple(map(tuple, prod))

    @property
    def identity(self):
        return self.elements[0]

    def element_order(self, a) -> int:
        return lcm(*(n // gcd(x, n) for x, n in zip(a, self.factors)))

    def is_cyclic(self) -> bool:
        """Z/n_1 x ... x Z/n_t is cyclic iff the n_i are pairwise coprime (CRT)."""
        return all(gcd(a, b) == 1 for a, b in combinations(self.factors, 2))

    def __eq__(self, other):
        return isinstance(other, FiniteAbelianGroup) and self.factors == other.factors

    def __repr__(self):
        return f"FiniteAbelianGroup{self.factors}"


class Cochain2:
    """A normalized 2-cochain: total table G x G -> Z/m with identity rows zero.

    The coefficients are the m-th roots of unity with trivial action, so the
    int m is all they carry.  Only normalized tables reduced mod m are
    representable; construction checks both and reduces nothing.
    """

    def __init__(self, group: FiniteAbelianGroup, coeff_order: int, table):
        m, n = coeff_order, group.order
        table = tuple(map(tuple, table))
        if len(table) != n or any(len(row) != n for row in table):
            raise MalformedInput(f"table is not {n} x {n}")
        if any(table[0]) or any(row[0] for row in table):
            raise NotNormalized("c(gamma, 1) and c(1, gamma) must equal 1")
        if min(map(min, table)) < 0 or max(map(max, table)) >= m:
            raise MalformedInput(f"table values must be reduced mod {m}")
        self.group = group
        self.coeff_order = m
        self.table = table

    def __eq__(self, other):
        return (isinstance(other, Cochain2) and self.group == other.group
                and self.coeff_order == other.coeff_order and self.table == other.table)

    def __repr__(self):
        return f"Cochain2({self.group}, m={self.coeff_order})"


# a decision and, when it fails, its first violating tuple of elements
Verdict = namedtuple("Verdict", "ok witness")


def is_cocycle(c: Cochain2) -> Verdict:
    """Check c(ab,d) c(a,b) = c(a,bd) c(b,d) on every triple.

    The rows a = e_k of the t factor generators of order above 1 suffice:
    t (n-1)^2 triples.  Let phi(a, b, d) be the failure at (a, b, d), dc up
    to sign.  d(phi) = 0 reads phi(sb, d, e) = phi(b, d, e) + phi(s, bd, e)
    - phi(s, b, de) + phi(s, b, d), so phi(sb, ., .) = phi(b, ., .) whenever
    phi(s, ., .) = 0, and phi(1, ., .) = 0 as c is normalized: the rows where
    phi vanishes are closed under the generators, so they are all of G.  A
    failing generator row starts the row-major scan, for the witness.
    """
    gens = [a for a, e in enumerate(c.group.elements) if sum(e) == 1]  # the e_k
    if _first_failure(c, gens) is None:
        return Verdict(True, None)
    return Verdict(False, _first_failure(c, range(1, c.group.order)))


def _first_failure(c: Cochain2, rows):
    """The first failing triple (a, b, d) with a in rows, in row-major order,
    as elements, or None.  Triples holding the identity pass and are skipped."""
    g, t, m = c.group, c.table, c.coeff_order
    p, span = g.prod, range(1, g.order)
    for a in rows:
        ta, pa = t[a], p[a]
        for b in span:
            tab, tb, pb = t[pa[b]], t[b], p[b]
            cab = ta[b]
            for d in span:
                if (tab[d] + cab - ta[pb[d]] - tb[d]) % m:
                    return g.elements[a], g.elements[b], g.elements[d]
    return None


def h2_count(group: FiniteAbelianGroup, m: int) -> int:
    """|H^2(G, Z/m)| = prod gcd(n_i, m) * prod_{i<j} gcd(n_i, n_j, m) (UCT)."""
    count = 1
    for i, ni in enumerate(group.factors):
        count *= gcd(ni, m)
        for nj in group.factors[i + 1:]:
            count *= gcd(ni, nj, m)
    return count


def h2_classes(group: FiniteAbelianGroup, m: int,
               scale_bound: int = DEFAULT_SCALE_BOUND) -> list[Cochain2]:
    """Lexicographically least representatives of H^2(G, Z/m), sorted.

    One cocycle per class, by the universal coefficient theorem: k_i * carry_i
    with k_i < gcd(n_i, m), plus (m/g) * l * a_i b_j with l < g = gcd(n_i, n_j, m)
    for i < j.  `scale_bound` bounds the number of classes; below 1 it is
    malformed.

    Each such cocycle c is already the least table of its class.  Let f be a
    normalized 1-cochain with c + df <=_lex c, and H_i the elements whose
    first i coordinates are 0: the first |H_i| rows, followed by row e_i
    (when n_i > 1).  The rows where df vanishes form a subgroup, as
    df(a + b, d) = df(a, b + d) + df(b, d) - df(a, b), and contain H_t = {1}.
    Suppose they contain H_i:
      - df is symmetric, so df(e_i, b + h) = df(e_i, b) for h in H_i: on row
        e_i, df depends only on the coordinates <= i of b, and its first
        nonzero cell, if any, has b_j = 0 for j > i.
      - There c(e_i, b) is k_i if b_i = n_i - 1 and 0 otherwise.  Where c is
        0, a first nonzero df would raise the table.
      - So that cell is b = x + (n_i - 1) e_i, after the cells x + j e_i,
        j < n_i - 1, where df is 0.  Summing those, f(x + j e_i) =
        f(x) + j f(e_i), so df = -n_i f(e_i) there, a multiple of gcd(n_i, m),
        and c + df = k_i mod gcd(n_i, m): it cannot go below k_i, and it
        equals k_i only if df = 0 there.
      - So row e_i vanishes, and with it every row j e_i + h, h in H_i.
    At H_0 = G, df = 0: no other table of the class is at or below c.
    """
    if scale_bound < 1:
        raise MalformedInput(f"scale bound {scale_bound} is below 1")
    count = h2_count(group, m)
    if count > scale_bound:
        raise ScaleExceeded(f"{count} classes exceed bound {scale_bound}")
    n, factors, el = group.order, group.factors, group.elements
    gens = []  # (order in H^2, flattened table) per UCT generator
    for i, ni in enumerate(factors):
        gens.append((gcd(ni, m), [(a[i] + b[i]) // ni for a in el for b in el]))
        for j in range(i + 1, len(factors)):
            g = gcd(ni, factors[j], m)
            gens.append((g, [m // g * a[i] * b[j] for a in el for b in el]))
    rows = [[0] * (n * n)]
    for order, t in gens:
        rows = [[(x + k * y) % m for x, y in zip(row, t)] for row in rows for k in range(order)]
    return [Cochain2(group, m, [row[i:i + n] for i in range(0, n * n, n)])
            for row in sorted(rows)]


def power_sums(c: Cochain2, a: int) -> list[int]:
    """T_j = sum_{i<j} c(a, a^i) for j = 0..ord(a), a an element index: zeta's power sums."""
    t, p = c.table[a], c.group.prod[a]
    sums, cur = [0, 0], a  # T_0, and T_1 = c(a, 1) = 0
    while cur:
        sums.append(sums[-1] + t[cur])
        cur = p[cur]
    return sums


def zeta(c: Cochain2, gamma) -> Fraction:
    """The product of c(gamma, gamma^i) for i = 1..ord(gamma)-1, as k/m in [0,1)."""
    v = is_cocycle(c)
    if not v.ok:
        raise NotACocycle(f"cocycle condition fails at {v.witness}")
    return Fraction(power_sums(c, c.group.index[gamma])[-1] % c.coeff_order, c.coeff_order)


# -- central extensions ------------------------------------------------------

# the group Z/m x G with (z,a)(z',b) = (z + z' + c(a,b), ab): its order, its
# sorted element orders and its Cayley table, element z * |G| + (index of a)
Extension = namedtuple("Extension", "order is_abelian order_profile table")


def central_extension(c: Cochain2) -> Extension:
    """The central extension of G by Z/m that a cocycle defines, read off the cocycle.

    It is abelian iff c is symmetric, since G is.  For a of order k,
    (z, a)^k = (kz + T_k, 1) with T_k the last of power_sums(c, a), so (z, a)
    has order k m / gcd(m, kz + T_k).  The order is capped before the
    cocycle condition is checked.
    """
    m, n = c.coeff_order, c.group.order
    if m * n > MAX_EXTENSION_ORDER:
        raise ScaleExceeded(f"extension order {m * n} exceeds bound {MAX_EXTENSION_ORDER}")
    verdict = is_cocycle(c)
    if not verdict.ok:
        raise NotACocycle(f"cocycle condition fails at {verdict.witness}")
    t, p = c.table, c.group.prod
    table = tuple(tuple((z1 + z2 + t[a][b]) % m * n + p[a][b] for z2 in range(m) for b in range(n))
                  for z1 in range(m) for a in range(n))
    orders = []
    for a in range(n):
        T = power_sums(c, a)
        k = len(T) - 1
        orders += [k * m // gcd(m, k * z + T[k]) for z in range(m)]
    return Extension(m * n, t == tuple(zip(*t)), tuple(sorted(orders)), table)
