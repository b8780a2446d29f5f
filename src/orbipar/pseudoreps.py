"""Pseudorepresentations of cyclic isotropy groups into GL(r) over cyclotomics.

A pseudorepresentation with cocycle c is a unital map sigma with

    sigma(a) sigma(b) = c(a, b) sigma(ab),

equivalently a representation of the central extension sending the
coefficient copy to scalars (G. Karpilovsky, Projective Representations of
Finite Groups, 1985).  For a generator g of order n and T_j = sum_{i<j}
c(g, g^i), the generator row forces sigma(g)^j = zeta_m^T_j sigma(g^j) and
sigma(g)^n = e^{2 pi i zeta} Id with zeta = T_n/m, which makes the eigenvalue
exponents of sigma(g) a complete conjugacy invariant: they are the n
solutions of lambda^n = e^{2 pi i zeta}, counted with multiplicity.

Classes and quotient classes are named tuples, and verify_pseudorep returns
the cocycles module's Verdict.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, combinations_with_replacement
from math import comb, lcm

from .cocycles import Cochain2, FiniteAbelianGroup, Verdict, is_cocycle
from .errors import (IsotropyMismatch, MalformedInput, NotAHomomorphism,
                     NotAPseudoRep, ScaleExceeded, SizeMismatch)
from .matrices import root_of_unity_eigenvalues
from .scalars import check_order, root_of_unity

MAX_ENUMERATION = 24  # bound on n * r for class enumeration, and on an input class's exponents


class PseudoRep:
    """Images of every element of a cyclic group, with the cocycle they obey."""

    def __init__(self, cochain: Cochain2, images):
        group = cochain.group
        if len(group.factors) != 1:
            raise MalformedInput("pseudorepresentations are stored on cyclic groups")
        images = tuple(images)
        if len(images) != group.order:
            raise MalformedInput(f"need {group.order} images")
        sizes = {im.size for im in images}
        if len(sizes) != 1:
            raise SizeMismatch(f"inhomogeneous matrix sizes {sorted(sizes)}")
        check_order(lcm(group.order * cochain.coeff_order,
                        *(x.order for im in images for row in im.rows for x in row)))
        self.cochain = cochain
        self.group = group
        self.images = images
        self.size = images[0].size

    @property
    def order(self) -> int:
        return self.group.order


def _generator_sums(sigma: PseudoRep) -> list[int]:
    """T_j = sum_{i<j} c(g, g^i) for j = 0..n, g the canonical generator."""
    return list(accumulate(sigma.cochain.table[1 % sigma.order], initial=0))


def verify_pseudorep(sigma: PseudoRep) -> Verdict:
    """The composition rule on all pairs, plus sigma(1) = Id.

    Only the generator row is multiplied out.  Once it holds, sigma(g) is
    invertible and sigma(a) sigma(b) = zeta_m^d sigma(ab) with
    d = T_((a+b) mod n) + T_n [a+b >= n] - T_a - T_b, so the rule fails exactly
    where c(a, b) != d mod m.  Rows 0 and 1 hold by then, so the witness is the
    first failing pair in row-major order, as an exhaustive scan finds it.
    """
    g = sigma.group
    images = sigma.images
    if not images[0].is_identity():
        return Verdict(False, (g.identity, g.identity))
    n = sigma.order
    m = sigma.cochain.coeff_order
    table = sigma.cochain.table
    gen = 1 % n
    for j in range(n):
        scalar = root_of_unity(Fraction(table[gen][j], m), m)
        if images[gen] @ images[j] != images[(gen + j) % n].scale(scalar):
            return Verdict(False, (g.elements[gen], g.elements[j]))
    T = _generator_sums(sigma)
    for a in range(n):
        for b in range(n):
            d = T[(a + b) % n] + (T[n] if a + b >= n else 0) - T[a] - T[b]
            if (table[a][b] - d) % m:
                return Verdict(False, (g.elements[a], g.elements[b]))
    return Verdict(True, None)


class PseudoRepClass(namedtuple("PseudoRepClass", "order zeta exponents")):
    """Conjugacy invariant: order, zeta in [0,1), and the eigenvalue exponent
    multiset as Fractions q in [0,1), sorted descending."""

    __slots__ = ()

    def __new__(cls, order, zeta, exponents):
        # on each Fraction's ints: a numerator over a positive denominator
        parts = [(q.numerator, q.denominator) for q in (zeta, *exponents)]
        for q, (p, d) in zip((zeta, *exponents), parts):
            if not 0 <= p < d:
                raise MalformedInput(f"{q} outside [0,1)")
        (zp, zd), *exps = parts
        if any(p * d2 < p2 * d for (p, d), (p2, d2) in zip(exps, exps[1:])):
            raise MalformedInput("exponents must be sorted descending")
        for q, (p, d) in zip(exponents, exps):
            if (order * p * zd - zp * d) % (d * zd):
                raise MalformedInput(f"exponent {q} does not satisfy lambda^{order} = zeta")
        return super().__new__(cls, order, zeta, exponents)


# a pseudorep class modulo simultaneous shift by the scalar subgroup: its
# exponents are Fractions in [0,1), sorted descending
QuotientClass = namedtuple("QuotientClass", "order exponents")


def classify(sigma: PseudoRep) -> PseudoRepClass:
    """Eigenvalue exponents of sigma(g), from its power traces zeta_m^T_j tr sigma(g^j)."""
    verdict = verify_pseudorep(sigma)
    if not verdict.ok:
        raise NotAPseudoRep(f"composition rule fails at {verdict.witness}")
    m = sigma.cochain.coeff_order
    T = _generator_sums(sigma)
    z = Fraction(T[-1] % m, m)
    traces = [im.trace() * root_of_unity(Fraction(t, m), m) for im, t in zip(sigma.images, T)]
    exps = root_of_unity_eigenvalues(traces, z, sigma.size)
    return PseudoRepClass(sigma.order, z, tuple(exps))


def enumerate_classes(n: int, r: int, zeta_value: Fraction,
                      model: str = "gl") -> list[PseudoRepClass]:
    """All exponent multisets of size r with e^{2 pi i n q} = e^{2 pi i zeta_value}.

    For "sl" only multisets with integral exponent sum survive.  The GL count
    is C(n + r - 1, r).  With zeta = a/b in [0,1), the exponents (zeta + j)/n
    are the int residues a + j b over D = n b, so the multisets are combined,
    filtered (sum % D) and sorted as ints; one Fraction is built per residue.
    """
    if model not in ("gl", "sl"):
        raise MalformedInput(f"model must be 'gl' or 'sl', got {model!r}")
    if n < 1 or r < 1:
        raise MalformedInput(f"order {n} and rank {r} must be positive")
    if n * r > MAX_ENUMERATION:
        raise ScaleExceeded(f"n*r = {n * r} exceeds {MAX_ENUMERATION}")
    z = zeta_value % 1
    a, b = z.numerator, z.denominator
    D = n * b
    residues = [a + j * b for j in range(n)]  # ascending, and below D as a < b
    combos = [combo[::-1] for combo in combinations_with_replacement(residues, r)
              if model == "gl" or sum(combo) % D == 0]
    if model == "gl":
        if len(combos) != comb(n + r - 1, r):
            raise AssertionError(f"{len(combos)} classes, expected C({n + r - 1}, {r})")
    combos.sort()
    exponent = {u: Fraction(u, D) for u in residues}
    return [PseudoRepClass(n, z, tuple(map(exponent.__getitem__, combo))) for combo in combos]


def deck_transport(sigma: PseudoRep, gamma0: tuple, ambient: FiniteAbelianGroup,
                   gen_image: tuple) -> PseudoRep:
    """Transport along a deck transformation: sigma'(h) = sigma(g0^-1 h g0).

    The isotropy group embeds in the ambient group by sending the canonical
    generator to gen_image.  Conjugation in an abelian ambient group fixes
    every element, so once gamma0 and gen_image are checked the transported
    pseudorep is sigma itself.
    """
    for elem in (gamma0, gen_image):
        if elem not in ambient.index:
            raise IsotropyMismatch(f"{elem} is not an ambient element")
    if ambient.element_order(gen_image) != sigma.order:
        raise IsotropyMismatch("generator image has the wrong order")
    return sigma


def project_mod_center(cls: PseudoRepClass | QuotientClass, m: int) -> QuotientClass:
    """Quotient by simultaneous exponent shifts k/m; lexicographically least shift wins.

    The least shift takes some exponent q below 1/m, since otherwise shifting
    by one step less lowers every exponent.  So only k = -floor(q m) mod m,
    one per exponent, is tried, and the work does not grow with m.  The
    exponents are int residues u over L = lcm(m, denominators), a shift is k
    steps of L/m, and Fractions are built only for the winning tuple.
    """
    if m < 1:
        raise MalformedInput("scalar subgroup order must be positive")
    L = lcm(m, *(q.denominator for q in cls.exponents))
    step = L // m
    units = [q.numerator * (L // q.denominator) for q in cls.exponents]
    shifts = {-(u // step) % m * step for u in units} or {0}
    best = min(tuple(sorted(((u + k) % L for u in units), reverse=True)) for k in shifts)
    return QuotientClass(cls.order, tuple(Fraction(u, L) for u in best))


def induced_cocycle(c: Cochain2, target_order: int, generator_image: int) -> Cochain2:
    """Push the coefficient values through z -> z^t seen as mu_m -> mu_m'.

    The map zeta_m -> zeta_m'^t is a homomorphism iff m' divides t*m.
    """
    m, t, m2 = c.coeff_order, generator_image, target_order
    if m2 < 1 or (t * m) % m2 != 0:
        raise NotAHomomorphism(
            f"zeta_{m} -> zeta_{m2}^{t} does not define a homomorphism")
    out = Cochain2(c.group, m2, [[x * t for x in row] for row in c.table])
    verdict = is_cocycle(out)
    if not verdict.ok:
        raise AssertionError("homomorphic image of a cocycle must be a cocycle")
    return out
