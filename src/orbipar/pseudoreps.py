"""Pseudorepresentations of cyclic isotropy groups into GL(r) over cyclotomics.

A pseudorepresentation with cocycle c is a unital map sigma with

    sigma(a) sigma(b) = c(a, b) sigma(ab),

equivalently a representation of the central extension sending the
coefficient copy to scalars.  For a generator g of order n this forces
sigma(g)^n = zeta(g) Id with zeta the cocycle product invariant, which makes
the eigenvalue exponents of sigma(g) a complete conjugacy invariant: they are
the n solutions of lambda^n = zeta, counted with multiplicity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

from .cocycles import Cochain2, CoefficientGroup, FiniteAbelianGroup, is_cocycle, zeta
from .errors import (IsotropyMismatch, MalformedInput, NotAHomomorphism,
                     NotAPseudoRep, ScaleExceeded, SizeMismatch)
from .matrices import CycMatrix, root_of_unity_eigenvalues
from .scalars import FractionalWeight, normalize_weight, rational, working_order

MAX_ENUMERATION = 24  # bound on n * r for class enumeration


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
        self.cochain = cochain
        self.group = group
        self.images = images
        self.size = images[0].size

    @property
    def order(self) -> int:
        return self.group.order

    def image(self, element) -> CycMatrix:
        return self.images[self.group.index[tuple(element)]]

    @classmethod
    def from_generator(cls, cochain: Cochain2, gen_image: CycMatrix) -> "PseudoRep":
        """Extend an image of the canonical generator along the composition rule."""
        group = cochain.group
        n = group.order
        coeff = cochain.coefficients
        images = [CycMatrix.identity(gen_image.size)]
        gen = (1,)
        cur_elt = group.identity
        for _ in range(n - 1):
            # sigma(g) sigma(g^k) = c(g, g^k) sigma(g^{k+1})
            nxt = (gen_image @ images[-1]).scale(coeff.value(-cochain.value(gen, cur_elt)))
            images.append(nxt)
            cur_elt = group.add(cur_elt, gen)
        return cls(cochain, images)

    def conjugate(self, g: CycMatrix) -> "PseudoRep":
        g_inv = g.inverse()
        return PseudoRep(self.cochain, [g_inv @ im @ g for im in self.images])


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    witness: tuple | None  # first violating (a, b) pair

    def __bool__(self):
        return self.ok


def verify_pseudorep(sigma: PseudoRep) -> VerifyReport:
    """Exhaustive check of the composition rule on all pairs, plus sigma(1) = Id."""
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


@dataclass(frozen=True)
class PseudoRepClass:
    """Conjugacy invariant: order, zeta, and the eigenvalue exponent multiset."""

    order: int
    zeta: FractionalWeight
    exponents: tuple  # FractionalWeight values q in [0,1), sorted descending

    def __post_init__(self):
        exps = tuple(self.exponents)
        object.__setattr__(self, "exponents", exps)
        if list(exps) != sorted(exps, key=lambda w: w.value, reverse=True):
            raise MalformedInput("exponents must be sorted descending")
        for q in exps:
            if not normalize_weight(self.order * q.value).congruent(self.zeta.value):
                raise MalformedInput(
                    f"exponent {q.value} does not satisfy lambda^{self.order} = zeta")

    @property
    def rank(self) -> int:
        return len(self.exponents)

    def exponent_values(self):
        return tuple(q.value for q in self.exponents)


@dataclass(frozen=True)
class QuotientClass:
    """A pseudorep class modulo simultaneous shift by the scalar subgroup."""

    order: int
    exponents: tuple

    def exponent_values(self):
        return tuple(q.value for q in self.exponents)


def classify(sigma: PseudoRep) -> PseudoRepClass:
    """Eigenvalue exponents of the canonical generator image; conjugation invariant."""
    verdict = verify_pseudorep(sigma)
    if not verdict:
        raise NotAPseudoRep(f"composition rule fails at {verdict.witness}")
    n = sigma.order
    m = sigma.cochain.coefficients.order
    z = zeta(sigma.cochain, (1,))
    bound = working_order(n * m, 2)
    exps = root_of_unity_eigenvalues(sigma.image((1,)), bound)
    return PseudoRepClass(n, z, tuple(FractionalWeight(q) for q in exps))


def enumerate_classes(n: int, r: int, zeta_value, model: str = "gl") -> list[PseudoRepClass]:
    """All exponent multisets of size r with e^{2 pi i n q} = zeta.

    For "sl" only multisets with integral exponent sum survive.  The GL count
    is C(n + r - 1, r).
    """
    if model not in ("gl", "sl"):
        raise MalformedInput(f"model must be 'gl' or 'sl', got {model!r}")
    if n * r > MAX_ENUMERATION:
        raise ScaleExceeded(f"n*r = {n * r} exceeds {MAX_ENUMERATION}")
    if isinstance(zeta_value, FractionalWeight):
        zv = zeta_value.value
    else:
        zv = rational(zeta_value) % 1
    z = FractionalWeight(zv)
    base = zv / n
    candidates = sorted((base + Fraction(j, n)) % 1 for j in range(n))
    classes = []
    for combo in combinations_with_replacement(candidates, r):
        if model == "sl" and sum(combo).denominator != 1:
            continue
        exps = tuple(FractionalWeight(q) for q in sorted(combo, reverse=True))
        classes.append(PseudoRepClass(n, z, exps))
    if model == "gl":
        if len(classes) != comb(n + r - 1, r):
            raise AssertionError(f"{len(classes)} classes, expected C({n + r - 1}, {r})")
    classes.sort(key=lambda c: c.exponent_values())
    return classes


def deck_transport(sigma: PseudoRep, gamma0, ambient: FiniteAbelianGroup,
                   gen_image) -> PseudoRep:
    """Transport along a deck transformation: sigma'(h) = sigma(g0^-1 h g0).

    The isotropy group embeds in the ambient group by sending the canonical
    generator to gen_image; the target isotropy group is the conjugate, which
    for an abelian ambient group is the same subgroup.
    """
    gamma0 = tuple(gamma0)
    gen_image = tuple(gen_image)
    if gamma0 not in ambient.index:
        raise IsotropyMismatch(f"{gamma0} is not an ambient element")
    embed = {}
    cur = ambient.identity
    for h in sigma.group.elements:
        embed[h] = cur
        cur = ambient.add(cur, gen_image)
    if ambient.element_order(gen_image) != sigma.order:
        raise IsotropyMismatch("generator image has the wrong order")
    inv_embed = {v: k for k, v in embed.items()}
    images = []
    for h in sigma.group.elements:
        conj = ambient.add(ambient.add(ambient.neg(gamma0), embed[h]), gamma0)
        if conj not in inv_embed:
            raise IsotropyMismatch(f"conjugate of {h} leaves the isotropy group")
        images.append(sigma.image(inv_embed[conj]))
    return PseudoRep(sigma.cochain, images)


def project_mod_center(cls: PseudoRepClass | QuotientClass, m: int) -> QuotientClass:
    """Quotient by simultaneous exponent shifts k/m; lexicographically least shift wins."""
    if m < 1:
        raise MalformedInput("scalar subgroup order must be positive")
    values = [q.value for q in cls.exponents]
    best = None
    for k in range(m):
        shift = Fraction(k, m)
        shifted = tuple(sorted(((v + shift) % 1 for v in values), reverse=True))
        if best is None or shifted < best:
            best = shifted
    return QuotientClass(cls.order, tuple(FractionalWeight(q) for q in best))


def induced_cocycle(c: Cochain2, target_order: int, generator_image: int) -> Cochain2:
    """Push the coefficient values through z -> z^t seen as mu_m -> mu_m'.

    The map zeta_m -> zeta_m'^t is a homomorphism iff m' divides t*m.
    """
    m = c.coefficients.order
    t = int(generator_image)
    m2 = int(target_order)
    if m2 < 1 or (t * m) % m2 != 0:
        raise NotAHomomorphism(
            f"zeta_{m} -> zeta_{m2}^{t} does not define a homomorphism")
    out = Cochain2(c.group, CoefficientGroup(m2), [[x * t for x in row] for row in c.table])
    verdict = is_cocycle(out)
    if not verdict.ok:
        raise AssertionError("homomorphic image of a cocycle must be a cocycle")
    return out
