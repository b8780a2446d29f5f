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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations_with_replacement
from math import comb, lcm

from .cocycles import Cochain2, CoefficientGroup, FiniteAbelianGroup, is_cocycle
from .errors import (IsotropyMismatch, MalformedInput, NotAHomomorphism,
                     NotAPseudoRep, ScaleExceeded, SizeMismatch)
from .matrices import root_of_unity_eigenvalues
from .scalars import FractionalWeight, check_order, normalize_weight, rational

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
        check_order(lcm(group.order * cochain.coefficients.order,
                        *(x.order for im in images for row in im.rows for x in row)))
        self.cochain = cochain
        self.group = group
        self.images = images
        self.size = images[0].size

    @property
    def order(self) -> int:
        return self.group.order


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    witness: tuple | None  # first violating (a, b) pair

    def __bool__(self):
        return self.ok


def _generator_sums(sigma: PseudoRep) -> list[int]:
    """T_j = sum_{i<j} c(g, g^i) for j = 0..n, g the canonical generator."""
    return list(accumulate(sigma.cochain.table[1 % sigma.order], initial=0))


def verify_pseudorep(sigma: PseudoRep) -> VerifyReport:
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
        return VerifyReport(False, (g.identity, g.identity))
    n = sigma.order
    coeff = sigma.cochain.coefficients
    table = sigma.cochain.table
    gen = 1 % n
    for j in range(n):
        if images[gen] @ images[j] != images[(gen + j) % n].scale(coeff.value(table[gen][j])):
            return VerifyReport(False, (g.elements[gen], g.elements[j]))
    T = _generator_sums(sigma)
    for a in range(n):
        for b in range(n):
            d = T[(a + b) % n] + (T[n] if a + b >= n else 0) - T[a] - T[b]
            if (table[a][b] - d) % coeff.order:
                return VerifyReport(False, (g.elements[a], g.elements[b]))
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
    """Eigenvalue exponents of sigma(g), from its power traces zeta_m^T_j tr sigma(g^j)."""
    verdict = verify_pseudorep(sigma)
    if not verdict:
        raise NotAPseudoRep(f"composition rule fails at {verdict.witness}")
    coeff = sigma.cochain.coefficients
    T = _generator_sums(sigma)
    z = Fraction(T[-1] % coeff.order, coeff.order)
    traces = [im.trace() * coeff.value(t) for im, t in zip(sigma.images, T)]
    exps = root_of_unity_eigenvalues(traces, z, sigma.size)
    return PseudoRepClass(sigma.order, FractionalWeight(z),
                          tuple(FractionalWeight(q) for q in exps))


def enumerate_classes(n: int, r: int, zeta_value, model: str = "gl") -> list[PseudoRepClass]:
    """All exponent multisets of size r with e^{2 pi i n q} = zeta.

    For "sl" only multisets with integral exponent sum survive.  The GL count
    is C(n + r - 1, r).
    """
    if model not in ("gl", "sl"):
        raise MalformedInput(f"model must be 'gl' or 'sl', got {model!r}")
    if n * r > MAX_ENUMERATION:
        raise ScaleExceeded(f"n*r = {n * r} exceeds {MAX_ENUMERATION}")
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
    generator to gen_image.  Conjugation in an abelian ambient group fixes
    every element, so once gamma0 and gen_image are checked the transported
    pseudorep is sigma itself.
    """
    gamma0 = tuple(gamma0)
    if gamma0 not in ambient.index:
        raise IsotropyMismatch(f"{gamma0} is not an ambient element")
    if ambient.element_order(tuple(gen_image)) != sigma.order:
        raise IsotropyMismatch("generator image has the wrong order")
    return sigma


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
