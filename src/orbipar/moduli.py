"""Bookkeeping around the moduli statements: covering arithmetic, strata,
combinatorial degree pairings, and the quotient degree scaling.

The stratum enumeration indexes fixed-point components by a cohomology class
together with one pseudorepresentation quotient class per branch orbit (one
per orbit, not per point: deck transport identifies the classes at points of
a single orbit).  No nonemptiness claim is attached to an index.

Covering data, strata blocks, flag pieces and the verdicts are named
tuples; a verdict is read by its field, never by its truth value.  The
strata of one enumeration are a Strata that keeps the product's factors,
one block per cocycle class, and builds no stratum.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import prod

from .cocycles import DEFAULT_SCALE_BOUND, FiniteAbelianGroup, h2_classes
from .errors import (MalformedInput, NegativeGenus, NonIntegralGenus,
                     ScaleExceeded, UnsupportedModel)
from .liemodel import GroupModel
from .pseudoreps import quotient_classes

MAX_STRATA_CELLS = 2 ** 16  # cochain table rows plus exponents over all strata of one output


class CoveringData(namedtuple("CoveringData", "genus_x group_order orbit_orders")):
    """A degree-N ramified cover: upstairs genus, deck group order N, and the
    ramification order N_j of each branch orbit (each orbit has N/N_j points),
    each dividing N and >= 2."""

    __slots__ = ()

    def __new__(cls, genus_x, group_order, orbit_orders):
        if genus_x < 2:
            raise MalformedInput("upstairs genus must be at least 2")
        if group_order < 1:
            raise MalformedInput("group order must be positive")
        for nj in orbit_orders:
            if nj < 2 or group_order % nj != 0:
                raise MalformedInput(
                    f"ramification order {nj} must be >= 2 and divide {group_order}")
        return super().__new__(cls, genus_x, group_order, orbit_orders)


def riemann_hurwitz(data: CoveringData) -> int:
    """Solve 2g_X - 2 = N(2g_Y - 2) + sum (N/N_j)(N_j - 1) for g_Y."""
    N = data.group_order
    ram = sum(Fraction(N, nj) * (nj - 1) for nj in data.orbit_orders)
    g_y = (Fraction(2 * data.genus_x - 2) - ram) / (2 * N) + 1
    if g_y.denominator != 1:
        raise NonIntegralGenus(f"quotient genus {g_y} is not an integer")
    if g_y < 0:
        raise NegativeGenus(f"quotient genus {g_y} is negative")
    return int(g_y)


# the strata over one cocycle class representative: the cocycle and, per
# branch orbit, the list of quotient classes it pairs with
StrataBlock = namedtuple("StrataBlock", "cocycle orbit_classes")


class Strata:
    """The strata as the product they are, one StrataBlock per H^2 class
    representative: block by block, and within a block the product over the
    orbits, the last orbit fastest.  Its length is the number of strata."""

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        self.blocks = tuple(blocks)

    def __len__(self) -> int:
        return sum(prod(map(len, b.orbit_classes)) for b in self.blocks)


def enumerate_strata(group: FiniteAbelianGroup, coeff_order: int,
                     covering: CoveringData, model: GroupModel,
                     scale_bound: int = DEFAULT_SCALE_BOUND) -> Strata:
    """Cartesian product of H^2 class representatives with, per branch orbit,
    the center-projected classes of order-N_j diagonal pseudorepresentations,
    kept as its factors.

    `scale_bound` bounds the number of strata, and MAX_STRATA_CELLS the
    table rows and exponents they carry in all.  The classes are computed
    once per distinct orbit order, and the strata count is checked against
    the bound as each orbit multiplies it."""
    if not group.is_cyclic():
        raise MalformedInput("stratum enumeration expects a cyclic deck group")
    if group.order != covering.group_order:
        raise MalformedInput("deck group order disagrees with the covering data")
    if len(model.dims) != 1:
        raise UnsupportedModel("class enumeration is defined for gl and sl models")
    cocycle_reps = h2_classes(group, coeff_order, scale_bound)
    classes = {nj: quotient_classes(nj, model.size, Fraction(0), coeff_order, model.kind)
               for nj in dict.fromkeys(covering.orbit_orders)}
    total = len(cocycle_reps)
    for count, nj in enumerate(covering.orbit_orders, 1):
        total *= len(classes[nj])
        if total > scale_bound:
            raise ScaleExceeded(f"the first {count} orbits already give {total} strata, "
                                f"above the bound {scale_bound}")
    per_stratum = group.order ** 2 + len(covering.orbit_orders) * model.size
    if total * per_stratum > MAX_STRATA_CELLS:
        raise ScaleExceeded(f"{total} strata carry {per_stratum} table rows and exponents "
                            f"each, above the bound {MAX_STRATA_CELLS} in all")
    per_orbit = tuple(classes[nj] for nj in covering.orbit_orders)
    return Strata(StrataBlock(c, per_orbit) for c in cocycle_reps)


# one graded piece of a flag: its s-eigenvalue (a Fraction), rank and degree
FlagPiece = namedtuple("FlagPiece", "value rank degree")


class FlagDegreeData:
    """Split diagonal reduction data: s with repetitions (Fractions), one
    FlagPiece per distinct s-value, and per-point parabolic corrections."""

    def __init__(self, s, pieces, corrections=()):
        s = sorted(s, reverse=True)
        parsed = sorted(pieces, key=lambda p: p.value, reverse=True)
        values = [p.value for p in parsed]
        if len(set(values)) != len(values):
            raise MalformedInput("one graded piece per distinct s-value")
        expected = {}
        for x in s:
            expected[x] = expected.get(x, 0) + 1
        got = {p.value: p.rank for p in parsed}
        if expected != got:
            raise MalformedInput(
                f"piece ranks {got} do not match s-value multiplicities {expected}")
        self.s = tuple(s)
        self.pieces = tuple(parsed)
        self.corrections = tuple(corrections)

    @property
    def rank(self) -> int:
        return len(self.s)


def degree_pairing(flag: FlagDegreeData) -> Fraction:
    """Sum of s-value times graded degree, plus the parabolic corrections.

    Linear in s, additive in degrees, zero for s = 0."""
    total = Fraction(0)
    for p in flag.pieces:
        total += p.value * p.degree
    for c in flag.corrections:
        total += c
    return total


# violator is the index of the first failing candidate and pairing its
# pairing value, both None when every candidate passes
StabilityVerdict = namedtuple("StabilityVerdict", "ok violator pairing")


def stability_verdict(candidates, mode: str) -> StabilityVerdict:
    """Check all candidate reductions: >= 0 for semistable, > 0 for stable.

    The verdict is relative to the supplied candidate list; callers are
    responsible for listing the reductions compatible with the Higgs field.
    """
    if mode not in ("semistable", "stable"):
        raise MalformedInput(f"mode must be 'semistable' or 'stable', got {mode!r}")
    for i, cand in enumerate(candidates):
        value = degree_pairing(cand)
        if (mode == "semistable" and value < 0) or (mode == "stable" and value <= 0):
            return StabilityVerdict(False, i, value)
    return StabilityVerdict(True, None, None)


# scaling_ok: the claimed upstairs degree is N times the parabolic degree;
# integral: the upstairs degree is an integer
ScalingReport = namedtuple("ScalingReport", "scaling_ok integral")


def degree_scaling_check(par_deg_y, group_order: int, claimed_deg_x) -> ScalingReport:
    """The upstairs degree of a reduction is |Gamma| times its parabolic degree,
    both Fractions."""
    if group_order < 1:
        raise MalformedInput("group order must be positive")
    return ScalingReport(claimed_deg_x == group_order * par_deg_y,
                         claimed_deg_x.denominator == 1)
