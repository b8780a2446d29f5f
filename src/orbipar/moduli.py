"""Bookkeeping around the moduli statements: covering arithmetic, stratum
indices, combinatorial degree pairings, and the quotient degree scaling.

The stratum enumeration indexes fixed-point components by a cohomology class
together with one pseudorepresentation quotient class per branch orbit (one
per orbit, not per point: deck transport identifies the classes at points of
a single orbit).  No nonemptiness claim is attached to an index.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .cocycles import (DEFAULT_SCALE_BOUND, Cochain2, FiniteAbelianGroup,
                       h2_classes)
from .errors import (MalformedInput, NegativeGenus, NonIntegralGenus,
                     ScaleExceeded, UnsupportedModel)
from .liemodel import GroupModel
from .pseudoreps import enumerate_classes, project_mod_center
from .scalars import rational


@dataclass(frozen=True)
class CoveringData:
    """A degree-N ramified cover: upstairs genus, deck group order, and the
    ramification order of each branch orbit (each orbit has N/N_j points)."""

    genus_x: int
    group_order: int
    orbit_orders: tuple  # N_j per branch orbit, each dividing N and >= 2

    def __post_init__(self):
        object.__setattr__(self, "orbit_orders", tuple(int(n) for n in self.orbit_orders))
        if self.genus_x < 2:
            raise MalformedInput("upstairs genus must be at least 2")
        if self.group_order < 1:
            raise MalformedInput("group order must be positive")
        for nj in self.orbit_orders:
            if nj < 2 or self.group_order % nj != 0:
                raise MalformedInput(
                    f"ramification order {nj} must be >= 2 and divide {self.group_order}")


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


@dataclass(frozen=True)
class StratumIndex:
    """One fixed-point stratum label: a cocycle class representative plus a
    quotient pseudorep class per branch orbit."""

    cocycle: Cochain2
    orbit_classes: tuple  # QuotientClass per orbit


def enumerate_strata(group: FiniteAbelianGroup, coeff_order: int,
                     covering: CoveringData, model: GroupModel,
                     max_candidates: int = DEFAULT_SCALE_BOUND) -> list[StratumIndex]:
    """Cartesian product of H^2 class representatives with, per branch orbit,
    the center-projected classes of order-N_j diagonal pseudorepresentations.

    `max_candidates` bounds the number of strata."""
    if not group.is_cyclic():
        raise MalformedInput("stratum enumeration expects a cyclic deck group")
    if group.order != covering.group_order:
        raise MalformedInput("deck group order disagrees with the covering data")
    if model.kind not in ("gl", "sl"):
        raise UnsupportedModel("class enumeration is defined for gl and sl models")
    cocycle_reps = h2_classes(group, coeff_order, max_candidates)
    per_orbit = []
    for nj in covering.orbit_orders:
        seen = set()
        classes = []
        for cls in enumerate_classes(nj, model.size, 0, model.kind):
            q = project_mod_center(cls, coeff_order)
            if q.exponent_values() not in seen:
                seen.add(q.exponent_values())
                classes.append(q)
        classes.sort(key=lambda c: c.exponent_values())
        per_orbit.append(classes)
    total = len(cocycle_reps)
    for classes in per_orbit:
        total *= len(classes)
    if total > max_candidates:
        raise ScaleExceeded(f"{total} strata exceed bound {max_candidates}")
    out = []
    for combo in product(cocycle_reps, *per_orbit):
        out.append(StratumIndex(combo[0], tuple(combo[1:])))
    return out


@dataclass(frozen=True)
class FlagPiece:
    value: Fraction  # the s-eigenvalue of this graded piece
    rank: int
    degree: int


class FlagDegreeData:
    """Split diagonal reduction data: s with repetitions, one (rank, degree)
    per distinct s-value, and optional per-point parabolic corrections."""

    def __init__(self, s, pieces, corrections=()):
        s = sorted((rational(x) for x in s), reverse=True)
        parsed = [FlagPiece(rational(p["value"]), int(p["rank"]), int(p["degree"]))
                  for p in pieces]
        parsed.sort(key=lambda p: p.value, reverse=True)
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
        self.corrections = tuple(rational(c) for c in corrections)

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


@dataclass(frozen=True)
class StabilityVerdict:
    mode: str  # "semistable" | "stable"
    ok: bool
    violator: int | None  # index of the first failing candidate
    pairing: Fraction | None  # its pairing value

    def __bool__(self):
        return self.ok


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
            return StabilityVerdict(mode, False, i, value)
    return StabilityVerdict(mode, True, None, None)


@dataclass(frozen=True)
class ScalingReport:
    scaling_ok: bool  # claimed degree upstairs equals N times the parabolic degree
    integral: bool    # the upstairs degree is an integer

    def __bool__(self):
        return self.scaling_ok


def degree_scaling_check(par_deg_y, group_order: int, claimed_deg_x) -> ScalingReport:
    """The upstairs degree of a reduction is |Gamma| times its parabolic degree."""
    if group_order < 1:
        raise MalformedInput("group order must be positive")
    par = rational(par_deg_y)
    claimed = rational(claimed_deg_x)
    return ScalingReport(claimed == group_order * par, claimed.denominator == 1)
