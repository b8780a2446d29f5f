"""Graded truncated series of local Higgs fields and the descent engine.

Upstairs a local field is f(z) dz with f valued in m^C, expanded over the
eigenbasis of Ad(e^{2 pi i alpha}); a term is (basis element, exponent k,
cyclotomic coefficient).  The finite-order action multiplies such a term by
e^{2 pi i (beta + (k+1)/N)}, so invariance is the index condition

    k = N*l - N*beta - 1   for some integer l,

which is checked both by that congruence and by honest substitution: the
torus element diag(t_i), t_i = e^{2 pi i alpha_i}, acts on the (i, j) entry
of a basis element by t_i / t_j.  Descent pushes an invariant
field through the meromorphic gauge z^{N alpha} and the substitution
w = z^N; per component the gauge acts as the integer exponent shift N*beta,
so for beta < 0 the l-th term lands on w^{l-1} dw with a simple pole at
l = 0, and for beta >= 0 on w^l dw with no pole; both pick up the factor
1/N from dw = N z^{N-1} dz.  Ascent is the exact inverse, multiplying by N.

Truncation is a valid-through exponent: absent exponents at or below it are
exactly zero, larger ones are unknown.  Descent and ascent compute the exact
valid-through exponent of their output as one below the image of the first
unknown slot, minimized over eigencomponents; terms landing above that are
dropped rather than overclaimed.  This is what makes round trips exact on
the common range.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import (BadResidueSupport, MalformedInput, NotInvariant,
                     NonIntegralGauge, TwistDenominator, WeightOnWall)
from .liemodel import (GroupModel, WeightVector, beta_of_basis, check_alcove,
                       parabolic_from_s, s_from_weight)
from .matrices import CycMatrix
from .scalars import (Cyclotomic, FractionalWeight, check_order, rational,
                      root_of_unity)

UPSTAIRS = "z"
DOWNSTAIRS = "w"


class GradedSeries:
    """A truncated matrix-valued Laurent series tagged by eigenvalue exponents.

    Upstairs (variable z) series are holomorphic: exponents k >= 0.
    Downstairs (variable w) series may carry a simple pole: k >= -1.
    """

    def __init__(self, model: GroupModel, weight: WeightVector, N: int,
                 variable: str, trunc: int, terms):
        check_alcove(model, weight)
        if not weight.is_interior():
            raise WeightOnWall(f"{weight.values()} lies on an alcove wall")
        N = int(N)
        if N < 1:
            raise MalformedInput("N must be a positive integer")
        for v in weight.values():
            if (N * v).denominator != 1:
                raise NonIntegralGauge(f"N*alpha is not integral: {N}*{v}")
        if variable not in (UPSTAIRS, DOWNSTAIRS):
            raise MalformedInput(f"variable must be '{UPSTAIRS}' or '{DOWNSTAIRS}'")
        floor = 0 if variable == UPSTAIRS else -1
        trunc = int(trunc)
        if trunc < floor - 1:
            raise MalformedInput(f"truncation {trunc} below {floor - 1}")
        clean = {}
        for (b, k), coeff in terms.items():
            b, k = int(b), int(k)
            if not 0 <= b < model.dim_m:
                raise MalformedInput(f"basis index {b} out of range")
            if k < floor:
                raise MalformedInput(f"exponent {k} below {floor} for variable {variable}")
            if k > trunc:
                raise MalformedInput(f"exponent {k} above truncation {trunc}")
            if not isinstance(coeff, Cyclotomic):
                coeff = Cyclotomic.from_rational(rational(coeff))
            if coeff.is_zero():
                continue
            if (b, k) in clean:
                raise MalformedInput(f"duplicate term at basis {b}, exponent {k}")
            clean[(b, k)] = coeff
        self.model = model
        self.weight = weight
        self.N = N
        self.variable = variable
        self.trunc = trunc
        self.terms = clean
        check_order(self.working_field_order())
        self.beta = beta_of_basis(model, weight)

    def beta_of(self, basis_idx: int) -> FractionalWeight:
        return self.beta[basis_idx]

    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda kv: (self.model.basis_key(kv[0][0]), kv[0][1]))

    def with_terms(self, terms) -> "GradedSeries":
        return GradedSeries(self.model, self.weight, self.N, self.variable,
                            self.trunc, terms)

    def working_field_order(self) -> int:
        """The lcm of N, the weight denominators and the coefficient orders.

        A twist that check_invariance accepts has a denominator dividing N.
        """
        return lcm(self.N, *(v.denominator for v in self.weight.values()),
                   *(c.order for c in self.terms.values()))


def decompose_by_beta(series: GradedSeries):
    """Split into eigencomponents; the direct sum reassembles the input."""
    out: dict[FractionalWeight, GradedSeries] = {}
    buckets: dict[FractionalWeight, dict] = {}
    for (b, k), coeff in series.terms.items():
        buckets.setdefault(series.beta_of(b), {})[(b, k)] = coeff
    for beta in sorted(buckets, key=lambda w: w.value, reverse=True):
        out[beta] = series.with_terms(buckets[beta])
    return out


@dataclass(frozen=True)
class InvarianceReport:
    invariant: bool
    by_index: bool
    by_substitution: bool
    twist: Fraction
    violations: tuple  # (beta, k, basis_key) triples

    def __bool__(self):
        return self.invariant


def _twist_fraction(twist, N: int) -> Fraction:
    if twist is None:
        return Fraction(0)
    t = rational(twist)
    if (N * t).denominator != 1:
        raise TwistDenominator(f"twist {t} has denominator not dividing N={N}")
    return t % 1


def check_invariance(series: GradedSeries, twist=None) -> InvarianceReport:
    """Invariance of the local field under the order-N isotropy action.

    Two independent verdicts are computed and must agree: the index criterion
    k + 1 + N*beta = N*twist (mod N), and direct substitution, which acts on
    each nonzero entry (i, j) of the term's basis element by t_i / t_j and
    e^{2 pi i (k+1)/N}.  The substitution reads t_i = e^{2 pi i alpha_i} from
    the weight and never beta.
    """
    if series.variable != UPSTAIRS:
        raise MalformedInput("invariance is defined for upstairs (z) series")
    t = _twist_fraction(twist, series.N)
    N = series.N

    index_violations = []
    for (b, k), _ in series.sorted_terms():
        beta = series.beta_of(b).value
        if (k + 1 + N * beta - N * t) % N != 0:
            index_violations.append((series.beta_of(b), k, series.model.basis_key(b)))
    by_index = not index_violations

    torus = [root_of_unity(v) for v in series.weight.values()]
    twist_scalar = root_of_unity(t)
    subst_violations = []
    for (b, k), _ in series.sorted_terms():
        # t_i e_ij c t_j^-1 zeta_N^(k+1) = e_ij c e^{2 pi i twist} on each entry;
        # the coefficient c cancels because GradedSeries drops zero terms
        phase = root_of_unity(Fraction((k + 1) % N, N), N)
        rows = series.model.basis_matrix(b).rows
        if any(torus[i] * phase != torus[j] * twist_scalar
               for i, row in enumerate(rows) for j, e in enumerate(row) if e):
            subst_violations.append((series.beta_of(b), k, series.model.basis_key(b)))
    by_substitution = not subst_violations

    if by_index != by_substitution or index_violations != subst_violations:
        raise AssertionError(
            f"invariance oracles disagree: index={index_violations} "
            f"substitution={subst_violations}")
    return InvarianceReport(by_index, by_index, by_substitution, t,
                            tuple(index_violations))


@dataclass(frozen=True)
class ResidueReport:
    residue: CycMatrix
    support_in_negative_beta: bool
    nilpotent: bool
    nilpotency_index: int | None  # least p with residue^p = 0
    levi_projection_zero: bool


def residue_report(series: GradedSeries) -> ResidueReport:
    """Analyze the simple-pole coefficient of a downstairs series."""
    if series.variable != DOWNSTAIRS:
        raise MalformedInput("residues live downstairs (variable w)")
    n = series.model.size
    residue = CycMatrix.zero(n)
    support_ok = True
    for (b, k), coeff in series.terms.items():
        if k != -1:
            continue
        residue = residue + series.model.basis_matrix(b).scale(coeff)
        if series.beta_of(b).value >= 0:
            support_ok = False

    nilpotency_index = None
    power = residue
    for p in range(1, n + 1):
        if power.is_zero():
            nilpotency_index = p
            break
        power = power @ residue

    para = parabolic_from_s(series.model, s_from_weight(series.weight))
    levi_zero = True
    for i in range(n):
        for j in range(n):
            if para.m0_mask[i][j] and not residue.entry(i, j).is_zero():
                levi_zero = False
    return ResidueReport(residue, support_ok, nilpotency_index is not None,
                         nilpotency_index, levi_zero)


def _descend_trunc(series: GradedSeries) -> int:
    """Largest downstairs exponent determined in every eigencomponent.

    Component beta has upstairs slots k = -N*beta - 1 (mod N); its first slot
    above the input truncation maps to the first unknown downstairs exponent.
    """
    N, T = series.N, series.trunc
    best = None
    for beta in {w.value for w in series.beta}:
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
    for beta in {w.value for w in series.beta}:
        k_unknown = N * (Tw + 2) - int(N * beta) - 1
        best = k_unknown - 1 if best is None else min(best, k_unknown - 1)
    return max(best, -1)


def descend(series: GradedSeries):
    """Push an invariant upstairs field to the quotient: returns (series, residue).

    Per component: the term at k = N*l - N*beta - 1 lands on w^(l-1) dw for
    beta < 0 and on w^l dw for 0 <= beta < 1, in both cases scaled by 1/N.
    """
    if series.variable != UPSTAIRS:
        raise MalformedInput("descend expects an upstairs (z) series")
    report = check_invariance(series, twist=None)
    if not report:
        raise NotInvariant(f"series is not invariant: violations {report.violations}")
    N = series.N
    out_trunc = _descend_trunc(series)
    terms = {}
    for (b, k), coeff in series.terms.items():
        nl = k + 1 + N * series.beta_of(b).value  # = N*l, integral by invariance
        if nl.denominator != 1 or int(nl) % N:
            raise AssertionError(f"k + 1 + N*beta = {nl} is not a multiple of N")
        j = int(nl) // N - 1
        if j > out_trunc:
            continue
        terms[(b, j)] = coeff * Fraction(1, N)
    down = GradedSeries(series.model, series.weight, N, DOWNSTAIRS, out_trunc, terms)
    return down, residue_report(down)


def ascend(series: GradedSeries) -> GradedSeries:
    """Pull a downstairs field with admissible residue back to the cover.

    The pole coefficients must lie in strictly negative eigencomponents; the
    result is holomorphic and invariant, which is checked.
    """
    if series.variable != DOWNSTAIRS:
        raise MalformedInput("ascend expects a downstairs (w) series")
    N = series.N
    for (b, k), _ in series.sorted_terms():
        if k == -1 and series.beta_of(b).value >= 0:
            raise BadResidueSupport(
                f"pole coefficient at basis {series.model.basis_key(b)} has "
                f"beta = {series.beta_of(b).value} >= 0")
    out_trunc = _ascend_trunc(series)
    terms = {}
    for (b, j), coeff in series.terms.items():
        k = N * (j + 1) - int(N * series.beta_of(b).value) - 1
        if k < 0:
            raise AssertionError("support precondition guarantees holomorphy")
        if k > out_trunc:
            continue
        terms[(b, k)] = coeff * N
    up = GradedSeries(series.model, series.weight, N, UPSTAIRS, out_trunc, terms)
    if not check_invariance(up).invariant:
        raise AssertionError("ascended series must be invariant")
    return up
