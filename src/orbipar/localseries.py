"""Graded truncated series of local Higgs fields and the descent engine.

Upstairs a local field is f(z) dz with f valued in m^C, expanded over the
eigenbasis of Ad(e^{2 pi i alpha}); a term is (basis key, exponent k,
cyclotomic coefficient), where the key (i, j) names a basis element as in
``liemodel`` and is also its name on the wire.  The finite-order action
multiplies such a term by e^{2 pi i (beta + (k+1)/N)}, so invariance is the
index condition

    k = N*l - N*beta - 1   for some integer l,

which is checked both by that congruence and by honest substitution: the
torus element diag(t_i), t_i = e^{2 pi i alpha_i}, acts on each entry (i, j)
of a basis element (``GroupModel.entries``) by t_i / t_j, the exponent
alpha_i - alpha_j mod 1.
Descent pushes an invariant field through the meromorphic gauge z^{N alpha}
and the substitution w = z^N; per component the gauge acts as the integer
exponent shift N*beta, so for beta < 0 the l-th term lands on w^{l-1} dw
with a simple pole at l = 0, and for beta >= 0 on w^l dw with no pole; both
pick up the factor 1/N from dw = N z^{N-1} dz.  Ascent is the exact
inverse, multiplying by N.

Truncation is a valid-through exponent: absent exponents at or below it are
exactly zero, larger ones are unknown.  Descent and ascent give their output
the exact valid-through exponent, one below the image of the first unknown
slot minimized over eigencomponents, in closed form: for input truncation T,
descent gives max(floor((T + 1 + N*beta_min)/N) - 1, -2) and ascent gives
max(N*(T + 2) - 2 - N*beta_max, -1).  Terms landing above it are dropped
rather than overclaimed, which is what makes round trips exact on the common
range.  sl(1) has m^C = 0 and so no local series.

The invariance and residue reports are named tuples, read by field; the
residue's support and Levi verdicts are read off the poles' beta.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import lcm

from .errors import (BadResidueSupport, MalformedInput, NotInvariant, NonIntegralGauge,
                     TwistDenominator, UnsupportedModel, WeightOnWall)
from .liemodel import WeightVector
from .matrices import CycMatrix
from .scalars import Cyclotomic, check_order

UPSTAIRS = "z"
DOWNSTAIRS = "w"


class GradedSeries:
    """A truncated matrix-valued Laurent series tagged by eigenvalue exponents.

    Upstairs (variable z) series are holomorphic: exponents k >= 0.
    Downstairs (variable w) series may carry a simple pole: k >= -1.
    Terms map (basis key, k) to a Cyclotomic, in (key, k) order; zero terms
    are dropped.  The model is the weight's and has m^C nonzero; beta, the
    weight's map from each basis key to its exponent, is shared by every
    series derived from this one.
    """

    def __init__(self, weight: WeightVector, N: int, variable: str, trunc: int, terms):
        model = weight.model
        if not model.basis:
            raise UnsupportedModel(f"{model!r} has m^C = 0 and no local series")
        if not weight.is_interior():
            raise WeightOnWall(f"{weight.entries} lies on an alcove wall")
        if N < 1:
            raise MalformedInput("N must be a positive integer")
        for v in weight.entries:
            if (N * v).denominator != 1:
                raise NonIntegralGauge(f"N*alpha is not integral: {N}*{v}")
        if variable not in (UPSTAIRS, DOWNSTAIRS):
            raise MalformedInput(f"variable must be '{UPSTAIRS}' or '{DOWNSTAIRS}'")
        floor = 0 if variable == UPSTAIRS else -1
        if trunc < floor - 1:
            raise MalformedInput(f"truncation {trunc} below {floor - 1}")
        clean = {}
        for (key, k), coeff in terms.items():
            if key not in model.basis:
                raise MalformedInput(f"{key} is not a basis key of this model")
            if k < floor:
                raise MalformedInput(f"exponent {k} below {floor} for variable {variable}")
            if k > trunc:
                raise MalformedInput(f"exponent {k} above truncation {trunc}")
            if coeff:
                clean[(key, k)] = coeff
        self.model = model
        self.weight = weight
        self.N = N
        self.variable = variable
        self.trunc = trunc
        self.terms = dict(sorted(clean.items()))  # distinct keys: no coefficient compared
        check_order(self.working_field_order())
        self.beta = weight.beta

    def with_terms(self, terms) -> "GradedSeries":
        return GradedSeries(self.weight, self.N, self.variable, self.trunc, terms)

    def working_field_order(self) -> int:
        """The lcm of N and the coefficient orders.

        N*alpha is integral (the NonIntegralGauge check), so every weight
        denominator divides N, and a twist that check_invariance accepts has
        a denominator dividing N too.
        """
        return lcm(self.N, *(c.order for c in self.terms.values()))


# violations are (beta, k, basis key) triples
InvarianceReport = namedtuple("InvarianceReport",
                              "invariant by_index by_substitution twist violations")


def _twist_fraction(twist, N: int) -> Fraction:
    if twist is None:
        return Fraction(0)
    if (N * twist).denominator != 1:
        raise TwistDenominator(f"twist {twist} has denominator not dividing N={N}")
    return twist % 1


def check_invariance(series: GradedSeries, twist=None) -> InvarianceReport:
    """Invariance of the local field under the order-N isotropy action.

    Two independent verdicts are computed for each term in one pass and must
    agree: the index criterion k + 1 + N*beta = N*twist (mod N), and direct
    substitution, which acts on each nonzero entry (i, j) of the term's basis
    element by t_i / t_j and e^{2 pi i (k+1)/N}, that is
    alpha_i - alpha_j + (k+1)/N - twist in Z.  The substitution reads
    t_i = e^{2 pi i alpha_i} from the weight and never beta.
    """
    if series.variable != UPSTAIRS:
        raise MalformedInput("invariance is defined for upstairs (z) series")
    t = _twist_fraction(twist, series.N)
    N = series.N
    alpha = series.weight.entries
    violations = []
    for key, k in series.terms:
        beta = series.beta[key]
        by_index = (k + 1 + N * beta - N * t) % N == 0
        # t_i e_ij c t_j^-1 zeta_N^(k+1) = e_ij c e^{2 pi i twist} on each entry,
        # as exponents mod 1; the coefficient c cancels because GradedSeries
        # drops zero terms
        shift = Fraction(k + 1, N) - t
        by_substitution = not any((alpha[i] - alpha[j] + shift) % 1
                                  for i, j, _ in series.model.entries(key))
        if by_index != by_substitution:
            raise AssertionError(
                f"invariance oracles disagree at basis {key}, k={k}: "
                f"index={by_index} substitution={by_substitution}")
        if not by_index:
            violations.append((beta, k, key))
    invariant = not violations
    return InvarianceReport(invariant, invariant, invariant, t, tuple(violations))


# nilpotency_index is the least p with residue^p = 0, or None
ResidueReport = namedtuple("ResidueReport", "residue support_in_negative_beta nilpotent "
                                            "nilpotency_index levi_projection_zero")


def residue_report(series: GradedSeries) -> ResidueReport:
    """Analyze the simple-pole coefficient of a downstairs series.

    Each pole coefficient is added into the entries of its basis element.
    Every entry, zeros included, lies in Q(zeta_L) for L the lcm of the pole
    coefficients' orders; without poles every entry is the order-1 zero.

    The verdicts are read off the poles' beta: the support lies in beta < 0
    when every pole does, and the Levi part (on m_s^0, s = alpha) is zero
    when no pole has beta = 0.  An interior weight has |alpha_i - alpha_j| < 1,
    so beta = 0 exactly on m_s^0; distinct off-diagonal keys fill distinct
    entries, and the diagonal keys (sl's H_i among them) map injectively
    onto the diagonal, so no (nonzero) pole cancels.  Pole values can cancel
    in a power, so the nilpotency index comes from the residue's powers.
    """
    if series.variable != DOWNSTAIRS:
        raise MalformedInput("residues live downstairs (variable w)")
    n = series.model.size
    poles = [(key, coeff) for (key, k), coeff in series.terms.items() if k == -1]
    zero = Cyclotomic.zero(lcm(*(coeff.order for _, coeff in poles)))
    rows = [[zero] * n for _ in range(n)]
    for key, coeff in poles:
        for i, j, sign in series.model.entries(key):
            rows[i][j] = rows[i][j] + coeff * sign
    residue = CycMatrix(rows)
    betas = [series.beta[key] for key, _ in poles]
    power, nilpotency_index = residue, None
    for p in range(1, n + 1):
        if power.is_zero():
            nilpotency_index = p
            break
        power = power @ residue
    return ResidueReport(residue, all(b < 0 for b in betas), nilpotency_index is not None,
                         nilpotency_index, 0 not in betas)


def descend(series: GradedSeries):
    """Push an invariant upstairs field to the quotient: returns (series, residue).

    Per component: the term at k = N*l - N*beta - 1 lands on w^(l-1) dw for
    beta < 0 and on w^l dw for 0 <= beta < 1, in both cases scaled by 1/N.
    """
    if series.variable != UPSTAIRS:
        raise MalformedInput("descend expects an upstairs (z) series")
    report = check_invariance(series, twist=None)
    if not report.invariant:
        raise NotInvariant(f"series is not invariant: violations {report.violations}")
    N, T = series.N, series.trunc
    # component beta's first unknown slot is the least k > T with N | k + 1 + N*beta,
    # so (k + 1 + N*beta)/N = ceil((T + 2 + N*beta)/N) = floor((T + 1 + N*beta)/N) + 1
    # and it lands on w^floor((T + 1 + N*beta)/N); the least beta bounds every component
    out_trunc = max((T + 1 + int(N * min(series.beta.values()))) // N - 1, -2)
    terms = {}
    for (key, k), coeff in series.terms.items():
        nl = k + 1 + int(N * series.beta[key])  # = N*l by invariance
        if nl % N:
            raise AssertionError(f"k + 1 + N*beta = {nl} is not a multiple of N")
        j = nl // N - 1
        if j > out_trunc:
            continue
        terms[(key, j)] = coeff * Fraction(1, N)
    down = GradedSeries(series.weight, N, DOWNSTAIRS, out_trunc, terms)
    return down, residue_report(down)


def ascend(series: GradedSeries) -> GradedSeries:
    """Pull a downstairs field with admissible residue back to the cover.

    The pole coefficients must lie in strictly negative eigencomponents; the
    result is holomorphic and invariant, which is checked.
    """
    if series.variable != DOWNSTAIRS:
        raise MalformedInput("ascend expects a downstairs (w) series")
    N, T = series.N, series.trunc
    for key, k in series.terms:
        if k == -1 and series.beta[key] >= 0:
            raise BadResidueSupport(
                f"pole coefficient at basis {key} has beta = {series.beta[key]} >= 0")
    # every downstairs exponent above T is unknown, so component beta is unknown
    # upstairs from k = N*(T + 2) - N*beta - 1 on; the greatest beta bounds them all
    out_trunc = max(N * (T + 2) - 2 - int(N * max(series.beta.values())), -1)
    terms = {}
    for (key, j), coeff in series.terms.items():
        k = N * (j + 1) - int(N * series.beta[key]) - 1
        if k < 0:
            raise AssertionError("support precondition guarantees holomorphy")
        if k > out_trunc:
            continue
        terms[(key, k)] = coeff * N
    up = GradedSeries(series.weight, N, UPSTAIRS, out_trunc, terms)
    if not check_invariance(up).invariant:
        raise AssertionError("ascended series must be invariant")
    return up
