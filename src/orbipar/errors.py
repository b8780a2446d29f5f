"""Exception hierarchy shared by every module.

Every domain error carries a stable machine-readable ``code`` so the CLI can
emit ``{"error": code, "detail": ...}`` and exit 1.  Malformed input (bad JSON,
bad schema) is a separate class and exits 2.
"""


class DomainError(Exception):
    """A precondition or domain violation in an otherwise well-formed request."""

    code = "domain_error"

    def __init__(self, detail=""):
        self.detail = str(detail)
        super().__init__(self.detail)


class MalformedInput(Exception):
    """Input that does not parse against the JSON schemas."""

    code = "malformed_input"

    def __init__(self, detail=""):
        self.detail = str(detail)
        super().__init__(self.detail)


class DenominatorNotDividing(DomainError):
    code = "denominator_not_dividing"


class IncompatibleOrders(DomainError):
    code = "incompatible_orders"


class NotNormalized(DomainError):
    code = "not_normalized"


class ScaleExceeded(DomainError):
    code = "scale_exceeded"


class NotACocycle(DomainError):
    code = "not_a_cocycle"


class SizeMismatch(DomainError):
    code = "size_mismatch"


class NotAPseudoRep(DomainError):
    code = "not_a_pseudorep"


class IsotropyMismatch(DomainError):
    code = "isotropy_mismatch"


class RankMismatch(DomainError):
    code = "rank_mismatch"


class NotInIH(DomainError):
    code = "not_in_ih"


class TwistDenominator(DomainError):
    code = "twist_denominator"


class NotInvariant(DomainError):
    code = "not_invariant"


class WeightOnWall(DomainError):
    code = "weight_on_wall"


class NonIntegralGauge(DomainError):
    code = "non_integral_gauge"


class BadResidueSupport(DomainError):
    code = "bad_residue_support"


class NonIntegralGenus(DomainError):
    code = "non_integral_genus"


class NegativeGenus(DomainError):
    code = "negative_genus"


class UnsupportedModel(DomainError):
    code = "unsupported_model"
