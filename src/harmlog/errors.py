"""Exception hierarchy shared by all harmlog modules."""


class HarmlogError(ValueError):
    """Base class for all harmlog domain errors."""


class DomainError(HarmlogError):
    """Input is outside the domain of the requested formula."""


class NegativeInputError(DomainError):
    """No real logarithm exists for a negative number."""


class ZeroOrInfiniteError(DomainError):
    """No real logarithm exists for 0 or an infinite ratio (p = 0 or q = 0)."""


class OverflowLimitError(HarmlogError):
    """A window index or term count is past its cap, or a value overflows binary64."""


class OracleIntegrityError(HarmlogError):
    """The two independent reference paths disagree beyond tolerance."""
