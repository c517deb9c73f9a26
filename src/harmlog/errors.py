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


def shown(n: object) -> str:
    """n as an error message names it: its repr, or, for an int past 64 bits,
    its sign and bit length, since str() refuses an int past 4,300 digits."""
    if isinstance(n, int) and n.bit_length() > 64:
        return f"{'a negative' if n < 0 else 'an'} int of {n.bit_length()} bits"
    return repr(n)
