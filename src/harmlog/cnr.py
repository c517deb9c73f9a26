"""Exponential-form approximations of numbers and consecutive-number ratios.

A consecutive-number ratio (CNR) is x/(x-1); multiplying the CNRs
(2/1)(3/2)...(n/(n-1)) rebuilds the integer n, which is why they are also
called number building blocks (NBBs).  Each approximation here replaces a
number or a CNR with a closed exponential form; the scaled variant pushes
the argument out of the ill-conditioned band |x| <= 2 by an integer
multiplier m.
"""

import math
from collections.abc import Callable
from enum import Enum
from operator import truediv

from ._frozen import Frozen
from .errors import DomainError, OverflowLimitError, shown
from .oracle import _is_finite, percent_error

# Scaled-variant default; matches the multiplier used throughout the
# reference tables for arguments near 1.
DEFAULT_SCALE = 100

# Most blocks nbb_decompose may build.  Time and memory grow linearly in n:
# 10**6 blocks take ~2 s to build, and `harmlog nbb`, which also multiplies
# and prints them, ~4 s and ~210 MB in all (measured on a 2-vCPU x86-64 VM).
NBB_MAX_BLOCKS = 10**6


class _Fractions:
    """The `fractions` module, imported on first attribute access.

    Only nbb_decompose needs it, and it loads `decimal`, so importing this
    module does not.  nbb_decompose's return annotation is the string
    "list[fractions.Fraction]", so defining it loads nothing, and
    typing.get_type_hints still resolves it.
    """

    def __getattr__(self, name: str):
        import fractions

        return getattr(fractions, name)


fractions = _Fractions()


class CnrTag(Enum):
    LEMMA11 = "lemma11"
    POW2 = "pow2"
    EXP_FULL = "exp_full"
    EXP_SCALED = "exp_scaled"
    EXP_LARGE = "exp_large"


class CnrMethod(Frozen):
    """Which exponential form produced a value; m only applies to EXP_SCALED."""

    __slots__ = ()
    _fields = ("tag", "m")

    def __init__(self, tag: CnrTag, m: int | None = None) -> None:
        if tag is CnrTag.EXP_SCALED:
            if m is None or m < 1:
                raise DomainError("EXP_SCALED requires an integer m >= 1")
        elif m is not None:
            raise DomainError(f"{tag.value} does not take a multiplier")
        object.__setattr__(self, "_values", (tag, m))


class ApproxValue(Frozen):
    """An approximation bundled with its method and signed percentage error."""

    __slots__ = ()
    _fields = ("input", "method", "value", "reference", "percent_error")

    def __init__(
        self, input: float, method: CnrMethod, value: float, reference: float, percent_error: float
    ) -> None:
        object.__setattr__(self, "_values", (input, method, value, reference, percent_error))


def _finite(label: str, x: float, form: Callable[..., float], *args) -> float:
    """form(*args) for an input x, as a finite float.

    A non-finite x or a division by zero raises DomainError, and an int x or
    a value past binary64 OverflowLimitError; each message names label and x.
    """
    if not _is_finite(x, "x", label):
        raise DomainError(f"x must be finite, got {x}")
    try:
        value = form(*args)
    except ZeroDivisionError:
        raise DomainError(f"{label} divides by zero at x = {shown(x)}") from None
    except (OverflowError, OverflowLimitError):  # the latter from percent_error
        value = math.inf
    if not math.isfinite(value):
        raise OverflowLimitError(f"{label} overflows binary64 at x = {shown(x)}")
    return value


# Each form below returns a finite float or raises a typed error (`_finite`)
# whose message names the form by its CnrTag value, or as cnr_exp.


def approx_lemma11(x: float) -> float:
    """Crude form (x - 1) * 2**(1/(x-1)); degenerates to 0 at x = 1."""
    if x == 1:
        raise DomainError("approx_lemma11 degenerates to 0 at x = 1")
    return _finite("lemma11", x, lambda: (x - 1.0) * 2.0 ** (1.0 / (x - 1.0)))


def approx_cnr_pow2(x: float) -> float:
    """CNR estimate 2**(3/(2x-1)) for x/(x-1)."""
    if x == 0.5:  # 2x - 1 == 0, without converting an int x past binary64
        raise DomainError("approx_cnr_pow2 undefined at x = 1/2")
    return _finite("pow2", x, lambda: 2.0 ** (3.0 / (2.0 * x - 1.0)))


def _number_scaled(x: float, m: int) -> float:
    """approx_number_scaled before `_finite` checks it."""
    if m < 1:
        raise DomainError(f"multiplier m must be >= 1, got {shown(m)}")
    if x == 0:
        raise DomainError("approx_number_scaled undefined at x = 0")
    mx = m * x
    denom = 2.0 * mx - 1.0 - 1.0 / mx**3
    if denom == 0:  # also mx = 1, where the result would degenerate to 0
        raise DomainError(f"exponent denominator vanishes at x = {shown(x)}, m = {shown(m)}")
    return (x - 1.0 / m) * math.exp(2.0 / denom)


def approx_number_scaled(x: float, m: int = DEFAULT_SCALE) -> float:
    """(x - 1/m) * e**(2/(2mx - 1 - 1/(mx)**3)); larger m shrinks the error."""
    return _finite("exp_scaled", x, _number_scaled, x, m)


def approx_number_exp(x: float) -> float:
    """(x - 1) * e**(2/(2x - 1 - 1/x**3)); the m = 1 case of the scaled form."""
    return _finite("exp_full", x, _number_scaled, x, 1)


def _cnr_exponent(x: float) -> float:
    """2/(2x-1-1/x**3), the exponent of approx_cnr_exp: its estimate of ln(x/(x-1))."""
    return 2.0 / (2 * x - 1 - 1.0 / x**3)


def approx_cnr_exp(x: float) -> float:
    """CNR estimate e**(2/(2x-1-1/x**3)), i.e. the full form divided by x-1."""
    return _finite("cnr_exp", x, lambda: math.exp(_cnr_exponent(x)))


def approx_number_large(x: float) -> float:
    """(x - 1) * e**(2/(2x-1)); valid once 1/x**3 is negligible."""
    if x == 0.5:
        raise DomainError("approx_number_large undefined at x = 1/2")
    return _finite("exp_large", x, lambda: (x - 1.0) * math.exp(2.0 / (2.0 * x - 1.0)))


def evaluate(x: float, method: CnrMethod) -> ApproxValue:
    """Run one approximation and package it with its signed percent error.

    The reference is x itself for the number forms and x/(x-1) for the
    CNR form.  Every field of the result is finite: a non-finite x or a
    division by zero raises DomainError, and a form or an error that
    overflows binary64 raises OverflowLimitError.
    """
    label, reference = method.tag.value, x
    if method.tag is CnrTag.LEMMA11:
        value = approx_lemma11(x)
    elif method.tag is CnrTag.POW2:
        value = approx_cnr_pow2(x)
        reference = _finite(label, x, truediv, x, x - 1.0)
    elif method.tag is CnrTag.EXP_FULL:
        value = approx_number_exp(x)
    elif method.tag is CnrTag.EXP_SCALED:
        value = approx_number_scaled(x, method.m)
    else:
        value = approx_number_large(x)
    error = _finite(label, x, percent_error, value, reference)
    return ApproxValue(
        input=x, method=method, value=value, reference=reference, percent_error=error
    )


def nbb_decompose(n: int) -> "list[fractions.Fraction]":
    """The n-1 building blocks (2/1), (3/2), ..., (n/(n-1)) of an integer.

    Raises OverflowLimitError past NBB_MAX_BLOCKS blocks, before building any.
    """
    Fraction = fractions.Fraction
    if n < 2:
        raise DomainError(f"nbb_decompose requires n >= 2, got {shown(n)}")
    if n - 1 > NBB_MAX_BLOCKS:
        raise OverflowLimitError(
            f"nbb {shown(n)} has {shown(n - 1)} blocks, over the limit of {NBB_MAX_BLOCKS}"
        )
    return [Fraction(k, k - 1) for k in range(2, n + 1)]
