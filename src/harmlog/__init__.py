"""Odd-harmonic-series approximations of ln, factorial and gamma.

Each public name is imported from its submodule on first access (PEP 562),
so that a program, or a `harmlog` subcommand, loads only the modules it uses.
"""

from importlib import import_module

# Submodule -> the public names it defines.
_HOMES = {
    "cnr": (
        "ApproxValue",
        "CnrMethod",
        "CnrTag",
        "approx_cnr_pow2",
        "approx_lemma11",
        "approx_number_exp",
        "approx_number_large",
        "approx_number_scaled",
        "nbb_decompose",
    ),
    "constants": (
        "NrKind",
        "NrVariant",
        "euler_gamma",
        "gamma_definition_check",
        "nr_direct_series",
        "nr_empirical_limit",
        "nr_integral",
    ),
    "errors": (
        "DomainError",
        "HarmlogError",
        "NegativeInputError",
        "OracleIntegrityError",
        "OverflowLimitError",
        "ZeroOrInfiniteError",
    ),
    "factorial": (
        "FactorialEstimate",
        "FactorialMethod",
        "factorial_corrected",
        "factorial_raw",
        "ln_factorial_series",
        "s_sum_closed",
        "s_sum_exact",
    ),
    "harmonic": (
        "LogVariant",
        "ScaledRational",
        "correction_sum",
        "exp_form",
        "ln_auto",
        "ln_integer",
        "ln_product",
        "ln_quotient",
        "ln_rational",
        "odd_harmonic_sum",
    ),
    "oracle": (
        "ReferenceValue",
        "factorial_exact_ln",
        "ln_ref",
        "ln_value",
        "percent_error",
    ),
    "tables": ("TableId", "TableReport", "generate"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import a public name, or one of the submodules above, on first use."""
    if name in _HOMES:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_HOMES))
