"""Shift spaces from finite forbidden-block sets.

Counting and enumeration of allowed blocks, transfer-matrix path counting,
linear recurrences with exact verification, growth rates and entropy, and
parameter design for prescribed entropy.

Names and modules load on first use: ``import shiftspace`` imports no
submodule, and the first access to a public name (``shiftspace.X`` or
``from shiftspace import X``) or to a submodule imports the module that
defines it (PEP 562).  So a CLI run or a program that needs one part of
the package pays for that part alone.
"""

from importlib import import_module

__version__ = "0.1.0"

# the public names of each submodule
_EXPORTS = {
    "core": (
        "Block",
        "ForbiddenSet",
        "ShiftSpaceSpec",
        "TmkParams",
        "block_text",
        "load_spec_file",
        "normalize_forbidden_set",
        "parse_block",
        "tmk_spec",
        "validate_spec",
    ),
    "design": (
        "DesignResult",
        "EntropyTableRow",
        "design_for_entropy",
        "entropy_table",
        "k_for_target_ratio",
    ),
    "enumeration": (
        "CountSequence",
        "count_blocks",
        "count_sequence",
        "enumerate_blocks",
        "enumerate_blocks_constructive",
        "is_allowed",
    ),
    "errors": (
        "ConvergenceError",
        "EmptyShiftSpaceError",
        "OutOfAlphabetError",
        "ParameterError",
        "ParseError",
        "ResourceLimitError",
        "ShiftSpaceError",
        "ValidationError",
    ),
    "recurrence": (
        "LinearRecurrence",
        "RecurrenceCheck",
        "infer_recurrence",
        "limit_ratio",
        "sum_recurrence_three_symbol",
        "tmk_recurrence",
        "verify_recurrence",
    ),
    "spectral": ("EntropyReport", "closed_form_root_m1", "dominant_root", "entropy_tmk"),
    "transfer": (
        "AdjacencyMatrix",
        "TransferAutomaton",
        "build_automaton",
        "count_via_matrix",
        "dominant_eigenvalue",
        "edge_list_text",
        "entropy_numeric",
        "trim",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    """Import the submodule behind a public name on first access and bind the name."""
    if name in _EXPORTS:  # a submodule; importing it binds it here
        return import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SOURCE})
