"""Shift spaces from finite forbidden-block sets.

Counting and enumeration of allowed blocks, transfer-matrix path counting,
linear recurrences with exact verification, growth rates and entropy, and
parameter design for prescribed entropy.
"""

from .core import (
    Block,
    ForbiddenSet,
    ShiftSpaceSpec,
    TmkParams,
    block_text,
    load_spec_file,
    normalize_forbidden_set,
    parse_block,
    tmk_spec,
    validate_spec,
)
from .design import (
    DesignResult,
    EntropyTableRow,
    design_for_entropy,
    entropy_table,
    k_for_target_ratio,
)
from .enumeration import (
    CountSequence,
    count_blocks,
    count_sequence,
    enumerate_blocks,
    enumerate_blocks_constructive,
    is_allowed,
)
from .errors import (
    ConvergenceError,
    EmptyShiftSpaceError,
    OutOfAlphabetError,
    ParameterError,
    ParseError,
    ResourceLimitError,
    ShiftSpaceError,
    ValidationError,
)
from .recurrence import (
    LinearRecurrence,
    RecurrenceCheck,
    infer_recurrence,
    limit_ratio,
    sum_recurrence_three_symbol,
    tmk_recurrence,
    verify_recurrence,
)
from .spectral import (
    EntropyReport,
    closed_form_root_m1,
    dominant_root,
    entropy_tmk,
)
from .transfer import (
    AdjacencyMatrix,
    TransferAutomaton,
    build_automaton,
    count_via_matrix,
    dominant_eigenvalue,
    edge_list_text,
    entropy_numeric,
    trim,
)

__version__ = "0.1.0"

__all__ = [
    "AdjacencyMatrix",
    "Block",
    "ConvergenceError",
    "CountSequence",
    "DesignResult",
    "EmptyShiftSpaceError",
    "EntropyReport",
    "EntropyTableRow",
    "ForbiddenSet",
    "LinearRecurrence",
    "OutOfAlphabetError",
    "ParameterError",
    "ParseError",
    "RecurrenceCheck",
    "ResourceLimitError",
    "ShiftSpaceError",
    "ShiftSpaceSpec",
    "TmkParams",
    "TransferAutomaton",
    "ValidationError",
    "block_text",
    "build_automaton",
    "closed_form_root_m1",
    "count_blocks",
    "count_sequence",
    "count_via_matrix",
    "design_for_entropy",
    "dominant_eigenvalue",
    "dominant_root",
    "edge_list_text",
    "entropy_numeric",
    "entropy_table",
    "entropy_tmk",
    "enumerate_blocks",
    "enumerate_blocks_constructive",
    "infer_recurrence",
    "is_allowed",
    "k_for_target_ratio",
    "limit_ratio",
    "load_spec_file",
    "normalize_forbidden_set",
    "parse_block",
    "sum_recurrence_three_symbol",
    "tmk_recurrence",
    "tmk_spec",
    "trim",
    "validate_spec",
    "verify_recurrence",
]
