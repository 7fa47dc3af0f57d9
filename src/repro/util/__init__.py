"""Shared low-level utilities: integer math, validation, table rendering.

These helpers are deliberately dependency-light; everything above them in
the stack (finite fields, designs, the mesh machine) builds on exact integer
arithmetic, so the primitives here avoid floating point wherever a result
feeds back into an index computation.
"""

from repro.util.intmath import (
    ceil_div,
    ceil_log,
    digits_from_int,
    int_from_digits,
    is_perfect_square,
    is_power_of,
    isqrt_exact,
)
from repro.util.fsio import write_text_atomic
from repro.util.grouping import rank_within_groups
from repro.util.tables import format_table
from repro.util.validate import (
    check_index,
    check_int_array,
    check_positive,
    check_type,
)

__all__ = [
    "ceil_div",
    "ceil_log",
    "digits_from_int",
    "int_from_digits",
    "is_perfect_square",
    "is_power_of",
    "isqrt_exact",
    "format_table",
    "rank_within_groups",
    "check_index",
    "check_int_array",
    "check_positive",
    "check_type",
    "write_text_atomic",
]
