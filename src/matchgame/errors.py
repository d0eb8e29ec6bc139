"""Exception types shared across the package, and the one budget rule."""

import re
from typing import Iterable

DEFAULT_BUDGET = 2_000_000
# Closed-form sizes are exact below SIZE_CAP and saturate there, so a size
# check costs a bounded number of bigint operations at any m.
SIZE_CAP = 1 << 128
# A decimal field with more significant digits than SIZE_CAP is past it; it
# is refused by its digit count, never converted to an int or printed.
SIZE_CAP_DIGITS = len(str(SIZE_CAP))


class MatchGameError(Exception):
    """Base class for every error this package raises deliberately."""


class ValidationError(MatchGameError, ValueError):
    """A value violates a structural precondition (shape, range, parity)."""


class UnsupportedGameError(MatchGameError):
    """The requested instance lies outside what this operation supports."""


class FormatError(MatchGameError):
    """A text input failed to parse.  Carries a 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def field_error(message: str, line: int, raw: str, index: int) -> FormatError:
    """FormatError at the column where field ``index`` of ``raw.split()``
    starts, or just past the line's end when it has only ``index`` fields."""
    starts = [field.start() + 1 for field in re.finditer(r"\S+", raw)]
    return FormatError(message, line, (starts + [len(raw) + 1])[index])


class BudgetExceededError(MatchGameError):
    """Handling ``size`` items would exceed ``budget``.

    The message writes the size as ``formula``, inside the ``what`` template,
    adding its decimal value only below SIZE_CAP: a size of thousands of
    digits is never expanded.  ``space_size`` is None at the cap.
    """

    def __init__(self, size: int, budget: int, formula: str, what: str):
        self.space_size = size if size < SIZE_CAP else None
        exact = "" if self.space_size is None else f" = {size}"
        super().__init__(f"{what.format(formula + exact)} exceeds budget {budget}")
        self.budget = budget


def bounded_product(factors: Iterable[int]) -> int:
    """The product of the positive ``factors``, stopping at SIZE_CAP."""
    product = 1
    for factor in factors:
        product *= factor
        if product >= SIZE_CAP:
            return SIZE_CAP
    return product


def require_budget(size: int, formula: str, what: str, budget=DEFAULT_BUDGET) -> None:
    """Raise BudgetExceededError when ``size`` is over ``budget`` or at SIZE_CAP."""
    if size >= SIZE_CAP or size > budget:
        raise BudgetExceededError(size, budget, formula, what)
