"""Exception types shared across the package."""


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


class BudgetExceededError(MatchGameError):
    """Handling base**exponent items would exceed the configured budget.

    The message writes the size as that power, or as ``formula`` when the
    size has another closed form, adding its decimal value only while it is
    short: a size of thousands of digits is never expanded.  ``what`` names
    the items around the size.
    """

    def __init__(
        self,
        base: int,
        exponent: int,
        budget: int,
        what: str = "search space of {} tables",
        formula: str = "",
    ):
        size = formula or f"{base}**{exponent}"
        if exponent * base.bit_length() <= 128:
            size += f" = {base**exponent}"
        super().__init__(f"{what.format(size)} exceeds budget {budget}")
        self.base = base
        self.exponent = exponent
        self.budget = budget

    @property
    def space_size(self) -> int:
        return self.base**self.exponent
