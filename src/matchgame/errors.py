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
    """Enumerating base**exponent items would exceed the configured budget.

    The message writes the size as that power, adding its decimal value only
    while it is short: a size of thousands of digits is never expanded.
    """

    def __init__(self, base: int, exponent: int, budget: int):
        size = f"{base}**{exponent}"
        if exponent * base.bit_length() <= 128:
            size += f" = {base**exponent}"
        super().__init__(f"search space of {size} tables exceeds budget {budget}")
        self.base = base
        self.exponent = exponent
        self.budget = budget

    @property
    def space_size(self) -> int:
        return self.base**self.exponent
