"""Exception types shared across the package."""
from __future__ import annotations


class HohfeldError(Exception):
    """Base class for all package-specific errors."""


class FormulaSyntaxError(HohfeldError):
    """Raised by the parser on malformed input.

    Carries the 1-based line/column of the offending token and the set of
    token descriptions that would have been accepted there.
    """

    def __init__(self, message: str, line: int, column: int, expected: frozenset[str] = frozenset()):
        self.line = line
        self.column = column
        self.expected = expected
        detail = f"{message} at line {line}, column {column}"
        if expected:
            detail += " (expected " + ", ".join(sorted(expected)) + ")"
        super().__init__(detail)


class NameResolutionError(HohfeldError):
    """An agent, atom, state, action, or action-model name did not resolve."""


class ModelFormatError(HohfeldError):
    """A model or action-model description was structurally invalid."""


class EmptyProductError(HohfeldError):
    """No (state, action) pair survived the precondition filter."""


class SizeLimitError(HohfeldError):
    """An exact algorithm was asked to run beyond its guaranteed size bound."""


class ConfigError(HohfeldError):
    """A generator or audit setting was outside its documented range."""
