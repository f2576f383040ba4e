"""Exception types shared across the package.

The CLI maps these onto exit codes: ValidationError -> 2 (bad config or
inputs), NumericError -> 3 (a numeric check failed, e.g. a generator whose
increments go negative), and OSError -> 4.
"""


class StructDistError(Exception):
    """Base class for all package errors."""


class ValidationError(StructDistError, ValueError):
    """Invalid configuration, arguments, or domain-type invariants."""


class NumericError(StructDistError, ArithmeticError):
    """A numeric validation failed (non-monotone generator, decreasing table, ...)."""
