"""Exception taxonomy and exit-code mapping.

The CLI separates "the math said no" (a legitimate negative verdict over a
small field) from "the program is broken" (a proved statement failed on an
instance).  Exceptions here map onto that taxonomy; anything raised as
TheoremViolation is by definition a bug, never a mathematical outcome.
"""

from __future__ import annotations

EXIT_PASS = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_VIOLATION = 4


class SocleLabError(Exception):
    """Base class for all errors raised by this package."""


class InputError(SocleLabError):
    """Malformed or inconsistent input (bad JSON, failed validation)."""


class PreconditionError(InputError):
    """An operation was called on data that violates its contract."""


class NotSplitError(PreconditionError):
    """Operation requires a split certificate (matrix-unit blocks) and got none."""


class OutOfScopeError(InputError):
    """Documented stub for constructions this toolkit deliberately excludes."""


class BudgetExceeded(SocleLabError):
    """An enumeration exceeded its configured cap; result is absent, not empty."""

    def __init__(self, what: str, needed: int, cap: int):
        super().__init__(f"budget exceeded in {what}: needs {needed}, cap {cap}")
        self.what = what
        self.needed = needed
        self.cap = cap


class TheoremViolation(SocleLabError):
    """A proved statement failed on a verified instance: an implementation bug."""
