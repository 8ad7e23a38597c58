"""Exception taxonomy and exit-code mapping.

The CLI separates "the math said no" (a legitimate negative verdict over a
small field) from "the program is broken" (a proved statement failed on an
instance).  Exceptions here map onto that taxonomy; anything raised as
TheoremViolation is by definition a bug, never a mathematical outcome.
"""

from __future__ import annotations

from contextlib import contextmanager

EXIT_PASS = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_VIOLATION = 4
EXIT_INTERNAL = 5


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


@contextmanager
def decoding(what: str, data):
    """Decode `what` from the JSON object data in this block: a missing key
    or a bad value becomes an InputError naming it.  Only decoding belongs
    here, so a TheoremViolation from a constructor still propagates."""
    if not isinstance(data, dict):
        raise InputError(f"bad {what} JSON: must be an object, got {type(data).__name__}")
    try:
        yield
    except KeyError as exc:
        raise InputError(f"bad {what} JSON: needs the key {exc}") from None
    except (TypeError, ValueError, IndexError, AttributeError) as exc:
        raise InputError(f"bad {what} JSON: {exc}") from None


def json_int(data: dict | list, key: str | int) -> int:
    """data[key], which must be an integer (for use inside `decoding`); data
    may be a list, and key an index into it."""
    return _json_typed(data, key, int, "an integer")


def json_bool(data: dict, key: str) -> bool:
    """data[key], which must be true or false (for use inside `decoding`)."""
    return _json_typed(data, key, bool, "true or false")


def _json_typed(data, key, kind: type, named: str):
    value = data[key]
    if type(value) is not kind:
        raise ValueError(f"{'entry ' if type(key) is int else ''}{key} must be {named}, got {value!r}")
    return value
