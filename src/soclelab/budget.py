"""Enumeration caps shared by every search in the package.

All quantifier checks here run over finite enumerations (projective points,
subspaces, families of submodules, whole rings).  A Budget keeps those loops
from silently exploding: callers get a distinct BudgetExceeded instead of a
partial answer.

Library calls take an explicit Budget and default to DEFAULT_BUDGET; none of
them reads the environment.  Only the CLI calls `default_budget`, once per
run, so the environment variable SOCLELAB_BUDGET sets the cap of a CLI run
that gives no --budget; a value that is not a non-negative integer is an
input error.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

from .errors import BudgetExceeded, InputError

DEFAULT_ENUMERATION_CAP = 1_000_000
DEFAULT_RING_CAP = 2**16  # element-count guard for whole-ring scans


@dataclass(frozen=True)
class Budget:
    max_enumeration: int = DEFAULT_ENUMERATION_CAP
    max_ring: int = DEFAULT_RING_CAP

    def __post_init__(self):
        for name in ("max_enumeration", "max_ring"):
            if getattr(self, name) < 0:
                raise InputError(f"budget {name} must be non-negative, got {getattr(self, name)}")

    @staticmethod
    def of_cap(cap: int) -> "Budget":
        """The budget for a `--budget` or SOCLELAB_BUDGET cap; ring scans stop at it or DEFAULT_RING_CAP."""
        return Budget(max_enumeration=cap, max_ring=min(cap, DEFAULT_RING_CAP))

    def guard(self, what: str, needed: int) -> None:
        if needed > self.max_enumeration:
            raise BudgetExceeded(what, needed, self.max_enumeration)

    def guard_ring(self, what: str, needed: int) -> None:
        if needed > self.max_ring:
            raise BudgetExceeded(what, needed, self.max_ring)


DEFAULT_BUDGET = Budget()


def default_budget() -> Budget:
    return _budget_of_env(os.environ.get("SOCLELAB_BUDGET"))


@lru_cache(maxsize=None)
def _budget_of_env(env: str | None) -> Budget:
    """Parsed once per distinct value; a malformed one raises on every call,
    since `lru_cache` keeps no exceptions."""
    if env is None:
        return Budget()
    try:
        cap = int(env)
    except ValueError:
        raise InputError(f"SOCLELAB_BUDGET must be an integer, got {env!r}") from None
    return Budget.of_cap(cap)
