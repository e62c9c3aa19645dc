"""Budget defaults; the loop budget has an environment override.

Environment variables:
  MIXER_LOOP_BUDGET  cap on exact loops: p_brute's |C_x| products, interleave pairs (default 10**9)
"""

from __future__ import annotations

import os

from .errors import SpecSyntax, parse_int

DEFAULT_MAX_ORDER = 2_000_000  # cap on full group enumeration unless group_build is given one (--max-order)
DEFAULT_LOOP_BUDGET = 10**9


def positive(value: int, name: str) -> int:
    """value, or SpecSyntax naming `name` when it is not positive."""
    if value <= 0:
        raise SpecSyntax(f"{name} must be positive, got {value}")
    return value


def loop_budget() -> int:
    """The exact-loop cap: MIXER_LOOP_BUDGET, which must be positive."""
    raw = os.environ.get("MIXER_LOOP_BUDGET")
    if raw is None:
        return DEFAULT_LOOP_BUDGET
    return positive(parse_int(raw, "MIXER_LOOP_BUDGET"), "MIXER_LOOP_BUDGET")
