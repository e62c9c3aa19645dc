"""Budget defaults with environment overrides.

Environment variables:
  MIXER_MAX_ORDER    cap on full group enumeration (default 2,000,000)
  MIXER_LOOP_BUDGET  cap on exact loops: p_brute's |C_x| products, interleave pairs (default 10**9)
"""

from __future__ import annotations

import os

from .errors import SpecSyntax, parse_int

DEFAULT_MAX_ORDER = 2_000_000
DEFAULT_LOOP_BUDGET = 10**9


def _positive(value: int, name: str) -> int:
    if value <= 0:
        raise SpecSyntax(f"{name} must be positive, got {value}")
    return value


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    return _positive(parse_int(raw, name), name)


def max_order(override: int | None = None) -> int:
    """The enumeration cap: the override (--max-order) if given, else MIXER_MAX_ORDER; both must be positive."""
    if override is not None:
        return _positive(int(override), "max order")
    return _env_int("MIXER_MAX_ORDER", DEFAULT_MAX_ORDER)


def loop_budget() -> int:
    """The exact-loop cap: MIXER_LOOP_BUDGET, which must be positive."""
    return _env_int("MIXER_LOOP_BUDGET", DEFAULT_LOOP_BUDGET)
