"""Exception types shared across the package, each with a stable process exit code."""

from __future__ import annotations

from pathlib import Path


class ClassmixError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class SpecSyntax(ClassmixError):
    """A group spec, coupling, or input file failed to parse."""

    exit_code = 2


class UnsupportedParameters(ClassmixError):
    """Parameters parse but fall outside the supported ranges."""

    exit_code = 3


class CapExceeded(ClassmixError):
    """Group enumeration would exceed the configured maximum order."""

    exit_code = 4


class LoopBudgetExceeded(ClassmixError):
    """An exact enumeration would exceed the configured loop budget."""

    exit_code = 5


class NoSuitablePrime(ClassmixError):
    """No prime P = 1 (mod exponent) with P > 2*sqrt(|G|) below the search bound."""

    exit_code = 6


class UncoveredProbe(ClassmixError):
    """A sampled (a, b) pair fell in no protocol rectangle."""

    exit_code = 8


class EigensplitFailure(ClassmixError):
    """Simultaneous eigenspace splitting stalled or produced inconsistent data."""

    exit_code = 9


class MixedGroups(ClassmixError):
    """Elements from different group tables were combined."""

    exit_code = 10


class ArityMismatch(ClassmixError):
    """Tuples of different arity were combined."""

    exit_code = 11


class OverlappingRectangles(ClassmixError):
    """A probed pair was covered by more than one protocol rectangle."""

    exit_code = 12


class InvariantViolation(ClassmixError):
    """A hard mathematical invariant failed; the computed tables are suspect."""

    exit_code = 13


def parse_int(text: str, what: str) -> int:
    """int(text) for outside input; anything else is a SpecSyntax naming `what`."""
    try:
        return int(text)
    except ValueError:
        raise SpecSyntax(f"{what} must be an integer, got {text!r}") from None


def read_input_text(path, what: str) -> str:
    """Text of a file named by outside input; a missing path, a non-file or non-UTF-8 bytes are a SpecSyntax."""
    path = Path(path)
    if not path.is_file():
        raise SpecSyntax(f"{what} not found or not a file: {path}")
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SpecSyntax(f"{what} {path} is not UTF-8 text (byte {exc.start})") from None
