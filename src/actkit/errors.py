"""Exception types shared across the toolkit."""

from __future__ import annotations

import math
import numbers


class ActError(Exception):
    """Base class for all toolkit errors."""


class DomainError(ActError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class RateUndefined(ActError, ValueError):
    """No finite exponential rate exists (success probability is exactly 1)."""


class MissingParameter(ActError, ValueError):
    """A leaf lacks a parameter required by the requested analysis."""


class StateSpaceLimit(ActError, RuntimeError):
    """The reachable state space exceeded the configured cap."""


class ActParseError(ActError, ValueError):
    """Model text could not be parsed.

    ``code`` is one of ``syntax``, ``undefined-reference`` or
    ``duplicate-definition``; ``line``/``column`` are 1-based.
    """

    def __init__(self, message: str, line: int, column: int, code: str = "syntax"):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column
        self.code = code


class ActValidationError(ActError, ValueError):
    """A parsed or constructed model violates a structural rule."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        lines = "; ".join(str(d) for d in self.diagnostics)
        super().__init__(f"invalid model: {lines}")


# -- what counts as a number: every numeric argument and leaf parameter is checked here ----------

def _real(x, lo: float, hi: float, lo_open: bool = False, hi_open: bool = False) -> bool:
    """Whether ``x`` is a real number, numpy scalars included, in [``lo``, ``hi``], each end open if asked.

    ``bool`` (an int), ``np.bool_`` (no ``numbers.Real``), text, complex,
    NaN and an integer too large for a double are not numbers here. Package-internal.
    """
    if type(x) is not float:  # models hold floats, and this test is about ten times faster than the ABC's
        if type(x) is bool or not isinstance(x, numbers.Real):
            return False
        try:
            x = float(x)
        except OverflowError:
            return False
    return (lo < x if lo_open else lo <= x) and (x < hi if hi_open else x <= hi)


def _number(x, what: str, lo: float, hi: float, lo_open: bool = False, hi_open: bool = False) -> float:
    """``x`` as a double if ``_real`` accepts it, else DomainError naming ``what``. Package-internal."""
    if not _real(x, lo, hi, lo_open, hi_open):
        interval = f"{'(' if lo_open else '['}{lo:g}, {hi:g}{')' if hi_open else ']'}"
        raise DomainError(f"{what} must be a number in {interval}, got {x!r}")
    return float(x)


def _count(x, what: str, least: int) -> None:
    """Raise DomainError naming ``what`` unless ``x`` is an integer (numpy's too, no bool) of at least ``least``."""
    if type(x) is bool or not isinstance(x, numbers.Integral):
        raise DomainError(f"{what} must be an integer, got {x!r}")
    if x < least:
        raise DomainError(f"{what} must be at least {least}, got {x!r}")


def _grid(values, what: str, hi: float):
    """``values`` as a float array if they are a non-empty, strictly increasing sequence of finite numbers in
    [0, ``hi``], each of a type ``_real`` accepts; DomainError naming ``what`` if not. Package-internal.

    Each distinct type is read once, so a long grid costs one C-level pass.
    """
    import numpy as np  # the one check that needs it; the model and the one-shot commands do not

    try:
        values = list(values)
        if not all(t is not bool and issubclass(t, numbers.Real) for t in set(map(type, values))):
            raise TypeError
        xs = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{what} must be a flat sequence of numbers, not text or truth values") from None
    if not xs.size:
        raise DomainError(f"{what} is empty")
    if not np.all(xs[1:] > xs[:-1]):  # NaN fails here, or below when it is the only value
        raise DomainError(f"{what} must be strictly increasing")
    if not (0.0 <= xs[0] and xs[-1] <= hi and math.isfinite(xs[-1])):
        raise DomainError(f"{what} must hold finite numbers in [0, {hi:g}{')' if hi == math.inf else ']'}")
    return xs
