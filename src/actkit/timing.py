"""Exponential timing: converting between success probabilities and rates.

A basic event that succeeds with probability ``p`` within a horizon of ``t``
hours is modelled as an exponentially distributed completion time whose rate
solves ``1 - exp(-rate * t) = p``. All times are in hours.
"""

from __future__ import annotations

import math

from .errors import RateUndefined, _number


def rate_from_probability(p: float, t: float) -> float:
    """Rate of an exponential completion that reaches probability ``p`` by ``t``.

    Uses log1p so small probabilities keep full relative precision.
    Raises RateUndefined for ``p == 1`` (no finite rate exists) and
    DomainError unless ``p`` is a number in [0, 1] and ``t`` one in
    (0, inf): numpy scalars count as numbers, read as doubles, and truth
    values and text do not.
    """
    p = _number(p, "probability", 0.0, 1.0)
    t = _number(t, "horizon", 0.0, math.inf, lo_open=True, hi_open=True)
    if p == 1.0:
        raise RateUndefined("probability 1 has no finite completion rate")
    return -math.log1p(-p) / t


def success_cdf(rate: float, t: float) -> float:
    """P[completion <= t] for an exponential event: ``1 - exp(-rate * t)``."""
    rate = _number(rate, "rate", 0.0, math.inf, hi_open=True)
    t = _number(t, "time", 0.0, math.inf, hi_open=True)
    return -math.expm1(-rate * t)
