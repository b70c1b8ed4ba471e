"""Exponential timing: converting between success probabilities and rates.

A basic event that succeeds with probability ``p`` within a horizon of ``t``
hours is modelled as an exponentially distributed completion time whose rate
solves ``1 - exp(-rate * t) = p``. All times are in hours.
"""

from __future__ import annotations

import math
import numbers

from .errors import DomainError, RateUndefined

# Any real number, numpy scalars included, as validate_act accepts. float
# comes first because models hold floats, and it is matched about ten times
# faster than the numbers.Real check.
_REAL = (float, numbers.Real)


def rate_from_probability(p: float, t: float) -> float:
    """Rate of an exponential completion that reaches probability ``p`` by ``t``.

    Uses log1p so small probabilities keep full relative precision.
    Raises RateUndefined for ``p == 1`` (no finite rate exists) and
    DomainError for ``p`` outside [0, 1] or a non-positive horizon.
    """
    if not isinstance(p, _REAL) or math.isnan(p) or not 0.0 <= p <= 1.0:
        raise DomainError(f"probability must lie in [0, 1], got {p!r}")
    if not isinstance(t, _REAL) or math.isnan(t) or math.isinf(t) or t <= 0.0:
        raise DomainError(f"horizon must be a positive finite number of hours, got {t!r}")
    if p == 1.0:
        raise RateUndefined("probability 1 has no finite completion rate")
    return -math.log1p(-p) / t


def success_cdf(rate: float, t: float) -> float:
    """P[completion <= t] for an exponential event: ``1 - exp(-rate * t)``."""
    if not isinstance(rate, _REAL) or math.isnan(rate) or math.isinf(rate) or rate < 0.0:
        raise DomainError(f"rate must be finite and non-negative, got {rate!r}")
    if not isinstance(t, _REAL) or math.isnan(t) or math.isinf(t) or t < 0.0:
        raise DomainError(f"time must be finite and non-negative, got {t!r}")
    return -math.expm1(-rate * t)
