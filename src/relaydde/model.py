"""Model definitions for a scalar delay equation with relay feedback.

The equation is

    x'(t) = a(t) * f(x(t - 1))

where a(t) is a positive two-level T-periodic coefficient and f is a
negative-feedback nonlinearity.  The coefficient equals ``a1`` on [0, p1)
and ``a2`` on [p1, T) with T = p1 + p2, extended periodically.  The
nonlinearity is the relay f(x) = -sign(x), or one of two smooth
approximations controlled by a half-width ``delta``.  This module holds the
sharp coefficient; the smoothed ramps and profiles are defined in numeric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

# most events, integrator steps or scan cells one request may ask for;
# a smoothing study whose finest run stores 2,000,000 integrator samples
# peaks at about 105 MB
MAX_WORK = 2_000_000


class RelayDDEError(Exception):
    """Base class for domain errors raised by this package."""


@dataclass(frozen=True, slots=True, init=False)
class Params:
    """Two-level periodic coefficient data.

    a(t) = a1 on [0, p1), a2 on [p1, p1 + p2), repeated with period
    T = p1 + p2.  All four numbers must be positive and the period must
    exceed the delay 1.
    """

    a1: float
    a2: float
    p1: float
    p2: float

    def __init__(self, a1: float, a2: float, p1: float, p2: float) -> None:
        # four positive finite floats need no conversion; anything else takes
        # the loop, which converts, or names the first offending field
        if not (float is type(a1) is type(a2) is type(p1) is type(p2)
                and 0.0 < a1 < math.inf > a2 > 0.0 < p1 < math.inf > p2 > 0.0):
            checked = []
            for name, raw in (("a1", a1), ("a2", a2), ("p1", p1), ("p2", p2)):
                v = float(raw)
                if not math.isfinite(v) or v <= 0.0:
                    raise ValueError(f"{name} must be positive and finite, got {raw!r}")
                checked.append(v)
            a1, a2, p1, p2 = checked
        if p1 + p2 <= 1.0:
            raise ValueError("period p1 + p2 must exceed the delay 1")
        _set_a1(self, a1)
        _set_a2(self, a2)
        _set_p1(self, p1)
        _set_p2(self, p2)

    @property
    def period(self) -> float:
        return self.p1 + self.p2


# Params.__init__ writes its fields through these slot setters, past the
# frozen __setattr__, at about half the cost of object.__setattr__
_set_a1, _set_a2, _set_p1, _set_p2 = (
    Params.a1.__set__, Params.a2.__set__, Params.p1.__set__, Params.p2.__set__)


class Profile(str, Enum):
    """Shape used for the smoothed coefficient ramps and nonlinearity."""

    AFFINE = "affine"
    SMOOTHEXP = "smoothexp"


@dataclass(frozen=True)
class SmoothingSpec:
    """Smoothing half-width and profile; delta == 0 means the sharp model."""

    delta: float = 0.0
    profile: Profile = Profile.AFFINE

    def __post_init__(self) -> None:
        d = float(self.delta)
        if not math.isfinite(d) or d < 0.0:
            raise ValueError(f"delta must be >= 0 and finite, got {self.delta!r}")
        object.__setattr__(self, "delta", d)
        object.__setattr__(self, "profile", Profile(self.profile))


def _first_period(params: Params, start: float) -> int:
    """The first period k with a switch at or after start.

    Each period k has two switches: k*T starts a1 and k*T + p1 starts a2.
    switch_times lists them in that order, period after period, and exact's
    event loop walks them the same way from the first one at or after its
    start, before which the level is a1 if that switch is k*T + p1, else a2.
    """
    T, p1 = params.period, params.p1
    k = math.floor(start / T) - 1  # one period early, in case start / T rounds up
    while k * T + p1 < start:
        k += 1
    return k


def switch_times(params: Params, start: float, stop: float) -> Iterator[tuple[float, float]]:
    """Yield, in increasing order, each switch time s in [start, stop] and the
    level starting there: (k*T, a1) and (k*T + p1, a2) for integer k."""
    T, p1, a1, a2 = params.period, params.p1, params.a1, params.a2
    k = _first_period(params, start)
    while k * T <= stop:
        for s, level in ((k * T, a1), (k * T + p1, a2)):
            if start <= s <= stop:
                yield s, level
        k += 1


def validate_geometry(params: Params, smoothing: SmoothingSpec) -> None:
    """Check that the smoothing windows fit the coefficient plateaus.

    The ramps centred at the switch times have half-width delta.  They must
    not overlap each other (2*delta < min(p1, p2)) and must stay below the
    delay (delta < 1).  A zero delta always passes.
    """
    d = smoothing.delta
    if d >= 1.0:
        raise ValueError("smoothing half-width delta must be below the delay 1")
    if 2.0 * d >= min(params.p1, params.p2):
        raise ValueError("smoothing windows overlap: 2*delta must stay below min(p1, p2)")


def coefficient_value(params: Params, t: float) -> float:
    """Value of the sharp two-level coefficient at time t.

    The smoothed ramps are numeric._coefficient_array's.  No module of the
    package reads this step; it stays public as a(t) for callers, and its
    removal waits until the benchmark harness no longer traces it.
    """
    T = params.period
    phase = t % T
    if phase >= T:  # guard against rounding of tiny negative t
        phase = 0.0
    return params.a1 if phase < params.p1 else params.a2
