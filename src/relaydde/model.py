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


@dataclass(frozen=True)
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

    def __post_init__(self) -> None:
        a1, a2, p1, p2 = self.a1, self.a2, self.p1, self.p2
        # four positive finite floats need no conversion; anything else takes
        # the loop, which converts, or names the first offending field
        if not (float is type(a1) is type(a2) is type(p1) is type(p2)
                and 0.0 < a1 < math.inf > a2 > 0.0 < p1 < math.inf > p2 > 0.0):
            for name in ("a1", "a2", "p1", "p2"):
                v = float(getattr(self, name))
                if not math.isfinite(v) or v <= 0.0:
                    raise ValueError(f"{name} must be positive and finite, "
                                     f"got {getattr(self, name)!r}")
                object.__setattr__(self, name, v)
        if self.p1 + self.p2 <= 1.0:
            raise ValueError("period p1 + p2 must exceed the delay 1")

    @property
    def period(self) -> float:
        return self.p1 + self.p2


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


def switch_times(params: Params, start: float, stop: float) -> Iterator[tuple[float, float]]:
    """Yield, in increasing order, each switch time s in [start, stop] and the
    level starting there: (k*T, a1) and (k*T + p1, a2) for integer k."""
    T, p1 = params.period, params.p1
    k = math.floor(start / T) - 1  # one period early, in case start / T rounds up
    while k * T <= stop:
        s = k * T
        if s >= start:
            yield s, params.a1
        s += p1
        if start <= s <= stop:
            yield s, params.a2
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

    The smoothed ramps are numeric._coefficient_array's; exact.propagate
    reads this step once per run, for the level at its start time.
    """
    T = params.period
    phase = t % T
    if phase >= T:  # guard against rounding of tiny negative t
        phase = 0.0
    return params.a1 if phase < params.p1 else params.a2
