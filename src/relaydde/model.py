"""Model definitions for a scalar delay equation with relay feedback.

The equation is

    x'(t) = a(t) * f(x(t - 1))

where a(t) is a positive two-level T-periodic coefficient and f is a
negative-feedback nonlinearity.  The coefficient equals ``a1`` on [0, p1)
and ``a2`` on [p1, T) with T = p1 + p2, extended periodically.  The
nonlinearity is the relay f(x) = -sign(x), or one of two smooth
approximations controlled by a half-width ``delta``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

# most events, integrator steps or scan cells one request may ask for;
# 2,000,000 integrator samples take about 260 MB
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
        for name in ("a1", "a2", "p1", "p2"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)!r}")
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
    if d == 0.0:
        return
    if d >= 1.0:
        raise ValueError("smoothing half-width delta must be below the delay 1")
    if 2.0 * d >= min(params.p1, params.p2):
        raise ValueError("smoothing windows overlap: 2*delta must stay below min(p1, p2)")


def coefficient_value(params: Params, t: float, smoothing: SmoothingSpec = SmoothingSpec()) -> float:
    """Value of the (possibly smoothed) coefficient at time t.

    Without smoothing this is the two-level step.  With smoothing each jump
    is replaced by the affine ramp of half-width delta centred at the switch
    time, which keeps the integral over any whole period unchanged.  Ramp
    geometry is validated when delta > 0.
    """
    T = params.period
    phase = t % T
    if phase >= T:  # guard against rounding of tiny negative t
        phase = 0.0
    d = smoothing.delta
    if d == 0.0:
        return params.a1 if phase < params.p1 else params.a2
    validate_geometry(params, smoothing)
    a1, a2, p1 = params.a1, params.a2, params.p1
    if phase < d:
        return a2 + (a1 - a2) * (phase + d) / (2.0 * d)
    if phase < p1 - d:
        return a1
    if phase < p1 + d:
        return a1 + (a2 - a1) * (phase - (p1 - d)) / (2.0 * d)
    if phase < T - d:
        return a2
    return a2 + (a1 - a2) * (phase - (T - d)) / (2.0 * d)


def nonlinearity_value(smoothing: SmoothingSpec, x: float) -> float:
    """Negative-feedback nonlinearity f(x).

    delta == 0 gives the relay -sign(x).  The affine profile is the relay
    with the jump replaced by the chord of slope -1/delta on [-delta, delta].
    The smoothexp profile is the odd C^1 function that equals
    exp(delta*x / (x - delta)) - 1 on [0, delta) and -1 beyond; it has
    slope -1 at zero and joins the saturated levels flatly.
    """
    d = smoothing.delta
    if d == 0.0:
        if x > 0.0:
            return -1.0
        if x < 0.0:
            return 1.0
        return 0.0
    if smoothing.profile is Profile.AFFINE:
        if x >= d:
            return -1.0
        if x <= -d:
            return 1.0
        return -x / d
    ax = abs(x)
    if ax >= d:
        v = -1.0
    else:
        v = math.exp(d * ax / (ax - d)) - 1.0
    return -v if x < 0.0 else v


def parse_config_text(text: str) -> dict[str, str]:
    """Parse flat 'key = value' configuration text; '#' starts a comment."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        out[key] = value
    return out
