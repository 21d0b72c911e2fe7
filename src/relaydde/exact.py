"""Exact propagation of the relay equation by event tracking.

Between events the right hand side a(t) * f(x(t - 1)) is constant, because
the relay feedback f(x(t - 1)) is locked to +-1 by the sign of the delayed
value and a(t) is constant between switch times.  Solutions are therefore
piecewise affine, and the dynamics is advanced exactly from event to event:

  * coefficient switch times k*T and k*T + p1, read in order, with the
    level each one starts, from model.switch_times,
  * feedback flips one delay unit after each zero of the solution,
  * zeros of the solution, found in closed form on each affine piece.

The event budget grows with the span; a run whose budget exceeds
model.MAX_WORK is refused before it starts.

A constant nonzero history pins the feedback sign on the first delay
interval, and every later zero is a transversal crossing, so the construction
never consults f(0).  Zeros of such solutions are always separated by more
than the delay: after a zero the derivative keeps its sign for one full delay
unit, which moves the solution a positive distance away from zero before the
feedback can flip.  The engine still guards that invariant at run time.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator

from .model import MAX_WORK, Params, RelayDDEError, coefficient_value, switch_times

# Two event times closer than this are treated as one simultaneous event.
TIME_TOL = 1e-12


class DegenerateStall(RelayDDEError):
    """Raised if event tracking loses the slow oscillation invariant."""


@dataclass(frozen=True)
class ConstantHistory:
    """Constant history segment x(t) = h on [start - 1, start], h != 0."""

    h: float

    def __post_init__(self) -> None:
        v = float(self.h)
        if not math.isfinite(v) or v == 0.0:
            raise ValueError(f"history value must be nonzero and finite, got {self.h!r}")
        object.__setattr__(self, "h", v)


@dataclass(frozen=True)
class PiecewisePath:
    """Piecewise affine path given by knot times and values.

    Knot times are strictly increasing and start at start_time.  The path is
    affine between consecutive knots.  Knots with value exactly 0.0 mark
    zeros produced by the event engine.
    """

    start_time: float
    times: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.times) != len(self.values) or len(self.times) < 2:
            raise ValueError("path needs matching times and values with at least two knots")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("knot times must be strictly increasing")

    @property
    def end_time(self) -> float:
        return self.times[-1]

    @property
    def end_value(self) -> float:
        return self.values[-1]

    @property
    def breakpoints(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.times, self.values))

    def value_at(self, t: float) -> float:
        """Evaluate the path at time t inside [start_time, end_time]."""
        t0, t1 = self.times[0], self.times[-1]
        if t < t0 - TIME_TOL or t > t1 + TIME_TOL:
            raise ValueError(f"time {t!r} outside path range [{t0}, {t1}]")
        t = min(max(t, t0), t1)
        i = bisect_right(self.times, t) - 1
        i = min(max(i, 0), len(self.times) - 2)
        ta, tb = self.times[i], self.times[i + 1]
        va, vb = self.values[i], self.values[i + 1]
        return va + (vb - va) * (t - ta) / (tb - ta)

    def segments(self) -> Iterator[tuple[float, float, float, float]]:
        """Yield (t0, t1, x0, x1) for each affine piece."""
        for i in range(len(self.times) - 1):
            yield self.times[i], self.times[i + 1], self.values[i], self.values[i + 1]

    def to_jsonable(self) -> dict:
        return {
            "start_time": self.start_time,
            "breakpoints": [[t, v] for t, v in zip(self.times, self.values)],
            "segments": [
                {"t0": t0, "t1": t1, "x0": x0, "x1": x1, "slope": (x1 - x0) / (t1 - t0)}
                for t0, t1, x0, x1 in self.segments()
            ],
            "zeros": zeros(self),
        }


def propagate(
    params: Params,
    history: ConstantHistory,
    t_end: float,
    *,
    start_time: float = 0.0,
) -> PiecewisePath:
    """Propagate the sharp relay equation exactly from a constant history.

    The history value holds on [start_time - 1, start_time]; the returned
    path covers [start_time, t_end].  The coefficient is tied to the global
    clock, so start_time selects a phase of the coefficient pattern.
    """
    if not math.isfinite(t_end) or t_end <= start_time + TIME_TOL:
        raise ValueError("t_end must exceed start_time")
    span = t_end - start_time
    rate = 4.0 + 8.0 / min(params.p1, params.p2, 1.0)
    if 1000 + span * rate > MAX_WORK:
        raise ValueError(f"a span of {span:.6g} allows up to {1000 + span * rate:.3g} "
                         f"events, above the cap {MAX_WORK:,}")
    budget = 1000 + int(span * rate)
    h = history.h
    t, x = start_time, h
    times = [t]
    values = [x]
    fb = 1.0 if h < 0.0 else -1.0
    t_flip = math.inf  # pending feedback flip time; at most one is ever pending
    # level on the current piece; a switch within TIME_TOL of t counts as passed
    level = coefficient_value(params, start_time)
    switches = switch_times(params, start_time - TIME_TOL, t_end)
    t_switch, next_level = next(switches, (math.inf, level))
    while t < t_end - TIME_TOL:
        budget -= 1
        if budget < 0:
            raise DegenerateStall("event budget exceeded; dynamics did not stay slowly oscillating")
        while t_switch <= t + TIME_TOL:
            level = next_level
            t_switch, next_level = next(switches, (math.inf, level))
        t_stop = min(t_end, t_switch, t_flip)
        slope = level * fb
        # closed-form zero of the affine piece, if the piece heads toward zero
        z = None
        if x != 0.0 and (x < 0.0) == (slope > 0.0):
            z_cand = t - x / slope
            if z_cand <= t_stop + TIME_TOL:
                z = z_cand
        if z is not None and z < t_stop - TIME_TOL:
            if t_flip < math.inf:
                raise DegenerateStall("zero within one delay of the previous zero")
            times.append(z)
            values.append(0.0)
            t_flip = z + 1.0
            t, x = z, 0.0
            continue
        x_new = x + slope * (t_stop - t)
        if z is not None:
            # the zero lands on the event time itself
            if t_flip < math.inf:
                raise DegenerateStall("zero coincides with a pending feedback flip")
            x_new = 0.0
        times.append(t_stop)
        values.append(x_new)
        t, x = t_stop, x_new
        if t_flip <= t + TIME_TOL:
            t_flip = math.inf
            fb = -fb
        if z is not None:
            t_flip = t + 1.0
    if times[-1] < t_end:  # an event landed within TIME_TOL of t_end
        times[-1] = t_end
    return PiecewisePath(start_time=start_time, times=tuple(times), values=tuple(values))


def zeros(path: PiecewisePath) -> list[float]:
    """Zeros of a piecewise affine path, in increasing order.

    Knots with value exactly 0.0 (as produced by the event engine) are taken
    as zeros directly; strict sign changes across a piece are located by
    linear interpolation.  Nearby duplicates are merged.
    """
    out: list[float] = []
    for i, (ti, vi) in enumerate(zip(path.times, path.values)):
        if vi == 0.0:
            out.append(ti)
        elif i + 1 < len(path.times):
            vj = path.values[i + 1]
            if vi * vj < 0.0:
                tj = path.times[i + 1]
                out.append(ti - vi * (tj - ti) / (vj - vi))
    out.sort()
    merged: list[float] = []
    for zt in out:
        if not merged or zt - merged[-1] > TIME_TOL:
            merged.append(zt)
    return merged


def is_slowly_oscillating(path: PiecewisePath) -> bool:
    """True if consecutive zeros of the path are separated by more than 1."""
    zs = zeros(path)
    return all(b - a > 1.0 for a, b in zip(zs, zs[1:]))


def path_sup_distance(
    p: PiecewisePath,
    q: PiecewisePath,
    t0: float | None = None,
    t1: float | None = None,
) -> float:
    """Exact sup norm of p - q over [t0, t1].

    Both paths are piecewise affine, so their difference is too, and the sup
    is attained at a knot of one of them (or at an interval end).  Defaults
    to the overlap of the two time ranges.
    """
    lo = max(p.times[0], q.times[0]) if t0 is None else t0
    hi = min(p.times[-1], q.times[-1]) if t1 is None else t1
    if not lo < hi:
        raise ValueError("paths do not overlap on a nontrivial interval")
    knots = {lo, hi}
    for path in (p, q):
        knots.update(t for t in path.times if lo <= t <= hi)
    return max(abs(p.value_at(s) - q.value_at(s)) for s in knots)
