"""Exact propagation of the relay equation by event tracking.

Between events the right hand side a(t) * f(x(t - 1)) is constant, because
the relay feedback f(x(t - 1)) is locked to +-1 by the sign of the delayed
value and a(t) is constant between switch times.  Solutions are therefore
piecewise affine, and the dynamics is advanced exactly from event to event:

  * coefficient switch times k*T and k*T + p1, walked in place in the order
    model.switch_times lists them; the walk gives every level of a(t),
  * feedback flips one delay unit after each zero of the solution,
  * zeros of the solution, found in closed form on each affine piece.

The event budget grows with the span; a run whose budget exceeds
model.MAX_WORK is refused before it starts.

propagate wraps the private loop _event_loop, which also lists the times
of the 0.0 knots it places: the zeros of the path, which maps' validators
read without a PiecewisePath or a zeros() pass.  Where rounding may leave a
zero the loop did not place, that path's list comes from zeros().

A constant nonzero history pins the feedback sign on the first delay
interval, and every later zero is a transversal crossing, so the construction
never consults f(0).  Zeros of such solutions are always separated by more
than the delay: after a zero the derivative keeps its sign for one full delay
unit, which moves the solution a positive distance away from zero before the
feedback can flip.  The engine still guards that invariant at run time.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass

from .model import MAX_WORK, Params, RelayDDEError, _first_period

# Two event times closer than this are treated as one simultaneous event.
TIME_TOL = 1e-12


class DegenerateStall(RelayDDEError):
    """Raised if event tracking loses the slow oscillation invariant."""


def _stall(what: str, t: float, x: float, params: Params) -> DegenerateStall:
    return DegenerateStall(f"{what} at t = {t!r}, x = {x!r}, at {params}")


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
        if any(map(operator.le, self.times[1:], self.times)):
            raise ValueError("knot times must be strictly increasing")

    def value_at(self, t: float) -> float:
        """Evaluate the path at time t inside [times[0], times[-1]]."""
        return _value_at(self.times, self.values, t)


def _value_at(times, values, t: float) -> float:
    """Value at time t of the path with these knots; PiecewisePath.value_at."""
    t0, t1 = times[0], times[-1]
    if not (t0 - TIME_TOL <= t <= t1 + TIME_TOL):  # NaN fails too
        raise ValueError(f"time {t!r} outside path range [{t0}, {t1}]")
    t = min(max(t, t0), t1)
    # t >= times[0], so bisect_right is at least 1
    i = min(bisect_right(times, t) - 1, len(times) - 2)
    ta, tb = times[i], times[i + 1]
    va, vb = values[i], values[i + 1]
    return va + (vb - va) * (t - ta) / (tb - ta)


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
    times, values, _ = _event_loop(params, history.h, t_end, start_time)
    return PiecewisePath(start_time=start_time, times=tuple(times), values=tuple(values))


def _event_loop(
    params: Params, h: float, t_end: float, start_time: float
) -> tuple[list[float], list[float], list[float]]:
    """propagate's loop from the finite nonzero history value h: the knot
    times and values as lists, and zeros() of the path they make."""
    tol, inf = TIME_TOL, math.inf
    if not -inf < start_time < inf:  # NaN fails too
        raise ValueError(f"start_time must be finite, got {start_time!r}")
    if not (t_end < inf and t_end > start_time + tol):
        raise ValueError("t_end must exceed start_time")
    span = t_end - start_time
    shortest = params.p1 if params.p1 < params.p2 else params.p2
    rate = 4.0 + 8.0 / (shortest if shortest < 1.0 else 1.0)
    if 1000 + span * rate > MAX_WORK:
        raise ValueError(f"a span of {span:.6g} allows up to {1000 + span * rate:.3g} "
                         f"events, above the cap {MAX_WORK:,}")
    budget = 1000 + int(span * rate)
    t, x = start_time, h
    times = [t]
    values = [x]
    zs: list[float] = []
    add_time, add_value, add_zero = times.append, values.append, zs.append
    # a step is longer than TIME_TOL / 3, so it moves x off a zero by
    # level * step, which can round to 0.0 only for levels below 1e-280
    placed_all = params.a1 > 1e-280 and params.a2 > 1e-280
    fb = 1.0 if h < 0.0 else -1.0
    t_flip = inf  # pending feedback flip time; at most one is ever pending
    # the next switch t_switch, walked in place from the first one at or after
    # start_time - TIME_TOL, and the level before it: k*T starts a1 and
    # k*T + p1 starts a2, period after period, as switch_times lists them;
    # a switch within TIME_TOL of t counts as passed
    T, p1, a1, a2 = params.period, params.p1, params.a1, params.a2
    k = _first_period(params, start_time - tol)
    in_second = k * T < start_time - tol  # the first switch is k*T + p1
    t_switch, level = (k * T + p1, a1) if in_second else (k * T, a2)
    t_last = t_end - tol
    for _ in range(budget):  # at most budget events; the else clause runs when all are used
        if not t < t_last:
            break
        while t_switch <= t + tol:  # t + tol <= t_end, so no switch past t_end is taken
            if in_second:
                k += 1
                t_switch, level = k * T, a2
            else:
                t_switch, level = k * T + p1, a1
            in_second = not in_second
        t_stop = t_switch if t_switch < t_end else t_end
        if t_flip < t_stop:
            t_stop = t_flip
        slope = level * fb
        # closed-form zero of the affine piece, if the piece heads toward zero
        if x != 0.0 and (x < 0.0) == (slope > 0.0):
            z = t - x / slope
            if z <= t_stop + tol:
                if t_flip < inf:
                    raise _stall("zero within one delay of the previous zero", t, x, params)
                if z < t_stop - tol:
                    if z <= t:
                        raise _stall("zero does not lie after the current event", t, x, params)
                    t_stop = z
                # else the zero lands on the event time itself
                add_time(t_stop)
                add_value(0.0)
                add_zero(t_stop)
                t, x = t_stop, 0.0
                t_flip = t + 1.0
                continue
            x_new = x + slope * (t_stop - t)
            if x_new == 0.0 or (x_new < 0.0) != (x < 0.0):
                placed_all = False  # rounding reached zero where the closed form did not
            x = x_new
        else:
            x += slope * (t_stop - t)
        t = t_stop
        add_time(t)
        add_value(x)
        if t_flip <= t + tol:
            t_flip = inf
            fb = -fb
    else:
        if t < t_last:
            raise _stall("event budget exceeded; dynamics did not stay slowly oscillating",
                         t, x, params)
    if times[-1] < t_end:  # an event landed within TIME_TOL of t_end
        if zs and zs[-1] == times[-1]:
            zs[-1] = t_end
        times[-1] = t_end
    if not placed_all:
        zs = zeros(PiecewisePath(start_time, tuple(times), tuple(values)))
    return times, values, zs


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


def path_sup_distance(p: PiecewisePath, q: PiecewisePath, t0: float, t1: float) -> float:
    """Exact sup norm of p - q over [t0, t1].

    Both paths are piecewise affine, so their difference is too, and the sup
    is attained at a knot of one of them (or at an interval end).
    """
    if not t0 < t1:
        raise ValueError("paths do not overlap on a nontrivial interval")
    knots = {t0, t1}
    for path in (p, q):
        knots.update(t for t in path.times if t0 <= t <= t1)
    return max(abs(p.value_at(s) - q.value_at(s)) for s in knots)
