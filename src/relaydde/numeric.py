"""Fourth-order integration of the (optionally smoothed) relay equation.

Because the right-hand side a(t)*f(x(t-1)) does not involve the current
state, the classical one-step scheme reduces to Simpson quadrature of the
rhs over each step, which keeps fourth order with three rhs evaluations
per step. Delayed values come from cubic Hermite interpolation of stored
(value, derivative) samples.

Order is preserved by never letting a step straddle a kink of the rhs:

  * static knots at the coefficient ramp edges (the switch times k*T and
    k*T + p1 from model.switch_times, shifted by +-delta when delta > 0)
    and at the integer lattice, where the history junction echoes;
  * dynamic knots one delay after the solution crosses a level where the
    nonlinearity bends (-delta, 0, +delta), found by root-solving the
    Hermite interpolant of the step that produced the crossing.

The delay is exactly 1, so the run advances by the method of steps
(Bellen & Zennaro, Numerical Methods for Delay Differential Equations,
2003, ch. 3): from the last stored time t, every chunk up to the last knot
at or below t + 1 evaluates its rhs at times s <= t + 1, which read the
history only at s - 1 <= t, where it is already stored. One numpy pass per
delay unit therefore evaluates all those rhs values, and one cumulative sum
seeded with the carried state adds the Simpson increments in the order,
and with the rounding, of a step-by-step loop. The knots of a pass are all
known when it starts: an echo of a crossing at or after t lands beyond
t + 1. (A chunk longer than the delay, left where an integer knot was
merged into a ramp edge less than BREAK_TOL below it, is split at the last
step whose history is stored.)

With delta == 0 the rhs is piecewise constant between knots, Simpson
integrates it exactly, and the scheme reproduces the event-driven
construction to rounding; knots are then stored twice, carrying the
one-sided derivatives of the kinked solution.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .exact import ConstantHistory, propagate, zeros as path_zeros
from .model import (MAX_WORK, Params, Profile, RelayDDEError, SmoothingSpec, switch_times,
                    validate_geometry)

BREAK_TOL = 1e-9
SIDE_NUDGE = 1e-10


class StepTooLarge(RelayDDEError):
    """The requested step cannot resolve the smoothing windows."""


class NonFiniteState(RelayDDEError):
    """The integrated state left the double range."""


@dataclass(frozen=True)
class DenseSolution:
    """Dense output of one integration run.

    The sample grid covers [start_time - 1, end] so delayed lookups never
    leave the stored history. Times are non-decreasing; a repeated time
    carries the two one-sided derivatives at a kink of the solution
    (always present at the history junction, and at every rhs jump when
    delta == 0). The arrays are the whole result; the CLI writes them as
    CSV rows t,x,dx or as JSON lists.
    """

    start_time: float
    step: float
    times: np.ndarray
    values: np.ndarray
    derivs: np.ndarray
    events: tuple[float, ...]

    def __post_init__(self) -> None:
        n = len(self.times)
        if n < 2 or len(self.values) != n or len(self.derivs) != n:
            raise ValueError("times, values and derivs must share a length >= 2")
        if np.any(np.diff(self.times) < 0.0):
            raise ValueError("times must be non-decreasing")

    @property
    def end_time(self) -> float:
        return float(self.times[-1])

    def values_at(self, ts) -> np.ndarray:
        """Cubic Hermite evaluation at the given times (vectorized)."""
        tq = np.asarray(ts, dtype=float)
        scalar = tq.ndim == 0
        tq = np.atleast_1d(tq)
        lo, hi = float(self.times[0]), float(self.times[-1])
        if not np.all((lo - 1e-9 <= tq) & (tq <= hi + 1e-9)):  # NaN fails too
            raise ValueError("query time outside the stored range")
        if np.any(tq < lo) or np.any(tq > hi):
            tq = np.clip(tq, lo, hi)
        out = _hermite_at(self.values, self.derivs, *_locate(self.times, tq))
        return float(out[0]) if scalar else out


def _hermite(u, dt, x0, d0, x1, d1):  # floats or numpy arrays
    u2 = u * u
    u3 = u2 * u
    return ((2.0 * u3 - 3.0 * u2 + 1.0) * x0 + (u3 - 2.0 * u2 + u) * dt * d0
            + (-2.0 * u3 + 3.0 * u2) * x1 + (u3 - u2) * dt * d1)


def _locate(times, tq):
    """Interval index i, offset u and width dt of each query in [times[0], times[-1]].

    A query reads the interval that starts at the last stored time at or
    before it, which is the second copy of a repeated time, or the last
    interval; a zero-width interval there is stepped back off.
    """
    i = np.minimum(np.searchsorted(times, tq, side="right") - 1, len(times) - 2)
    i = np.where(times[i + 1] == times[i], i - 1, i)
    t0 = times[i]
    dt = times[i + 1] - t0
    return i, (tq - t0) / dt, dt


def _hermite_at(values, derivs, i, u, dt):
    """_hermite on the located intervals, gathering each operand as its term is added."""
    u2 = u * u
    u3 = u2 * u
    out = (2.0 * u3 - 3.0 * u2 + 1.0) * values[i]
    out += (u3 - 2.0 * u2 + u) * dt * derivs[i]
    i = i + 1
    out += (-2.0 * u3 + 3.0 * u2) * values[i]
    out += (u3 - u2) * dt * derivs[i]
    return out


def _coefficient_array(params: Params, smoothing: SmoothingSpec, t: np.ndarray) -> np.ndarray:
    """model.coefficient_value at each time in t, bit for bit, without its
    per-call geometry check (run_step makes it once per run)."""
    T = params.period
    phase = t % T
    phase[phase >= T] = 0.0
    a1, a2, p1, d = params.a1, params.a2, params.p1, smoothing.delta
    out = np.where(phase < p1, a1, a2)
    if d == 0.0:
        return out
    # the three ramps overwrite the plateaus; they are disjoint when 2d < min(p1, p2)
    r = phase < d
    out[r] = a2 + (a1 - a2) * (phase[r] + d) / (2.0 * d)
    r = (phase >= p1 - d) & (phase < p1 + d)
    out[r] = a1 + (a2 - a1) * (phase[r] - (p1 - d)) / (2.0 * d)
    r = phase >= T - d
    out[r] = a2 + (a1 - a2) * (phase[r] - (T - d)) / (2.0 * d)
    return out


def _nonlinearity_array(smoothing: SmoothingSpec, x: np.ndarray) -> np.ndarray:
    """model.nonlinearity_value at each element of x, bit for bit."""
    d = smoothing.delta
    if d == 0.0:
        return np.where(x > 0.0, -1.0, np.where(x < 0.0, 1.0, 0.0))
    if smoothing.profile is Profile.AFFINE:
        return np.where(x >= d, -1.0, np.where(x <= -d, 1.0, -x / d))
    ax = np.abs(x)
    v = np.full_like(ax, -1.0)
    inside = ~(ax >= d)
    # math.exp as in nonlinearity_value: np.exp rounds some of these differently
    v[inside] = [math.exp(z) - 1.0 for z in (d * ax[inside] / (ax[inside] - d)).tolist()]
    return np.where(x < 0.0, -v, v)


def _crossing_time(t0: float, t1: float, x0: float, d0: float, x1: float,
                   d1: float, level: float) -> float | None:
    """Root of the step's Hermite interpolant minus level, if it changes sign."""
    f0 = x0 - level
    f1 = x1 - level
    if f1 == 0.0:
        return t1
    if f0 == 0.0 or (f0 > 0.0) == (f1 > 0.0):
        return None
    dt = t1 - t0
    lo, hi = 0.0, 1.0
    flo = f0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fm = _hermite(mid, dt, x0, d0, x1, d1) - level
        if fm == 0.0:
            return t0 + mid * dt
        if (fm > 0.0) == (flo > 0.0):
            lo = mid
            flo = fm
        else:
            hi = mid
        if (hi - lo) * dt < 1e-15:
            break
    return t0 + 0.5 * (lo + hi) * dt


def run_step(params: Params, smoothing: SmoothingSpec, t_end: float,
             step: float | None = None) -> float:
    """The step integrate takes to t_end, after every check it makes on the run.

    t_end must be positive and finite, the ramps must fit (validate_geometry),
    and the step must not exceed delta/16 when delta > 0, nor 1e-3 when
    delta == 0; omitted, it is min(delta/16, 1/64) (>= 16 nodes per ramp) or
    1e-3. A run of more than MAX_WORK steps (t_end / step) is refused.
    """
    if not math.isfinite(t_end) or t_end <= 0.0:
        raise ValueError("t_end must be positive and finite")
    validate_geometry(params, smoothing)
    delta = smoothing.delta
    if step is None:
        step = min(delta / 16.0, 1.0 / 64.0) if delta > 0.0 else 1e-3
    if not math.isfinite(step) or step <= 0.0:
        raise ValueError("step must be positive and finite")
    if delta > 0.0 and step > delta / 16.0 * (1.0 + 1e-12):
        raise StepTooLarge(f"step {step} exceeds delta/16 = {delta / 16.0}")
    if delta == 0.0 and step > 1e-3 * (1.0 + 1e-12):
        raise StepTooLarge(f"step {step} exceeds the sharp-model cap 1e-3")
    if t_end / step > MAX_WORK:
        raise ValueError(f"t_end {t_end} / step {step} asks for about "
                         f"{t_end / step:.3g} samples, above the cap {MAX_WORK:,}")
    return step


def integrate(params: Params, smoothing: SmoothingSpec, h: float,
              t_end: float, step: float | None = None) -> DenseSolution:
    """Integrate x'(t) = a(t) f(x(t-1)) from the constant history h on [-1, 0].

    h may be any finite real, including 0 (the invariant zero solution).
    The run and the step are checked, and an omitted step chosen, by
    run_step before anything is built.
    """
    if not math.isfinite(h):
        raise ValueError("history value h must be finite")
    step = run_step(params, smoothing, t_end, step)
    delta = smoothing.delta
    sharp = delta == 0.0

    # the sorted knots: ramp edges (switch times when sharp), the integer
    # lattice where the history junction echoes, and t_end, at least
    # BREAK_TOL apart; the walk visits them by index, and dynamic echo knots
    # are inserted ahead of it
    offsets = (0.0,) if sharp else (-delta, delta)
    edges = (s + off for s, _ in switch_times(params, 0.0, t_end + delta) for off in offsets)
    statics = [e for e in edges if BREAK_TOL < e < t_end - BREAK_TOL]
    statics += [float(j) for j in range(1, math.ceil(t_end - BREAK_TOL))]
    knots: list[float] = []
    for s in sorted(statics):
        if not knots or s - knots[-1] > BREAK_TOL:
            knots.append(s)
    knots.append(t_end)

    levels = np.array((0.0,) if sharp else (-delta, 0.0, delta))
    # a chunk's left derivative is the rhs just after its start, stored on a
    # second copy of the knot; without delta only the history junction at 0
    # has one
    nudge = SIDE_NUDGE if sharp else 0.0

    def push_echo(tau: float) -> None:
        # tau >= t, so the knot lands beyond the pass being walked
        knot = tau + 1.0
        if knot >= t_end - BREAK_TOL:
            return
        i = bisect.bisect_left(knots, knot)
        for nb in (i - 1, i):
            if 0 <= nb < len(knots) and abs(knots[nb] - knot) <= BREAK_TOL:
                return
        knots.insert(i, knot)

    # rows: times, values, derivs of the n samples stored so far; room for
    # every step and knot copy, grown if echo knots outnumber the static ones
    buf = np.empty((3, math.ceil(t_end / step) + 2 * len(knots) + 16))
    buf[:, :2] = ((-1.0, 0.0), (h, h), (0.0, 0.0))
    n = 2
    t = 0.0  # last stored time
    ki = 0  # the chunk ending at knots[ki] is the next to walk
    j0 = 0  # steps of that chunk already taken
    while ki < len(knots):
        # one pass: the chunks ending at knots[ki:kj], step by step
        kj = ki + 1
        while kj < len(knots) and knots[kj] - 1.0 <= t:
            kj += 1
        ends = np.array(knots[ki:kj])
        starts = np.array([knots[ki - 1] if ki else 0.0] + knots[ki:kj - 1])
        nsub = np.maximum(1, np.ceil((ends - starts) / step - 1e-12)).astype(np.intp)
        sub = (ends - starts) / nsub
        todo = nsub.copy()
        todo[0] -= j0
        first = np.cumsum(todo) - todo  # index of each chunk's first step in the pass
        c = np.repeat(np.arange(kj - ki), todo)
        jj = np.arange(len(c)) - first[c]
        jj[c == 0] += j0
        t0 = starts[c] + jj * sub[c]
        t1 = starts[c] + (jj + 1) * sub[c]
        last = jj == nsub[c] - 1
        t1[last] = ends[c[last]]
        right = t1 - SIDE_NUDGE * last if sharp else t1
        # the steps whose history is stored: all unless a chunk outlasts the delay
        m = int(np.searchsorted(right - 1.0, t, side="right"))
        c, t0, t1, right, sub_c = c[:m], t0[:m], t1[:m], right[:m], sub[c[:m]]
        copied = np.full(kj - ki, sharp)
        copied[0] = j0 == 0 and (sharp or n == 2)
        # rhs at every midpoint, right end and knot copy of the pass
        s = np.concatenate([t0 + 0.5 * sub_c, right, starts[copied] + nudge])
        i, u, dt = _locate(buf[0, :n], s - 1.0)
        # a state near the double range overflows here; NonFiniteState reports it
        with np.errstate(over="ignore", invalid="ignore"):
            g = (_coefficient_array(params, smoothing, s)
                 * _nonlinearity_array(smoothing, _hermite_at(buf[1, :n], buf[2, :n], i, u, dt)))
            g_mid, g_right, g_copy = g[:m], g[m:2 * m], g[2 * m:]
            g_left = np.empty(m)
            g_left[0] = buf[2, n - 1]
            g_left[1:] = g_right[:-1]
            g_left[first[copied]] = g_copy
            xs = np.cumsum(np.concatenate(([buf[1, n - 1]],
                                           sub_c * (g_left + 4.0 * g_mid + g_right) / 6.0)))
        finite = np.isfinite(xs)
        if not finite.all():
            j = int(np.argmin(finite)) - 1
            raise NonFiniteState(
                f"state became non-finite near t = {float(t1[j])!r} (last finite "
                f"x = {float(xs[j])!r} at t = {float(t0[j])!r}) at {params}, "
                f"delta = {delta!r}")
        # _crossing_time's test: x - level is zero after the step, or changes
        # sign from nonzero before it
        above = xs[:, None] > levels
        on = xs[:, None] == levels
        for j, k in zip(*np.nonzero(on[1:] | ((above[:-1] != above[1:]) & ~on[:-1]))):
            tau = _crossing_time(float(t0[j]), float(t1[j]), float(xs[j]), float(g_left[j]),
                                 float(xs[j + 1]), float(g_right[j]), float(levels[k]))
            if tau is not None:
                push_echo(tau)

        copies = np.cumsum(copied)
        size = n + m + int(copies[-1])
        if size > buf.shape[1]:
            buf = np.concatenate([buf[:, :n], np.empty((3, size - n + buf.shape[1] // 4))],
                                 axis=1)
        buf[:, n + np.arange(m) + copies[c]] = (t1, xs[1:], g_right)
        buf[:, n + (first + copies - 1)[copied]] = (starts[copied], xs[first[copied]], g_copy)
        n = size
        t = float(t1[-1])
        if m < len(jj):
            j0 += m
        else:
            ki, j0 = kj, 0

    return DenseSolution(
        start_time=0.0,
        step=float(step),
        times=buf[0, :n],
        values=buf[1, :n],
        derivs=buf[2, :n],
        events=tuple(knots[:-1]),
    )


def corner_windows(params: Params, delta: float, zero_times, t_end: float) -> tuple[tuple[float, float], ...]:
    """Merged corner windows of half-width delta/min(a1,a2).

    One window around every coefficient switch time and one around each
    zero time plus the delay, clipped to [0, t_end].
    """
    if delta <= 0.0:
        return ()
    eps = delta / min(params.a1, params.a2)
    centers = [s for s, _ in switch_times(params, 0.0, t_end + eps)]
    for z in zero_times:
        c = z + 1.0
        if -eps <= c <= t_end + eps:
            centers.append(c)
    centers.sort()
    merged: list[list[float]] = []
    for c in centers:
        lo = max(0.0, c - eps)
        hi = min(t_end, c + eps)
        if hi <= lo:
            continue
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((w[0], w[1]) for w in merged)


def compare_exact_smoothed(params: Params, delta: float, h: float,
                           sol: DenseSolution) -> dict:
    """Sup-norm deviation between the exact solution and a smoothed one.

    sol is a smoothed solution at half-width delta that the caller
    integrated, from h or from a shifted start; the exact solution starts
    from the constant history h and runs to sol's end. Deviations are read
    at sol's samples from t = 0 on and at their midpoints, and reported
    overall and outside the corner windows, where the O(delta) corner
    mismatch sits. No integration is run here.
    """
    t_end = sol.end_time
    exact_path = propagate(params, ConstantHistory(h), t_end)

    keep = sol.times >= 0.0
    base_ts = sol.times[keep]
    mids = 0.5 * (base_ts[:-1] + base_ts[1:])
    ts = np.unique(np.concatenate([base_ts, mids]))

    xe = np.interp(ts, exact_path.times, exact_path.values)
    dev = np.abs(sol.values_at(ts) - xe)

    windows = corner_windows(params, delta, path_zeros(exact_path), t_end)
    outside = np.ones(len(ts), dtype=bool)
    for lo, hi in windows:
        outside &= ~((ts >= lo) & (ts <= hi))

    return {
        "max_dev_outside_corners": float(dev[outside].max()) if outside.any() else 0.0,
        "max_dev_overall": float(dev.max()),
        "corner_windows": windows,
    }


def one_period_multiplier(params: Params, h_center: float, eps0: float = 1e-6) -> float:
    """Central-difference slope of the one-period return map at h_center."""
    if not (math.isfinite(eps0) and eps0 > 0.0):
        raise ValueError("eps0 must be positive and finite")
    T = params.period
    plus = propagate(params, ConstantHistory(h_center + eps0), T)
    minus = propagate(params, ConstantHistory(h_center - eps0), T)
    return (plus.end_value - minus.end_value) / (2.0 * eps0)
