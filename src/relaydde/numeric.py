"""Fourth-order integration of the smoothed relay equation (delta > 0).

Because the right-hand side a(t)*f(x(t-1)) does not involve the current
state, the classical one-step scheme reduces to Simpson quadrature of the
rhs over each step, which keeps fourth order with three rhs evaluations
per step. Delayed values come from cubic Hermite interpolation of stored
(value, derivative) samples.

Order is preserved by never letting a step straddle a kink of the rhs:

  * static knots at the coefficient ramp edges (the switch times k*T and
    k*T + p1 from model.switch_times, shifted by +-delta)
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

Outside the band |x| < delta the nonlinearity is exactly -1 above and +1
below, so most delayed values need no interpolation. A stored interval whose
two samples both lie beyond +-bar, bar = (delta + 0.31 * step * max(a1,
a2)) * (1 + 1e-12), interpolates beyond +-delta everywhere on it
(_saturation_bar states the bound), so a query that reads it takes f = -1
or +1 as it is, and only the other queries are located and interpolated.
A pass whose whole history window lies beyond +bar or -bar interpolates
nothing; one that mixes both kinds of interval picks out the other queries
only from _CERTIFY_FROM queries on, below which picking them out costs more
than it saves.
Every stored array and event is the same, bit for bit, as with every query
interpolated.

The sharp model (delta == 0) is not integrated here: exact.propagate
builds its solution event by event. numpy is imported with this module,
and only smoothed work imports this module, so the exact and return-map
work runs without numpy.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from .exact import ConstantHistory, propagate, zeros as path_zeros
from .model import (MAX_WORK, Params, Profile, RelayDDEError, SmoothingSpec, switch_times,
                    validate_geometry)

# after the package imports, which may compile exact from source: compiling it
# before numpy is loaded keeps a smoothed simulate's peak memory 0.3 MB lower
import numpy as np

BREAK_TOL = 1e-9
_BLOCK = 8192  # samples compare_exact_smoothed reads at a time
# queries of a pass from which a pass that mixes certified and uncertified
# intervals interpolates only the uncertified ones: at (1, 0.25, 2.5, 1.5),
# h = -0.25, doing so made passes of 320 queries (delta = 0.1) 4% slower and
# passes of 640 (delta = 0.05) 4% faster
_CERTIFY_FROM = 512


class NonFiniteState(RelayDDEError):
    """The integrated state left the double range.

    t and x are the last finite state and its time, the step after which
    the state left the range; params are the run's. Each is None when only a
    message was given.
    """

    def __init__(self, message: str, t: float | None = None, x: float | None = None,
                 params: Params | None = None) -> None:
        super().__init__(message)
        self.t, self.x, self.params = t, x, params


@dataclass(frozen=True)
class DenseSolution:
    """Dense output of one integration run.

    The sample grid covers [start_time - 1, end] so delayed lookups never
    leave the stored history. Times are non-decreasing; a repeated time
    carries the two one-sided derivatives at a kink of the solution (the
    history junction, where the flat history meets the rhs at 0). The
    arrays are the whole result; the CLI writes them as CSV rows t,x,dx or
    as JSON lists. smoothing is the half-width and profile that were solved.
    """

    start_time: float
    step: float
    times: np.ndarray
    values: np.ndarray
    derivs: np.ndarray
    events: tuple[float, ...]
    smoothing: SmoothingSpec

    def __post_init__(self) -> None:
        n = len(self.times)
        if n < 2 or len(self.values) != n or len(self.derivs) != n:
            raise ValueError("times, values and derivs must share a length >= 2")
        if np.any(self.times[1:] < self.times[:-1]):  # a bool per sample, no float copy
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
        i, u, dt = _locate(self.times, tq)
        out = _hermite_at(self.values, self.derivs, i, i + 1, u, dt)
        return float(out[0]) if scalar else out


def _locate(times, tq):
    """Interval index i, offset u and width dt of each query in [times[0], times[-1]].

    A query reads the interval that starts at the last stored time at or
    before it, which is the second copy of a repeated time, or the last
    interval; a zero-width interval there is stepped back off.
    """
    i = np.minimum(np.searchsorted(times, tq, side="right") - 1, len(times) - 2)
    t0, t1 = times[i], times[i + 1]
    flat = t1 == t0
    if flat.any():
        i = np.where(flat, i - 1, i)
        t0, t1 = times[i], times[i + 1]
    dt = t1 - t0
    return i, (tq - t0) / dt, dt


def _hermite_at(values, derivs, i, j, u, dt):
    """The cubic Hermite interpolant at offset u of the intervals of width dt.

    i and j index the intervals' left and right samples: index arrays,
    slices or scalars. Each operand is gathered as its term is added.
    """
    u2 = u * u
    u3 = u2 * u
    out = (2.0 * u3 - 3.0 * u2 + 1.0) * values[i]
    out += (u3 - 2.0 * u2 + u) * dt * derivs[i]
    out += (-2.0 * u3 + 3.0 * u2) * values[j]
    out += (u3 - u2) * dt * derivs[j]
    return out


def _coefficient_array(params: Params, smoothing: SmoothingSpec, t: np.ndarray) -> np.ndarray:
    """The smoothed coefficient at each time in t.

    Each jump of the two-level step is replaced by the affine ramp of
    half-width delta centred at its switch time, which keeps the integral
    over any whole period unchanged. The ramp geometry is not checked here:
    run_step checks it once per run.
    """
    T = params.period
    phase = t % T
    phase[phase >= T] = 0.0
    a1, a2, p1, d = params.a1, params.a2, params.p1, smoothing.delta
    out = np.where(phase < p1, a1, a2)
    # the three ramps overwrite the plateaus; they are disjoint when 2d < min(p1, p2)
    r = phase < d
    out[r] = a2 + (a1 - a2) * (phase[r] + d) / (2.0 * d)
    r = (phase >= p1 - d) & (phase < p1 + d)
    out[r] = a1 + (a2 - a1) * (phase[r] - (p1 - d)) / (2.0 * d)
    r = phase >= T - d
    out[r] = a2 + (a1 - a2) * (phase[r] - (T - d)) / (2.0 * d)
    return out


def _nonlinearity_array(smoothing: SmoothingSpec, x: np.ndarray) -> np.ndarray:
    """The smoothed negative-feedback nonlinearity f at each element of x.

    The affine profile is the relay -sign(x) with the jump replaced by the
    chord of slope -1/delta on [-delta, delta]. The smoothexp profile is the
    odd C^1 function that equals exp(delta*x / (x - delta)) - 1 on
    [0, delta) and -1 beyond; it has slope -1 at zero and joins the
    saturated levels flatly.
    """
    d = smoothing.delta
    if smoothing.profile is Profile.AFFINE:
        return np.where(x >= d, -1.0, np.where(x <= -d, 1.0, -x / d))
    ax = np.abs(x)
    v = np.full_like(ax, -1.0)
    inside = ~(ax >= d)
    # math.exp, not np.exp: np.exp rounds some of these differently, and the
    # pinned integrate digests and the scalar reference in tests use math.exp
    v[inside] = [math.exp(z) - 1.0 for z in (d * ax[inside] / (ax[inside] - d)).tolist()]
    return np.where(x < 0.0, -v, v)


def _saturation_bar(params: Params, smoothing: SmoothingSpec, step: float) -> float:
    """The level beyond which a stored interval is certified saturated.

    An interval of width dt between samples (v0, d0) and (v1, d1)
    interpolates h00 v0 + h01 v1 + dt (h10 d0 + h11 d1) at offset u, where
    h00 + h01 = 1, both are nonnegative, and |h10| + |h11| = u (1 - u) <= 1/4.
    Every stored derivative is a(s) f with |f| <= 1, so |d| <= max(a1, a2),
    and every interval is at most a step wide but the history's [-1, 0],
    whose derivatives are 0. So the interpolant stays within
    step * max(a1, a2) / 4 of [min(v0, v1), max(v0, v1)]. 0.31 covers that
    quarter with room for the rounding of widths and derivatives, and the
    relative 1e-12 covers the rounding of the interpolant where the levels
    are too small for that room to count.
    """
    reach = 0.31 * step * max(params.a1, params.a2)
    return (smoothing.delta + reach) * (1.0 + 1e-12)


def _saturated_sides(values: np.ndarray, bar: float) -> np.ndarray:
    """Per interval between neighbouring values: +1 if both lie at or above
    bar, -1 if both lie at or below -bar, else 0 (int8)."""
    side = (values >= bar).view(np.int8) - (values <= -bar).view(np.int8)
    return side[:-1] * (side[:-1] == side[1:])


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
    above = f0 > 0.0  # the sign x - level keeps at lo
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        # _hermite_at's arithmetic at u = mid, inline and in its order, with
        # 2u^3 and 3u^2 formed once (-2u^3 + 3u^2 rounds as 3u^2 - 2u^3)
        u2 = mid * mid
        u3 = u2 * mid
        c3, c2 = 2.0 * u3, 3.0 * u2
        fm = (c3 - c2 + 1.0) * x0
        fm += (u3 - 2.0 * u2 + mid) * dt * d0
        fm += (c2 - c3) * x1
        fm += (u3 - u2) * dt * d1
        fm -= level
        if fm == 0.0:
            return t0 + mid * dt
        if (fm > 0.0) == above:
            lo = mid
        else:
            hi = mid
        if (hi - lo) * dt < 1e-15:
            break
    return t0 + 0.5 * (lo + hi) * dt


def run_step(params: Params, smoothing: SmoothingSpec, t_end: float,
             step: float | None = None) -> float:
    """The step integrate takes to t_end, after every check it makes on the run.

    delta must be positive (the sharp model is exact.propagate's), t_end
    positive and finite, the ramps must fit (validate_geometry), and the
    step must not exceed delta/16; omitted, it is min(delta/16, 1/64)
    (>= 16 nodes per ramp). A run of more than MAX_WORK steps (t_end / step)
    is refused.
    """
    delta = smoothing.delta
    if delta == 0.0:
        raise ValueError("integrate solves the smoothed model (delta > 0); "
                         "exact.propagate solves the sharp model (delta == 0)")
    if not math.isfinite(t_end) or t_end <= 0.0:
        raise ValueError("t_end must be positive and finite")
    validate_geometry(params, smoothing)
    if step is None:
        step = min(delta / 16.0, 1.0 / 64.0)
    if not math.isfinite(step) or step <= 0.0:
        raise ValueError("step must be positive and finite")
    if step > delta / 16.0 * (1.0 + 1e-12):
        raise ValueError(f"step {step} exceeds delta/16 = {delta / 16.0}")
    if t_end / step > MAX_WORK:
        raise ValueError(f"t_end {t_end} / step {step} asks for about "
                         f"{t_end / step:.3g} samples, above the cap {MAX_WORK:,}")
    return step


def integrate(params: Params, smoothing: SmoothingSpec, h: float,
              t_end: float, step: float | None = None) -> DenseSolution:
    """Integrate x'(t) = a(t) f(x(t-1)) from the constant history h on [-1, 0].

    h may be any finite real, including 0 (the invariant zero solution).
    The run and the step are checked, and an omitted step chosen, by
    run_step before anything is built; delta == 0 is refused there.
    """
    if not math.isfinite(h):
        raise ValueError("history value h must be finite")
    step = run_step(params, smoothing, t_end, step)
    delta = smoothing.delta

    # the sorted knots: ramp edges, the integer lattice where the history
    # junction echoes, and t_end; the walk visits them by index, and dynamic
    # echo knots are inserted ahead of it
    knots = [t_end]

    def add_knot(knot: float) -> None:
        # admitted inside (BREAK_TOL, t_end - BREAK_TOL), more than BREAK_TOL
        # from every other knot; knots[i] exists, as t_end is the last knot
        if not BREAK_TOL < knot < t_end - BREAK_TOL:
            return
        i = bisect.bisect_left(knots, knot)
        if i and knot - knots[i - 1] <= BREAK_TOL or knots[i] - knot <= BREAK_TOL:
            return
        knots.insert(i, knot)

    edges = [s + off for s, _ in switch_times(params, 0.0, t_end + delta)
             for off in (-delta, delta)]
    for knot in sorted(edges + [float(j) for j in range(1, math.ceil(t_end - BREAK_TOL))]):
        add_knot(knot)
    levels = (-delta, 0.0, delta)
    # each level and the next double above it: a state's code, the number of
    # these at or below it, is 2k + 1 on level k and 2k strictly between
    # levels k - 1 and k
    level_codes = np.column_stack((levels, np.nextafter(levels, np.inf))).ravel()
    bar = _saturation_bar(params, smoothing, step)

    def rhs(s: np.ndarray, lo: int) -> np.ndarray:
        # a(s) f(x(s - 1)), reading x from the samples lo:n stored, whose
        # first time must be at or before every s - 1; f is -1 or +1 as it is
        # on an interval beyond +-bar. Levels or states near the double range
        # overflow here, and NonFiniteState reports it
        times, values = buf[0, lo:n], buf[1, lo:n]
        with np.errstate(over="ignore", invalid="ignore"):
            if values.min() >= bar:
                return -_coefficient_array(params, smoothing, s)
            if values.max() <= -bar:
                return _coefficient_array(params, smoothing, s)
            q, f = s - 1.0, None
            if len(q) >= _CERTIFY_FROM:
                side = _saturated_sides(values, bar)
                starts = (side[1:] != side[:-1]).nonzero()[0] + 1  # of the runs after the first
                if len(starts):
                    starts = np.concatenate(([0], starts))
                    f = (-side[starts].astype(float))[times[starts].searchsorted(q, "right") - 1]
                    bent = (f == 0.0).nonzero()[0]
                    q = q[bent]
            if len(q):
                i, u, dt = _locate(times, q)
                x = _hermite_at(values, buf[2, lo:n], i, i + 1, u, dt)
                if f is None:
                    f = _nonlinearity_array(smoothing, x)
                else:
                    f[bent] = _nonlinearity_array(smoothing, x)
            return _coefficient_array(params, smoothing, s) * f

    # rows: times, values, derivs of the n samples stored so far; room for
    # every step, grown if echo knots outnumber the static ones
    buf = np.empty((3, math.ceil(t_end / step) + len(knots) + 16))
    buf[:, :2] = ((-1.0, 0.0), (h, h), (0.0, 0.0))
    n = 2
    buf[:, 2] = (0.0, h, rhs(np.zeros(1), 0)[0])  # the history junction's second copy
    n = 3
    t = 0.0  # last stored time
    ki = 0  # the chunk ending at knots[ki] is the next to walk
    j0 = 0  # steps of that chunk already taken
    while ki < len(knots):
        # one pass: the chunks ending at knots[ki:kj], step by step; a chunk
        # takes nsub even steps, the first chunk's first j0 of them already
        kj = ki + 1
        while kj < len(knots) and knots[kj] - 1.0 <= t:
            kj += 1
        start, j = (knots[ki - 1] if ki else 0.0), j0
        grid, subs, counts = [], [], []
        for end in knots[ki:kj]:
            nsub = max(1, math.ceil((end - start) / step - 1e-12))
            sub = (end - start) / nsub
            grid.append(np.arange(j, nsub) * sub + start)
            subs.append(sub)
            counts.append(nsub - j)
            start, j = end, 0
        grid.append((knots[kj - 1],))
        pts = np.concatenate(grid)  # each step's left end, then the pass's last knot
        # the steps whose history is stored: all unless a chunk outlasts the delay
        m = int((pts[1:] - 1.0).searchsorted(t, "right"))
        t0, t1 = pts[:m], pts[1:m + 1]
        sub_c = np.repeat(subs, counts)[:m]
        # rhs at every midpoint and right end of the pass, each after t, so
        # the history is read from the last sample at or before t - 1 on
        lo = int(buf[0, :n].searchsorted(t - 1.0, "right")) - 1
        g = rhs(np.concatenate([t0 + 0.5 * sub_c, t1]), lo)
        g_mid, g_right = g[:m], g[m:]
        g_left = np.concatenate(([buf[2, n - 1]], g_right[:-1]))
        with np.errstate(over="ignore", invalid="ignore"):
            xs = np.concatenate(([buf[1, n - 1]],
                                 sub_c * (g_left + 4.0 * g_mid + g_right) / 6.0)).cumsum()
        finite = np.isfinite(xs)
        if not finite.all():
            j = int(np.argmin(finite)) - 1
            t_last, x_last = float(t0[j]), float(xs[j])
            raise NonFiniteState(
                f"state became non-finite near t = {float(t1[j])!r} (last finite "
                f"x = {x_last!r} at t = {t_last!r}) at {params}, delta = {delta!r}",
                t_last, x_last, params)
        # _crossing_time's test: x - level is zero after the step, or changes
        # sign from nonzero before it. In codes, it is searched on the levels
        # whose code 2k + 1 lies from c0 to c1, and drops one that x0 is on and
        # x1 is not. The crossings come in step order, and none is searched
        # from the first step with t0 + 1 >= t_end - BREAK_TOL on: add_knot
        # would drop its knot, as tau >= t0 and rounding is monotone
        code = level_codes.searchsorted(xs, "right")
        for j in ((code[1:] != code[:-1]) | (code[1:] & 1)).nonzero()[0].tolist():
            left = float(t0[j])
            if left + 1.0 >= t_end - BREAK_TOL:
                break
            c0, c1 = sorted((int(code[j]), int(code[j + 1])))
            for k in range(c0 // 2, (c1 + 1) // 2):
                tau = _crossing_time(left, float(t1[j]), float(xs[j]), float(g_left[j]),
                                     float(xs[j + 1]), float(g_right[j]), levels[k])
                if tau is not None:
                    add_knot(tau + 1.0)  # tau >= t, so the knot lands beyond this pass

        if n + m > buf.shape[1]:
            buf = np.concatenate([buf[:, :n], np.empty((3, m + buf.shape[1] // 4))], axis=1)
        buf[:, n:n + m] = (t1, xs[1:], g_right)
        n += m
        t = float(t1[-1])
        if m < len(pts) - 1:
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
        smoothing=smoothing,
    )


def corner_windows(params: Params, delta: float, zero_times, t_end: float) -> tuple[tuple[float, float], ...]:
    """Merged corner windows of half-width delta/min(a1,a2).

    One window around every coefficient switch time and one around each
    zero time plus the delay, clipped to [0, t_end]. Switches are listed
    only up to one period past t_end: the first switch past t_end contains
    the clipped window of every later one, so eps, which can be huge or
    infinite, does not size the list.
    """
    eps = delta / min(params.a1, params.a2)
    centers = [s for s, _ in switch_times(params, 0.0, t_end + min(eps, params.period))]
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


def _outside(ts, lo, hi):
    """Mask of the times ts that lie in none of the windows [lo[k], hi[k]].

    The windows are sorted and disjoint, so a time lies in one only if it
    lies in the last window that opens at or before it, window k.
    """
    k = np.searchsorted(lo, ts, side="right") - 1
    if not len(hi):
        return k < 0
    return (k < 0) | (ts > hi[k])


def compare_exact_smoothed(params: Params, h: float, sol: DenseSolution) -> dict:
    """Sup-norm deviation between the exact solution and a smoothed one.

    sol is a smoothed solution that the caller integrated, from h or from a
    shifted start, at the half-width it records; the exact solution starts
    from the constant history h and runs to sol's end. Deviations are read
    at sol's stored samples from t = 0 on, as their own values (which the
    interpolant returns there), and at the interpolated midpoints between
    them, and reported overall and outside the corner windows, where the
    O(delta) corner mismatch sits. The midpoint of a zero-width interval is
    its own sample, so it is not read again. The samples are read in blocks
    of _BLOCK, each with the midpoints that follow its samples, so no array
    built here grows with the samples; the maxima propagate NaN as
    ndarray.max does. No integration is run here.
    """
    t_end = sol.end_time
    exact_path = propagate(params, ConstantHistory(h), t_end)
    windows = corner_windows(params, sol.smoothing.delta, path_zeros(exact_path), t_end)
    knot_ts, knot_xs = np.array(exact_path.times), np.array(exact_path.values)
    lo, hi = np.array(windows).reshape(-1, 2).T
    times, values, derivs = sol.times, sol.values, sol.derivs
    n = len(times)

    tops, outs = [], []
    for a in range(int(np.searchsorted(times, 0.0)), n, _BLOCK):
        c = min(a + _BLOCK, n - 1)  # the intervals a:c start in this block
        left, right = slice(a, c), slice(a + 1, c + 1)
        t0, t1 = times[left], times[right]
        wide = t1 > t0
        if not wide.all():
            left = a + np.flatnonzero(wide)
            right = left + 1
            t0, t1 = times[left], times[right]
        dt = t1 - t0
        mids = 0.5 * (t0 + t1)
        for ts, xs in ((times[a:a + _BLOCK], values[a:a + _BLOCK]),
                       (mids, _hermite_at(values, derivs, left, right, (mids - t0) / dt, dt))):
            if len(ts):
                dev = np.abs(xs - np.interp(ts, knot_ts, knot_xs))
                tops.append(dev.max())
                dev = dev[_outside(ts, lo, hi)]
                if len(dev):
                    outs.append(dev.max())

    return {
        "max_dev_outside_corners": float(np.max(outs)) if outs else 0.0,
        "max_dev_overall": float(np.max(tops)),
        "corner_windows": windows,
    }
