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


class NonFiniteState(RelayDDEError):
    """The integrated state left the double range."""


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
    """The cubic Hermite interpolant at offset u of the intervals i of width dt.

    Each operand is gathered as its term is added. Scalars work too, with
    sequences for values and derivs.
    """
    u2 = u * u
    u3 = u2 * u
    out = (2.0 * u3 - 3.0 * u2 + 1.0) * values[i]
    out += (u3 - 2.0 * u2 + u) * dt * derivs[i]
    i = i + 1
    out += (-2.0 * u3 + 3.0 * u2) * values[i]
    out += (u3 - u2) * dt * derivs[i]
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
    xs, ds = (x0, x1), (d0, d1)
    lo, hi = 0.0, 1.0
    flo = f0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fm = _hermite_at(xs, ds, 0, mid, dt) - level
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
    # junction echoes, and t_end, at least BREAK_TOL apart; the walk visits
    # them by index, and dynamic echo knots are inserted ahead of it
    edges = (s + off for s, _ in switch_times(params, 0.0, t_end + delta)
             for off in (-delta, delta))
    statics = [e for e in edges if BREAK_TOL < e < t_end - BREAK_TOL]
    statics += [float(j) for j in range(1, math.ceil(t_end - BREAK_TOL))]
    knots: list[float] = []
    for s in sorted(statics):
        if not knots or s - knots[-1] > BREAK_TOL:
            knots.append(s)
    knots.append(t_end)

    levels = np.array((-delta, 0.0, delta))

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

    def rhs(s: np.ndarray) -> np.ndarray:
        # a(s) f(x(s - 1)), reading x from the n samples stored
        i, u, dt = _locate(buf[0, :n], s - 1.0)
        # a state near the double range overflows here; NonFiniteState reports it
        with np.errstate(over="ignore", invalid="ignore"):
            return (_coefficient_array(params, smoothing, s)
                    * _nonlinearity_array(smoothing, _hermite_at(buf[1, :n], buf[2, :n], i, u, dt)))

    # rows: times, values, derivs of the n samples stored so far; room for
    # every step, grown if echo knots outnumber the static ones
    buf = np.empty((3, math.ceil(t_end / step) + len(knots) + 16))
    buf[:, :2] = ((-1.0, 0.0), (h, h), (0.0, 0.0))
    n = 2
    buf[:, 2] = (0.0, h, rhs(np.zeros(1))[0])  # the history junction's second copy
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
        m = int(np.searchsorted(pts[1:] - 1.0, t, side="right"))
        t0, t1 = pts[:m], pts[1:m + 1]
        sub_c = np.repeat(subs, counts)[:m]
        # rhs at every midpoint and right end of the pass
        g = rhs(np.concatenate([t0 + 0.5 * sub_c, t1]))
        g_mid, g_right = g[:m], g[m:]
        g_left = np.empty(m)
        g_left[0] = buf[2, n - 1]
        g_left[1:] = g_right[:-1]
        with np.errstate(over="ignore", invalid="ignore"):
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
        # sign from nonzero before it. The crossings come in step order, and
        # none is searched from the first step with t0 + 1 >= t_end - BREAK_TOL
        # on: push_echo would drop its knot, as tau >= t0 and rounding is monotone
        above = xs[:, None] > levels
        on = xs[:, None] == levels
        for j, k in zip(*np.nonzero(on[1:] | ((above[:-1] != above[1:]) & ~on[:-1]))):
            left = float(t0[j])
            if left + 1.0 >= t_end - BREAK_TOL:
                break
            tau = _crossing_time(left, float(t1[j]), float(xs[j]), float(g_left[j]),
                                 float(xs[j + 1]), float(g_right[j]), float(levels[k]))
            if tau is not None:
                push_echo(tau)

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


def compare_exact_smoothed(params: Params, h: float, sol: DenseSolution) -> dict:
    """Sup-norm deviation between the exact solution and a smoothed one.

    sol is a smoothed solution that the caller integrated, from h or from a
    shifted start, at the half-width it records; the exact solution starts
    from the constant history h and runs to sol's end. Deviations are read
    at sol's stored samples from t = 0 on, as their own values (which the
    interpolant returns there), and at the interpolated midpoints between
    them, and reported overall and outside the corner windows, where the
    O(delta) corner mismatch sits. Both are maxima, so the query times are
    neither sorted nor deduplicated. No integration is run here.
    """
    t_end = sol.end_time
    exact_path = propagate(params, ConstantHistory(h), t_end)

    keep = sol.times >= 0.0
    samples = sol.times[keep]
    mids = 0.5 * (samples[:-1] + samples[1:])
    ts = np.concatenate([samples, mids])
    xs = np.concatenate([sol.values[keep], sol.values_at(mids)])
    dev = np.abs(xs - np.interp(ts, exact_path.times, exact_path.values))

    windows = corner_windows(params, sol.smoothing.delta, path_zeros(exact_path), t_end)
    outside = np.ones(len(ts), dtype=bool)
    for lo, hi in windows:
        outside &= ~((ts >= lo) & (ts <= hi))

    return {
        "max_dev_outside_corners": float(dev[outside].max()) if outside.any() else 0.0,
        "max_dev_overall": float(dev.max()),
        "corner_windows": windows,
    }
