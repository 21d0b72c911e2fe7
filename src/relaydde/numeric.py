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
from .model import (MAX_WORK, Params, RelayDDEError, SmoothingSpec, coefficient_value,
                    nonlinearity_value, switch_times, validate_geometry)

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
        if np.any(tq < lo - 1e-9) or np.any(tq > hi + 1e-9):
            raise ValueError("query time outside the stored range")
        tq = np.clip(tq, lo, hi)
        i = np.searchsorted(self.times, tq, side="right") - 1
        i = np.clip(i, 0, len(self.times) - 2)
        # a query landing exactly on the first copy of a repeated knot
        # would select the zero-width interval; step past it
        degenerate = self.times[i + 1] == self.times[i]
        i = np.where(degenerate & (i + 2 <= len(self.times) - 1), i + 1, i)
        i = np.where(self.times[i + 1] == self.times[i], i - 1, i)
        dt = self.times[i + 1] - self.times[i]
        out = _hermite((tq - self.times[i]) / dt, dt, self.values[i], self.derivs[i],
                       self.values[i + 1], self.derivs[i + 1])
        return float(out[0]) if scalar else out

    def value_at(self, t: float) -> float:
        return float(self.values_at(t))


def _hermite(u, dt, x0, d0, x1, d1):  # floats or numpy arrays
    u2 = u * u
    u3 = u2 * u
    return ((2.0 * u3 - 3.0 * u2 + 1.0) * x0 + (u3 - 2.0 * u2 + u) * dt * d0
            + (-2.0 * u3 + 3.0 * u2) * x1 + (u3 - u2) * dt * d1)


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

    levels = (0.0,) if sharp else (-delta, 0.0, delta)

    times = [-1.0, 0.0, 0.0]
    values = [h, h, h]
    derivs = [0.0, 0.0, 0.0]

    ptr = 0  # rolling index for delayed lookups; query times never decrease

    def delayed(s: float) -> float:
        nonlocal ptr
        n = len(times)
        while ptr + 2 < n and times[ptr + 1] <= s:
            ptr += 1
        t0, t1 = times[ptr], times[ptr + 1]
        if t1 == t0:  # pragma: no cover - repeated knot, step past it
            ptr += 1
            t0, t1 = times[ptr], times[ptr + 1]
        u = (s - t0) / (t1 - t0)
        return _hermite(u, t1 - t0, values[ptr], derivs[ptr],
                        values[ptr + 1], derivs[ptr + 1])

    def rhs(s: float) -> float:
        return (coefficient_value(params, s, smoothing)
                * nonlinearity_value(smoothing, delayed(s - 1.0)))

    def push_echo(tau: float) -> None:
        # tau + 1 lies beyond the chunk being walked, which is at most one
        # delay long, so the knot lands ahead of the walk
        knot = tau + 1.0
        if knot >= t_end - BREAK_TOL:
            return
        i = bisect.bisect_left(knots, knot)
        for nb in (i - 1, i):
            if 0 <= nb < len(knots) and abs(knots[nb] - knot) <= BREAK_TOL:
                return
        knots.insert(i, knot)

    derivs[-1] = rhs(SIDE_NUDGE if sharp else 0.0)
    t = 0.0
    x = h
    g_left = derivs[-1]
    ki = 0
    while t < t_end - BREAK_TOL:
        nb = knots[ki]
        ki += 1
        span = nb - t
        nsub = max(1, math.ceil(span / step - 1e-12))
        sub = span / nsub
        for jj in range(nsub):
            t0 = t + jj * sub
            t1 = nb if jj == nsub - 1 else t + (jj + 1) * sub
            last = jj == nsub - 1
            g_mid = rhs(t0 + 0.5 * sub)
            if sharp and last:
                g_right = rhs(t1 - SIDE_NUDGE)
            else:
                g_right = rhs(t1)
            x_new = x + sub * (g_left + 4.0 * g_mid + g_right) / 6.0
            if not math.isfinite(x_new):  # pragma: no cover - defensive
                raise NonFiniteState(f"state became non-finite near t = {t1}")
            for lev in levels:
                tau = _crossing_time(t0, t1, x, g_left, x_new, g_right, lev)
                if tau is not None:
                    push_echo(tau)
            times.append(t1)
            values.append(x_new)
            derivs.append(g_right)
            x = x_new
            g_left = g_right
        if sharp and nb < t_end - BREAK_TOL:
            # store the right-sided derivative on a second copy of the knot
            g_left = rhs(nb + SIDE_NUDGE)
            times.append(nb)
            values.append(x)
            derivs.append(g_left)
        t = nb

    return DenseSolution(
        start_time=0.0,
        step=float(step),
        times=np.asarray(times, dtype=float),
        values=np.asarray(values, dtype=float),
        derivs=np.asarray(derivs, dtype=float),
        events=tuple(knots[:-1]),
    )


def parabola_coefficients(a1: float, a2: float, eps: float, x1: float) -> tuple[float, float, float]:
    """Parabola bridging slopes a1 -> a2 over [p1-eps, p1+eps] through (p1, x1-ish).

    P(t) = A (t-p1)^2 + B (t-p1) + C matches the piecewise affine solution
    in both value and slope at the window edges: P(p1-eps) = x1 - a1 eps,
    P'(p1-eps) = a1, P'(p1+eps) = a2, P(p1+eps) = x1 + a2 eps.
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError("eps must be positive and finite")
    A = (a2 - a1) / (4.0 * eps)
    B = (a1 + a2) / 2.0
    C = (a2 - a1) * eps / 4.0 + x1
    return A, B, C


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
