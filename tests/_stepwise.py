"""Step-by-step reference for numeric.integrate, with scalar rhs functions.

The same scheme as ``integrate``, one Python iteration per step: each rhs
value calls the scalar ``coefficient_value`` and ``nonlinearity_value``
below on a delayed value looked up through a rolling pointer, and each echo
knot is inserted as soon as its crossing is found. ``integrate`` must match
it bit for bit. The two scalar functions are the reference forms of
``numeric._coefficient_array`` and ``numeric._nonlinearity_array``, which
must also match them bit for bit, and ``coefficient_value`` without
smoothing is ``model.coefficient_value``'s sharp step. The reference
interpolates every delayed value and finds every crossing with its own
``hermite_value`` and ``crossing_time``, so it shares no interpolation or
root-finding code with ``integrate``.
"""

import bisect
import math

from relaydde.model import Profile, SmoothingSpec, switch_times, validate_geometry
from relaydde.numeric import BREAK_TOL, run_step


def coefficient_value(params, t, smoothing=SmoothingSpec()):
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


def nonlinearity_value(smoothing, x):
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


def hermite_value(values, derivs, i, u, dt):
    """The cubic Hermite interpolant at offset u of the interval of width dt
    between samples i and i + 1 of the sequences values and derivs."""
    u2 = u * u
    u3 = u2 * u
    out = (2.0 * u3 - 3.0 * u2 + 1.0) * values[i]
    out += (u3 - 2.0 * u2 + u) * dt * derivs[i]
    out += (-2.0 * u3 + 3.0 * u2) * values[i + 1]
    out += (u3 - u2) * dt * derivs[i + 1]
    return out


def crossing_time(t0, t1, x0, d0, x1, d1, level):
    """Root of the step's Hermite interpolant minus level, if it changes sign:
    the step's right end if x1 is on the level, else a bisection for a sign
    change from a nonzero x0 - level."""
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
        fm = hermite_value(xs, ds, 0, mid, dt) - level
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


def stepwise_integrate(params, smoothing, h, t_end, step=None):
    """(times, values, derivs, events, step) as integrate would store them."""
    step = run_step(params, smoothing, t_end, step)
    delta = smoothing.delta
    edges = (s + off for s, _ in switch_times(params, 0.0, t_end + delta)
             for off in (-delta, delta))
    statics = [e for e in edges if BREAK_TOL < e < t_end - BREAK_TOL]
    statics += [float(j) for j in range(1, math.ceil(t_end - BREAK_TOL))]
    knots = []
    for s in sorted(statics):
        if not knots or s - knots[-1] > BREAK_TOL:
            knots.append(s)
    knots.append(t_end)
    levels = (-delta, 0.0, delta)

    times = [-1.0, 0.0, 0.0]
    values = [h, h, h]
    derivs = [0.0, 0.0, 0.0]
    ptr = 0  # query times never decrease

    def rhs(s):
        nonlocal ptr
        q = s - 1.0
        while ptr + 2 < len(times) and times[ptr + 1] <= q:
            ptr += 1
        t0, t1 = times[ptr], times[ptr + 1]
        x = hermite_value(values, derivs, ptr, (q - t0) / (t1 - t0), t1 - t0)
        return coefficient_value(params, s, smoothing) * nonlinearity_value(smoothing, x)

    def push_echo(tau):
        knot = tau + 1.0
        if knot >= t_end - BREAK_TOL:
            return
        i = bisect.bisect_left(knots, knot)
        for nb in (i - 1, i):
            if 0 <= nb < len(knots) and abs(knots[nb] - knot) <= BREAK_TOL:
                return
        knots.insert(i, knot)

    derivs[-1] = rhs(0.0)
    t, x, g_left, ki = 0.0, h, derivs[-1], 0
    while t < t_end - BREAK_TOL:
        nb = knots[ki]
        ki += 1
        nsub = max(1, math.ceil((nb - t) / step - 1e-12))
        sub = (nb - t) / nsub
        for jj in range(nsub):
            last = jj == nsub - 1
            t0 = t + jj * sub
            t1 = nb if last else t + (jj + 1) * sub
            g_mid = rhs(t0 + 0.5 * sub)
            g_right = rhs(t1)
            x_new = x + sub * (g_left + 4.0 * g_mid + g_right) / 6.0
            for lev in levels:
                tau = crossing_time(t0, t1, x, g_left, x_new, g_right, lev)
                if tau is not None:
                    push_echo(tau)
            times.append(t1)
            values.append(x_new)
            derivs.append(g_right)
            x, g_left = x_new, g_right
        t = nb
    return times, values, derivs, tuple(knots[:-1]), step
