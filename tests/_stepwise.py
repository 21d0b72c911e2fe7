"""Step-by-step reference for numeric.integrate.

The same scheme as ``integrate``, one Python iteration per step: each rhs
value calls the scalar ``coefficient_value`` and ``nonlinearity_value`` on a
delayed value looked up through a rolling pointer, and each echo knot is
inserted as soon as its crossing is found. ``integrate`` must match it bit
for bit.
"""

import bisect
import math

from relaydde.model import coefficient_value, nonlinearity_value, switch_times
from relaydde.numeric import BREAK_TOL, SIDE_NUDGE, _crossing_time, _hermite, run_step


def stepwise_integrate(params, smoothing, h, t_end, step=None):
    """(times, values, derivs, events, step) as integrate would store them."""
    step = run_step(params, smoothing, t_end, step)
    delta = smoothing.delta
    sharp = delta == 0.0
    offsets = (0.0,) if sharp else (-delta, delta)
    edges = (s + off for s, _ in switch_times(params, 0.0, t_end + delta) for off in offsets)
    statics = [e for e in edges if BREAK_TOL < e < t_end - BREAK_TOL]
    statics += [float(j) for j in range(1, math.ceil(t_end - BREAK_TOL))]
    knots = []
    for s in sorted(statics):
        if not knots or s - knots[-1] > BREAK_TOL:
            knots.append(s)
    knots.append(t_end)
    levels = (0.0,) if sharp else (-delta, 0.0, delta)

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
        x = _hermite((q - t0) / (t1 - t0), t1 - t0, values[ptr], derivs[ptr],
                     values[ptr + 1], derivs[ptr + 1])
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

    derivs[-1] = rhs(SIDE_NUDGE if sharp else 0.0)
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
            g_right = rhs(t1 - SIDE_NUDGE if sharp and last else t1)
            x_new = x + sub * (g_left + 4.0 * g_mid + g_right) / 6.0
            for lev in levels:
                tau = _crossing_time(t0, t1, x, g_left, x_new, g_right, lev)
                if tau is not None:
                    push_echo(tau)
            times.append(t1)
            values.append(x_new)
            derivs.append(g_right)
            x, g_left = x_new, g_right
        if sharp and nb < t_end - BREAK_TOL:
            g_left = rhs(nb + SIDE_NUDGE)
            times.append(nb)
            values.append(x)
            derivs.append(g_left)
        t = nb
    return times, values, derivs, tuple(knots[:-1]), step
