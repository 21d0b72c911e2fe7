"""Reference event loop for exact.propagate, in its plain form.

After the start, the same rules and the same float operations in the same
order as ``propagate``, written plainly: ``min`` of the three stop times,
the zero candidate held in ``z`` across two branches, and module-level
names.  The level at the start time is computed independently: by modulo
phase, from ``_stepwise``'s sharp step, where ``propagate`` reads it off
its own switch walk, so no level code is shared between the two.
``propagate`` must return the same knot times and values bit for bit.
Its messages predate the ones that name t, x and the params.
"""

import math

from relaydde.exact import TIME_TOL, DegenerateStall, PiecewisePath
from relaydde.model import MAX_WORK, switch_times

from _stepwise import coefficient_value


def propagate_reference(params, history, t_end, *, start_time=0.0):
    """Propagate the sharp relay equation exactly from a constant history."""
    if not math.isfinite(start_time):
        raise ValueError(f"start_time must be finite, got {start_time!r}")
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
