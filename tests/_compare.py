"""References for numeric.compare_exact_smoothed and numeric.corner_windows.

compare_reference reads every deviation through the Hermite interpolant, at
the sorted and deduplicated union of the stored samples from t = 0 on and
their midpoints. ``compare_exact_smoothed`` must return the same dict, with
its maxima equal bit for bit.

corner_windows_reference lists every switch up to t_end + eps, however far
that is; ``corner_windows`` must return the same windows.
"""

import numpy as np

from relaydde.exact import ConstantHistory, propagate, zeros as path_zeros
from relaydde.model import switch_times
from relaydde.numeric import corner_windows


def compare_reference(params, h, sol):
    """Sup-norm deviation between the exact solution and a smoothed one."""
    t_end = sol.end_time
    exact_path = propagate(params, ConstantHistory(h), t_end)

    keep = sol.times >= 0.0
    base_ts = sol.times[keep]
    mids = 0.5 * (base_ts[:-1] + base_ts[1:])
    ts = np.unique(np.concatenate([base_ts, mids]))

    xe = np.interp(ts, exact_path.times, exact_path.values)
    dev = np.abs(sol.values_at(ts) - xe)

    windows = corner_windows(params, sol.smoothing.delta, path_zeros(exact_path), t_end)
    outside = np.ones(len(ts), dtype=bool)
    for lo, hi in windows:
        outside &= ~((ts >= lo) & (ts <= hi))

    return {
        "max_dev_outside_corners": float(dev[outside].max()) if outside.any() else 0.0,
        "max_dev_overall": float(dev.max()),
        "corner_windows": windows,
    }


def corner_windows_reference(params, delta, zero_times, t_end):
    """Merged corner windows of half-width delta/min(a1,a2), clipped to [0, t_end]."""
    eps = delta / min(params.a1, params.a2)
    centers = [s for s, _ in switch_times(params, 0.0, t_end + eps)]
    for z in zero_times:
        c = z + 1.0
        if -eps <= c <= t_end + eps:
            centers.append(c)
    centers.sort()
    merged = []
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
