"""Reference for numeric.compare_exact_smoothed, over one sorted query set.

Every deviation is read through the Hermite interpolant, at the sorted and
deduplicated union of the stored samples from t = 0 on and their midpoints.
``compare_exact_smoothed`` must return the same dict, with its maxima equal
bit for bit.
"""

import numpy as np

from relaydde.exact import ConstantHistory, propagate, zeros as path_zeros
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
