"""Step-halving error estimate of a smoothed integration run."""

import numpy as np

from relaydde.numeric import integrate


def step_halving_estimate(params, smoothing, h, sol):
    """16/15 of the sup gap between sol and a rerun at half its step.

    The gap is read at sol's samples from t = 0 on and at their midpoints;
    the estimate is floored at 1e-12. For the fourth-order scheme it
    measures discretization error, as opposed to the O(delta) corner
    mismatch between the smoothed and the exact solution.
    """
    half = integrate(params, smoothing, h, sol.end_time, sol.step / 2.0)
    base = sol.times[sol.times >= 0.0]
    ts = np.unique(np.concatenate([base, 0.5 * (base[:-1] + base[1:])]))
    gap = float(np.max(np.abs(sol.values_at(ts) - half.values_at(ts))))
    return max(gap * 16.0 / 15.0, 1e-12)
