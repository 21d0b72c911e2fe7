"""Finite-difference multiplier of the exact one-period return map."""

import math

from relaydde.exact import ConstantHistory, propagate


def one_period_multiplier(params, h_center, eps0=1e-6):
    """Central-difference slope of the one-period return map at h_center."""
    if not (math.isfinite(eps0) and eps0 > 0.0):
        raise ValueError("eps0 must be positive and finite")
    T = params.period
    plus = propagate(params, ConstantHistory(h_center + eps0), T)
    minus = propagate(params, ConstantHistory(h_center - eps0), T)
    return (plus.values[-1] - minus.values[-1]) / (2.0 * eps0)
