"""Tests for the fourth-order integrator and smoothing comparisons."""

import math

import numpy as np
import pytest

from _halving import step_halving_estimate
from relaydde.exact import ConstantHistory, propagate, zeros
from relaydde.model import Params, Profile, SmoothingSpec
from relaydde.numeric import (
    DenseSolution,
    StepTooLarge,
    compare_exact_smoothed,
    corner_windows,
    integrate,
    one_period_multiplier,
    parabola_coefficients,
    run_step,
)


def _exact_on(params, h, ts, t_end):
    path = propagate(params, ConstantHistory(h), t_end)
    return np.interp(ts, path.times, path.values)


def test_parabola_known_values():
    A, B, C = parabola_coefficients(1.0, 6.0, 0.1, 2.0)
    assert (A, B, C) == (12.5, 3.5, 2.125)
    assert abs((A * 0.01 + B * 0.1 + C) - (2.0 + 6.0 * 0.1)) < 1e-15
    A, B, C = parabola_coefficients(3.0, 3.0, 0.2, -1.0)
    assert (A, B, C) == (0.0, 3.0, -1.0)
    with pytest.raises(ValueError):
        parabola_coefficients(1.0, 2.0, 0.0, 0.0)


def test_parabola_endpoint_identities():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a1, a2 = rng.uniform(0.1, 8.0, size=2)
        eps = rng.uniform(0.01, 0.5)
        x1 = rng.uniform(-5.0, 5.0)
        A, B, C = parabola_coefficients(a1, a2, eps, x1)
        scale = max(1.0, abs(x1), a1 * eps, a2 * eps)
        assert abs((A * eps * eps - B * eps + C) - (x1 - a1 * eps)) < 1e-12 * scale
        assert abs((A * eps * eps + B * eps + C) - (x1 + a2 * eps)) < 1e-12 * scale
        assert abs((B - 2.0 * A * eps) - a1) < 1e-12 * scale
        assert abs((B + 2.0 * A * eps) - a2) < 1e-12 * scale


def test_zero_solution_invariant():
    sol = integrate(Params(1.0, 0.25, 2.5, 1.5), SmoothingSpec(0.05), 0.0, 10.0)
    assert np.max(np.abs(sol.values)) <= 1e-12


def test_sharp_scheme_matches_exact_propagation():
    cases = [
        (Params(1.0, 0.25, 2.5, 1.5), -0.25, 12.0),
        (Params(6.0, 1.0, 1.0, 3.0), -1.8, 18.0),
        (Params(1.0, 6.0, 3.0, 1.0), -0.8, 10.0),
        (Params(4.0, 1.0, 3.5, 2.0), -2.0, 11.0),
    ]
    for params, h, t_end in cases:
        sol = integrate(params, SmoothingSpec(0.0), h, t_end)
        ts = np.linspace(0.0, t_end, 4001)
        dev = np.max(np.abs(sol.values_at(ts) - _exact_on(params, h, ts, t_end)))
        assert dev < 1e-10


def test_grid_convergence_is_fourth_order():
    params = Params(1.0, 0.25, 2.5, 1.5)
    sm = SmoothingSpec(0.4)
    s0 = 0.4 / 16.0
    ts = np.linspace(0.0, 6.0, 2001)
    ref = integrate(params, sm, -0.25, 6.0, s0 / 8.0).values_at(ts)
    e1 = np.max(np.abs(integrate(params, sm, -0.25, 6.0, s0).values_at(ts) - ref))
    e2 = np.max(np.abs(integrate(params, sm, -0.25, 6.0, s0 / 2.0).values_at(ts) - ref))
    if e2 > 1e-12:  # above the rounding floor the order must show
        assert e1 / e2 >= 8.0
    assert e2 < e1


def test_step_and_geometry_validation():
    params = Params(1.0, 0.25, 2.5, 1.5)
    with pytest.raises(StepTooLarge):
        integrate(params, SmoothingSpec(0.05), -0.25, 5.0, 0.05 / 8.0)
    with pytest.raises(StepTooLarge):
        integrate(params, SmoothingSpec(0.0), -0.25, 5.0, 2e-3)
    with pytest.raises(ValueError):
        integrate(params, SmoothingSpec(0.05), -0.25, 0.0)
    with pytest.raises(ValueError):
        integrate(params, SmoothingSpec(0.05), -0.25, 5.0, -1e-3)
    with pytest.raises(ValueError):
        integrate(params, SmoothingSpec(0.8), -0.25, 5.0)  # 2*delta >= p2
    # work beyond MAX_WORK steps is refused before it starts
    with pytest.raises(ValueError, match="above the cap 2,000,000"):
        integrate(params, SmoothingSpec(0.01), -0.25, 30.0, 1e-9)
    with pytest.raises(ValueError, match="above the cap"):
        integrate(params, SmoothingSpec(0.3), -0.25, 1e300)
    # run_step makes the same checks without a solve and returns the step
    assert run_step(params, SmoothingSpec(0.0), 5.0) == 1e-3
    assert run_step(Params(1.0, 0.25, 2.5, 1.5), SmoothingSpec(0.32), 5.0) == 1.0 / 64.0
    assert run_step(params, SmoothingSpec(0.05), 5.0) == 0.05 / 16.0
    assert run_step(params, SmoothingSpec(0.05), 5.0, 1e-3) == 1e-3
    with pytest.raises(StepTooLarge):
        run_step(params, SmoothingSpec(0.05), 5.0, 0.05 / 8.0)
    with pytest.raises(ValueError, match="overlap"):
        run_step(params, SmoothingSpec(0.8), 5.0)
    with pytest.raises(ValueError, match="above the cap 2,000,000"):
        run_step(params, SmoothingSpec(0.0125), 2000.0)


def test_long_run_settles_to_near_periodic_orbit():
    sol = integrate(Params(1.0, 0.25, 2.5, 1.5), SmoothingSpec(0.01), -0.25, 40.0)
    ts = np.linspace(20.0, 36.0, 3201)
    assert np.max(np.abs(sol.values_at(ts + 4.0) - sol.values_at(ts))) < 1e-3


def test_matched_start_reproduces_smoothed_periodic_orbit():
    # the smoothed coefficient ramp shifts the orbit value at multiples of T
    # by (a1 - a2) * delta / 4; starting from that value kills the transient
    for params, h_star, period in [
        (Params(1.0, 0.25, 2.5, 1.5), -0.25, 4.0),
        (Params(6.0, 1.0, 1.0, 3.0), -1.8, 8.0),
    ]:
        delta = 0.05
        h_d = h_star + (params.a1 - params.a2) * delta / 4.0
        sol = integrate(params, SmoothingSpec(delta), h_d, 2.0 * period + 2.0)
        ts = np.linspace(0.0, period, 801)
        res = np.max(np.abs(sol.values_at(ts + period) - sol.values_at(ts)))
        assert res < 1e-9
        assert abs(sol.value_at(period) - h_d) < 1e-9


def test_compare_exact_smoothed_matched_start():
    params = Params(1.0, 0.25, 2.5, 1.5)
    delta = 0.025
    h_d = -0.25 + (params.a1 - params.a2) * delta / 4.0
    sol = integrate(params, SmoothingSpec(delta), h_d, 30.0)
    rep = compare_exact_smoothed(params, delta, -0.25, sol)
    est = step_halving_estimate(params, SmoothingSpec(delta), h_d, sol)
    assert rep["max_dev_outside_corners"] <= 10.0 * est
    assert delta / 8.0 <= rep["max_dev_overall"] <= 2.0 * delta
    assert est >= 1e-12
    assert len(rep["corner_windows"]) > 10
    for lo, hi in rep["corner_windows"]:
        assert 0.0 <= lo < hi <= 30.0


def test_compare_degenerate_delta_zero():
    params = Params(1.0, 0.25, 2.5, 1.5)
    sol = integrate(params, SmoothingSpec(0.0), -0.25, 10.0)
    rep = compare_exact_smoothed(params, 0.0, -0.25, sol)
    assert rep["corner_windows"] == ()
    assert rep["max_dev_overall"] < 1e-10
    assert rep["max_dev_outside_corners"] == rep["max_dev_overall"]


def test_corner_endpoint_matches_exact_value():
    # outside the ramp the smoothed and exact periodic solutions coincide,
    # in particular right at the ramp edge p1 + delta
    params = Params(1.0, 0.25, 2.5, 1.5)
    delta = 0.05
    h_d = -0.25 + (params.a1 - params.a2) * delta / 4.0
    sol = integrate(params, SmoothingSpec(delta), h_d, 6.0)
    exact = propagate(params, ConstantHistory(-0.25), 6.0)
    edge = params.p1 + delta
    assert abs(sol.value_at(edge) - exact.value_at(edge)) < 1e-6


def test_odd_symmetry_of_integration():
    params = Params(2.0, 0.5, 2.5, 2.0)
    plus = integrate(params, SmoothingSpec(0.04), 0.3, 7.0)
    minus = integrate(params, SmoothingSpec(0.04), -0.3, 7.0)
    ts = np.linspace(0.0, 7.0, 1401)
    assert np.max(np.abs(plus.values_at(ts) + minus.values_at(ts))) <= 1e-12


def test_events_include_ramp_edges_and_delay_lattice():
    delta = 0.05
    sol = integrate(Params(1.0, 0.25, 2.5, 1.5), SmoothingSpec(delta), -0.25, 9.0)
    ev = np.asarray(sol.events)
    for want in (2.5 - delta, 2.5 + delta, 4.0 - delta, 4.0 + delta, 1.0, 2.0, 8.0):
        assert np.min(np.abs(ev - want)) < 1e-9


def test_smoothed_derivative_has_no_jumps():
    # away from the history junction at t=0 (a genuine kink for any delta)
    params = Params(1.0, 0.25, 2.5, 1.5)
    sharp_jump = params.a1 - params.a2  # derivative jump of the exact solution
    sol = integrate(params, SmoothingSpec(0.05), -0.25, 8.0, 0.05 / 64.0)
    inside = sol.times[:-1] > 1e-9
    assert np.max(np.abs(np.diff(sol.derivs))[inside]) <= 0.1 * sharp_jump
    rough = integrate(params, SmoothingSpec(0.0), -0.25, 8.0)
    inside = rough.times[:-1] > 1e-9
    assert np.max(np.abs(np.diff(rough.derivs))[inside]) >= 0.9 * sharp_jump


def test_multiplier_measurements():
    assert abs(one_period_multiplier(Params(1.0, 6.0, 3.0, 1.0), -0.5) - 11.0) < 1e-6
    assert abs(one_period_multiplier(Params(1.0, 5.0, 4.0, 1.0), -1.625) - 9.0) < 1e-6
    with pytest.raises(ValueError):
        one_period_multiplier(Params(1.0, 6.0, 3.0, 1.0), -0.5, 0.0)


def test_dense_solution_csv_and_lookup():
    sol = integrate(Params(1.0, 0.25, 2.5, 1.5), SmoothingSpec(0.0), -0.25, 3.0)
    with pytest.raises(ValueError):
        sol.values_at(3.5)
    with pytest.raises(ValueError):
        sol.values_at(-1.5)
    assert sol.value_at(-1.0) == -0.25
    with pytest.raises(ValueError):
        DenseSolution(0.0, 0.1, np.array([0.0, 1.0]), np.array([1.0]), np.array([1.0, 1.0]), ())


def test_smoothexp_profile_oscillates():
    sol = integrate(Params(6.0, 1.0, 1.0, 3.0),
                    SmoothingSpec(0.05, Profile.SMOOTHEXP), -1.8, 26.0)
    assert np.max(np.abs(sol.values)) < 10.0
    signs = np.sign(sol.values[sol.times >= 0.0])
    assert np.any(signs > 0) and np.any(signs < 0)
    ts = np.linspace(16.0, 18.0, 401)
    assert np.max(np.abs(sol.values_at(ts + 8.0) - sol.values_at(ts))) < 0.05


def test_corner_windows_merge_and_clip():
    params = Params(1.0, 0.25, 2.5, 1.5)
    wins = corner_windows(params, 0.1, [0.25], 5.0)
    assert wins[0][0] == 0.0  # clipped at the start
    for (lo0, hi0), (lo1, hi1) in zip(wins, wins[1:]):
        assert hi0 < lo1
    assert corner_windows(params, 0.0, [0.25], 5.0) == ()
