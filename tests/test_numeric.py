"""Tests for the fourth-order integrator and smoothing comparisons."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _compare import compare_reference, corner_windows_reference
from _halving import step_halving_estimate
from _multiplier import one_period_multiplier
from _stepwise import coefficient_value, nonlinearity_value, stepwise_integrate
from relaydde import model, numeric
from relaydde.exact import ConstantHistory, propagate, zeros
from relaydde.model import Params, Profile, SmoothingSpec
from relaydde.numeric import (
    DenseSolution,
    _coefficient_array,
    _nonlinearity_array,
    compare_exact_smoothed,
    corner_windows,
    integrate,
    run_step,
)


def test_zero_solution_invariant():
    sol = integrate(Params(1.0, 0.25, 2.5, 1.5), SmoothingSpec(0.05), 0.0, 10.0)
    assert np.max(np.abs(sol.values)) <= 1e-12


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
    with pytest.raises(ValueError, match="exceeds delta/16"):
        integrate(params, SmoothingSpec(0.05), -0.25, 5.0, 0.05 / 8.0)
    # the sharp model is exact.propagate's
    with pytest.raises(ValueError, match="exact.propagate"):
        integrate(params, SmoothingSpec(0.0), -0.25, 5.0)
    with pytest.raises(ValueError, match="exact.propagate"):
        run_step(params, SmoothingSpec(0.0), 5.0)
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
    assert run_step(Params(1.0, 0.25, 2.5, 1.5), SmoothingSpec(0.32), 5.0) == 1.0 / 64.0
    assert run_step(params, SmoothingSpec(0.05), 5.0) == 0.05 / 16.0
    assert run_step(params, SmoothingSpec(0.05), 5.0, 1e-3) == 1e-3
    with pytest.raises(ValueError, match="exceeds delta/16"):
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
        assert abs(sol.values_at(period) - h_d) < 1e-9


def test_compare_exact_smoothed_matched_start():
    params = Params(1.0, 0.25, 2.5, 1.5)
    delta = 0.025
    h_d = -0.25 + (params.a1 - params.a2) * delta / 4.0
    sol = integrate(params, SmoothingSpec(delta), h_d, 30.0)
    rep = compare_exact_smoothed(params, -0.25, sol)
    est = step_halving_estimate(params, SmoothingSpec(delta), h_d, sol)
    assert rep["max_dev_outside_corners"] <= 10.0 * est
    assert delta / 8.0 <= rep["max_dev_overall"] <= 2.0 * delta
    assert est >= 1e-12
    assert len(rep["corner_windows"]) > 10
    for lo, hi in rep["corner_windows"]:
        assert 0.0 <= lo < hi <= 30.0


def test_corner_endpoint_matches_exact_value():
    # outside the ramp the smoothed and exact periodic solutions coincide,
    # in particular right at the ramp edge p1 + delta
    params = Params(1.0, 0.25, 2.5, 1.5)
    delta = 0.05
    h_d = -0.25 + (params.a1 - params.a2) * delta / 4.0
    sol = integrate(params, SmoothingSpec(delta), h_d, 6.0)
    exact = propagate(params, ConstantHistory(-0.25), 6.0)
    edge = params.p1 + delta
    assert abs(sol.values_at(edge) - exact.value_at(edge)) < 1e-6


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
    # the sharp solution's slope a(t) f(x(t-1)) jumps by that much at a switch
    rough = propagate(params, ConstantHistory(-0.25), 8.0)
    slopes = np.diff(rough.values) / np.diff(rough.times)
    assert np.max(np.abs(np.diff(slopes))) >= 0.9 * sharp_jump


def test_multiplier_measurements():
    assert abs(one_period_multiplier(Params(1.0, 6.0, 3.0, 1.0), -0.5) - 11.0) < 1e-6
    assert abs(one_period_multiplier(Params(1.0, 5.0, 4.0, 1.0), -1.625) - 9.0) < 1e-6
    with pytest.raises(ValueError):
        one_period_multiplier(Params(1.0, 6.0, 3.0, 1.0), -0.5, 0.0)


def test_dense_solution_csv_and_lookup():
    sol = integrate(Params(1.0, 0.25, 2.5, 1.5), SmoothingSpec(0.05), -0.25, 3.0)
    with pytest.raises(ValueError):
        sol.values_at(3.5)
    with pytest.raises(ValueError):
        sol.values_at(-1.5)
    assert sol.values_at(-1.0) == -0.25
    with pytest.raises(ValueError):
        DenseSolution(0.0, 0.1, np.array([0.0, 1.0]), np.array([1.0]), np.array([1.0, 1.0]), (),
                      SmoothingSpec(0.05))


def test_compare_reads_the_half_width_of_the_solution():
    params = Params(1.0, 0.25, 2.5, 1.5)
    spec = SmoothingSpec(0.05, Profile.SMOOTHEXP)
    sol = integrate(params, spec, -0.25, 10.0)
    assert sol.smoothing == spec
    exact_zeros = zeros(propagate(params, ConstantHistory(-0.25), sol.end_time))
    rep = compare_exact_smoothed(params, -0.25, sol)
    assert rep["corner_windows"] == corner_windows(params, 0.05, exact_zeros, sol.end_time)
    assert rep["corner_windows"]


def test_values_at_refuses_nan():
    sol = integrate(Params(1.0, 0.25, 2.5, 1.5), SmoothingSpec(0.05), -0.25, 3.0)
    for ts in (float("nan"), [0.5, float("nan")]):
        with pytest.raises(ValueError, match="outside the stored range"):
            sol.values_at(ts)


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


def test_corner_windows_do_not_scale_with_the_half_width_over_the_level():
    # delta / a2 is inf here: listing switches up to t_end + eps never ended
    assert corner_windows(Params(1e6, 5e-324, 5.86, 1.6), 0.05, (), 3.0) == ((0.0, 3.0),)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.floats(0.01, 10.0), st.floats(0.01, 10.0), st.floats(0.1, 5.0), st.floats(0.1, 5.0),
       st.floats(1e-3, 0.999), st.lists(st.floats(-5.0, 45.0), max_size=12),
       st.floats(0.05, 40.0))
def test_property_corner_windows_match_the_unbounded_reference(a1, a2, p1, p2, delta,
                                                               zero_times, t_end):
    # eps = delta / min(a1, a2) runs from 1e-4 to about 100, below and above T
    params = Params(a1, a2, p1, max(p2, 1.001 - p1))
    assert (corner_windows(params, delta, zero_times, t_end)
            == corner_windows_reference(params, delta, zero_times, t_end))


@st.composite
def ramp_points(draw):
    """(params, smoothing, times, states): times at and one ulp around every
    ramp edge and switch time of a few periods, plus arbitrary ones; states
    at, around and inside the nonlinearity's window [-delta, delta]."""
    a1, a2 = draw(st.floats(0.1, 10.0)), draw(st.floats(0.1, 10.0))
    p1 = draw(st.floats(0.1, 5.0))
    p2 = draw(st.floats(max(0.1, 1.0 - p1 + 1e-3), 5.0))
    params = Params(a1, a2, p1, p2)
    delta = draw(st.floats(1e-4, min(0.999, 0.499 * min(p1, p2))))
    smoothing = SmoothingSpec(delta, draw(st.sampled_from(tuple(Profile))))
    T = params.period
    edges = [k * T + s + off for k in range(-1, 4) for s in (0.0, p1)
             for off in (-delta, 0.0, delta)]
    edges += draw(st.lists(st.floats(-1.0, 40.0), max_size=20))
    times = edges + [float(np.nextafter(e, side)) for e in edges for side in (-np.inf, np.inf)]
    window = [delta, -delta, 0.0, -0.0, 0.5 * delta, 1e300, -1e300]
    window += draw(st.lists(st.floats(-2.0 * delta - 1.0, 2.0 * delta + 1.0), max_size=20))
    window += [delta * draw(st.floats(-1.0, 1.0)) for _ in range(10)]
    states = window + [float(np.nextafter(x, side)) for x in window[:2]
                       for side in (-np.inf, np.inf)]
    return params, smoothing, times, states


@settings(derandomize=True, max_examples=300, deadline=None)
@given(ramp_points())
def test_property_array_rhs_matches_the_scalar_functions(case):
    params, smoothing, times, states = case
    want = np.array([coefficient_value(params, t, smoothing) for t in times])
    got = _coefficient_array(params, smoothing, np.array(times))
    assert got.tobytes() == want.tobytes()
    want = np.array([nonlinearity_value(smoothing, x) for x in states])
    got = _nonlinearity_array(smoothing, np.array(states))
    assert got.tobytes() == want.tobytes()


@st.composite
def integrate_runs(draw):
    """(params, smoothing, h, t_end, step) of at most about 3,000 steps."""
    a1, a2 = draw(st.floats(0.1, 10.0)), draw(st.floats(0.1, 10.0))
    p1 = draw(st.floats(0.1, 5.0))
    p2 = draw(st.floats(max(0.1, 1.0 - p1 + 1e-3), 5.0))
    widest = min(0.999, 0.499 * min(p1, p2))
    delta = draw(st.sampled_from((widest, None)))
    if delta is None:
        delta = widest * draw(st.floats(0.05, 1.0))
    smoothing = SmoothingSpec(delta, draw(st.sampled_from(tuple(Profile))))
    step = run_step(Params(a1, a2, p1, p2), smoothing, 1.0)
    step *= draw(st.sampled_from((1.0, 1.0, 0.5, 0.37)))
    h = draw(st.sampled_from((0.0, -0.25, None)))
    if h is None:
        h = draw(st.floats(-5.0, 5.0))
    t_end = min(draw(st.sampled_from((1.0, 2.0, 7.0, None))) or draw(st.floats(0.3, 12.0)),
                3000.0 * step)
    return Params(a1, a2, p1, p2), smoothing, h, t_end, step


def _assert_matches_the_stepwise_reference(sol, run):
    times, values, derivs, events, step = stepwise_integrate(*run)
    assert sol.times.tobytes() == np.array(times).tobytes()
    assert sol.values.tobytes() == np.array(values).tobytes()
    assert sol.derivs.tobytes() == np.array(derivs).tobytes()
    assert (sol.events, sol.step) == (events, step)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(integrate_runs())
def test_property_integrate_matches_the_stepwise_reference(run):
    _assert_matches_the_stepwise_reference(integrate(*run), run)


def test_integrate_grows_its_buffer_and_matches_the_stepwise_reference():
    # from h = 0 the state sits on the level 0 at every step, so echo knots
    # outnumber the static ones and the run outgrows the samples integrate
    # reserves up front: one per step, one per static knot (at most two ramp
    # edges per switch, the integer lattice and t_end) and 16 spare
    run = (Params(1.0, 0.25, 2.5, 1.5), SmoothingSpec(0.05), 0.0, 35.0)
    sol = integrate(*run)
    params, smoothing, _, t_end = run
    switches = list(model.switch_times(params, 0.0, t_end + smoothing.delta))
    reserved = math.ceil(t_end / sol.step) + 2 * len(switches) + math.ceil(t_end) + 17
    assert len(sol.times) > reserved
    _assert_matches_the_stepwise_reference(sol, run)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(integrate_runs().filter(lambda run: run[2] != 0.0))
def test_property_compare_matches_the_reference(run):
    params, _, h, _, _ = run
    sol = integrate(*run)
    got, want = compare_exact_smoothed(params, h, sol), compare_reference(params, h, sol)
    assert got.keys() == want.keys()
    for key in ("max_dev_outside_corners", "max_dev_overall"):
        assert got[key].hex() == want[key].hex()
    assert got["corner_windows"] == want["corner_windows"]


@pytest.mark.parametrize("profile", tuple(Profile))
@pytest.mark.parametrize("t_end", (6.0, 6.37))
def test_values_at_returns_the_stored_values_at_the_stored_times(profile, t_end):
    sol = integrate(Params(1.0, 0.25, 2.5, 1.5), SmoothingSpec(0.05, profile), 0.6, t_end)
    assert (t_end / sol.step).is_integer() == (t_end == 6.0)  # 6.37 is off the step grid
    assert sol.times[1] == sol.times[2] == 0.0  # the history junction's two copies
    keep = sol.times >= 0.0
    assert sol.values_at(sol.times[keep]).tobytes() == sol.values[keep].tobytes()
    assert sol.values_at(sol.end_time) == sol.values[-1]


def test_integrate_checks_the_geometry_once(monkeypatch):
    callers = []
    check = model.validate_geometry

    def counted(params, smoothing):
        callers.append(sys._getframe(1).f_code.co_name)
        check(params, smoothing)

    monkeypatch.setattr(model, "validate_geometry", counted)
    monkeypatch.setattr(numeric, "validate_geometry", counted)
    integrate(Params(1.0, 0.25, 2.5, 1.5), SmoothingSpec(0.05), -0.25, 10.0)
    assert callers == ["run_step"]


def test_values_at_peak_memory():
    sol = integrate(Params(1.0, 0.25, 2.5, 1.5), SmoothingSpec(0.0125), -0.25, 30.0)
    base = sol.times[sol.times >= 0.0]
    ts = np.unique(np.concatenate([base, 0.5 * (base[:-1] + base[1:])]))
    tracemalloc.start()
    try:
        sol.values_at(ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 72 bytes a point; clipping every query took 80, and gathering all four
    # Hermite operands before the sum took 105
    assert peak < 76 * len(ts)
