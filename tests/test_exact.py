"""Tests for the event-driven exact propagation engine."""

import bisect
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relaydde.exact import (
    ConstantHistory,
    PiecewisePath,
    is_slowly_oscillating,
    path_sup_distance,
    propagate,
    zeros,
)
from relaydde.model import Params, coefficient_value

from _euler import euler_reference


def _type1_mb(params):
    # one-period affine return map x(T) = m*h - b for the two-zero window
    m = 2.0 * params.a2 / params.a1 - 1.0
    b = params.a1 * (params.p1 - 2.0) + params.a2 * (6.0 - (2.0 * params.p1 + params.p2))
    return m, b

def _type2_kd(params):
    # half-period branch map x(T) = k*h + d for h < 0 with one zero per period
    k = 1.0 - 2.0 * params.a2 / params.a1
    d = params.a1 * params.p1 + params.a2 * (2.0 - 2.0 * params.p1 - params.p2)
    return k, d


def test_history_validation():
    assert ConstantHistory(-0.25).h == -0.25
    with pytest.raises(ValueError):
        ConstantHistory(0.0)
    with pytest.raises(ValueError):
        ConstantHistory(math.inf)
    with pytest.raises(ValueError):
        ConstantHistory(math.nan)


def test_path_validation():
    with pytest.raises(ValueError):
        PiecewisePath(0.0, (0.0,), (1.0,))
    with pytest.raises(ValueError):
        PiecewisePath(0.0, (0.0, 1.0), (1.0,))
    with pytest.raises(ValueError):
        PiecewisePath(0.0, (0.0, 1.0, 1.0), (1.0, 2.0, 3.0))


def test_propagate_rejects_bad_horizon():
    params = Params(1.0, 0.25, 2.5, 1.5)
    with pytest.raises(ValueError):
        propagate(params, ConstantHistory(-0.25), 0.0)
    with pytest.raises(ValueError):
        propagate(params, ConstantHistory(-0.25), math.inf)
    # the event budget, 1000 + span * (4 + 8 / min(p1, p2, 1)), is checked
    # against the 2,000,000 cap before the first event
    with pytest.raises(ValueError, match="above the cap 2,000,000"):
        propagate(params, ConstantHistory(-0.25), 1e300)
    with pytest.raises(ValueError, match="above the cap"):
        propagate(params, ConstantHistory(-0.25), 166_584.0)
    assert propagate(params, ConstantHistory(-0.25), 16_000.0).end_time == 16_000.0


def test_known_periodic_orbit_two_zero():
    # h = -0.25 is the fixed point of x(T) = m*h - b for these parameters;
    # first zero at -h/a1, second two delay units later, exact closure at T
    params = Params(1.0, 0.25, 2.5, 1.5)
    path = propagate(params, ConstantHistory(-0.25), 4.0)
    assert path.end_time == 4.0
    assert abs(path.end_value + 0.25) < 1e-12
    zs = zeros(path)
    assert len(zs) == 2
    assert abs(zs[0] - 0.25) < 1e-12
    assert abs(zs[1] - 2.25) < 1e-12
    assert is_slowly_oscillating(path)


def test_known_periodic_orbit_steep():
    params = Params(1.0, 6.0, 3.0, 1.0)
    path = propagate(params, ConstantHistory(-0.5), 4.0)
    assert abs(path.end_value + 0.5) < 1e-12
    zs = zeros(path)
    assert len(zs) == 2
    assert abs(zs[0] - 0.5) < 1e-12
    assert abs(zs[1] - 2.5) < 1e-12


def test_constant_coefficient_square_wave():
    # equal levels reduce to the classical relay cycle: zeros at odd times,
    # extrema +-a at even times, period 4
    a = 1.7
    params = Params(a, a, 2.0, 1.0)
    path = propagate(params, ConstantHistory(-a), 8.5)
    zs = zeros(path)
    assert np.allclose(zs, [1.0, 3.0, 5.0, 7.0], atol=1e-12)
    assert abs(path.value_at(2.0) - a) < 1e-12
    assert abs(path.value_at(4.0) + a) < 1e-12
    assert abs(path.value_at(8.0) + a) < 1e-12


def test_coincident_flip_and_switch():
    # for these parameters the second feedback flip lands exactly on the
    # coefficient switch at p1 = 3.5; the orbit still closes exactly
    params = Params(4.0, 1.0, 3.5, 2.0)
    path = propagate(params, ConstantHistory(-2.0), 5.5)
    assert abs(path.end_value + 2.0) < 1e-12
    zs = zeros(path)
    assert len(zs) == 2
    assert abs(zs[0] - 0.5) < 1e-12
    assert abs(zs[1] - 2.5) < 1e-12
    assert abs(path.value_at(3.5) + 4.0) < 1e-12


def test_start_time_sets_coefficient_phase():
    # starting at t = p1 the active level is a2, so the first zero sits at
    # start + |h|/a2
    params = Params(1.0, 6.0, 3.0, 1.0)
    path = propagate(params, ConstantHistory(-1.0), 6.0, start_time=3.0)
    zs = zeros(path)
    assert abs(zs[0] - (3.0 + 1.0 / 6.0)) < 1e-12


def test_odd_symmetry_of_propagation():
    rng = np.random.default_rng(20240819)
    for _ in range(6):
        a1, a2 = rng.uniform(0.3, 6.0, size=2)
        p1, p2 = rng.uniform(0.6, 3.5, size=2)
        if p1 + p2 <= 1.05:
            p2 += 1.0
        h = rng.uniform(0.2, 2.5) * rng.choice([-1.0, 1.0])
        params = Params(a1, a2, p1, p2)
        t_end = 2.0 * params.period
        plus = propagate(params, ConstantHistory(h), t_end)
        minus = propagate(params, ConstantHistory(-h), t_end)
        assert plus.times == minus.times
        assert np.allclose(plus.values, [-v for v in minus.values], atol=1e-12)


def test_segment_slopes_match_coefficient():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a1, a2 = rng.uniform(0.3, 6.0, size=2)
        p1, p2 = rng.uniform(0.6, 3.5, size=2)
        if p1 + p2 <= 1.05:
            p2 += 1.0
        params = Params(a1, a2, p1, p2)
        h = -rng.uniform(0.2, 2.5)
        path = propagate(params, ConstantHistory(h), 3.0 * params.period)
        for t0, t1, x0, x1 in path.segments():
            slope = (x1 - x0) / (t1 - t0)
            a_mid = coefficient_value(params, (t0 + t1) / 2.0)
            assert abs(abs(slope) - a_mid) < 1e-9 * max(1.0, a_mid)


def test_agrees_with_euler_reference():
    cases = [
        (1.0, 0.25, 2.5, 1.5, -0.8),
        (2.0, 7.0, 3.0, 2.0, -1.1),
        (6.0, 1.0, 1.0, 3.0, -1.8),
        (0.5, 5.0, 4.0, 0.5, 1.3),
    ]
    for a1, a2, p1, p2, h in cases:
        params = Params(a1, a2, p1, p2)
        t_end = 2.0 * params.period
        path = propagate(params, ConstantHistory(h), t_end)
        t, x = euler_reference(a1, a2, p1, p2, h, t_end, dt=1e-4)
        keep = t <= path.end_time
        exact = np.array([path.value_at(s) for s in t[keep]])
        assert np.max(np.abs(exact - x[keep])) < 5e-3


def test_one_period_map_matches_two_zero_formula():
    # engine output against the affine return map, well inside the window
    # where the orbit has two zeros per period
    for a1, a2, p1, p2, hs in [
        (1.0, 0.25, 2.5, 1.5, (-0.45, -0.3, -0.25, -0.1)),
        (1.0, 6.0, 3.0, 1.0, (-0.8, -0.6, -0.5)),
        (2.0, 0.5, 2.5, 2.0, (-0.5, -1.0 / 3.0, -0.2)),
    ]:
        params = Params(a1, a2, p1, p2)
        m, b = _type1_mb(params)
        for h in hs:
            path = propagate(params, ConstantHistory(h), params.period)
            want = m * h - b
            assert abs(path.end_value - want) < 1e-9 * max(1.0, abs(want))
            assert len(zeros(path)) == 2


def test_one_period_map_matches_one_zero_formula():
    # single crossing per period: x(T) = k*h + d for h < 0, and the
    # composition over two periods contracts with factor k**2
    params = Params(6.0, 1.0, 1.0, 3.0)
    k, d = _type2_kd(params)
    for h in (-2.4, -1.8, -1.0):
        one = propagate(params, ConstantHistory(h), params.period)
        want = k * h + d
        assert abs(one.end_value - want) < 1e-9 * max(1.0, abs(want))
        two = propagate(params, ConstantHistory(h), 2.0 * params.period)
        want2 = k * k * h + (k - 1.0) * d
        assert abs(two.end_value - want2) < 1e-9 * max(1.0, abs(want2))


def test_zeros_interpolation_and_merge():
    path = PiecewisePath(0.0, (0.0, 1.0, 2.0, 3.0), (-1.0, 1.0, 0.0, -1.0))
    zs = zeros(path)
    assert np.allclose(zs, [0.5, 2.0], atol=1e-15)


def test_slow_oscillation_predicate():
    fast = PiecewisePath(0.0, (0.0, 1.0, 1.4, 1.8, 3.0), (-1.0, 0.0, 0.4, 0.0, -1.2))
    assert not is_slowly_oscillating(fast)
    flat = PiecewisePath(0.0, (0.0, 5.0), (1.0, 2.0))
    assert is_slowly_oscillating(flat)


def test_value_at_bounds():
    path = PiecewisePath(0.0, (0.0, 2.0), (0.0, 4.0))
    assert path.value_at(0.5) == 1.0
    with pytest.raises(ValueError):
        path.value_at(-0.1)
    with pytest.raises(ValueError):
        path.value_at(2.1)


def test_path_serialization_round_trip():
    params = Params(1.0, 0.25, 2.5, 1.5)
    path = propagate(params, ConstantHistory(-0.25), 4.0)
    blob = json.loads(json.dumps(path.to_jsonable()))
    assert [tuple(bp) for bp in blob["breakpoints"]] == list(path.breakpoints)
    assert blob["start_time"] == 0.0
    assert blob["breakpoints"][0] == [0.0, -0.25]
    assert blob["zeros"] == zeros(path)
    assert len(blob["segments"]) == len(path.times) - 1
    assert path.breakpoints[0] == (0.0, -0.25)


def test_path_sup_distance_exact():
    p = PiecewisePath(0.0, (0.0, 2.0), (0.0, 2.0))
    q = PiecewisePath(0.0, (0.0, 1.0, 2.0), (0.0, 2.0, 2.0))
    # difference peaks at the interior knot of q
    assert abs(path_sup_distance(p, q) - 1.0) < 1e-15
    with pytest.raises(ValueError):
        path_sup_distance(p, q, 3.0, 4.0)


# --- properties over random runs ---------------------------------------------

PROPERTY_RUNS = settings(derandomize=True, max_examples=500, deadline=None)
levels = st.floats(0.1, 10.0)
stretches = st.floats(0.1, 5.0)


@st.composite
def runs(draw):
    """(params, h, start_time, t_end): start_time is 0, p1 or arbitrary."""
    a1, a2, p1 = draw(levels), draw(levels), draw(stretches)
    p2 = draw(st.floats(max(0.1, 1.0 - p1 + 1e-3), 5.0))
    params = Params(a1, a2, p1, p2)
    h = draw(st.floats(1e-3, 10.0)) * draw(st.sampled_from((-1.0, 1.0)))
    start = draw(st.sampled_from((0.0, p1, None)))
    if start is None:
        start = draw(st.floats(-50.0, 50.0))
    return params, h, start, start + draw(st.floats(0.5, 8.0)) * params.period


@PROPERTY_RUNS
@given(runs())
def test_property_odd_symmetry(run):
    params, h, start, t_end = run
    plus = propagate(params, ConstantHistory(h), t_end, start_time=start)
    minus = propagate(params, ConstantHistory(-h), t_end, start_time=start)
    assert plus.times == minus.times
    assert plus.values == tuple(-v for v in minus.values)


@PROPERTY_RUNS
@given(runs())
def test_property_zeros_stay_more_than_a_delay_apart(run):
    params, h, start, t_end = run
    zs = zeros(propagate(params, ConstantHistory(h), t_end, start_time=start))
    assert all(b - a > 1.0 for a, b in zip(zs, zs[1:]))


@PROPERTY_RUNS
@given(runs())
def test_property_every_switch_time_is_a_knot(run):
    params, h, start, t_end = run
    path = propagate(params, ConstantHistory(h), t_end, start_time=start)
    T = params.period
    k = math.floor(start / T)
    inside = []
    while k * T < t_end:
        inside += [s for s in (k * T, k * T + params.p1) if start < s < t_end]
        k += 1
    for s in inside:
        i = bisect.bisect_left(path.times, s)
        near = path.times[max(i - 1, 0):i + 1]
        assert min(abs(s - t) for t in near) <= 1e-9, s
