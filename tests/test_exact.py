"""Tests for the event-driven exact propagation engine."""

import bisect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relaydde import exact as exact_module
from relaydde.analysis import scan
from relaydde.exact import (
    ConstantHistory,
    DegenerateStall,
    PiecewisePath,
    _event_loop,
    path_sup_distance,
    propagate,
    zeros,
)
from relaydde.maps import classify
from relaydde.model import Params, coefficient_value
from relaydde.tables import ROWS

from _euler import euler_reference
from _events import propagate_reference


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
    assert propagate(params, ConstantHistory(-0.25), 16_000.0).times[-1] == 16_000.0


def test_propagate_rejects_non_finite_start_time():
    params = Params(1.0, 0.25, 2.5, 1.5)
    for start in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="start_time must be finite"):
            propagate(params, ConstantHistory(-0.25), 5.0, start_time=start)


def test_known_periodic_orbit_two_zero():
    # h = -0.25 is the fixed point of x(T) = m*h - b for these parameters;
    # first zero at -h/a1, second two delay units later, exact closure at T
    params = Params(1.0, 0.25, 2.5, 1.5)
    path = propagate(params, ConstantHistory(-0.25), 4.0)
    assert path.times[-1] == 4.0
    assert abs(path.values[-1] + 0.25) < 1e-12
    zs = zeros(path)
    assert len(zs) == 2
    assert abs(zs[0] - 0.25) < 1e-12
    assert abs(zs[1] - 2.25) < 1e-12


def test_known_periodic_orbit_steep():
    params = Params(1.0, 6.0, 3.0, 1.0)
    path = propagate(params, ConstantHistory(-0.5), 4.0)
    assert abs(path.values[-1] + 0.5) < 1e-12
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
    assert abs(path.values[-1] + 2.0) < 1e-12
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
        ts, xs = path.times, path.values
        for t0, t1, x0, x1 in zip(ts, ts[1:], xs, xs[1:]):
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
        keep = t <= path.times[-1]
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
            assert abs(path.values[-1] - want) < 1e-9 * max(1.0, abs(want))
            assert len(zeros(path)) == 2


def test_one_period_map_matches_one_zero_formula():
    # single crossing per period: x(T) = k*h + d for h < 0, and the
    # composition over two periods contracts with factor k**2
    params = Params(6.0, 1.0, 1.0, 3.0)
    k, d = _type2_kd(params)
    for h in (-2.4, -1.8, -1.0):
        one = propagate(params, ConstantHistory(h), params.period)
        want = k * h + d
        assert abs(one.values[-1] - want) < 1e-9 * max(1.0, abs(want))
        two = propagate(params, ConstantHistory(h), 2.0 * params.period)
        want2 = k * k * h + (k - 1.0) * d
        assert abs(two.values[-1] - want2) < 1e-9 * max(1.0, abs(want2))


def test_zeros_interpolation_and_merge():
    path = PiecewisePath(0.0, (0.0, 1.0, 2.0, 3.0), (-1.0, 1.0, 0.0, -1.0))
    zs = zeros(path)
    assert np.allclose(zs, [0.5, 2.0], atol=1e-15)


def test_value_at_bounds():
    path = PiecewisePath(0.0, (0.0, 2.0), (0.0, 4.0))
    assert path.value_at(0.5) == 1.0
    with pytest.raises(ValueError):
        path.value_at(-0.1)
    with pytest.raises(ValueError):
        path.value_at(2.1)


def test_value_at_refuses_nan():
    path = PiecewisePath(0.0, (0.0, 2.0), (0.0, 4.0))
    with pytest.raises(ValueError, match="outside path range"):
        path.value_at(float("nan"))


def test_path_sup_distance_exact():
    p = PiecewisePath(0.0, (0.0, 2.0), (0.0, 2.0))
    q = PiecewisePath(0.0, (0.0, 1.0, 2.0), (0.0, 2.0, 2.0))
    # difference peaks at the interior knot of q
    assert abs(path_sup_distance(p, q, 0.0, 2.0) - 1.0) < 1e-15
    with pytest.raises(ValueError):
        path_sup_distance(p, q, 3.0, 4.0)


def test_path_sup_distance_refuses_an_empty_window():
    p = PiecewisePath(0.0, (0.0, 2.0), (0.0, 2.0))
    for t0, t1 in ((2.0, 2.0), (1.5, 0.5)):
        with pytest.raises(ValueError, match="do not overlap on a nontrivial interval"):
            path_sup_distance(p, p, t0, t1)


# --- properties over random runs ---------------------------------------------

PROPERTY_RUNS = settings(derandomize=True, max_examples=500, deadline=None)
levels = st.floats(0.1, 10.0)
stretches = st.floats(0.1, 5.0)


def _ulps(x, n):
    """x moved by n ulp, up for n > 0 and down for n < 0."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


@st.composite
def runs(draw):
    """(params, h, start_time, t_end): start_time is 0, p1, arbitrary, or a
    few ulp from a switch k*T or k*T + p1, where the switch schedule's
    one-period lookback decides which switch comes first; t_end lies half a
    period to eight periods later, or a few ulp from a switch, where the
    walk must not pass a switch past t_end."""
    a1, a2, p1 = draw(levels), draw(levels), draw(stretches)
    p2 = draw(st.floats(max(0.1, 1.0 - p1 + 1e-3), 5.0))
    params = Params(a1, a2, p1, p2)
    T = params.period
    h = draw(st.floats(1e-3, 10.0)) * draw(st.sampled_from((-1.0, 1.0)))
    start = draw(st.sampled_from((0.0, p1, None, "switch")))
    if start is None:
        start = draw(st.floats(-50.0, 50.0))
    elif start == "switch":
        start = draw(st.integers(-10, 10)) * T + draw(st.sampled_from((0.0, p1)))
        start = _ulps(start, draw(st.integers(-4, 4)))
    if draw(st.booleans()):
        k = math.floor(start / T) + draw(st.integers(2, 8))
        return params, h, start, _ulps(k * T + draw(st.sampled_from((0.0, p1))),
                                       draw(st.integers(-4, 4)))
    return params, h, start, start + draw(st.floats(0.5, 8.0)) * T


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


@PROPERTY_RUNS
@given(runs())
def test_property_propagate_matches_the_reference_loop(run):
    params, h, start, t_end = run
    path = propagate(params, ConstantHistory(h), t_end, start_time=start)
    ref = propagate_reference(params, ConstantHistory(h), t_end, start_time=start)
    assert path.times == ref.times
    assert path.values == ref.values


def test_zero_rounding_onto_the_current_knot_stalls_with_its_place():
    # at t = p1 the level jumps to a2 ~ 9e7 with x ~ 1.8e-8: the closed-form
    # zero t + 2e-16 rounds back onto t, so no strictly later knot exists
    params = Params(6.80590627692909e-08, 89821109.01055714,
                    3.0579782907825916, 2.5215713441926413)
    with pytest.raises(DegenerateStall) as info:
        propagate(params, ConstantHistory(-8.975383932745474e-08), params.period)
    msg = str(info.value)
    assert "does not lie after the current event" in msg
    assert f"at t = {params.p1!r}, x = " in msg and msg.endswith(f"at {params}")


# --- the event loop's own zero list ------------------------------------------


@PROPERTY_RUNS
@given(runs())
def test_property_event_loop_knots_and_zeros_match_the_reference(run):
    params, h, start, t_end = run
    times, values, zs = _event_loop(params, h, t_end, start)
    ref = propagate_reference(params, ConstantHistory(h), t_end, start_time=start)
    assert tuple(times) == ref.times
    assert tuple(values) == ref.values
    assert zs == zeros(ref)


@st.composite
def far_runs(draw):
    """runs()' levels and stretches, with start_time within 4 ulp of k*T or
    k*T + p1 for |k| log-uniform in [1e4, 1e6], where ulp(start_time) passes
    TIME_TOL as T > 1, and t_end half a period to four periods later."""
    a1, a2, p1 = draw(levels), draw(levels), draw(stretches)
    p2 = draw(st.floats(max(0.1, 1.0 - p1 + 1e-3), 5.0))
    params = Params(a1, a2, p1, p2)
    T = params.period
    h = draw(st.floats(1e-3, 10.0)) * draw(st.sampled_from((-1.0, 1.0)))
    k = round(10.0 ** draw(st.floats(4.0, 6.0))) * draw(st.sampled_from((-1, 1)))
    start = k * T + draw(st.sampled_from((0.0, p1)))
    start = _ulps(start, draw(st.integers(-4, 4)))
    return params, h, start, start + draw(st.floats(0.5, 4.0)) * T


@settings(derandomize=True, max_examples=300, deadline=None)
@given(far_runs())
def test_property_event_loop_matches_the_reference_far_from_time_zero(run):
    # the loop reads its start level off its switch walk, the reference by
    # modulo phase; far from 0 the two see k*T rounded, and must still agree
    params, h, start, t_end = run
    times, values, zs = _event_loop(params, h, t_end, start)
    ref = propagate_reference(params, ConstantHistory(h), t_end, start_time=start)
    assert (tuple(times), tuple(values)) == (ref.times, ref.values)
    assert zs == zeros(ref)


@st.composite
def extreme_runs(draw):
    """runs() with levels and history log-uniform in 10^[-8, 8]."""
    a1, a2 = (10.0 ** draw(st.floats(-8.0, 8.0)) for _ in range(2))
    p1 = draw(stretches)
    p2 = draw(st.floats(max(0.1, 1.0 - p1 + 1e-3), 5.0))
    params = Params(a1, a2, p1, p2)
    h = 10.0 ** draw(st.floats(-8.0, 8.0)) * draw(st.sampled_from((-1.0, 1.0)))
    start = draw(st.sampled_from((0.0, p1, None)))
    if start is None:
        start = draw(st.floats(-50.0, 50.0))
    return params, h, start, start + draw(st.floats(0.5, 8.0)) * params.period


@settings(derandomize=True, max_examples=300, deadline=None)
@given(extreme_runs())
def test_property_event_loop_zeros_at_extreme_level_ratios(run):
    params, h, start, t_end = run
    try:
        ref = propagate_reference(params, ConstantHistory(h), t_end, start_time=start)
    except (ValueError, DegenerateStall):  # a knot-order error there is a stall here
        with pytest.raises(DegenerateStall):
            _event_loop(params, h, t_end, start)
        return
    times, values, zs = _event_loop(params, h, t_end, start)
    assert (tuple(times), tuple(values)) == (ref.times, ref.values)
    assert zs == zeros(ref)


def test_a_zero_knot_moved_onto_t_end_moves_in_the_zero_list():
    # the zero at t = 1 lands on the switch at p1 = 1, within TIME_TOL of
    # t_end, and the last knot is moved onto t_end
    t_end = 1.0 + 5e-13
    times, values, zs = _event_loop(Params(1.0, 1.0, 1.0, 1.0), -1.0, t_end, 0.0)
    assert (times, values) == ([0.0, t_end], [-1.0, 0.0])
    assert zs == [t_end]


def _counting_zeros(monkeypatch):
    calls = []
    real = exact_module.zeros

    def counting(path):
        calls.append(path)
        return real(path)

    monkeypatch.setattr(exact_module, "zeros", counting)
    return calls


def test_rounding_onto_zero_falls_back_to_zeros(monkeypatch):
    # h = -fl(a1 * p1): the closed-form zero fl(-h / a1) lies 7e-12 after the
    # switch at p1, but x(p1) = h + fl(a1 * p1) is exactly 0.0
    a1, p1 = 1.2593540143280078, 61716.548052334816
    params, h, t_end = Params(a1, 3.0, p1, 1.0), -(a1 * p1), p1 + 0.5
    calls = _counting_zeros(monkeypatch)
    times, values, zs = _event_loop(params, h, t_end, 0.0)
    assert values[1] == 0.0 and times[1] == p1 and -h / a1 > p1 + 1e-12
    assert len(calls) == 1
    assert zs == zeros(propagate_reference(params, ConstantHistory(h), t_end)) == [p1]


def test_levels_too_small_to_leave_zero_fall_back_to_zeros(monkeypatch):
    # a level below 1e-280 times a step can round to 0.0, so the path can
    # stay on zero after the loop placed one
    params = Params(1e-320, 1e-320, 1.0, 1.0)
    calls = _counting_zeros(monkeypatch)
    times, values, zs = _event_loop(params, -5e-324, 6.0, 0.0)
    assert len(calls) == 1
    assert zs == zeros(PiecewisePath(0.0, tuple(times), tuple(values)))
    assert len(zs) > 1


def test_validators_build_no_path_and_run_no_zeros_pass(monkeypatch):
    # scan and classify validate every candidate on the event loop's own
    # knots and zero list
    calls = _counting_zeros(monkeypatch)
    built = []
    real_path = exact_module.PiecewisePath

    def counting_path(*args, **kwargs):
        built.append(args)
        return real_path(*args, **kwargs)

    monkeypatch.setattr(exact_module, "PiecewisePath", counting_path)
    rep = scan((0.5, 1.5), (0.1, 0.5), (0.25, 3.5), (0.25, 2.5), 6)
    verdicts = [v for row in ROWS for v in classify(row.params)]
    assert {"StableT", "Stable2T"} <= {kind for c in rep.cells for kind in c.kinds}
    assert {"StableT", "UnstableT", "Stable2T"} <= {v.kind for v in verdicts if v.validated}
    assert calls == [] and built == []
    # the wrappers count what they wrap
    exact_module.zeros(propagate(Params(1.0, 0.25, 2.5, 1.5), ConstantHistory(-0.25), 4.0))
    assert len(calls) == 1 and len(built) == 1
