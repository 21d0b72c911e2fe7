"""Tests for the affine return maps, classification, and basins."""

import itertools
import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import relaydde.maps as maps_module
from relaydde.exact import ConstantHistory, propagate
from relaydde.maps import (
    BasinDescriptor,
    HZero,
    NoCycle,
    NotApplicable,
    basin,
    classify,
    dual_params,
    type1_coefficients,
    type2_coefficients,
    type2_two_cycle,
    apply_F,
    _FAMILIES,
    _verdicts,
)
from relaydde.model import Params
from test_golden import LEVELS, STRETCHES


def _random_params(rng):
    a1, a2 = rng.uniform(0.05, 9.0, size=2)
    p1, p2 = rng.uniform(0.3, 5.0, size=2)
    if p1 + p2 <= 1.05:
        p2 += 1.0
    return Params(a1, a2, p1, p2)


def _two_zero_level(p):
    """The two-zero family's fixed point b/(m - 1), or None where m == 1."""
    return _FAMILIES["two_zero"].level(*type1_coefficients(p), 0.0, 0.0)


def test_type1_map_known_coefficients():
    # the two-zero return map is h -> m*h - b
    m, b = type1_coefficients(Params(1.0, 0.25, 2.5, 1.5))
    assert (m, b) == (-0.5, 0.375)
    assert m * -0.25 - b == -0.25
    m, b = type1_coefficients(Params(1.0, 6.0, 3.0, 1.0))
    assert (m, b) == (11.0, -5.0)
    m, b = type1_coefficients(Params(1.3, 1.3, 2.0, 1.0))
    assert m == 1.0


def test_type1_fixed_point_values():
    assert abs(_two_zero_level(Params(math.sqrt(10.0), 1.0 / math.sqrt(5.0),
                                      math.pi, math.e + 1.0)) + 1.0602) < 5e-5
    assert abs(_two_zero_level(Params(3.0, 7.0, 4.0, 1.0)) + 5.625) < 1e-12
    assert _two_zero_level(Params(2.0, 0.25, 2.5, 1.0)) == -4.0 / 7.0
    # equal levels give slope m = 1 and no unique fixed point
    assert _two_zero_level(Params(2.0, 2.0, 2.0, 1.0)) is None


def test_type1_fixed_point_alternative_form():
    # b/(m-1) equals a1*b / (2*(a2-a1))
    rng = np.random.default_rng(11)
    for _ in range(200):
        p = _random_params(rng)
        if p.a1 == p.a2:
            continue
        m, b = type1_coefficients(p)
        h = _two_zero_level(p)
        alt = p.a1 * b / (2.0 * (p.a2 - p.a1))
        assert abs(h - alt) < 1e-12 * max(1.0, abs(h))


def test_type2_map_known_coefficients():
    # the one-zero maps are F1(h) = k*h + d for h < 0 and F2(h) = k*h - d for h > 0
    k, d = type2_coefficients(Params(4.0, 1.0, 0.5, 2.5))
    assert (k, d) == (0.5, 0.5)
    assert (apply_F(-1.0, k, d), apply_F(1.0, k, d)) == (0.0, 0.0)
    k, d = type2_coefficients(Params(6.0, 1.0, 1.0, 3.0))
    assert abs(k - 2.0 / 3.0) < 1e-15
    assert d == 3.0
    k, d = type2_coefficients(Params(1.3, 1.3, 2.0, 1.0))
    assert k == -1.0


def test_apply_F_piecewise_and_odd():
    assert abs(apply_F(-1.0 / 3.0, 0.5, 0.5) - 1.0 / 3.0) < 1e-15
    assert abs(apply_F(1.0 / 3.0, 0.5, 0.5) + 1.0 / 3.0) < 1e-15
    rng = np.random.default_rng(3)
    for _ in range(50):
        h = rng.uniform(0.01, 5.0) * rng.choice([-1.0, 1.0])
        k, d = rng.uniform(-3.0, 1.0), rng.uniform(-2.0, 2.0)
        assert apply_F(-h, k, d) == -apply_F(h, k, d)
    with pytest.raises(HZero):
        apply_F(0.0, 0.5, 0.5)


def test_two_cycle_values_and_errors():
    lo, hi = type2_two_cycle(Params(4.0, 1.0, 0.5, 2.5))
    assert lo == -1.0 / 3.0 and hi == 1.0 / 3.0
    lo, hi = type2_two_cycle(Params(7.0, 2.5, 2.0, 3.0))
    assert abs(lo + 7.0 / 6.0) < 1e-12 and hi == -lo
    # the offset is checked first: these two also have |k| >= 1
    with pytest.raises(NoCycle, match="offset d = .* is not positive"):
        type2_two_cycle(Params(1.0, 5.0, 4.0, 1.0))  # k = -9, d = -31
    with pytest.raises(NoCycle, match="offset d = .* is not positive"):
        type2_two_cycle(Params(1.3, 1.3, 1.0, 1.0))  # k = -1, d = 0
    with pytest.raises(NoCycle, match="offset d = .* is not positive"):
        type2_two_cycle(Params(7.0, 3.0, 1.0, 4.0))  # d = -5
    with pytest.raises(NoCycle, match=r"slope k = .* outside \(-1, 1\)"):
        type2_two_cycle(Params(1.0, 2.0, 0.5, 0.6))  # k = -3, d = 1.3
    with pytest.raises(NoCycle, match=r"slope k = .* outside \(-1, 1\)"):
        type2_two_cycle(Params(1.0, 1.0, 0.5, 0.75))  # k = -1 boundary, d = 0.75


def test_two_cycle_closed_form_consistency():
    rng = np.random.default_rng(5)
    found = 0
    while found < 100:
        p = _random_params(rng)
        k, d = type2_coefficients(p)
        if d <= 0.0 or abs(k) >= 1.0:
            continue
        found += 1
        lo, hi = type2_two_cycle(p)
        scale = max(1.0, abs(lo))
        assert abs(apply_F(lo, k, d) - hi) < 1e-12 * scale
        assert abs(apply_F(hi, k, d) - lo) < 1e-12 * scale


def test_composition_formula():
    rng = np.random.default_rng(6)
    for _ in range(100):
        p = _random_params(rng)
        k, d = type2_coefficients(p)
        h = -rng.uniform(0.01, 4.0)
        up = apply_F(h, k, d)
        if up <= 0.0:
            continue
        through = apply_F(up, k, d)
        want = k * k * h + (k - 1.0) * d
        assert abs(through - want) < 1e-12 * max(1.0, abs(want))


def test_slope_range_identities():
    rng = np.random.default_rng(20240819)
    for _ in range(1000):
        p = _random_params(rng)
        m, _ = type1_coefficients(p)
        k, _ = type2_coefficients(p)
        assert m > -1.0 and k < 1.0
        if p.a1 != p.a2:
            assert (abs(m) < 1.0) == (p.a2 < p.a1)
            assert (m > 1.0) == (p.a2 > p.a1)
            assert (abs(k) < 1.0) == (p.a2 < p.a1)
            assert (k < -1.0) == (p.a2 > p.a1)


def test_fixed_point_is_exact_fixed_point():
    rng = np.random.default_rng(9)
    for _ in range(200):
        p = _random_params(rng)
        if p.a1 == p.a2:
            continue
        h = _two_zero_level(p)
        m, b = type1_coefficients(p)
        assert abs(m * h - b - h) < 1e-12 * max(1.0, abs(h))


def test_contraction_ratio_k_squared():
    # geometric approach to the two-cycle: after a short burn-in one double
    # application contracts the offset by exactly k^2 (affine map)
    rng = np.random.default_rng(20240819)
    for a1, a2, p1, p2 in [(6.0, 1.0, 1.0, 3.0), (1.5, 1.0, 1.0, 1.0),
                           (4.0, 1.0, 0.5, 2.5), (5.0, 0.5, 0.5, 4.0)]:
        p = Params(a1, a2, p1, p2)
        k, d = type2_coefficients(p)
        lo, _ = type2_two_cycle(p)
        bd = basin(p)
        radius = bd.radius if bd.kind == "interval" else 3.0 * abs(lo) + d
        for _ in range(100):
            h = rng.uniform(0.05, 0.95) * radius * rng.choice([-1.0, 1.0])
            for _ in range(10):
                h = apply_F(h, k, d)
            target = lo if h < 0.0 else -lo
            e0 = h - target
            if abs(e0) < 1e-9 * max(1.0, abs(target)):
                continue  # already at the cycle to machine precision
            e1 = apply_F(apply_F(h, k, d), k, d) - target
            assert abs(e1 / e0 - k * k) < 1e-3


def test_divergence_when_k_below_minus_one():
    rng = np.random.default_rng(20240819)
    checked = 0
    while checked < 200:
        a1 = rng.uniform(0.2, 3.0)
        a2 = a1 * rng.uniform(2.5, 8.0)
        p1, p2 = rng.uniform(0.3, 5.0, size=2)
        if p1 + p2 <= 1.05:
            p2 += 1.0
        p = Params(a1, a2, p1, p2)
        k, d = type2_coefficients(p)
        if d <= 0.0:
            continue
        checked += 1
        h = rng.uniform(1.0, 5.0) * rng.choice([-1.0, 1.0])
        v = h
        for _ in range(12):
            v = apply_F(v, k, d)
        assert abs(v) > 1000.0 * abs(h)


def test_basin_descriptor():
    assert basin(Params(4.0, 1.0, 0.5, 2.5)).kind == "all_nonzero"
    bd = basin(Params(1.5, 1.0, 1.0, 1.0))  # k = -1/3, d = 0.5
    assert bd.kind == "interval"
    assert abs(bd.radius - 1.5) < 1e-12
    assert asdict(bd) == {"kind": "interval", "radius": bd.radius}
    # a1 = 2*a2 exactly: k = 0, and one application of F lands on the cycle
    assert basin(Params(2.0, 1.0, 1.0, 1.0)) == BasinDescriptor("all_nonzero")
    with pytest.raises(NotApplicable):
        basin(Params(1.0, 5.0, 4.0, 1.0))  # k = -9
    with pytest.raises(NotApplicable):
        basin(Params(7.0, 3.0, 1.0, 4.0))  # d = -5


def test_dual_params_involution():
    p = Params(1.0, 6.0, 3.0, 1.0)
    d = dual_params(p)
    assert (d.a1, d.a2, d.p1, d.p2) == (6.0, 1.0, 1.0, 3.0)
    assert dual_params(d) == p
    assert dual_params(Params(0.5, 7.0, 3.0, 2.0)) == Params(7.0, 0.5, 2.0, 3.0)


@st.composite
def dual_runs(draw):
    """(params, h): levels in [0.1, 10], stretches in [0.1, 5], 1e-3 <= |h| <= 10."""
    a1, a2, p1 = draw(st.floats(0.1, 10.0)), draw(st.floats(0.1, 10.0)), draw(st.floats(0.1, 5.0))
    p2 = draw(st.floats(max(0.1, 1.0 - p1 + 1e-3), 5.0))
    h = draw(st.floats(1e-3, 10.0)) * draw(st.sampled_from((-1.0, 1.0)))
    return Params(a1, a2, p1, p2), h


@settings(derandomize=True, max_examples=300, deadline=None)
@given(dual_runs())
def test_property_dual_shift_identity(run):
    # from t = p1 on, the coefficient is the dual's from t = 0: a2 for p2, then a1 for p1
    params, h = run
    T = params.period
    shifted = propagate(params, ConstantHistory(h), params.p1 + 2.0 * T, start_time=params.p1)
    dual = propagate(dual_params(params), ConstantHistory(h), 2.0 * T)
    shifted_times = np.array(shifted.times) - params.p1
    ts = np.union1d(shifted_times, dual.times)
    dev = np.abs(np.interp(ts, shifted_times, shifted.values)
                 - np.interp(ts, dual.times, dual.values))
    assert dev.max() <= 1e-9 * max(1.0, abs(h), max(params.a1, params.a2) * T)


def test_classify_stable_T():
    verdicts = classify(Params(1.0, 0.25, 2.5, 1.5))
    top = verdicts[0]
    assert top.kind == "StableT"
    assert top.h_star == -0.25
    assert top.period == 4.0
    assert top.validated and not top.boundary
    blob = asdict(top)
    assert blob["kind"] == "StableT" and blob["m"] == -0.5 and blob["b"] == 0.375


def test_classify_unstable_T():
    verdicts = classify(Params(1.0, 5.0, 4.0, 1.0))
    kinds = [v.kind for v in verdicts]
    assert kinds == ["UnstableT", "Diverges2T"]
    assert verdicts[0].h_star == -1.625
    assert verdicts[0].period == 5.0
    assert verdicts[1].h_star is None and not verdicts[1].validated


def test_classify_stable_2T():
    verdicts = classify(Params(5.0, 1.0, 0.5, 3.0))
    top = verdicts[0]
    assert top.kind == "Stable2T"
    assert top.h_star == (-0.3125, 0.3125)
    assert top.period == 7.0
    assert json.loads(json.dumps(asdict(top)))["h_star"] == [-0.3125, 0.3125]


def test_classify_shape_invalid_candidate():
    # the one-zero candidate exists but its orbit fails validation
    verdicts = classify(Params(7.0, 0.5, 2.0, 3.0))
    kinds = [v.kind for v in verdicts]
    assert kinds == ["ShapeInvalid"]
    assert abs(verdicts[0].h_star + 6.1923076923076925) < 1e-12
    assert not verdicts[0].validated
    assert "one-zero" in verdicts[0].reason


def test_each_verdict_carries_the_family_of_its_kind():
    # grading reads a verdict's family key, not its reason, so over the golden
    # grid the key must agree with the kind, and a candidate's reason must
    # still name its family's zero count as classify's docstring promises
    family_of = {"StableT": "two_zero", "UnstableT": "two_zero", "Stable2T": "one_zero",
                 "Diverges2T": None}
    named = {"two_zero": "two-zero", "one_zero": "one-zero"}
    seen = set()
    for point in itertools.product(LEVELS, LEVELS, STRETCHES, STRETCHES):
        *_, verdicts = _verdicts(Params(*point))
        for kind, _, _, _, reason, family in verdicts:
            seen.add((kind, family))
            if kind != "ShapeInvalid":
                assert family == family_of[kind], (point, kind)
            elif family is None:
                assert reason == "no closed-form branch applies to these parameters"
            else:
                other = next(name for key, name in named.items() if key != family)
                assert named[family] in reason and other not in reason, (point, reason)
    assert seen == {*family_of.items(), ("ShapeInvalid", "two_zero"),
                    ("ShapeInvalid", "one_zero"), ("ShapeInvalid", None)}


def test_classify_reports_alternative_stable_orbit():
    # the two-zero branch validates even though the one-zero candidate fails
    verdicts = classify(Params(7.0, 2.0, 3.0, 2.0))
    kinds = [v.kind for v in verdicts]
    assert kinds == ["StableT", "ShapeInvalid"]
    assert abs(verdicts[0].h_star + 2.1) < 1e-12


def test_classify_no_branch_and_boundary():
    verdicts = classify(Params(7.0, 3.0, 1.0, 4.0))  # b < 0 and d < 0
    assert [v.kind for v in verdicts] == ["ShapeInvalid"]
    assert verdicts[0].h_star is None
    verdicts = classify(Params(2.0, 2.0, 2.0, 1.0))  # m = 1, k = -1
    assert [v.kind for v in verdicts] == ["ShapeInvalid"]
    assert verdicts[0].boundary
    assert all(v.boundary for v in classify(Params(2.0, 2.0, 1.0, 1.0)))  # m = 1
    assert all(v.boundary for v in classify(Params(1e17, 1.0, 2.0, 2.0)))  # b == 0.0
    # a2/a1 rounds away, so m == -1.0 and k == 1.0, yet no equality holds
    assert type1_coefficients(Params(1e300, 1.0, 1.0, 1.0))[0] == -1.0
    assert not any(v.boundary for v in classify(Params(1e300, 1.0, 1.0, 1.0)))


def test_classify_never_both_stable_and_unstable_T():
    rng = np.random.default_rng(17)
    for _ in range(200):
        verdicts = classify(_random_params(rng))
        kinds = {v.kind for v in verdicts}
        assert not ({"StableT", "UnstableT"} <= kinds)


def test_classified_orbits_close_under_propagation():
    rng = np.random.default_rng(23)
    closed = 0
    for _ in range(300):
        p = _random_params(rng)
        for v in classify(p):
            if not v.validated:
                continue
            if v.kind in ("StableT", "UnstableT"):
                path = propagate(p, ConstantHistory(v.h_star), p.period)
                assert abs(path.values[-1] - v.h_star) < 1e-9 * max(1.0, abs(v.h_star))
                closed += 1
            elif v.kind == "Stable2T":
                lo = v.h_star[0]
                path = propagate(p, ConstantHistory(lo), 2.0 * p.period)
                assert abs(path.values[-1] - lo) < 1e-9 * max(1.0, abs(lo))
                closed += 1
    assert closed > 20


def test_affine_map_validation():
    # return maps with a non-finite slope or offset are refused, naming each
    with pytest.raises(ValueError, match=r"\(b = inf, d = inf\)"):
        classify(Params(1e300, 1e-300, 1e300, 1.0))
    with pytest.raises(ValueError, match=r"\(b = nan, d = nan\)"):
        classify(Params(1e300, 1e300, 1e300, 1e300))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.floats(-8.0, 8.0), st.floats(-8.0, 8.0), st.floats(0.3, 5.0), st.floats(0.75, 5.0))
def test_property_extreme_level_ratios_get_verdicts(e1, e2, p1, p2):
    # a zero that rounds onto the current knot ends that candidate's
    # propagation in DegenerateStall, reported as its ShapeInvalid reason
    verdicts = classify(Params(10.0**e1, 10.0**e2, p1, p2))
    assert verdicts
    for v in verdicts:
        assert v.validated == (v.kind in ("StableT", "UnstableT", "Stable2T"))


def test_classify_reports_a_stalled_candidate_as_shape_invalid():
    params = Params(6.80590627692909e-08, 89821109.01055714,
                    3.0579782907825916, 2.5215713441926413)
    verdicts = classify(params)
    assert [v.kind for v in verdicts] == ["Diverges2T", "ShapeInvalid"]
    reason = verdicts[1].reason
    assert reason.startswith("unstable two-zero candidate: zero does not lie after the "
                             f"current event at t = {params.p1!r}, x = ")
    assert ", x = " in reason and reason.endswith(f"at {params}")


def test_one_zero_candidate_that_misses_its_two_period_return_is_shape_invalid(monkeypatch):
    # a crafted path with one zero per period and x(T) = -h, but x(2T) = 2h:
    # only the two-period return check can refuse it
    params = Params(5.0, 1.0, 1.0, 3.5)
    (verdict,) = classify(params)
    assert verdict.kind == "Stable2T" and verdict.validated
    h, T = verdict.h_star[0], params.period
    spans = []

    def crafted(p, level, t_end, start_time):
        spans.append((p, level, t_end, start_time))
        return [0.0, 1.0, T, T + 1.0, 2.0 * T], [level, 0.0, -level, 0.0, 2.0 * level], \
            [1.0, T + 1.0]

    monkeypatch.setattr(maps_module, "_event_loop", crafted)
    (verdict,) = classify(params)
    assert spans == [(params, h, 2.0 * T, 0.0)]
    assert verdict.kind == "ShapeInvalid" and not verdict.validated
    assert verdict.reason == (f"one-zero two-cycle candidate: two-period endpoint "
                              f"{2.0 * h!r} does not return to {h!r}")


def test_classify_reports_an_overflowed_candidate_level_as_shape_invalid():
    # m and b are finite, but b / (m - 1) with m - 1 = -0.02 overflows to
    # -inf, and so does -d / (k + 1); neither is propagated
    verdicts = classify(Params(3e307, 2.97e307, 0.6, 0.6))
    assert [v.kind for v in verdicts] == ["ShapeInvalid", "ShapeInvalid"]
    assert [v.reason for v in verdicts] == [
        "stable two-zero candidate: starting level is not finite",
        "one-zero two-cycle candidate: starting level is not finite",
    ]
    assert all(v.h_star is None and v.period is None for v in verdicts)
