"""Tests for the affine return maps, classification, and basins."""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from relaydde.exact import ConstantHistory, propagate
from relaydde.maps import (
    HZero,
    MIsOne,
    NoCycle,
    NotApplicable,
    basin,
    classify,
    dual_params,
    type1_coefficients,
    type1_fixed_point,
    type2_coefficients,
    type2_two_cycle,
    apply_F,
)
from relaydde.model import Params


def _random_params(rng):
    a1, a2 = rng.uniform(0.05, 9.0, size=2)
    p1, p2 = rng.uniform(0.3, 5.0, size=2)
    if p1 + p2 <= 1.05:
        p2 += 1.0
    return Params(a1, a2, p1, p2)


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
    assert abs(type1_fixed_point(Params(math.sqrt(10.0), 1.0 / math.sqrt(5.0),
                                        math.pi, math.e + 1.0)) + 1.0602) < 5e-5
    assert abs(type1_fixed_point(Params(3.0, 7.0, 4.0, 1.0)) + 5.625) < 1e-12
    assert type1_fixed_point(Params(2.0, 0.25, 2.5, 1.0)) == -4.0 / 7.0
    with pytest.raises(MIsOne):
        type1_fixed_point(Params(2.0, 2.0, 2.0, 1.0))


def test_type1_fixed_point_alternative_form():
    # b/(m-1) equals a1*b / (2*(a2-a1))
    rng = np.random.default_rng(11)
    for _ in range(200):
        p = _random_params(rng)
        if p.a1 == p.a2:
            continue
        m, b = type1_coefficients(p)
        h = type1_fixed_point(p)
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
    with pytest.raises(NoCycle):
        type2_two_cycle(Params(1.0, 5.0, 4.0, 1.0))  # k = -9
    with pytest.raises(NoCycle):
        type2_two_cycle(Params(7.0, 3.0, 1.0, 4.0))  # d = -5
    with pytest.raises(NoCycle):
        type2_two_cycle(Params(1.3, 1.3, 1.0, 1.0))  # k = -1 boundary


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
        h = type1_fixed_point(p)
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
                assert abs(path.end_value - v.h_star) < 1e-9 * max(1.0, abs(v.h_star))
                closed += 1
            elif v.kind == "Stable2T":
                lo = v.h_star[0]
                path = propagate(p, ConstantHistory(lo), 2.0 * p.period)
                assert abs(path.end_value - lo) < 1e-9 * max(1.0, abs(lo))
                closed += 1
    assert closed > 20


def test_affine_map_validation():
    # return maps with a non-finite slope or offset are refused, naming each
    with pytest.raises(ValueError, match=r"\(b = inf, d = inf\)"):
        classify(Params(1e300, 1e-300, 1e300, 1.0))
    with pytest.raises(ValueError, match=r"\(b = nan, d = nan\)"):
        classify(Params(1e300, 1e300, 1e300, 1e300))
