"""Tests for model definitions: parameters, coefficient, nonlinearity."""

import math

import numpy as np
import pytest

from relaydde.model import (
    Params,
    Profile,
    SmoothingSpec,
    coefficient_value,
    nonlinearity_slope_at_zero,
    nonlinearity_value,
    oscillation_condition,
    parse_config_text,
    switch_times,
    validate_geometry,
)


def test_params_period():
    p = Params(a1=1.0, a2=6.0, p1=3.0, p2=1.0)
    assert p.period == 4.0


@pytest.mark.parametrize("bad", [
    dict(a1=0.0, a2=1.0, p1=2.0, p2=2.0),
    dict(a1=1.0, a2=-3.0, p1=2.0, p2=2.0),
    dict(a1=1.0, a2=1.0, p1=0.0, p2=2.0),
    dict(a1=1.0, a2=1.0, p1=2.0, p2=math.nan),
    dict(a1=1.0, a2=1.0, p1=0.5, p2=0.5),  # period equals the delay
])
def test_params_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        Params(**bad)


def test_smoothing_spec_validation():
    s = SmoothingSpec(delta=0.25, profile="smoothexp")
    assert s.profile is Profile.SMOOTHEXP
    assert SmoothingSpec().delta == 0.0
    with pytest.raises(ValueError):
        SmoothingSpec(delta=-0.1)
    with pytest.raises(ValueError):
        SmoothingSpec(delta=0.1, profile="cubic")


def test_validate_geometry():
    p = Params(a1=1.0, a2=6.0, p1=3.0, p2=1.0)
    validate_geometry(p, SmoothingSpec())
    validate_geometry(p, SmoothingSpec(delta=0.4))
    with pytest.raises(ValueError):
        validate_geometry(p, SmoothingSpec(delta=0.5))  # 2*delta == p2
    with pytest.raises(ValueError):
        validate_geometry(Params(a1=1.0, a2=1.0, p1=5.0, p2=5.0), SmoothingSpec(delta=1.0))


def test_sharp_coefficient_levels_and_periodicity():
    p = Params(a1=1.0, a2=6.0, p1=3.0, p2=1.0)
    assert coefficient_value(p, 0.0) == 1.0
    assert coefficient_value(p, 2.999999) == 1.0
    assert coefficient_value(p, 3.0) == 6.0  # switch time belongs to the second level
    assert coefficient_value(p, 3.9) == 6.0
    assert coefficient_value(p, 4.0) == 1.0
    assert coefficient_value(p, 7.0) == 6.0
    assert coefficient_value(p, -0.5) == 6.0  # periodic extension to negative times
    assert coefficient_value(p, -1e-18) == 1.0  # rounding of tiny negative phase


def test_switch_schedule():
    p = Params(a1=1.0, a2=6.0, p1=3.0, p2=1.0)
    # both ends are inclusive; each time carries the level that starts there
    assert list(switch_times(p, 0.0, 8.0)) == [
        (0.0, 1.0), (3.0, 6.0), (4.0, 1.0), (7.0, 6.0), (8.0, 1.0)]
    assert list(switch_times(p, -5.0, -0.5)) == [(-5.0, 6.0), (-4.0, 1.0), (-1.0, 6.0)]
    assert list(switch_times(p, 3.5, 3.9)) == []
    # every level agrees with the coefficient just after its switch time
    q = Params(a1=2.0, a2=0.5, p1=1.3, p2=0.9)
    for s, level in switch_times(q, -7.0, 40.0):
        assert coefficient_value(q, s + 1e-9) == level


def test_smoothed_coefficient_ramp_shape():
    p = Params(a1=1.0, a2=6.0, p1=3.0, p2=2.0)
    s = SmoothingSpec(delta=0.5)
    mid = (p.a1 + p.a2) / 2.0
    assert coefficient_value(p, 0.0, s) == pytest.approx(mid)
    assert coefficient_value(p, 3.0, s) == pytest.approx(mid)
    assert coefficient_value(p, 5.0, s) == pytest.approx(mid)
    # plateau values away from the switch windows
    assert coefficient_value(p, 1.7, s) == 1.0
    assert coefficient_value(p, 4.0, s) == 6.0
    # ramps meet the plateaus continuously
    assert coefficient_value(p, 0.5, s) == pytest.approx(1.0)
    assert coefficient_value(p, 2.5, s) == pytest.approx(1.0)
    assert coefficient_value(p, 3.5, s) == pytest.approx(6.0)
    assert coefficient_value(p, 4.5, s) == pytest.approx(6.0)
    # linear inside a ramp
    assert coefficient_value(p, 3.25, s) == pytest.approx(1.0 + 5.0 * 0.75 / 1.0)


def test_smoothed_coefficient_preserves_period_integral():
    rng = np.random.default_rng(20240817)
    for _ in range(25):
        a1, a2 = rng.uniform(0.3, 8.0, size=2)
        p1, p2 = rng.uniform(1.0, 6.0, size=2)
        p = Params(a1=a1, a2=a2, p1=p1, p2=p2)
        d = rng.uniform(0.05, 0.45) * min(p1, p2, 1.99) / 2.0
        s = SmoothingSpec(delta=d)
        T = p.period
        # exact integral of the piecewise affine coefficient over one period
        knots = np.array([0.0, d, p1 - d, p1 + d, T - d, T])
        vals = np.array([coefficient_value(p, t, s) for t in knots])
        total = np.sum((vals[:-1] + vals[1:]) / 2.0 * np.diff(knots))
        assert total == pytest.approx(a1 * p1 + a2 * p2, rel=1e-12)


def test_smoothed_coefficient_rejects_bad_geometry():
    p = Params(a1=1.0, a2=6.0, p1=3.0, p2=1.0)
    with pytest.raises(ValueError):
        coefficient_value(p, 0.3, SmoothingSpec(delta=0.6))


def test_relay_nonlinearity():
    assert nonlinearity_value(SmoothingSpec(), 2.5) == -1.0
    assert nonlinearity_value(SmoothingSpec(), -0.1) == 1.0
    assert nonlinearity_value(SmoothingSpec(), 0.0) == 0.0
    assert nonlinearity_value(SmoothingSpec(delta=0.0), 3.0) == -1.0


def test_affine_nonlinearity():
    s = SmoothingSpec(delta=0.2)
    assert nonlinearity_value(s, 0.5) == -1.0
    assert nonlinearity_value(s, -0.5) == 1.0
    assert nonlinearity_value(s, 0.1) == pytest.approx(-0.5)
    assert nonlinearity_value(s, -0.05) == pytest.approx(0.25)
    assert nonlinearity_value(s, 0.2) == -1.0
    assert nonlinearity_value(s, 0.0) == 0.0


def test_smoothexp_nonlinearity_shape():
    s = SmoothingSpec(delta=0.3, profile=Profile.SMOOTHEXP)
    assert nonlinearity_value(s, 0.0) == 0.0
    assert nonlinearity_value(s, 0.3) == -1.0
    assert nonlinearity_value(s, 5.0) == -1.0
    # odd symmetry
    for x in (0.05, 0.12, 0.29, 0.4):
        assert nonlinearity_value(s, -x) == pytest.approx(-nonlinearity_value(s, x))
    # approaches the saturated level continuously at the half-width
    assert nonlinearity_value(s, 0.3 - 1e-9) == pytest.approx(-1.0, abs=1e-6)
    # slope -1 at the origin
    eps = 1e-7
    slope = (nonlinearity_value(s, eps) - nonlinearity_value(s, -eps)) / (2.0 * eps)
    assert slope == pytest.approx(-1.0, rel=1e-5)
    # monotone decreasing across the transition
    xs = np.linspace(-0.45, 0.45, 181)
    ys = np.array([nonlinearity_value(s, float(x)) for x in xs])
    assert np.all(np.diff(ys) <= 1e-15)


def test_slope_at_zero():
    assert math.isinf(nonlinearity_slope_at_zero(SmoothingSpec()))
    assert nonlinearity_slope_at_zero(SmoothingSpec(delta=0.25)) == 4.0
    assert nonlinearity_slope_at_zero(SmoothingSpec(delta=0.25, profile="smoothexp")) == 1.0


def test_oscillation_condition():
    p = Params(a1=1.0, a2=6.0, p1=3.0, p2=1.0)
    assert oscillation_condition(p)
    assert oscillation_condition(p, SmoothingSpec(delta=0.0))
    # the slope test can be asked about any delta, even one too wide
    # for the ramp geometry of these plateaus
    assert oscillation_condition(p, SmoothingSpec(delta=1.0))
    weak = Params(a1=0.3, a2=5.0, p1=3.0, p2=1.0)
    assert not oscillation_condition(weak, SmoothingSpec(delta=1.0))
    assert oscillation_condition(weak, SmoothingSpec(delta=0.5))  # slope 2: 0.6 > 1/e


def test_parse_config_text():
    text = """
    # simulation setup
    a1 = 1.0
    a2 = 6.0   # fast level
    p1 = 3.0
    p2 = 1.0
    profile = affine
    """
    m = parse_config_text(text)
    assert m == {"a1": "1.0", "a2": "6.0", "p1": "3.0", "p2": "1.0", "profile": "affine"}
    with pytest.raises(ValueError, match="line 1"):
        parse_config_text("a1 1.0")
    with pytest.raises(ValueError):
        parse_config_text("= 3")
