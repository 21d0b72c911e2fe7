"""Affine return maps, orbit classification, basins, and the dual transform.

Between zeros a slowly oscillating solution of the relay equation is a
concatenation of affine pieces, so the level after one coefficient period is
an affine function of the starting level h on each shape window.  Two window
families admit closed forms:

  * two zeros per period: x(T) = m*h - b with m = 2*a2/a1 - 1 and
    b = a1*(p1 - 2) + a2*(6 - (2*p1 + p2)); fixed point h* = b/(m - 1).
  * one zero per period: x(T) = k*h + d for h < 0, x(T) = k*h - d for h > 0,
    with k = 1 - 2*a2/a1 and d = a1*p1 + a2*(2 - 2*p1 - p2).  Such orbits
    close after two periods and satisfy x(t + T) = -x(t); the two-cycle is
    {h*, -h*} with h* = -d/(k + 1).

The closed forms presuppose a particular arrangement of zeros relative to
the coefficient switches.  Every candidate fixed point is therefore
validated against the exact event-driven propagator before a verdict is
reported; candidates whose orbit does not reproduce the assumed shape are
reported as ShapeInvalid rather than silently trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .exact import ConstantHistory, propagate, zeros
from .model import Params, RelayDDEError

STABLE_T = "StableT"
UNSTABLE_T = "UnstableT"
STABLE_2T = "Stable2T"
DIVERGES_2T = "Diverges2T"
SHAPE_INVALID = "ShapeInvalid"

RETURN_TOL = 1e-9


class MIsOne(RelayDDEError):
    """Equal coefficient levels give slope one and no unique fixed point."""


class HZero(RelayDDEError):
    """The interval map is discontinuous at h = 0 and undefined there."""


class NoCycle(RelayDDEError):
    """No two-cycle: the one-zero map diverges or its offset is not positive."""


class NotApplicable(RelayDDEError):
    """The requested description is outside its hypotheses."""


def type1_coefficients(params: Params) -> tuple[float, float]:
    """Slope m and offset b of the two-zero return map x(T) = m*h - b."""
    m = 2.0 * params.a2 / params.a1 - 1.0
    b = params.a1 * (params.p1 - 2.0) + params.a2 * (6.0 - (2.0 * params.p1 + params.p2))
    return m, b


def type1_fixed_point(params: Params) -> float:
    """Fixed point h* = b/(m - 1) of the two-zero return map."""
    m, b = type1_coefficients(params)
    if m == 1.0:
        raise MIsOne("equal levels a1 = a2 give slope 1; no unique fixed point")
    return b / (m - 1.0)


def type2_coefficients(params: Params) -> tuple[float, float]:
    """Slope k and offset d of the one-zero half-period maps."""
    k = 1.0 - 2.0 * params.a2 / params.a1
    d = params.a1 * params.p1 + params.a2 * (2.0 - 2.0 * params.p1 - params.p2)
    return k, d


def apply_F(h: float, k: float, d: float) -> float:
    """One application of the piecewise map F: kh+d for h<0, kh-d for h>0."""
    if h == 0.0:
        raise HZero("the interval map is discontinuous at h = 0")
    return k * h + d if h < 0.0 else k * h - d


def type2_two_cycle(params: Params) -> tuple[float, float]:
    """The two-cycle (h*, -h*) of F, requiring d > 0 and |k| < 1."""
    k, d = type2_coefficients(params)
    if d <= 0.0:
        raise NoCycle(f"offset d = {d!r} is not positive; no two-cycle")
    if abs(k) >= 1.0:
        raise NoCycle(f"slope k = {k!r} outside (-1, 1); iterates do not settle on a two-cycle")
    h = -d / (k + 1.0)
    # closed-form consistency: F2(F1(h)) = k*k*h + (k-1)*d must return h
    back = k * (k * h + d) - d
    if abs(back - h) > 1e-9 * max(1.0, abs(h)):
        raise RelayDDEError("two-cycle closed form failed to close")  # pragma: no cover
    return h, -h


@dataclass(frozen=True)
class BasinDescriptor:
    """Attraction basin of the two-cycle: everything nonzero, or an interval."""

    kind: str  # "all_nonzero" or "interval"
    radius: float | None = None


def basin(params: Params) -> BasinDescriptor:
    """Basin of the two-cycle under the hypotheses d > 0 and |k| < 1."""
    k, d = type2_coefficients(params)
    if d <= 0.0 or abs(k) >= 1.0:
        raise NotApplicable("basin description requires d > 0 and |k| < 1")
    if params.a1 > 2.0 * params.a2:
        return BasinDescriptor("all_nonzero")
    if k == 0.0:
        # a1 = 2*a2 exactly: one application of F lands on the cycle
        return BasinDescriptor("all_nonzero")
    return BasinDescriptor("interval", radius=d / abs(k))


def dual_params(params: Params) -> Params:
    """Interchange levels and stretches: (a1,a2,p1,p2) -> (a2,a1,p2,p1)."""
    return Params(params.a2, params.a1, params.p2, params.p1)


@dataclass(frozen=True)
class Classification:
    kind: str
    h_star: float | tuple[float, float] | None
    period: float | None
    m: float
    b: float
    k: float
    d: float
    validated: bool
    boundary: bool = False
    reason: str = ""


def _validate_two_zero(params: Params, h: float) -> tuple[bool, str]:
    """Propagate one period and check the two-zero shape and exact return."""
    T = params.period
    path = propagate(params, ConstantHistory(h), T)
    zs = zeros(path)
    if len(zs) != 2:
        return False, f"expected 2 zeros in one period, found {len(zs)}"
    if zs[-1] >= T - 1.0 + 1e-12:
        return False, "second zero lands within one delay of the period end"
    if abs(path.end_value - h) > RETURN_TOL * max(1.0, abs(h)):
        return False, f"period endpoint {path.end_value!r} does not return to {h!r}"
    return True, ""


def _validate_one_zero(params: Params, h: float) -> tuple[bool, str]:
    """Propagate two periods and check one zero per period with x(T) = -h."""
    T = params.period
    path = propagate(params, ConstantHistory(h), 2.0 * T)
    zs = zeros(path)
    per1 = sum(1 for z in zs if z < T)
    per2 = sum(1 for z in zs if T <= z < 2.0 * T)
    if per1 != 1 or per2 != 1 or len(zs) != 2:
        return False, f"expected 1 zero per period, found {per1}+{per2}"
    if zs[-1] >= 2.0 * T - 1.0 + 1e-12:
        return False, "second zero lands within one delay of the horizon end"
    scale = max(1.0, abs(h))
    if abs(path.value_at(T) + h) > RETURN_TOL * scale:
        return False, "half-orbit endpoint does not mirror the starting level"
    if abs(path.end_value - h) > RETURN_TOL * scale:
        return False, f"two-period endpoint {path.end_value!r} does not return to {h!r}"
    return True, ""


class _Branch(NamedTuple):
    """One closed-form orbit family: where it applies and how it is checked."""

    kind: str
    applies: Callable[[float, float, float, float], bool]  # on (m, b, k, d)
    level: Callable[[Params], float]  # candidate starting level h*
    validate: Callable[[Params, float], tuple[bool, str]]
    periods: int  # coefficient periods per orbit
    label: str  # names the candidate, and its zero count, in ShapeInvalid reasons


_BRANCHES = (
    _Branch(STABLE_T, lambda m, b, k, d: abs(m) < 1.0 and b > 0.0,
            type1_fixed_point, _validate_two_zero, 1, "stable two-zero candidate"),
    _Branch(UNSTABLE_T, lambda m, b, k, d: m > 1.0 and b < 0.0,
            type1_fixed_point, _validate_two_zero, 1, "unstable two-zero candidate"),
    _Branch(STABLE_2T, lambda m, b, k, d: abs(k) < 1.0 and d > 0.0,
            lambda params: type2_two_cycle(params)[0], _validate_one_zero, 2,
            "one-zero two-cycle candidate"),
)


def classify(params: Params) -> tuple[Classification, ...]:
    """All verdicts the closed-form maps support for these parameters.

    Validated orbit verdicts (StableT, UnstableT, Stable2T) come first; a
    map-level Diverges2T verdict follows when k < -1; candidates whose orbit
    fails propagation checks are appended as ShapeInvalid records, whose
    reason names the candidate's family ("two-zero" or "one-zero").  When no
    branch applies at all, a single ShapeInvalid record is returned, with
    boundary set if the parameters sit on an excluded equality.  Raises
    ValueError when a map coefficient m, b, k or d is not finite.
    """
    m, b = type1_coefficients(params)
    k, d = type2_coefficients(params)
    bad = [f"{name} = {v!r}" for name, v in zip("mbkd", (m, b, k, d)) if not math.isfinite(v)]
    if bad:
        raise ValueError(f"return-map coefficients are not finite ({', '.join(bad)}) at {params}")
    # k == -m exactly, and m > -1 for positive levels (m == -1 only when
    # a2/a1 rounds away), so m == 1 covers both slope equalities
    boundary = m == 1.0 or b == 0.0 or d == 0.0
    T = params.period

    def record(kind, h_star, period, validated, reason=""):
        return Classification(kind, h_star, period, m, b, k, d, validated,
                              boundary=boundary, reason=reason)

    validated: list[Classification] = []
    failed: list[Classification] = []
    for branch in _BRANCHES:
        if not branch.applies(m, b, k, d):
            continue
        h = branch.level(params)
        ok, why = (branch.validate(params, h) if h < 0.0
                   else (False, "starting level is not negative"))
        if ok:
            h_star = (h, -h) if branch.periods == 2 else h
            validated.append(record(branch.kind, h_star, branch.periods * T, True))
        else:
            failed.append(record(SHAPE_INVALID, h, None, False, f"{branch.label}: {why}"))

    out = list(validated)
    if k < -1.0:
        out.append(record(DIVERGES_2T, None, None, False,
                          "slope k < -1: iterates of the one-zero map diverge"))
    out.extend(failed)
    if not out:
        out.append(record(SHAPE_INVALID, None, None, False,
                          "no closed-form branch applies to these parameters"))
    return tuple(out)
