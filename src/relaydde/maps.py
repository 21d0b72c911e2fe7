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

from .exact import DegenerateStall, _event_loop, _value_at
from .model import Params, RelayDDEError

STABLE_T = "StableT"
UNSTABLE_T = "UnstableT"
STABLE_2T = "Stable2T"
DIVERGES_2T = "Diverges2T"
SHAPE_INVALID = "ShapeInvalid"

RETURN_TOL = 1e-9


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
    h = _FAMILIES["one_zero"].level(*type1_coefficients(params), k, d)
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
    _, values, zs = _event_loop(params, h, T, 0.0)
    if len(zs) != 2:
        return False, f"expected 2 zeros in one period, found {len(zs)}"
    if zs[-1] >= T - 1.0 + 1e-12:
        return False, "second zero lands within one delay of the period end"
    if abs(values[-1] - h) > RETURN_TOL * max(1.0, abs(h)):
        return False, f"period endpoint {values[-1]!r} does not return to {h!r}"
    return True, ""


def _validate_one_zero(params: Params, h: float) -> tuple[bool, str]:
    """Propagate two periods and check one zero per period with x(T) = -h."""
    T = params.period
    times, values, zs = _event_loop(params, h, 2.0 * T, 0.0)
    per1 = sum(1 for z in zs if z < T)
    per2 = sum(1 for z in zs if T <= z < 2.0 * T)
    if per1 != 1 or per2 != 1 or len(zs) != 2:
        return False, f"expected 1 zero per period, found {per1}+{per2}"
    if zs[-1] >= 2.0 * T - 1.0 + 1e-12:
        return False, "second zero lands within one delay of the horizon end"
    scale = max(1.0, abs(h))
    if abs(_value_at(times, values, T) + h) > RETURN_TOL * scale:
        return False, "half-orbit endpoint does not mirror the starting level"
    if abs(values[-1] - h) > RETURN_TOL * scale:
        return False, f"two-period endpoint {values[-1]!r} does not return to {h!r}"
    return True, ""


class _Family(NamedTuple):
    """One closed-form orbit family, keyed in _FAMILIES as TableRow.family."""

    level: Callable[[float, float, float, float], float | None]  # h* from (m, b, k, d), or None
    validate: Callable[[Params, float], tuple[bool, str]]
    periods: int  # coefficient periods per orbit


_FAMILIES = {
    "two_zero": _Family(lambda m, b, k, d: None if m == 1.0 else b / (m - 1.0),
                        _validate_two_zero, 1),
    "one_zero": _Family(lambda m, b, k, d: None if k == -1.0 else -d / (k + 1.0),
                        _validate_one_zero, 2),
}


class _Branch(NamedTuple):
    """One verdict a family can give, and where its closed form applies."""

    kind: str
    applies: Callable[[float, float, float, float], bool]  # on (m, b, k, d); keeps level defined
    family: str  # a _FAMILIES key
    label: str  # names the candidate, and its zero count, in ShapeInvalid reasons


_BRANCHES = (
    _Branch(STABLE_T, lambda m, b, k, d: abs(m) < 1.0 and b > 0.0, "two_zero",
            "stable two-zero candidate"),
    _Branch(UNSTABLE_T, lambda m, b, k, d: m > 1.0 and b < 0.0, "two_zero",
            "unstable two-zero candidate"),
    _Branch(STABLE_2T, lambda m, b, k, d: abs(k) < 1.0 and d > 0.0, "one_zero",
            "one-zero two-cycle candidate"),
)


def _verdicts(params: Params) -> tuple[float, float, float, float, bool, list[tuple]]:
    """classify's core: m, b, k, d, boundary and one plain verdict tuple
    (kind, h_star, period, validated, reason, family) per verdict, in
    classify's order; family is a _FAMILIES key, None for Diverges2T and the
    no-branch ShapeInvalid.  scan and grade_row read these without records.
    """
    m, b = type1_coefficients(params)
    k, d = type2_coefficients(params)
    if not all(map(math.isfinite, (m, b, k, d))):
        bad = [f"{name} = {v!r}" for name, v in zip("mbkd", (m, b, k, d)) if not math.isfinite(v)]
        raise ValueError(f"return-map coefficients are not finite ({', '.join(bad)}) at {params}")
    # k == -m exactly, and m > -1 for positive levels (m == -1 only when
    # a2/a1 rounds away), so m == 1 covers both slope equalities
    boundary = m == 1.0 or b == 0.0 or d == 0.0
    out, failed = [], []
    for kind, applies, family, label in _BRANCHES:
        if not applies(m, b, k, d):
            continue
        level, validate, periods = _FAMILIES[family]
        h = level(m, b, k, d)
        if not math.isfinite(h):  # b / (m - 1) or d / (k + 1) overflowed
            ok, why, h = False, "starting level is not finite", None
        elif not h < 0.0:
            ok, why = False, "starting level is not negative"
        else:
            try:
                ok, why = validate(params, h)
            except DegenerateStall as exc:  # e.g. a zero that rounds onto its knot
                ok, why = False, str(exc)
        if ok:
            out.append((kind, (h, -h) if periods == 2 else h, periods * params.period, True, "",
                        family))
        else:
            failed.append((SHAPE_INVALID, h, None, False, f"{label}: {why}", family))
    if k < -1.0:
        out.append((DIVERGES_2T, None, None, False,
                    "slope k < -1: iterates of the one-zero map diverge", None))
    out += failed
    if not out:
        out.append((SHAPE_INVALID, None, None, False,
                    "no closed-form branch applies to these parameters", None))
    return m, b, k, d, boundary, out


def classify(params: Params) -> tuple[Classification, ...]:
    """All verdicts the closed-form maps support for these parameters.

    Validated orbit verdicts (StableT, UnstableT, Stable2T) come first, then a
    Diverges2T verdict when k < -1, then each candidate whose orbit fails the
    propagation checks as a ShapeInvalid record whose reason names its family
    ("two-zero" or "one-zero"); _verdicts also carries the family key, which
    is dropped here.  When no branch applies, a single ShapeInvalid record is
    returned, with boundary set if the parameters sit on an excluded equality.
    Raises ValueError when a map coefficient m, b, k or d is not finite.
    """
    m, b, k, d, boundary, verdicts = _verdicts(params)
    return tuple(Classification(kind, h_star, period, m, b, k, d, ok, boundary, reason)
                 for kind, h_star, period, ok, reason, _ in verdicts)
