"""Experiment layer on top of the exact constructor and the return maps.

Four studies live here:

  * reproduce_tables: rebuild every benchmark row from scratch and grade it
    PASS / FAIL:value / FAIL:shape / FAIL:value+shape / FAIL:formula;
  * coexistence_check: verify that an unstable period-T orbit coexists with
    the stable period-2T orbit carried over from the dual parameter set by
    the coefficient-shift identity, and that perturbations actually land
    on it;
  * scan: classify a parameter box on a grid and report the layout;
  * smoothing_convergence: drive the smoothed system at a sequence of
    shrinking half-widths and check uniform convergence to the exact
    solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .exact import ConstantHistory, PiecewisePath, path_sup_distance, propagate
from .maps import _FAMILIES, _verdicts, classify, dual_params
from .model import MAX_WORK, Params, RelayDDEError, SmoothingSpec

if TYPE_CHECKING:
    from .tables import TableRow

SHIFT_TOL = 1e-9
ATTRACTION_TOL = 1e-6


class PairingFailed(RelayDDEError):
    """The unstable/stable coexistence pairing could not be verified."""


class ConvergenceFailed(RelayDDEError):
    """Smoothing deviations failed to shrink with the half-width."""


class RowResult(NamedTuple):
    """One graded benchmark row."""

    row: TableRow
    computed_h: float | None
    computed_period: float
    status: str


def grade_row(row: TableRow) -> RowResult:
    """Grade one benchmark entry against the classify verdicts for its row.

    The first verdict of the row's family, a validated orbit or a ShapeInvalid
    candidate, supplies the computed value.  When there is none, the row is
    FAIL:formula and carries the family's closed-form level, if defined.
    """
    level, _, periods = _FAMILIES[row.family]
    period = periods * row.params.period
    m, b, k, d, _, verdicts = _verdicts(row.params)
    hit = next(((h, ok) for _, h, _, ok, _, family in verdicts if family == row.family), None)
    if hit is None:
        return RowResult(row, level(m, b, k, d), period, "FAIL:formula")
    h, shape_ok = hit
    h = h[0] if isinstance(h, tuple) else h
    value_ok = h is not None and abs(h - row.h_star_expected) <= row.h_tolerance
    if value_ok and shape_ok:
        status = "PASS"
    elif shape_ok:
        status = "FAIL:value"
    elif value_ok:
        status = "FAIL:shape"
    else:
        status = "FAIL:value+shape"
    return RowResult(row, h, period, status)


def reproduce_tables() -> list[RowResult]:
    """Grade every embedded benchmark row."""
    from .tables import ROWS

    return [grade_row(row) for row in ROWS]


def _shifted(path: PiecewisePath, dt: float) -> PiecewisePath:
    return PiecewisePath(
        start_time=path.start_time + dt,
        times=tuple(t + dt for t in path.times),
        values=path.values,
    )


@dataclass(frozen=True)
class CoexistenceReport:
    """Verified coexistence pairing between a system and its dual."""

    params: Params
    dual: Params
    h_unstable: float
    h_stable: tuple[float, float]
    shift_sup_distance: float
    convergence_periods: tuple[int, int]
    return_map_residuals: tuple[float, float]
    tail_distances: tuple[float, float]


def coexistence_check(params: Params, *, horizon_periods: int = 30) -> CoexistenceReport:
    """Verify the unstable/stable coexistence pairing at these parameters.

    Requires a validated unstable period-T orbit here and a validated stable
    period-2T orbit at the dual parameters. Checks the shift identity (the
    dual solution, advanced by p1, solves the original system) to 1e-9 in
    sup norm, then confirms that exact solutions from h* +- 1e-3 settle on
    the carried-over stable orbit within the horizon, which must be at least
    3 double periods.
    """
    if horizon_periods < 3:
        raise ValueError(f"horizon_periods must be at least 3, got {horizon_periods}")
    verdicts = classify(params)
    unstable = next((v for v in verdicts if v.kind == "UnstableT" and v.validated), None)
    if unstable is None:
        raise PairingFailed("no validated unstable period-T orbit at these parameters")
    dual = dual_params(params)
    dual_verdicts = classify(dual)
    stable = next((v for v in dual_verdicts if v.kind == "Stable2T" and v.validated), None)
    if stable is None:
        raise PairingFailed("dual parameters carry no validated stable period-2T orbit")

    h_u = unstable.h_star
    h_lo, h_hi = stable.h_star
    T = params.period
    span = horizon_periods * 2.0 * T

    # shift identity: starting the original system at t = p1 from the same
    # constant history reproduces the dual solution shifted by p1
    y = propagate(dual, ConstantHistory(h_lo), span)
    x = propagate(params, ConstantHistory(h_lo), params.p1 + 2.0 * T,
                  start_time=params.p1)
    shift_sup = path_sup_distance(_shifted(x, -params.p1), y, 0.0, 2.0 * T)
    if shift_sup > SHIFT_TOL:
        raise PairingFailed(
            f"shift identity violated: sup distance {shift_sup:.3e} over one period")

    conv_periods = []
    residuals = []
    tails = []
    for sgn in (1.0, -1.0):
        z = propagate(params, ConstantHistory(h_u + sgn * 1e-3), span)
        z_ahead = _shifted(z, -2.0 * T)
        for n in range(1, horizon_periods - 1):
            w = path_sup_distance(z_ahead, z, n * 2.0 * T, (n + 1) * 2.0 * T)
            if w <= ATTRACTION_TOL:
                conv_periods.append(n)
                residuals.append(w)
                break
        else:
            raise PairingFailed(
                f"perturbation {sgn * 1e-3:+.0e} did not settle within "
                f"{horizon_periods} double periods")
        # the attractor must be the dual orbit carried through the shift;
        # the perturbation sign decides which half-period phase it lands on
        t0 = (horizon_periods - 2) * 2.0 * T
        dist = min(
            path_sup_distance(_shifted(y, params.p1), z, t0, t0 + 2.0 * T),
            path_sup_distance(_shifted(y, params.p1 + T), z, t0, t0 + 2.0 * T),
        )
        if dist > ATTRACTION_TOL:
            raise PairingFailed(
                f"perturbed solution settled {dist:.3e} away from the dual orbit")
        tails.append(dist)

    return CoexistenceReport(
        params=params,
        dual=dual,
        h_unstable=h_u,
        h_stable=(h_lo, h_hi),
        shift_sup_distance=shift_sup,
        convergence_periods=(conv_periods[0], conv_periods[1]),
        return_map_residuals=(residuals[0], residuals[1]),
        tail_distances=(tails[0], tails[1]),
    )


@dataclass(frozen=True)
class ScanCell:
    """Classification outcome at one grid point."""

    a1: float
    a2: float
    p1: float
    p2: float
    kinds: tuple[str, ...]
    boundary: bool


@dataclass(frozen=True)
class ScanReport:
    """Grid classification over a parameter box.

    overlap_free is always true: StableT needs |m| < 1 and UnstableT needs
    m > 1, so no cell carries both.
    """

    axes: tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...], tuple[float, ...]]
    overlap_free: bool  # declared before cells: the JSON payload lists it first
    cells: tuple[ScanCell, ...]

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return tuple(len(ax) for ax in self.axes)


def _axis(lo: float, hi: float, n: int) -> tuple[float, ...]:
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo <= 0.0 or hi < lo:
        raise ValueError(f"range must satisfy 0 < lo <= hi, got ({lo}, {hi})")
    return tuple(lo + (hi - lo) * i / (n - 1) for i in range(n))


def scan(a1_range: tuple[float, float], a2_range: tuple[float, float],
         p1_range: tuple[float, float], p2_range: tuple[float, float],
         resolution: int | tuple[int, int, int, int] = 3) -> ScanReport:
    """Classify every point of a grid over the given parameter box.

    A grid of more than MAX_WORK cells is refused before any axis is built,
    and one whose estimated events exceed MAX_WORK before any cell runs.
    """
    if isinstance(resolution, int):
        res = (resolution,) * 4
    else:
        res = tuple(resolution)
        if len(res) != 4:
            raise ValueError("resolution must be an int or a 4-tuple")
    if min(res) < 2:
        raise ValueError("resolution must be at least 2 per axis")
    n_cells = math.prod(res)
    if n_cells > MAX_WORK:
        raise ValueError(f"a grid of {n_cells:,} cells is above the cap {MAX_WORK:,}")
    axes = (
        _axis(*a1_range, res[0]),
        _axis(*a2_range, res[1]),
        _axis(*p1_range, res[2]),
        _axis(*p2_range, res[3]),
    )
    # a cell propagates at most three periods (T for its two-zero candidate,
    # 2T for its one-zero one), each of at most about 2T + 4 events
    t_max = axes[2][-1] + axes[3][-1]
    work = n_cells * 3.0 * (2.0 * t_max + 4.0)
    if work > MAX_WORK:
        raise ValueError(f"a grid of {n_cells:,} cells with periods up to {t_max:.6g} asks for "
                         f"about {work:.3g} events, above the cap {MAX_WORK:,}")
    cells = []
    for a1 in axes[0]:
        for a2 in axes[1]:
            for p1 in axes[2]:
                for p2 in axes[3]:
                    try:
                        params = Params(a1, a2, p1, p2)
                    except ValueError:
                        cells.append(ScanCell(a1, a2, p1, p2, ("InvalidParams",), False))
                        continue
                    *_, boundary, verdicts = _verdicts(params)
                    cells.append(ScanCell(a1, a2, p1, p2, tuple(v[0] for v in verdicts),
                                          boundary))
    # StableT needs |m| < 1 and UnstableT m > 1, so no cell holds both
    return ScanReport(axes=axes, cells=tuple(cells), overlap_free=True)


@dataclass(frozen=True)
class ConvergenceRow:
    """One smoothing run: overall deviation and the outside-corner residual."""

    delta: float
    max_dev_overall: float
    residual: float


@dataclass(frozen=True)
class ConvergenceTable:
    rows: tuple[ConvergenceRow, ...]
    fitted_c: float


def smoothing_convergence(params: Params, h: float, deltas,
                          t_end: float = 30.0) -> ConvergenceTable:
    """Check uniform convergence of the smoothed system as delta shrinks.

    deltas must be a strictly decreasing list of positive half-widths and
    t_end must exceed the delay 1. Before the first solve, h is checked as
    the exact run's ConstantHistory (nonzero and finite) and every
    half-width's run passes run_step. Each half-width is then integrated
    once, from h to t_end at the default step, and compared with the exact
    solution by compare_exact_smoothed. The overall deviation must be
    non-increasing along the list; otherwise ConvergenceFailed is raised.
    The fitted linear constant C is the largest deviation / delta, so each
    outside-corner residual, a max over some of the same deviations, is at
    most C * delta.
    """
    from .numeric import compare_exact_smoothed, integrate, run_step

    ds = tuple(float(d) for d in deltas)
    if not ds:
        raise ValueError("deltas must be a non-empty decreasing list")
    if any(d <= 0.0 or not math.isfinite(d) for d in ds):
        raise ValueError("all deltas must be positive and finite")
    if any(b >= a for a, b in zip(ds, ds[1:])):
        raise ValueError("deltas must be strictly decreasing")
    if not math.isfinite(t_end) or t_end <= 1.0:
        raise ValueError("t_end must exceed the delay 1")
    ConstantHistory(h)  # the exact run's history: h must be nonzero and finite
    for d in ds:
        run_step(params, SmoothingSpec(d), t_end)
    rows = []
    for d in ds:
        sol = integrate(params, SmoothingSpec(d), h, t_end)
        rep = compare_exact_smoothed(params, h, sol)
        rows.append(ConvergenceRow(d, rep["max_dev_overall"],
                                   rep["max_dev_outside_corners"]))
    for prev, cur in zip(rows, rows[1:]):
        if cur.max_dev_overall > prev.max_dev_overall * (1.0 + 1e-6):
            raise ConvergenceFailed(
                f"deviation grew from {prev.max_dev_overall:.3e} at delta="
                f"{prev.delta} to {cur.max_dev_overall:.3e} at delta={cur.delta}")
    fitted_c = max(r.max_dev_overall / r.delta for r in rows)
    return ConvergenceTable(tuple(rows), fitted_c)
