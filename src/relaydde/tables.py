"""Benchmark dataset of two-level relay oscillator parameter points.

Each row pairs a parameter quadruple with a benchmark starting value and
period for a slowly oscillating periodic solution, plus the verdict this
package reaches when it rebuilds the orbit independently. Rows are grouped:

    T1  stable period-T orbits (two zeros per period)
    T2  unstable period-T orbits (two zeros per period)
    T3  stable period-2T orbits (one zero per period)
    T4  unstable period-T orbits, dual partners of the T5 rows
    T5  stable period-2T orbits, duals of the same-index T4 rows

Status vocabulary used by ``expect_status`` (and produced by
``analysis.reproduce_tables``):

    PASS             formula value matches the benchmark at its printed
                     precision and the exact orbit built from it has the
                     group's shape
    FAIL:value       the orbit validates but the benchmark number differs
                     beyond its printed precision
    FAIL:shape       the benchmark matches the formula, but the orbit the
                     formula assumes is not the one the system realizes
    FAIL:value+shape both of the above
    FAIL:formula     the group's closed-form recipe has no valid candidate
                     at these parameters

``expect_status`` pins the verified verdict for every row so the test suite
detects drift in either direction: a documented deviation that silently
starts passing is as suspicious as a pass that starts failing. For
deviating rows, ``true_h`` records the starting value of the orbit the
system actually realizes (verified to close under exact propagation), with
period ``true_period_multiple`` times T; ``true_h`` is None when long
probing found no periodic attractor at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import Params

# each table's claimed verdict kind and orbit family (a maps._FAMILIES key)
_GROUPS = {
    "T1": ("StableT", "two_zero"),
    "T2": ("UnstableT", "two_zero"),
    "T3": ("Stable2T", "one_zero"),
    "T4": ("UnstableT", "two_zero"),
    "T5": ("Stable2T", "one_zero"),
}


@dataclass(frozen=True)
class TableRow:
    """One benchmark entry; h_decimals=None demands an exact float match."""

    table_id: str
    index: int
    params: Params
    h_star_expected: float
    period_expected: float
    h_decimals: int | None
    expect_status: str
    true_h: float | None = None
    true_period_multiple: int = 1
    note: str = ""

    @property
    def family(self) -> str:
        return _GROUPS[self.table_id][1]

    @property
    def kind_expected(self) -> str:
        return _GROUPS[self.table_id][0]

    @property
    def h_tolerance(self) -> float:
        # half a unit in the last printed digit, plus slack for the float
        # representation noise of the printed decimal itself
        if self.h_decimals is None:
            return 0.0
        return 0.5 * 10.0 ** (-self.h_decimals) + 1e-12


_SQ5 = math.sqrt(5.0)
_SQ10 = math.sqrt(10.0)
_PI = math.pi
_E = math.e

ROWS: tuple[TableRow, ...] = (
    # --- T1: stable period-T, two zeros per period -----------------------
    TableRow("T1", 1, Params(1.0, 0.25, 2.5, 1.5), -0.25, 4.0, 2, "PASS"),
    TableRow("T1", 2, Params(2.0, 0.5, 2.5, 2.0), -1.0 / 3.0, 4.5, None, "PASS"),
    TableRow("T1", 3, Params(2.0, 0.25, 2.5, 1.0), -4.0 / 7.0, 3.5, None, "PASS"),
    TableRow("T1", 4, Params(1.0, 0.5, 3.0, 1.0), -0.5, 4.0, 1, "PASS"),
    TableRow("T1", 5, Params(2.0, 1.0, 3.0, 1.5), -0.5, 4.5, 1, "PASS"),
    TableRow("T1", 6, Params(2.5, 0.5, 3.0, 4.0), -0.31, 7.0, 2, "PASS"),
    TableRow("T1", 7, Params(3.0, 0.5, 3.0, 4.5), -0.45, 7.5, 2, "PASS"),
    TableRow("T1", 8, Params(4.0, 1.0, 3.5, 2.0), -2.0, 5.5, 1, "PASS"),
    TableRow("T1", 9, Params(5.0, 0.5, 3.0, 3.0), -1.94, 6.0, 2, "PASS"),
    TableRow("T1", 10, Params(5.0, 1.0, 3.0, 2.0), -1.88, 5.0, 2, "PASS"),
    TableRow("T1", 11, Params(_SQ10, 1.0 / _SQ5, _PI, _E + 1.0), -1.0602,
             _PI + _E + 1.0, 4, "PASS"),
    # --- T2: unstable period-T, two zeros per period ----------------------
    TableRow("T2", 1, Params(0.5, 5.0, 5.0, 1.0), -1.31, 6.0, 2, "PASS"),
    TableRow("T2", 2, Params(1.0, 5.0, 4.0, 1.0), -1.625, 5.0, 3, "PASS"),
    TableRow("T2", 3, Params(1.0, 7.0, 4.0, 1.0), -1.5, 5.0, 1, "FAIL:value",
             note="formula gives -19/12; the orbit from it validates"),
    TableRow("T2", 4, Params(1.0, 7.0, 3.0, 2.0), -1.0833, 5.0, 4, "FAIL:shape",
             true_h=-2.0833333333333335,
             note="true orbit straddles the first switch"),
    TableRow("T2", 5, Params(1.5, 7.0, 2.5, 2.5), -1.3295, 5.0, 4, "FAIL:shape",
             true_h=-2.829545454545454,
             note="true orbit straddles the first switch"),
    TableRow("T2", 6, Params(1.5, 7.0, 3.5, 1.5), -2.0795, 5.0, 4, "PASS"),
    TableRow("T2", 7, Params(1.5, 7.0, 4.0, 3.0), -4.3636, 7.0, 4, "FAIL:shape",
             true_h=-5.863636363636363,
             note="true orbit straddles the first switch"),
    TableRow("T2", 8, Params(2.0, 7.0, 3.0, 2.0), -2.4, 5.0, 1, "FAIL:shape",
             true_h=-4.4,
             note="true orbit straddles the first switch"),
    TableRow("T2", 9, Params(2.0, 7.0, 3.0, 3.0), -4.6, 6.0, 1, "FAIL:value+shape",
             true_h=-5.8,
             note="benchmark matches neither window layout; straddle orbit"),
    TableRow("T2", 10, Params(2.0, 7.0, 3.5, 2.5), -4.3, 6.0, 1, "FAIL:shape",
             true_h=-6.3,
             note="true orbit straddles the first switch"),
    TableRow("T2", 11, Params(2.5, 7.0, 2.5, 2.5), -1.2614, 5.0, 4, "FAIL:value+shape",
             true_h=-5.069444444444445,
             note="benchmark matches neither window layout; straddle orbit"),
    TableRow("T2", 12, Params(2.5, 7.0, 3.0, 2.0), -1.5682, 5.0, 4, "FAIL:value+shape",
             true_h=-5.694444444444445,
             note="benchmark matches neither window layout; straddle orbit"),
    TableRow("T2", 13, Params(1.0 / _SQ5, 1.5 * _PI, 2.0 * _E, _PI / 3.0), -1.382,
             2.0 * _E + _PI / 3.0, 3, "PASS"),
    # --- T3: stable period-2T, one zero per period ------------------------
    TableRow("T3", 1, Params(4.0, 1.0, 0.5, 2.5), -0.33, 6.0, 2, "PASS"),
    TableRow("T3", 2, Params(4.0, 1.0, 1.0, 3.5), -0.33, 9.0, 2, "PASS"),
    TableRow("T3", 3, Params(5.0, 1.0, 1.0, 3.5), -0.938, 9.0, 3, "PASS"),
    TableRow("T3", 4, Params(5.0, 1.0, 0.5, 3.0), -0.313, 7.0, 3, "PASS"),
    TableRow("T3", 5, Params(6.0, 1.0, 1.0, 3.5), -1.5, 9.0, 1, "PASS"),
    TableRow("T3", 6, Params(6.0, 1.0, 1.0, 4.5), -0.9, 11.0, 1, "PASS"),
    TableRow("T3", 7, Params(6.0, 1.5, 1.0, 3.5), -0.5, 9.0, 1, "PASS"),
    TableRow("T3", 8, Params(7.0, 1.5, 1.5, 3.5), -2.39, 10.0, 2, "FAIL:shape",
             note="no periodic attractor found under long exact probing"),
    TableRow("T3", 9, Params(7.0, 2.5, 2.5, 2.5), -2.92, 10.0, 2, "FAIL:shape",
             true_h=-0.12581699346405303, true_period_multiple=2,
             note="a 2T orbit exists but with three zeros in its first period"),
    TableRow("T3", 10, Params(7.0, 2.5, 2.0, 3.0), -1.17, 10.0, 2, "FAIL:shape",
             note="no attractor; an unstable anchored period-T orbit exists "
                  "away from t=0"),
    TableRow("T3", 11, Params(1.0 / _SQ5, 1.5 * _PI, 1.5 * _PI, _E / 2.0), -1.12,
             3.0 * _PI + _E, 2, "FAIL:formula",
             true_h=-1.11828523784605,
             note="one-zero recipe inapplicable (k < -1); the benchmark value "
                  "is close to an unstable period-T two-zero orbit"),
    # --- T4: unstable period-T, two zeros per period (duals of T5) --------
    TableRow("T4", 1, Params(0.5, 2.5, 3.0, 0.5), -0.09, 3.5, 2, "PASS"),
    TableRow("T4", 2, Params(0.5, 3.0, 5.0, 1.0), -1.35, 6.0, 2, "PASS"),
    TableRow("T4", 3, Params(0.5, 5.0, 4.0, 0.5), -0.64, 4.5, 2, "PASS"),
    TableRow("T4", 4, Params(0.5, 7.0, 3.0, 2.0), -0.52, 5.0, 2, "FAIL:shape",
             true_h=-1.0192307692307692,
             note="true orbit straddles the first switch"),
    TableRow("T4", 5, Params(1.0, 6.0, 3.0, 1.0), -0.5, 4.0, 1, "PASS"),
    TableRow("T4", 6, Params(1.0, 7.0, 5.0, 1.0), -2.67, 6.0, 2, "PASS"),
    TableRow("T4", 7, Params(2.0, 7.0, 2.0, 3.0), -1.4, 5.0, 1, "FAIL:shape",
             true_h=-3.4,
             note="true orbit straddles the first switch"),
    TableRow("T4", 8, Params(3.0, 7.0, 4.0, 1.0), -5.62, 5.0, 2, "PASS"),
    TableRow("T4", 9, Params(_PI / 6.0, _E, _PI, 0.5), -0.18, _PI + 0.5, 2, "PASS"),
    # --- T5: stable period-2T, one zero per period (duals of T4) ----------
    TableRow("T5", 1, Params(2.5, 0.5, 0.5, 3.0), -0.156, 7.0, 3, "PASS"),
    TableRow("T5", 2, Params(3.0, 0.5, 1.0, 5.0), -0.3, 12.0, 1, "PASS"),
    TableRow("T5", 3, Params(5.0, 0.5, 0.5, 4.0), -0.56, 9.0, 2, "PASS"),
    TableRow("T5", 4, Params(7.0, 0.5, 2.0, 3.0), -6.19, 10.0, 2, "FAIL:shape",
             note="no periodic attractor found under long exact probing"),
    TableRow("T5", 5, Params(6.0, 1.0, 1.0, 3.0), -1.8, 8.0, 1, "PASS"),
    TableRow("T5", 6, Params(7.0, 1.0, 1.0, 5.0), -1.17, 12.0, 2, "PASS"),
    TableRow("T5", 7, Params(7.0, 2.0, 3.0, 2.0), -6.3, 10.0, 1, "FAIL:shape",
             true_h=-2.1,
             note="the attractor is a stable period-T two-zero orbit, not a "
                  "period-2T one"),
    TableRow("T5", 8, Params(7.0, 3.0, 1.0, 4.0), -4.375, 10.0, 3, "FAIL:formula",
             true_h=-0.875,
             note="one-zero recipe inapplicable (d < 0); the attractor is a "
                  "straddling period-T orbit with multiplier -1/7"),
    TableRow("T5", 9, Params(_E, _PI / 6.0, 0.5, _PI), -1.92, 2.0 * _PI + 1.0, 2,
             "FAIL:value",
             note="formula gives about -0.1473; the orbit from it validates"),
)
