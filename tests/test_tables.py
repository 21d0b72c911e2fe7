"""Integrity checks for the embedded benchmark dataset.

The rows are data, not behavior, so these tests cross-check them against
the return-map formulas and the exact constructor: group inequalities,
periods derived from the parameters, closure of the recorded true orbits,
and the documented structure of the deviating rows.
"""

import math

import pytest

from relaydde.exact import ConstantHistory, propagate, zeros
from relaydde.maps import dual_params, type1_coefficients, type2_coefficients
from relaydde.tables import _GROUPS, ROWS

BY_KEY = {(r.table_id, r.index): r for r in ROWS}

# rows whose true orbit keeps two zeros per period but places the first one
# before the coefficient switch and inside the delay window around it
STRADDLE_KEYS = [
    ("T2", 4), ("T2", 5), ("T2", 7), ("T2", 8), ("T2", 9), ("T2", 10),
    ("T2", 11), ("T2", 12), ("T4", 4), ("T4", 7), ("T5", 8),
]

# deviating rows where long exact probing found no periodic attractor
NO_ATTRACTOR_KEYS = {("T3", 8), ("T3", 10), ("T5", 4)}


def test_row_counts_and_grouping():
    assert len(ROWS) == 53
    assert {r.table_id for r in ROWS} <= set(_GROUPS)
    sizes = {tid: sum(r.table_id == tid for r in ROWS) for tid in _GROUPS}
    assert sizes == {"T1": 11, "T2": 13, "T3": 11, "T4": 9, "T5": 9}
    for tid in _GROUPS:
        rows = [r for r in ROWS if r.table_id == tid]
        assert [r.index for r in rows] == list(range(1, len(rows) + 1))


def test_families_and_kinds():
    for row in ROWS:
        if row.table_id in ("T1", "T2", "T4"):
            assert row.family == "two_zero"
            assert row.kind_expected in ("StableT", "UnstableT")
        else:
            assert row.family == "one_zero"
            assert row.kind_expected == "Stable2T"


def test_expected_periods_follow_from_parameters():
    # exact float equality, including the rows with irrational parameters
    for row in ROWS:
        T = row.params.period
        want = T if row.family == "two_zero" else 2.0 * T
        assert row.period_expected == want, (row.table_id, row.index)


def test_tolerance_ladder():
    assert BY_KEY[("T1", 2)].h_decimals is None
    assert BY_KEY[("T1", 2)].h_tolerance == 0.0
    assert BY_KEY[("T1", 1)].h_tolerance == pytest.approx(5e-3, rel=1e-6)
    assert BY_KEY[("T1", 11)].h_tolerance == pytest.approx(5e-5, rel=1e-6)


def test_fraction_rows_store_exact_floats():
    assert BY_KEY[("T1", 2)].h_star_expected == -1.0 / 3.0
    assert BY_KEY[("T1", 3)].h_star_expected == -4.0 / 7.0


def test_group_inequalities():
    # every row satisfies its group's map inequalities except the two rows
    # whose one-zero recipe is inapplicable outright
    exceptions = {("T3", 11), ("T5", 8)}
    for row in ROWS:
        key = (row.table_id, row.index)
        p = row.params
        if row.family == "two_zero":
            m, b = type1_coefficients(p)
            if row.table_id == "T1":
                ok = abs(m) < 1.0 and b > 0.0
            else:
                ok = m > 1.0 and b < 0.0
        else:
            k, d = type2_coefficients(p)
            ok = abs(k) < 1.0 and d > 0.0
        assert ok == (key not in exceptions), key


def test_t4_t5_duality():
    t4 = [r for r in ROWS if r.table_id == "T4"]
    t5 = [r for r in ROWS if r.table_id == "T5"]
    assert len(t4) == len(t5)
    for r4, r5 in zip(t4, t5):
        assert dual_params(r4.params) == r5.params
        assert dual_params(r5.params) == r4.params


def test_true_orbits_close_under_propagation():
    seen = 0
    for row in ROWS:
        if row.true_h is None:
            continue
        seen += 1
        span = row.true_period_multiple * row.params.period
        path = propagate(row.params, ConstantHistory(row.true_h), span)
        scale = max(1.0, abs(row.true_h))
        assert abs(path.values[-1] - row.true_h) <= 1e-9 * scale, \
            (row.table_id, row.index)
    assert seen == 14


def test_straddle_rows_layout():
    # the realized orbit starts one coefficient level earlier: its value is
    # the plain two-zero fixed point shifted down by exactly a1, the first
    # zero falls before the switch with the switch inside its delay window,
    # and the second zero stays in the last unit-length window
    for key in STRADDLE_KEYS:
        row = BY_KEY[key]
        p = row.params
        m, b = type1_coefficients(p)
        h_a = b / (m - 1.0)
        assert row.true_h == pytest.approx(h_a - p.a1, abs=1e-12)
        path = propagate(p, ConstantHistory(row.true_h), p.period)
        zs = [t for t in zeros(path) if 0.0 <= t < p.period]
        assert len(zs) == 2, key
        assert zs[0] < p.p1 < zs[0] + 1.0, key
        assert p.period - 2.0 < zs[1] < p.period - 1.0, key


def test_deviating_rows_documented():
    for row in ROWS:
        key = (row.table_id, row.index)
        if row.expect_status == "PASS":
            assert row.true_h is None
            continue
        assert row.note, key
        if "shape" in row.expect_status:
            assert (row.true_h is None) == (key in NO_ATTRACTOR_KEYS), key


def test_symbolic_rows_store_closed_forms():
    row = BY_KEY[("T1", 11)]
    assert row.params.a1 == math.sqrt(10.0)
    assert row.params.a2 == 1.0 / math.sqrt(5.0)
    assert row.period_expected == math.pi + math.e + 1.0
    row = BY_KEY[("T5", 9)]
    assert row.params.a1 == math.e
    assert row.period_expected == 2.0 * math.pi + 1.0
