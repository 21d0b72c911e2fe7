"""Behavioral tests for the experiment layer."""

import json
from collections import Counter
from dataclasses import asdict

import pytest

from relaydde.analysis import (
    ConvergenceFailed,
    PairingFailed,
    RowResult,
    coexistence_check,
    format_table_report,
    grade_row,
    reproduce_tables,
    scan,
    smoothing_convergence,
)
from relaydde.maps import type2_coefficients
from relaydde.model import Params
from relaydde.numeric import integrate
from relaydde.tables import ROWS

# rows where the recomputed value disagrees with the benchmark number
VALUE_DEVIATIONS = {
    ("T2", 3), ("T2", 9), ("T2", 11), ("T2", 12),
    ("T3", 11), ("T5", 8), ("T5", 9),
}

# rows where the orbit the benchmark assumes is not the realized one
SHAPE_DEVIATIONS = {
    ("T2", 4), ("T2", 5), ("T2", 7), ("T2", 8), ("T2", 9), ("T2", 10),
    ("T2", 11), ("T2", 12),
    ("T3", 8), ("T3", 9), ("T3", 10), ("T3", 11),
    ("T4", 4), ("T4", 7),
    ("T5", 4), ("T5", 7), ("T5", 8),
}


# --- benchmark regression ---------------------------------------------------

def test_every_row_grades_as_expected(table_results):
    assert len(table_results) == len(ROWS)
    for res in table_results:
        assert res.status == res.row.expect_status, \
            (res.row.table_id, res.row.index)


def test_status_breakdown(table_results):
    counts = Counter(res.status for res in table_results)
    assert counts == {
        "PASS": 34,
        "FAIL:value": 2,
        "FAIL:shape": 12,
        "FAIL:value+shape": 3,
        "FAIL:formula": 2,
    }


def test_value_deviation_set(table_results):
    got = {
        (res.row.table_id, res.row.index)
        for res in table_results
        if res.status in ("FAIL:value", "FAIL:value+shape", "FAIL:formula")
    }
    assert got == VALUE_DEVIATIONS


def test_shape_deviation_set(table_results):
    got = {
        (res.row.table_id, res.row.index)
        for res in table_results
        if res.status in ("FAIL:shape", "FAIL:value+shape", "FAIL:formula")
    }
    assert got == SHAPE_DEVIATIONS


def test_computed_periods_exact(table_results):
    for res in table_results:
        assert res.computed_period == res.row.period_expected


def test_fraction_rows_computed_exactly(table_results):
    by_key = {(r.row.table_id, r.row.index): r for r in table_results}
    assert by_key[("T1", 2)].computed_h == -1.0 / 3.0
    assert by_key[("T1", 3)].computed_h == -4.0 / 7.0


def test_formula_rows_report_the_rejected_candidate(table_results):
    by_key = {(r.row.table_id, r.row.index): r for r in table_results}
    res = by_key[("T5", 8)]
    assert res.status == "FAIL:formula"
    assert res.computed_h == 4.375
    res = by_key[("T3", 11)]
    assert res.status == "FAIL:formula"
    k, d = type2_coefficients(res.row.params)
    assert res.computed_h == -d / (k + 1.0)


def test_grade_row_matches_batch(table_results):
    assert grade_row(ROWS[0]) == table_results[0]
    assert isinstance(table_results[0], RowResult)


def test_selected_rows():
    res = grade_row(next(r for r in ROWS
                         if r.params == Params(2.0, 0.5, 2.5, 2.0)))
    assert res.status == "PASS"
    assert res.computed_h == -1.0 / 3.0
    res = grade_row(next(r for r in ROWS
                         if r.params == Params(1.5, 7.0, 4.0, 3.0)))
    assert res.status == "FAIL:shape"
    assert res.computed_h == pytest.approx(-4.3636, abs=5e-5)


def test_format_table_report(table_results):
    report = format_table_report(table_results)
    lines = report.splitlines()
    assert len(lines) == len(ROWS) + 1
    assert lines[-1] == "53 rows: 34 PASS, 19 FAIL"
    for res, line in zip(table_results, lines):
        assert res.status in line
        assert f"{res.row.table_id} #{res.row.index}" in line
    assert report.endswith("\n")


# --- coexistence pairing ----------------------------------------------------

def test_coexistence_canonical_pair():
    rep = coexistence_check(Params(1.0, 6.0, 3.0, 1.0))
    assert rep.h_unstable == -0.5
    assert rep.h_stable[0] == pytest.approx(-1.8, abs=1e-12)
    assert rep.h_stable[1] == pytest.approx(1.8, abs=1e-12)
    assert rep.dual == Params(6.0, 1.0, 1.0, 3.0)
    assert rep.shift_sup_distance <= 1e-11
    assert all(n <= 25 for n in rep.convergence_periods)
    assert all(r <= 1e-6 for r in rep.return_map_residuals)
    assert all(d <= 1e-6 for d in rep.tail_distances)
    blob = json.dumps(asdict(rep))
    decoded = json.loads(blob)
    assert decoded["h_unstable"] == -0.5
    assert decoded["dual"]["a1"] == 6.0
    assert len(decoded["tail_distances"]) == 2


def test_coexistence_slow_contraction_needs_longer_horizon():
    p = Params(0.5, 5.0, 4.0, 0.5)
    rep = coexistence_check(p, horizon_periods=45)
    assert rep.h_unstable == pytest.approx(-11.5 / 18.0, abs=1e-12)
    assert rep.h_stable[0] == pytest.approx(-5.0 / 9.0, abs=1e-12)
    assert all(d <= 1e-6 for d in rep.tail_distances)
    with pytest.raises(PairingFailed, match="settle"):
        coexistence_check(p, horizon_periods=6)


def test_coexistence_requires_validated_unstable_orbit():
    with pytest.raises(PairingFailed, match="unstable"):
        coexistence_check(Params(1.0, 0.25, 2.5, 1.5))
    # gates pass here but the assumed orbit is not the realized one
    with pytest.raises(PairingFailed, match="unstable"):
        coexistence_check(Params(2.0, 7.0, 2.0, 3.0))


def test_coexistence_refuses_a_horizon_over_the_cap():
    with pytest.raises(ValueError, match="above the cap"):
        coexistence_check(Params(1.0, 6.0, 3.0, 1.0), horizon_periods=10**8)


def test_coexistence_requires_validated_dual_orbit():
    # the dual of this point has d < 0, so no stable period-2T orbit exists
    with pytest.raises(PairingFailed, match="dual"):
        coexistence_check(Params(3.0, 7.0, 4.0, 1.0))


# --- parameter scans ---------------------------------------------------------

def test_scan_stable_box():
    rep = scan((0.9, 1.1), (0.225, 0.275), (2.25, 2.75), (1.35, 1.65), 3)
    assert rep.shape == (3, 3, 3, 3)
    assert len(rep.cells) == 81
    assert all(c.kinds[0] == "StableT" for c in rep.cells)
    assert rep.overlap_free


def test_scan_unstable_box():
    rep = scan((0.9, 1.1), (5.4, 6.6), (2.7, 3.3), (0.9, 1.1), 3)
    assert all(c.kinds[0] == "UnstableT" for c in rep.cells)
    assert rep.overlap_free


def test_scan_axes_span_the_ranges():
    rep = scan((1.0, 2.0), (0.5, 0.5), (2.0, 3.0), (1.0, 2.0), (3, 2, 3, 2))
    assert rep.axes[0] == (1.0, 1.5, 2.0)
    assert rep.axes[1] == (0.5, 0.5)
    assert rep.axes[2] == (2.0, 2.5, 3.0)
    assert rep.shape == (3, 2, 3, 2)


def test_scan_marks_equal_levels_as_boundary():
    rep = scan((1.0, 2.0), (1.0, 2.0), (1.5, 2.0), (1.5, 2.0), (3, 3, 2, 2))
    equal_cells = [c for c in rep.cells if c.a1 == c.a2]
    assert len(equal_cells) == 12
    for cell in equal_cells:
        assert cell.boundary
        assert cell.kinds == ("ShapeInvalid",)
    # determinism: a rerun reproduces the identical report
    assert rep == scan((1.0, 2.0), (1.0, 2.0), (1.5, 2.0), (1.5, 2.0),
                       (3, 3, 2, 2))


def test_scan_flags_unconstructible_points():
    rep = scan((1.0, 2.0), (0.2, 0.3), (0.2, 0.4), (0.3, 0.9), 2)
    invalid = [c for c in rep.cells if c.kinds == ("InvalidParams",)]
    assert len(invalid) == 8
    for cell in invalid:
        assert cell.p1 + cell.p2 <= 1.0
        assert not cell.boundary


def test_scan_validation():
    with pytest.raises(ValueError):
        scan((1, 2), (1, 2), (1, 2), (1, 2), 1)
    with pytest.raises(ValueError):
        scan((1, 2), (1, 2), (1, 2), (1, 2), (3, 3))
    with pytest.raises(ValueError):
        scan((0.0, 2.0), (1, 2), (1, 2), (1, 2), 2)
    with pytest.raises(ValueError):
        scan((2.0, 1.0), (1, 2), (1, 2), (1, 2), 2)
    # more cells than the 2,000,000 cap are refused before any axis is built
    with pytest.raises(ValueError, match="above the cap 2,000,000"):
        scan((1, 2), (1, 2), (1, 2), (1, 2), 38)
    with pytest.raises(ValueError, match="above the cap"):
        scan((1, 2), (1, 2), (1, 2), (1, 2), 10**9)


def test_scan_jsonable():
    rep = scan((0.9, 1.1), (5.4, 6.6), (2.7, 3.3), (0.9, 1.1), 2)
    decoded = json.loads(json.dumps(asdict(rep)))
    assert decoded["overlap_free"] is True
    assert len(decoded["cells"]) == 16
    assert decoded["cells"][0]["kinds"][0] == "UnstableT"
    assert len(decoded["axes"]) == 4


# --- smoothing convergence ----------------------------------------------------

def test_convergence_stable_orbit():
    tab = smoothing_convergence(Params(1.0, 0.25, 2.5, 1.5), -0.25,
                                (0.05, 0.025, 0.0125))
    assert [r.delta for r in tab.rows] == [0.05, 0.025, 0.0125]
    for prev, cur in zip(tab.rows, tab.rows[1:]):
        assert cur.max_dev_overall < prev.max_dev_overall
        ratio = cur.max_dev_overall / prev.max_dev_overall
        assert ratio == pytest.approx(0.5, abs=0.05)
    assert 0.4 < tab.fitted_c < 0.6
    assert tab.rows[-1].residual <= tab.fitted_c * tab.rows[-1].delta
    decoded = json.loads(json.dumps(asdict(tab)))
    assert len(decoded["rows"]) == 3
    assert decoded["fitted_c"] == tab.fitted_c


def test_convergence_double_period_orbit():
    tab = smoothing_convergence(Params(6.0, 1.0, 1.0, 3.0), -1.8,
                                (0.05, 0.025, 0.0125))
    for prev, cur in zip(tab.rows, tab.rows[1:]):
        assert cur.max_dev_overall < prev.max_dev_overall
    assert 2.3 < tab.fitted_c < 2.7


def test_convergence_single_delta():
    tab = smoothing_convergence(Params(1.0, 0.25, 2.5, 1.5), -0.25, [0.05])
    assert len(tab.rows) == 1


def test_convergence_validation():
    p = Params(1.0, 0.25, 2.5, 1.5)
    with pytest.raises(ValueError):
        smoothing_convergence(p, -0.25, ())
    with pytest.raises(ValueError):
        smoothing_convergence(p, -0.25, (0.025, 0.05))
    with pytest.raises(ValueError):
        smoothing_convergence(p, -0.25, (0.05, 0.0))
    with pytest.raises(ValueError):
        smoothing_convergence(p, -0.25, (0.8,))


def test_convergence_solves_once_per_half_width(monkeypatch):
    import relaydde.analysis as analysis_module
    solved = []

    def counting_integrate(*args, **kwargs):
        solved.append(args[1].delta)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(analysis_module, "integrate", counting_integrate)
    smoothing_convergence(Params(1.0, 0.25, 2.5, 1.5), -0.25, (0.2, 0.1), 5.0)
    assert solved == [0.2, 0.1]


def test_convergence_refuses_over_the_cap_before_any_solve(monkeypatch):
    # 2000 / (0.0125 / 16) is 2.56e6 steps; the run at 0.3 must not be solved
    # before the one at 0.0125 is refused
    import relaydde.analysis as analysis_module
    solved = []

    def counting_integrate(*args, **kwargs):
        solved.append(args[1].delta)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(analysis_module, "integrate", counting_integrate)
    with pytest.raises(ValueError, match="above the cap 2,000,000"):
        smoothing_convergence(Params(1.0, 0.25, 2.5, 1.5), -0.25, (0.3, 0.0125), 2000.0)
    assert solved == []


def test_convergence_failure_detected(monkeypatch):
    calls = iter([1e-3, 5e-3, 9e-3])

    def fake_compare(params, delta, h, sol):
        dev = next(calls)
        return {"max_dev_overall": dev, "max_dev_outside_corners": dev / 2.0,
                "corner_windows": ()}

    import relaydde.analysis as analysis_module
    monkeypatch.setattr(analysis_module, "integrate", lambda *args, **kwargs: None)
    monkeypatch.setattr(analysis_module, "compare_exact_smoothed", fake_compare)
    with pytest.raises(ConvergenceFailed, match="grew"):
        smoothing_convergence(Params(1.0, 0.25, 2.5, 1.5), -0.25,
                              (0.05, 0.025, 0.0125))
