"""Behavioral tests for the experiment layer."""

import json
from collections import Counter
from dataclasses import asdict

import pytest

from relaydde import maps
from relaydde.analysis import (
    ConvergenceFailed,
    PairingFailed,
    RowResult,
    coexistence_check,
    grade_row,
    reproduce_tables,
    scan,
    smoothing_convergence,
)
from relaydde.maps import classify, type2_coefficients
from relaydde.model import Params
from relaydde.numeric import integrate
from relaydde.tables import ROWS, TableRow

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


def test_formula_rows_with_no_defined_level_report_none():
    # m = 1 and k = -1: no branch applies and neither closed-form level exists
    params = Params(2.0, 2.0, 2.0, 1.0)
    for table_id, expected in (("T1", (None, 3.0, "FAIL:formula")),
                               ("T3", (None, 6.0, "FAIL:formula"))):
        res = grade_row(TableRow(table_id, 1, params, -1.0, 3.0, 4, "PASS"))
        assert (res.computed_h, res.computed_period, res.status) == expected


def test_grading_does_not_read_the_reason_text(monkeypatch, table_results):
    # relabel every branch with a text that names no family: each row is
    # still graded by the family its candidate carries, exactly as before
    relabelled = tuple(b._replace(label=f"candidate {i}") for i, b in enumerate(maps._BRANCHES))
    monkeypatch.setattr(maps, "_BRANCHES", relabelled)
    assert classify(Params(7.0, 0.5, 2.0, 3.0))[0].reason.startswith("candidate 2: ")
    regraded = [grade_row(r.row) for r in table_results]
    assert len(regraded) == 53
    assert ([(r.computed_h, r.computed_period, r.status) for r in regraded]
            == [(r.computed_h, r.computed_period, r.status) for r in table_results])


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


@pytest.mark.parametrize("horizon", [0, 1, 2])
def test_coexistence_refuses_a_horizon_below_three(horizon, monkeypatch):
    import relaydde.analysis as analysis_module
    classified = []
    monkeypatch.setattr(analysis_module, "classify", classified.append)
    with pytest.raises(ValueError, match=f"at least 3, got {horizon}"):
        coexistence_check(Params(1.0, 6.0, 3.0, 1.0), horizon_periods=horizon)
    assert classified == []


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


@pytest.mark.parametrize("box", [
    ((0.5, 1.5), (3.0, 9.0), (0.2, 4.0), (0.2, 2.0)),  # around (1, 6, 3, 1)
    ((0.5, 1.5), (0.1, 0.5), (0.25, 3.5), (0.25, 2.5)),  # around (1, 0.25, 2.5, 1.5)
])
def test_scan_cells_agree_with_classify(box):
    # scan reads classify's core without building records; each cell must
    # carry the kinds and boundary classify reports for its point
    rep = scan(*box, 6)
    assert len(rep.cells) == 6**4
    invalid = 0
    for c in rep.cells:
        try:
            params = Params(c.a1, c.a2, c.p1, c.p2)
        except ValueError:
            invalid += 1
            assert (c.kinds, c.boundary) == (("InvalidParams",), False)
            continue
        verdicts = classify(params)
        assert c.kinds == tuple(v.kind for v in verdicts)
        assert c.boundary == any(v.boundary for v in verdicts)
    assert invalid > 0


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


@pytest.mark.parametrize("p2_hi, refused", [(831.0, False), (832.0, True)])
def test_scan_caps_its_estimated_events_before_any_cell_runs(p2_hi, refused, monkeypatch):
    # 16 cells * 3 periods * (2 T + 4) events: T = 20831 estimates 1,999,968
    # events and T = 20832 estimates 2,000,064, against the cap 2,000,000
    import relaydde.analysis as analysis_module
    ran = []

    def no_verdicts(params):  # a cell that runs nothing: no boundary, no verdicts
        ran.append(params)
        return False, []

    monkeypatch.setattr(analysis_module, "_verdicts", no_verdicts)
    box = ((1.0, 2.0), (1.0, 2.0), (1.0, 20000.0), (1.0, p2_hi))
    if refused:
        with pytest.raises(ValueError, match="periods up to 20832 asks for about 2e[+]06 "
                                             "events, above the cap 2,000,000"):
            scan(*box, 2)
        assert ran == []
    else:
        assert len(scan(*box, 2).cells) == len(ran) == 16


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
    import relaydde.numeric as numeric_module
    solved = []

    def counting_integrate(*args, **kwargs):
        solved.append(args[1].delta)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(numeric_module, "integrate", counting_integrate)
    smoothing_convergence(Params(1.0, 0.25, 2.5, 1.5), -0.25, (0.2, 0.1), 5.0)
    assert solved == [0.2, 0.1]


def test_convergence_refuses_over_the_cap_before_any_solve(monkeypatch):
    # 2000 / (0.0125 / 16) is 2.56e6 steps; the run at 0.3 must not be solved
    # before the one at 0.0125 is refused
    import relaydde.numeric as numeric_module
    solved = []

    def counting_integrate(*args, **kwargs):
        solved.append(args[1].delta)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(numeric_module, "integrate", counting_integrate)
    with pytest.raises(ValueError, match="above the cap 2,000,000"):
        smoothing_convergence(Params(1.0, 0.25, 2.5, 1.5), -0.25, (0.3, 0.0125), 2000.0)
    assert solved == []


def test_convergence_refuses_a_zero_history_before_any_solve(monkeypatch):
    import relaydde.numeric as numeric_module

    def no_integrate(*args, **kwargs):
        raise AssertionError("integrate ran before h was checked")

    monkeypatch.setattr(numeric_module, "integrate", no_integrate)
    with pytest.raises(ValueError, match="nonzero and finite"):
        smoothing_convergence(Params(1.0, 0.25, 2.5, 1.5), 0.0, (0.05,), 6000.0)


def test_convergence_failure_detected(monkeypatch):
    calls = iter([1e-3, 5e-3, 9e-3])

    def fake_compare(params, h, sol):
        dev = next(calls)
        return {"max_dev_overall": dev, "max_dev_outside_corners": dev / 2.0,
                "corner_windows": ()}

    import relaydde.numeric as numeric_module
    monkeypatch.setattr(numeric_module, "integrate", lambda *args, **kwargs: None)
    monkeypatch.setattr(numeric_module, "compare_exact_smoothed", fake_compare)
    with pytest.raises(ConvergenceFailed, match="grew"):
        smoothing_convergence(Params(1.0, 0.25, 2.5, 1.5), -0.25,
                              (0.05, 0.025, 0.0125))
