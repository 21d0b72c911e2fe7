"""End-to-end tests for the command-line interface.

Every test invokes main(argv) in-process and checks the exit code, the
payload on stdout or in the declared output file, and that nothing else
gets written.  The over-the-cap refusals run the CLI in a subprocess under
a timeout, so a request that starts its work instead of refusing it fails
the test rather than hanging the run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import relaydde
from relaydde.cli import main
from relaydde.tables import ROWS


def test_simulate_stdout_breakpoints(capsys):
    code = main(["simulate", "--a1", "1", "--a2", "6", "--p1", "3", "--p2", "1",
                 "--h", "-0.5", "--t-end", "16", "--delta", "0",
                 "--format", "csv"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "t,x"
    assert lines[1] == "0.0,-0.5"
    assert lines[2] == "0.5,0.0"
    # the horizon itself is always the final breakpoint
    assert lines[-1].startswith("16.0,")


def test_simulate_csv_round_trip(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["simulate", "--a1", "1", "--a2", "0.25", "--p1", "2.5",
                 "--p2", "1.5", "--h", "-0.25", "--t-end", "12",
                 "--output", "sim.csv"])
    assert code == 0
    text = (tmp_path / "sim.csv").read_text()
    lines = text.splitlines()
    rebuilt = [lines[0]]
    for line in lines[1:]:
        rebuilt.append(",".join(repr(float(tok)) for tok in line.split(",")))
    assert "\n".join(rebuilt) + "\n" == text
    # no stray writes beside the declared output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sim.csv"]


def test_simulate_smoothed_json(capsys):
    code = main(["simulate", "--a1", "1", "--a2", "6", "--p1", "3", "--p2", "1",
                 "--h", "-0.5", "--t-end", "6", "--delta", "0.05",
                 "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["times"]) == len(payload["values"]) == len(payload["derivs"])
    assert payload["times"][0] == -1.0
    assert payload["times"][-1] == 6.0
    assert payload["step"] > 0.0
    assert payload["events"]


@pytest.mark.parametrize("work", [["--t-end", "30", "--delta", "0.01", "--step", "1e-9"],
                                  ["--t-end", "1e300", "--delta", "0.3"]])
def test_simulate_over_the_sample_cap_refused(work, capsys):
    assert main(["simulate", "--a1", "1", "--a2", "0.25", "--p1", "2.5", "--p2", "1.5",
                 "--h", "-0.25", *work]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: t_end ")
    assert "above the cap 2,000,000" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["simulate", "--a1", "1", "--a2", "0.25", "--p1", "2.5", "--p2", "1.5",
     "--h", "-0.25", "--t-end", "1e300", "--delta", "0"],
    ["coexist", "--a1", "1", "--a2", "6", "--p1", "3", "--p2", "1",
     "--horizon", "100000000"],
    ["scan", "--a1", "1", "--a2", "0.25", "--p1", "2.5", "--p2", "1.5",
     "--resolution", "1000"],
    ["smooth", "--a1", "1", "--a2", "0.25", "--p1", "2.5", "--p2", "1.5",
     "--h", "-0.25", "--deltas", "0.3,0.0125", "--t-end", "2000"],
], ids=["simulate-exact", "coexist", "scan", "smooth"])
def test_over_the_cap_refused_at_once(argv):
    src = str(Path(relaydde.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-m", "relaydde.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ")
    assert "above the cap 2,000,000" in done.stderr
    assert "Traceback" not in done.stderr


def test_classify_json_verdict(capsys):
    code = main(["classify", "--a1", "5", "--a2", "1", "--p1", "1",
                 "--p2", "3.5"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    verdict = payload["verdicts"][0]
    assert verdict["kind"] == "Stable2T"
    assert verdict["validated"] is True
    assert round(verdict["h_star"][0], 3) == -0.938
    assert verdict["period"] == 9.0
    assert payload["basin"]["kind"] == "all_nonzero"


def test_classify_csv_format(capsys):
    code = main(["classify", "--a1", "5", "--a2", "1", "--p1", "1",
                 "--p2", "3.5", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("kind,h_star_low,h_star_high,period")
    assert lines[1].startswith("Stable2T,-0.9375,0.9375,9.0")


def test_tables_exit_code_report_and_rows(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["tables", "--output", "rows.csv", "--format", "csv"])
    # documented benchmark deviations exist, so the regression gate trips
    assert code == 3
    out = capsys.readouterr().out
    assert "T1 #1" in out
    assert out.rstrip().endswith("53 rows: 34 PASS, 19 FAIL")
    lines = (tmp_path / "rows.csv").read_text().splitlines()
    assert len(lines) == 1 + len(ROWS)
    statuses = [line.rsplit(",", 1)[1] for line in lines[1:]]
    assert statuses.count("PASS") == 34
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.csv"]


def test_tables_json_statuses_match_dataset(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["tables", "--output", "rows.json"]) == 3
    payload = json.loads((tmp_path / "rows.json").read_text())
    assert len(payload) == len(ROWS)
    by_key = {(r.table_id, r.index): r.expect_status for r in ROWS}
    for entry in payload:
        assert entry["status"] == by_key[(entry["table"], entry["index"])]


def test_scan_output_respects_outdir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    outdir = tmp_path / "artifacts" / "run1"
    monkeypatch.setenv("RELAYDDE_OUTDIR", str(outdir))
    code = main(["scan", "--a1", "1", "--a2", "0.25", "--p1", "2.5",
                 "--p2", "1.5", "--resolution", "2", "--output", "sc.json"])
    assert code == 0
    payload = json.loads((outdir / "sc.json").read_text())
    assert len(payload["cells"]) == 16
    assert payload["overlap_free"] is True
    assert payload["kind_counts"]["StableT"] == 16
    summary = capsys.readouterr().out
    assert "16 cells" in summary
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifacts"]


def test_scan_absolute_output_ignores_outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("RELAYDDE_OUTDIR", str(tmp_path / "elsewhere"))
    target = tmp_path / "direct.csv"
    code = main(["scan", "--a1", "1", "--a2", "6", "--p1", "3", "--p2", "1",
                 "--resolution", "2", "--format", "csv",
                 "--output", str(target)])
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "a1,a2,p1,p2,kinds,boundary"
    assert len(lines) == 17
    assert all("UnstableT" in line for line in lines[1:])


def test_smooth_csv(capsys):
    code = main(["smooth", "--a1", "1", "--a2", "0.25", "--p1", "2.5",
                 "--p2", "1.5", "--h", "-0.25", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "delta,max_dev_overall,residual"
    assert len(lines) == 4
    devs = [float(line.split(",")[1]) for line in lines[1:]]
    assert devs[0] > devs[1] > devs[2]


def test_coexist_json(capsys):
    code = main(["coexist", "--a1", "1", "--a2", "6", "--p1", "3", "--p2", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["h_unstable"] == -0.5
    assert payload["h_stable"][0] == pytest.approx(-1.8, abs=1e-12)
    assert all(n <= 25 for n in payload["convergence_periods"])
    assert all(d <= 1e-6 for d in payload["tail_distances"])


def test_config_supplies_flags_and_explicit_flags_win(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("a1 = 1\na2 = 0.25  # comment\np1 = 2.5\np2 = 1.5\n"
                   "h = -0.25\nt_end = 12\n")
    assert main(["simulate", "--config", "run.cfg"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1].startswith("12.0,")
    assert main(["simulate", "--config", "run.cfg", "--t-end", "4"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1].startswith("4.0,")
    # keys that are no flag of the command are ignored
    cfg.write_text(cfg.read_text() + "help = 1\ndeltas = 0.2,0.1\n")
    assert main(["simulate", "--config", "run.cfg"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("12.0,")
    # malformed config values are input errors, typed and checked as the flags are
    for command, bad, message in (
            ("simulate", "a1 = x\n", "config value for 'a1' is not valid"),
            ("simulate", "profile = step\n", "unknown profile 'step'"),
            ("simulate", "format = xml\n", "unknown format 'xml'"),
            ("scan", "resolution = 2.5\n", "config value for 'resolution' is not valid")):
        cfg.write_text(bad)
        assert main([command, "--config", "run.cfg"]) == 2
        assert message in capsys.readouterr().err


def test_exit_codes(capsys, tmp_path):
    # missing required value
    assert main(["simulate", "--a1", "1", "--a2", "6", "--p1", "3",
                 "--p2", "1", "--t-end", "16"]) == 2
    assert "--h" in capsys.readouterr().err
    # invalid parameter value
    assert main(["classify", "--a1", "-1", "--a2", "1", "--p1", "2",
                 "--p2", "1"]) == 2
    assert "a1" in capsys.readouterr().err
    # argparse-level rejection
    assert main(["classify", "--a1", "abc", "--a2", "1", "--p1", "2",
                 "--p2", "1"]) == 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    # computational failure: no unstable orbit to pair
    assert main(["coexist", "--a1", "1", "--a2", "0.25", "--p1", "2.5",
                 "--p2", "1.5"]) == 1
    assert "unstable" in capsys.readouterr().err
    # malformed study list
    assert main(["smooth", "--a1", "1", "--a2", "0.25", "--p1", "2.5",
                 "--p2", "1.5", "--h", "-0.25", "--deltas", "0.05,xx"]) == 2
    capsys.readouterr()
    # study horizon within the delay
    assert main(["smooth", "--a1", "1", "--a2", "0.25", "--p1", "2.5",
                 "--p2", "1.5", "--h", "-0.25", "--t-end", "1"]) == 2
    assert capsys.readouterr() == ("", "error: t_end must exceed the delay 1\n")
    # missing config file
    assert main(["classify", "--a1", "1", "--a2", "6", "--p1", "3",
                 "--p2", "1", "--config", str(tmp_path / "nope.cfg")]) == 2
    capsys.readouterr()
    # help exits cleanly
    assert main(["--help"]) == 0
    assert "usage" in capsys.readouterr().out


def test_scan_span_validation(capsys):
    assert main(["scan", "--a1", "1", "--a2", "6", "--p1", "3", "--p2", "1",
                 "--span", "1.5"]) == 2
    assert "--span" in capsys.readouterr().err
    assert main(["scan", "--a1", "1", "--a2", "6", "--p1", "3", "--p2", "1",
                 "--resolution", "1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("point", [("1e300", "1e-300", "1e300", "1"),
                                   ("1e300", "1e300", "1e300", "1e300")])
def test_classify_non_finite_coefficients_rejected(point, fmt, capsys):
    flags = [tok for name, v in zip(("a1", "a2", "p1", "p2"), point)
             for tok in (f"--{name}", v)]
    assert main(["classify", *flags, "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "not finite" in captured.err
    assert "Traceback" not in captured.err
