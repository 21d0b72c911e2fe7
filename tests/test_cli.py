"""End-to-end tests for the command-line interface.

Every test invokes main(argv) in-process and checks the exit code, the
payload on stdout or in the declared output file, and that nothing else
gets written.  The over-the-cap refusals run the CLI in a subprocess under
a timeout, so a request that starts its work instead of refusing it fails
the test rather than hanging the run; the hash-seed check runs one
subprocess per PYTHONHASHSEED, which is fixed when an interpreter starts,
and the numpy and BLAS-thread checks run each command in a fresh
interpreter, because a module once imported stays in sys.modules and
OpenBLAS reads OPENBLAS_NUM_THREADS only when numpy loads.
"""

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import relaydde
import relaydde.cli as cli_module
from _csvwriter import csv_reference
from relaydde.cli import _build_parser, main
from relaydde.exact import ConstantHistory, propagate, zeros
from relaydde.model import Params, SmoothingSpec
from relaydde.numeric import integrate
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


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
@pytest.mark.parametrize("delta, t_end, chunk", [
    # the chunk size as a function of the table's n rows; None keeps the CLI's own,
    # which the exact engine's table, passed whole, does not use
    (0.3, 6.0, lambda n: n + 1),
    (0.3, 6.0, lambda n: n),
    (0.3, 6.0, lambda n: n - 1),
    (0.3, 6.0, lambda n: n // 5 + 1),
    (0.3, 90.0, None),
    (0.0, 200.0, None),
], ids=["rows=chunk-1", "rows=chunk", "rows=chunk+1", "several-chunks", "own-chunk-size",
        "exact"])
def test_simulate_csv_bytes_match_the_whole_table_writer(delta, t_end, chunk, to_file,
                                                         tmp_path, monkeypatch, capsysbinary):
    params = Params(1.0, 0.25, 2.5, 1.5)
    if delta:
        sol = integrate(params, SmoothingSpec(delta), -0.25, t_end)
        columns = (sol.times, sol.values, sol.derivs)
        want = csv_reference(["t", "x", "dx"], zip(*(c.tolist() for c in columns)))
    else:
        path = propagate(params, ConstantHistory(-0.25), t_end)
        want = csv_reference(["t", "x"], zip(path.times, path.values))
    n = want.count("\n") - 1
    if chunk is not None:
        monkeypatch.setattr(cli_module, "_CHUNK", chunk(n))
    elif delta:
        assert n > 2 * cli_module._CHUNK
    out = tmp_path / "sim.csv"
    argv = ["simulate", "--a1", "1", "--a2", "0.25", "--p1", "2.5", "--p2", "1.5",
            "--h", "-0.25", "--t-end", repr(t_end), "--delta", repr(delta)]
    assert main(argv + (["--output", str(out)] if to_file else [])) == 0
    got = capsysbinary.readouterr()
    assert got.err == b""
    if to_file:
        assert got.out == b""
        assert out.read_bytes() == want.encode()
    else:
        assert got.out == want.encode()


class _CountingStdout(io.StringIO):
    """A stdout that counts the writes it receives."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("delta, t_end", [(0.3, 90.0), (0.0, 1000.0)], ids=["smoothed", "exact"])
def test_csv_tables_are_written_one_block_of_chunk_rows_at_a_time(delta, t_end, monkeypatch):
    # on an unbuffered stdout (python -u, PYTHONUNBUFFERED=1) every write is a
    # system call, so a table of n rows must take ceil(n / _CHUNK) writes, not n
    params = Params(1.0, 0.25, 2.5, 1.5)
    if delta:
        sol = integrate(params, SmoothingSpec(delta), -0.25, t_end)
        want = csv_reference(["t", "x", "dx"],
                             zip(*(c.tolist() for c in (sol.times, sol.values, sol.derivs))))
    else:
        path = propagate(params, ConstantHistory(-0.25), t_end)
        want = csv_reference(["t", "x"], zip(path.times, path.values))
    n = want.count("\n") - 1
    assert n > 2 * cli_module._CHUNK
    out = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    argv = ["simulate", "--a1", "1", "--a2", "0.25", "--p1", "2.5", "--p2", "1.5",
            "--h", "-0.25", "--t-end", repr(t_end), "--delta", repr(delta)]
    assert main(argv) == 0
    assert out.getvalue() == want
    assert out.writes == -(-n // cli_module._CHUNK)


@pytest.mark.parametrize("output", [None, "rows.csv"], ids=["stdout", "output"])
def test_tables_report_is_written_in_one_block(output, tmp_path, monkeypatch):
    # on an unbuffered stdout every write is a system call: the 54-line report
    # takes one, where a print per line took two per line
    monkeypatch.chdir(tmp_path)
    out = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["tables"] + (["--output", output] if output else [])) == 3
    assert out.getvalue().count("\n") == len(ROWS) + 1
    assert out.writes == 1


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


def test_simulate_step_above_delta_over_16_is_invalid_input(capsys):
    assert main(["simulate", "--a1", "1", "--a2", "0.25", "--p1", "2.5", "--p2", "1.5",
                 "--h", "-0.25", "--t-end", "5", "--delta", "0.3", "--step", "0.1"]) == 2
    assert capsys.readouterr() == ("", "error: step 0.1 exceeds delta/16 = 0.01875\n")


def test_simulate_exact_json_payload(capsys):
    params = Params(1.0, 0.25, 2.5, 1.5)
    path = propagate(params, ConstantHistory(-0.25), 4.0)
    assert main(["simulate", "--a1", "1", "--a2", "0.25", "--p1", "2.5", "--p2", "1.5",
                 "--h", "-0.25", "--t-end", "4", "--delta", "0", "--format", "json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert list(blob) == ["start_time", "breakpoints", "segments", "zeros"]
    assert [tuple(bp) for bp in blob["breakpoints"]] == list(zip(path.times, path.values))
    assert blob["start_time"] == 0.0
    assert blob["breakpoints"][0] == [0.0, -0.25]
    assert blob["zeros"] == zeros(path)
    assert len(blob["segments"]) == len(path.times) - 1
    first = blob["segments"][0]
    assert first == {"t0": 0.0, "t1": path.times[1], "x0": -0.25, "x1": path.values[1],
                     "slope": (path.values[1] + 0.25) / path.times[1]}


@pytest.mark.parametrize("flag", [["--step", "0.01"], ["--profile", "smoothexp"]])
def test_simulate_exact_refuses_smoothing_flags(flag, tmp_path, capsys):
    point = ["--a1", "1", "--a2", "6", "--p1", "3", "--p2", "1", "--h", "-0.5",
             "--t-end", "4", "--delta", "0"]
    refused = ("", f"error: {flag[0]} applies only with --delta > 0; "
                   "--delta 0 runs the exact engine\n")
    assert main(["simulate", *point, *flag]) == 2
    assert capsys.readouterr() == refused
    # the same value from a config file is refused the same way
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag[0][2:]} = {flag[1]}\n")
    assert main(["simulate", *point, "--config", str(cfg)]) == 2
    assert capsys.readouterr() == refused


def _python(args, **env_vars):
    """A fresh interpreter on this package, with its real stderr, under a timeout;
    an env_vars value of None removes that variable."""
    src = str(Path(relaydde.__file__).resolve().parents[1])
    env = {name: value for name, value in {**os.environ, "PYTHONPATH": src, **env_vars}.items()
           if value is not None}
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=60)


def _run_cli(argv, **env_vars):
    """The CLI in a subprocess, with its real stderr, under a timeout."""
    return _python(["-m", "relaydde.cli", *argv], **env_vars)


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
    done = _run_cli(argv)
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


def test_tables_report_has_one_line_per_row(table_results, capsys):
    assert main(["tables"]) == 3
    report = capsys.readouterr().out
    lines = report.splitlines()
    assert len(lines) == len(ROWS) + 1
    assert lines[-1] == "53 rows: 34 PASS, 19 FAIL"
    for res, line in zip(table_results, lines):
        assert res.status in line
        assert f"{res.row.table_id} #{res.row.index}" in line
    assert report.endswith("\n")


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


def test_scan_kind_counts_independent_of_hash_seed():
    # cells here list Diverges2T and UnstableT; kind_counts must not follow
    # the hash order of a set of kind names
    argv = ["scan", "--a1", "1.1", "--a2", "6.6", "--p1", "3.3", "--p2", "1.1",
            "--span", "0.1", "--resolution", "2"]
    runs = [_run_cli(argv, PYTHONHASHSEED=seed) for seed in ("11", "13")]
    assert [run.returncode for run in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
    payload = json.loads(runs[0].stdout)
    first_seen = list(dict.fromkeys(k for cell in payload["cells"] for k in cell["kinds"]))
    assert list(payload["kind_counts"]) == first_seen
    assert len(first_seen) > 1


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
            ("simulate", "a1 = x\n", "argument --a1: invalid float value: 'x'"),
            ("simulate", "profile = step\n", "argument --profile: invalid choice: 'step'"),
            ("simulate", "format = xml\n", "argument --format: invalid choice: 'xml'"),
            ("scan", "resolution = 2.5\n", "argument --resolution: invalid int value: '2.5'")):
        cfg.write_text(bad)
        assert main([command, "--config", "run.cfg"]) == 2
        assert message in capsys.readouterr().err


def test_config_text_format(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    # comment lines, inline comments and blank lines are skipped
    cfg.write_text("\n# simulation setup\n  a1 = 1.0\na2 = 6.0   # fast level\n\n"
                   "p1 = 3.0\np2 = 1.0\nformat = json\n")
    assert main(["classify", "--config", str(cfg)]) == 0
    via_config = capsys.readouterr().out
    assert main(["classify", "--a1", "1", "--a2", "6", "--p1", "3", "--p2", "1"]) == 0
    assert capsys.readouterr().out == via_config
    for bad, message in (("a1 1.0\n", "error: config line 1: expected 'key = value', "
                                      "got 'a1 1.0'\n"),
                         ("# header\n= 3\n", "error: config line 2: expected 'key = value', "
                                             "got '= 3'\n")):
        cfg.write_text(bad)
        assert main(["classify", "--config", str(cfg)]) == 2
        assert capsys.readouterr() == ("", message)


def test_config_keys_may_be_spelled_like_the_flag(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("a1 = 1\na2 = 6\np1 = 3\np2 = 1\nh = -0.5\nt-end = 4\n")
    assert main(["simulate", "--config", str(cfg)]) == 0
    via_config = capsys.readouterr().out
    assert via_config.splitlines()[-1].startswith("4.0,")
    assert main(["simulate", "--a1", "1", "--a2", "6", "--p1", "3", "--p2", "1",
                 "--h", "-0.5", "--t-end", "4"]) == 0
    assert capsys.readouterr().out == via_config


def test_config_refuses_a_repeated_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    for text, message in (
            ("a1 = 1\na2 = 6\np1 = 3\np2 = 1\n# again\na1 = 5\n",
             "error: config line 6: 'a1' was already set on line 1\n"),
            ("a1 = 1\na2 = 6\np1 = 3\np2 = 1\nt_end = 4\nt-end = 5\n",
             "error: config line 6: 't-end' was already set on line 5\n")):
        cfg.write_text(text)
        assert main(["classify", "--config", str(cfg)]) == 2
        assert capsys.readouterr() == ("", message)


def test_help_shows_every_default(capsys):
    _, schema = _build_parser()
    defaults = {}
    for command, flags in schema.items():
        assert main([command, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        for dest, action in flags.items():
            if action.default is not None:
                defaults[command, dest] = action.default
                assert f"(default {action.default})" in text, (command, dest)
    assert defaults == {
        **{(command, "format"): "json"
           for command in ("classify", "tables", "scan", "smooth", "coexist")},
        ("simulate", "format"): "csv", ("simulate", "delta"): 0.0,
        ("scan", "span"): 0.1, ("scan", "resolution"): 3,
        ("smooth", "t_end"): 30.0, ("smooth", "deltas"): "0.05,0.025,0.0125",
        ("coexist", "horizon"): 30,
    }


def test_zero_history_depends_on_the_engine(capsys):
    point = ["--a1", "1", "--a2", "6", "--p1", "3", "--p2", "1", "--h", "0", "--t-end", "4"]
    # the smoothed system keeps the invariant zero solution
    assert main(["simulate", *point, "--delta", "0.1"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows and all(float(x) == float(dx) == 0.0 for _, x, dx in rows)
    # the exact engine needs a nonzero history
    assert main(["simulate", *point, "--delta", "0"]) == 2
    assert capsys.readouterr() == (
        "", "error: history value must be nonzero and finite, got 0.0\n")


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
    # too short a coexistence horizon
    assert main(["coexist", "--a1", "1", "--a2", "6", "--p1", "3", "--p2", "1",
                 "--horizon", "2"]) == 2
    assert capsys.readouterr() == ("", "error: horizon_periods must be at least 3, got 2\n")
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


def test_scan_refuses_a_box_of_long_periods(capsys):
    # periods up to about 81,596, and a cell costs about as much as its period
    # is long: the grid is refused on its estimated events, not its 16 cells
    assert main(["scan", "--a1", "3.877504", "--a2", "1.2", "--p1", "54390",
                 "--p2", "7.506956", "--span", "0.5", "--resolution", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "events, above the cap 2,000,000" in captured.err


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


def test_classify_reports_a_stalled_candidate_and_exits_zero(capsys):
    # the UnstableT candidate's zero rounds onto a knot; the point still gets
    # its verdicts, with the stall as that candidate's ShapeInvalid reason
    code = main(["classify", "--a1", "6.80590627692909e-08", "--a2", "89821109.01055714",
                 "--p1", "3.0579782907825916", "--p2", "2.5215713441926413"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    verdicts = json.loads(captured.out)["verdicts"]
    assert [v["kind"] for v in verdicts] == ["Diverges2T", "ShapeInvalid"]
    assert "does not lie after the current event at t = " in verdicts[1]["reason"]


def _strict_json(text):
    """Parse JSON and refuse the NaN and Infinity that strict JSON lacks."""
    def refuse(name):
        raise AssertionError(f"non-finite {name} in JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("argv", [
    ["classify", "--a1", "3e307", "--a2", "2.97e307", "--p1", "0.6", "--p2", "0.6"],
    ["scan", "--a1", "3e307", "--a2", "2.97e307", "--p1", "0.6", "--p2", "0.6",
     "--resolution", "2"],
], ids=["classify", "scan"])
def test_overflowed_candidate_levels_exit_zero_with_finite_json(argv):
    done = _run_cli(argv)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    payload = _strict_json(done.stdout)
    if argv[0] == "classify":
        assert [v["reason"] for v in payload["verdicts"]] == [
            "stable two-zero candidate: starting level is not finite",
            "one-zero two-cycle candidate: starting level is not finite",
        ]


def test_underflowed_candidate_level_exits_zero_with_finite_json(capsys):
    # h* = b / (m - 1) underflows to -0.0: the ShapeInvalid verdict keeps it
    code = main(["classify", "--a1", "1e-150", "--a2", "1e150", "--p1", "1.5", "--p2", "3.0"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    verdicts = _strict_json(captured.out)["verdicts"]
    assert [v["kind"] for v in verdicts] == ["Diverges2T", "ShapeInvalid"]
    assert verdicts[1]["reason"] == "unstable two-zero candidate: starting level is not negative"
    assert math.copysign(1.0, verdicts[1]["h_star"]) == -1.0 and verdicts[1]["h_star"] == 0.0


def test_non_finite_state_names_where_it_happened():
    done = _run_cli(["simulate", "--a1", "1e308", "--a2", "1e308", "--p1", "1", "--p2", "1",
                     "--h=-1e308", "--delta", "0.1", "--t-end", "3"])
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("error: state became non-finite near t = 0.00625")
    for name in ("last finite x = -1e+308 at t = 0.0", "a1=1e+308", "delta = 0.1"):
        assert name in done.stderr
    assert "Traceback" not in done.stderr
    assert "RuntimeWarning" not in done.stderr


# Runs main(argv) when given arguments, or only imports the package, and
# reports on its last five stderr lines whether numpy was loaded, which
# relaydde submodules were, dir(relaydde), OPENBLAS_NUM_THREADS and, on
# Linux, the process's OS thread count (null elsewhere).
_NUMPY_PROBE = """
import sys
import relaydde
code = 0
if sys.argv[1:]:
    from relaydde.cli import main
    code = main(sys.argv[1:])
import json
import os
modules = sorted(m for m in sys.modules if m.startswith("relaydde."))
threads = None
if sys.platform.startswith("linux"):
    with open("/proc/self/status") as status:
        threads = next(int(line.split()[1]) for line in status if line.startswith("Threads:"))
sys.stderr.write(f"\\nnumpy loaded: {'numpy' in sys.modules}\\n{json.dumps(modules)}\\n"
                 f"{json.dumps(dir(relaydde))}\\n"
                 f"{json.dumps(os.environ.get('OPENBLAS_NUM_THREADS'))}\\n{threads}\\n")
raise SystemExit(code)
"""

_POINT = ["--a1", "1", "--a2", "0.25", "--p1", "2.5", "--p2", "1.5"]
# what dir(relaydde) listed when the package imported every submodule up front
_FRESH_DIR = sorted([*relaydde.__all__, "__all__", "__builtins__", "__cached__", "__doc__",
                     "__file__", "__loader__", "__name__", "__package__", "__path__",
                     "__spec__", "__version__", "analysis", "exact", "maps", "model",
                     "numeric", "tables"])


@pytest.mark.parametrize("argv, code, loads_numpy, modules", [
    ([], 0, False, ""),
    (["classify", *_POINT], 0, False, "cli exact maps model"),
    (["tables"], 3, False, "analysis cli exact maps model tables"),
    (["coexist", "--a1", "1", "--a2", "6", "--p1", "3", "--p2", "1"], 0, False,
     "analysis cli exact maps model"),
    (["scan", *_POINT, "--resolution", "2"], 0, False, "analysis cli exact maps model"),
    (["simulate", *_POINT, "--h", "-0.25", "--t-end", "4", "--delta", "0"], 0, False,
     "cli exact model"),
    # controls: these integrate, so the probe must see numpy
    (["simulate", *_POINT, "--h", "-0.25", "--t-end", "4", "--delta", "0.3"], 0, True,
     "cli exact model numeric"),
    (["smooth", *_POINT, "--h", "-0.25", "--t-end", "4", "--deltas", "0.2,0.1"], 0, True,
     "analysis cli exact maps model numeric"),
], ids=["import", "classify", "tables", "coexist", "scan", "simulate-exact",
        "simulate-smoothed", "smooth"])
def test_numpy_loads_only_for_smoothed_work(argv, code, loads_numpy, modules):
    # the child starts without OPENBLAS_NUM_THREADS, so main's default shows:
    # one thread, and no idle OpenBLAS worker beside it
    done = _python(["-c", _NUMPY_PROBE, *argv], OPENBLAS_NUM_THREADS=None)
    assert done.returncode == code, done.stderr
    numpy_line, modules_line, dir_line, blas_line, threads_line = done.stderr.splitlines()[-5:]
    assert numpy_line == f"numpy loaded: {loads_numpy}"
    assert json.loads(modules_line) == [f"relaydde.{m}" for m in modules.split()]
    assert json.loads(dir_line) == sorted(_FRESH_DIR + (["cli"] if argv else []))
    assert json.loads(blas_line) == ("1" if argv else None)
    if sys.platform.startswith("linux"):
        assert threads_line == "1"


def test_a_blas_thread_count_the_caller_set_is_kept():
    argv = ["simulate", *_POINT, "--h", "-0.25", "--t-end", "4", "--delta", "0.3"]
    done = _python(["-c", _NUMPY_PROBE, *argv], OPENBLAS_NUM_THREADS="2")
    assert done.returncode == 0, done.stderr
    numpy_line, _, _, blas_line, _ = done.stderr.splitlines()[-5:]
    assert numpy_line == "numpy loaded: True"
    assert json.loads(blas_line) == "2"


def test_no_blas_default_once_numpy_is_loaded(monkeypatch, capsys):
    # OpenBLAS read its environment when numpy loaded; a default set now
    # would only reach this process's children
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert "numpy" in sys.modules
    assert main(["classify", *_POINT]) == 0
    assert "OPENBLAS_NUM_THREADS" not in os.environ


@pytest.mark.parametrize("argv", [
    ["simulate", *_POINT, "--h", "-0.25", "--delta", "0.3", "--t-end", "300"],
    ["smooth", *_POINT, "--h", "-0.25", "--deltas", "0.2,0.1"],
], ids=["simulate-smoothed-csv", "smooth-json"])
def test_smoothed_output_does_not_depend_on_the_blas_threads(argv):
    runs = [_run_cli(argv, OPENBLAS_NUM_THREADS=n) for n in (None, "2")]
    assert [run.returncode for run in runs] == [0, 0], runs[0].stderr + runs[1].stderr
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.startswith("t,x,dx\n" if argv[0] == "simulate" else "{")
