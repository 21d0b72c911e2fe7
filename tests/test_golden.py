"""Golden fixture: observable outputs pinned by SHA-256 digest.

Each case renders one observable result as text: the exit code, stdout and
any --output file of a CLI run, or the repr of classification and grading
results, or the arrays and events of an ``integrate`` run; a CLI case may
read a --config file written to its temporary dir.
``golden_digests.json`` holds the digest of every case, so a refactor that
claims to keep behaviour must keep every digest.

After an intended change of output, re-record with

    PYTHONPATH=src python tests/test_golden.py

and review the changed entries of the digest file.
"""

import contextlib
import hashlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

import pytest

from relaydde import (ROWS, Params, Profile, SmoothingSpec, classify, integrate,
                      reproduce_tables)
from relaydde.cli import main

DIGESTS = Path(__file__).with_name("golden_digests.json")

# StableT, UnstableT (with Diverges2T), Stable2T, and a boundary point
# (a1 = a2) with ShapeInvalid
CLASSIFY_POINTS = ((1, 0.25, 2.5, 1.5), (1, 6, 3, 1), (4, 1, 0.5, 2.5), (2, 2, 1, 1))

# a 6^4 grid whose verdicts include every kind and boundary cells
LEVELS = (0.25, 0.5, 1.0, 2.0, 4.0, 7.0)
STRETCHES = (0.6, 1.0, 1.5, 2.5, 3.0, 4.5)


def _params_flags(a1, a2, p1, p2):
    return ["--a1", str(a1), "--a2", str(a2), "--p1", str(p1), "--p2", str(p2)]


def _cli_cases():
    cases = {}
    for point in CLASSIFY_POINTS:
        for fmt in ("json", "csv"):
            name = "classify-" + "-".join(map(str, point)) + "-" + fmt
            cases[name] = ["classify", *_params_flags(*point), "--format", fmt]
    cases["tables"] = ["tables"]
    for fmt in ("json", "csv"):
        cases[f"tables-output-{fmt}"] = ["tables", "--output", "OUT", "--format", fmt]
        cases[f"scan-{fmt}"] = ["scan", *_params_flags(1.5, 1.5, 2, 2),
                                "--resolution", "3", "--format", fmt]
        cases[f"coexist-{fmt}"] = ["coexist", *_params_flags(1, 6, 3, 1), "--format", fmt]
        cases[f"simulate-exact-{fmt}"] = ["simulate", *_params_flags(1, 6, 3, 1),
                                          "--h", "-0.5", "--t-end", "16",
                                          "--delta", "0", "--format", fmt]
        cases[f"simulate-smooth-{fmt}"] = ["simulate", *_params_flags(1, 6, 3, 1),
                                           "--h", "-0.5", "--t-end", "10",
                                           "--delta", "0.3", "--format", fmt]
        cases[f"smooth-{fmt}"] = ["smooth", *_params_flags(1, 0.25, 2.5, 1.5),
                                  "--h", "-0.25", "--deltas", "0.2,0.1", "--t-end", "5",
                                  "--format", fmt]
    cases["simulate-config"] = ["simulate", *_params_flags(1, 6, 3, 1), "--h", "-0.5",
                                "--t-end", "10", "--config", "CFG"]
    cases["scan-config"] = ["scan", *_params_flags(1.5, 1.5, 2, 2), "--config", "CFG"]
    return cases


CLI_CASES = _cli_cases()

# the --config file text of the cases whose argv holds CFG
CONFIGS = {
    "simulate-config": "delta = 0.3\nprofile = smoothexp\nstep = 0.0125\n",
    "scan-config": "span = 0.2\nresolution = 3\nformat = csv\n",
}


def _render_cli(argv, config=None):
    """Exit code, stdout and the --output file (written to a temporary dir)."""
    with tempfile.TemporaryDirectory() as tmp:
        out_file = Path(tmp) / "out"
        cfg_file = Path(tmp) / "run.cfg"
        if config is not None:
            cfg_file.write_text(config)
        argv = [{"OUT": str(out_file), "CFG": str(cfg_file)}.get(a, a) for a in argv]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        text = f"exit {code}\n{stdout.getvalue()}"
        if out_file.exists():
            text += "--- output\n" + out_file.read_text()
    return text


def _integrate_cases():
    """name -> (params, smoothing, h, t_end, step) of the pinned integrate runs."""
    stable, double = (1.0, 0.25, 2.5, 1.5), (6.0, 1.0, 1.0, 3.0)
    cases = {}
    # acceptance criterion 6: both orbits from their smoothed periodic start
    for point, h_star in ((stable, -0.25), (double, -1.8)):
        for delta in (0.05, 0.025, 0.0125):
            h = h_star + (point[0] - point[1]) * delta / 4.0
            name = "integrate-" + "-".join(map(str, point)) + f"-{delta}"
            cases[name] = (point, SmoothingSpec(delta), h, 30.0, None)
    cases["integrate-smoothexp"] = (double, SmoothingSpec(0.05, Profile.SMOOTHEXP),
                                    -1.8, 26.0, None)
    cases["integrate-sharp"] = (stable, SmoothingSpec(0.0), -0.25, 12.0, None)
    cases["integrate-zero-history"] = (stable, SmoothingSpec(0.05), 0.0, 10.0, None)
    cases["integrate-explicit-step"] = (stable, SmoothingSpec(0.4), -0.25, 12.0,
                                        0.4 / 128.0)
    return cases


def _render_integrate(point, smoothing, h, t_end, step):
    sol = integrate(Params(*point), smoothing, h, t_end, step)
    return repr((sol.times.tolist(), sol.values.tolist(), sol.derivs.tolist(),
                 sol.events, sol.step))


def _render_grid():
    grid = itertools.product(LEVELS, LEVELS, STRETCHES, STRETCHES)
    return "\n".join(repr(classify(Params(*point))) for point in grid)


def _render_rows():
    return "\n".join(repr(classify(row.params)) for row in ROWS)


def _render_grades():
    return "\n".join(repr((r.row.table_id, r.row.index, r.computed_h,
                           r.computed_period, r.status))
                     for r in reproduce_tables())


RENDERERS = {
    **{name: (lambda argv=argv, cfg=CONFIGS.get(name): _render_cli(argv, cfg))
       for name, argv in CLI_CASES.items()},
    "classify-grid-repr": _render_grid,
    "classify-rows-repr": _render_rows,
    "reproduce-tables": _render_grades,
    **{name: (lambda run=run: _render_integrate(*run))
       for name, run in _integrate_cases().items()},
}


def _digest(name):
    return hashlib.sha256(RENDERERS[name]().encode()).hexdigest()


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text())


def test_every_case_is_recorded(recorded):
    assert sorted(recorded) == sorted(RENDERERS)


@pytest.mark.parametrize("name", sorted(RENDERERS))
def test_golden_digest(name, recorded, monkeypatch):
    monkeypatch.delenv("RELAYDDE_OUTDIR", raising=False)
    assert _digest(name) == recorded.get(name)


if __name__ == "__main__":
    digests = {name: _digest(name) for name in sorted(RENDERERS)}
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"recorded {len(digests)} digests in {DIGESTS}", file=sys.stderr)
