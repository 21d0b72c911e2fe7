"""The public surface: the names relaydde exports, the README quick start and
the README command lines."""

import contextlib
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import relaydde
from relaydde.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_names_resolve_sorted_and_unique():
    names = relaydde.__all__
    assert names == sorted(set(names))
    for name in names:
        assert getattr(relaydde, name) is not None, name


def test_package_names_follow_their_submodule():
    # a patch of the submodule shows through the package while it lasts, and
    # undoing it gives the original back there too
    original = relaydde.numeric.integrate

    def fake(*args, **kwargs):
        raise AssertionError("not to be called")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relaydde.numeric, "integrate", fake)
        assert relaydde.integrate is fake
    assert relaydde.integrate is original


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    src = str(Path(relaydde.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", blocks[0]], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "UnstableT" in proc.stdout


def test_readme_command_lines_run(monkeypatch):
    monkeypatch.delenv("RELAYDDE_OUTDIR", raising=False)
    block = re.search(r"## Command line\n\n```\n(.*?)```", README.read_text(), re.S)
    lines = block.group(1).splitlines()
    assert len(lines) == 6
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "relaydde"
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(argv[1:])
        # tables exits 3: the documented deviations are non-PASS rows
        assert code == (3 if argv[1] == "tables" else 0), line
        assert out.getvalue(), line
