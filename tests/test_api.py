"""The public surface: the names relaydde exports, the README quick start and
the README command lines."""

import contextlib
import dataclasses
import io
import os
import pickle
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import relaydde
from relaydde.analysis import ScanCell
from relaydde.cli import main
from relaydde.model import Params

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


@pytest.mark.parametrize("record, fields, text", [
    (Params(1.0, 6.0, 3.0, 1.0), {"a1": 1.0, "a2": 6.0, "p1": 3.0, "p2": 1.0},
     "Params(a1=1.0, a2=6.0, p1=3.0, p2=1.0)"),
    (ScanCell(1.0, 6.0, 3.0, 1.0, ("UnstableT",), False),
     {"a1": 1.0, "a2": 6.0, "p1": 3.0, "p2": 1.0, "kinds": ("UnstableT",), "boundary": False},
     "ScanCell(a1=1.0, a2=6.0, p1=3.0, p2=1.0, kinds=('UnstableT',), boundary=False)"),
], ids=["Params", "ScanCell"])
def test_records_keep_their_dataclass_contract(record, fields, text):
    # both per-cell records, Params through its hand-written constructor and
    # ScanCell through the generated one, keep the dataclass contract: frozen
    # fields, value equality and hash, repr, asdict, replace and pickling,
    # with no per-instance __dict__
    cls = type(record)
    assert dataclasses.is_dataclass(record) and not hasattr(record, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.a1 = 2.0
    assert record == cls(**fields) and record != dataclasses.replace(record, a1=2.0)
    assert hash(record) == hash(cls(**fields)) == hash(tuple(fields.values()))
    assert repr(record) == text
    assert dataclasses.asdict(record) == fields
    assert list(dataclasses.asdict(record)) == list(fields)
    moved = dataclasses.replace(record, p2=2.0)
    assert type(moved) is cls and dataclasses.asdict(moved) == {**fields, "p2": 2.0}
    assert dataclasses.asdict(record) == fields  # replace leaves the original as it was
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls and copy == record and repr(copy) == text


def test_replace_checks_params_like_the_constructor():
    p = Params(1.0, 6.0, 3.0, 1.0)
    assert dataclasses.replace(p, a1="2").a1 == 2.0
    with pytest.raises(ValueError, match="^a2 must be positive and finite, got -1$"):
        dataclasses.replace(p, a2=-1)
    with pytest.raises(ValueError, match="^period p1 [+] p2 must exceed the delay 1$"):
        dataclasses.replace(p, p1=0.5, p2=0.5)


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
