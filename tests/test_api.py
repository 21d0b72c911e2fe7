"""The public surface: the names relaydde exports and the README quick start."""

import os
import re
import subprocess
import sys
from pathlib import Path

import relaydde

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_names_resolve_sorted_and_unique():
    names = relaydde.__all__
    assert names == sorted(set(names))
    for name in names:
        assert getattr(relaydde, name) is not None, name


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    src = str(Path(relaydde.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", blocks[0]], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "UnstableT" in proc.stdout
