"""Quick tests of the benchmark itself: every workload at tiny size.

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import run  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# every workload, including orbits, which runs by hand but is not in the spec
NAMES = list(WORKLOADS)


def bench(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_the_spec():
    in_spec = {w["name"] for w in SPEC["workloads"]}
    assert in_spec <= set(WORKLOADS) and set(WORKLOADS) - in_spec == {"orbits"}
    assert list(PER_LAYER) == [m["name"] for m in SPEC["per_layer"]]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("seed", [run.DEFAULT_SEED, 7])
def test_tiny_run_is_correct_and_reports_every_metric(workload, seed):
    result = bench("--workload", workload, "--seed", str(seed), "--seconds", "0.2")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())
    if seed == run.DEFAULT_SEED:  # pinned items a short run missed are still attempted
        assert result["attempted"] >= WORKLOADS[workload].digest_items


@pytest.mark.parametrize("workload", NAMES)
def test_tiny_traced_run_reports_every_layer_metric(workload, monkeypatch):
    monkeypatch.setattr(WORKLOADS[workload], "trace_items", 1)
    wl = run.load_workload(workload, ROOT)
    args = run.parse_args(["--workload", workload, "--seconds", "0.2", "--trace", "1"])
    loop, metrics, _ = run.traced(args, wl)
    assert loop.failed == 0, loop.problems
    assert {k: unit for k, (_, unit) in metrics.items()} == PER_LAYER
    assert metrics["trace.work_per_s_traced"][0] > 0


@pytest.mark.parametrize("workload", NAMES)
def test_one_seed_always_generates_the_same_inputs(workload):
    wl = WORKLOADS[workload](ROOT)

    def first(seed, n=40):
        return [item for item, _ in zip(wl.items(seed), range(n))]

    assert first(3) == first(3)
    assert first(3) != first(4)


def test_bare_benchmark_directory_refuses_to_run(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "atlas",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_better_needs_ten_complete_pairs():
    parent, change = [10.0, 11.0], [5.0, 5.5]
    pairs = list(zip(parent, change))
    v, share = compare.verdict(parent, change, pairs, lower_is_better=True, bound=0.25)
    assert share == 1.0 and v.startswith("unresolved")
    parent, change = [10.0 + i * 0.1 for i in range(10)], [5.0 + i * 0.1 for i in range(10)]
    v, _ = compare.verdict(parent, change, list(zip(parent, change)), True, 0.25)
    assert v == "better"


def test_outcome_digests_ignore_rounding_of_computed_numbers():
    from types import SimpleNamespace

    wl = WORKLOADS["orbits"](ROOT)
    wl.setup()
    item = next(wl.items(0))

    def report(eps):
        return SimpleNamespace(h_unstable=1.0 + eps, h_stable=(0.5 + eps, -0.5),
                               shift_sup_distance=eps, tail_distances=(1e-9 + eps, 0.0),
                               return_map_residuals=(0.0, eps), convergence_periods=(7, 9))

    assert wl.check(item, report(0.0), None)[1] == wl.check(item, report(3e-16), None)[1]
    refusals = [wl.check(item, None, wl.lib.PairingFailed(f"settled {d:.3e} away"))[1]
                for d in (1.234e-5, 1.235e-5)]
    assert refusals[0] == refusals[1]
    cli = WORKLOADS["cli"]
    one, two = ("t,x,dx\n-1,0.5,0\n0.1,0.51,0.2\n", "t,x,dx\n-1,0.5,0\n0.1,0.5100000001,0.2\n"
                "0.2,0.52,0.2\n")
    assert cli._outline("simulate_smooth", one) == cli._outline("simulate_smooth", two)
