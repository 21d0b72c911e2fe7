"""Benchmark for relaydde: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload atlas --seed 3 --seconds 35 --trace 0

The program under test is the package under ``src/`` of the checkout that
holds this directory (or ``--root``). With ``--trace 0`` the run prints the
end-to-end metrics; with ``--trace 1`` it runs half the time untraced, then
a fixed set of items with spans around every layer, and prints the
per-layer metrics. Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0
SETUP_REPEATS = 5
PROBE_REPEATS = 5
DIGESTS = HERE / "digests.json"
CLI_COMMANDS = ("classify", "tables", "scan", "coexist", "smooth",
                "simulate_exact", "simulate_smooth")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("atlas", "orbits", "smoothing", "cli"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0,
                    help="timed work per run, run_seconds in BENCHMARK.json "
                         "(the traced run splits it)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", type=Path, default=HERE.parent,
                    help="checkout whose src/relaydde is measured")
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, print the wall-clock time and exit (internal)")
    ap.add_argument("--record-digests", action="store_true",
                    help="pin the outcomes of the default seed's first items")
    return ap.parse_args(argv)


def load_workload(name: str, root: Path):
    src = root / "src"
    if not (src / "relaydde" / "__init__.py").is_file():
        raise SystemExit(f"error: no relaydde package under {src}")
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    wl = WORKLOADS[name](root.resolve())
    wl.setup()
    return wl


class Loop:
    """Closed-loop client: issues items one at a time and checks each."""

    def __init__(self, wl, keep_digests: int = 0):
        self.wl = wl
        self.keep = keep_digests
        self.latencies: list[float] = []
        self.item_units: list[int] = []
        self.by_command: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.failed_items: set[int] = set()
        self.problems: list[str] = []
        self.digests: list[str] = []
        self.stdout_bytes = 0

    def one(self, item) -> float:
        result = error = None
        t0 = time.perf_counter()
        try:
            result = self.wl.run(item)
        except Exception as exc:  # counted as a failed item, and the run goes on
            error = exc
        dt = time.perf_counter() - t0
        problem, digest = self.wl.check(item, result, error)
        self.attempted += 1
        self.latencies.append(dt)
        self.item_units.append(item.units)
        if self.wl.name == "cli":
            self.by_command.setdefault(item.args[0], []).append(dt)
            if error is None:
                self.stdout_bytes += len(result[1].encode())
        if problem:
            self.fail(item.index, problem)
        if item.index < self.keep:
            self.digests.append(hashlib.sha256(digest.encode()).hexdigest()[:16])
        return dt

    def fail(self, index: int, problem: str) -> None:
        """Count item ``index`` as failed, once however many checks it fails."""
        if index not in self.failed_items:
            self.failed_items.add(index)
            self.failed += 1
            self.problems.append(f"item {index}: {problem}")

    def for_seconds(self, items, seconds: float) -> None:
        busy = 0.0
        for item in items:
            busy += self.one(item)
            if busy >= seconds:
                break

    def for_count(self, items, count: int) -> None:
        for item, _ in zip(items, range(count)):
            self.one(item)

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    @property
    def units(self) -> int:
        return sum(self.item_units)


def setup_seconds(args) -> list[float]:
    """Wall time from a fresh process start to the first timed item."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--root", str(args.root), "--setup-probe"]
    out = []
    for _ in range(SETUP_REPEATS):
        t0 = time.time()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        out.append(float(proc.stdout.split()[-1]) - t0)
    return out


def tail(latencies: list[float], pct: int) -> tuple[float, int]:
    """Latency at the ``pct``-th percentile and the number of samples beyond it."""
    if len(latencies) < 2:
        return latencies[0], 0
    value = statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1]
    return value, sum(1 for x in latencies if x > value)


def check_digests(args, wl, loop: Loop) -> None:
    """Compare the default seed's first outcomes with the pinned digests."""
    pinned = json.loads(DIGESTS.read_text()).get(wl.name, []) if DIGESTS.is_file() else []
    if args.seed != DEFAULT_SEED or not pinned:
        return
    if len(loop.digests) < len(pinned):  # a short run: finish the pinned items untimed
        extra = Loop(wl, keep_digests=len(pinned))
        items = wl.items(args.seed)
        for item in items:
            if item.index >= len(pinned):
                break
            if item.index >= len(loop.digests):
                extra.one(item)
        loop.digests += extra.digests
        loop.attempted += extra.attempted
        loop.failed += extra.failed
        loop.failed_items |= extra.failed_items
        loop.problems += extra.problems
    for i, (got, want) in enumerate(zip(loop.digests, pinned)):
        if got != want:
            loop.fail(i, f"outcome digest {got} != pinned {want}")


def record_digests(args, wl) -> None:
    loop = Loop(wl, keep_digests=wl.digest_items)
    loop.for_count(wl.items(DEFAULT_SEED), wl.digest_items)
    if loop.failed:
        raise SystemExit("error: refusing to pin failing outcomes:\n" + "\n".join(loop.problems))
    data = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    data[wl.name] = loop.digests
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(loop.digests)} {wl.name} outcomes in {DIGESTS.name}")


def end_to_end(args, wl) -> tuple[Loop, dict, list[str]]:
    setups = setup_seconds(args)
    wl.warm_up()
    loop = Loop(wl, keep_digests=wl.digest_items if args.seed == DEFAULT_SEED else 0)
    loop.for_seconds(wl.items(args.seed), args.seconds)
    work_per_s = loop.units / loop.busy
    check_digests(args, wl, loop)
    lat_ms = [x * 1e3 for x in loop.latencies]
    tail_ms, beyond = tail(lat_ms, wl.tail_pct)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "work_per_s": (work_per_s, "1/s"),
        "item_p50_ms": (statistics.median(lat_ms), "ms"),
        "item_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
    }
    notes = [
        f"setup_s: median of {len(setups)} fresh starts "
        f"({', '.join(f'{s:.3f}' for s in setups)})",
        f"work_per_s: {loop.units} {wl.unit} / {loop.busy:.3f} s timed",
        f"item_tail_ms: p{wl.tail_pct} of {len(lat_ms)} items, {beyond} beyond it",
        f"failed_ratio: {loop.failed / loop.attempted:.6g} "
        f"({loop.failed} / {loop.attempted}) [ratio]",
    ]
    return loop, metrics, notes


def cli_probe_ms(wl, code: str) -> float:
    runs = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=wl.root, env=wl.env,
                       check=True, timeout=120)
        runs.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(runs)


def traced(args, wl) -> tuple[Loop, dict, list[str]]:
    from tracing import PER_LAYER, Recorder, layer_metrics

    wl.warm_up()
    plain = Loop(wl)
    plain.for_seconds(wl.items(args.seed), args.seconds / 2.0)
    rec = Recorder()
    if wl.name == "cli":
        wl.recorder = rec
    else:
        rec.install()
    loop = Loop(wl)
    try:
        for item, _ in zip(wl.items(args.seed), range(wl.trace_items)):
            rec.item = item.index
            loop.one(item)
    finally:
        rec.uninstall()
        wl.recorder = None
    values, bases = layer_metrics(rec)
    if wl.name == "cli":
        interp = cli_probe_ms(wl, "pass")
        values["cli.interpreter_ms"] = interp
        values["cli.import_ms"] = cli_probe_ms(wl, "import relaydde") - interp
        base_on = f"medians of {PROBE_REPEATS} runs"
        bases["cli.import_ms"] = f"import relaydde minus bare interpreter, {base_on}"
        for cmd in CLI_COMMANDS:
            lat = plain.by_command.get(cmd, [])
            values[f"cli.{cmd}_ms"] = statistics.median(lat) * 1e3 if lat else 0.0
            bases[f"cli.{cmd}_ms"] = f"median of {len(lat)} untraced invocations"
        values["cli.stdout_bytes"] = loop.stdout_bytes
    # compare like with like: the traced items are the first ones the
    # untraced phase ran
    same = min(len(plain.latencies), len(loop.latencies))
    untraced_wps = sum(plain.item_units[:same]) / sum(plain.latencies[:same])
    traced_wps = sum(loop.item_units[:same]) / sum(loop.latencies[:same])
    values["trace.work_per_s_untraced"] = untraced_wps
    values["trace.work_per_s_traced"] = traced_wps
    values["trace.overhead_work_per_s"] = traced_wps - untraced_wps
    bases["trace.overhead_work_per_s"] = (
        f"traced {traced_wps:.6g} minus untraced {untraced_wps:.6g} {wl.unit}/s "
        f"({(traced_wps / untraced_wps - 1.0) * 100.0:+.1f}%)")
    out_dir = HERE / "out"
    rec.write(out_dir / f"trace_{wl.name}_seed{args.seed}.jsonl")
    # layers a workload never reaches read 0
    metrics = {name: (values.get(name, 0), unit) for name, unit in PER_LAYER.items()}
    notes = [f"{name}: {text}" for name, text in sorted(bases.items())]
    notes.append(f"traced phase: {wl.trace_items} items, {len(rec.spans)} spans, "
                 f"written to {out_dir.name}/trace_{wl.name}_seed{args.seed}.jsonl")
    plain.attempted += loop.attempted
    plain.failed += loop.failed
    plain.problems += loop.problems
    return plain, metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    args.root = args.root.resolve()
    sys.path.insert(0, str(HERE))
    wl = load_workload(args.workload, args.root)
    if args.setup_probe:
        next(wl.items(args.seed))
        wl.warm_up()
        print(repr(time.time()))
        return 0
    if args.record_digests:
        record_digests(args, wl)
        return 0
    loop, metrics, notes = (traced if args.trace else end_to_end)(args, wl)
    print(f"workload={wl.name} seed={args.seed} trace={args.trace} "
          f"items={loop.attempted} ({wl.unit})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    for note in notes:
        print(f"  # {note}")
    for problem in loop.problems[:20]:
        print(f"  FAILED {problem}")
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
