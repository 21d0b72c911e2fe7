"""Compare two commits with the same benchmark code: parent against change.

Record ten alternating pairs of runs of every workload in BENCHMARK.json,
each for its ``run_seconds`` (the parent goes first in even pairs, the
change in odd ones), then report per workload and end-to-end metric:

    python3 perfbench/compare.py run --parent ../parent --change . \\
        --first-seed 100 --out runs.jsonl
    python3 perfbench/compare.py report runs.jsonl

Both sides run this file's ``run.py`` with ``--root`` pointing at each
checkout, so only the program differs. The verdict follows the rules for
claiming a gain and for showing no regression:

  better        over at least ten complete pairs, the change wins at least
                90% of them (ties count for neither side) and the medians
                differ by more than the parent's own quartile spread
  worse         the change's median is worse than the parent's by more than
                the metric's bound
  within-bound  neither of the above, on a metric whose parent spread is
                inside its bound
  unresolved    the parent's spread is wider than the bound, and not every
                change run reads better than every parent run
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
PAIRS = 10
WIN_SHARE = 0.9


def record(args) -> None:
    spec = json.loads(SPEC.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    with open(args.out, "a") as out:
        for pair in range(PAIRS):
            seed = args.first_seed + pair
            sides = [("parent", args.parent), ("change", args.change)]
            if pair % 2:
                sides.reverse()
            for workload in workloads:
                for side, root in sides:
                    proc = subprocess.run(
                        [sys.executable, str(HERE / "run.py"), "--root", str(root),
                         "--workload", workload, "--seed", str(seed),
                         "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                        capture_output=True, text=True, timeout=600)
                    if proc.returncode != 0:
                        raise SystemExit(f"{side} run failed:\n{proc.stderr}")
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    out.write(json.dumps({"workload": workload, "side": side, "pair": pair,
                                          "seed": seed, "result": result}) + "\n")
                    out.flush()
                    print(f"pair {pair} {workload} {side}: correct={result['correct']}",
                          flush=True)


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            lower_is_better: bool, bound: float) -> tuple[str, float]:
    """Return (verdict, share of pairs the change won).

    "better" needs at least PAIRS complete pairs; with fewer it is withheld
    and the verdict reads unresolved.
    """
    def better(a, b):
        return a < b if lower_is_better else a > b

    wins = sum(1 for p, c in pairs if better(c, p))
    share = wins / len(pairs) if pairs else 0.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    if share >= WIN_SHARE and better(cm, pm) and abs(cm - pm) > p3 - p1:
        if len(pairs) < PAIRS:
            return f"unresolved (only {len(pairs)} pairs)", share
        return "better", share
    if (p3 - p1) / abs(pm) > bound:
        if all(better(c, p) for c in change for p in parent):
            return "within-bound", share
        return "unresolved", share
    worse_by = (cm - pm) / abs(pm) if lower_is_better else (pm - cm) / abs(pm)
    return ("worse" if worse_by > bound else "within-bound"), share


def report(args) -> None:
    spec = json.loads(SPEC.read_text())
    runs = [json.loads(line) for line in Path(args.runs).read_text().splitlines() if line]
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        by_pair: dict[int, dict[str, dict]] = {}
        for r in mine:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]
        failed = {side: sum(r["result"]["failed"] for r in mine if r["side"] == side)
                  for side in ("parent", "change")}
        paired = sum(1 for p in by_pair.values() if len(p) == 2)
        print(f"{workload}: {paired} complete pairs; failed items parent={failed['parent']} "
              f"change={failed['change']}")
        print(f"  {'metric':14s} {'parent q1/median/q3':>32s} {'change q1/median/q3':>32s}"
              f" {'won':>5s}  verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            complete = [(p["parent"]["metrics"][name]["value"],
                         p["change"]["metrics"][name]["value"])
                        for p in by_pair.values() if "parent" in p and "change" in p]
            parent = [r["result"]["metrics"][name]["value"] for r in mine if r["side"] == "parent"]
            change = [r["result"]["metrics"][name]["value"] for r in mine if r["side"] == "change"]
            if not parent or not change:
                continue
            v, share = verdict(parent, change, complete, metric["better"] == "lower",
                               metric["bound"])
            if v == "better" and failed["change"] > failed["parent"]:
                v = "unresolved (more failures)"
            cols = ["/".join(f"{x:.4g}" for x in quartiles(side)) for side in (parent, change)]
            print(f"  {name:14s} {cols[0]:>32s} {cols[1]:>32s} {share:5.0%}  {v}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="record alternating pairs of runs")
    r.add_argument("--parent", type=Path, required=True, help="parent checkout")
    r.add_argument("--change", type=Path, required=True, help="changed checkout")
    r.add_argument("--first-seed", type=int, default=100)
    r.add_argument("--out", required=True)
    p = sub.add_parser("report", help="print medians, quartiles, pairs won and verdicts")
    p.add_argument("runs")
    args = ap.parse_args(argv)
    (record if args.command == "run" else report)(args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
