"""Seeded inputs, item runners and output checks for the workloads.

Every workload is a closed loop: one client issues the next item when the
previous one returns. Inputs come from ``random.Random`` seeded with the
workload name and the seed, so one seed always yields the same item
sequence. The library only ever sees the generated parameters; the base
points below are copied from the paper's tables rather than read from
``relaydde.tables``, so the inputs do not depend on the program under test.

Each item is generated in blocks that contain every stratum once (every
grid resolution, every base point), in a seeded order. That keeps the mix of
cheap and expensive items the same from seed to seed, so a short run
measures the same kind of work whatever the seed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from cli_child import HWM_MARKER, vm_hwm_kb
from tracing import TRACE_MARKER

# The paper's nine T4 rows (unstable period-T orbits whose duals are the
# T5 rows); row 5 is the README's canonical coexistence point. Four rows
# always refuse and five always pair, so in every block of nine the median
# item is a pairing of row 1, in the middle of that row's cost cluster; an
# even block would put the median on the gap between two rows' costs.
ORBIT_BASES = (
    (0.5, 2.5, 3.0, 0.5), (0.5, 3.0, 5.0, 1.0), (0.5, 5.0, 4.0, 0.5),
    (0.5, 7.0, 3.0, 2.0), (1.0, 6.0, 3.0, 1.0), (1.0, 7.0, 5.0, 1.0),
    (2.0, 7.0, 2.0, 3.0), (3.0, 7.0, 4.0, 1.0),
    (math.pi / 6.0, math.e, math.pi, 0.5),
)
# Bases whose +-3% jitters always pair (used by the cli coexist command).
PAIRING_BASES = tuple(ORBIT_BASES[i] for i in (0, 1, 4, 5, 8))

# Paper rows with a validated stable orbit: T1 (StableT, two zeros per
# period; row 8 sits on a region edge and is left out) and T3/T5
# (Stable2T, one zero per period).
STABLE_T_BASES = (
    (1.0, 0.25, 2.5, 1.5), (2.0, 0.5, 2.5, 2.0), (2.0, 0.25, 2.5, 1.0),
    (1.0, 0.5, 3.0, 1.0), (2.0, 1.0, 3.0, 1.5), (2.5, 0.5, 3.0, 4.0),
    (3.0, 0.5, 3.0, 4.5), (5.0, 0.5, 3.0, 3.0), (5.0, 1.0, 3.0, 2.0),
    (math.sqrt(10.0), 1.0 / math.sqrt(5.0), math.pi, math.e + 1.0),
)
STABLE_2T_BASES = (
    (4.0, 1.0, 0.5, 2.5), (4.0, 1.0, 1.0, 3.5), (5.0, 1.0, 1.0, 3.5),
    (5.0, 1.0, 0.5, 3.0), (6.0, 1.0, 1.0, 3.5), (6.0, 1.0, 1.0, 4.5),
    (6.0, 1.5, 1.0, 3.5), (2.5, 0.5, 0.5, 3.0), (3.0, 0.5, 1.0, 5.0),
    (5.0, 0.5, 0.5, 4.0), (6.0, 1.0, 1.0, 3.0), (7.0, 1.0, 1.0, 5.0),
)
STABLE_BASES = (tuple(("StableT", b) for b in STABLE_T_BASES)
                + tuple(("Stable2T", b) for b in STABLE_2T_BASES))
# Rows whose smoothed solution at the cli study's coarse half-widths
# (0.2, 0.1) can settle on another attractor, 3 to 11 away from the exact
# orbit, depending on the jitter; from delta 0.05 down they converge like
# the rest (about a1 * delta / 2). When such a deviation grows from 0.2 to
# 0.1 the library rightly refuses the study (ConvergenceFailed, exit 1),
# so the coarse study draws from the other rows only.
PRE_ASYMPTOTIC_AT_COARSE_DELTA = (
    (4.0, 1.0, 1.0, 3.5), (6.0, 1.5, 1.0, 3.5), (2.5, 0.5, 0.5, 3.0), (3.0, 0.5, 1.0, 5.0),
)
COARSE_STABLE_BASES = tuple(kb for kb in STABLE_BASES
                            if kb[1] not in PRE_ASYMPTOTIC_AT_COARSE_DELTA)

JITTER = 0.03
DELTAS = (0.05, 0.025, 0.0125)
SHIFT_TOL = 1e-9
TAIL_TOL = 1e-6
CLI_PERIODS_EXACT = 250
CLI_T_END_SMOOTH = 300.0
TABLES_SUMMARY = "53 rows: 34 PASS, 19 FAIL"


@dataclass(frozen=True)
class Item:
    """One unit the client issues: what to run and how much work it is."""

    index: int
    args: tuple
    units: int


# ---------------------------------------------------------------- helpers


def _rng(workload: str, seed: int, block: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{block}")


def _jitter(rng: random.Random, base) -> tuple[float, float, float, float]:
    return tuple(v * (1.0 + rng.uniform(-JITTER, JITTER)) for v in base)


def _radical_inverse(i: int, base: int) -> float:
    out, f = 0.0, 1.0 / base
    while i:
        i, digit = divmod(i, base)
        out += digit * f
        f /= base
    return out


def map_coefficients(a1: float, a2: float, p1: float, p2: float):
    """Return-map data m, b (two zeros per period) and k, d (one zero)."""
    m = 2.0 * a2 / a1 - 1.0
    b = a1 * (p1 - 2.0) + a2 * (6.0 - (2.0 * p1 + p2))
    k = 1.0 - 2.0 * a2 / a1
    d = a1 * p1 + a2 * (2.0 - 2.0 * p1 - p2)
    return m, b, k, d


def closed_form_h(kind: str, point) -> float:
    m, b, k, d = map_coefficients(*point)
    return b / (m - 1.0) if kind == "StableT" else -d / (k + 1.0)


def _close(x: float, y: float, rel: float = 1e-12) -> bool:
    return abs(x - y) <= rel * max(1.0, abs(y))


_NUMBER_RE = re.compile(r"[-+]?\d+\.?\d*(?:e[-+]?\d+)?")


def _masked(message: str) -> str:
    """A message with its numbers blanked out, for an outcome digest.

    Digests hold only what a reordering of the same arithmetic cannot
    change: verdict kinds, exit codes, counts and message texts. Computed
    numbers are checked against their closed forms and tolerances instead.
    """
    return _NUMBER_RE.sub("#", message)


def cell_error(point, kinds, boundary) -> str | None:
    """Check one cell's verdict kinds against the closed-form branches.

    Each applicable branch yields its orbit kind when propagation
    validates it and ShapeInvalid otherwise; Diverges2T appears exactly
    when k < -1; a point where nothing applies gets one ShapeInvalid.
    """
    a1, a2, p1, p2 = point
    kinds = tuple(kinds)
    if p1 + p2 <= 1.0:
        ok = kinds == ("InvalidParams",) and not boundary
        return None if ok else f"{point}: expected InvalidParams, got {kinds}"
    m, b, k, d = map_coefficients(*point)
    branches = []
    if abs(m) < 1.0 and b > 0.0:
        branches.append("StableT")
    if m > 1.0 and b < 0.0:
        branches.append("UnstableT")
    if abs(k) < 1.0 and d > 0.0:
        branches.append("Stable2T")
    validated = [kd for kd in kinds if kd in ("StableT", "UnstableT", "Stable2T")]
    expected = list(validated)
    if k < -1.0:
        expected.append("Diverges2T")
    expected += ["ShapeInvalid"] * (len(branches) - len(validated))
    if not expected:
        expected = ["ShapeInvalid"]
    in_order = [br for br in branches if br in validated] == validated
    want_boundary = m in (1.0, -1.0) or k in (1.0, -1.0) or b == 0.0 or d == 0.0
    if tuple(expected) != kinds or not in_order or boundary != want_boundary:
        return f"{point}: kinds {kinds} (boundary={boundary}) disagree with branches {branches}"
    return None


def pairing_error(point, h_unstable, h_stable, shift_sup, tails, residuals) -> str | None:
    """Check a coexistence pairing against the closed forms and tolerances."""
    m, b, _, _ = map_coefficients(*point)
    a1, a2, p1, p2 = point
    _, _, k_dual, d_dual = map_coefficients(a2, a1, p2, p1)
    h_dual = -d_dual / (k_dual + 1.0)
    if not _close(h_unstable, b / (m - 1.0)):
        return f"{point}: h_unstable {h_unstable!r} != b/(m-1) = {b / (m - 1.0)!r}"
    if not (_close(h_stable[0], h_dual) and _close(h_stable[1], -h_dual)):
        return f"{point}: h_stable {h_stable!r} != (h, -h) with h = {h_dual!r}"
    if not 0.0 <= shift_sup <= SHIFT_TOL:
        return f"{point}: shift sup distance {shift_sup!r} above {SHIFT_TOL}"
    if not all(0.0 <= t <= TAIL_TOL for t in tuple(tails) + tuple(residuals)):
        return f"{point}: tails {tails!r} / residuals {residuals!r} above {TAIL_TOL}"
    return None


def convergence_error(deltas, rows, fitted_c) -> str | None:
    """rows: (delta, max_dev_overall, residual); deviations must not grow."""
    if tuple(r[0] for r in rows) != tuple(deltas):
        return f"half-widths {[r[0] for r in rows]} != {list(deltas)}"
    if not (math.isfinite(fitted_c) and fitted_c > 0.0):
        return f"fitted_c {fitted_c!r} is not finite and positive"
    devs = [r[1] for r in rows]
    if not all(math.isfinite(v) for r in rows for v in r):
        return "non-finite deviation"
    if any(cur > prev * (1.0 + 1e-6) for prev, cur in zip(devs, devs[1:])):
        return f"deviations grow: {devs}"
    return None


# ------------------------------------------------------------- workloads


class Workload:
    """Base: subclasses generate items, run one, and check its outcome."""

    name = ""
    unit = ""
    digest_items = 0   # items of the default seed whose outcome is pinned
    trace_items = 0    # fixed item count of the traced phase
    # Percentile reported as item_tail_ms. It is fixed per workload, so that
    # every run, and a parent and its change, report the same percentile: the
    # highest of p50, p80, p90, p95 and p99 that leaves at least ten items
    # beyond it in a 35-s run at the slowest speed seen (about 330 boxes,
    # 7400 checks, 88 invocations). The 25 or so studies of a smoothing run
    # leave only the median.
    tail_pct = 50
    recorder = None    # set during the traced phase of the cli workload

    def __init__(self, root: Path):
        self.root = root

    def items(self, seed: int):
        block = 0
        index = 0
        while True:
            for args, units in self.block(seed, block):
                yield Item(index, args, units)
                index += 1
            block += 1

    def block(self, seed: int, block: int):
        """Inputs of one block: a list of (args, units)."""
        raise NotImplementedError

    def setup(self) -> None:
        """Import the library from the checkout and bind the entry point."""
        import relaydde

        where = Path(relaydde.__file__).resolve()
        if self.root / "src" not in where.parents:
            raise RuntimeError(f"relaydde imported from {where}, not from {self.root}/src")
        self.lib = relaydde

    def warm_up(self) -> None:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        """Peak resident memory of this process."""
        return vm_hwm_kb() / 1024.0

    def run(self, item: Item):
        raise NotImplementedError

    def check(self, item: Item, result, error: BaseException | None) -> tuple[str | None, str]:
        """Return (problem or None, digest text of the outcome).

        The digest text holds only outcomes that stay the same when the
        library reorders its arithmetic (see ``_masked``).
        """
        raise NotImplementedError


class Atlas(Workload):
    """analysis.scan over seeded parameter boxes."""

    name = "atlas"
    unit = "cells"
    digest_items = 14
    trace_items = 42
    tail_pct = 95
    RANGES = ((0.2, 8.0), (0.2, 8.0), (0.3, 5.0), (0.3, 5.0))
    SPAN = (0.02, 0.25)
    RESOLUTIONS = tuple(tuple(4 + k * j % 7 for k in (1, 2, 3, 4)) for j in range(7))

    def block(self, seed, block):
        # Every block of seven boxes uses the same seven resolution tuples
        # (a Latin design: each axis takes each of 4..10 once, 256 to 5040
        # cells per box), so every seed measures the same mix of box sizes;
        # the seed decides which box gets which size. Centres and spans
        # follow a Halton sequence with one seeded shift, which spreads the
        # boxes evenly over parameter space.
        rng = _rng(self.name, seed, block)
        sizes = rng.sample(self.RESOLUTIONS, 7)
        shift_rng = _rng(self.name, seed, -1)
        shift = [shift_rng.random() for _ in range(5)]
        out = []
        for j in range(7):
            i = 1 + 7 * block + j
            u = [(_radical_inverse(i, base) + s) % 1.0
                 for base, s in zip((2, 3, 5, 7, 11), shift)]
            centre = [lo + (hi - lo) * uu for (lo, hi), uu in zip(self.RANGES, u)]
            span = self.SPAN[0] + (self.SPAN[1] - self.SPAN[0]) * u[4]
            box = tuple((c * (1.0 - span), c * (1.0 + span)) for c in centre)
            out.append(((box, sizes[j]), math.prod(sizes[j])))
        return out

    def warm_up(self):
        self.lib.scan((1.0, 1.1), (6.0, 6.6), (3.0, 3.3), (1.0, 1.1), 2)

    def run(self, item):
        box, res = item.args
        return self.lib.scan(*box, res)

    def check(self, item, report, error):
        if error is not None:
            return f"scan raised {error!r}", repr(error)
        box, res = item.args
        if report.shape != res or len(report.cells) != item.units:
            return f"scan returned shape {report.shape} for resolution {res}", ""
        parts = []
        for c in report.cells:
            point = (c.a1, c.a2, c.p1, c.p2)
            if not all(lo * (1 - 1e-12) <= v <= hi * (1 + 1e-12)
                       for v, (lo, hi) in zip(point, box)):
                return f"cell {point} outside the box {box}", ""
            problem = cell_error(point, c.kinds, c.boundary)
            if problem:
                return problem, ""
            parts.append(",".join(c.kinds) + ("!" if c.boundary else ""))
        return None, "|".join(parts)


class Orbits(Workload):
    """analysis.coexistence_check at jitters around the coexistence rows."""

    name = "orbits"
    unit = "checks"
    digest_items = 50
    trace_items = 1500
    tail_pct = 99

    def block(self, seed, block):
        rng = _rng(self.name, seed, block)
        order = list(ORBIT_BASES)
        rng.shuffle(order)
        return [((_jitter(rng, base),), 1) for base in order]

    def warm_up(self):
        self.lib.coexistence_check(self.lib.Params(1.0, 6.0, 3.0, 1.0))

    def run(self, item):
        return self.lib.coexistence_check(self.lib.Params(*item.args[0]))

    def check(self, item, rep, error):
        if error is not None:
            if isinstance(error, self.lib.PairingFailed):
                return None, f"refused:{_masked(str(error))}"
            return f"coexistence_check raised {error!r}", repr(error)
        problem = pairing_error(item.args[0], rep.h_unstable, rep.h_stable,
                                rep.shift_sup_distance, rep.tail_distances,
                                rep.return_map_residuals)
        return problem, "paired:" + ",".join(map(str, rep.convergence_periods))


class Smoothing(Workload):
    """analysis.smoothing_convergence at the default half-widths."""

    name = "smoothing"
    unit = "studies"
    digest_items = 3
    trace_items = 6

    def block(self, seed, block):
        rng = _rng(self.name, seed, block)
        order = list(STABLE_BASES)
        rng.shuffle(order)
        out = []
        for kind, base in order:
            point = _jitter(rng, base)
            out.append(((point, closed_form_h(kind, point)), 1))
        return out

    def warm_up(self):
        point, h = (1.0, 0.25, 2.5, 1.5), -0.25
        self.lib.smoothing_convergence(self.lib.Params(*point), h, (0.2, 0.1), 5.0)

    def run(self, item):
        point, h = item.args
        return self.lib.smoothing_convergence(self.lib.Params(*point), h, DELTAS)

    def check(self, item, table, error):
        if error is not None:
            return f"smoothing_convergence raised {error!r}", repr(error)
        rows = [(r.delta, r.max_dev_overall, r.residual) for r in table.rows]
        problem = convergence_error(DELTAS, rows, table.fitted_c)
        return problem, ";".join(repr(r[0]) for r in rows)


CLI_CHILD = Path(__file__).resolve().parent / "cli_child.py"


def _flags(point) -> list[str]:
    return [f"--{name}={v!r}" for name, v in zip(("a1", "a2", "p1", "p2"), point)]


class Cli(Workload):
    """relaydde subcommands as subprocesses, in a fixed seeded cycle."""

    name = "cli"
    unit = "invocations"
    digest_items = 7
    trace_items = 21
    tail_pct = 80
    EXPECTED_CODE = {"classify": 0, "tables": 3, "coexist": 0, "scan": 0,
                     "simulate_exact": 0, "simulate_smooth": 0, "smooth": 0}

    def block(self, seed, block):
        rng = _rng(self.name, seed, block)
        lo_hi = Atlas.RANGES
        while True:
            point = tuple(rng.uniform(lo, hi) for lo, hi in lo_hi)
            if point[2] + point[3] > 1.0:
                break
        scan_centre = tuple(rng.uniform(lo, hi) for lo, hi in lo_hi)
        scan_span = rng.uniform(*Atlas.SPAN)
        pairing = _jitter(rng, rng.choice(PAIRING_BASES))
        kind, base = rng.choice(STABLE_BASES)
        exact_point = _jitter(rng, base)
        exact_h = closed_form_h(kind, exact_point)
        # delta 0.3 needs both stretches above 0.6
        wide = [kb for kb in STABLE_BASES if min(kb[1][2:]) >= 1.0]
        kind, base = rng.choice(wide)
        smooth_point = _jitter(rng, base)
        smooth_h = closed_form_h(kind, smooth_point)
        kind, base = rng.choice(COARSE_STABLE_BASES)
        study_point = _jitter(rng, base)
        study_h = closed_form_h(kind, study_point)
        return [
            (("classify", ["classify", *_flags(point)], point), 1),
            (("tables", ["tables"], None), 1),
            (("coexist", ["coexist", *_flags(pairing)], pairing), 1),
            (("scan", ["scan", *_flags(scan_centre), f"--span={scan_span!r}",
                       "--resolution=4"], None), 1),
            (("simulate_exact", ["simulate", *_flags(exact_point), f"--h={exact_h!r}",
                                 f"--t-end={CLI_PERIODS_EXACT * sum(exact_point[2:])!r}",
                                 "--delta=0"],
              (exact_point, exact_h)), 1),
            (("simulate_smooth", ["simulate", *_flags(smooth_point), f"--h={smooth_h!r}",
                                  f"--t-end={CLI_T_END_SMOOTH!r}", "--delta=0.3"],
              (smooth_point, smooth_h)), 1),
            (("smooth", ["smooth", *_flags(study_point), f"--h={study_h!r}",
                         "--deltas=0.2,0.1"], (study_point, study_h)), 1),
        ]

    def setup(self):
        src = self.root / "src"
        if not (src / "relaydde" / "cli.py").is_file():
            raise RuntimeError(f"no relaydde sources under {src}")
        self.env = child_env(self.root)
        self.peak_rss_kb = 0

    def command(self, argv: list[str]) -> list[str]:
        flag = ["--trace"] if self.recorder is not None else []
        return [sys.executable, str(CLI_CHILD), *flag, *argv]

    def warm_up(self):
        code, _, _ = self.invoke(["classify", *_flags((1.0, 6.0, 3.0, 1.0))])
        if code != 0:
            raise RuntimeError(f"relaydde classify exited with {code} during warm-up")

    def invoke(self, argv):
        """Run one invocation and return (exit code, stdout, stderr).

        The child's report lines (peak memory, spans) are taken out of its
        standard error, which keeps only what the CLI itself wrote there.
        """
        proc = subprocess.run(self.command(argv), cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=120)
        kept = []
        for line in proc.stderr.splitlines():
            if line.startswith(HWM_MARKER):
                self.peak_rss_kb = max(self.peak_rss_kb, int(line[len(HWM_MARKER):]))
            elif line.startswith(TRACE_MARKER) and self.recorder is not None:
                self.recorder.absorb(json.loads(line[len(TRACE_MARKER):]))
            else:
                kept.append(line)
        return proc.returncode, proc.stdout, "\n".join(kept).strip()

    def peak_rss_mb(self):
        """Peak resident memory of the largest relaydde child."""
        return self.peak_rss_kb / 1024.0

    def run(self, item):
        return self.invoke(item.args[1])

    def check(self, item, outcome, error):
        if error is not None:
            return f"invocation failed: {error!r}", repr(error)
        command, argv, data = item.args
        code, out, err = outcome
        if code != self.EXPECTED_CODE[command]:
            return f"relaydde {' '.join(argv)} exited {code}: {err.strip()[-300:]}", str(code)
        try:
            problem = getattr(self, "_check_" + command)(data, out)
            digest = f"{code}:{self._outline(command, out)}"
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"relaydde {command}: unreadable output: {exc!r}", str(code)
        return (f"relaydde {command}: {problem}" if problem else None), digest

    @staticmethod
    def _outline(command, out) -> str:
        """The reorder-stable part of one invocation's output."""
        if command == "tables":
            return out.rstrip("\n").rsplit("\n", 1)[-1]
        if command.startswith("simulate"):
            rows = out.splitlines()
            # the exact path's knot count is set by its events; the smoothed
            # solution's sample count is the integrator's choice
            return rows[0] + (f":{len(rows)}" if command == "simulate_exact" else "")
        rep = json.loads(out)
        if command == "classify":
            return ",".join(v["kind"] + ("!" if v["boundary"] else "")
                            for v in rep["verdicts"])
        if command == "scan":
            return "|".join(",".join(c["kinds"]) + ("!" if c["boundary"] else "")
                            for c in rep["cells"])
        if command == "coexist":
            return ",".join(map(str, rep["convergence_periods"]))
        return ";".join(repr(r["delta"]) for r in rep["rows"])

    def _check_classify(self, point, out):
        verdicts = json.loads(out)["verdicts"]
        return cell_error(point, [v["kind"] for v in verdicts],
                          any(v["boundary"] for v in verdicts))

    def _check_tables(self, _, out):
        last = out.rstrip("\n").rsplit("\n", 1)[-1]
        return None if last == TABLES_SUMMARY else f"summary line {last!r}"

    def _check_coexist(self, point, out):
        rep = json.loads(out)
        return pairing_error(point, rep["h_unstable"], rep["h_stable"],
                             rep["shift_sup_distance"], rep["tail_distances"],
                             rep["return_map_residuals"])

    def _check_scan(self, _, out):
        rep = json.loads(out)
        if len(rep["cells"]) != 4 ** 4:
            return f"{len(rep['cells'])} cells, expected 256"
        for c in rep["cells"]:
            problem = cell_error((c["a1"], c["a2"], c["p1"], c["p2"]), c["kinds"],
                                 c["boundary"])
            if problem:
                return problem
        return None

    def _check_simulate_exact(self, data, out):
        (a1, a2, p1, p2), h = data
        rows = list(csv.reader(io.StringIO(out)))
        if rows[0] != ["t", "x"]:
            return f"header {rows[0]}"
        pts = [(float(t), float(x)) for t, x in rows[1:]]
        if pts[0] != (0.0, h) or pts[-1][0] != CLI_PERIODS_EXACT * (p1 + p2):
            return f"path runs from {pts[0]} to t={pts[-1][0]}"
        # between events the slope is +-a1 or +-a2
        for (t0, x0), (t1, x1) in zip(pts, pts[1:]):
            if not t1 > t0:
                return f"times not increasing at {t0}"
            if t1 - t0 < 1e-6:  # too short to read a slope from printed knots
                continue
            slope = abs((x1 - x0) / (t1 - t0))
            if not any(abs(slope - a) <= 1e-6 * a for a in (a1, a2)):
                return f"slope {slope} on [{t0}, {t1}] is neither a1 nor a2"
        return None

    def _check_simulate_smooth(self, data, out):
        (a1, a2, _, _), h = data
        rows = list(csv.reader(io.StringIO(out)))
        if rows[0] != ["t", "x", "dx"]:
            return f"header {rows[0]}"
        pts = [tuple(map(float, r)) for r in rows[1:]]
        if pts[0][:2] != (-1.0, h) or pts[-1][0] != CLI_T_END_SMOOTH:
            return f"solution runs from {pts[0]} to t={pts[-1][0]}"
        bound = max(a1, a2) * (1.0 + 1e-9)
        for (t0, _, _), (t1, x, dx) in zip(pts, pts[1:]):
            if t1 < t0 or not math.isfinite(x) or abs(dx) > bound:
                return f"bad sample t={t1} x={x} dx={dx}"
        return None

    def _check_smooth(self, _, out):
        tab = json.loads(out)
        rows = [(r["delta"], r["max_dev_overall"], r["residual"]) for r in tab["rows"]]
        return convergence_error((0.2, 0.1), rows, tab["fitted_c"])


WORKLOADS = {w.name: w for w in (Atlas, Orbits, Smoothing, Cli)}


def child_env(root: Path) -> dict:
    """Environment for a relaydde child: the checkout's sources only."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "RELAYDDE_OUTDIR", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = str(root / "src")
    return env
