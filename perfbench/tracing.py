"""Spans and counters around relaydde's public functions, from outside.

``Recorder.install`` wraps each target function. Where another module
imported the function by name (``maps.propagate``, ``analysis.classify``,
``numeric.coefficient_value``, the CLI's imports, ...), the wrapper is
installed in that module's namespace too, so internal calls are seen.
Methods are wrapped on their class.

A span records its name, start, end, parent span and the item it belongs
to; spans stay in memory until the run ends. Leaf functions that run
hundreds of thousands of times per run are counted, not timed, so the
wrapper's own cost does not swamp the layer they sit in.
"""

from __future__ import annotations

import importlib
import json
import math
import statistics
import time
from pathlib import Path

MODULES = ("model", "exact", "maps", "numeric", "analysis", "cli")
# starts the stderr line on which a traced CLI child reports its spans
TRACE_MARKER = "#perfbench-trace "


def _events(args, kwargs, path):
    return len(path.times)


def _validated(args, kwargs, verdicts):
    return sum(1 for v in verdicts if v.validated)


def _samples(args, kwargs, sol):
    params, smoothing = args[0], args[1]
    return (smoothing.delta, len(sol.times), _echo_knots(params, smoothing.delta, sol.events))


def _echo_knots(params, delta, events) -> int:
    """Knots that are neither ramp edges nor integers: echoes of crossings."""
    T, p1 = params.period, params.p1
    edges = (0.0, p1) if delta == 0.0 else (-delta, delta, p1 - delta, p1 + delta)
    n = 0
    for e in events:
        ph = e % T
        if abs(e - round(e)) <= 1e-9:
            continue
        if any(min(abs(ph - s) % T, T - abs(ph - s) % T) <= 1e-9 for s in edges):
            continue
        n += 1
    return n


def _points(args, kwargs, out):
    return int(getattr(out, "size", 1))


def _cells(args, kwargs, report):
    return len(report.cells)


# name -> (module, attribute, "span" or "count", annotate(args, kwargs, result))
TARGETS = {
    "model.coefficient_value": ("model", "coefficient_value", "count", None),
    "model.validate_geometry": ("model", "validate_geometry", "count", None),
    "exact.propagate": ("exact", "propagate", "span", _events),
    "exact.zeros": ("exact", "zeros", "count", None),
    "exact.value_at": ("exact", "PiecewisePath.value_at", "count", None),
    "exact.sup_distance": ("exact", "path_sup_distance", "span", None),
    "maps.classify": ("maps", "classify", "span", _validated),
    "numeric.integrate": ("numeric", "integrate", "span", _samples),
    "numeric.values_at": ("numeric", "DenseSolution.values_at", "span", _points),
    "numeric.compare": ("numeric", "compare_exact_smoothed", "span", None),
    "analysis.scan": ("analysis", "scan", "span", _cells),
    "analysis.coexistence": ("analysis", "coexistence_check", "span", None),
    "analysis.convergence": ("analysis", "smoothing_convergence", "span", None),
    "analysis.reproduce_tables": ("analysis", "reproduce_tables", "span", None),
    "cli.main": ("cli", "main", "span", None),
}

_CLI_MS = ("interpreter", "import", "classify", "tables", "scan", "coexist", "smooth",
           "simulate_exact", "simulate_smooth", "main_self")
# every per-layer metric a traced run reports, with its unit
PER_LAYER = {
    "model.coefficient_value_calls": "count",
    "model.validate_geometry_calls": "count",
    "exact.propagate_calls": "count",
    "exact.events": "count",
    "exact.events_per_s": "1/s",
    "exact.propagate_us_p50": "us",
    "exact.zeros_calls": "count",
    "exact.value_at_calls": "count",
    "exact.sup_distance_calls": "count",
    "exact.sup_distance_self_s": "s",
    "exact.self_s": "s",
    "maps.classify_calls": "count",
    "maps.classify_us_p50": "us",
    "maps.classify_us_p99": "us",
    "maps.classify_self_us": "us",
    "maps.propagations_per_classify": "ratio",
    "maps.validated_ratio": "ratio",
    "maps.self_s": "s",
    "numeric.integrate_calls": "count",
    "numeric.samples": "count",
    "numeric.us_per_sample.coarse": "us",
    "numeric.us_per_sample.mid": "us",
    "numeric.us_per_sample.fine": "us",
    "numeric.echo_knots": "count",
    "numeric.values_at_points": "count",
    "numeric.hermite_lookups_per_s": "1/s",
    "numeric.compare_self_s": "s",
    "numeric.self_s": "s",
    "analysis.scan_self_s": "s",
    "analysis.scan_us_per_cell": "us",
    "analysis.coexistence_self_s": "s",
    "analysis.pairing_refused_ratio": "ratio",
    "analysis.convergence_self_s": "s",
    "analysis.reproduce_tables_ms": "ms",
    "analysis.self_s": "s",
    **{f"cli.{name}_ms": "ms" for name in _CLI_MS},
    "cli.stdout_bytes": "bytes",
    "trace.work_per_s_untraced": "1/s",
    "trace.work_per_s_traced": "1/s",
    "trace.overhead_work_per_s": "1/s",
}

# span fields
NAME, START, END, PARENT, ITEM, EXTRA, RAISED = range(7)


class Recorder:
    """Holds the spans and counts of one run; ``install`` starts recording."""

    def __init__(self):
        self.spans: list[list] = []
        self._cells: dict[str, list[int]] = {}
        self._absorbed: dict[str, int] = {}
        self.item = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _span(self, name, fn, annotate):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, None, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[RAISED] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if annotate is not None:
                rec[EXTRA] = annotate(args, kwargs, result)
            return result

        return wrapper

    def _count(self, name, fn):
        cell = self._cells[name] = [0]

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    @property
    def counts(self) -> dict[str, int]:
        out = dict(self._absorbed)
        for name, cell in self._cells.items():
            out[name] = out.get(name, 0) + cell[0]
        return out

    def install(self) -> None:
        mods = {m: importlib.import_module(f"relaydde.{m}") for m in MODULES}
        mods["__init__"] = importlib.import_module("relaydde")
        for name, (mod, attr, mode, annotate) in TARGETS.items():
            owner = mods[mod]
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
                attr = meth
            original = owner.__dict__[attr]
            wrapper = (self._span(name, original, annotate) if mode == "span"
                       else self._count(name, original))
            self._set(owner, attr, wrapper)
            if not cls_name:
                for other in mods.values():
                    for key, value in list(vars(other).items()):
                        if value is original:
                            self._set(other, key, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}

    def absorb(self, data: dict) -> None:
        """Merge the spans and counts of another recorder (a child process)."""
        offset = len(self.spans)
        for rec in data["spans"]:
            rec = list(rec)
            rec[PARENT] = rec[PARENT] + offset if rec[PARENT] >= 0 else -1
            rec[ITEM] = self.item
            self.spans.append(rec)
        for name, n in data["counts"].items():
            self._absorbed[name] = self._absorbed.get(name, 0) + n

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, item."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps([i, rec[NAME], rec[START], rec[END], rec[PARENT],
                                     rec[ITEM], rec[RAISED]]) + "\n")


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _p99(xs):
    if len(xs) < 2:
        return _median(xs)
    return statistics.quantiles(xs, n=100, method="inclusive")[98]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(rec: Recorder) -> tuple[dict, dict]:
    """Per-layer metrics from one recorder, plus the base of each ratio.

    Returns (values, bases): values maps metric name to a number; bases
    maps a ratio's name to the text of its numerator and denominator.
    """
    spans = rec.spans
    child = [0.0] * len(spans)
    for rec_ in spans:
        if rec_[PARENT] >= 0:
            child[rec_[PARENT]] += rec_[END] - rec_[START]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def self_s(name):
        return sum(dur(i) - child[i] for i in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def extras(name):
        return [spans[i][EXTRA] for i in by_name.get(name, ())]

    v: dict[str, float] = {}
    base: dict[str, str] = {}
    c = rec.counts
    v["model.coefficient_value_calls"] = c.get("model.coefficient_value", 0)
    v["model.validate_geometry_calls"] = c.get("model.validate_geometry", 0)

    prop = by_name.get("exact.propagate", [])
    events = sum(spans[i][EXTRA] or 0 for i in prop)
    prop_self = self_s("exact.propagate")
    v["exact.propagate_calls"] = len(prop)
    v["exact.events"] = events
    v["exact.events_per_s"] = _ratio(events, prop_self)
    base["exact.events_per_s"] = f"{events} events / {prop_self:.6f} s propagate self time"
    v["exact.propagate_us_p50"] = _median([dur(i) for i in prop]) * 1e6
    v["exact.zeros_calls"] = c.get("exact.zeros", 0)
    v["exact.value_at_calls"] = c.get("exact.value_at", 0)
    v["exact.sup_distance_calls"] = calls("exact.sup_distance")
    v["exact.sup_distance_self_s"] = self_s("exact.sup_distance")

    cls = by_name.get("maps.classify", [])
    cls_us = [dur(i) * 1e6 for i in cls]
    cls_ids = set(cls)
    under_classify = sum(1 for i in prop if spans[i][PARENT] in cls_ids)
    validated = sum(extras("maps.classify"))
    v["maps.classify_calls"] = len(cls)
    v["maps.classify_us_p50"] = _median(cls_us)
    v["maps.classify_us_p99"] = _p99(cls_us)
    v["maps.classify_self_us"] = _ratio(self_s("maps.classify"), len(cls)) * 1e6
    base["maps.classify_self_us"] = (f"{self_s('maps.classify'):.6f} s self time / "
                                     f"{len(cls)} calls")
    v["maps.propagations_per_classify"] = _ratio(under_classify, len(cls))
    base["maps.propagations_per_classify"] = f"{under_classify} propagations / {len(cls)} calls"
    v["maps.validated_ratio"] = _ratio(validated, under_classify)
    base["maps.validated_ratio"] = (f"{validated} validated verdicts / "
                                    f"{under_classify} candidates propagated")

    integ = by_name.get("numeric.integrate", [])
    samples = sum(spans[i][EXTRA][1] for i in integ if spans[i][EXTRA])
    v["numeric.integrate_calls"] = len(integ)
    v["numeric.samples"] = samples
    for band, lo, hi in (("coarse", 0.1, math.inf), ("mid", 0.02, 0.1), ("fine", 0.0, 0.02)):
        sel = [i for i in integ if spans[i][EXTRA] and lo <= spans[i][EXTRA][0] < hi
               and spans[i][EXTRA][0] > 0.0]
        t = sum(dur(i) - child[i] for i in sel)
        n = sum(spans[i][EXTRA][1] for i in sel)
        v[f"numeric.us_per_sample.{band}"] = _ratio(t, n) * 1e6
        base[f"numeric.us_per_sample.{band}"] = f"{t:.6f} s / {n} samples"
    v["numeric.echo_knots"] = sum(spans[i][EXTRA][2] for i in integ if spans[i][EXTRA])
    points = sum(x or 0 for x in extras("numeric.values_at"))
    lookup_s = self_s("numeric.values_at")
    v["numeric.values_at_points"] = points
    v["numeric.hermite_lookups_per_s"] = _ratio(points, lookup_s)
    base["numeric.hermite_lookups_per_s"] = f"{points} points / {lookup_s:.6f} s"
    v["numeric.compare_self_s"] = self_s("numeric.compare")

    scans = by_name.get("analysis.scan", [])
    cells = sum(x or 0 for x in extras("analysis.scan"))
    scan_total = sum(dur(i) for i in scans)
    v["analysis.scan_self_s"] = self_s("analysis.scan")
    v["analysis.scan_us_per_cell"] = _ratio(scan_total, cells) * 1e6
    base["analysis.scan_us_per_cell"] = f"{scan_total:.6f} s scan time / {cells} cells"
    co = by_name.get("analysis.coexistence", [])
    refused = sum(1 for i in co if spans[i][RAISED])
    v["analysis.coexistence_self_s"] = self_s("analysis.coexistence")
    v["analysis.pairing_refused_ratio"] = _ratio(refused, len(co))
    base["analysis.pairing_refused_ratio"] = f"{refused} refusals / {len(co)} checks"
    v["analysis.convergence_self_s"] = self_s("analysis.convergence")
    tables = by_name.get("analysis.reproduce_tables", [])
    v["analysis.reproduce_tables_ms"] = _median([dur(i) for i in tables]) * 1e3

    mains = by_name.get("cli.main", [])
    v["cli.main_self_ms"] = _ratio(self_s("cli.main"), len(mains)) * 1e3
    base["cli.main_self_ms"] = f"{self_s('cli.main'):.6f} s self time / {len(mains)} invocations"

    for layer in ("exact", "maps", "numeric", "analysis"):
        v[f"{layer}.self_s"] = sum(self_s(n) for n in by_name if n.startswith(layer + "."))
    return v, base
