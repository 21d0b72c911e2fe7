"""Command-line interface for the relay oscillator toolkit.

Subcommands:

    simulate   exact breakpoint path (delta = 0) or smoothed dense solution
    classify   return-map verdicts plus basin description
    tables     rebuild every embedded benchmark row and grade it
    scan       classify a grid over a parameter box around a center point
    smooth     smoothing convergence study at shrinking half-widths
    coexist    verify the unstable/stable coexistence pairing via the dual

Exit codes: 0 success, 1 computational failure, 2 invalid input, 3 benchmark
regression (tables found at least one non-PASS row).

Any flag can instead come from a flat 'key = value' file passed as
--config (flag names with underscores, e.g. t_end); explicit flags win.
A relative --output path is placed under $RELAYDDE_OUTDIR when that is
set; the directory is created if needed.
All CSV and JSON text is written here, by _csv_text and _json_text; CSV
numbers use the shortest text that parses back to the same double.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from collections.abc import Iterable
from dataclasses import asdict
from pathlib import Path

from .analysis import (
    coexistence_check,
    format_table_report,
    reproduce_tables,
    scan as run_scan,
    smoothing_convergence,
)
from .exact import ConstantHistory, propagate
from .maps import NotApplicable, basin, classify
from .model import Params, Profile, RelayDDEError, SmoothingSpec, parse_config_text
from .numeric import integrate

_Flags = dict[str, argparse.Action]


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, _Flags]]:
    """The parser, and each command's flag actions keyed by dest.

    The actions are the one flag schema: --config values are converted with
    the type and checked against the choices declared here.
    """
    parser = argparse.ArgumentParser(
        prog="relaydde",
        description="Construct, classify, and verify relay oscillator orbits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    schema: dict[str, _Flags] = {}

    def command(name, help_text, with_params=True):
        sp = sub.add_parser(name, help=help_text)
        flags = schema[name] = {}

        def add(*names, **kwargs):
            action = sp.add_argument(*names, **kwargs)
            flags[action.dest] = action

        if with_params:
            add("--a1", type=float, help="first coefficient level")
            add("--a2", type=float, help="second coefficient level")
            add("--p1", type=float, help="first stretch length")
            add("--p2", type=float, help="second stretch length")
        add("--config", help="flat key = value file supplying flag defaults")
        add("--format", choices=("csv", "json"), help="output payload format")
        add("--output", help="write the payload here instead of stdout")
        return add

    add = command("simulate", "integrate one solution and emit it")
    add("--h", type=float, help="constant history value")
    add("--t-end", dest="t_end", type=float, help="integration horizon")
    add("--delta", type=float,
        help="smoothing half-width; 0 runs the exact engine (default 0)")
    add("--profile", choices=tuple(p.value for p in Profile),
        help="smoothed nonlinearity shape (default affine)")
    add("--step", type=float, help="integrator step for delta > 0")

    command("classify", "return-map verdicts for one parameter point")

    command("tables", "grade the embedded benchmark rows", with_params=False)

    add = command("scan", "classify a grid around a center point")
    add("--span", type=float, help="relative half-width of the box (default 0.1)")
    add("--resolution", type=int, help="grid points per axis (default 3)")

    add = command("smooth", "smoothing convergence study")
    add("--h", type=float, help="constant history value")
    add("--t-end", dest="t_end", type=float, help="study horizon (default 30)")
    add("--deltas", help="comma-separated decreasing half-widths")

    add = command("coexist", "verify the coexistence pairing via the dual")
    add("--horizon", type=int, help="double periods to wait for attraction (default 30)")

    return parser, schema


def _merge_config(args: argparse.Namespace, flags: _Flags) -> None:
    if args.config is None:
        return
    path = Path(args.config)
    if not path.is_file():
        raise ValueError(f"config file not found: {args.config}")
    cfg = parse_config_text(path.read_text())
    for key, raw in cfg.items():
        action = flags.get(key)
        if action is None or key == "config" or getattr(args, key) is not None:
            continue  # not a flag of this command, or an explicit flag wins
        try:
            value = raw if action.type is None else action.type(raw)
        except ValueError:
            raise ValueError(f"config value for {key!r} is not valid: {raw!r}") from None
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"unknown {key} {value!r}, expected one of "
                             f"{', '.join(action.choices)}")
        setattr(args, key, value)


def _require(args: argparse.Namespace, name: str):
    value = getattr(args, name)
    if value is None:
        raise ValueError(f"--{name.replace('_', '-')} is required for this command")
    return value


def _params(args: argparse.Namespace) -> Params:
    return Params(_require(args, "a1"), _require(args, "a2"),
                  _require(args, "p1"), _require(args, "p2"))


def _resolve_output(path_str: str) -> Path:
    path = Path(path_str)
    if not path.is_absolute():
        outdir = os.environ.get("RELAYDDE_OUTDIR")
        if outdir:
            path = Path(outdir) / path
            # The env var names the artifacts root, so materialize it;
            # plain --output paths stay strict and fail on missing dirs.
            path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _emit(payload: str, args: argparse.Namespace) -> None:
    if args.output is None:
        sys.stdout.write(payload)
    else:
        _resolve_output(args.output).write_text(payload)


def _csv_text(header: list[str], rows: Iterable[Iterable]) -> str:
    """Header and rows as CSV: None is written empty and a float by repr.

    Cells must be Python floats, not numpy scalars, whose repr names the type.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def _cmd_simulate(args: argparse.Namespace) -> int:
    params = _params(args)
    h = _require(args, "h")
    t_end = _require(args, "t_end")
    delta = 0.0 if args.delta is None else args.delta
    fmt = args.format or "csv"
    if delta == 0.0:
        path = propagate(params, ConstantHistory(h), t_end)
        if fmt == "csv":
            payload = _csv_text(["t", "x"], path.breakpoints)
        else:
            payload = _json_text(path.to_jsonable())
    else:
        profile = Profile(args.profile or "affine")
        spec = SmoothingSpec(delta=delta, profile=profile)
        sol = integrate(params, spec, h, t_end, step=args.step)
        times, values, derivs = sol.times.tolist(), sol.values.tolist(), sol.derivs.tolist()
        if fmt == "csv":
            payload = _csv_text(["t", "x", "dx"], zip(times, values, derivs))
        else:
            payload = _json_text({
                "start_time": sol.start_time,
                "step": sol.step,
                "times": times,
                "values": values,
                "derivs": derivs,
                "events": sol.events,
            })
    _emit(payload, args)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    params = _params(args)
    verdicts = classify(params)
    try:
        basin_jsonable = asdict(basin(params))
    except NotApplicable:
        basin_jsonable = None
    fmt = args.format or "json"
    if fmt == "json":
        payload = _json_text({
            "params": asdict(params),
            "verdicts": [asdict(v) for v in verdicts],
            "basin": basin_jsonable,
        })
    else:
        rows = []
        for v in verdicts:
            if isinstance(v.h_star, tuple):
                h_low, h_high = v.h_star
            else:
                h_low, h_high = v.h_star, None
            rows.append([v.kind, h_low, h_high, v.period, v.m, v.b, v.k, v.d,
                         v.validated, v.boundary, v.reason])
        payload = _csv_text(
            ["kind", "h_star_low", "h_star_high", "period", "m", "b", "k", "d",
             "validated", "boundary", "reason"], rows)
    _emit(payload, args)
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    results = reproduce_tables()
    sys.stdout.write(format_table_report(results))
    if args.output is not None:
        records = [{"table": r.row.table_id, "index": r.row.index,
                    **asdict(r.row.params),
                    "h_expected": r.row.h_star_expected,
                    "h_computed": r.computed_h,
                    "period": r.computed_period,
                    "status": r.status}
                   for r in results]
        if (args.format or "json") == "json":
            payload = _json_text(records)
        else:
            payload = _csv_text(list(records[0]), [rec.values() for rec in records])
        _emit(payload, args)
    return 0 if all(r.status == "PASS" for r in results) else 3


def _cmd_scan(args: argparse.Namespace) -> int:
    centers = (_require(args, "a1"), _require(args, "a2"),
               _require(args, "p1"), _require(args, "p2"))
    span = 0.1 if args.span is None else args.span
    if not 0.0 < span < 1.0:
        raise ValueError(f"--span must lie strictly between 0 and 1, got {span}")
    resolution = 3 if args.resolution is None else args.resolution
    ranges = tuple((c * (1.0 - span), c * (1.0 + span)) for c in centers)
    report = run_scan(*ranges, resolution)
    fmt = args.format or "json"
    if fmt == "json":
        jsonable = asdict(report)
        jsonable["kind_counts"] = report.kind_counts()
        payload = _json_text(jsonable)
    else:
        payload = _csv_text(
            ["a1", "a2", "p1", "p2", "kinds", "boundary"],
            [[c.a1, c.a2, c.p1, c.p2, ";".join(c.kinds), c.boundary]
             for c in report.cells])
    _emit(payload, args)
    if args.output is not None:
        counts = ", ".join(f"{k}={n}" for k, n in sorted(report.kind_counts().items()))
        print(f"{len(report.cells)} cells, overlap_free={report.overlap_free}, {counts}")
    return 0


def _cmd_smooth(args: argparse.Namespace) -> int:
    params = _params(args)
    h = _require(args, "h")
    t_end = 30.0 if args.t_end is None else args.t_end
    raw = args.deltas or "0.05,0.025,0.0125"
    try:
        deltas = tuple(float(tok) for tok in raw.split(","))
    except ValueError:
        raise ValueError(f"--deltas must be comma-separated numbers, got {raw!r}") from None
    table = smoothing_convergence(params, h, deltas, t_end)
    fmt = args.format or "json"
    if fmt == "json":
        payload = _json_text(asdict(table))
    else:
        payload = _csv_text(
            ["delta", "max_dev_overall", "residual"],
            [[r.delta, r.max_dev_overall, r.residual] for r in table.rows])
    _emit(payload, args)
    if args.output is not None:
        print(f"{len(table.rows)} half-widths, fitted_c={table.fitted_c!r}")
    return 0


def _cmd_coexist(args: argparse.Namespace) -> int:
    params = _params(args)
    horizon = 30 if args.horizon is None else args.horizon
    if horizon < 3:
        raise ValueError(f"--horizon must be at least 3, got {horizon}")
    report = coexistence_check(params, horizon_periods=horizon)
    fmt = args.format or "json"
    if fmt == "json":
        payload = _json_text(asdict(report))
    else:
        payload = _csv_text(
            ["h_unstable", "h_stable_low", "h_stable_high", "shift_sup_distance",
             "convergence_plus", "convergence_minus", "residual_plus",
             "residual_minus", "tail_plus", "tail_minus"],
            [[report.h_unstable, report.h_stable[0], report.h_stable[1],
              report.shift_sup_distance,
              report.convergence_periods[0], report.convergence_periods[1],
              report.return_map_residuals[0], report.return_map_residuals[1],
              report.tail_distances[0], report.tail_distances[1]]])
    _emit(payload, args)
    if args.output is not None:
        print(f"coexistence verified: h_unstable={report.h_unstable!r}, "
              f"h_stable=({report.h_stable[0]!r}, {report.h_stable[1]!r})")
    return 0


_DISPATCH = {
    "simulate": _cmd_simulate,
    "classify": _cmd_classify,
    "tables": _cmd_tables,
    "scan": _cmd_scan,
    "smooth": _cmd_smooth,
    "coexist": _cmd_coexist,
}


def main(argv=None) -> int:
    parser, schema = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        _merge_config(args, schema[args.command])
        return _DISPATCH[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RelayDDEError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
