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

The argparse schema of _build_parser is the one place that knows a flag's
type, choices, default (shown by --help) and whether it is required. A
--config file of flat 'key = value' lines (keys spelled like the flag, with
hyphens or underscores; a repeated key is refused) enters the command line
as --flag=value tokens ahead of the explicit flags, which therefore win.
A relative --output path is placed under $RELAYDDE_OUTDIR when that is
set; the directory is created if needed.
main sets OPENBLAS_NUM_THREADS=1 unless it is set or numpy is already
loaded; the library modules leave the environment alone.
This module is the only one that turns results into text: _emit writes
every CSV and JSON payload; CSV numbers use the shortest text that parses
back to the same double.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from collections import Counter
from collections.abc import Callable, Iterable
from contextlib import nullcontext
from dataclasses import asdict
from itertools import chain, islice, product
from pathlib import Path

from .model import Params, Profile, RelayDDEError, SmoothingSpec

# rows of a CSV table written at a time, and of a smoothed simulate table turned
# into Python floats at a time
_CHUNK = 512
_Flags = dict[str, argparse.Action]


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, _Flags]]:
    """The parser, and each command's flag actions keyed by dest.

    The actions are the one flag schema: a --config value is one more
    --flag=value token, which argparse converts and checks like any other.
    """
    parser = argparse.ArgumentParser(
        prog="relaydde",
        description="Construct, classify, and verify relay oscillator orbits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    schema: dict[str, _Flags] = {}

    def command(name, help_text, with_params=True, fmt="json"):
        sp = sub.add_parser(name, help=help_text)
        flags = schema[name] = {}

        def add(*names, **kwargs):
            action = sp.add_argument(*names, **kwargs)
            flags[action.dest] = action

        if with_params:
            add("--a1", type=float, required=True, help="first coefficient level")
            add("--a2", type=float, required=True, help="second coefficient level")
            add("--p1", type=float, required=True, help="first stretch length")
            add("--p2", type=float, required=True, help="second stretch length")
        # not in flags: a config file cannot name another one
        sp.add_argument("--config", help="flat key = value file supplying flag values")
        add("--format", choices=("csv", "json"), default=fmt,
            help="output payload format (default %(default)s)")
        add("--output", help="write the payload here instead of stdout")
        return add

    add = command("simulate", "integrate one solution and emit it", fmt="csv")
    add("--h", type=float, required=True,
        help="constant history value; 0 gives the zero solution when delta > 0, "
             "while the exact engine (delta 0) refuses it")
    add("--t-end", dest="t_end", type=float, required=True, help="integration horizon")
    add("--delta", type=float, default=0.0,
        help="smoothing half-width; 0 runs the exact engine (default %(default)s)")
    # --profile and --step default to None, so that delta 0 can refuse them
    add("--profile", choices=tuple(p.value for p in Profile),
        help="smoothed nonlinearity shape (default affine)")
    add("--step", type=float, help="integrator step for delta > 0")

    command("classify", "return-map verdicts for one parameter point")

    command("tables", "grade the embedded benchmark rows", with_params=False)

    add = command("scan", "classify a grid around a center point")
    add("--span", type=float, default=0.1,
        help="relative half-width of the box (default %(default)s)")
    add("--resolution", type=int, default=3, help="grid points per axis (default %(default)s)")

    add = command("smooth", "smoothing convergence study")
    add("--h", type=float, required=True, help="constant history value")
    add("--t-end", dest="t_end", type=float, default=30.0,
        help="study horizon (default %(default)s)")
    add("--deltas", default="0.05,0.025,0.0125",
        help="comma-separated decreasing half-widths (default %(default)s)")

    add = command("coexist", "verify the coexistence pairing via the dual")
    add("--horizon", type=int, default=30,
        help="double periods to wait for attraction (default %(default)s)")

    return parser, schema


def _config_tokens(config: str, flags: _Flags) -> list[str]:
    """The config file's values as --flag=value tokens for these flags; keys
    that are no flag of the command are ignored."""
    path = Path(config)
    if not path.is_file():
        raise ValueError(f"config file not found: {config}")
    tokens = []
    lines: dict[str, int] = {}  # dest -> the line that set it
    for lineno, raw_line in enumerate(path.read_text().splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()  # '#' starts a comment
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not (sep and key and value):
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw_line!r}")
        dest = key.replace("-", "_")
        if dest in lines:
            raise ValueError(f"config line {lineno}: {key!r} was already set on line "
                             f"{lines[dest]}")
        lines[dest] = lineno
        if dest in flags:
            tokens.append(f"{flags[dest].option_strings[0]}={value}")
    return tokens


def _params(args: argparse.Namespace) -> Params:
    return Params(args.a1, args.a2, args.p1, args.p2)


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


def _emit(args: argparse.Namespace, record: Callable[[], object], header: list[str],
          rows: Iterable[Iterable], summary: str | None = None) -> None:
    """Write record() as JSON, or header and rows as CSV (None empty, a float
    by repr: cells must be Python floats, not numpy scalars), to stdout, or to
    --output and then the summary line, if any, to stdout.

    The CSV is written as the rows come, never held whole: one write per
    _CHUNK rows, each a system call when the stream is unbuffered.
    """
    if args.format == "json":
        text = json.dumps(record(), indent=2, allow_nan=False) + "\n"
        if args.output is None:
            sys.stdout.write(text)
        else:
            _resolve_output(args.output).write_text(text)
    else:
        with (nullcontext(sys.stdout) if args.output is None
              else _resolve_output(args.output).open("w")) as out:
            block = io.StringIO()
            writer = csv.writer(block, lineterminator="\n")
            writer.writerow(header)
            rows = iter(rows)
            while True:
                writer.writerows(islice(rows, _CHUNK))
                if not block.tell():  # every row, and the header, is written
                    break
                out.write(block.getvalue())
                block.seek(0)
                block.truncate()
    if args.output is not None and summary is not None:
        print(summary)


def _cmd_simulate(args: argparse.Namespace) -> int:
    params = _params(args)
    if args.delta == 0.0:
        from .exact import ConstantHistory, propagate, zeros

        for name in ("step", "profile"):
            if getattr(args, name) is not None:
                raise ValueError(f"--{name} applies only with --delta > 0; "
                                 f"--delta 0 runs the exact engine")
        path = propagate(params, ConstantHistory(args.h), args.t_end)
        ts, xs = path.times, path.values
        _emit(args, lambda: {
            "start_time": path.start_time,
            "breakpoints": [[t, x] for t, x in zip(ts, xs)],
            "segments": [{"t0": t0, "t1": t1, "x0": x0, "x1": x1,
                          "slope": (x1 - x0) / (t1 - t0)}
                         for t0, t1, x0, x1 in zip(ts, ts[1:], xs, xs[1:])],
            "zeros": zeros(path),
        }, ["t", "x"], zip(ts, xs))
    else:
        from .numeric import integrate

        spec = SmoothingSpec(delta=args.delta, profile=Profile(args.profile or "affine"))
        sol = integrate(params, spec, args.h, args.t_end, step=args.step)
        columns = (sol.times, sol.values, sol.derivs)
        # Python floats for _CHUNK rows at a time, so the table is never held whole
        rows = chain.from_iterable(zip(*(c[i:i + _CHUNK].tolist() for c in columns))
                                   for i in range(0, len(sol.times), _CHUNK))
        _emit(args, lambda: {
            "start_time": sol.start_time,
            "step": sol.step,
            "times": sol.times.tolist(),
            "values": sol.values.tolist(),
            "derivs": sol.derivs.tolist(),
            "events": sol.events,
        }, ["t", "x", "dx"], rows)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    from .maps import NotApplicable, basin, classify

    params = _params(args)
    verdicts = classify(params)
    try:
        basin_jsonable = asdict(basin(params))
    except NotApplicable:
        basin_jsonable = None
    rows = []
    for v in verdicts:
        h_low, h_high = v.h_star if isinstance(v.h_star, tuple) else (v.h_star, None)
        rows.append([v.kind, h_low, h_high, v.period, v.m, v.b, v.k, v.d,
                     v.validated, v.boundary, v.reason])
    _emit(args, lambda: {
        "params": asdict(params),
        "verdicts": [asdict(v) for v in verdicts],
        "basin": basin_jsonable,
    }, ["kind", "h_star_low", "h_star_high", "period", "m", "b", "k", "d",
        "validated", "boundary", "reason"], rows)
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    from .analysis import reproduce_tables

    results = reproduce_tables()
    lines = []  # the PASS/FAIL report, one line per row, written to stdout at once
    for res in results:
        row, p = res.row, res.row.params
        computed = "n/a" if res.computed_h is None else f"{res.computed_h:+.6f}"
        lines.append(f"{row.table_id} #{row.index:<2d} "
                     f"(a1={p.a1:.6g}, a2={p.a2:.6g}, p1={p.p1:.6g}, p2={p.p2:.6g})  "
                     f"h_ref={row.h_star_expected:+.6g}  h={computed}  "
                     f"period={res.computed_period:.6g}  {res.status}\n")
    n_pass = sum(res.status == "PASS" for res in results)
    lines.append(f"{len(results)} rows: {n_pass} PASS, {len(results) - n_pass} FAIL\n")
    sys.stdout.write("".join(lines))
    if args.output is not None:
        records = [{"table": r.row.table_id, "index": r.row.index,
                    **asdict(r.row.params),
                    "h_expected": r.row.h_star_expected,
                    "h_computed": r.computed_h,
                    "period": r.computed_period,
                    "status": r.status}
                   for r in results]
        _emit(args, lambda: records, list(records[0]), (rec.values() for rec in records))
    return 0 if all(r.status == "PASS" for r in results) else 3


def _cmd_scan(args: argparse.Namespace) -> int:
    from .analysis import scan

    span = args.span
    if not 0.0 < span < 1.0:
        raise ValueError(f"--span must lie strictly between 0 and 1, got {span}")
    centers = (args.a1, args.a2, args.p1, args.p2)
    ranges = tuple((c * (1.0 - span), c * (1.0 + span)) for c in centers)
    report = scan(*ranges, args.resolution)
    # cells per kind in order of first appearance, so no run depends on PYTHONHASHSEED
    counts = Counter(k for kinds in report.kinds for k in dict.fromkeys(kinds))
    listed = ", ".join(f"{k}={n}" for k, n in sorted(counts.items()))
    header = ["a1", "a2", "p1", "p2", "kinds", "boundary"]

    def cells():  # each cell's (a1, a2, p1, p2), kinds and boundary, in grid order
        return zip(product(*report.axes), report.kinds, report.boundary)

    _emit(args, lambda: {"axes": report.axes, "overlap_free": report.overlap_free,
                         "cells": [dict(zip(header, (*point, kinds, boundary)))
                                   for point, kinds, boundary in cells()],
                         "kind_counts": dict(counts)},
          header, ([*point, ";".join(kinds), boundary] for point, kinds, boundary in cells()),
          f"{len(report.kinds)} cells, overlap_free={report.overlap_free}, {listed}")
    return 0


def _cmd_smooth(args: argparse.Namespace) -> int:
    from .analysis import smoothing_convergence

    params = _params(args)
    try:
        deltas = tuple(float(tok) for tok in args.deltas.split(","))
    except ValueError:
        raise ValueError(f"--deltas must be comma-separated numbers, "
                         f"got {args.deltas!r}") from None
    table = smoothing_convergence(params, args.h, deltas, args.t_end)
    _emit(args, lambda: asdict(table), ["delta", "max_dev_overall", "residual"],
          ([r.delta, r.max_dev_overall, r.residual] for r in table.rows),
          f"{len(table.rows)} half-widths, fitted_c={table.fitted_c!r}")
    return 0


def _cmd_coexist(args: argparse.Namespace) -> int:
    from .analysis import coexistence_check

    report = coexistence_check(_params(args), horizon_periods=args.horizon)
    _emit(args, lambda: asdict(report),
          ["h_unstable", "h_stable_low", "h_stable_high", "shift_sup_distance",
           "convergence_plus", "convergence_minus", "residual_plus",
           "residual_minus", "tail_plus", "tail_minus"],
          [[report.h_unstable, *report.h_stable, report.shift_sup_distance,
            *report.convergence_periods, *report.return_map_residuals,
            *report.tail_distances]],
          f"coexistence verified: h_unstable={report.h_unstable!r}, "
          f"h_stable={report.h_stable!r}")
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
    if "numpy" not in sys.modules:
        # relaydde calls no BLAS routine, and on a small machine an idle OpenBLAS
        # worker slows the smoothed commands' start-up. Once numpy is loaded,
        # OpenBLAS has read its environment, and a default would only reach
        # this process's children.
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, schema = _build_parser()
    pre = argparse.ArgumentParser(prog="relaydde", add_help=False)
    pre.add_argument("--config", nargs="?")  # parser reports a missing value
    try:
        config = pre.parse_known_args(argv)[0].config
        if config is not None and argv[0] in schema:
            # after the command name, so the explicit flags that follow win
            argv[1:1] = _config_tokens(config, schema[argv[0]])
        args = parser.parse_args(argv)
        return _DISPATCH[args.command](args)
    except SystemExit as exc:  # argparse: --help, or a bad flag or value
        return 0 if exc.code in (0, None) else 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RelayDDEError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
