"""Periodic solutions of a relay delay equation with a two-level coefficient.

The package constructs slowly oscillating periodic solutions of

    x'(t) = a(t) * f(x(t - 1))

exactly (event-driven piecewise-affine propagation), classifies them
through one-dimensional affine return maps, and verifies numerically that
they persist when the relay nonlinearity and the two-level coefficient
are smoothed.

Module map:

    model     parameter/validation layer, the sharp coefficient, the
              coefficient switch schedule and the work cap
    exact     event-driven exact propagation and piecewise-affine paths
    maps      the orbit-family table, return maps, fixed points, classify, basins
    numeric   run checks (run_step), the smoothed coefficient and nonlinearity,
              the method-of-steps integrator for the smoothed system, comparisons
    tables    embedded benchmark dataset
    analysis  benchmark grading by orbit family, coexistence pairing, scans,
              convergence
    cli       command-line interface (relaydde <subcommand>); the only module
              that parses config text or turns results into JSON, CSV or reports

classify is the one verdict pipeline: each closed-form candidate is
validated by exact propagation before it is reported.  Its core,
maps._verdicts, returns plain tuples, which classify wraps into records and
scan and grade_row read directly.  The other modules
return records (frozen dataclasses, named tuples, dicts), never text.
Each submodule loads on first access to one of its names (or to the
submodule itself), so a CLI command loads only the modules it runs, and
numpy loads only when numeric integrates or compares a smoothed solution:
the exact and return-map work runs without it.
"""

# each public name by the submodule that defines it; a name is read from its
# submodule on every access, importing it on the first, so the package always
# gives the submodule's current binding
_EXPORTS = {
    "analysis": ("CoexistenceReport", "ConvergenceFailed", "ConvergenceRow",
                 "ConvergenceTable", "PairingFailed", "RowResult", "ScanCell", "ScanReport",
                 "coexistence_check", "grade_row", "reproduce_tables", "scan",
                 "smoothing_convergence"),
    "exact": ("ConstantHistory", "DegenerateStall", "PiecewisePath", "path_sup_distance",
              "propagate", "zeros"),
    "maps": ("DIVERGES_2T", "SHAPE_INVALID", "STABLE_2T", "STABLE_T", "UNSTABLE_T",
             "BasinDescriptor", "Classification", "HZero", "MIsOne", "NoCycle",
             "NotApplicable", "apply_F", "basin", "classify", "dual_params",
             "type1_coefficients", "type1_fixed_point", "type2_coefficients",
             "type2_two_cycle"),
    "model": ("Params", "Profile", "RelayDDEError", "SmoothingSpec", "coefficient_value",
              "validate_geometry"),
    "numeric": ("DenseSolution", "NonFiniteState", "compare_exact_smoothed", "corner_windows",
                "integrate", "run_step"),
    "tables": ("ROWS", "TableRow"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    from importlib import import_module

    if name in _EXPORTS:  # a submodule, which importing binds here
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    hidden = {"_EXPORTS", "_HOME", "__getattr__", "__dir__"}
    return sorted({*globals(), *_HOME, *_EXPORTS} - hidden)
