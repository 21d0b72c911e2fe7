"""Periodic solutions of a relay delay equation with a two-level coefficient.

The package constructs slowly oscillating periodic solutions of

    x'(t) = a(t) * f(x(t - 1))

exactly (event-driven piecewise-affine propagation), classifies them
through one-dimensional affine return maps, and verifies numerically that
they persist when the relay nonlinearity and the two-level coefficient
are smoothed.

Module map:

    model     parameter/validation layer, coefficient and nonlinearity values,
              the coefficient switch schedule and the work cap
    exact     event-driven exact propagation and piecewise-affine paths
    maps      return-map coefficients, fixed points, classify, basins
    numeric   run checks (run_step) and one-step integrator for the smoothed
              system, comparisons
    tables    embedded benchmark dataset
    analysis  benchmark grading from classify, coexistence pairing, scans,
              convergence
    cli       command-line interface (relaydde <subcommand>)

classify is the one verdict pipeline: each closed-form candidate is
validated by exact propagation before it is reported.  Result records are
frozen dataclasses; dataclasses.asdict gives their JSON form.
"""

from .analysis import (
    CoexistenceReport,
    ConvergenceFailed,
    ConvergenceRow,
    ConvergenceTable,
    PairingFailed,
    RowResult,
    ScanCell,
    ScanReport,
    coexistence_check,
    format_table_report,
    grade_row,
    reproduce_tables,
    scan,
    smoothing_convergence,
)
from .exact import (
    ConstantHistory,
    DegenerateStall,
    PiecewisePath,
    is_slowly_oscillating,
    path_sup_distance,
    propagate,
    zeros,
)
from .maps import (
    DIVERGES_2T,
    SHAPE_INVALID,
    STABLE_2T,
    STABLE_T,
    UNSTABLE_T,
    BasinDescriptor,
    Classification,
    HZero,
    MIsOne,
    NoCycle,
    NotApplicable,
    apply_F,
    basin,
    classify,
    dual_params,
    type1_coefficients,
    type1_fixed_point,
    type2_coefficients,
    type2_two_cycle,
)
from .model import (
    INV_E,
    Params,
    Profile,
    RelayDDEError,
    SmoothingSpec,
    coefficient_value,
    nonlinearity_slope_at_zero,
    nonlinearity_value,
    oscillation_condition,
    parse_config_text,
    validate_geometry,
)
from .numeric import (
    DenseSolution,
    NonFiniteState,
    StepTooLarge,
    compare_exact_smoothed,
    corner_windows,
    integrate,
    one_period_multiplier,
    parabola_coefficients,
    run_step,
)
from .tables import ROWS, TableRow, rows_for

__all__ = [
    "BasinDescriptor",
    "Classification",
    "CoexistenceReport",
    "ConstantHistory",
    "ConvergenceFailed",
    "ConvergenceRow",
    "ConvergenceTable",
    "DIVERGES_2T",
    "DegenerateStall",
    "DenseSolution",
    "HZero",
    "INV_E",
    "MIsOne",
    "NoCycle",
    "NonFiniteState",
    "NotApplicable",
    "PairingFailed",
    "Params",
    "PiecewisePath",
    "Profile",
    "ROWS",
    "RelayDDEError",
    "RowResult",
    "SHAPE_INVALID",
    "STABLE_2T",
    "STABLE_T",
    "ScanCell",
    "ScanReport",
    "SmoothingSpec",
    "StepTooLarge",
    "TableRow",
    "UNSTABLE_T",
    "apply_F",
    "basin",
    "classify",
    "coefficient_value",
    "coexistence_check",
    "compare_exact_smoothed",
    "corner_windows",
    "dual_params",
    "format_table_report",
    "grade_row",
    "integrate",
    "is_slowly_oscillating",
    "nonlinearity_slope_at_zero",
    "nonlinearity_value",
    "one_period_multiplier",
    "oscillation_condition",
    "parabola_coefficients",
    "parse_config_text",
    "path_sup_distance",
    "propagate",
    "reproduce_tables",
    "rows_for",
    "run_step",
    "scan",
    "smoothing_convergence",
    "type1_coefficients",
    "type1_fixed_point",
    "type2_coefficients",
    "type2_two_cycle",
    "validate_geometry",
    "zeros",
]

__version__ = "0.1.0"
