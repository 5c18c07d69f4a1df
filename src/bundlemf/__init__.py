"""Variational toolkit for mean-field-type functionals on a line bundle over
the flat torus: subcritical minimization, Green sections with their regular
parts, the exact critical value, and the classical blow-up test families."""

__version__ = "0.1.0"

from .bundle import (
    Connection,
    KernelBasis,
    bundle_energy,
    bundle_laplacian,
    make_connection,
    poincare_constant,
    project_H1,
)
from .functional import (
    ExponentOverflowError,
    MinimizeResult,
    ProblemSpec,
    SolverOptions,
    el_residual,
    evaluate_J,
    minimize,
)
from .geometry import (
    OneForm,
    ScalarField,
    TorusGrid,
    build_grid,
    codifferential,
    exterior_derivative,
    integrate,
    l2_inner,
    laplacian,
    oneform_inner,
)
from .green import GreenData, SolvabilityError, critical_value, critical_value_map, solve_green
from .sweep import SweepRecord, blowup_diagnostics, subcritical_sweep, window_profile
from .testfunctions import (
    QkFamily,
    annulus_capacity,
    annulus_capacity_numeric,
    bubble_checks,
    build_Qk,
    extrapolate_limit,
    moser_family,
    plateau_integral,
    qk_audit,
    tm_probe,
)

__all__ = [
    "Connection", "KernelBasis", "bundle_energy", "bundle_laplacian",
    "make_connection", "poincare_constant", "project_H1",
    "ExponentOverflowError", "MinimizeResult", "ProblemSpec", "SolverOptions",
    "el_residual", "evaluate_J", "minimize",
    "OneForm", "ScalarField", "TorusGrid", "build_grid", "codifferential",
    "exterior_derivative", "integrate", "l2_inner", "laplacian", "oneform_inner",
    "GreenData", "SolvabilityError", "critical_value", "critical_value_map",
    "solve_green",
    "SweepRecord", "blowup_diagnostics", "subcritical_sweep", "window_profile",
    "QkFamily", "annulus_capacity", "annulus_capacity_numeric", "bubble_checks", "build_Qk",
    "extrapolate_limit", "moser_family", "plateau_integral", "qk_audit", "tm_probe",
]
