"""Faber operators, Grunsky matrices and Cauchy decompositions for
families of analytic Jordan curves given as polynomial images of the
unit circle."""

from .coeffs import dirichlet_norm, sample_to_coeffs, unit_roots
from .domain import (
    ConformalMapSpec,
    MultiDomainConfig,
    ValidationReport,
    curve_samples,
    evaluate_map,
    map_derivative,
    roots_inside,
    validate_config,
)
from .errors import (
    AliasError,
    FaberkitError,
    MethodDisagreement,
    PoleOutsideRegions,
    TooCloseToContour,
)
from .faber import (
    RationalFn,
    apply_big_faber,
    apply_faber,
    faber_series_table,
    faber_values,
)
from .grunsky import (
    GrunskyMatrix,
    apply_grunsky,
    assemble,
    diagonal_block_series,
    faber_pullback_block,
    norm_history,
    operator_norm,
    orthonormal_from_monomial,
    read_matrix,
    write_matrix,
)
from .analysis import (
    DecompositionResult,
    GraphCheckReport,
    SeriesErrorTable,
    boundary_grid,
    decompose,
    dirichlet_norm_sigma,
    faber_coefficients,
    faber_partial_sum_error,
    graph_check,
    probe_grid,
    projection_component,
    pullback_boundary,
    region_of_point,
)
from .quadrature import Contour, cauchy_eval

__version__ = "0.1.0"
