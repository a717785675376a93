"""Faber operators, Grunsky matrices and Cauchy decompositions for
families of analytic Jordan curves given as polynomial images of the
unit circle."""

from .coeffs import (
    CoeffSeq,
    dirichlet_norm_minus,
    dirichlet_norm_plus,
    eval_series,
    h_half_norm,
    project_minus,
    project_plus,
    reflect,
    sample_to_coeffs,
)
from .domain import (
    ConformalMapSpec,
    MultiDomainConfig,
    ValidationReport,
    curve_samples,
    evaluate_map,
    invert_map,
    map_derivative,
    validate_config,
    winding_number,
)
from .errors import (
    AliasWarning,
    FaberkitError,
    MethodDisagreement,
    NonConvergence,
    OutsideRange,
    PoleOutsideRegions,
    TooCloseToContour,
)
from .faber import (
    FaberPoly,
    RationalFn,
    apply_big_faber,
    apply_faber,
    faber_oracle,
    faber_polynomial,
    faber_series_table,
)
from .grunsky import (
    GrunskyMatrix,
    apply_grunsky,
    assemble,
    block_column_norms,
    diagonal_block_series,
    faber_pullback_block,
    norm_history,
    offdiagonal_block_series,
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
    dirichlet_norm_sigma_area,
    faber_coefficients,
    faber_partial_sum_error,
    graph_check,
    inverse_faber,
    probe_grid,
    projection_component,
    pullback_boundary,
    region_of_point,
)
from .quadrature import (
    Contour,
    area_quadrature_disk,
    cauchy_eval,
    contour_integral,
    contour_integral_refined,
)

__version__ = "0.1.0"
