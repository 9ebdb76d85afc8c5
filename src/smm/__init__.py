"""Structured means analysis of common factor models.

Library surface:

    model_spec   free/fixed parameter patterns, validation, flat indexing
    moments      datasets and sample moments
    smm_core     closed-form factor-mean estimators and diagnostics
    estimator    maximum-likelihood fitting and fit statistics
    simulate     population models and deterministic sampling
    montecarlo   replicated studies and reference comparisons
    serialize    JSON/CSV input and output
    fixtures     bundled reference models, populations and studies
"""

from .errors import SmmError, InvalidModelError, NotPositiveDefiniteError
from .estimator import (
    FitOptions,
    FitResult,
    ImpliedMoments,
    fit,
    fit_many,
    fit_statistics,
    implied_moments,
    ml_discrepancy,
    numeric_gradient,
)
from .model_spec import (
    ModelSpec,
    ParameterCell,
    ParameterIndex,
    ValidationReport,
    fix_intercept_variant,
    fixed,
    free,
    one_factor_spec,
    parameter_index,
    validate,
)
from .moments import Dataset, SampleMoments, compute_moments
from .montecarlo import (
    REFERENCE_TABLE,
    ComparisonReport,
    ReplicationSummary,
    StudyConfig,
    StudySummary,
    aggregate,
    compare_to_reference,
    run_study,
)
from .simulate import (
    PopulationModel,
    Seed,
    cholesky,
    draw_sample,
    explicit,
    population_moments,
    structured,
)
from .smm_core import (
    ProportionalityReport,
    equal_loading_mean,
    expected_means,
    factor_means_ls,
    hadamard_ratio,
    proportionality_report,
)

__version__ = "0.1.0"

__all__ = [
    "SmmError",
    "InvalidModelError",
    "NotPositiveDefiniteError",
    "FitOptions",
    "FitResult",
    "ImpliedMoments",
    "fit",
    "fit_many",
    "fit_statistics",
    "implied_moments",
    "ml_discrepancy",
    "numeric_gradient",
    "ModelSpec",
    "ParameterCell",
    "ParameterIndex",
    "ValidationReport",
    "fix_intercept_variant",
    "fixed",
    "free",
    "one_factor_spec",
    "parameter_index",
    "validate",
    "Dataset",
    "SampleMoments",
    "compute_moments",
    "REFERENCE_TABLE",
    "ComparisonReport",
    "ReplicationSummary",
    "StudyConfig",
    "StudySummary",
    "aggregate",
    "compare_to_reference",
    "run_study",
    "PopulationModel",
    "Seed",
    "cholesky",
    "draw_sample",
    "explicit",
    "population_moments",
    "structured",
    "ProportionalityReport",
    "equal_loading_mean",
    "expected_means",
    "factor_means_ls",
    "hadamard_ratio",
    "proportionality_report",
]
