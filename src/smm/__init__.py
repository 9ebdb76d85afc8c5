"""Structured means analysis of common factor models.

Library surface:

    model_spec   free/fixed parameter patterns, validation, flat indexing
    moments      datasets and sample moments
    smm_core     closed-form factor-mean estimators and diagnostics
    estimator    maximum-likelihood fitting
    simulate     population models and deterministic sampling
    montecarlo   replicated studies and reference comparisons
    serialize    JSON/CSV input and output
    fixtures     bundled reference models, populations and studies

`import smm` loads none of these. A public name, or a submodule used as
an attribute (smm.rng), imports its module on first use (PEP 562), so a
caller pays only for the modules it touches.
"""

import importlib

__version__ = "0.1.0"

# each public name under the module that defines it; __all__ keeps this order
_EXPORTS = {
    "errors": ("SmmError", "InvalidModelError", "NotPositiveDefiniteError"),
    "estimator": (
        "FitOptions", "FitResult", "ImpliedMoments", "fit", "fit_many",
        "implied_moments", "ml_discrepancy", "numeric_gradient",
    ),
    "model_spec": (
        "ModelSpec", "ParameterCell", "ParameterIndex", "ValidationReport",
        "fix_intercept_variant", "fixed", "free", "one_factor_spec", "validate",
    ),
    "moments": ("Dataset", "SampleMoments", "compute_moments"),
    "montecarlo": (
        "REFERENCE_TABLE", "ComparisonReport", "ReplicationSummary", "StudyConfig",
        "StudySummary", "aggregate", "compare_to_reference", "run_study",
    ),
    "simulate": (
        "PopulationModel", "Seed", "cholesky", "draw_sample", "explicit",
        "population_moments", "structured",
    ),
    "smm_core": (
        "ProportionalityReport", "equal_loading_mean", "expected_means",
        "factor_means_ls", "proportionality_report",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "fixtures", "rng", "serialize"}


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
