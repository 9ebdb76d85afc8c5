"""Observed data and its first two sample moments.

covariances is where a covariance is finished from its centered
crossproduct, for one sample (compute_moments) or a block of them
(simulate.draw_moments): divided by n - 1, mirrored from the lower
triangle so that it is exactly symmetric, and tested for zero variances.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import SmmError, NON_FINITE_VALUES, TOO_FEW_ROWS, DIMENSION_MISMATCH


@dataclass(frozen=True)
class Dataset:
    """An n x p matrix of observations with column names."""

    values: np.ndarray
    variable_names: tuple

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise SmmError(DIMENSION_MISMATCH, "data must be a 2-d array")
        if values.shape[0] < 1:
            raise SmmError(TOO_FEW_ROWS, "data must contain at least one row")
        if not np.all(np.isfinite(values)):
            bad = int(np.argwhere(~np.isfinite(values))[0][0])
            raise SmmError(NON_FINITE_VALUES, f"non-finite value in data row {bad + 1}")
        names = tuple(self.variable_names)
        if len(names) != values.shape[1]:
            raise SmmError(
                DIMENSION_MISMATCH,
                f"{len(names)} column names for {values.shape[1]} columns",
            )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "variable_names", names)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class SampleMoments:
    """Sample mean vector and covariance matrix (denominator n - 1) with their sample size.

    n must be an integer >= 2 and every mean and covariance finite, as
    compute_moments and Dataset guarantee for moments made from data.
    """

    n: int
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        try:
            n = operator.index(self.n)
        except TypeError:
            n = None
        if n is None or n < 2:
            raise SmmError(TOO_FEW_ROWS, f"sample size must be an integer >= 2, got {self.n!r}")
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if cov.shape != (mean.shape[0], mean.shape[0]):
            raise SmmError(DIMENSION_MISMATCH, "covariance shape does not match mean length")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise SmmError(NON_FINITE_VALUES, "non-finite value in the sample mean or covariance")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def p(self) -> int:
        return self.mean.shape[0]


def covariances(cross: np.ndarray, n: int, variable_names) -> np.ndarray:
    """Covariances (..., p, p) from the centered crossproducts (..., p, p) of n rows each.

    Each is divided by n - 1 and takes its lower triangle mirrored, so it
    is exactly symmetric rather than symmetric up to rounding. A
    zero-variance column is legal input (the moments exist) but poisons
    any downstream fit, so it warns, once per column of the block.
    """
    if n < 2:
        raise SmmError(TOO_FEW_ROWS, f"need at least 2 rows for a covariance, got {n}")
    lower = np.tri(cross.shape[-1], dtype=bool)
    cov = np.where(lower, cross, cross.swapaxes(-1, -2))
    cov /= n - 1
    zero = (cov.diagonal(0, -2, -1) == 0.0).reshape(-1, cov.shape[-1]).any(axis=0)
    for j in np.flatnonzero(zero):
        warnings.warn(f"column {variable_names[j]} has zero sample variance", stacklevel=3)
    return cov


def compute_moments(data: Dataset) -> SampleMoments:
    """Sample mean and covariance (denominator n - 1).

    The covariance is finished by covariances: exactly symmetric, with a
    warning for each zero-variance column.
    """
    mean = data.values.mean(axis=0)
    centered = data.values - mean
    cov = covariances(centered.T @ centered, data.n, data.variable_names)
    return SampleMoments(n=data.n, mean=mean, cov=cov)
