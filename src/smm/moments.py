"""Observed data and its first two sample moments.

SampleMoments holds the moments of one sample (compute_moments) or of a
block of samples of one size (simulate.draw_moments, a Monte Carlo
condition), and estimator.fit_many fits either. covariances is where a
covariance is finished from its centered crossproduct, for one sample or
a block: divided by n - 1, mirrored from the lower triangle so that it
is exactly symmetric, and tested for zero variances.
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
    """Sample mean and covariance (denominator n - 1) with their sample size.

    One sample has mean (p,) and cov (p, p); a block of R samples, each of
    n rows, has mean (R, p) and cov (R, p, p), row i the moments of sample
    i. p is the last axis. n must be an integer >= 2 and every mean and
    covariance finite, as compute_moments and Dataset guarantee for
    moments made from data; a block is checked once, as a whole.
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
        if mean.ndim not in (1, 2) or cov.shape != mean.shape + mean.shape[-1:]:
            raise SmmError(DIMENSION_MISMATCH, "need a mean (p,) and covariance (p, p), or (R, p) and (R, p, p)")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise SmmError(NON_FINITE_VALUES, "non-finite value in the sample mean or covariance")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def p(self) -> int:
        return self.mean.shape[-1]


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


def _center_in_place(x: np.ndarray, mean: np.ndarray, cross: np.ndarray) -> None:
    """Write the column means of x to mean, center x on them, and write each x'x to cross.

    x is one sample (n, p), with mean (p,) and cross (p, p), or a slab of k
    samples of n rows (n, k, p), with mean (k, p) and cross (k, p, p). Both
    are summed along their first axis as (n, k p): each column in its
    sequential order, so a sample gets the same bits in a slab as alone.
    The sum, then the division, is what np.mean computes. Values whose sum
    overflows give inf and NaN here without a numpy warning, and
    SampleMoments rejects them as NON_FINITE_VALUES.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.reduce(x.reshape(len(x), -1), axis=0, out=mean.reshape(-1))
        mean /= len(x)
        x -= mean
        samples = x.swapaxes(0, -2)  # (..., n, p)
        np.matmul(samples.swapaxes(-1, -2), samples, out=cross)


def compute_moments(data: Dataset) -> SampleMoments:
    """Sample mean and covariance (denominator n - 1).

    The covariance is finished by covariances: exactly symmetric, with a
    warning for each zero-variance column.
    """
    mean, cross = np.empty(data.p), np.empty((data.p, data.p))
    # a copy in the layout of the data, which fixes the order of its sums
    _center_in_place(data.values.copy(order="K"), mean, cross)
    return SampleMoments(n=data.n, mean=mean, cov=covariances(cross, data.n, data.variable_names))
