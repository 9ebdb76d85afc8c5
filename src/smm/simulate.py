"""Population models and multivariate-normal sampling.

A population is a fully numeric factor model. Its mean vector either
follows the mean structure (nu + Lambda theta) or is given explicitly;
the explicit form exists precisely so that populations violating the
structure can be simulated. Sampling is x = m + L z with L the Cholesky
factor of the population covariance and z standard normal from the
deterministic generator in the rng module. draw_sample is the draw of
one seed. A draw of many seeds from one population (draw_moments, a
Monte Carlo condition) factors it once and is one lean pass: each seed
re-keys one generator and reuses two (n, p) buffers, keeps only its mean
and crossproduct, and the block's covariances are finished together. The
block comes back as one SampleMoments, whose row i keeps the bits
draw_sample and compute_moments give the sample of seed i.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import (
    SmmError,
    ASYMMETRIC_MATRIX,
    DIMENSION_MISMATCH,
    INVALID_SAMPLE_SIZE,
    NONPOSITIVE_UNIQUE_VARIANCE,
    NotPositiveDefiniteError,
)
from .moments import Dataset, SampleMoments, _center_in_place, covariances

STRUCTURED = "structured"
EXPLICIT = "explicit"

# Cholesky pivots at or below this are treated as rank deficiency.
PIVOT_FLOOR = 1e-12


@dataclass(frozen=True)
class Seed:
    """Master seed for one sampling stream; 64-bit unsigned, kept as a Python int."""

    master: int

    def __post_init__(self):
        master = operator.index(self.master)
        if not 0 <= master < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        object.__setattr__(self, "master", master)


@dataclass(frozen=True)
class PopulationModel:
    """Numeric generating model.

    means_kind is "structured" (nu and theta set, mean = nu + Lambda theta)
    or "explicit" (mean_vector set directly). Use the structured() and
    explicit() constructors rather than building instances by hand.
    """

    loadings: np.ndarray
    factor_cov: np.ndarray
    unique_variances: np.ndarray
    means_kind: str
    intercepts: np.ndarray | None = None
    factor_means: np.ndarray | None = None
    mean_vector: np.ndarray | None = None
    variable_names: tuple = ()

    def __post_init__(self):
        lam = np.atleast_2d(np.asarray(self.loadings, dtype=float))
        phi = np.atleast_2d(np.asarray(self.factor_cov, dtype=float))
        psi2 = np.atleast_1d(np.asarray(self.unique_variances, dtype=float))
        p, q = lam.shape
        if phi.shape != (q, q):
            raise SmmError(DIMENSION_MISMATCH, f"factor covariance must be {q} x {q}")
        if psi2.shape != (p,):
            raise SmmError(DIMENSION_MISMATCH, f"unique variances must have length {p}")
        if np.any(psi2 <= 0):
            raise SmmError(NONPOSITIVE_UNIQUE_VARIANCE, "unique variances must all be > 0")
        # PD check on the factor covariance; with psi2 > 0 this also makes
        # the implied covariance positive definite.
        cholesky(phi)

        if self.means_kind == STRUCTURED:
            nu = np.atleast_1d(np.asarray(self.intercepts, dtype=float))
            theta = np.atleast_1d(np.asarray(self.factor_means, dtype=float))
            if nu.shape != (p,) or theta.shape != (q,):
                raise SmmError(DIMENSION_MISMATCH, "structured means need nu (p) and theta (q)")
            object.__setattr__(self, "intercepts", nu)
            object.__setattr__(self, "factor_means", theta)
        elif self.means_kind == EXPLICIT:
            m = np.atleast_1d(np.asarray(self.mean_vector, dtype=float))
            if m.shape != (p,):
                raise SmmError(DIMENSION_MISMATCH, "explicit mean vector must have length p")
            object.__setattr__(self, "mean_vector", m)
        else:
            raise ValueError(f"unknown means kind {self.means_kind!r}")

        names = tuple(self.variable_names) or tuple(f"x{i + 1}" for i in range(p))
        if len(names) != p:
            raise SmmError(DIMENSION_MISMATCH, "variable_names length must match p")
        object.__setattr__(self, "loadings", lam)
        object.__setattr__(self, "factor_cov", phi)
        object.__setattr__(self, "unique_variances", psi2)
        object.__setattr__(self, "variable_names", names)

    @property
    def p(self) -> int:
        return self.loadings.shape[0]

    @property
    def q(self) -> int:
        return self.loadings.shape[1]


def structured(lam, phi, psi2, nu, theta, variable_names=()) -> PopulationModel:
    """Population whose means follow the structure nu + Lambda theta."""
    return PopulationModel(
        loadings=lam,
        factor_cov=phi,
        unique_variances=psi2,
        means_kind=STRUCTURED,
        intercepts=nu,
        factor_means=theta,
        variable_names=variable_names,
    )


def explicit(lam, phi, psi2, mean_vector, variable_names=()) -> PopulationModel:
    """Population with an arbitrary mean vector, structured or not."""
    return PopulationModel(
        loadings=lam,
        factor_cov=phi,
        unique_variances=psi2,
        means_kind=EXPLICIT,
        mean_vector=mean_vector,
        variable_names=variable_names,
    )


def population_moments(pop: PopulationModel) -> tuple[np.ndarray, np.ndarray]:
    """Population mean vector and covariance (Lambda Phi Lambda' + Psi2)."""
    if pop.means_kind == STRUCTURED:
        m = pop.intercepts + pop.loadings @ pop.factor_means
    else:
        m = pop.mean_vector.copy()
    cross = pop.loadings @ pop.factor_cov @ pop.loadings.T
    lower = np.tril(cross)
    sigma = lower + np.tril(cross, -1).T
    sigma[np.diag_indices_from(sigma)] += pop.unique_variances
    return m, sigma


def cholesky(sigma: np.ndarray) -> np.ndarray:
    """Lower-triangular factor L with L L' = sigma, of one matrix or a stack (..., p, p).

    Rejects asymmetric input outright and reports non-positive-definite
    matrices, including the nearly singular case where a pivot falls at or
    below PIVOT_FLOOR. A stack is checked in one step and raises if any of
    its matrices fails.
    """
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    if sigma.shape[-1] != sigma.shape[-2]:
        raise SmmError(DIMENSION_MISMATCH, "matrix must be square")
    scale = np.abs(sigma).max(axis=(-2, -1))
    asymmetry = np.abs(sigma - sigma.swapaxes(-1, -2)).max(axis=(-2, -1))
    if np.any(asymmetry > 1e-8 * np.where(scale == 0.0, 1.0, scale)):
        raise SmmError(ASYMMETRIC_MATRIX, "matrix is not symmetric")
    try:
        lower = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError("matrix is not positive definite") from None
    if np.any(lower.diagonal(0, -2, -1) ** 2 <= PIVOT_FLOOR):
        raise NotPositiveDefiniteError(
            f"matrix is numerically singular (pivot below {PIVOT_FLOOR:g})"
        )
    return lower


def _factored(pop: PopulationModel, n: int):
    """The population mean and the transposed Cholesky factor of its covariance."""
    if n < 1:
        raise SmmError(INVALID_SAMPLE_SIZE, f"sample size must be >= 1, got {n}")
    m, sigma = population_moments(pop)
    return m, cholesky(sigma).T


def draw_sample(pop: PopulationModel, n: int, seed: Seed) -> Dataset:
    """Draw n i.i.d. rows from the population.

    The draw order is fixed: the standard-normal matrix is filled row by
    row from a single Philox stream keyed by seed.master, so identical
    (pop, n, seed) always give byte-identical data regardless of platform
    or how many other samples were drawn before this one.
    """
    m, lower_t = _factored(pop, n)
    z = rng.normals(seed.master, (n, pop.p))
    return Dataset(values=m + z @ lower_t, variable_names=pop.variable_names)


def draw_moments(pop: PopulationModel, n: int, seeds) -> SampleMoments:
    """The block of sample moments of n rows drawn for each seed, the population factored once.

    Row i of the block's mean (R, p) and cov (R, p, p) holds the moments
    of the sample draw_sample gives for seed i, with the bits
    compute_moments gives it. The seeds take turns in two (n, p) buffers
    (rng.normals_into re-keys one generator per seed), and each leaves
    only its mean and centered crossproduct in a row of the block, so
    memory stays O(len(seeds) p^2 + n p). The block's covariances are
    then finished at once (moments.covariances), and the block is checked
    once, as one SampleMoments.
    """
    m, lower_t = _factored(pop, n)
    masters = [seed.master for seed in seeds]
    means = np.empty((len(masters), pop.p))
    cross = np.empty((len(masters), pop.p, pop.p))
    x = np.empty((n, pop.p))
    for z, mean, row in zip(rng.normals_into(np.empty((n, pop.p)), masters), means, cross):
        np.matmul(z, lower_t, out=x)
        x += m
        _center_in_place(x, mean, row)
    return SampleMoments(n=n, mean=means, cov=covariances(cross, n, pop.variable_names))
