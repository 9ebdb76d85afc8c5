"""Population models and multivariate-normal sampling.

A population is a fully numeric factor model. Its mean vector either
follows the mean structure (nu + Lambda theta) or is given explicitly;
the explicit form exists precisely so that populations violating the
structure can be simulated. Sampling is x = m + L z with L the Cholesky
factor of the population covariance and z standard normal from the
deterministic generator in the rng module. A population is checked and
factored once, when it is built, and every draw reads that factor.
draw_sample is the draw of one seed. A draw of many seeds from one
population (draw_moments, a Monte Carlo condition) is one lean pass: a chunk
of seeds shares one Box-Muller pass for its normals and a slab for its
centering and crossproducts, and keeps only their means and
crossproducts, and the block's covariances are finished together. The
block comes back as one SampleMoments, whose row i keeps the bits
draw_sample and compute_moments give the sample of seed i.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .errors import (
    SmmError,
    DIMENSION_MISMATCH,
    INVALID_SAMPLE_SIZE,
    NON_FINITE_VALUES,
    NONPOSITIVE_UNIQUE_VARIANCE,
)
from .linalg import checked_cholesky, failure
from .moments import Dataset, SampleMoments, _center_in_place, covariances

# Values in the slab of one chunk of draw_moments (128 KB): its samples
# share one Box-Muller pass and one pass of the centering and the
# crossproducts. 2**16 values move the speed by at most 3% and raise a
# Table 1 replay's peak RSS by 0.4 MB.
SLAB_VALUES = 2**14

STRUCTURED = "structured"
EXPLICIT = "explicit"


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

    Building checks the model: a loading, unique variance, intercept,
    factor mean or mean vector entry that is NaN or infinite raises
    SmmError(NON_FINITE_VALUES), a unique variance <= 0 raises
    NONPOSITIVE_UNIQUE_VARIANCE, and a factor covariance or implied
    covariance that simulate.cholesky rejects raises its error. It also
    factors the population once: mean is its mean vector and lower_t the
    transposed Cholesky factor L' of its covariance (population_moments),
    which every draw reads. Its arrays are read-only copies of the
    arguments.
    """

    loadings: np.ndarray
    factor_cov: np.ndarray
    unique_variances: np.ndarray
    means_kind: str
    intercepts: np.ndarray | None = None
    factor_means: np.ndarray | None = None
    mean_vector: np.ndarray | None = None
    variable_names: tuple = ()
    mean: np.ndarray = field(init=False, repr=False, compare=False)
    lower_t: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lam = np.atleast_2d(np.array(self.loadings, dtype=float))
        phi = np.atleast_2d(np.array(self.factor_cov, dtype=float))
        psi2 = np.atleast_1d(np.array(self.unique_variances, dtype=float))
        p, q = lam.shape
        if phi.shape != (q, q):
            raise SmmError(DIMENSION_MISMATCH, f"factor covariance must be {q} x {q}")
        if psi2.shape != (p,):
            raise SmmError(DIMENSION_MISMATCH, f"unique variances must have length {p}")
        if self.means_kind == STRUCTURED:
            nu = np.atleast_1d(np.array(self.intercepts, dtype=float))
            theta = np.atleast_1d(np.array(self.factor_means, dtype=float))
            if nu.shape != (p,) or theta.shape != (q,):
                raise SmmError(DIMENSION_MISMATCH, "structured means need nu (p) and theta (q)")
            object.__setattr__(self, "intercepts", nu)
            object.__setattr__(self, "factor_means", theta)
            means = {"intercepts": nu, "factor means": theta}
        elif self.means_kind == EXPLICIT:
            m = np.atleast_1d(np.array(self.mean_vector, dtype=float))
            if m.shape != (p,):
                raise SmmError(DIMENSION_MISMATCH, "explicit mean vector must have length p")
            object.__setattr__(self, "mean_vector", m)
            means = {"mean vector": m}
        else:
            raise ValueError(f"unknown means kind {self.means_kind!r}")
        # phi is checked by its factor, which rejects a NaN or infinity in it
        for name, values in {"loadings": lam, "unique variances": psi2, **means}.items():
            if not np.isfinite(values).all():
                raise SmmError(NON_FINITE_VALUES, f"{name} must be finite")
        if np.any(psi2 <= 0):
            raise SmmError(NONPOSITIVE_UNIQUE_VARIANCE, "unique variances must all be > 0")
        # phi must factor; with psi2 > 0 sigma then does too, up to its
        # rounding, which its own factor below checks
        cholesky(phi)

        names = tuple(self.variable_names) or tuple(f"x{i + 1}" for i in range(p))
        if len(names) != p:
            raise SmmError(DIMENSION_MISMATCH, "variable_names length must match p")
        object.__setattr__(self, "loadings", lam)
        object.__setattr__(self, "factor_cov", phi)
        object.__setattr__(self, "unique_variances", psi2)
        object.__setattr__(self, "variable_names", names)
        # finite entries can still overflow: sigma is then not finite, and its factor fails
        with np.errstate(over="ignore", invalid="ignore"):
            m, sigma = population_moments(self)
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "lower_t", cholesky(sigma).T)
        # the arrays are copies, read-only so that the factor cannot go stale
        for array in vars(self).values():
            if isinstance(array, np.ndarray):
                array.flags.writeable = False

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
    below linalg.PIVOT_FLOOR. A stack is checked in one step
    (linalg.checked_cholesky) and raises if any of its matrices fails:
    asymmetry anywhere first, then a matrix that is not positive definite,
    then a pivot at the floor.
    """
    lower, codes = checked_cholesky(sigma)
    if codes.any():
        raise failure(codes[codes > 0].min())
    return lower


def _factored(pop: PopulationModel, n: int):
    """The population mean and the transposed Cholesky factor of its covariance, as built."""
    if n < 1:
        raise SmmError(INVALID_SAMPLE_SIZE, f"sample size must be >= 1, got {n}")
    return pop.mean, pop.lower_t


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
    """The block of sample moments of n rows drawn for each seed.

    Row i of the block's mean (R, p) and cov (R, p, p) holds the moments
    of the sample draw_sample gives for seed i, with the bits
    compute_moments gives it. The seeds go in chunks of k whose values
    fill a slab of SLAB_VALUES: each chunk's normals come from one
    Box-Muller pass (rng.normal_chunks, one generator re-keyed per seed),
    and each seed writes its z L' into the chunk's slab (n, k, p). The
    chunk then adds m, sums, centers and forms its crossproducts at once,
    and leaves only its means and centered crossproducts in rows of the
    block, so memory stays O(len(seeds) p^2 + n p + SLAB_VALUES). The block's
    covariances are then finished at once (moments.covariances), and the
    block is checked once, as one SampleMoments.
    """
    return _draw_moments(pop, n, [seed.master for seed in seeds])


def _draw_moments(pop: PopulationModel, n: int, masters: list) -> SampleMoments:
    """draw_moments of the seeds whose masters, 64-bit Python ints, are given."""
    m, lower_t = _factored(pop, n)
    means = np.empty((len(masters), pop.p))
    cross = np.empty((len(masters), pop.p, pop.p))
    chunk = max(1, SLAB_VALUES // (n * pop.p))
    chunks = rng.normal_chunks(masters, (n, pop.p), chunk)
    for start, z in zip(range(0, len(masters), chunk), chunks):
        rows = slice(start, start + len(z))
        slab = np.empty((n, len(z), pop.p))
        for k, sample in enumerate(z):
            np.matmul(sample, lower_t, out=slab[:, k])
        slab += m
        _center_in_place(slab, means[rows], cross[rows])
    return SampleMoments(n=n, mean=means, cov=covariances(cross, n, pop.variable_names))
