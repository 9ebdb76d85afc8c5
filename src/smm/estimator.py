"""Maximum-likelihood estimation of factor models with mean structure.

The discrepancy minimized is the normal-theory ML fit function for a
mean-and-covariance structure,

    F = ln|Sigma| - ln|S| + tr(S Sigma^-1) - p + (xbar - mu)' Sigma^-1 (xbar - mu)

which is zero exactly when the implied moments reproduce the sample
moments, and (n - 1) F is the chi-square test statistic under the model.

F is evaluated from the whitened residual. With Sigma = L L', U = L^-1,
B = U (S - Sigma) U' and d = xbar - mu,

    F = sum_i (b_i - log1p(b_i)) + |U d|^2

over the eigenvalues b_i of B. Each term is nonnegative and B is formed
from S - Sigma, so near a minimum F keeps a relative precision instead
of being a difference of terms of the size of p and ln|S|: its error is
about eps * sum|b_i|, and S = Sigma gives F = 0 exactly.

Unique variances are optimized as logs so positivity never needs explicit
constraints; everything else is optimized on its natural scale. The
gradient is exact: with W = Sigma^-1 = U'U and
G = dF/dSigma = -U' B U - (W d)(W d)', each component is

    dF/dp_k = tr(G dSigma/dp_k) - 2 d' W dmu/dp_k

(Joreskog 1967 for the covariance part, Lee & Jennrich 1979 for the mean
part). One evaluation builds the implied moments and factors Sigma once
for both F and its gradient.

The mean parameters are concentrated out (variable projection; Golub &
Pereyra 1973). mu = nu + Lambda theta is linear in the free intercepts
and factor means beta, mu = mu0 + A beta with a column e_j of A for each
free nu_j and Lambda[:, k] for each free theta_k, so at any point of the
covariance parameters (lambda, phi, psi2) the best beta is the GLS
solution of (UA)'(UA) beta = (UA)' U d0, with d0 = xbar - mu0. Every
evaluation forms U = L^-1 once, as the Fisher seed below does, whitens A
with it as it whitens S - Sigma and d0, sets beta to that optimum and
returns the concentrated F with its gradient over the covariance
parameters, which the envelope theorem makes exact: the mean block of
the joint gradient vanishes at beta. The bilinear lambda theta no longer
bends the optimizer's path (anchor_x1 from loadings at half a standard
deviation: a median of 9 iterations over 500 fits, the slowest 11,
against 40 and 88 when beta was walked jointly).

The minimizer is a quasi-Newton loop in numpy over the covariance
parameters. Its inverse-Hessian approximation starts from the inverse of
the concentrated information, the Schur complement on the mean block of
the Fisher information

    H_kl = tr(W dSigma_k W dSigma_l) + 2 dmu_k' W dmu_l

(Jennrich & Robinson 1969), is refreshed from it every few iterations
and is corrected by BFGS updates in between; a backtracking Armijo
search finishes each step. An attempt ends in one of three ways. It
converges where the gradient is within FitOptions.gradient_tolerance and
the next step predicts less decrease than F resolves (F_ROUNDING); there
is no other gradient target, so it stops where F stops resolving a step.
It fails where a search from a fresh seed gives up, where a seed fails
(the information is not positive definite, as on the way to a runaway
factor mean) or where its start has no finite F. Or it reaches
max_iterations.

A free cell with a start of its own keeps it. The other starts are
scaled to the sample (loadings at half a standard deviation, unique
variances at half a variance); intercepts and factor means need none.
In one-factor models with a free factor mean and fixed intercepts the
loadings start along the observed mean residuals instead, to which the
structured-means model makes them proportional, and in other one-factor
models at an iterated principal-axis solution of the correlations (see
_start_values). The median fit of a Table 1 design then takes 4-7
iterations (the slowest of 500: 5-10), where loadings at half a standard
deviation took 13-19 (22-29), and the anchored designs take 5 (7),
against 9 (11).

Fits run in lockstep. fit_many fits a block of samples (one
SampleMoments with a row per sample, as simulate.draw_moments draws a
Monte Carlo condition's replications) with one optimizer whose state is
arrays over the unfinished fits, one row per fit: points, gradients,
inverse Hessians, directions, step lengths and counters. Every round evaluates F
and its gradient at each fit's pending point in one stacked numpy call
over the leading (R, ...) axis, seeds the fits due a Fisher refresh in
another, and takes Armijo acceptance, step shortening, the BFGS update
and the next direction as masks over all rows. A matrix that fails (a
trial Sigma not positive definite, a mean design gone singular as the
loadings shrink) gives NaN in its own row only, so that fit's F or seed
reads inf or NaN and the other rows go on. Attempt counts and best
attempts are arrays over the fits as well: Python runs per fit only to
draw a restart's jitter, and finished fits leave the arrays. The fits of
a batch share one FitOptions, each with its own jitter seed. The set-up
(sample checks, starts) and the wrap-up are stacked too: the wrap-up
forms the matrices, sign convention and free values of every fit at once
into one FitResult block, which a Monte Carlo condition keeps whole up
to its summary. Python builds a FitResult per fit only for fit_many and
fit. Nearly all of the cost on 5x5 matrices is numpy's per-call
overhead, so a stacked call costs little more than a single one. fit is
fit_many on one sample. Each row of a stacked operation gets the bits it
would get alone (see the linalg module), so a result does not depend on
the batch it was fitted in. On a 2-vCPU x86 VM
a lone fit of a bundled design takes about 2-4 ms, and in a batch of 500
about 0.08-0.16 ms per fit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from . import linalg, rng
from .errors import (
    SmmError,
    BAD_INPUT,
    DIMENSION_MISMATCH,
    NONPOSITIVE_UNIQUE_VARIANCE,
    InvalidModelError,
    NotPositiveDefiniteError,
)
from .model_spec import DEFAULT_STARTS, ModelSpec, ParameterIndex, ParameterMatrices, validate
from .moments import SampleMoments
from .simulate import cholesky

# Iterations between refreshes of the inverse Hessian from the Fisher
# information; pure Fisher scoring converges only linearly under
# misspecification. The refresh is where a runaway attempt ends: its
# periodic seed is where the information fails on the way to a huge factor
# mean. Seeded once per attempt, BFGS walks on instead: 3 of 200 fits at
# n = 150 of the population of
# test_no_runaway_fit_converges_above_the_independence_bound (the rows 92,
# 159 and 189 it fits) then report convergence 1.17-1.70 above the
# independence bound, a false optimum; with the refresh none do. The
# bundled fits barely need it: seeded once, they take 5 (6-7) iterations
# on the anchored designs and 4-7 (5-9) on Table 1, against 5 (7) and
# 4-7 (5-10).
FISHER_REFRESH = 5
# Refinements of the principal-axis start (see _start_values). Lockstep
# rounds of a 15-replication anchor_x1 block (seeds 1-300) by steps:
# 0 -> 9.12, 1 -> 8.16, 2 -> 7.55, 3 -> 7.07, 4 -> 6.79, 6 -> 6.51,
# 8 -> 6.49; 11.22 from loadings at half a standard deviation. Each step
# is one stacked eigendecomposition.
PRINCIPAL_AXIS_STEPS = 4
# Sufficient-decrease constant of the Armijo condition.
ARMIJO = 1e-4
# The rounding of F: its error is about eps * sum|b_i| over the eigenvalues
# b_i of the whitened residual, and at the minima of the bundled designs
# sum|b_i| is at most 1.8. A line search gives up once it asks for less,
# and a converged attempt ends before a search that predicts less.
F_ROUNDING = np.finfo(float).eps


@dataclass(frozen=True)
class FitOptions:
    """Settings of fit, and of every fit of a fit_many batch.

    max_iterations caps the quasi-Newton steps of one attempt; a failed
    attempt is retried up to max_restarts times from starts jittered by
    up to jitter_fraction. seed is the jitter seed of fit; fit_many takes
    one jitter seed per sample instead. Steps, starts and jitter
    concern the covariance parameters (lambda, phi, psi2) only; the
    intercepts and factor means follow them in closed form. A fit counts
    as converged when the largest component of the gradient over the
    covariance parameters is at most gradient_tolerance; the mean block of
    the joint gradient is zero up to rounding at every reported point. An
    attempt runs until its step predicts less decrease than F resolves, so
    a tolerance is reached where F resolves it. Over 50 samples of each
    bundled design, every fit converges at 1e-8, and at 1e-9 every model1
    and anchored fit and 48-49 of each model2 design. Below that the
    rounding of F decides: at 1e-10, 30 of the 50 table1_model2_n150 fits
    converge (30-50 per design), and at 1e-11 9-44 of each design's 50.
    Counts must be >= 0, jitter_fraction in [0, 1] and gradient_tolerance
    finite and > 0; anything else raises SmmError(BAD_INPUT).
    """

    max_iterations: int = 1000
    max_restarts: int = 3
    jitter_fraction: float = 0.2
    seed: int = 0
    gradient_tolerance: float = 1e-6

    def __post_init__(self):
        for name, ok in (
            ("max_iterations", self.max_iterations >= 0),
            ("max_restarts", self.max_restarts >= 0),
            ("jitter_fraction", 0.0 <= self.jitter_fraction <= 1.0),
            ("gradient_tolerance", 0.0 < self.gradient_tolerance < np.inf),
        ):
            if not ok:
                raise SmmError(BAD_INPUT, f"FitOptions.{name} out of range: {getattr(self, name)!r}")


@dataclass(frozen=True)
class ImpliedMoments:
    """Model-implied covariance and mean vector at one parameter point."""

    sigma: np.ndarray
    mu_model: np.ndarray


@dataclass(frozen=True)
class FitResult:
    """The fit of one sample, or a block of fits of samples of one size n.

    One fit, as fit and fit_many give it, holds Python floats, ints and
    bools, free_values (t,) and estimates without leading axes. A block
    of R fits has a leading (R,) axis on every field but df, n and labels:
    numpy arrays f_min, chi_square, converged, iterations, grad_inf_norm
    and retries_used (R,), free_values (R, t) and estimates whose matrices
    lead with R. Row i is the fit of sample i; a row whose fit raised has
    zero free values, F and counts and is not converged.
    montecarlo.aggregate reduces blocks and single fits alike.
    """

    estimates: ParameterMatrices
    f_min: float
    chi_square: float
    df: int
    n: int
    converged: bool
    iterations: int
    grad_inf_norm: float
    retries_used: int
    free_values: np.ndarray
    labels: tuple


class _Workspace:
    """The estimator's view of a spec's parameter layout (ParameterIndex).

    The objective and its gradient, the concentrated information,
    implied_moments and numeric_gradient form the implied moments through
    build, one definition that includes the exact symmetrization of Sigma.
    Every path computes F with _discrepancy_terms, ml_discrepancy included.
    A spec's workspace is made once (see _workspace) and never modified
    afterwards.
    """

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.report = validate(spec)
        self.index = index = ParameterIndex(spec)
        self.labels = index.labels()
        self.p, self.q = spec.p, spec.q
        # the scatter of ParameterIndex.insert as a matrix: parameter k
        # collects the cells it fills. The gradient and the Fisher seed map
        # cell derivatives to parameters through it, so a free off-diagonal
        # phi sums the derivatives of both of its cells
        self.gather = np.zeros((self.t, index.template.size))
        self.gather[index.src, index.slots] = 1.0

        matrix = np.array([e.matrix for e in index.entries], dtype=object)
        self.rows = np.array([e.row for e in index.entries], dtype=int)
        # unique variances, optimized as logs
        self.log_pos = np.flatnonzero(matrix == "psi2")
        # the covariance parameters (lambda, phi, psi2) lead the layout; the
        # intercepts and factor means after them are concentrated out
        self.tc = int(np.count_nonzero(np.isin(matrix, ("lambda", "phi", "psi2"))))
        means, mean_rows = matrix[self.tc :], self.rows[self.tc :]
        # the columns of mu = mu0 + A beta in the mean parameters beta: e_j
        # for a free nu_j, and Lambda[:, k] (filled in per point) for theta_k
        self.design = np.zeros((self.p, means.size))
        nu_cols = np.flatnonzero(means == "nu")
        self.design[mean_rows[nu_cols], nu_cols] = 1.0
        self.theta_cols = np.flatnonzero(means == "theta")
        self.theta_rows = mean_rows[self.theta_cols]
        # free loadings and unique variances without a start of their own
        # take one from the sample
        default = ~index.own_start
        self.default_lambda = default & (matrix == "lambda")
        self.default_psi2 = default & (matrix == "psi2")
        # with one factor, the default loadings of the variables J start from
        # the sample's correlations (see _start_values), along its means as
        # well where the factor mean is free and at least two of J have a
        # fixed intercept, and at a principal-axis solution otherwise; at
        # least two are needed to fix the scale of the loadings
        fixed_nu = np.array([not cell.is_free for cell in spec.intercepts])
        from_means = np.flatnonzero(self.default_lambda & fixed_nu[self.rows])
        along_means = spec.q == 1 and spec.factor_means[0].is_free and from_means.size >= 2
        start_lambda = from_means if along_means else np.flatnonzero(self.default_lambda)
        if spec.q > 1 or start_lambda.size < 2:
            start_lambda = start_lambda[:0]
        # no mean residuals: the start iterates principal axes instead
        self.principal_axis = not along_means
        self.start_lambda = start_lambda
        self.start_rows = self.rows[start_lambda]
        self.start_psi2 = np.flatnonzero(self.default_psi2 & np.isin(self.rows, self.start_rows))
        self.start_psi2_of = np.searchsorted(self.start_rows, self.rows[self.start_psi2])
        self.start_nu = index.template[index.slices[3]][self.start_rows]
        # the factor variance, or its start
        self.start_phi = float(index.template[index.slices[1].start])
        self.start_pairs_i, self.start_pairs_j = np.triu_indices(self.start_rows.size, 1)
        # the factors whose sign may flip: each cell the flip touches is free or 0
        touched = [[row[k] for row in spec.loadings] + [spec.factor_means[k]]
                   + [c for j, c in enumerate(spec.factor_cov[k]) if j != k] for k in range(self.q)]
        self.flippable = np.array([all(c.is_free or c.value == 0.0 for c in t) for t in touched])
        self.lower = np.tri(self.p, dtype=bool)
        for array in vars(self).values():
            if isinstance(array, np.ndarray):
                array.flags.writeable = False

    @property
    def t(self) -> int:
        return self.index.t

    def to_unconstrained(self, values: np.ndarray) -> np.ndarray:
        z = np.array(values, dtype=float)
        z[..., self.log_pos] = np.log(z[..., self.log_pos])
        return z

    def to_raw(self, z: np.ndarray) -> np.ndarray:
        v = np.array(z, dtype=float)
        v[..., self.log_pos] = np.exp(v[..., self.log_pos])
        return v

    def build(self, values: np.ndarray) -> tuple[ParameterMatrices, np.ndarray, np.ndarray]:
        """Parameter matrices and implied (sigma, mu) for raw parameter vectors.

        values has shape (..., t) and every result keeps its leading axes.
        The matrices are views into one new array in layout order.
        """
        mats = self.index.insert(values)
        lam, p = mats.loadings, self.p
        cross = lam @ mats.factor_cov @ _mT(lam)
        # exactly symmetric: the upper triangle mirrors the lower one
        sigma = np.where(self.lower, cross, _mT(cross))
        sigma.reshape(sigma.shape[:-2] + (p * p,))[..., :: p + 1] += mats.unique_variances
        mu = mats.intercepts + (lam @ mats.factor_means[..., None])[..., 0]
        return mats, sigma, mu

    def concentrated_information(self, values: np.ndarray) -> np.ndarray:
        """Information on the covariance parameters, the mean parameters concentrated out.

        The Schur complement H_cc - H_cm H_mm^-1 H_mc of the Fisher
        information H (module docstring) on its mean block: the Hessian of
        the concentrated F wherever the model fits exactly. With U = L^-1,
        H = M M' where row k of M holds U dSigma_k U' and sqrt(2) U dmu_k
        (per layout cell, gathered to parameters, with the chain rule
        psi2 = exp(z)). The complement is P P' over the covariance (c) and
        mean (m) rows of M, P = M_c - (M_c M_m')(M_m M_m')^-1 M_m, which
        differs from M_c only in the U dmu columns. values (..., t) is a
        joint point, the mean parameters at their optimum. NaN where Sigma
        is not positive definite or the mean design is singular.
        """
        mats, sigma, _ = self.build(values)
        lead, p, q, k = values.shape[:-1], self.p, self.q, self.p * self.p
        u = linalg.whitener(sigma)
        ul = u @ mats.loadings
        u_t, ul_t, ub_t = _mT(u), _mT(ul), _mT(ul @ mats.factor_cov)
        cells = np.zeros(lead + (self.index.template.size, k + p))
        d_sigma, d_mu = cells[..., :k], cells[..., k:]
        lam, phi, psi2, nu, theta = self.index.slices
        # dSigma/dlambda_ij = e_i (Lambda Phi)_j' + (Lambda Phi)_j e_i'
        outer = u_t[..., :, None, :, None] * ub_t[..., None, :, None, :]
        d_sigma[..., lam, :] = (outer + _mT(outer)).reshape(lead + (p * q, k))
        d_mu[..., lam, :] = (u_t[..., :, None, :] * mats.factor_means[..., None, :, None]).reshape(lead + (-1, p))
        # dSigma/dphi_ab = Lambda_a Lambda_b'; both cells of a free off-diagonal
        # phi are gathered, so its whitened derivative is symmetric
        d_sigma[..., phi, :] = (
            ul_t[..., :, None, :, None] * ul_t[..., None, :, None, :]
        ).reshape(lead + (q * q, k))
        d_sigma[..., psi2, :] = (u_t[..., :, :, None] * u_t[..., :, None, :]).reshape(lead + (p, k))
        d_mu[..., nu, :] = u_t
        d_mu[..., theta, :] = ul_t
        d_mu *= np.sqrt(2.0)
        m = self.gather @ cells
        m[..., self.log_pos, :] *= values[..., self.log_pos, None]
        m_c, m_m = m[..., : self.tc, :], m[..., self.tc :, k:]
        proj = linalg.solve(m_m @ _mT(m_m), m_m @ _mT(m_c[..., k:]))
        m_c[..., k:] -= _mT(proj) @ m_m
        return m_c @ _mT(m_c)


def _mT(a: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes."""
    return a.swapaxes(-1, -2)


@functools.lru_cache(maxsize=64)
def _workspace(spec: ModelSpec) -> _Workspace:
    """The layout of spec, made once per spec (ModelSpec is frozen and hashable)."""
    return _Workspace(spec)


def _discrepancy_terms(
    sigma: np.ndarray,
    mu: np.ndarray,
    sample_cov: np.ndarray,
    xbar: np.ndarray,
    design: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """F from the whitened residuals, with U = L^-1, B = U (S - Sigma) U' and U d.

    design (..., p, m) holds the columns A of m mean parameters beta
    concentrated out of F (m may be 0). U = L^-1 is linalg.whitener(sigma),
    as the Fisher seed (_Workspace.concentrated_information) takes it, so
    both get the same U at a point; U A, U d0 and B are stacked products
    with it. beta solves (UA)'(UA) beta = (UA)' U d0, the GLS fit of the
    mean residual, and U d = U d0 - UA beta. Every argument may carry the
    same leading axes. The gradient reuses U, B and U d, so F is computed
    one way on every path. Returns F, U, B, U d and beta; all of them are
    NaN in a row where Sigma is not positive definite, and beta, U d and F
    where the normal equations are singular.
    """
    u = linalg.whitener(sigma)
    ua, ud0 = u @ design, u @ (xbar - mu)[..., None]
    ua_t = _mT(ua)
    beta = linalg.solve(ua_t @ ua, ua_t @ ud0)
    ud = (ud0 - ua @ beta)[..., 0]
    b = u @ (sample_cov - sigma) @ _mT(u)
    eig = linalg.eigvalsh(b)
    f = (eig - np.log1p(eig)).sum(axis=-1) + (ud * ud).sum(axis=-1)
    return f, u, b, ud, beta[..., 0]


def _discrepancy_and_gradient(
    ws: _Workspace, values: np.ndarray, sample_cov, xbar, concentrate: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """F (rows,) and its exact gradient (rows, t) in unconstrained coordinates.

    values is a stack of raw points (rows, t), each with its own sample:
    sample_cov (rows, p, p) and xbar (rows, p). With concentrate, the free
    intercepts and factor means of each row of values are first moved, in
    place, to their GLS optimum given its covariance parameters: F is then
    the concentrated discrepancy, its gradient over the covariance
    parameters is exact by the envelope theorem, and the mean block of the
    gradient is zero up to rounding. F and the gradient are NaN in a row
    whose implied covariance is not positive definite or, with
    concentrate, whose mean design is singular.
    """
    mats, sigma, mu = ws.build(values)
    lam, lam_t, rows = mats.loadings, _mT(mats.loadings), values.shape[0]
    design = ws.design[:, :0]  # no column: nothing concentrated out
    if concentrate:
        design = np.empty((rows,) + ws.design.shape)
        design[...] = ws.design
        design[..., ws.theta_cols] = lam[..., ws.theta_rows]
    f, u, b, ud, beta = _discrepancy_terms(sigma, mu, sample_cov, xbar, design)
    if concentrate:
        values[:, ws.tc :] += beta
        # of the mean parameters, only the factor means enter the gradient
        mats.factor_means[:, ws.theta_rows] += beta[:, ws.theta_cols]
    u_t = _mT(u)
    wd = (u_t @ ud[..., None])[..., 0]
    g = -(u_t @ b @ u) - wd[:, :, None] * wd[:, None, :]
    # dF/d(cell) for every cell of the layout; psi2 cells carry the chain
    # rule through psi2 = exp(z)
    d_full = np.concatenate(
        [
            (
                2.0 * (g @ lam @ mats.factor_cov - wd[:, :, None] * mats.factor_means[:, None, :])
            ).reshape(rows, -1),
            (lam_t @ g @ lam).reshape(rows, -1),
            g.diagonal(0, 1, 2) * mats.unique_variances,
            -2.0 * wd,
            -2.0 * (lam_t @ wd[:, :, None])[:, :, 0],
        ],
        axis=1,
    )
    return f, d_full @ ws.gather.T


def _checked_point(ws: _Workspace, free_values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """free_values as floats with their implied (sigma, mu), checked.

    Raises unless there are t values and every implied unique variance
    is > 0.
    """
    values = np.asarray(free_values, dtype=float)
    if values.shape != (ws.t,):
        raise SmmError(DIMENSION_MISMATCH, f"expected {ws.t} free values, got {values.shape}")
    mats, sigma, mu = ws.build(values)
    if np.any(mats.unique_variances <= 0):
        raise SmmError(
            NONPOSITIVE_UNIQUE_VARIANCE,
            "implied unique variances must be strictly positive",
        )
    return values, sigma, mu


def _check_one_sample(sample: SampleMoments, sigma, mu) -> None:
    """Raises DIMENSION_MISMATCH unless sample is one sample (not a block) shaped as sigma and mu."""
    if sample.mean.ndim != 1 or (sample.mean.shape, sample.cov.shape) != (np.shape(mu), np.shape(sigma)):
        raise SmmError(
            DIMENSION_MISMATCH,
            f"sample mean {sample.mean.shape} and covariance {sample.cov.shape} are not one sample"
            f" of the model's mean {np.shape(mu)} and covariance {np.shape(sigma)}",
        )


def implied_moments(spec: ModelSpec, free_values: np.ndarray) -> ImpliedMoments:
    """Implied covariance and means with free cells taken from free_values.

    free_values is on the raw scale (actual variances, not logs) in
    ParameterIndex order.
    """
    _, sigma, mu = _checked_point(_workspace(spec), free_values)
    return ImpliedMoments(sigma=sigma, mu_model=mu)


def ml_discrepancy(sample: SampleMoments, implied: ImpliedMoments) -> float:
    """Normal-theory discrepancy between sample moments and implied moments.

    Nonnegative, and zero exactly when Sigma = S and mu = xbar. sample is
    one sample of the p variables of implied. Both matrices must be
    positive definite: simulate.cholesky raises for either one, so
    near-singular matrices fail loudly instead of returning a huge but
    finite value.
    """
    _check_one_sample(sample, implied.sigma, implied.mu_model)
    cholesky(sample.cov)
    cholesky(implied.sigma)
    no_means = np.empty((sample.p, 0))
    f = _discrepancy_terms(implied.sigma, implied.mu_model, sample.cov, sample.mean, no_means)[0]
    return float(f)


def numeric_gradient(
    spec: ModelSpec, free_values: np.ndarray, sample: SampleMoments
) -> np.ndarray:
    """Gradient of the discrepancy in the unconstrained parameterization.

    free_values is raw scale; the derivative is taken after the log
    transform of unique variances, matching what the optimizer sees. The
    value is analytic, not a finite difference: the joint gradient over
    every free parameter at the point as given. fit steps on the
    concentrated F, whose gradient is this one's covariance block only
    where the intercepts and factor means are at their GLS optimum, as at
    every point fit reports. Off it they differ: for model2 at n = 300,
    Seed(4), with the factor mean 0.5 off that optimum, the covariance
    block reads 3.9 and the concentrated gradient 1.9e-8. It takes the
    checks of implied_moments, sample must be one sample of the spec's
    variables, and a point whose implied covariance is not positive
    definite raises.
    """
    ws = _workspace(spec)
    values, sigma, mu = _checked_point(ws, free_values)
    _check_one_sample(sample, sigma, mu)
    cholesky(sample.cov)  # raises unless the sample covariance is positive definite
    with np.errstate(invalid="ignore"):
        _, grad = _discrepancy_and_gradient(ws, values[None], sample.cov[None], sample.mean[None])
    if np.isnan(grad).any():
        raise NotPositiveDefiniteError("implied covariance not positive definite")
    return grad[0]


def _sign_convention(ws: _Workspace, mats: ParameterMatrices) -> ParameterMatrices:
    """Flip loading columns whose sum is negative, where the flip is free.

    Flipping column k together with theta_k and the off-diagonal phi
    entries of factor k leaves the implied moments unchanged, so this is a
    pure reporting convention. Only the columns of ws.flippable, whose
    cells are all free or fixed at zero, may flip. mats may carry leading
    axes: the flip is a masked sign over the columns of each row.
    """
    flip = ws.flippable & (mats.loadings.sum(axis=-2) < 0)
    sign = np.where(flip, -1.0, 1.0)
    cross = sign[..., :, None] * sign[..., None, :]
    return replace(mats, loadings=mats.loadings * sign[..., None, :],
                   factor_means=mats.factor_means * sign, factor_cov=mats.factor_cov * cross)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axes, each row with the bits of the 1-D a @ b.

    Strided rows, or a product summed over the last axis, round otherwise.
    """
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _leading_axis(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The leading eigenvalue (..., 1) and eigenvector (..., k) of symmetric matrices (..., k, k).

    The eigenvector's sign makes its sum nonnegative.
    """
    w, vectors = linalg.eigh(matrix)
    v = vectors[..., -1]
    return w[..., -1:], np.where(v.sum(axis=-1, keepdims=True) < 0, -v, v)


def _start_values(ws: _Workspace, cov: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Raw starts of the covariance parameters for the first attempt, one row per sample.

    cov (..., p, p) and mean (..., p) are sample moments; the starts
    (..., tc) keep their leading axes, and each row gets the bits it gets
    alone. Intercepts and factor means need none: every evaluation sets
    them to their GLS optimum. A free cell with a start of its own keeps
    it. Other free loadings and unique variances start at the default
    times the sample standard deviation and variance of their variable.

    One-factor specs do better on the variables J whose loading has no
    start of their own, when there are at least two. Where the factor mean
    is free, J is the variables whose intercept nu_j is fixed, if at least
    two are. With zero unique-factor means, as the structured-means model
    has them, the mean residuals xbar - nu = theta lambda are proportional
    to the loadings, and
    S + (xbar - nu)(xbar - nu)' = (phi + theta^2) lambda lambda' + Psi is
    itself a one-factor structure. On J, with standardized mean residuals
    m_j = (xbar_j - nu_j) / sd_j, correlations R and the factor variance
    (or its start) phi0, the start is lambda_j = c v_j sd_j along the
    leading eigenvector v of R + m m' (column sum nonnegative),
    c^2 = sum_{i<j} r_ij v_i v_j / (phi0 sum_{i<j} (v_i v_j)^2) the
    least-squares fit of the correlations, and
    psi2_j = max(S_jj - phi0 lambda_j^2, 0.1 S_jj).

    Where the means cannot place the loadings (the factor mean is fixed,
    or fewer than two of the loadings without a start have a fixed
    intercept, as in the anchored designs), J is all of those loadings,
    m = 0, and the start is an iterated principal-axis solution of R:
    PRINCIPAL_AXIS_STEPS times, the communalities phi0 c^2 v_j^2 (at most
    0.995) replace R's unit diagonal, v becomes the leading eigenvector of
    that matrix (column sum nonnegative) and phi0 c^2 its eigenvalue. This
    is the classical start of ML factor analysis, and it lies near the
    minimum of the covariance fit.

    Rows where c^2 is not positive and finite, among them rows whose
    eigendecomposition fails (NaN), keep the default starts. Either way a
    fit of rescaled or permuted data starts at the rescaled or permuted
    point.
    """
    v0 = np.broadcast_to(ws.index.start, cov.shape[:-2] + ws.index.start.shape).copy()
    variances = cov.diagonal(0, -2, -1)
    lam_rows, psi2_rows = ws.rows[ws.default_lambda], ws.rows[ws.default_psi2]
    v0[..., ws.default_lambda] = DEFAULT_STARTS["lambda"] * np.sqrt(variances[..., lam_rows])
    v0[..., ws.default_psi2] = DEFAULT_STARTS["psi2"] * variances[..., psi2_rows]
    rows = ws.start_rows
    if rows.size:
        sd = np.sqrt(variances[..., rows])
        corr = cov[..., rows[:, None], rows] / (sd[..., :, None] * sd[..., None, :])
        moments = corr
        if not ws.principal_axis:
            m = (mean[..., rows] - ws.start_nu) / sd
            moments = corr + m[..., :, None] * m[..., None, :]
        v = _leading_axis(moments)[1]
        i, j = ws.start_pairs_i, ws.start_pairs_j
        vv = v[..., i] * v[..., j]
        c2 = (_dot(corr[..., i, j], vv) / (ws.start_phi * _dot(vv, vv)))[..., None]
        if ws.principal_axis:
            reduced, diagonal = corr.copy(), np.arange(rows.size)
            for _ in range(PRINCIPAL_AXIS_STEPS):
                # the communalities on the diagonal, kept below 1
                reduced[..., diagonal, diagonal] = np.minimum(ws.start_phi * c2 * v**2, 0.995)
                w, v = _leading_axis(reduced)
                c2 = w / ws.start_phi
        ok = np.isfinite(c2) & (c2 > 0)
        lam = np.sqrt(np.where(ok, c2, 0.0)) * v * sd
        psi2 = np.maximum(variances[..., rows] - ws.start_phi * lam**2, 0.1 * variances[..., rows])
        v0[..., ws.start_lambda] = np.where(ok, lam, v0[..., ws.start_lambda])
        v0[..., ws.start_psi2] = np.where(ok, psi2[..., ws.start_psi2_of], v0[..., ws.start_psi2])
    return v0[..., : ws.tc]


def _evaluate(ws: _Workspace, z, sample_cov, xbar) -> tuple:
    """F (k,), its gradient (k, tc) and the joint points (k, t) at covariance points z (k, tc).

    F is inf where F or the gradient is not finite, as in a row whose Sigma
    is not positive definite or whose mean design is singular; a mean
    parameter that is not finite leaves F not finite. It never raises.
    """
    values = np.zeros((len(z), ws.t))
    values[:, : ws.tc] = ws.to_raw(z)
    f, g = _discrepancy_and_gradient(ws, values, sample_cov, xbar, concentrate=True)
    g = g[:, : ws.tc]
    return np.where(np.isfinite(f) & np.isfinite(g).all(axis=1), f, np.inf), g, values


def _inverse_information(ws: _Workspace, values: np.ndarray) -> np.ndarray:
    """Inverse concentrated information (rows, tc, tc) at joint points (rows, t), by Cholesky.

    A row where that fails is NaN: its direction has no slope, so the
    attempt that seeded it ends (see fit_many).
    """
    inv_lower = linalg.whitener(ws.concentrated_information(values))
    return _mT(inv_lower) @ inv_lower


def fit_many(spec: ModelSpec, samples: SampleMoments, options: FitOptions, seeds) -> list:
    """Fit spec to each sample of a block, all samples in lockstep, with one set of options.

    samples is one SampleMoments: a block of R samples of one size n (mean
    (R, p), cov (R, p, p)), as simulate.draw_moments draws them, or one
    sample, a block of one. A p other than the spec's raises
    DIMENSION_MISMATCH for the whole call. options holds the settings of
    every fit, and seeds one jitter seed per sample (R of them), which is
    what FitOptions.seed is to fit (options.seed is not read here).
    Returns one entry per sample: its FitResult, or the SmmError its fit
    raised. The set-up checks every sample covariance in one
    linalg.checked_cholesky call, and a failing sample gets the error
    simulate.cholesky raises for it alone. It copies the rows it fits into
    C-contiguous stacks, so each row of a strided block gets the bits of
    its lone fit, and forms every start in one pass (see _start_values).

    Each sample runs attempts of BFGS on the concentrated F over the
    covariance parameters in unconstrained coordinates. The inverse Hessian
    is seeded from the inverse concentrated information, again every
    FISHER_REFRESH iterations and whenever no step is found along the BFGS
    direction. The line search tries the full step and accepts a trial that
    lowers F strictly and meets the Armijo condition; a rejected trial
    shortens the step to the minimizer of the quadratic through F, the slope
    and the trial, within [0.1, 0.5] of the step, one without a finite F
    halves it, and no step is found once the decrease asked for is below
    F_ROUNDING. An attempt converges, before a search, when the largest
    gradient component is within gradient_tolerance and the step predicts a
    decrease (-slope / 2) within F_ROUNDING. It fails when a seed fails, when
    no step is found along a fresh seed's direction, or without a finite F
    at its start. Otherwise it runs to max_iterations: there is no other
    gradient target. Up to max_restarts more attempts follow one that fails
    or ends unconverged, attempt a from the first start jittered by up to
    jitter_fraction, drawn from derive_seed(seed, rng.STREAM_JITTER, a), and
    the best is reported: converged first, then the lowest F. Without free
    covariance parameters the start's one evaluation is the result; a sample
    whose every attempt fails gets a NotPositiveDefiniteError.

    The rounds step the unfinished fits as rows of arrays (see the module
    docstring) with numpy's floating-point warnings off: a trial that
    overflows or fails its row's LAPACK call reads F = inf and is
    rejected, not reported. The attempt counts and best attempts are
    arrays over the samples too; Python runs per fit only to draw a
    restart's jitter. The wrap-up forms the matrices, sign convention and
    free values of every best point at once, as one FitResult block
    (_fit_block), and each entry here is a row of it.
    """
    block, errors = _fit_block(spec, samples, options, seeds)
    return [_fit_row(block, i) if error is None else error for i, error in enumerate(errors)]


def _fit_block(spec: ModelSpec, samples: SampleMoments, options: FitOptions, seeds) -> tuple[FitResult, list]:
    """The lockstep loop of fit_many: the block of every sample's fit, and each row's error.

    Row i of the FitResult block is the fit of sample i (see FitResult);
    the list holds the SmmError of each row whose fit raised, None
    elsewhere.
    """
    ws = _workspace(spec)
    if not ws.report.is_valid:
        raise InvalidModelError(ws.report)
    if samples.p != spec.p:
        raise SmmError(DIMENSION_MISMATCH, f"sample has {samples.p} variables but the model expects {spec.p}")
    covs, means = samples.cov.reshape(-1, spec.p, spec.p), samples.mean.reshape(-1, spec.p)
    count = len(means)
    if len(seeds) != count:
        raise SmmError(BAD_INPUT, f"{count} samples but {len(seeds)} jitter seeds")
    # a sample covariance that simulate.cholesky rejects fails its row with its error
    codes = linalg.checked_cholesky(covs)[1]
    errors = [linalg.failure(code) if code else None for code in codes.tolist()]
    rows = [i for i, error in enumerate(errors) if error is None]

    tc, k = ws.tc, len(rows)
    last, tol, jitter = options.max_restarts if tc else 0, options.gradient_tolerance, options.jitter_fraction
    # per sample: its attempt, and its best attempt's joint point, F, max |g|
    # and iterations, where it = -1 while no attempt had a finite start
    attempt = np.zeros(count, dtype=int)
    best = SimpleNamespace(point=np.zeros((count, ws.t)), f=np.full(count, np.inf),
                           g_inf=np.zeros(count), it=np.full(count, -1))
    with np.errstate(all="ignore"):
        # one C-contiguous copy of the moments of the rows to fit, for the start and every round
        cov, mean = covs[rows], means[rows]
        v0 = _start_values(ws, cov, mean)
        # one row per unfinished fit. zt is its pending point: a trial of its
        # line search, or an attempt's start, where f = inf, slope = 0 and
        # it = seeded = -1 make the start a trial that is accepted where F is
        # finite and ends the attempt elsewhere. seeded is the iteration of
        # the last Fisher seed, -1 when there is none. v0 is the raw start
        # that restarts jitter.
        s = SimpleNamespace(
            row=np.array(rows, dtype=int), cov=cov, mean=mean, v0=v0,
            zt=ws.to_unconstrained(v0), z=np.zeros((k, tc)),
            g=np.zeros((k, tc)), f=np.full(k, np.inf), g_inf=np.zeros(k), point=np.zeros((k, ws.t)),
            h=np.zeros((k, tc, tc)), d=np.zeros((k, tc)), slope=np.zeros(k), alpha=np.ones(k),
            it=np.full(k, -1), seeded=np.full(k, -1),
        )
        while len(s.row):
            f, g, point = _evaluate(ws, s.zt, s.cov, s.mean)
            accept = (f < s.f) & (f <= s.f + ARMIJO * s.alpha * s.slope)
            head, ended, reject = accept, np.zeros(len(s.row), dtype=bool), ~accept
            if np.count_nonzero(reject):
                shrink = -s.alpha * s.slope / (2.0 * (f - s.f - s.alpha * s.slope))
                shrink = np.where(f < np.inf, np.minimum(np.maximum(shrink, 0.1), 0.5), 0.5)
                np.copyto(s.alpha, s.alpha * shrink, where=reject)
                # a search that asks for less than F's rounding gives up: it
                # ends the attempt on a fresh seed and seeds afresh otherwise
                give_up = reject & (-s.alpha * s.slope <= F_ROUNDING)
                ended = give_up & (s.seeded == s.it)
                head = accept | (give_up & ~ended)
                np.copyto(s.seeded, -1, where=give_up)
            if np.count_nonzero(accept):
                step, y = s.zt - s.z, g - s.g
                sy = _dot(step, y)
                hy = (s.h @ y[..., None])[..., 0]
                # the transpose of hy (s/sy)' is (s/sy) hy', bit for bit
                cross = hy[:, :, None] * (step / sy[:, None])[:, None, :]
                # float_power is the libm pow a scalar sy**2 takes, not a square
                curve = (sy + _dot(y, hy)) / np.float_power(sy, 2.0)
                outer = step[:, :, None] * step[:, None, :]
                updated = s.h - cross - _mT(cross) + curve[:, None, None] * outer
                # a start's update is void: its first seed replaces it
                np.copyto(s.h, updated, where=(accept & (sy > 0))[:, None, None])
                moved = accept[:, None]
                np.copyto(s.z, s.zt, where=moved)
                np.copyto(s.g, g, where=moved)
                np.copyto(s.point, point, where=moved)
                np.copyto(s.f, f, where=accept)
                np.copyto(s.g_inf, np.abs(g).max(axis=1, initial=0.0), where=accept)
                s.it += accept
            while np.count_nonzero(head):
                run = head & (s.it < options.max_iterations)
                due = run & ((s.seeded < 0) | ((s.it % FISHER_REFRESH == 0) & (s.seeded != s.it)))
                if np.count_nonzero(due):
                    s.h[due] = _inverse_information(ws, s.point[due])
                    np.copyto(s.seeded, s.it, where=due)
                d = -(s.h @ s.g[..., None])[..., 0]
                slope = _dot(s.g, d)
                descent = np.isfinite(slope) & (slope < 0)
                # within tolerance, and the step predicts less decrease than F resolves
                close = (-0.5 * slope <= F_ROUNDING) & (s.g_inf <= tol)
                search = run & descent & ~close
                # no descent direction: seed afresh once, then end
                stale = run & ~descent & (s.seeded != s.it)
                ended |= head & ~(search | stale)
                head = stale
                np.copyto(s.d, d, where=search[:, None])
                np.copyto(s.slope, slope, where=search)
                np.copyto(s.alpha, 1.0, where=search)
                np.copyto(s.seeded, -1, where=stale)
            s.zt = s.z + s.alpha[:, None] * s.d
            if not np.count_nonzero(ended):
                continue
            # where attempts end, keep the best. A converged attempt ends its
            # fit, so the best so far never converged: a converged attempt
            # wins, and an unconverged one where its F is lower.
            e = np.flatnonzero(ended)
            i = s.row[e]
            started = s.it[e] >= 0
            conv = started & (s.g_inf[e] <= tol)
            better = started & (conv | (s.f[e] < best.f[i]))
            into, src = i[better], e[better]
            for name, array in vars(best).items():
                array[into] = getattr(s, name)[src]
            # an unconverged attempt with restarts left restarts from the
            # first start, jittered from its own stream
            again = e[~conv & (attempt[i] < last)]
            if again.size:
                attempt[s.row[again]] += 1
                streams = [rng.derive_seed(seeds[j], rng.STREAM_JITTER, attempt[j]) for j in s.row[again]]
                noise = np.array([rng.uniform(seed, (ws.t,), -jitter, jitter) for seed in streams])[:, :tc]
                v = s.v0[again]
                s.zt[again] = ws.to_unconstrained(np.where(v != 0.0, v * (1.0 + noise), noise))
                s.f[again], s.slope[again], s.alpha[again] = np.inf, 0.0, 1.0
                s.it[again], s.seeded[again] = -1, -1
                ended[again] = False
            if np.count_nonzero(ended):
                vars(s).update({name: array[~ended] for name, array in vars(s).items()})

    started = best.it >= 0
    for i in rows:
        if not started[i]:
            message = "every optimization attempt failed; last error: no finite discrepancy at the start"
            errors[i] = NotPositiveDefiniteError(message)
    mats = _sign_convention(ws, ws.index.insert(best.point))
    f_min = np.where(started, best.f, 0.0)
    block = FitResult(
        estimates=mats, f_min=f_min, chi_square=(samples.n - 1) * f_min, df=ws.report.df, n=samples.n,
        converged=started & (best.g_inf <= tol), iterations=np.where(started, best.it, 0),
        grad_inf_norm=best.g_inf, retries_used=np.where(started, attempt, 0),
        free_values=ws.index.extract(mats), labels=ws.labels,
    )
    return block, errors


def _fit_row(block: FitResult, i: int) -> FitResult:
    """Row i of a block as the fit of one sample, its numbers as Python scalars."""
    return FitResult(
        estimates=ParameterMatrices(*(matrix[i] for matrix in vars(block.estimates).values())),
        f_min=float(block.f_min[i]), chi_square=float(block.chi_square[i]), df=block.df, n=block.n,
        converged=bool(block.converged[i]), iterations=int(block.iterations[i]),
        grad_inf_norm=float(block.grad_inf_norm[i]), retries_used=int(block.retries_used[i]),
        free_values=block.free_values[i], labels=block.labels,
    )


def fit(spec: ModelSpec, sample: SampleMoments, options: FitOptions = FitOptions()) -> FitResult:
    """Minimize the ML discrepancy over the free parameters of spec.

    Runs the Fisher-seeded BFGS loop from starts scaled to the sample
    (see _start_values), retrying from jittered starts when an attempt
    fails to converge. The best attempt is always reported;
    converged=False survives into the result rather than raising, so
    Monte Carlo callers can count failures. This is fit_many on one
    sample, and gives the same bits as that sample in any batch.
    """
    (result,) = fit_many(spec, sample, options, [options.seed])
    if isinstance(result, SmmError):
        raise result
    return result
