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

The minimizer is a quasi-Newton loop in numpy. Its inverse-Hessian
approximation starts from the inverse of the Fisher information

    H_kl = tr(W dSigma_k W dSigma_l) + 2 dmu_k' W dmu_l

(Jennrich & Robinson 1969), is refreshed from it every few iterations and
is corrected by BFGS updates in between; a backtracking Armijo search
finishes each step. A free cell with a start of its own keeps it. The
other starts are scaled to the sample (loadings at half a standard
deviation, unique variances at half a variance), and free intercepts and
factor means start at their least-squares values, which reproduce a
saturated mean structure exactly. The median fit of a bundled design
takes 15-40 iterations.

Fits run in lockstep. fit_many steps the fits of many samples (a Monte
Carlo condition's replications) together: each fit is the same
sequential algorithm, written as a generator that asks for an evaluation
of F and its gradient or for a Fisher information, and every round
answers the pending requests of all unfinished fits with one stacked
numpy call over a leading (R, ...) axis. A fit leaves the rounds when it
finishes. Nearly all of an evaluation's cost on 5x5 matrices is numpy's
per-call overhead, so a stacked round costs little more than a single
one. fit is fit_many on one sample. Every stacked operation (matmul,
cholesky, solve, inv, sums over trailing axes) gives each row the same
bits as it would alone, so a result does not depend on the batch it was
fitted in. On a 2-vCPU x86 VM a lone fit of a bundled design takes about
4-13 ms, and in a batch of 500 about 1-3 ms per fit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import rng
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

# The optimizer aims an order of magnitude past the convergence flag so
# that "converged" results sit well inside the acceptance region.
OPTIMIZER_GTOL = 1e-8
# Iterations between refreshes of the inverse Hessian from the Fisher
# information. Seeding only once leaves anchor_x1 at about 90 iterations;
# pure Fisher scoring converges only linearly under misspecification.
FISHER_REFRESH = 5
# Sufficient-decrease constant of the Armijo condition.
ARMIJO = 1e-4
# The rounding of F: its error is about eps * sum|b_i| over the eigenvalues
# b_i of the whitened residual, and at the minima of the bundled designs
# sum|b_i| is at most 1.8. A line search gives up once it asks for less.
F_ROUNDING = np.finfo(float).eps


@dataclass(frozen=True)
class FitOptions:
    """Settings of fit.

    max_iterations caps the quasi-Newton steps of one attempt; a failed
    attempt is retried up to max_restarts times from starts jittered by
    up to jitter_fraction, drawn from seed. A fit counts as converged when
    the largest gradient component is at most gradient_tolerance.
    """

    max_iterations: int = 1000
    max_restarts: int = 3
    jitter_fraction: float = 0.2
    seed: int = 0
    gradient_tolerance: float = 1e-6


@dataclass(frozen=True)
class ImpliedMoments:
    """Model-implied covariance and mean vector at one parameter point."""

    sigma: np.ndarray
    mu_model: np.ndarray


@dataclass(frozen=True)
class FitResult:
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

    Every evaluation path (objective and gradient, Fisher information,
    public implied_moments, ml_discrepancy and numeric_gradient) goes
    through build and _discrepancy_terms, so they share one definition of
    the implied moments, including the exact symmetrization of Sigma, and
    of F. A spec's workspace is made once (see _workspace) and never
    modified afterwards.
    """

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.report = validate(spec)
        self.index = index = ParameterIndex(spec)
        self.labels = index.labels()
        self.p, self.q = spec.p, spec.q
        # the scatter of ParameterIndex.insert as a matrix: parameter k
        # collects the cells it fills
        self.gather = np.zeros((self.t, index.template.size))
        self.gather[index.src, index.slots] = 1.0
        # its adjoint on the filled cells: the gradient of a parameter sums
        # the derivatives of the (at most two) cells it fills
        self.collect = np.ascontiguousarray(self.gather[:, index.slots].T)

        matrix = np.array([e.matrix for e in index.entries], dtype=object)
        self.rows = np.array([e.row for e in index.entries], dtype=int)
        # unique variances, optimized as logs
        self.log_pos = np.flatnonzero(matrix == "psi2")
        # free cells without a start of their own take one from the sample
        default = ~index.own_start
        self.default_lambda = default & (matrix == "lambda")
        self.default_psi2 = default & (matrix == "psi2")
        self.default_means = np.flatnonzero(default & ((matrix == "nu") | (matrix == "theta")))
        self.theta_mask = matrix[self.default_means] == "theta"
        self.lower = np.tri(self.p, dtype=bool)
        for array in vars(self).values():
            if isinstance(array, np.ndarray):
                array.flags.writeable = False

    @property
    def t(self) -> int:
        return self.index.t

    def to_unconstrained(self, values: np.ndarray) -> np.ndarray:
        z = np.array(values, dtype=float)
        if np.any(z[self.log_pos] <= 0):
            raise SmmError(
                NONPOSITIVE_UNIQUE_VARIANCE,
                "unique variances must be > 0 on the raw scale",
            )
        z[self.log_pos] = np.log(z[self.log_pos])
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

    def fisher_information(self, values: np.ndarray) -> np.ndarray:
        """Fisher information of F in unconstrained coordinates at raw values (..., t).

        H_kl = tr(W dSigma_k W dSigma_l) + 2 dmu_k' W dmu_l, which is the
        Hessian of F wherever the model fits the sample exactly. With
        Sigma = L L' every derivative is whitened by U = L^-1, so H = M M'
        where row k of M holds U dSigma_k U' and sqrt(2) U dmu_k. The rows
        are formed per layout cell, gathered to parameters, and carry the
        chain rule psi2 = exp(z). Raises np.linalg.LinAlgError when Sigma
        is not positive definite.
        """
        mats, sigma, _ = self.build(values)
        lead, p, q = values.shape[:-1], self.p, self.q
        u = np.linalg.inv(np.linalg.cholesky(sigma))
        ul = u @ mats.loadings
        u_t, ul_t, ub_t = _mT(u), _mT(ul), _mT(ul @ mats.factor_cov)
        cells = np.zeros(lead + (self.index.template.size, p * p + p))
        d_sigma, d_mu = cells[..., : p * p], cells[..., p * p :]
        lam, phi, psi2, nu, theta = self.index.slices
        # dSigma/dlambda_ij = e_i (Lambda Phi)_j' + (Lambda Phi)_j e_i'
        outer = u_t[..., :, None, :, None] * ub_t[..., None, :, None, :]
        d_sigma[..., lam, :] = (outer + _mT(outer)).reshape(lead + (p * q, p * p))
        d_mu[..., lam, :] = (
            u_t[..., :, None, :] * mats.factor_means[..., None, :, None]
        ).reshape(lead + (p * q, p))
        # dSigma/dphi_ab = Lambda_a Lambda_b'; both cells of a free off-diagonal
        # phi are gathered, so its whitened derivative is symmetric
        d_sigma[..., phi, :] = (
            ul_t[..., :, None, :, None] * ul_t[..., None, :, None, :]
        ).reshape(lead + (q * q, p * p))
        d_sigma[..., psi2, :] = (u_t[..., :, :, None] * u_t[..., :, None, :]).reshape(lead + (p, p * p))
        d_mu[..., nu, :] = u_t
        d_mu[..., theta, :] = ul_t
        d_mu *= np.sqrt(2.0)
        m = self.gather @ cells
        m[..., self.log_pos, :] *= values[..., self.log_pos, None]
        return m @ _mT(m)


def _mT(a: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes."""
    return a.swapaxes(-1, -2)


@functools.lru_cache(maxsize=8)
def _identity(p: int) -> np.ndarray:
    eye = np.eye(p)
    eye.flags.writeable = False
    return eye


@functools.lru_cache(maxsize=64)
def _workspace(spec: ModelSpec) -> _Workspace:
    """The layout of spec, made once per spec (ModelSpec is frozen and hashable)."""
    return _Workspace(spec)


def _discrepancy_terms(
    lower: np.ndarray,
    sigma: np.ndarray,
    mu: np.ndarray,
    sample_cov: np.ndarray,
    xbar: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """F from the whitened residuals, with U = L^-1, B = U (S - Sigma) U' and U d.

    lower is the Cholesky factor L of sigma. Every argument may carry the
    same leading axes. The gradient reuses U, B and U d, so F is computed
    one way on every path.
    """
    lead, p = lower.shape[:-2], lower.shape[-1]
    rhs = np.empty(lead + (p, 2 * p + 1))
    rhs[..., :p] = sample_cov - sigma
    rhs[..., p] = xbar - mu
    rhs[..., p + 1 :] = _identity(p)
    y = np.linalg.solve(lower, rhs)
    u, ud = y[..., p + 1 :], y[..., p]
    b = y[..., :p] @ _mT(u)
    eig = np.linalg.eigvalsh(b)
    f = (eig - np.log1p(eig)).sum(axis=-1) + (ud * ud).sum(axis=-1)
    return f, u, b, ud


def _discrepancy_and_gradient(
    ws: _Workspace, z: np.ndarray, sample_cov, xbar
) -> tuple[np.ndarray, np.ndarray]:
    """F (rows,) and its exact gradient (rows, t) in unconstrained coordinates.

    z is a stack of rows (rows, t), each with its own sample: sample_cov
    (rows, p, p) and xbar (rows, p). Raises np.linalg.LinAlgError when the
    implied covariance of any row is not positive definite.
    """
    mats, sigma, mu = ws.build(ws.to_raw(z))
    f, u, b, ud = _discrepancy_terms(np.linalg.cholesky(sigma), sigma, mu, sample_cov, xbar)
    u_t = _mT(u)
    wd = (u_t @ ud[..., None])[..., 0]
    g = -(u_t @ b @ u) - wd[:, :, None] * wd[:, None, :]
    lam, lam_t, rows = mats.loadings, _mT(mats.loadings), z.shape[0]
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
    # adjoint of the scatter in ParameterIndex.insert: a phi value that
    # fills two cells collects the derivative of both
    return f, d_full[:, ws.index.slots] @ ws.collect


def implied_moments(spec: ModelSpec, free_values: np.ndarray) -> ImpliedMoments:
    """Implied covariance and means with free cells taken from free_values.

    free_values is on the raw scale (actual variances, not logs) in
    ParameterIndex order.
    """
    ws = _workspace(spec)
    values = np.asarray(free_values, dtype=float)
    if values.shape != (ws.t,):
        raise SmmError(DIMENSION_MISMATCH, f"expected {ws.t} free values, got {values.shape}")
    mats, sigma, mu = ws.build(values)
    if np.any(mats.unique_variances <= 0):
        raise SmmError(
            NONPOSITIVE_UNIQUE_VARIANCE,
            "implied unique variances must be strictly positive",
        )
    return ImpliedMoments(sigma=sigma, mu_model=mu)


def ml_discrepancy(sample: SampleMoments, implied: ImpliedMoments) -> float:
    """Normal-theory discrepancy between sample moments and implied moments.

    Nonnegative, and zero exactly when Sigma = S and mu = xbar. Both
    matrices must be positive definite; the Cholesky in simulate is used
    for the checks so near-singular matrices fail loudly instead of
    returning a huge but finite value.
    """
    if implied.sigma.shape[0] != sample.p:
        raise SmmError(DIMENSION_MISMATCH, "implied moments and sample have different p")
    cholesky(sample.cov)
    lower = cholesky(implied.sigma)
    f = _discrepancy_terms(lower, implied.sigma, implied.mu_model, sample.cov, sample.mean)[0]
    return float(f)


def to_unconstrained(spec: ModelSpec, free_values: np.ndarray) -> np.ndarray:
    """Map raw free values to the optimizer's unconstrained coordinates."""
    return _workspace(spec).to_unconstrained(np.asarray(free_values, dtype=float))


def to_raw(spec: ModelSpec, z: np.ndarray) -> np.ndarray:
    """Inverse of to_unconstrained."""
    return _workspace(spec).to_raw(np.asarray(z, dtype=float))


def numeric_gradient(
    spec: ModelSpec, free_values: np.ndarray, sample: SampleMoments
) -> np.ndarray:
    """Gradient of the discrepancy in the unconstrained parameterization.

    free_values is raw scale; the derivative is taken after the log
    transform of unique variances, matching what the optimizer sees. The
    value is analytic, not a finite difference, and is the same gradient
    fit uses. A point whose implied covariance is not positive definite
    raises.
    """
    ws = _workspace(spec)
    values = np.asarray(free_values, dtype=float)
    if values.shape != (ws.t,):
        raise SmmError(DIMENSION_MISMATCH, f"expected {ws.t} free values, got {values.shape}")
    z = ws.to_unconstrained(values)
    cholesky(sample.cov)  # raises unless the sample covariance is positive definite
    try:
        _, grad = _discrepancy_and_gradient(ws, z[None], sample.cov[None], sample.mean[None])
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError("implied covariance not positive definite") from None
    return grad[0]


def fit_statistics(f_min: float, n: int, spec: ModelSpec) -> tuple[float, int]:
    """Chi-square statistic T = (n - 1) f_min and model degrees of freedom."""
    if n < 2:
        raise SmmError(BAD_INPUT, f"need n >= 2 for a test statistic, got {n}")
    return (n - 1) * f_min, _workspace(spec).report.df


def _sign_convention(spec: ModelSpec, mats: ParameterMatrices):
    """Flip loading columns whose sum is negative, where the flip is free.

    Flipping column k together with theta_k and the off-diagonal phi
    entries of factor k leaves the implied moments unchanged, so this is a
    pure reporting convention. A column is only flipped when every cell it
    would touch is free or fixed at zero; otherwise it is left alone.
    """
    lam = mats.loadings.copy()
    theta = mats.factor_means.copy()
    phi = mats.factor_cov.copy()
    q = spec.q
    for k in range(q):
        if np.sum(lam[:, k]) >= 0:
            continue

        def movable(cell, current):
            return cell.is_free or current == 0.0

        ok = all(movable(spec.loadings[i][k], lam[i, k]) for i in range(spec.p))
        ok = ok and movable(spec.factor_means[k], theta[k])
        ok = ok and all(
            movable(spec.factor_cov[k][j], phi[k, j]) for j in range(q) if j != k
        )
        if not ok:
            continue
        lam[:, k] = -lam[:, k]
        theta[k] = -theta[k]
        for j in range(q):
            if j != k:
                phi[k, j] = -phi[k, j]
                phi[j, k] = -phi[j, k]
    return ParameterMatrices(lam, mats.intercepts, theta, phi, mats.unique_variances)


def _start_values(ws: _Workspace, sample: SampleMoments) -> np.ndarray:
    """Raw starting values for the first attempt.

    A free cell with a start of its own keeps it. Free loadings and unique
    variances without one start at the default times the sample standard
    deviation and variance of their variable, so a fit of rescaled data
    starts at the rescaled point. Free intercepts and factor means without
    one then start at their least-squares values given the other starts:
    mu = nu + Lambda theta is linear in them, so one solve removes the
    part of xbar - mu they can reach, all of it when the mean structure is
    saturated. A rank-deficient solve keeps the default starts.
    """
    v0 = ws.index.starting_values()
    variances = np.diag(sample.cov)
    v0[ws.default_lambda] = DEFAULT_STARTS["lambda"] * np.sqrt(variances[ws.rows[ws.default_lambda]])
    v0[ws.default_psi2] = DEFAULT_STARTS["psi2"] * variances[ws.rows[ws.default_psi2]]
    if not ws.default_means.size:
        return v0
    mats, _, mu = ws.build(v0)
    rows = ws.rows[ws.default_means]
    design = np.eye(ws.p)[:, rows]
    design[:, ws.theta_mask] = mats.loadings[:, rows[ws.theta_mask]]
    step, _, rank, _ = np.linalg.lstsq(design, sample.mean - mu, rcond=1e-10)
    if rank == ws.default_means.size:
        v0[ws.default_means] += step
    return v0


class _AttemptFailed(Exception):
    pass


def _minimize_once(z, options: FitOptions):
    """BFGS from z on F, its inverse Hessian seeded from the Fisher information.

    A generator: it yields ("eval", z) to ask for F and its gradient at z,
    answered with (F, gradient) or with None where Sigma is not positive
    definite or either value is not finite, and ("fisher", z) to ask for
    the inverse Fisher information at z. It returns
    (z, F, largest gradient component, iterations, converged).

    The inverse Hessian is reset to the inverse Fisher information every
    FISHER_REFRESH iterations and whenever a line search along the BFGS
    direction fails. The loop stops when the largest gradient component
    reaches OPTIMIZER_GTOL, at max_iterations, or when the line search
    along a fresh Fisher direction accepts no trial.

    The line search accepts a trial that lowers F strictly and meets the
    Armijo condition. A rejected trial shortens the step to the minimizer
    of the quadratic through F, the slope and the trial, within [0.1, 0.5]
    of the step, and one answered with None halves it. After its first
    trial the search gives up once the decrease it asks for is below
    F_ROUNDING.
    """

    def line_search(direction):
        slope = g @ direction
        if not (np.isfinite(slope) and slope < 0):
            return None
        alpha = 1.0
        while True:
            z_trial = z + alpha * direction
            trial = yield "eval", z_trial
            if trial is None:
                alpha *= 0.5
            elif trial[0] < f and trial[0] <= f + ARMIJO * alpha * slope:
                return z_trial, *trial
            else:
                shrink = -alpha * slope / (2.0 * (trial[0] - f - alpha * slope))
                alpha *= min(max(shrink, 0.1), 0.5)
            if -alpha * slope <= F_ROUNDING:
                return None

    start = yield "eval", z
    if start is None:
        raise _AttemptFailed("no finite discrepancy at the start")
    f, g = start
    iterations, h_inv, seeded_at = 0, None, -1
    g_inf = np.abs(g).max()
    while g_inf > OPTIMIZER_GTOL and iterations < options.max_iterations:
        if h_inv is None or (iterations % FISHER_REFRESH == 0 and seeded_at != iterations):
            h_inv, seeded_at = (yield "fisher", z), iterations
        step = yield from line_search(-(h_inv @ g))
        if step is None:
            if seeded_at == iterations:
                break
            h_inv = None
            continue
        z_new, f, g_new = step
        s, y = z_new - z, g_new - g
        sy = s @ y
        if sy > 0:
            hy = h_inv @ y
            # the transpose of hy (s/sy)' is (s/sy) hy', bit for bit
            cross = np.multiply.outer(hy, s / sy)
            h_inv = h_inv - cross - cross.T + ((sy + y @ hy) / sy**2) * np.multiply.outer(s, s)
        z, g = z_new, g_new
        g_inf = np.abs(g).max()
        iterations += 1
    grad_inf = float(g_inf)
    return z, f, grad_inf, iterations, grad_inf <= options.gradient_tolerance


def _fit_steps(ws: _Workspace, sample: SampleMoments, options: FitOptions):
    """The fit of one sample as a generator of _minimize_once's requests.

    Runs the attempts of fit in turn and returns the FitResult; raises
    NotPositiveDefiniteError when every attempt fails.
    """
    v0 = _start_values(ws, sample)
    if ws.t == 0:
        mats, sigma, mu = ws.build(np.empty(0))
        f0 = _discrepancy_terms(cholesky(sigma), sigma, mu, sample.cov, sample.mean)[0]
        return _result(ws, sample, mats, float(f0), True, 0, 0.0, 0)

    best = None
    last_error: Exception | None = None
    attempts = 0
    for attempt in range(options.max_restarts + 1):
        attempts = attempt + 1
        if attempt == 0:
            v_start = v0
        else:
            jitter_seed = rng.derive_seed(options.seed, rng.STREAM_JITTER, attempt)
            noise = rng.uniform(
                jitter_seed, (ws.t,), -options.jitter_fraction, options.jitter_fraction
            )
            v_start = np.where(v0 != 0.0, v0 * (1.0 + noise), noise)
        try:
            z_start = ws.to_unconstrained(np.asarray(v_start, dtype=float))
            candidate = yield from _minimize_once(z_start, options)
        except (_AttemptFailed, SmmError) as err:
            last_error = err
            continue
        if best is None or (candidate[4], -candidate[1]) > (best[4], -best[1]):
            best = candidate
        if candidate[4]:
            break

    if best is None:
        raise NotPositiveDefiniteError(
            f"every optimization attempt failed; last error: {last_error}"
        )
    z_hat, f_hat, grad_inf, nit, converged = best
    mats = _sign_convention(ws.spec, ws.build(ws.to_raw(z_hat))[0])
    return _result(ws, sample, mats, f_hat, converged, nit, grad_inf, attempts - 1)


def _result(ws, sample, mats, f, converged, iterations, grad_inf, retries) -> FitResult:
    return FitResult(
        estimates=mats,
        f_min=f,
        chi_square=(sample.n - 1) * f,
        df=ws.report.df,
        n=sample.n,
        converged=converged,
        iterations=iterations,
        grad_inf_norm=grad_inf,
        retries_used=retries,
        free_values=ws.index.extract(mats),
        labels=ws.labels,
    )


def _by_rows(batched, failed, *stacks) -> list:
    """batched(*stacks), a list with one entry per row of the stacks.

    np.linalg raises LinAlgError for a whole stack when one of its
    matrices is not positive definite. Then each half of the stack runs
    on its own, down to single rows, and failed(*row) stands in for a row
    that raises; a few failing rows in a stack of R cost O(log R) extra
    calls. A row's numbers do not depend on the stack it is in, so either
    way it gets the same bits.
    """
    try:
        return batched(*stacks)
    except np.linalg.LinAlgError:
        if len(stacks[0]) == 1:
            return [failed(*stacks)]
    half = len(stacks[0]) // 2
    return _by_rows(batched, failed, *(s[:half] for s in stacks)) + _by_rows(
        batched, failed, *(s[half:] for s in stacks)
    )


def _evaluations(ws: _Workspace, z, sample_cov, xbar) -> list:
    """(F, gradient) per row, or None where either is not finite."""
    f, g = _discrepancy_and_gradient(ws, z, sample_cov, xbar)
    finite = np.isfinite(f) & np.isfinite(g).all(axis=1)
    return [(float(fi), gi) if ok else None for fi, gi, ok in zip(f, g, finite)]


def _inverse_fisher(info: np.ndarray) -> list:
    """Inverses of a stack of Fisher matrices, by their Cholesky factors."""
    inv_lower = np.linalg.inv(np.linalg.cholesky(info))
    return list(_mT(inv_lower) @ inv_lower)


def _scaled_identity(info: np.ndarray) -> np.ndarray:
    """Stand-in inverse for one Fisher matrix (1, t, t) that is not positive definite."""
    t = info.shape[-1]
    mean_curvature = np.trace(info[0]) / t
    return np.eye(t) / (mean_curvature if mean_curvature > 0 else 1.0)


def fit_many(spec: ModelSpec, samples, options) -> list:
    """Fit spec to each sample, all samples in lockstep.

    options holds one FitOptions per sample. Returns one entry per
    sample: its FitResult, or the SmmError its fit raised. Each sample
    runs the algorithm of fit on its own, but every round of the loop
    gathers the pending requests of all unfinished fits into one stacked
    evaluation of F and its gradient and one stacked Fisher information,
    so numpy's per-call cost is paid once per round, not once per sample.
    A fit leaves the rounds when it finishes, and its restarts run inside
    them. The rounds run with numpy's floating-point warnings off: a
    trial that overflows is rejected, not reported.
    """
    ws = _workspace(spec)
    if not ws.report.is_valid:
        raise InvalidModelError(ws.report)
    if len(options) != len(samples):
        raise SmmError(BAD_INPUT, f"{len(samples)} samples but {len(options)} FitOptions")
    results: list = [None] * len(samples)
    covs = np.zeros((len(samples), spec.p, spec.p))
    means = np.zeros((len(samples), spec.p))
    steps, requests = {}, {}

    def advance(i, reply):
        try:
            requests[i] = steps[i].send(reply)
            return
        except StopIteration as done:
            results[i] = done.value
        except SmmError as err:
            results[i] = err
        del steps[i]
        requests.pop(i, None)

    for i, (sample, opts) in enumerate(zip(samples, options)):
        try:
            if sample.p != spec.p:
                raise SmmError(
                    DIMENSION_MISMATCH,
                    f"sample has {sample.p} variables but the model expects {spec.p}",
                )
            # a sample covariance that is not positive definite fails its row
            cholesky(sample.cov)
        except SmmError as err:
            results[i] = err
            continue
        covs[i], means[i] = sample.cov, sample.mean
        steps[i] = _fit_steps(ws, sample, opts)

    evaluate = functools.partial(_evaluations, ws)

    def rejected(*row):
        return None

    # the samples of the last round's evaluations, stacked
    stacked_for, stacked = None, None
    with np.errstate(all="ignore"):
        for i in list(steps):
            advance(i, None)
        while requests:
            asked = {"eval": ([], []), "fisher": ([], [])}
            for i, (kind, z) in requests.items():
                asked[kind][0].append(i)
                asked[kind][1].append(z)
            replies = []
            evals, z = asked["eval"]
            if evals:
                if evals != stacked_for:
                    rows = np.array(evals)
                    stacked_for, stacked = evals, (covs[rows], means[rows])
                replies += zip(evals, _by_rows(evaluate, rejected, np.array(z), *stacked))
            fishers, z = asked["fisher"]
            if fishers:
                info = ws.fisher_information(ws.to_raw(np.array(z)))
                replies += zip(fishers, _by_rows(_inverse_fisher, _scaled_identity, info))
            for i, reply in replies:
                advance(i, reply)
    return results


def fit(spec: ModelSpec, sample: SampleMoments, options: FitOptions = FitOptions()) -> FitResult:
    """Minimize the ML discrepancy over the free parameters of spec.

    Runs the Fisher-seeded BFGS loop from starts scaled to the sample
    (see _start_values), retrying from jittered starts when an attempt
    fails to converge. The best attempt is always reported;
    converged=False survives into the result rather than raising, so
    Monte Carlo callers can count failures. This is fit_many on one
    sample, and gives the same bits as that sample in any batch.
    """
    (result,) = fit_many(spec, [sample], [options])
    if isinstance(result, SmmError):
        raise result
    return result
