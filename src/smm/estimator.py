"""Maximum-likelihood estimation of factor models with mean structure.

The discrepancy minimized is the normal-theory ML fit function for a
mean-and-covariance structure,

    F = ln|Sigma| - ln|S| + tr(S Sigma^-1) - p + (xbar - mu)' Sigma^-1 (xbar - mu)

which is zero exactly when the implied moments reproduce the sample
moments, and (n - 1) F is the chi-square test statistic under the model.

Unique variances are optimized as logs so positivity never needs explicit
constraints; everything else is optimized on its natural scale. The
gradient is exact: with W = Sigma^-1, d = xbar - mu and
G = W - W (S + d d') W, each component is

    dF/dp_k = tr(G dSigma/dp_k) - 2 d' W dmu/dp_k

(Joreskog 1967 for the covariance part, Lee & Jennrich 1979 for the mean
part). One evaluation builds the implied moments and factors Sigma once
for both F and its gradient.

The minimizer is a quasi-Newton loop in numpy. Its inverse-Hessian
approximation starts from the inverse of the Fisher information

    H_kl = tr(W dSigma_k W dSigma_l) + 2 dmu_k' W dmu_l

(Jennrich & Robinson 1969), is refreshed from it every few iterations and
is corrected by BFGS updates in between; a backtracking Armijo search
finishes each step. Starts are scaled to the sample (loadings at half a
standard deviation, unique variances at half a variance), and free
intercepts and factor means start at their least-squares values, which
reproduce a saturated mean structure exactly. The median fit of a
bundled design takes 15-40 iterations and 4-11 ms on a 2-vCPU x86 VM.
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


def _clamp_tiny_negative(f: float) -> float:
    """Zero out rounding noise in a mathematically nonnegative discrepancy.

    At an exact fit the formula evaluates to 0 plus accumulated rounding
    of order machine epsilon, either sign. Only that noise band is
    clamped; a substantially negative value would mean a broken formula
    and is passed through for tests to catch.
    """
    return 0.0 if -1e-10 < f < 0.0 else f


@dataclass(frozen=True)
class FitOptions:
    """Settings of fit.

    max_iterations caps the quasi-Newton steps of one attempt; a failed
    attempt is retried up to max_restarts times from starts jittered by
    up to jitter_fraction, drawn from seed. A fit counts as converged when
    the largest gradient component is at most gradient_tolerance.
    warm_start_factor_means starts every free intercept and factor mean at
    its least-squares value given the starting loadings.
    """

    max_iterations: int = 1000
    max_restarts: int = 3
    jitter_fraction: float = 0.2
    seed: int = 0
    gradient_tolerance: float = 1e-6
    warm_start_factor_means: bool = True


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
    """One flat layout of every parameter cell of a spec.

    The layout holds the blocks loadings, phi, psi2, nu and theta in that
    order, matrices row-major, with fixed values and starts in place. A
    raw free-parameter vector fills it through one scatter,
    full[slots] = values[src]; a free off-diagonal phi value fills both
    of its cells. Every evaluation path (objective and gradient, Fisher
    information, public implied_moments, ml_discrepancy and
    numeric_gradient) goes through build and _discrepancy_terms, so they
    share one definition of the implied moments, including the exact
    symmetrization of Sigma, and of F. A spec's workspace is made once
    (see _workspace) and never modified afterwards.
    """

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.report = validate(spec)
        self.index = ParameterIndex(spec)
        self.labels = self.index.labels()
        p, q = self.p, self.q = spec.p, spec.q
        base = self.index.base_matrices()
        blocks = (
            base.loadings, base.factor_cov, base.unique_variances, base.intercepts, base.factor_means
        )
        self.template = np.concatenate([b.ravel() for b in blocks])
        bounds = np.cumsum([0] + [b.size for b in blocks])
        self.slices = tuple(slice(a, b) for a, b in zip(bounds[:-1], bounds[1:]))
        start = dict(zip(("lambda", "phi", "psi2", "nu", "theta"), bounds))

        slots, src = [], []
        for k, e in enumerate(self.index.entries):
            width = q if e.matrix in ("lambda", "phi") else 1
            cells = {(e.row, e.col), (e.col, e.row)} if e.matrix == "phi" else {(e.row, e.col)}
            for row, col in sorted(cells):
                slots.append(start[e.matrix] + row * width + col)
                src.append(k)
        self.slots = np.array(slots, dtype=int)
        self.src = np.array(src, dtype=int)
        # the scatter as a matrix: parameter k collects the cells it fills
        self.gather = np.zeros((self.t, self.template.size))
        self.gather[self.src, self.slots] = 1.0

        matrix = np.array([e.matrix for e in self.index.entries], dtype=object)
        self.rows = np.array([e.row for e in self.index.entries], dtype=int)
        self.log_mask = matrix == "psi2"
        self.mean_pos = np.flatnonzero((matrix == "nu") | (matrix == "theta"))
        self.theta_mask = matrix[self.mean_pos] == "theta"
        # free loadings and unique variances that take the default start
        no_start = np.array(
            [_cell(spec, e).value is None for e in self.index.entries], dtype=bool
        )
        self.default_lambda = no_start & (matrix == "lambda")
        self.default_psi2 = no_start & self.log_mask
        self.start_values = self.index.starting_values()
        self.lower = np.tri(p, dtype=bool)
        self.diag = np.diag_indices(p)
        for array in vars(self).values():
            if isinstance(array, np.ndarray):
                array.flags.writeable = False

    @property
    def t(self) -> int:
        return self.index.t

    def to_unconstrained(self, values: np.ndarray) -> np.ndarray:
        z = np.array(values, dtype=float)
        if np.any(z[self.log_mask] <= 0):
            raise SmmError(
                NONPOSITIVE_UNIQUE_VARIANCE,
                "unique variances must be > 0 on the raw scale",
            )
        z[self.log_mask] = np.log(z[self.log_mask])
        return z

    def to_raw(self, z: np.ndarray) -> np.ndarray:
        v = np.array(z, dtype=float)
        v[..., self.log_mask] = np.exp(v[..., self.log_mask])
        return v

    def build(self, values: np.ndarray) -> tuple[ParameterMatrices, np.ndarray, np.ndarray]:
        """Parameter matrices and implied (sigma, mu) for one raw parameter vector.

        The matrices are views into one new array in layout order.
        """
        full = self.template.copy()
        full[self.slots] = values[self.src]
        lam, phi, psi2, nu, theta = (full[s] for s in self.slices)
        lam = lam.reshape(self.p, self.q)
        phi = phi.reshape(self.q, self.q)
        cross = lam @ phi @ lam.T
        # exactly symmetric: the upper triangle mirrors the lower one
        sigma = np.where(self.lower, cross, cross.T)
        sigma[self.diag] += psi2
        mu = nu + lam @ theta
        return ParameterMatrices(lam, nu, theta, phi, psi2), sigma, mu

    def fisher_information(self, values: np.ndarray) -> np.ndarray:
        """Fisher information of F in unconstrained coordinates at raw values.

        H_kl = tr(W dSigma_k W dSigma_l) + 2 dmu_k' W dmu_l, which is the
        Hessian of F wherever the model fits the sample exactly. With
        Sigma = L L' every derivative is whitened by U = L^-1, so H = M M'
        where row k of M holds U dSigma_k U' and sqrt(2) U dmu_k. The rows
        are formed per layout cell, gathered to parameters, and carry the
        chain rule psi2 = exp(z). Raises np.linalg.LinAlgError when Sigma
        is not positive definite.
        """
        mats, sigma, _ = self.build(values)
        p, q = self.p, self.q
        u = np.linalg.inv(np.linalg.cholesky(sigma))
        ul = u @ mats.loadings
        ub = ul @ mats.factor_cov
        cells = np.zeros((self.template.size, p * p + p))
        d_sigma, d_mu = cells[:, : p * p], cells[:, p * p :]
        lam, phi, psi2, nu, theta = self.slices
        # dSigma/dlambda_ij = e_i (Lambda Phi)_j' + (Lambda Phi)_j e_i'
        outer = u.T[:, None, :, None] * ub.T[None, :, None, :]
        d_sigma[lam] = (outer + outer.transpose(0, 1, 3, 2)).reshape(p * q, p * p)
        d_mu[lam] = (u.T[:, None, :] * mats.factor_means[None, :, None]).reshape(p * q, p)
        # dSigma/dphi_ab = Lambda_a Lambda_b'; both cells of a free off-diagonal
        # phi are gathered, so its whitened derivative is symmetric
        d_sigma[phi] = (ul.T[:, None, :, None] * ul.T[None, :, None, :]).reshape(q * q, p * p)
        d_sigma[psi2] = (u.T[:, :, None] * u.T[:, None, :]).reshape(p, p * p)
        d_mu[nu] = u.T
        d_mu[theta] = ul.T
        d_mu *= np.sqrt(2.0)
        m = self.gather @ cells
        m[self.log_mask] *= values[self.log_mask, None]
        return m @ m.T


def _cell(spec: ModelSpec, entry):
    """The spec cell behind one ParameterIndex entry."""
    if entry.matrix == "lambda":
        return spec.loadings[entry.row][entry.col]
    if entry.matrix == "phi":
        return spec.factor_cov[entry.row][entry.col]
    block = {"psi2": spec.unique_variances, "nu": spec.intercepts, "theta": spec.factor_means}
    return block[entry.matrix][entry.row]


@functools.lru_cache(maxsize=64)
def _workspace(spec: ModelSpec) -> _Workspace:
    """The layout of spec, made once per spec (ModelSpec is frozen and hashable)."""
    return _Workspace(spec)


def _discrepancy_terms(
    lower: np.ndarray,
    mu: np.ndarray,
    sample_cov: np.ndarray,
    xbar: np.ndarray,
    lndet_s: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """ML discrepancy from the Cholesky factor of Sigma, with W = Sigma^-1 and W d.

    The gradient reuses W and W d, so F is computed one way on every path.
    """
    p = lower.shape[0]
    diff = xbar - mu
    y = np.linalg.solve(lower, np.concatenate([sample_cov, diff[:, None], np.eye(p)], axis=1))
    y_s, y_d, y_i = y[:, :p], y[:, p], y[:, p + 1 :]
    lndet = 2.0 * np.log(lower.diagonal()).sum()
    f = lndet - lndet_s + (y_s * y_i).sum() - p + y_d @ y_d
    return float(f), y_i.T @ y_i, y_i.T @ y_d


def _discrepancy_and_gradient(
    ws: _Workspace, z: np.ndarray, sample_cov, xbar, lndet_s
) -> tuple[float, np.ndarray]:
    """F and its exact gradient in unconstrained coordinates at z.

    Raises np.linalg.LinAlgError when the implied covariance is not
    positive definite.
    """
    mats, sigma, mu = ws.build(ws.to_raw(z))
    f, w, wd = _discrepancy_terms(np.linalg.cholesky(sigma), mu, sample_cov, xbar, lndet_s)
    g = w - w @ sample_cov @ w - np.multiply.outer(wd, wd)
    lam = mats.loadings
    # dF/d(cell) for every cell of the layout; psi2 cells carry the chain
    # rule through psi2 = exp(z)
    d_full = np.concatenate(
        [
            (2.0 * (g @ lam @ mats.factor_cov - np.multiply.outer(wd, mats.factor_means))).ravel(),
            (lam.T @ g @ lam).ravel(),
            g.diagonal() * mats.unique_variances,
            -2.0 * wd,
            -2.0 * (lam.T @ wd),
        ]
    )
    # adjoint of the scatter in build: a phi value that fills two cells
    # collects the derivative of both
    return f, np.bincount(ws.src, weights=d_full[ws.slots], minlength=ws.t)


def _sample_lndet(sample: SampleMoments) -> float:
    return 2.0 * float(np.sum(np.log(np.diag(cholesky(sample.cov)))))


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
    lndet_s = _sample_lndet(sample)
    f, _, _ = _discrepancy_terms(
        cholesky(implied.sigma), implied.mu_model, sample.cov, sample.mean, lndet_s
    )
    return _clamp_tiny_negative(f)


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
    try:
        _, grad = _discrepancy_and_gradient(ws, z, sample.cov, sample.mean, _sample_lndet(sample))
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError("implied covariance not positive definite") from None
    return grad


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


def _start_values(ws: _Workspace, sample: SampleMoments, warm_start_means: bool) -> np.ndarray:
    """Raw starting values for the first attempt.

    Free loadings and unique variances without a start of their own start
    at the default times the sample standard deviation and variance of
    their variable, so a fit of rescaled data starts at the rescaled
    point. With warm_start_means, the free intercepts and factor means
    then start at their least-squares values given the starting loadings:
    mu = nu + Lambda theta is linear in them, so one solve removes the
    part of xbar - mu they can reach, all of it when the mean structure is
    saturated. A rank-deficient solve keeps the starts it had.
    """
    v0 = ws.start_values.copy()
    variances = np.diag(sample.cov)
    v0[ws.default_lambda] = DEFAULT_STARTS["lambda"] * np.sqrt(variances[ws.rows[ws.default_lambda]])
    v0[ws.default_psi2] = DEFAULT_STARTS["psi2"] * variances[ws.rows[ws.default_psi2]]
    if not (warm_start_means and ws.mean_pos.size):
        return v0
    mats, _, mu = ws.build(v0)
    rows = ws.rows[ws.mean_pos]
    design = np.eye(ws.p)[:, rows]
    design[:, ws.theta_mask] = mats.loadings[:, rows[ws.theta_mask]]
    step, _, rank, _ = np.linalg.lstsq(design, sample.mean - mu, rcond=1e-10)
    if rank == ws.mean_pos.size:
        v0[ws.mean_pos] += step
    return v0


class _AttemptFailed(Exception):
    pass


def _inverse_fisher(ws: _Workspace, z: np.ndarray) -> np.ndarray:
    """Inverse Fisher information at z, or a scaled identity where it is singular."""
    info = ws.fisher_information(ws.to_raw(z))
    try:
        inv_lower = np.linalg.inv(np.linalg.cholesky(info))
    except np.linalg.LinAlgError:
        mean_curvature = np.trace(info) / ws.t
        return np.eye(ws.t) / (mean_curvature if mean_curvature > 0 else 1.0)
    return inv_lower.T @ inv_lower


def _minimize_once(ws: _Workspace, z, sample_cov, xbar, lndet_s, options: FitOptions):
    """BFGS from z on F, its inverse Hessian seeded from the Fisher information.

    The inverse Hessian is reset to the inverse Fisher information every
    FISHER_REFRESH iterations and whenever a line search along the BFGS
    direction fails. The loop stops when the largest gradient component
    reaches OPTIMIZER_GTOL, at max_iterations, or when the line search
    along a fresh Fisher direction accepts no trial.

    The line search accepts a trial that lowers F strictly and meets the
    Armijo condition. Near a minimum F stops resolving the decrease (on
    anchor_x1 the curvature along one loading is near 1e3, so a gradient
    of 1e-6 leaves about 1e-15 to gain), so it also accepts a trial whose
    F is equal to rounding if its largest gradient component is at most
    half the lowest so far. Each such step halves that record, so they
    are few; accepting equal F without the condition can cycle until
    max_iterations. A rejected trial shortens the step to the minimizer
    of the quadratic through F, the slope and the trial, within [0.1, 0.5]
    of the step; a trial whose Sigma is not positive definite, or whose F
    or gradient is not finite, halves it, and its overflow warnings are
    muted. After its first trial the search gives up once the decrease it
    asks for is below the rounding of F, whose terms are of the size of p
    and ln|S|.
    """
    f_rounding = np.finfo(float).eps * (xbar.size + abs(lndet_s))

    def evaluate(z):
        try:
            f, g = _discrepancy_and_gradient(ws, z, sample_cov, xbar, lndet_s)
        except np.linalg.LinAlgError:
            return None
        return (f, g) if np.isfinite(f) and np.all(np.isfinite(g)) else None

    def line_search(direction):
        slope = g @ direction
        if not (np.isfinite(slope) and slope < 0):
            return None
        alpha = 1.0
        while True:
            trial = evaluate(z + alpha * direction)
            if trial is None:
                alpha *= 0.5
            elif (trial[0] < f and trial[0] <= f + ARMIJO * alpha * slope) or (
                trial[0] <= f + f_rounding and np.max(np.abs(trial[1])) <= 0.5 * g_low
            ):
                return z + alpha * direction, *trial
            else:
                shrink = -alpha * slope / (2.0 * (trial[0] - f - alpha * slope))
                alpha *= min(max(shrink, 0.1), 0.5)
            if -alpha * slope <= f_rounding:
                return None

    with np.errstate(all="ignore"):
        start = evaluate(z)
        if start is None:
            raise _AttemptFailed("no finite discrepancy at the start")
        f, g = start
        iterations, h_inv, seeded_at = 0, None, -1
        g_low = np.max(np.abs(g))
        while np.max(np.abs(g)) > OPTIMIZER_GTOL and iterations < options.max_iterations:
            if h_inv is None or (iterations % FISHER_REFRESH == 0 and seeded_at != iterations):
                h_inv, seeded_at = _inverse_fisher(ws, z), iterations
            step = line_search(-(h_inv @ g))
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
                h_inv = (
                    h_inv
                    - np.multiply.outer(hy, s / sy)
                    - np.multiply.outer(s / sy, hy)
                    + ((sy + y @ hy) / sy**2) * np.multiply.outer(s, s)
                )
            z, g = z_new, g_new
            g_low = min(g_low, np.max(np.abs(g)))
            iterations += 1
    grad_inf = float(np.max(np.abs(g)))
    return z, f, grad_inf, iterations, grad_inf <= options.gradient_tolerance


def fit(spec: ModelSpec, sample: SampleMoments, options: FitOptions = FitOptions()) -> FitResult:
    """Minimize the ML discrepancy over the free parameters of spec.

    Runs the Fisher-seeded BFGS loop from starts scaled to the sample
    (see _start_values), retrying from jittered starts when an attempt
    fails to converge. The best attempt is always reported;
    converged=False survives into the result rather than raising, so
    Monte Carlo callers can count failures.
    """
    ws = _workspace(spec)
    report = ws.report
    if not report.is_valid:
        raise InvalidModelError(report)
    if sample.p != spec.p:
        raise SmmError(
            DIMENSION_MISMATCH,
            f"sample has {sample.p} variables but the model expects {spec.p}",
        )
    lndet_s = _sample_lndet(sample)
    v0 = _start_values(ws, sample, options.warm_start_factor_means)

    if ws.t == 0:
        mats, sigma, mu = ws.build(np.empty(0))
        f0, _, _ = _discrepancy_terms(cholesky(sigma), mu, sample.cov, sample.mean, lndet_s)
        f0 = _clamp_tiny_negative(f0)
        chi2, df = (sample.n - 1) * f0, report.df
        return FitResult(
            estimates=mats,
            f_min=f0,
            chi_square=chi2,
            df=df,
            n=sample.n,
            converged=True,
            iterations=0,
            grad_inf_norm=0.0,
            retries_used=0,
            free_values=np.empty(0),
            labels=ws.labels,
        )

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
            z_hat, f_hat, grad_inf, nit, converged = _minimize_once(
                ws, z_start, sample.cov, sample.mean, lndet_s, options
            )
        except (_AttemptFailed, SmmError) as err:
            last_error = err
            continue
        candidate = (z_hat, f_hat, grad_inf, nit, converged)
        if best is None or (converged, -f_hat) > (best[4], -best[1]):
            best = candidate
        if converged:
            break

    if best is None:
        raise NotPositiveDefiniteError(
            f"every optimization attempt failed; last error: {last_error}"
        )

    z_hat, f_hat, grad_inf, nit, converged = best
    f_hat = _clamp_tiny_negative(f_hat)
    mats = _sign_convention(spec, ws.build(ws.to_raw(z_hat))[0])
    free_hat = ws.index.extract(mats)
    chi2 = (sample.n - 1) * f_hat
    return FitResult(
        estimates=mats,
        f_min=f_hat,
        chi_square=chi2,
        df=report.df,
        n=sample.n,
        converged=converged,
        iterations=nit,
        grad_inf_norm=grad_inf,
        retries_used=attempts - 1,
        free_values=free_hat,
        labels=ws.labels,
    )
