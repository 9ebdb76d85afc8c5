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
for both F and its gradient, so each BFGS line-search trial costs one
evaluation. A fit of a bundled design takes 30-300 iterations and tens of
milliseconds.
"""

from __future__ import annotations

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
from .model_spec import ModelSpec, ParameterIndex, ParameterMatrices, validate
from .moments import SampleMoments
from .simulate import cholesky

# The optimizer aims an order of magnitude past the convergence flag so
# that "converged" results sit well inside the acceptance region.
OPTIMIZER_GTOL = 1e-8


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
    of its cells. Every evaluation path (objective and gradient, public
    implied_moments, ml_discrepancy and numeric_gradient) goes through
    build and _discrepancy_terms, so they share one definition of the
    implied moments, including the exact symmetrization of Sigma, and of F.
    """

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.index = ParameterIndex(spec)
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
        self.log_mask = np.array([e.matrix == "psi2" for e in self.index.entries], dtype=bool)
        self.theta_pos = np.array(
            [k for k, e in enumerate(self.index.entries) if e.matrix == "theta"], dtype=int
        )
        self.theta_rows = np.array(
            [e.row for e in self.index.entries if e.matrix == "theta"], dtype=int
        )
        self.lower = np.tri(p, dtype=bool)
        self.diag = np.diag_indices(p)

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
    ws = _Workspace(spec)
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
    return _Workspace(spec).to_unconstrained(np.asarray(free_values, dtype=float))


def to_raw(spec: ModelSpec, z: np.ndarray) -> np.ndarray:
    """Inverse of to_unconstrained."""
    return _Workspace(spec).to_raw(np.asarray(z, dtype=float))


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
    ws = _Workspace(spec)
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
    report = validate(spec)
    return (n - 1) * f_min, report.df


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


def _warm_start_theta(ws: _Workspace, v0: np.ndarray, xbar: np.ndarray) -> np.ndarray:
    """Start free factor means at their least-squares values.

    Uses the starting loadings and intercepts: theta0 solves
    Lambda0 theta = xbar - nu0. Skipped when the starting loadings are
    rank deficient, in which case the spec-supplied starts stand.
    """
    base = ws.index.insert(v0)
    theta_ls, _, rank, _ = np.linalg.lstsq(
        base.loadings, xbar - base.intercepts, rcond=1e-10
    )
    if rank < ws.q:
        return v0
    out = v0.copy()
    out[ws.theta_pos] = theta_ls[ws.theta_rows]
    return out


class _AttemptFailed(Exception):
    pass


def _minimize_once(ws: _Workspace, z_start, sample_cov, xbar, lndet_s, options: FitOptions):
    # imported here so that `import smm` does not pay for scipy.optimize
    import scipy.optimize

    def objective(z):
        try:
            return _discrepancy_and_gradient(ws, z, sample_cov, xbar, lndet_s)
        except np.linalg.LinAlgError:
            raise _AttemptFailed("implied covariance left the positive definite cone") from None

    result = scipy.optimize.minimize(
        objective,
        z_start,
        jac=True,
        method="BFGS",
        options={"maxiter": options.max_iterations, "gtol": OPTIMIZER_GTOL},
    )
    f_final = float(result.fun)
    if not np.isfinite(f_final):
        raise _AttemptFailed("non-finite discrepancy at the returned point")
    grad_inf = float(np.max(np.abs(result.jac)))
    converged = grad_inf <= options.gradient_tolerance
    return result.x, f_final, grad_inf, int(result.nit), converged


def fit(spec: ModelSpec, sample: SampleMoments, options: FitOptions = FitOptions()) -> FitResult:
    """Minimize the ML discrepancy over the free parameters of spec.

    Runs BFGS from the spec starting values (factor means warm-started
    from the observed means), retrying from jittered starts when an
    attempt fails to converge. The best attempt is always reported;
    converged=False survives into the result rather than raising, so
    Monte Carlo callers can count failures.
    """
    report = validate(spec)
    if not report.is_valid:
        raise InvalidModelError(report)
    if sample.p != spec.p:
        raise SmmError(
            DIMENSION_MISMATCH,
            f"sample has {sample.p} variables but the model expects {spec.p}",
        )
    lndet_s = _sample_lndet(sample)
    ws = _Workspace(spec)

    v0 = ws.index.starting_values()
    if options.warm_start_factor_means and ws.theta_pos.size:
        v0 = _warm_start_theta(ws, v0, sample.mean)

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
            labels=ws.index.labels(),
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
    mats = _sign_convention(spec, ws.index.insert(ws.to_raw(z_hat)))
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
        labels=ws.index.labels(),
    )
