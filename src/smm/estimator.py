"""Maximum-likelihood estimation of factor models with mean structure.

The discrepancy minimized is the normal-theory ML fit function

    F = ln|Sigma| - ln|S| + tr(S Sigma^-1) - p + (xbar - mu)' Sigma^-1 (xbar - mu),

zero exactly when the implied moments reproduce the sample moments, with
(n - 1) F the chi-square statistic of the model. With Sigma = L L',
U = L^-1, B = U (S - Sigma) U', d = xbar - mu and I + B = C C',

    F = sum_{i>j} c_ij^2 + sum_j (a_j - log1p(a_j)) + |U d|^2,
    a_j = c_jj^2 - 1 = b_jj - sum_{k<j} c_jk^2,

so the covariance part is tr B - ln|I + B|. Each term is nonnegative and
B is formed from S - Sigma, so near a minimum F keeps a relative
precision (see F_ROUNDING), and S = Sigma gives F = 0 exactly.

Unique variances are optimized as logs, everything else on its natural
scale. The gradient is exact: with W = Sigma^-1 = U'U and
G = dF/dSigma = -U' B U - (W d)(W d)', each component is

    dF/dp_k = tr(G dSigma/dp_k) - 2 d' W dmu/dp_k

(Joreskog 1967 for the covariance part, Lee & Jennrich 1979 for the mean
part), and one evaluation factors Sigma once for both.

The free intercepts and factor means are concentrated out (variable
projection; Golub & Pereyra 1973): every evaluation sets them to their
GLS optimum (see _discrepancy_terms), and the gradient of the
concentrated F is exact by the envelope theorem. The minimizer is BFGS
with a backtracking Armijo search, its inverse Hessian seeded from the
exact Hessian of the concentrated F (Lee & Jennrich 1979) or its Fisher
part (Jennrich & Robinson 1969); fit_many states the rules. Each row of
a stacked operation gets the bits it would get alone (see the linalg
module), so a result does not depend on the batch it was fitted in.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import linalg, rng
from .errors import (
    SmmError,
    BAD_INPUT,
    DIMENSION_MISMATCH,
    NONPOSITIVE_UNIQUE_VARIANCE,
    InvalidModelError,
    NotPositiveDefiniteError,
    integer,
)
from .model_spec import DEFAULT_STARTS, ModelSpec, ParameterIndex, ParameterMatrices, validate
from .moments import SampleMoments
from .simulate import cholesky

# The inverse Hessian is seeded again at iteration 2 and every SEED_REFRESH
# iterations after it (see _fit_block), which ends runaway attempts where
# both seeds fail. Periods of 3-6 give a bundled 15-replication block the
# same rounds, and 3 seeds up to 2.61 times a block.
SEED_REFRESH = 4
# Power steps of both one-factor starts (see _start_values): 10 take a
# 15-replication anchor_x1 block to 4.005 lockstep rounds, as 12 do.
PRINCIPAL_AXIS_STEPS = 10
# Sufficient-decrease constant of the Armijo condition.
ARMIJO = 1e-4
# The rounding of F, about eps * (sum|a_j| + F) (see the module docstring),
# with sum|a_j| at most 0.52 at the minima of the bundled designs. A line
# search gives up once it asks for less (see fit_many).
F_ROUNDING = np.finfo(float).eps


@dataclass(frozen=True)
class FitOptions:
    """Settings of fit, and of every fit of a fit_many batch.

    max_iterations caps the quasi-Newton steps of one attempt; a failed
    attempt is retried up to max_restarts times from starts jittered by
    up to jitter_fraction. seed is the jitter seed of fit; fit_many takes
    one per sample instead. A fit counts as converged when the largest
    component of the gradient over the covariance parameters (lambda, phi,
    psi2) is at most gradient_tolerance, which is met only where F resolves
    it (F_ROUNDING). The counts and seed must be integers (errors.integer),
    the counts >= 0, jitter_fraction in [0, 1] and gradient_tolerance
    finite and > 0; anything else raises SmmError(BAD_INPUT).
    """

    max_iterations: int = 1000
    max_restarts: int = 3
    jitter_fraction: float = 0.2
    seed: int = 0
    gradient_tolerance: float = 1e-6

    def __post_init__(self):
        for name in ("max_iterations", "max_restarts", "seed"):
            integer(f"FitOptions.{name}", getattr(self, name))
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

    Every path forms the implied moments through build, which symmetrizes
    Sigma exactly. A spec's workspace is made once (see _workspace) and
    never modified afterwards.
    """

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.report = validate(spec)
        self.index = index = ParameterIndex(spec)
        self.labels = index.labels()
        self.p, self.q, self.t = spec.p, spec.q, index.t
        # ParameterIndex.insert as a matrix: parameter k collects the cells
        # it fills, so a free off-diagonal phi sums the derivatives of both
        self.gather = np.zeros((self.t, index.template.size))
        self.gather[index.src, index.slots] = 1.0
        (self.pairs, self.sigma_map, self.mu_map,
         (self.second_pairs, self.second_sources, self.second_scale)) = _seed_maps(index, self.gather)

        matrix = np.array([e.matrix for e in index.entries], dtype=object)
        self.rows = np.array([e.row for e in index.entries], dtype=int)
        # unique variances, optimized as logs; consecutive in the layout
        self.log_pos = np.flatnonzero(matrix == "psi2")
        self.logs = slice(self.log_pos[0], self.log_pos[-1] + 1) if self.log_pos.size else slice(0)
        # the covariance parameters (lambda, phi, psi2) lead the layout; the
        # intercepts and factor means after them are concentrated out
        self.tc = int(np.count_nonzero(np.isin(matrix, ("lambda", "phi", "psi2"))))
        means, mean_rows = matrix[self.tc :], self.rows[self.tc :]
        # the columns of mu = mu0 + A beta in the mean parameters beta: e_j
        # for a free nu_j, and Lambda[:, k] (filled in per point) for theta_k
        self.design = np.zeros((self.p, means.size))
        nu_cols = np.flatnonzero(means == "nu")
        self.design[mean_rows[nu_cols], nu_cols] = 1.0
        # the factor means follow the intercepts, so their columns come last
        theta_cols = np.flatnonzero(means == "theta")
        self.thetas = slice(means.size - theta_cols.size, means.size)
        self.theta_rows = mean_rows[theta_cols]
        # free loadings and unique variances without a start of their own
        # take one from the sample
        default = ~index.own_start
        default_lambda, default_psi2 = default & (matrix == "lambda"), default & (matrix == "psi2")
        # as positions, with their variables
        self.default_lambda, self.default_psi2 = np.flatnonzero(default_lambda), np.flatnonzero(default_psi2)
        self.default_lambda_rows, self.default_psi2_rows = self.rows[self.default_lambda], self.rows[self.default_psi2]
        # the variables J of the one-factor starts (see _start_values)
        fixed_nu = np.array([not cell.is_free for cell in spec.intercepts])
        from_means = np.flatnonzero(default_lambda & fixed_nu[self.rows])
        along_means = spec.q == 1 and spec.factor_means[0].is_free and from_means.size >= 2
        start_lambda = from_means if along_means else self.default_lambda
        if spec.q > 1 or start_lambda.size < 2:
            start_lambda = start_lambda[:0]
        # no mean residuals: the start iterates principal axes instead
        self.principal_axis = not along_means
        self.start_lambda = start_lambda
        self.start_rows = self.rows[start_lambda]
        self.start_psi2 = np.flatnonzero(default_psi2 & np.isin(self.rows, self.start_rows))
        self.start_psi2_of = np.searchsorted(self.start_rows, self.rows[self.start_psi2])
        self.start_nu = index.template[index.slices[3]][self.start_rows]
        # the factor variance, or its start
        self.start_phi = float(index.template[index.slices[1].start])
        # the equal weights the power steps start from (J is empty or has two or more)
        self.start_weight = 1.0 / np.sqrt(max(self.start_rows.size, 1))
        self.start_pairs_i, self.start_pairs_j = np.triu_indices(self.start_rows.size, 1)
        # the factors whose sign may flip: each cell the flip touches is free or 0
        touched = [[row[k] for row in spec.loadings] + [spec.factor_means[k]]
                   + [c for j, c in enumerate(spec.factor_cov[k]) if j != k] for k in range(self.q)]
        self.flippable = np.array([all(c.is_free or c.value == 0.0 for c in t) for t in touched])
        self.lower = np.tri(self.p, dtype=bool)
        # the width of an evaluation record (see fields): z and g (tc each),
        # F, max |g|, the joint point (t) and the terms U, B, G (p x p each),
        # U d and W d (p each)
        self.record = 2 * self.tc + 2 + self.t + 3 * self.p * self.p + 2 * self.p
        for array in vars(self).values():
            if isinstance(array, np.ndarray):
                array.flags.writeable = False

    def to_unconstrained(self, values: np.ndarray) -> np.ndarray:
        z = np.array(values, dtype=float)
        z[..., self.log_pos] = np.log(z[..., self.log_pos])
        return z

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

    def fields(self, record: np.ndarray) -> tuple:
        """z, g, F, max |g|, the joint point and the terms of evaluation records (k, record), as views (see _evaluate)."""
        tc, t = self.tc, self.t
        return (record[:, :tc], record[:, tc : 2 * tc], record[:, 2 * tc], record[:, 2 * tc + 1],
                record[:, 2 * tc + 2 : 2 * tc + 2 + t], record[:, 2 * tc + 2 + t :])

    def unpack(self, packed: np.ndarray) -> tuple:
        """U, B, G, U d and W d of an evaluation's terms (..., 3 p^2 + 2 p), as views in that order."""
        p, k = self.p, self.p * self.p
        square = packed.shape[:-1] + (p, p)
        u, b, g = (packed[..., i * k : (i + 1) * k].reshape(square) for i in range(3))
        return u, b, g, packed[..., 3 * k : 3 * k + p], packed[..., 3 * k + p :]

    def _derivatives(self, values: np.ndarray, terms: np.ndarray) -> tuple:
        """The matrices, B, G, U d, W d, vec A_k (..., t, p * p) and sqrt(2) m_k (..., t, p).

        values (..., t) are joint points and terms their evaluations' terms
        (see _evaluate). A_k = U dSigma_k U' and m_k = U dmu_k
        for every parameter k, with U of the evaluation (see _seed_maps);
        the chain rule psi2 = exp(z) scales the rows of each log psi2.
        """
        u, b, g, ud, wd = self.unpack(terms)
        mats = self.index.insert(values)
        lead, p = values.shape[:-1], self.p
        ul = u @ mats.loadings
        u_t, ul_t = _mT(u), _mT(ul)
        pool = np.concatenate([u_t, ul_t, _mT(ul @ mats.factor_cov)], axis=-2)
        outer = pool[..., self.pairs[0], :, None] * pool[..., self.pairs[1], None, :]
        a = self.sigma_map @ outer.reshape(lead + (-1, p * p))
        a[..., self.log_pos, :] *= values[..., self.log_pos, None]
        thetas = (u_t[..., :, None, :] * mats.factor_means[..., None, :, None]).reshape(lead + (-1, p))
        m = self.mu_map @ np.concatenate([u_t, ul_t, thetas], axis=-2)
        return mats, b, g, ud, wd, a, m

    def _second_derivatives(self, mats: ParameterMatrices, g: np.ndarray, wd: np.ndarray) -> np.ndarray:
        """tr(G d2Sigma_kl) - 2 (W d)' d2mu_kl (..., t, t), plus dF/dz_j on the diagonal of each log psi2_j.

        Each entry that is not zero is a source G_ik Phi_jl, (G Lambda)_ia,
        (W d)_i or G_jj psi2_j times a constant, and no two sources meet in
        one entry (see _seed_maps). The sources are scattered into the
        matrix per row, so a spec needs memory of t^2 per row and nothing
        more.
        """
        lead, t = g.shape[:-2], self.t
        sources = np.concatenate(
            [
                (g[..., :, None, :, None] * mats.factor_cov[..., None, :, None, :]).reshape(lead + (-1,)),
                (g @ mats.loadings).reshape(lead + (-1,)),
                wd,
                g.diagonal(0, -2, -1) * mats.unique_variances,
            ],
            axis=-1,
        )
        second = np.zeros(lead + (t * t,))
        second[..., self.second_pairs] = sources[..., self.second_sources] * self.second_scale
        return second.reshape(lead + (t, t))

    def _concentrate(self, joint: np.ndarray) -> np.ndarray:
        """The Schur complement H_cc - H_cm H_mm^-1 H_mc of symmetric joint matrices (..., t, t) on their mean block."""
        tc = self.tc
        cross = joint[..., :tc, tc:]
        return joint[..., :tc, :tc] - cross @ linalg.solve(joint[..., tc:, tc:], _mT(cross))

    def concentrated_information(self, values: np.ndarray, terms: np.ndarray) -> np.ndarray:
        """The exact Hessian (..., tc, tc) of the concentrated F over z at joint points values (..., t).

        With U, B, e = U d, W d and G = dF/dSigma of the evaluation that
        accepted each point, its terms (see _evaluate),
        A_k = U dSigma_k U' and m_k = U dmu_k, the joint Hessian is

            H_kl = tr(A_k A_l) + 2 tr(A_k B A_l) + 2 (m_k + A_k e)'(m_l + A_l e)
                   + tr(G d2Sigma_kl) - 2 (W d)' d2mu_kl

        (Lee & Jennrich 1979) plus dF/dz_j on the diagonal of each log
        psi2_j (see _second_derivatives). Its Schur complement on the mean
        block is the Hessian of the concentrated F, since every evaluated
        point has the mean parameters at their optimum. NaN where the mean
        design is singular.
        """
        mats, b, g, ud, wd, a, m = self._derivatives(values, terms)
        lead, p, t = a.shape[:-2], self.p, self.t
        # the rows of every A_k, stacked
        rows = a.reshape(lead + (t * p, p))
        # sqrt(2) (m_k + A_k e), and vec A_k (I + 2B)
        v = m + np.sqrt(2.0) * (rows @ ud[..., None]).reshape(lead + (t, p))
        left = a + 2.0 * (rows @ b).reshape(lead + (t, p * p))
        return self._concentrate(left @ _mT(a) + v @ _mT(v) + self._second_derivatives(mats, g, wd))

    def concentrated_fisher(self, values: np.ndarray, terms: np.ndarray) -> np.ndarray:
        """The Fisher part (..., tc, tc) of concentrated_information at the same arguments.

        The Schur complement of tr(A_k A_l) + 2 m_k' m_l (Jennrich &
        Robinson 1969): the Hessian of the concentrated F wherever the model
        fits exactly, and positive definite wherever A and m have full rank.
        """
        _, _, _, _, _, a, m = self._derivatives(values, terms)
        return self._concentrate(a @ _mT(a) + m @ _mT(m))


def _seed_maps(index: ParameterIndex, gather: np.ndarray) -> tuple:
    """The seed's maps from whitened vectors and sources to derivatives (see _Workspace.concentrated_information).

    U dSigma U' of a cell is U e_i (U (Lambda Phi)_j)' plus its transpose
    for lambda_ij, U Lambda_a (U Lambda_b)' for phi_ab and U e_j (U e_j)'
    for psi2_j; U dmu is theta_j U e_i for lambda_ij, U e_i for nu_i and
    U Lambda_j for theta_j. tr(G d2Sigma) - 2 (W d)' d2mu is 2 G_ik Phi_jl
    for lambda_ij and lambda_kl, 2 (G Lambda)_ia [j = b] for lambda_ij and
    phi_ab (the two cells of a free phi sum to its derivative) and
    -2 (W d)_i for lambda_ij and theta_j, both ways round, and zero
    elsewhere; log psi2_j adds G_jj psi2_j on its diagonal. Each pair of
    parameters takes one term at most. Returns the pairs (r, s) of the
    outer products in use; through gather, sigma_map of those products to
    vec A and mu_map of the vectors to sqrt(2) U dmu; and, as flat indices
    k t + l, the pairs of free parameters of the second derivatives with
    their sources (in the order of _Workspace._second_derivatives) and
    constants.
    """
    p, q = index.spec.p, index.spec.q
    lam, phi, psi2, nu, theta = (np.arange(s.start, s.stop) for s in index.slices)
    cells, pool, pq = index.template.size, p + 2 * q, p * q
    i, j = np.divmod(np.arange(pq), q)  # the row and factor of each loading cell
    a, b = np.divmod(np.arange(q * q), q)  # the factors of each phi cell
    outer = np.zeros((cells, pool, pool))
    outer[lam, i, p + q + j] = outer[lam, p + q + j, i] = 1.0
    outer[phi, p + a, p + b] = 1.0
    outer[psi2, np.arange(p), np.arange(p)] = 1.0
    sigma_map = gather @ outer.reshape(cells, -1)
    used = np.flatnonzero(np.any(sigma_map != 0.0, axis=0))
    vectors = np.zeros((cells, p + q + pq))
    vectors[lam, p + q + np.arange(pq)] = np.sqrt(2.0)
    vectors[nu, np.arange(p)] = np.sqrt(2.0)
    vectors[theta, p + np.arange(q)] = np.sqrt(2.0)
    # each block of second derivatives as (row cell, column cell, source,
    # constant), broadcast together. The source G_ik Phi_jl is at
    # (i q + j) p q + k q + l, then come (G Lambda)_ia, (W d)_i and G_jj psi2_j
    m, n = np.divmod(np.arange(pq * pq), pq)
    f = np.arange(q)
    lam_f, phi_f = lam[i[:, None] * q + f], phi[j[:, None] * q + f]
    g_lam, wd, g_psi2 = pq * pq + np.arange(pq)[:, None], pq * pq + pq + i, pq * pq + pq + p + np.arange(p)
    blocks = [(lam[m], lam[n], m * pq + n, 2.0), (lam_f, phi_f, g_lam, 2.0), (phi_f, lam_f, g_lam, 2.0),
              (lam, theta[j], wd, -2.0), (theta[j], lam, wd, -2.0), (psi2, psi2, g_psi2, 1.0)]
    flat = [[np.ravel(array) for array in np.broadcast_arrays(*block)] for block in blocks]
    row, column, source, scale = map(np.concatenate, zip(*flat))
    # the parameter of each cell, -1 where the cell is fixed
    param = np.full(cells, -1)
    param[index.slots] = index.src
    kept = (param[row] >= 0) & (param[column] >= 0)
    second = (param[row][kept] * index.t + param[column][kept], source[kept], scale[kept])
    return np.array(np.divmod(used, pool)), sigma_map[:, used], gather @ vectors, second


def _mT(a: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes."""
    return a.swapaxes(-1, -2)


@functools.lru_cache(maxsize=64)
def _workspace(spec: ModelSpec) -> _Workspace:
    """The layout of spec, made once per spec (ModelSpec is frozen and hashable)."""
    return _Workspace(spec)


@functools.cache
def _identity(p: int) -> np.ndarray:
    """The identity matrix of size p, made once and read-only."""
    eye = np.identity(p)
    eye.flags.writeable = False
    return eye


def _discrepancy_terms(
    sigma: np.ndarray,
    mu: np.ndarray,
    sample_cov: np.ndarray,
    xbar: np.ndarray,
    design: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """F from the whitened residuals, with U = L^-1, B = U (S - Sigma) U' and U d.

    design (..., p, m) holds the columns A of m mean parameters beta
    concentrated out of F (m may be 0), and every argument may carry the
    same leading axes. beta solves (UA)'(UA) beta = (UA)' U d0, the GLS fit
    of the mean residual d0 = xbar - mu, and U d = U d0 - UA beta; F is
    the module docstring's. Every path computes F here. Returns F, U, B,
    U d and beta; all are NaN in a row where Sigma is not positive
    definite, beta, U d and F where the normal equations are singular, and
    F where I + B is not.
    """
    u = linalg.whitener(sigma)
    ua, ud0 = u @ design, u @ (xbar - mu)[..., None]
    ua_t = _mT(ua)
    beta = linalg.solve(ua_t @ ua, ua_t @ ud0)
    ud = (ud0 - ua @ beta)[..., 0]
    b = u @ (sample_cov - sigma) @ _mT(u)
    p = b.shape[-1]
    # I + B = C C'; with C's diagonal zeroed, r_j = sum_{k<j} c_jk^2 and
    # a_j = c_jj^2 - 1 = b_jj - r_j
    c = linalg.cholesky(b + _identity(p))
    c.reshape(c.shape[:-2] + (p * p,))[..., :: p + 1] = 0.0
    r = (c * c).sum(axis=-1)
    a = b.diagonal(0, -2, -1) - r
    f = (r + (a - np.log1p(a))).sum(axis=-1) + (ud * ud).sum(axis=-1)
    return f, u, b, ud, beta[..., 0]


def _discrepancy_and_gradient(
    ws: _Workspace, values: np.ndarray, sample_cov, xbar, concentrate: bool = False
) -> tuple[np.ndarray, np.ndarray, tuple]:
    """F (rows,), its exact gradient (rows, tc) over the covariance parameters in unconstrained coordinates, and U, B, G, U d and W d.

    values is a stack of raw points (rows, t), each with its own sample
    cov (rows, p, p) and xbar (rows, p). With concentrate, the mean
    parameters of each row are first moved, in place, to their GLS optimum,
    so F is the concentrated discrepancy. F and the gradient are NaN in a
    row whose implied covariance is not positive definite or, with
    concentrate, whose mean design is singular. F is not finite wherever
    W d = U'(U d) is not, since it contains |U d|^2.
    """
    mats, sigma, mu = ws.build(values)
    lam, lam_t, rows = mats.loadings, _mT(mats.loadings), values.shape[0]
    design = ws.design[:, :0]  # no column: nothing concentrated out
    if concentrate:
        design = np.empty((rows,) + ws.design.shape)
        design[...] = ws.design
        design[..., ws.thetas] = lam[..., ws.theta_rows]
    f, u, b, ud, beta = _discrepancy_terms(sigma, mu, sample_cov, xbar, design)
    if concentrate:
        values[:, ws.tc :] += beta
        # of the mean parameters, only the factor means enter the gradient
        mats.factor_means[:, ws.theta_rows] += beta[:, ws.thetas]
    u_t = _mT(u)
    wd = (u_t @ ud[..., None])[..., 0]
    g = -(u_t @ b @ u) - wd[:, :, None] * wd[:, None, :]
    # dF/d(cell) for the covariance cells, which lead the layout; psi2
    # cells carry the chain rule through psi2 = exp(z)
    cells = np.concatenate(
        [
            (
                2.0 * (g @ lam @ mats.factor_cov - wd[:, :, None] * mats.factor_means[:, None, :])
            ).reshape(rows, -1),
            (lam_t @ g @ lam).reshape(rows, -1),
            g.diagonal(0, 1, 2) * mats.unique_variances,
        ],
        axis=1,
    )
    return f, cells @ ws.gather[: ws.tc, : cells.shape[1]].T, (u, b, g, ud, wd)


def _checked_point(ws: _Workspace, free_values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """free_values as floats with their implied (sigma, mu); raises unless there are t of them and every psi2 > 0."""
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
    positive definite: simulate.cholesky raises for either one, so a
    near-singular matrix fails loudly instead of giving a huge finite F.
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
    value is analytic: the joint gradient over every free parameter at the
    point as given, whose covariance block is the concentrated gradient
    fit steps on where the intercepts and factor means are at their GLS
    optimum. It takes the checks of implied_moments, sample must be one
    sample of the spec's variables, and a point whose implied covariance
    is not positive definite raises.
    """
    ws = _workspace(spec)
    values, sigma, mu = _checked_point(ws, free_values)
    _check_one_sample(sample, sigma, mu)
    cholesky(sample.cov)  # raises unless the sample covariance is positive definite
    with np.errstate(invalid="ignore"):
        _, grad, (*_, wd) = _discrepancy_and_gradient(ws, values[None], sample.cov[None], sample.mean[None])
        # the mean parameters' cells, which end the layout: -2 W d for the
        # intercepts and -2 Lambda' W d for the factor means
        cells = -2.0 * np.concatenate([wd[0], ws.index.insert(values).loadings.T @ wd[0]])
        grad = np.concatenate([grad[0], ws.gather[ws.tc :, -cells.size :] @ cells])
    if np.isnan(grad).any():
        raise NotPositiveDefiniteError("implied covariance not positive definite")
    return grad


def _sign_convention(ws: _Workspace, mats: ParameterMatrices) -> ParameterMatrices:
    """Flip loading columns whose sum is negative, where the flip is free.

    Flipping column k with theta_k and the off-diagonal phi entries of
    factor k leaves the implied moments unchanged: a pure reporting
    convention. Only the columns of ws.flippable, whose cells are all free
    or fixed at zero, may flip. mats may carry leading axes.
    """
    flip = ws.flippable & (mats.loadings.sum(axis=-2) < 0)
    sign = np.where(flip, -1.0, 1.0)
    cross = sign[..., :, None] * sign[..., None, :]
    return ParameterMatrices(mats.loadings * sign[..., None, :], mats.intercepts, mats.factor_means * sign,
                             mats.factor_cov * cross, mats.unique_variances)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axes, each row with the bits of the 1-D a @ b, which a strided row or a sum would miss."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _start_values(ws: _Workspace, cov: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Raw starts (..., tc) of the covariance parameters from sample moments cov (..., p, p) and mean (..., p).

    Each row gets the bits it gets alone. A free cell with a start of its
    own keeps it; other free loadings and unique variances start at the
    default times the sample standard deviation and variance of their
    variable. Intercepts and factor means need none: every evaluation sets
    them to their GLS optimum.

    One-factor specs start the variables J whose loading has no start of
    its own, when there are at least two, from their correlations R and
    standard deviations sd_j, with phi0 the factor variance (or its start).
    v starts at equal weights and takes PRINCIPAL_AXIS_STEPS power steps
    x = M v, v = x / |x|; then lambda_j = c v_j sd_j and
    psi2_j = max(S_jj - phi0 lambda_j^2, 0.1 S_jj), where
    c^2 = sum_{i<j} r_ij v_i v_j / (phi0 sum_{i<j} (v_i v_j)^2) fits the
    correlations along v by least squares.

    Where the factor mean is free and at least two of J have a fixed
    intercept nu_j, J is those, m_j = (xbar_j - nu_j) / sd_j and
    M = R + m m'. With zero unique-factor means the mean residuals
    xbar - nu = theta lambda are proportional to the loadings (arXiv
    1510.01298), so S + (xbar - nu)(xbar - nu)' =
    (phi + theta^2) lambda lambda' + Psi is itself a one-factor structure.
    Otherwise, as in the anchored designs, J is all of those loadings and
    the start is an iterated principal-axis solution of R, the classical
    start of ML factor analysis: c^2 is fitted at the equal weights, M is
    R with the communalities phi0 c^2 v_j^2 (at most 0.995) on its
    diagonal, renewed before each step, and after it phi0 c^2 = v'x.

    Rows where c^2 is not positive and finite, among them rows whose
    moments are not finite, keep the default starts. Either way a fit of
    rescaled or permuted data starts at the rescaled or permuted point.
    """
    lead = cov.shape[:-2]
    v0 = np.empty(lead + (ws.t,))
    v0[...] = ws.index.start
    variances = cov.diagonal(0, -2, -1)
    v0[..., ws.default_lambda] = DEFAULT_STARTS["lambda"] * np.sqrt(variances.take(ws.default_lambda_rows, axis=-1))
    v0[..., ws.default_psi2] = DEFAULT_STARTS["psi2"] * variances.take(ws.default_psi2_rows, axis=-1)
    rows = ws.start_rows
    if rows.size:
        var = variances.take(rows, axis=-1)
        sd = np.sqrt(var)
        corr = cov[..., rows[:, None], rows] / (sd[..., :, None] * sd[..., None, :])
        # v and x = M v as columns (..., n, 1); each power step runs in place
        column = np.empty(lead + (rows.size, 1))
        column[...] = ws.start_weight
        x, norm, v = np.empty_like(column), np.empty(lead + (1, 1)), column[..., 0]
        if not ws.principal_axis:
            m = (mean.take(rows, axis=-1) - ws.start_nu) / sd
            # C-contiguous, so each row's matrix-vector product rounds as it does alone
            augmented = np.ascontiguousarray(corr + m[..., :, None] * m[..., None, :])
            for _ in range(PRINCIPAL_AXIS_STEPS):
                np.matmul(augmented, column, out=x)
                np.sqrt(np.matmul(_mT(x), x, out=norm), out=norm)
                np.divide(x, norm, out=column)
        i, j = ws.start_pairs_i, ws.start_pairs_j
        vv = v.take(i, axis=-1) * v.take(j, axis=-1)
        c2 = (_dot(corr[..., i, j], vv) / (ws.start_phi * _dot(vv, vv)))[..., None]
        if ws.principal_axis:
            reduced = corr.copy()
            diagonal = reduced.reshape(lead + (rows.size * rows.size,))[..., :: rows.size + 1]
            for _ in range(PRINCIPAL_AXIS_STEPS):
                # the communalities on the diagonal, kept below 1, then a power step
                np.minimum(ws.start_phi * c2 * v**2, 0.995, out=diagonal)
                np.matmul(reduced, column, out=x)
                np.divide(np.matmul(_mT(column), x, out=norm)[..., 0], ws.start_phi, out=c2)
                np.sqrt(np.matmul(_mT(x), x, out=norm), out=norm)
                np.divide(x, norm, out=column)
        ok = np.isfinite(c2) & (c2 > 0)
        lam = np.sqrt(np.where(ok, c2, 0.0)) * v * sd
        psi2 = np.maximum(var - ws.start_phi * lam**2, 0.1 * var)
        v0[..., ws.start_lambda] = np.where(ok, lam, v0.take(ws.start_lambda, axis=-1))
        v0[..., ws.start_psi2] = np.where(ok, psi2.take(ws.start_psi2_of, axis=-1), v0.take(ws.start_psi2, axis=-1))
    return v0[..., : ws.tc]


def _evaluate(ws: _Workspace, z, sample_cov, xbar, out=None) -> tuple:
    """F (k,), its gradient (k, tc), the joint points (k, t) and the terms at covariance points z (k, tc).

    They fill every field but z of evaluation records (k, ws.record) (see
    _Workspace.fields), out where given and a new array otherwise, in one
    copy; the points and terms are returned as views of the records. The
    terms are U, B, G, U d and W d, which the seed at that point reads. F is
    inf where F or the gradient is not finite, as where Sigma is not
    positive definite or the mean design is singular. It never raises.
    """
    record = np.empty((len(z), ws.record)) if out is None else out
    values = np.zeros((len(z), ws.t))
    values[:, : ws.tc] = z
    np.exp(z[:, ws.logs], out=values[:, ws.logs])
    f, g, terms = _discrepancy_and_gradient(ws, values, sample_cov, xbar, concentrate=True)
    g_inf = np.abs(g).max(axis=1, initial=0.0)
    # max |g| is finite exactly where every component is
    f = np.where(np.isfinite(f) & np.isfinite(g_inf), f, np.inf)
    fields = [g, f[:, None], g_inf[:, None], values] + [term.reshape(len(z), -1) for term in terms]
    np.concatenate(fields, axis=1, out=record[:, ws.tc :])
    _, _, _, _, point, terms = ws.fields(record)
    return f, g, point, terms


def _inverse_information(ws: _Workspace, values: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """The seed of the inverse Hessian (rows, tc, tc) at joint points (rows, t) with their terms, by Cholesky.

    The inverse of the exact concentrated Hessian where its Cholesky
    factor holds, and of its Fisher part elsewhere, which still points
    downhill far from a minimum. A row where both fail is NaN, and the
    attempt that seeded it ends.
    """
    lower = linalg.cholesky(ws.concentrated_information(values, terms))
    failed = np.isnan(lower).any(axis=(1, 2))
    if np.count_nonzero(failed):
        lower[failed] = linalg.cholesky(ws.concentrated_fisher(values[failed], terms[failed]))
    inv_lower = linalg.inv(lower)
    return _mT(inv_lower) @ inv_lower


def fit_many(spec: ModelSpec, samples: SampleMoments, options: FitOptions, seeds) -> list:
    """Fit spec to each sample of a block, all samples in lockstep, with one set of options.

    samples is one SampleMoments: a block of R samples of one size n (mean
    (R, p), cov (R, p, p)), as simulate.draw_moments draws them, or one
    sample, a block of one. seeds holds one jitter seed per sample, which
    is what FitOptions.seed is to fit (options.seed is not read here). An
    invalid spec raises InvalidModelError, a p other than the spec's
    DIMENSION_MISMATCH and a seed count other than R or a seed that is not
    an integer BAD_INPUT, each for the whole call. Returns one entry per
    sample: its FitResult, or the SmmError its fit raised. A sample
    covariance that simulate.cholesky rejects gets the error it raises for
    that sample alone, and a sample whose every attempt fails a
    NotPositiveDefiniteError. Each entry has the bits of the sample's lone
    fit, whether the block is strided or not.

    Each sample runs attempts of BFGS on the concentrated F over the
    covariance parameters in unconstrained coordinates, from the starts of
    _start_values. The inverse Hessian is seeded (_inverse_information) at
    the start, at iteration 2 and every SEED_REFRESH iterations after it,
    and whenever no step is found along the BFGS direction. The line
    search tries the full step and accepts a trial that lowers F strictly
    and meets the Armijo condition; a rejected trial shortens the step to
    the minimizer of the quadratic through F, the slope and the trial,
    within [0.1, 0.5] of the step, one without a finite F halves it, and
    no step is found once the decrease asked for is below F_ROUNDING. An
    attempt converges, before a search, when the largest gradient
    component is within gradient_tolerance and the step predicts a
    decrease (-slope / 2) within F_ROUNDING. It fails when a seed fails
    (neither the Hessian nor its Fisher part is positive definite), when
    no step is found along a fresh seed's direction, or without a finite
    F at its start. Otherwise it runs to max_iterations. Up to
    max_restarts more attempts follow one that fails or ends unconverged,
    attempt a from the first start jittered by up to jitter_fraction,
    drawn from derive_seed(seed, rng.STREAM_JITTER, a), and the best is
    reported: converged first, then the lowest F. Without free covariance
    parameters the start's one evaluation is the result.

    The rounds (_fit_block) step every unfinished fit as a row of stacked
    arrays, with numpy's floating-point warnings off: a trial that
    overflows or fails its row's LAPACK call reads F = inf and is
    rejected, and the other rows go on.
    """
    block, errors = _fit_block(spec, samples, options, seeds)
    return [_fit_row(block, i) if error is None else error for i, error in enumerate(errors)]


class _Rows:
    """The unfinished fits of _fit_block, one row each, as named views of a float and an integer array.

    A row of floats is the attempt's accepted evaluation record [z | g | f
    | g_inf | point | terms] (see _evaluate) and its search [d | slope |
    alpha] (the direction, its slope and the step), whose trial is
    z + alpha d. The integers (3, k) are the sample's index row, the
    iterations it and seeded, the iteration of the last seed (-1: none).
    The inverse Hessians h (k, tc, tc) and the sample moments cov and mean,
    which elementwise operations read whole, are arrays of their own. take
    keeps rows with one take per array.
    """

    def __init__(self, ws: _Workspace, floats: np.ndarray, ints: np.ndarray, h, cov, mean):
        self.ws, self.floats, self.ints, self.h, self.cov, self.mean = ws, floats, ints, h, cov, mean
        self.accepted, self.search = floats[:, : ws.record], floats[:, ws.record :]
        self.z, self.g, self.f, self.g_inf, self.point, self.terms = ws.fields(self.accepted)
        self.d, self.slope, self.alpha = self.search[:, :-2], self.search[:, -2], self.search[:, -1]
        self.row, self.it, self.seeded = ints

    def begin(self, at, z: np.ndarray) -> None:
        """Begin attempts at rows at from unconstrained starts z, which the next round accepts where F is finite."""
        # f = inf, slope = 0 and it = seeded = -1 accept any finite F, and
        # the trial z + 1 (-0.0) is z bit for bit, a -0.0 coordinate included
        self.z[at], self.f[at] = z, np.inf
        self.d[at], self.slope[at], self.alpha[at] = -0.0, 0.0, 1.0
        self.it[at], self.seeded[at] = -1, -1

    def take(self, keep: np.ndarray) -> _Rows:
        return _Rows(self.ws, self.floats.take(keep, axis=0), self.ints.take(keep, axis=1),
                     *(array.take(keep, axis=0) for array in (self.h, self.cov, self.mean)))


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
    for seed in seeds:
        integer("jitter seed", seed)
    # a sample covariance that simulate.cholesky rejects fails its row with its error
    codes = linalg.checked_cholesky(covs)[1]
    errors = [linalg.failure(code) if code else None for code in codes.tolist()]
    rows = np.flatnonzero(codes == 0)

    tc, k = ws.tc, len(rows)
    last, tol, jitter = options.max_restarts if tc else 0, options.gradient_tolerance, options.jitter_fraction
    # per sample: its first start, its attempt, and its best attempt's F,
    # max |g| and joint point, the columns of a record from f on, and
    # iterations, where it = -1 while no attempt had a finite start
    starts = np.zeros((count, tc))
    attempt = np.zeros(count, dtype=int)
    kept = slice(2 * tc, 2 * tc + 2 + ws.t)
    best = np.zeros((count, 2 + ws.t))
    best[:, 0] = np.inf
    best_it = np.full(count, -1)
    # one row per unfinished fit
    r = _Rows(ws, np.zeros((k, ws.record + tc + 2)), np.zeros((3, k), dtype=int), np.zeros((k, tc, tc)),
              covs.take(rows, axis=0), means.take(rows, axis=0))
    r.row[:] = rows
    with np.errstate(all="ignore"):
        starts[rows] = v0 = _start_values(ws, r.cov, r.mean)
        r.begin(slice(None), ws.to_unconstrained(v0))
        while len(r.row):
            # the round's trial record, whose point is z + alpha d
            trial = np.empty((len(r.row), ws.record))
            zt = np.add(r.z, r.alpha[:, None] * r.d, out=trial[:, :tc])
            f, g, _, _ = _evaluate(ws, zt, r.cov, r.mean, trial)
            accept = (f < r.f) & (f <= r.f + ARMIJO * r.alpha * r.slope)
            head, ended, reject = accept, np.zeros(len(f), dtype=bool), ~accept
            if np.count_nonzero(reject):
                shrink = -r.alpha * r.slope / (2.0 * (f - r.f - r.alpha * r.slope))
                shrink = np.where(f < np.inf, np.minimum(np.maximum(shrink, 0.1), 0.5), 0.5)
                np.copyto(r.alpha, r.alpha * shrink, where=reject)
                # a search that asks for less than F's rounding gives up: it
                # ends the attempt on a fresh seed and seeds afresh otherwise
                give_up = reject & (-r.alpha * r.slope <= F_ROUNDING)
                ended = give_up & (r.seeded == r.it)
                head = accept | (give_up & ~ended)
                np.copyto(r.seeded, -1, where=give_up)
            r.it += accept
            # iteration 2 and every SEED_REFRESH after it renew the seed
            renew = r.it % SEED_REFRESH == 2
            if np.count_nonzero(accept):
                step, y = zt - r.z, g - r.g
                sy = step[:, None, :] @ y[:, :, None]
                # the update only where the next step reads it, not where a
                # start or a renewal of the seed replaces it
                keep = accept & (sy[:, 0, 0] > 0) & (r.seeded >= 0) & ~renew
                if np.count_nonzero(keep):
                    hy = r.h @ y[:, :, None]
                    # the transpose of hy (s/sy)' is (s/sy) hy', bit for bit
                    cross = hy * (step / sy[:, 0])[:, None, :]
                    # float_power is the libm pow a scalar sy**2 takes, not a square
                    curve = (sy + y[:, None, :] @ hy) / np.float_power(sy, 2.0)
                    updated = r.h - cross
                    updated -= _mT(cross)
                    outer = step[:, :, None] * step[:, None, :]
                    outer *= curve
                    updated += outer
                    np.copyto(r.h, updated, where=keep[:, None, None])
                np.copyto(r.accepted, trial, where=accept[:, None])
            while np.count_nonzero(head):
                run = head & (r.it < options.max_iterations)
                due = run & ((r.seeded < 0) | (renew & (r.seeded != r.it)))
                if np.count_nonzero(due):
                    r.h[due] = _inverse_information(ws, r.point[due], r.terms[due])
                    np.copyto(r.seeded, r.it, where=due)
                # the new searches [d | slope | 1], copied where they go on
                search = np.ones(r.search.shape)
                d = search[:, :tc, None]
                np.negative(np.matmul(r.h, r.g[:, :, None], out=d), out=d)
                slope = np.matmul(r.g[:, None, :], d, out=search[:, tc, None, None])[:, 0, 0]
                descent = np.isfinite(slope) & (slope < 0)
                # within tolerance, and the step predicts less decrease than F resolves
                close = (-0.5 * slope <= F_ROUNDING) & (r.g_inf <= tol)
                go = run & descent & ~close
                # no descent direction: seed afresh once, then end
                stale = run & ~descent & (r.seeded != r.it)
                ended |= head & ~(go | stale)
                head = stale
                np.copyto(r.search, search, where=go[:, None])
                np.copyto(r.seeded, -1, where=stale)
            if not np.count_nonzero(ended):
                continue
            # where attempts end, keep the best: the best so far never
            # converged, so a converged attempt wins, another where F is lower
            e = np.flatnonzero(ended)
            i = r.row[e]
            started = r.it[e] >= 0
            conv = started & (r.g_inf[e] <= tol)
            better = started & (conv | (r.f[e] < best[i, 0]))
            into, src = i[better], e[better]
            best[into] = r.accepted[src, kept]
            best_it[into] = r.it[src]
            # an unconverged attempt with restarts left restarts from the
            # first start, jittered from its own stream
            again = e[~conv & (attempt[i] < last)]
            if again.size:
                i = r.row[again]
                attempt[i] += 1
                streams = [rng.derive_seed(seeds[j], rng.STREAM_JITTER, attempt[j]) for j in i]
                noise = rng.uniform_rows(streams, (ws.t,), -jitter, jitter)[:, :tc]
                v = starts[i]
                r.begin(again, ws.to_unconstrained(np.where(v != 0.0, v * (1.0 + noise), noise)))
                ended[again] = False
            if np.count_nonzero(ended):
                r = r.take(np.flatnonzero(~ended))

    started = best_it >= 0
    for i in np.flatnonzero(~started & (codes == 0)):
        message = "every optimization attempt failed; last error: no finite discrepancy at the start"
        errors[i] = NotPositiveDefiniteError(message)
    mats = _sign_convention(ws, ws.index.insert(best[:, 2:]))
    f_min = np.where(started, best[:, 0], 0.0)
    block = FitResult(
        estimates=mats, f_min=f_min, chi_square=(samples.n - 1) * f_min, df=ws.report.df, n=samples.n,
        converged=started & (best[:, 1] <= tol), iterations=np.where(started, best_it, 0),
        grad_inf_norm=best[:, 1].copy(), retries_used=np.where(started, attempt, 0),
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

    This is fit_many on one sample, with options.seed its jitter seed, and
    gives the same bits as that sample in any batch. The best attempt is
    always reported: converged=False survives into the result rather than
    raising, so Monte Carlo callers can count failures. The error fit_many
    returns for the sample is raised.
    """
    (result,) = fit_many(spec, sample, options, [options.seed])
    if isinstance(result, SmmError):
        raise result
    return result
