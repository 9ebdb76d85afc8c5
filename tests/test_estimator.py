from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smm import estimator, rng, serialize
from smm.cli import _covariance_only_variant
from smm.errors import SmmError, InvalidModelError, NotPositiveDefiniteError
from smm.estimator import (
    ARMIJO,
    F_ROUNDING,
    FISHER_REFRESH,
    FitOptions,
    ImpliedMoments,
    _cholesky,
    _dot,
    _eigh,
    _eigvalsh,
    _evaluate,
    _inv,
    _inverse_information,
    _sign_convention,
    _solve,
    _start_values,
    _workspace,
    fit,
    fit_many,
    implied_moments,
    ml_discrepancy,
    numeric_gradient,
)
from smm.fixtures import (
    REFERENCE_LOADINGS,
    anchored_model_spec,
    bundled_studies,
    reference_model_spec,
    reference_population,
    study_path,
)
from smm.model_spec import (
    ModelSpec,
    ParameterCell,
    ParameterIndex,
    fix_intercept_variant,
    fixed,
    free,
    one_factor_spec,
    validate,
)
from smm.moments import Dataset, SampleMoments, compute_moments
from smm.simulate import Seed, cholesky, draw_moments, draw_sample, explicit, population_moments, structured

LOADINGS = np.array([0.3, 0.4, 0.5, 0.6, 0.7])


def population_sample(key, n=901):
    """Exact population moments dressed up as a sample of size n."""
    m, sigma = population_moments(reference_population(key))
    return SampleMoments(n=n, mean=m, cov=sigma)


def drawn_sample(key, n, seed):
    data = draw_sample(reference_population(key), n, Seed(seed))
    return compute_moments(data)


def scalar_spec(variance=1.0, mean=0.0):
    """Fully fixed single-variable model for hand-checkable discrepancies."""
    return ModelSpec(
        loadings=((fixed(0.0),),),
        intercepts=(fixed(mean),),
        factor_means=(fixed(0.0),),
        factor_cov=((fixed(1.0),),),
        unique_variances=(fixed(variance),),
    )


def test_implied_moments_hand_values():
    spec = reference_model_spec()
    values = np.concatenate([LOADINGS, 1.0 - LOADINGS**2, [10.0]])
    implied = implied_moments(spec, values)
    np.testing.assert_allclose(np.diag(implied.sigma), np.ones(5))
    assert implied.sigma[0, 1] == pytest.approx(0.12)
    np.testing.assert_allclose(implied.mu_model, [3.0, 4.0, 5.0, 6.0, 7.0])


def test_implied_moments_zero_loadings_give_diagonal_sigma():
    spec = reference_model_spec()
    psi2 = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    values = np.concatenate([np.zeros(5), psi2, [3.0]])
    implied = implied_moments(spec, values)
    np.testing.assert_array_equal(implied.sigma, np.diag(psi2))
    np.testing.assert_array_equal(implied.mu_model, np.zeros(5))


def test_implied_sigma_exactly_symmetric():
    values = np.concatenate([LOADINGS, np.ones(5), [2.0]])
    implied = implied_moments(reference_model_spec(), values)
    assert np.array_equal(implied.sigma, implied.sigma.T)


def test_implied_moments_rejects_wrong_length():
    with pytest.raises(SmmError, match="DIMENSION_MISMATCH"):
        implied_moments(reference_model_spec(), np.ones(4))


def test_implied_moments_rejects_nonpositive_variance():
    values = np.concatenate([LOADINGS, [1, 1, -0.5, 1, 1], [10.0]])
    with pytest.raises(SmmError, match="NONPOSITIVE_UNIQUE_VARIANCE"):
        implied_moments(reference_model_spec(), values)


def test_discrepancy_zero_at_saturation():
    sample = population_sample("model1")
    values = np.concatenate([LOADINGS, np.ones(5), [10.0]])
    implied = implied_moments(reference_model_spec(), values)
    assert ml_discrepancy(sample, implied) == 0.0


def test_discrepancy_mean_term_hand_case():
    # p = 1, matched variances, mean off by 2: F = (xbar - mu)^2 / sigma^2 = 4
    sample = SampleMoments(n=10, mean=np.array([2.0]), cov=np.array([[1.0]]))
    implied = implied_moments(scalar_spec(variance=1.0, mean=0.0), np.empty(0))
    assert ml_discrepancy(sample, implied) == pytest.approx(4.0, abs=1e-12)


def test_discrepancy_covariance_term_hand_case():
    # p = 1, matched means, S = 2 against sigma = 1: F = ln 1 - ln 2 + 2 - 1
    sample = SampleMoments(n=10, mean=np.array([0.0]), cov=np.array([[2.0]]))
    implied = implied_moments(scalar_spec(variance=1.0, mean=0.0), np.empty(0))
    assert ml_discrepancy(sample, implied) == pytest.approx(1.0 - np.log(2.0), abs=1e-12)


def test_discrepancy_nonnegative_at_random_points():
    sample = drawn_sample("model2", 150, 11)
    generator = np.random.default_rng(0)
    for _ in range(25):
        lam = generator.uniform(-1, 1, 5)
        psi2 = generator.uniform(0.3, 3.0, 5)
        theta = generator.uniform(-5, 15)
        implied = implied_moments(
            reference_model_spec(), np.concatenate([lam, psi2, [theta]])
        )
        assert ml_discrepancy(sample, implied) >= 0.0


def test_discrepancy_resolves_near_an_exact_fit():
    # S = Sigma + diag(delta): F = sum(delta - log1p(delta)), about 2.75e-17,
    # far below the rounding of ln|Sigma| - ln|S| + tr(S W) - p
    delta = 1e-9 * np.arange(1.0, 6.0)
    sample = SampleMoments(n=10, mean=np.zeros(5), cov=np.diag(1.0 + delta))
    f = ml_discrepancy(sample, ImpliedMoments(sigma=np.eye(5), mu_model=np.zeros(5)))
    assert f == pytest.approx(np.sum(delta - np.log1p(delta)), rel=1e-6, abs=0)


def test_discrepancy_dimension_mismatch():
    sample = SampleMoments(n=10, mean=np.zeros(2), cov=np.eye(2))
    implied = implied_moments(scalar_spec(), np.empty(0))
    with pytest.raises(SmmError, match="DIMENSION_MISMATCH"):
        ml_discrepancy(sample, implied)


def pair_of(sample):
    """A block of two copies of sample."""
    return SampleMoments(n=sample.n, mean=np.array([sample.mean] * 2), cov=np.array([sample.cov] * 2))


TRUTH = np.concatenate([LOADINGS, np.ones(5), [10.0]])
IDENTITY_MODEL = ImpliedMoments(sigma=np.eye(5), mu_model=np.zeros(5))

ONE_SAMPLE_MISMATCHES = {
    # a mean of the wrong length broadcast to F = 126.10, or raised numpy's ValueError
    "discrepancy_mu_of_1": lambda s: ml_discrepancy(s, replace(IDENTITY_MODEL, mu_model=np.zeros(1))),
    "discrepancy_mu_of_3": lambda s: ml_discrepancy(s, replace(IDENTITY_MODEL, mu_model=np.zeros(3))),
    "discrepancy_of_a_block": lambda s: ml_discrepancy(pair_of(s), IDENTITY_MODEL),
    # a sample of the wrong p gave an 11-vector, or raised numpy's ValueError
    "gradient_p1": lambda s: numeric_gradient(
        reference_model_spec(), TRUTH, SampleMoments(n=100, mean=np.zeros(1), cov=2 * np.eye(1))
    ),
    "gradient_p3": lambda s: numeric_gradient(
        reference_model_spec(), TRUTH, SampleMoments(n=100, mean=np.zeros(3), cov=2 * np.eye(3))
    ),
    "gradient_of_a_block": lambda s: numeric_gradient(reference_model_spec(), TRUTH, pair_of(s)),
}


@pytest.mark.parametrize("case", sorted(ONE_SAMPLE_MISMATCHES))
def test_one_sample_functions_reject_a_sample_the_model_does_not_fit(case):
    with pytest.raises(SmmError, match="DIMENSION_MISMATCH"):
        ONE_SAMPLE_MISMATCHES[case](population_sample("model1"))


def test_transform_round_trip():
    ws = _workspace(reference_model_spec())
    values = np.concatenate([LOADINGS, [0.5, 1.0, 1.5, 2.0, 2.5], [10.0]])
    z = ws.to_unconstrained(values)
    # unique variances travel on the log scale
    np.testing.assert_allclose(z[5:10], np.log(values[5:10]))
    np.testing.assert_allclose(z[:5], values[:5])
    np.testing.assert_allclose(ws.to_raw(z), values, rtol=1e-15)


def test_transform_rejects_nonpositive_variance():
    # the public entry points take raw points and check them one way
    values = np.concatenate([LOADINGS, [1, 1, 0, 1, 1], [10.0]])
    with pytest.raises(SmmError, match="NONPOSITIVE_UNIQUE_VARIANCE"):
        implied_moments(reference_model_spec(), values)
    with pytest.raises(SmmError, match="NONPOSITIVE_UNIQUE_VARIANCE"):
        numeric_gradient(reference_model_spec(), values, population_sample("model1"))


def two_factor_spec():
    """Two correlated factors, three indicators each, anchored on x1 and x4.

    Free cells in every block: loadings, the full factor covariance
    (diagonal and off-diagonal), unique variances, intercepts and factor
    means.
    """
    def row(k, anchor):
        lam = [fixed(0.0), fixed(0.0)]
        lam[k] = fixed(1.0) if anchor else free()
        return tuple(lam)

    return ModelSpec(
        loadings=tuple(row(k, i == 0) for k in (0, 1) for i in range(3)),
        intercepts=tuple(fixed(0.0) if i in (0, 3) else free() for i in range(6)),
        factor_means=(free(), free()),
        factor_cov=((free(), free()), (free(), free())),
        unique_variances=tuple(free() for _ in range(6)),
    )


def two_factor_sample():
    lam = np.array([[1.0, 0], [0.8, 0], [0.6, 0], [0, 1.0], [0, 0.7], [0, 0.9]])
    pop = structured(
        lam,
        np.array([[1.0, 0.4], [0.4, 1.5]]),
        np.full(6, 0.6),
        nu=np.array([0.0, 1.0, -1.0, 0.0, 2.0, 0.5]),
        theta=np.array([3.0, -2.0]),
    )
    return compute_moments(draw_sample(pop, 300, Seed(17)))


def random_point(spec, generator):
    """Raw free values with positive unique variances and a positive definite phi."""
    draw = {
        "lambda": lambda e: generator.uniform(-0.8, 0.8),
        "phi": lambda e: (
            generator.uniform(0.5, 2.0) if e.row == e.col else generator.uniform(-0.3, 0.3)
        ),
        "psi2": lambda e: generator.uniform(0.4, 2.5),
        "nu": lambda e: generator.uniform(-2.0, 2.0),
        "theta": lambda e: generator.uniform(5.0, 15.0),
    }
    return np.array([draw[e.matrix](e) for e in ParameterIndex(spec).entries])


GRADIENT_CASES = {
    "model2": lambda: (reference_model_spec(), drawn_sample("model2", 300, 21)),
    "anchored_free_intercepts": lambda: (
        fix_intercept_variant(reference_model_spec(), 2),
        drawn_sample("model2", 300, 22),
    ),
    "two_factor_free_phi": lambda: (two_factor_spec(), two_factor_sample()),
}


def central_differences(spec, sample, raw, relative_step):
    """Half-step central differences of ml_discrepancy in unconstrained coordinates.

    The unique variances of the raw point are differenced as logs, as the
    optimizer sees them.
    """
    logs = np.array([e.matrix == "psi2" for e in ParameterIndex(spec).entries])
    z = np.array(raw, dtype=float)
    z[logs] = np.log(z[logs])

    def objective(z):
        values = z.copy()
        values[logs] = np.exp(values[logs])
        return ml_discrepancy(sample, implied_moments(spec, values))

    fd = np.empty_like(z)
    for i in range(z.size):
        step = relative_step * max(1.0, abs(z[i]))
        up, down = z.copy(), z.copy()
        up[i] += 0.5 * step
        down[i] -= 0.5 * step
        fd[i] = (objective(up) - objective(down)) / step
    return fd


@pytest.mark.parametrize("case", sorted(GRADIENT_CASES))
def test_gradient_matches_independent_differences(case):
    # the same half-step differences and 1e-4 bound as acceptance item 8
    spec, sample = GRADIENT_CASES[case]()
    generator = np.random.default_rng(99)
    worst = 0.0
    for _ in range(25):
        raw = random_point(spec, generator)
        analytic = numeric_gradient(spec, raw, sample)
        fd = central_differences(spec, sample, raw, 1e-5)
        rel = np.max(np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-3))
        worst = max(worst, float(rel))
    assert worst <= 1e-4


@pytest.mark.parametrize("case", sorted(GRADIENT_CASES))
def test_gradient_matches_differences_near_an_exact_fit(case):
    # moments 1e-6 off an exact fit: the gradient is about 1e-6, and steps
    # of 1e-7 keep truncation small, so the differences resolve it only
    # where F itself does (measured 4e-9 relative; F with ln|S| gave 2.6e-4)
    spec, _ = GRADIENT_CASES[case]()
    generator = np.random.default_rng(5)
    for _ in range(3):
        raw = random_point(spec, generator)
        implied = implied_moments(spec, raw)
        k = np.arange(1.0, spec.p + 1.0)
        sample = SampleMoments(
            n=500, mean=implied.mu_model + 1e-6 * k, cov=implied.sigma + 1e-6 * np.diag(k)
        )
        analytic = numeric_gradient(spec, raw, sample)
        fd = central_differences(spec, sample, raw, 1e-7)
        assert np.max(np.abs(analytic - fd)) <= 1e-6 * np.max(np.abs(analytic))


FISHER_CASES = {
    "model1": reference_model_spec,
    "anchored_free_intercepts": lambda: fix_intercept_variant(reference_model_spec(), 2),
    "two_factor_free_phi": two_factor_spec,
}


def concentrated_gradient(ws, z, sample):
    """Gradient of the concentrated F over the covariance parameters z, as fit sees it."""
    f, g, _ = _evaluate(ws, z[None], sample.cov[None], sample.mean[None])
    assert np.isfinite(f[0])
    return g[0]


@pytest.mark.parametrize("case", sorted(FISHER_CASES))
def test_concentrated_information_is_the_hessian_of_the_concentrated_f(case):
    # at an exact fit the Schur complement of the joint information on its
    # mean block is the Hessian of F with the mean parameters concentrated
    # out; the Hessian here is a central difference of its exact gradient
    spec = FISHER_CASES[case]()
    ws = _workspace(spec)
    generator = np.random.default_rng(7)
    for _ in range(3):
        raw = random_point(spec, generator)
        implied = implied_moments(spec, raw)
        sample = SampleMoments(n=500, mean=implied.mu_model, cov=implied.sigma)
        z = ws.to_unconstrained(raw)[: ws.tc]
        hessian = np.empty((z.size, z.size))
        for i in range(z.size):
            step = 1e-5 * max(1.0, abs(z[i]))
            up, down = z.copy(), z.copy()
            up[i] += step
            down[i] -= step
            hessian[:, i] = (
                concentrated_gradient(ws, up, sample) - concentrated_gradient(ws, down, sample)
            ) / (2.0 * step)
        reduced = ws.concentrated_information(raw)
        assert reduced.shape == (ws.tc, ws.tc)
        assert np.max(np.abs(reduced - hessian)) <= 1e-6 * np.max(np.abs(reduced))


@pytest.mark.parametrize("spec_of", [lambda: anchored_model_spec(0), two_factor_spec])
def test_saturated_mean_structure_leaves_no_whitened_mean_residual(spec_of):
    # p free intercepts and factor means: the GLS step fits every mean, so
    # U d = L^-1 (xbar - mu) vanishes at any covariance point
    spec = spec_of()
    ws = _workspace(spec)
    sample = two_factor_sample() if spec.q == 2 else drawn_sample("model2", 300, 23)
    generator = np.random.default_rng(3)
    for _ in range(10):
        z = ws.to_unconstrained(random_point(spec, generator))[: ws.tc]
        f, _, values = _evaluate(ws, z[None], sample.cov[None], sample.mean[None])
        assert np.isfinite(f[0])
        implied = implied_moments(spec, values[0])
        ud = np.linalg.solve(np.linalg.cholesky(implied.sigma), sample.mean - implied.mu_model)
        assert np.max(np.abs(ud)) <= 1e-12


@pytest.mark.parametrize("own, value", [("theta[F1]", 7.0), ("nu[x3]", 2.0)])
def test_own_mean_start_leaves_the_fit_unchanged(own, value):
    # anchored on x1: the intercepts of x2..x5 and the factor mean are free,
    # and every evaluation sets them to their GLS optimum, so their starts
    # are never read
    spec = anchored_model_spec(0)
    if own == "theta[F1]":
        started = replace(spec, factor_means=(free(value),))
    else:
        started = replace(spec, intercepts=spec.intercepts[:2] + (free(value),) + spec.intercepts[3:])
    index = ParameterIndex(started)
    assert index.start[index.labels().index(own)] == value
    sample = drawn_sample("model2", 300, 23)
    assert fingerprint(fit(started, sample)) == fingerprint(fit(spec, sample))


def test_singular_mean_design_rejects_its_row_only():
    # with every loading zero the factor mean does not move mu: the normal
    # equations are singular and that row's evaluation is rejected
    spec, samples, _, _ = bundled_replications("table1_model1_n900", range(2))
    ws = _workspace(spec)
    z = np.tile(ws.to_unconstrained(np.concatenate([LOADINGS, np.ones(5), [0.0]]))[: ws.tc], (2, 1))
    z[1, :5] = 0.0
    covs, means = samples.cov, samples.mean
    with np.errstate(invalid="ignore"):
        f, _, _ = _evaluate(ws, z, covs, means)
    assert f[1] == np.inf
    assert f[0] == _evaluate(ws, z[:1], covs[:1], means[:1])[0][0]


def test_numeric_gradient_near_zero_at_truth():
    sample = population_sample("model1")
    truth = np.concatenate([LOADINGS, np.ones(5), [10.0]])
    grad = numeric_gradient(reference_model_spec(), truth, sample)
    assert np.max(np.abs(grad)) < 1e-6


def test_numeric_gradient_is_the_joint_gradient():
    # fit steps on the concentrated gradient, which reads the covariance
    # parameters only: numeric_gradient's covariance block equals it where
    # the factor mean is at its GLS optimum, as at a fitted point, and not
    # elsewhere
    spec, sample = reference_model_spec(), drawn_sample("model2", 300, 4)
    ws, values = _workspace(spec), fit(spec, sample).free_values.copy()
    z = ws.to_unconstrained(values[None, : ws.tc])
    concentrated = _evaluate(ws, z, sample.cov[None], sample.mean[None])[1][0]
    np.testing.assert_allclose(numeric_gradient(spec, values, sample)[: ws.tc], concentrated, atol=1e-12)
    values[-1] += 0.5
    assert np.abs(concentrated).max() < 1e-6
    assert np.abs(numeric_gradient(spec, values, sample)[: ws.tc]).max() > 1.0


def test_fit_recovers_exact_population():
    result = fit(reference_model_spec(), population_sample("model1"))
    assert result.converged
    assert result.f_min < 1e-10
    truth = np.concatenate([LOADINGS, np.ones(5), [10.0]])
    np.testing.assert_allclose(result.free_values, truth, atol=1e-6)
    assert result.df == 9
    assert result.chi_square == pytest.approx(900 * result.f_min)


def test_fit_pseudo_true_values_for_reversed_means():
    # frozen values computed from the population minimum of the discrepancy
    result = fit(reference_model_spec(), population_sample("model2"))
    assert result.converged
    assert result.f_min == pytest.approx(0.131172, abs=5e-6)
    np.testing.assert_allclose(
        result.free_values[:5], [0.5632, 0.4830, 0.4028, 0.3228, 0.2427], atol=5e-4
    )
    assert result.free_values[10] == pytest.approx(12.4176, abs=1e-3)


def test_fit_never_worse_than_start():
    spec = reference_model_spec()
    sample = drawn_sample("model2", 150, 31)
    start = np.concatenate([np.full(5, 0.5), np.full(5, 0.5), [0.0]])
    f_start = ml_discrepancy(sample, implied_moments(spec, start))
    result = fit(spec, sample)
    assert result.f_min <= f_start
    assert result.f_min >= 0.0


def test_fit_result_is_self_consistent():
    sample = drawn_sample("model1", 300, 41)
    result = fit(reference_model_spec(), sample)
    assert result.converged
    assert len(result.labels) == len(result.free_values) == 11
    assert result.n == 300
    implied = implied_moments(reference_model_spec(), result.free_values)
    assert ml_discrepancy(sample, implied) == pytest.approx(result.f_min, abs=1e-12)
    assert result.grad_inf_norm <= 1e-6


def test_fit_sign_convention_flips_negative_solution():
    sample = drawn_sample("model1", 300, 51)
    spec = one_factor_spec(5, loading_starts=[-0.5] * 5)
    result = fit(spec, sample)
    assert result.converged
    assert np.sum(result.estimates.loadings) > 0
    assert result.estimates.factor_means[0] == pytest.approx(10, abs=1.0)


def test_fit_saturated_mean_structure_reproduces_xbar():
    sample = drawn_sample("model2", 300, 61)
    result = fit(anchored_model_spec(0), sample)
    assert result.converged
    implied = implied_moments(anchored_model_spec(0), result.free_values)
    np.testing.assert_allclose(implied.mu_model, sample.mean, atol=1e-6)


def test_fit_anchor_choice_does_not_move_f_min():
    for seed in range(71, 76):
        sample = drawn_sample("model2", 300, seed)
        f_by_anchor = [fit(anchored_model_spec(a), sample).f_min for a in (0, 4)]
        assert f_by_anchor[0] == pytest.approx(f_by_anchor[1], abs=1e-10)


def started_at(spec, estimates):
    """Copy of spec whose free cells start at the given estimates."""
    def put(cell, value):
        return free(float(value)) if cell.is_free else cell

    def grid(cells, values):
        return tuple(tuple(put(c, v) for c, v in zip(row, vals)) for row, vals in zip(cells, values))

    return replace(
        spec,
        loadings=grid(spec.loadings, estimates.loadings),
        factor_cov=grid(spec.factor_cov, estimates.factor_cov),
        intercepts=tuple(map(put, spec.intercepts, estimates.intercepts)),
        factor_means=tuple(map(put, spec.factor_means, estimates.factor_means)),
        unique_variances=tuple(map(put, spec.unique_variances, estimates.unique_variances)),
    )


# every free cell of a started_at spec has a start of its own, so no
# start is taken from the sample
@pytest.mark.parametrize(
    "spec", [reference_model_spec(), anchored_model_spec(0)], ids=["model2", "anchored"]
)
def test_fit_started_at_its_optimum_stops_at_once(spec):
    sample = drawn_sample("model2", 300, 65)
    first = fit(spec, sample)
    again = fit(started_at(spec, first.estimates), sample)
    assert again.converged
    assert again.iterations <= 2
    assert again.retries_used == 0
    assert again.f_min == pytest.approx(first.f_min, abs=1e-12)


SCALING_CASES = {
    "model1": (reference_model_spec(), "model1"),
    "model2": (reference_model_spec(), "model2"),
    "anchored": (anchored_model_spec(0), "model2"),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(deadline=None, max_examples=60)
@given(
    case=st.sampled_from(sorted(SCALING_CASES)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    log_scale=st.lists(st.floats(min_value=-1.5, max_value=1.5), min_size=5, max_size=5),
)
# samples whose rescaled fit failed from fixed (unscaled) default starts
@example(case="model1", seed=1936844259, log_scale=[-0.53, -1.22, 1.31, -0.4, -0.97])
@example(case="model2", seed=3371899655, log_scale=[1.44, 1.04, -0.21, -0.92, 0.11])
@example(case="anchored", seed=2123010491, log_scale=[-1.44, 0.17, -0.03, 0.29, 0.69])
def test_rescaling_variables_rescales_the_estimates(case, seed, log_scale):
    # x_j -> c_j x_j maps lambda_j -> c_j lambda_j, psi2_j -> c_j^2 psi2_j and
    # nu_j -> c_j nu_j, and leaves F unchanged
    spec, population = SCALING_CASES[case]
    sample = drawn_sample(population, 300, seed)
    c = np.exp(log_scale)
    scaled = SampleMoments(n=sample.n, mean=c * sample.mean, cov=sample.cov * np.outer(c, c))
    base, moved = fit(spec, sample), fit(spec, scaled)
    assert base.converged and moved.converged
    assert moved.f_min == pytest.approx(base.f_min, abs=1e-10)
    expected = (
        (moved.estimates.loadings, c[:, None] * base.estimates.loadings),
        (moved.estimates.unique_variances, c**2 * base.estimates.unique_variances),
        (moved.estimates.intercepts, c * base.estimates.intercepts),
        (moved.estimates.factor_means, base.estimates.factor_means),
    )
    for got, want in expected:
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(deadline=None, max_examples=60)
@given(
    population=st.sampled_from(["model1", "model2"]),
    anchor=st.sampled_from([None, 0, 1, 2, 3, 4]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    order=st.permutations(range(5)),
)
def test_permuting_variables_permutes_the_estimates(population, anchor, seed, order):
    # x -> x[order] reorders the rows of lambda, psi2 and nu and leaves F
    # and the factor mean unchanged; an anchored intercept moves with its
    # variable, to position argsort(order)[anchor]
    order = np.array(order)
    sample = drawn_sample(population, 300, seed)
    permuted = SampleMoments(
        n=sample.n, mean=sample.mean[order], cov=sample.cov[np.ix_(order, order)]
    )
    if anchor is None:
        spec = moved_spec = reference_model_spec()
    else:
        spec = anchored_model_spec(anchor)
        moved_spec = anchored_model_spec(int(np.argsort(order)[anchor]))
    base, moved = fit(spec, sample), fit(moved_spec, permuted)
    assert base.converged and moved.converged
    assert moved.f_min == pytest.approx(base.f_min, abs=1e-10)
    expected = (
        (moved.estimates.loadings, base.estimates.loadings[order]),
        (moved.estimates.unique_variances, base.estimates.unique_variances[order]),
        (moved.estimates.intercepts, base.estimates.intercepts[order]),
        (moved.estimates.factor_means, base.estimates.factor_means),
    )
    for got, want in expected:
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_rejects_overflowing_trials_quietly():
    # a lone fit runs under np.errstate: no floating-point warning escapes
    # it (replication 84 of the bundled table1_model2_n300 study; its trials
    # stay finite, and test_evaluate_gives_an_overflowing_row_inf_in_its_own_row
    # reaches the overflow on purpose)
    config = serialize.study_from_dict(serialize.load_json(study_path("table1_model2_n300")))
    rep_seed = rng.derive_seed(config.seed.master, 0, 84)
    sample = compute_moments(draw_sample(config.population, 300, Seed(rep_seed)))
    assert fit(config.spec, sample).converged


def bundled_replications(name, reps, master=None):
    """Spec, block of samples, options and per-replication jitter seeds of a bundled study, as run_study makes them.

    master replaces the study's recorded seed where given.
    """
    config = serialize.study_from_dict(serialize.load_json(study_path(name)))
    master = config.seed.master if master is None else master
    rep_seeds = [rng.derive_seed(master, 0, rep) for rep in reps]
    samples = draw_moments(config.population, config.sample_sizes[0], [Seed(rep_seed) for rep_seed in rep_seeds])
    seeds = [rng.derive_seed(rep_seed, rng.STREAM_JITTER) for rep_seed in rep_seeds]
    return config.spec, samples, config.fit_options, seeds


def take(block, rows):
    """The samples of a block at rows: one sample for an int, a block for a list or slice."""
    return SampleMoments(n=block.n, mean=block.mean[rows], cov=block.cov[rows])


def rows_of(samples):
    """The samples of a block (or the one sample), one SampleMoments each."""
    p = samples.p
    means, covs = samples.mean.reshape(-1, p), samples.cov.reshape(-1, p, p)
    return [SampleMoments(n=samples.n, mean=mean, cov=cov) for mean, cov in zip(means, covs)]


def block_of(samples):
    """One block of samples of one size."""
    (n,) = {sample.n for sample in samples}
    return SampleMoments(n=n, mean=np.array([s.mean for s in samples]), cov=np.array([s.cov for s in samples]))


def fingerprint(result):
    return (
        result.f_min,
        result.free_values.tobytes(),
        result.iterations,
        result.retries_used,
        result.converged,
    )


def assert_rows_fit_alone_alike(spec, samples, options, seeds, batch):
    for sample, seed, row in zip(rows_of(samples), seeds, batch, strict=True):
        assert fingerprint(row) == fingerprint(fit(spec, sample, replace(options, seed=seed)))


@pytest.mark.parametrize("name", bundled_studies())
def test_fit_many_matches_fit_bit_for_bit(name):
    spec, samples, options, seeds = bundled_replications(name, range(40))
    batch = fit_many(spec, samples, options, seeds)
    assert len(batch) == 40
    assert_rows_fit_alone_alike(spec, samples, options, seeds, batch)


@pytest.mark.parametrize("name", bundled_studies())
def test_converged_fits_have_a_small_joint_gradient(name):
    # the public gradient covers every free parameter, the concentrated
    # intercepts and factor means included, and must support converged
    spec, samples, options, seeds = bundled_replications(name, range(40))
    for sample, row in zip(rows_of(samples), fit_many(spec, samples, options, seeds), strict=True):
        assert row.converged
        joint = np.max(np.abs(numeric_gradient(spec, row.free_values, sample)))
        assert joint <= options.gradient_tolerance
        # the mean block vanishes at the GLS optimum, so the largest joint
        # component is the one fit reports, up to rounding (measured 1.7e-13)
        assert abs(joint - row.grad_inf_norm) <= 1e-11


def test_concentrated_fit_of_anchor_x1_takes_few_iterations():
    # walking lambda[x1] and theta jointly took a median of 40 iterations
    spec, samples, options, seeds = bundled_replications("anchor_x1_model2_n900", range(40))
    iterations = [row.iterations for row in fit_many(spec, samples, options, seeds)]
    assert np.median(iterations) <= 15


@pytest.mark.parametrize("name, most", [("table1_model1_n900", 6), ("table1_model2_n150", 10)])
def test_start_along_the_means_takes_few_iterations(name, most):
    # from loadings of half a standard deviation the median fit took 13 and
    # 19 iterations, most of them turning the loadings toward the means
    spec, samples, options, seeds = bundled_replications(name, range(40))
    iterations = [row.iterations for row in fit_many(spec, samples, options, seeds)]
    assert np.median(iterations) <= most


def default_starts(ws, sample):
    """The covariance starts without the rule along the means: half a standard deviation, half a variance."""
    v0 = ws.index.start.copy()
    variances = np.diag(sample.cov)
    v0[ws.default_lambda] = 0.5 * np.sqrt(variances[ws.rows[ws.default_lambda]])
    v0[ws.default_psi2] = 0.5 * variances[ws.rows[ws.default_psi2]]
    return v0[: ws.tc]


@pytest.mark.parametrize("population", ["model1", "model2"])
@pytest.mark.parametrize("seed", range(4))
def test_start_along_the_means_follows_rescaled_and_permuted_variables(population, seed):
    assert_start_follows_rescaled_and_permuted_variables(reference_model_spec(), drawn_sample(population, 150, seed), seed)


def assert_start_follows_rescaled_and_permuted_variables(spec, sample, seed):
    ws = _workspace(spec)
    start = _start_values(ws, sample.cov, sample.mean)
    assert not np.allclose(start, default_starts(ws, sample))
    lam, psi2 = start[:5], start[5:]
    generator = np.random.default_rng(seed)
    c, order = np.exp(generator.uniform(-1.5, 1.5, 5)), generator.permutation(5)
    scaled = SampleMoments(n=sample.n, mean=c * sample.mean, cov=sample.cov * np.outer(c, c))
    np.testing.assert_allclose(
        _start_values(ws, scaled.cov, scaled.mean), np.r_[c * lam, c**2 * psi2], rtol=1e-12
    )
    permuted = SampleMoments(
        n=sample.n, mean=sample.mean[order], cov=sample.cov[np.ix_(order, order)]
    )
    np.testing.assert_allclose(
        _start_values(ws, permuted.cov, permuted.mean), np.r_[lam[order], psi2[order]], rtol=1e-12
    )


def test_start_along_the_means_scales_with_the_factor_variance():
    # the sample sees lambda phi lambda': fixing phi at 4 halves the loadings
    spec = reference_model_spec()
    wide = replace(spec, factor_cov=((fixed(4.0),),))
    sample = drawn_sample("model1", 300, 5)
    start = _start_values(_workspace(spec), sample.cov, sample.mean)
    np.testing.assert_allclose(
        _start_values(_workspace(wide), sample.cov, sample.mean), np.r_[start[:5] / 2, start[5:]], rtol=1e-12
    )


def test_start_along_the_means_leaves_each_unique_variance_a_tenth():
    # x5 is nearly the factor itself: its variance less the loading's share
    # leaves 2%, 6% and -0.3% of it on these samples
    lam = np.array([[0.3], [0.4], [0.5], [0.6], [5.0]])
    population = structured(lam, np.eye(1), np.ones(5), nu=np.zeros(5), theta=np.array([10.0]))
    ws = _workspace(reference_model_spec())
    for sample in rows_of(samples_of(population)):
        variances = np.diag(sample.cov)
        psi2 = _start_values(ws, sample.cov, sample.mean)[5:]
        assert np.all(psi2 >= 0.1 * variances)
        assert psi2[4] == 0.1 * variances[4]


def samples_of(population, n=300, seeds=range(3)):
    return draw_moments(population, n, [Seed(seed) for seed in seeds])


def reference_loadings_with_means(means):
    """The reference loadings, unit variances and an explicit mean vector."""
    return explicit(np.array(REFERENCE_LOADINGS)[:, None], np.eye(1), np.ones(5), np.array(means, dtype=float))


def runaway_replications():
    """Spec, 4 samples at n = 150, options and jitter seeds of fits that run away toward a huge factor mean.

    The means' signs disagree with the covariances, so the loadings shrink
    toward 0 and the factor mean grows: mean designs go singular and the
    concentrated information fails on the way.
    """
    population = reference_loadings_with_means([3, -2, 1, 4, -5])
    samples = draw_moments(population, 150, [Seed(rng.derive_seed(77, 150, r)) for r in range(4)])
    seeds = [rng.derive_seed(77, 150, r, rng.STREAM_JITTER) for r in range(4)]
    return reference_model_spec(), samples, FitOptions(max_iterations=60, max_restarts=1), seeds


DEFAULT_START_CASES = {
    "own_loading_starts": lambda: (
        one_factor_spec(5, loading_starts=LOADINGS),
        samples_of(reference_population("model2")),
    ),
    "one_loading_without_a_start": lambda: (
        one_factor_spec(5, loading_starts=[None, 0.4, 0.5, 0.6, 0.7]),
        samples_of(reference_population("model2")),
    ),
    "two_factors": lambda: (two_factor_spec(), two_factor_sample()),
    # means whose signs disagree with the positive correlations lead R + m m',
    # and the fit of the correlations along that direction gives c^2 < 0
    "signs_against_the_covariances": lambda: (
        reference_model_spec(),
        samples_of(reference_loadings_with_means([3, -2, 1, 4, -5])),
    ),
}


@pytest.mark.parametrize("case", sorted(DEFAULT_START_CASES))
def test_start_outside_the_rule_keeps_the_default_starts(case):
    spec, samples = DEFAULT_START_CASES[case]()
    ws = _workspace(spec)
    for sample in rows_of(samples):
        assert _start_values(ws, sample.cov, sample.mean).tobytes() == default_starts(ws, sample).tobytes()


def test_own_starts_win_over_the_start_along_the_means():
    spec = one_factor_spec(5, loading_starts=[0.9, None, None, None, 0.2])
    spec = replace(spec, unique_variances=(free(), free(0.7), free(), free(), free()))
    ws = _workspace(spec)
    sample = drawn_sample("model2", 300, 3)
    start = dict(zip(ws.labels, _start_values(ws, sample.cov, sample.mean)))
    default = dict(zip(ws.labels, default_starts(ws, sample)))
    assert (start["lambda[x1,F1]"], start["lambda[x5,F1]"], start["psi2[x2]"]) == (0.9, 0.2, 0.7)
    for label in ("lambda[x2,F1]", "lambda[x3,F1]", "lambda[x4,F1]", "psi2[x3]"):
        assert start[label] != default[label]


@pytest.mark.parametrize("n", [150, 900])
def test_start_along_uninformative_means_reaches_the_same_minimum(n):
    # means equal to the fixed intercepts carry no direction, and the rule
    # becomes a principal-axis start; a spec whose loadings start where the
    # default rule puts them gives the minimum to compare with
    spec = reference_model_spec()
    ws = _workspace(spec)
    samples = samples_of(reference_loadings_with_means(np.zeros(5)), n, range(50))
    for sample, row in zip(rows_of(samples), fit_many(spec, samples, FitOptions(), [0] * 50), strict=True):
        assert not np.allclose(_start_values(ws, sample.cov, sample.mean), default_starts(ws, sample))
        default = fit(one_factor_spec(5, loading_starts=0.5 * np.sqrt(np.diag(sample.cov))), sample)
        assert row.converged and default.converged
        assert row.f_min == pytest.approx(default.f_min, abs=1e-10)


# one-factor specs whose means cannot place the loadings: one fixed
# intercept, a fixed factor mean, or the saturated means of smm diagnose
PRINCIPAL_AXIS_CASES = {
    "anchored_x1": (anchored_model_spec(0), "model2"),
    "anchored_x5": (anchored_model_spec(4), "model2"),
    "fixed_factor_mean": (replace(reference_model_spec(), factor_means=(fixed(10.0),)), "model1"),
    "covariance_only": (_covariance_only_variant(reference_model_spec()), "model1"),
}


def principal_axis_start(sample):
    """Loadings and unique variances of the principal-axis start, one np.linalg.eigh call at a time (phi = 1)."""
    variances = np.diag(sample.cov)
    sd = np.sqrt(variances)
    corr = sample.cov / np.outer(sd, sd)

    def leading(matrix):
        values, vectors = np.linalg.eigh(matrix)
        v = vectors[:, -1]
        return values[-1], -v if v.sum() < 0 else v

    _, v = leading(corr)
    i, j = np.triu_indices(len(sd), 1)
    c2 = corr[i, j] @ (v[i] * v[j]) / np.sum((v[i] * v[j]) ** 2)
    for _ in range(estimator.PRINCIPAL_AXIS_STEPS):
        reduced = corr.copy()
        np.fill_diagonal(reduced, np.minimum(c2 * v**2, 0.995))
        c2, v = leading(reduced)
    lam = np.sqrt(c2) * v * sd
    return np.r_[lam, np.maximum(variances - lam**2, 0.1 * variances)]


@pytest.mark.parametrize("case", sorted(PRINCIPAL_AXIS_CASES))
def test_principal_axis_start_applies(case):
    spec, population = PRINCIPAL_AXIS_CASES[case]
    ws = _workspace(spec)
    for sample in rows_of(samples_of(reference_population(population))):
        start = _start_values(ws, sample.cov, sample.mean)
        assert not np.allclose(start, default_starts(ws, sample))
        np.testing.assert_allclose(start, principal_axis_start(sample), rtol=1e-12)


@pytest.mark.parametrize("name", ["anchor_x1_model2_n900", "anchor_x5_model2_n900"])
def test_principal_axis_start_takes_few_iterations(name):
    # from loadings of half a standard deviation the median fit took 10
    # iterations and the slowest 10 on these samples (9 and 11 over 500)
    spec, samples, options, seeds = bundled_replications(name, range(40))
    iterations = [row.iterations for row in fit_many(spec, samples, options, seeds)]
    assert np.median(iterations) <= 6 and max(iterations) <= 8


@pytest.mark.parametrize("case", ["anchored_x1", "covariance_only"])
@pytest.mark.parametrize("seed", range(4))
def test_principal_axis_start_follows_rescaled_and_permuted_variables(case, seed):
    spec, population = PRINCIPAL_AXIS_CASES[case]
    assert_start_follows_rescaled_and_permuted_variables(spec, drawn_sample(population, 150, seed), seed)


def test_anchors_share_one_principal_axis_start():
    # the start reads the covariances only, and every loading takes part
    # whichever intercept is fixed
    for sample in rows_of(samples_of(reference_population("model2"))):
        x1, x5 = (_start_values(_workspace(anchored_model_spec(k)), sample.cov, sample.mean) for k in (0, 4))
        assert not np.allclose(x1, default_starts(_workspace(anchored_model_spec(0)), sample))
        assert x1.tobytes() == x5.tobytes()


@pytest.mark.parametrize("case", sorted(PRINCIPAL_AXIS_CASES))
@pytest.mark.parametrize("n", [150, 900])
def test_principal_axis_start_reaches_the_same_minimum(case, n):
    # a spec whose loadings start where the default rule puts them gives
    # the minimum to compare with
    spec, population = PRINCIPAL_AXIS_CASES[case]
    ws = _workspace(spec)
    samples = samples_of(reference_population(population), n, range(50))
    for sample, row in zip(rows_of(samples), fit_many(spec, samples, FitOptions(), [0] * 50), strict=True):
        assert not np.allclose(_start_values(ws, sample.cov, sample.mean), default_starts(ws, sample))
        halves = 0.5 * np.sqrt(np.diag(sample.cov))
        default = fit(replace(spec, loadings=tuple((free(start),) for start in halves)), sample)
        assert row.converged and default.converged
        assert row.f_min == pytest.approx(default.f_min, abs=1e-10)


def table1_samples():
    """Covariances (300, 5, 5) and means (300, 5) of the Table 1 populations, 50 per population and sample size."""
    blocks = [
        draw_moments(reference_population(key), n, [Seed(rng.derive_seed(31, n, r)) for r in range(50)])
        for key in ("model1", "model2")
        for n in (150, 300, 900)
    ]
    return np.concatenate([block.cov for block in blocks]), np.concatenate([block.mean for block in blocks])


def test_stacked_linear_algebra_gives_each_slice_its_own_bits():
    # fit_many's promise rests on these: a slice of a stacked call is the
    # lone call on that slice, bit for bit
    covs, means = table1_samples()
    sd = np.sqrt(covs.diagonal(0, 1, 2))
    m = means / sd
    # R + m m', the matrix of the start along the means
    moments = covs / (sd[:, :, None] * sd[:, None, :]) + m[:, :, None] * m[:, None, :]
    for stack in (covs, moments):
        values, vectors = np.linalg.eigh(stack)
        eigvals, lower = np.linalg.eigvalsh(stack), np.linalg.cholesky(stack)
        for k, matrix in enumerate(stack):
            alone = np.linalg.eigh(matrix)
            assert values[k].tobytes() == alone[0].tobytes()
            assert vectors[k].tobytes() == alone[1].tobytes()
            assert eigvals[k].tobytes() == np.linalg.eigvalsh(matrix).tobytes()
            assert lower[k].tobytes() == np.linalg.cholesky(matrix).tobytes()
    # the dot products of the start rule over the pairs i < j, taken from
    # strided slices of the stack as _start_values takes them
    v = vectors[..., -1]
    i, j = np.triu_indices(5, 1)
    vv = v[:, i] * v[:, j]
    fit_dot, norm = _dot(moments[:, i, j], vv), _dot(vv, vv)
    for k in range(len(covs)):
        pairs, products = moments[k][i, j], v[k][i] * v[k][j]
        assert fit_dot[k] == pairs @ products
        assert norm[k] == products @ products


def test_linear_algebra_helpers_fail_only_the_failing_row():
    # the estimator calls np.linalg's gufuncs without its error callback:
    # each row gets the bits np.linalg gives its matrix alone, and a matrix
    # that fails gets NaN in its own row while the others keep their bits.
    # This guards against a numpy that renames or changes those gufuncs.
    generator = np.random.default_rng(13)
    x = generator.normal(size=(40, 6, 6))
    spd = x @ x.swapaxes(1, 2) + 0.1 * np.eye(6)
    rhs = generator.normal(size=(40, 6, 3))
    indefinite, singular, undefined = spd.copy(), spd.copy(), spd.copy()
    indefinite[7] = -spd[7]
    singular[7, 2] = 0.0
    undefined[7, 3, 1] = np.nan
    cases = [
        (_cholesky, np.linalg.cholesky, (spd,), (indefinite,)),
        (_solve, np.linalg.solve, (spd, rhs), (singular, rhs)),
        (_inv, np.linalg.inv, (spd,), (singular,)),
        (_eigvalsh, np.linalg.eigvalsh, (spd,), (undefined,)),
        (lambda a: _eigh(a)[1], lambda a: np.linalg.eigh(a)[1], (spd,), (undefined,)),
    ]
    for helper, lone, args, failing in cases:
        stacked = helper(*args)
        for k in range(40):
            assert stacked[k].tobytes() == lone(*(a[k] for a in args)).tobytes()
        with pytest.raises(np.linalg.LinAlgError):
            lone(*(a[7] for a in failing))
        with np.errstate(invalid="ignore"):
            rows = helper(*failing)
        assert np.isnan(rows[7]).all()
        assert np.delete(rows, 7, axis=0).tobytes() == np.delete(stacked, 7, axis=0).tobytes()


def test_start_values_of_a_batch_are_the_starts_alone():
    covs, means = table1_samples()
    ws = _workspace(reference_model_spec())
    batch = _start_values(ws, covs, means)
    for cov, mean, row in zip(covs, means, batch, strict=True):
        assert row.tobytes() == _start_values(ws, cov, mean).tobytes()


def spy_on_failed_seeds(monkeypatch):
    """Patch fit_many's seeding to record how many rows of each seed come back NaN."""
    failed = []

    def spy(ws, values):
        h = inverse_information(ws, values)
        failed.append(int(np.count_nonzero(np.isnan(h).any(axis=(1, 2)))))
        return h

    inverse_information = estimator._inverse_information
    monkeypatch.setattr(estimator, "_inverse_information", spy)
    return failed


def test_failed_seeds_end_attempts_inside_a_batch(monkeypatch):
    # means whose signs disagree with the covariances: fits run away toward
    # small loadings and a huge factor mean, the concentrated information
    # stops being positive definite there, and a seed that fails ends its
    # attempt, which restarts
    failed = spy_on_failed_seeds(monkeypatch)
    spec, samples, options, seeds = runaway_replications()
    batch = fit_many(spec, samples, options, seeds)
    assert any(failed)
    assert any(row.retries_used for row in batch) and not all(row.converged for row in batch)
    assert_rows_fit_alone_alike(spec, samples, options, seeds, batch)


def independence_bound(sample):
    """F_inf = sum_j ln S_jj - ln|S|: the infimum of F along loadings -> 0 with a runaway factor mean."""
    return np.log(np.diag(sample.cov)).sum() - np.linalg.slogdet(sample.cov)[1]


def test_no_runaway_fit_converges_above_the_independence_bound():
    # on this population the ML fit has no finite optimum: F tends to F_inf
    # as the loadings shrink and the factor mean grows, so a fit that
    # converges above F_inf stops at a false optimum. The first four did,
    # 1.6-2.4 above it, when a failed seed was replaced by a scaled identity;
    # the last three did, 1.17-1.70 above it, when the inverse Hessian was
    # seeded once per attempt and never refreshed (see FISHER_REFRESH)
    population = reference_loadings_with_means([3, -2, 1, 4, -5])
    rep_seeds = [rng.derive_seed(77, 150, r) for r in (6, 13, 20, 27, 92, 159, 189)]
    samples = draw_moments(population, 150, [Seed(rep_seed) for rep_seed in rep_seeds])
    seeds = [rng.derive_seed(rep_seed, rng.STREAM_JITTER) for rep_seed in rep_seeds]
    for sample, row in zip(rows_of(samples), fit_many(reference_model_spec(), samples, FitOptions(), seeds)):
        assert not row.converged or row.f_min <= independence_bound(sample) + 1e-9


@pytest.mark.parametrize(
    "seed, log_scale, restarts",
    [
        (1303831291, [0.96, 1.38, -1.44, -0.93, -0.23], True),
        (1491409384, [0.73, 0.8, -1.18, -1.01, -0.42], False),
    ],
)
def test_user_starts_on_badly_scaled_data_reach_the_default_minimum(seed, log_scale, restarts):
    # starts of 0.5 on every loading and unique variance are far off the
    # scale of these rescaled samples, and an attempt from them can run away
    # (psi2 toward 0, a loading toward 1e22, F near 111): the fit must still
    # reach the minimum the starts scaled to the sample find
    spec = reference_model_spec()
    own = replace(spec, loadings=tuple((free(0.5),) for _ in range(5)),
                  unique_variances=tuple(free(0.5) for _ in range(5)))
    sample = drawn_sample("model2", 300, seed)
    c = np.exp(log_scale)
    scaled = SampleMoments(n=sample.n, mean=c * sample.mean, cov=sample.cov * np.outer(c, c))
    default, started = fit(spec, scaled), fit(own, scaled)
    assert default.converged and started.converged
    assert started.f_min == pytest.approx(default.f_min, abs=1e-10)
    if restarts:
        assert started.retries_used >= 1


@pytest.mark.parametrize("start", [0.0, -1.0])
def test_a_nonpositive_variance_start_of_its_own_is_invalid(start):
    # unique variances are optimized as logs: a start of 0 or below has no
    # unconstrained form, and validate rejects it before any fit
    spec, samples, options, seeds = bundled_replications("table1_model1_n900", range(2))
    spec = replace(spec, unique_variances=(free(start),) + spec.unique_variances[1:])
    assert validate(spec).codes() == ("NONPOSITIVE_VARIANCE_START",)
    with pytest.raises(InvalidModelError, match="NONPOSITIVE_VARIANCE_START"):
        fit_many(spec, samples, options, seeds)


# A plain per-row loop of the algorithm fit_many documents: one sample at a
# time, 1-D numpy, every evaluation through the workspace on a stack of one.
# fit_many steps the same algorithm as masks over arrays of fits, and must
# give each fit these bits.


def reference_evaluation(ws, z, sample):
    """(F, gradient, joint point) at covariance point z, or None where F or the gradient is not finite."""
    f, g, values = _evaluate(ws, z[None], sample.cov[None], sample.mean[None])
    return (float(f[0]), g[0], values[0]) if np.isfinite(f[0]) else None


def reference_seed(ws, point):
    return _inverse_information(ws, point[None])[0]


def reference_line_search(ws, sample, z, f, direction, slope):
    alpha = 1.0
    while True:
        z_trial = z + alpha * direction
        trial = reference_evaluation(ws, z_trial, sample)
        if trial is None:
            alpha *= 0.5
        elif trial[0] < f and trial[0] <= f + ARMIJO * alpha * slope:
            return (z_trial, *trial)
        else:
            alpha *= min(max(-alpha * slope / (2.0 * (trial[0] - f - alpha * slope)), 0.1), 0.5)
        if -alpha * slope <= F_ROUNDING:
            return None


def reference_attempt(ws, z, sample, options):
    """(joint point, F, largest gradient component, iterations, converged), or None without a finite F at z."""
    start = reference_evaluation(ws, z, sample)
    if start is None:
        return None
    f, g, point = start
    iterations, h, seeded = 0, None, -1
    g_inf = np.abs(g).max(initial=0.0)
    while iterations < options.max_iterations:
        if h is None or (iterations % FISHER_REFRESH == 0 and seeded != iterations):
            h, seeded = reference_seed(ws, point), iterations
        direction = -(h @ g)
        slope = g @ direction
        step = None
        if np.isfinite(slope) and slope < 0:
            if -0.5 * slope <= F_ROUNDING and g_inf <= options.gradient_tolerance:
                break
            step = reference_line_search(ws, sample, z, f, direction, slope)
        if step is None:
            if seeded == iterations:
                break
            h = None
            continue
        z_new, f, g_new, point = step
        s, y = z_new - z, g_new - g
        sy = s @ y
        if sy > 0:
            hy = h @ y
            h = h - np.outer(hy, s / sy) - np.outer(s / sy, hy) + ((sy + y @ hy) / sy**2) * np.outer(s, s)
        z, g = z_new, g_new
        g_inf = np.abs(g).max()
        iterations += 1
    return point, f, float(g_inf), iterations, float(g_inf) <= options.gradient_tolerance


def reference_fit(spec, sample, options):
    """The fingerprint of the fit of one sample, or the NotPositiveDefiniteError it ends in."""
    ws = _workspace(spec)
    v0 = _start_values(ws, sample.cov, sample.mean)
    best, attempts = None, 0
    with np.errstate(all="ignore"):
        for attempt in range(options.max_restarts + 1 if ws.tc else 1):
            attempts, v = attempt + 1, v0
            if attempt:
                seed = rng.derive_seed(options.seed, rng.STREAM_JITTER, attempt)
                noise = rng.uniform(seed, (ws.t,), -options.jitter_fraction, options.jitter_fraction)[: ws.tc]
                v = np.where(v0 != 0.0, v0 * (1.0 + noise), noise)
            candidate = reference_attempt(ws, ws.to_unconstrained(v), sample, options)
            if candidate is None:
                continue
            if best is None or (candidate[4], -candidate[1]) > (best[4], -best[1]):
                best = candidate
            if candidate[4]:
                break
    if best is None:
        return NotPositiveDefiniteError(
            "every optimization attempt failed; last error: no finite discrepancy at the start"
        )
    point, f, _, iterations, converged = best
    free_values = ws.index.extract(_sign_convention(ws, ws.index.insert(point)))
    return f, free_values.tobytes(), iterations, attempts - 1, converged


def assert_rows_follow_the_reference(spec, samples, options, seeds, batch):
    for sample, seed, row in zip(rows_of(samples), seeds, batch, strict=True):
        want = reference_fit(spec, sample, replace(options, seed=seed))
        if isinstance(want, SmmError):
            assert (type(row), row.message) == (type(want), want.message)
        else:
            assert fingerprint(row) == want


@pytest.mark.parametrize("name", bundled_studies())
def test_fit_many_follows_the_reference_loop(name):
    spec, samples, options, seeds = bundled_replications(name, range(40))
    assert_rows_follow_the_reference(spec, samples, options, seeds, fit_many(spec, samples, options, seeds))


@pytest.mark.parametrize("name", ["table1_model1_n900", "anchor_x1_model2_n900"])
def test_a_tolerance_below_1e_8_converges(name):
    # an attempt runs on until its step predicts less decrease than F
    # resolves, so a tolerance F can resolve is reached: with attempts that
    # also ended at a gradient of 1e-8, 45 and 39 of these 50 fits converged
    # (62 and 59 restarts), against 50 and 50 (16 and 2)
    spec, samples, options, seeds = bundled_replications(name, range(50), master=1)
    options = replace(options, gradient_tolerance=1e-9)
    assert all(row.converged for row in fit_many(spec, samples, options, seeds))


def test_restarts_give_ups_and_failed_seeds_follow_the_reference_loop(monkeypatch):
    failed = spy_on_failed_seeds(monkeypatch)
    spec, samples, options, seeds = runaway_replications()
    batch = fit_many(spec, samples, options, seeds)
    assert any(failed) and any(row.retries_used for row in batch) and not all(row.converged for row in batch)
    assert_rows_follow_the_reference(spec, samples, options, seeds, batch)


def test_a_runaway_batch_evaluates_once_a_round(monkeypatch):
    # a row whose evaluation fails reads F = inf in its own row, so every
    # round makes one stacked evaluation: the batch makes as many as the
    # slowest of its fits alone
    calls = []

    def spy(*args):
        calls.append(args)
        return evaluate(*args)

    evaluate = estimator._evaluate
    monkeypatch.setattr(estimator, "_evaluate", spy)
    spec, samples, options, seeds = runaway_replications()
    fit_many(spec, samples, options, seeds)
    batch = len(calls)
    alone = []
    for sample, seed in zip(rows_of(samples), seeds):
        calls.clear()
        fit(spec, sample, replace(options, seed=seed))
        alone.append(len(calls))
    assert batch == max(alone)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_many_rejects_an_overflowing_row_quietly():
    # a batch runs under np.errstate: no floating-point warning escapes it,
    # and each row keeps the bits of its lone fit (rows 78-90 of
    # table1_model2_n300, whose trials stay finite; overflow and failing
    # LAPACK calls are reached on purpose in
    # test_evaluate_gives_an_overflowing_row_inf_in_its_own_row and
    # test_a_runaway_batch_evaluates_once_a_round)
    spec, samples, options, seeds = bundled_replications("table1_model2_n300", range(78, 91))
    batch = fit_many(spec, samples, options, seeds)
    assert all(row.converged for row in batch)
    assert_rows_fit_alone_alike(spec, samples, options, seeds, batch)


def test_evaluate_gives_an_overflowing_row_inf_in_its_own_row():
    # exp(710) overflows: psi2 of row 1 is inf, so its Sigma and F are not
    # finite, and the rows around it keep the bits of their lone calls
    spec, samples, _, _ = bundled_replications("table1_model2_n300", range(3))
    ws = _workspace(spec)
    covs, means = samples.cov, samples.mean
    z = ws.to_unconstrained(_start_values(ws, covs, means))
    z[1, ws.log_pos[0]] = 710.0
    with np.errstate(all="ignore"):
        f, g, values = _evaluate(ws, z, covs, means)
        for k in (0, 2):
            alone = _evaluate(ws, z[k : k + 1], covs[k : k + 1], means[k : k + 1])
            assert np.isfinite(alone[0][0])
            assert all(a[k].tobytes() == b[0].tobytes() for a, b in zip((f, g, values), alone))
    assert f[1] == np.inf
    with pytest.warns(RuntimeWarning):
        _evaluate(ws, z[1:2], covs[1:2], means[1:2])


def test_fit_many_returns_the_error_of_a_failing_row():
    spec, samples, options, seeds = bundled_replications("table1_model1_n900", range(4))
    values = draw_sample(reference_population("model1"), 900, Seed(91)).values.copy()
    values[:, 2] = 5.0
    with pytest.warns(UserWarning):
        singular = compute_moments(Dataset(values=values, variable_names=("x1", "x2", "x3", "x4", "x5")))
    rows = rows_of(samples)
    batch = fit_many(spec, block_of(rows[:2] + [singular] + rows[2:]), options, seeds[:2] + [0] + seeds[2:])
    assert isinstance(batch[2], NotPositiveDefiniteError)
    del batch[2]
    assert_rows_fit_alone_alike(spec, samples, options, seeds, batch)


def test_a_sample_whose_start_fails_sinks_only_its_own_fit():
    # a mean of 1e160 leaves R + m m' without a finite eigendecomposition:
    # that row keeps the default starts, and its neighbours their bits
    spec, options = reference_model_spec(), FitOptions()
    samples = draw_moments(reference_population("model2"), 150, [Seed(0), Seed(1), Seed(2)])
    means = samples.mean.copy()
    means[1] *= 1e160
    samples = replace(samples, mean=means)
    seeds = [rng.derive_seed(r, rng.STREAM_JITTER) for r in range(3)]
    batch = fit_many(spec, samples, options, seeds)
    assert isinstance(batch[1], SmmError) or not batch[1].converged
    assert_rows_fit_alone_alike(spec, take(samples, [0, 2]), options, seeds[::2], batch[::2])


def test_fit_many_gives_each_failing_sample_the_error_cholesky_gives_it():
    spec, samples, options, seeds = bundled_replications("table1_model1_n900", range(3))
    good = take(samples, 0)
    asymmetric = good.cov.copy()
    asymmetric[0, 1] += 1e-3
    indefinite = good.cov.copy()
    indefinite[0, 1] = indefinite[1, 0] = 10.0
    bad = [
        SampleMoments(n=good.n, mean=good.mean, cov=asymmetric),
        SampleMoments(n=good.n, mean=good.mean, cov=indefinite),
        SampleMoments(n=good.n, mean=good.mean, cov=np.diag([1.0, 1.0, 1e-13, 1.0, 1.0])),
    ]
    batch = fit_many(spec, block_of(bad + rows_of(samples)), options, [0] * 3 + seeds)
    for sample, row in zip(bad, batch):
        with pytest.raises(SmmError) as alone:
            cholesky(sample.cov)
        assert type(row) is type(alone.value)
        assert (row.code, row.message) == (alone.value.code, alone.value.message)
    codes = ["ASYMMETRIC_MATRIX", "NOT_POSITIVE_DEFINITE", "NOT_POSITIVE_DEFINITE"]
    assert [row.code for row in batch[:3]] == codes
    assert_rows_fit_alone_alike(spec, samples, options, seeds, batch[3:])


def test_fit_many_rejects_a_block_of_the_wrong_p():
    spec, options = reference_model_spec(), FitOptions()
    wrong_size = SampleMoments(n=100, mean=np.zeros((2, 3)), cov=np.array([np.eye(3), 2.0 * np.eye(3)]))
    with pytest.raises(SmmError, match="DIMENSION_MISMATCH"):
        fit_many(spec, wrong_size, options, [0, 1])


def test_fit_many_gives_each_row_of_a_strided_block_its_lone_fit():
    # every other row of a larger block: fit_many steps C-contiguous copies
    # of the rows, so each keeps the bits of its lone fit
    spec, samples, options, seeds = bundled_replications("table1_model2_n150", range(20))
    strided = take(samples, slice(None, None, 2))
    assert not strided.cov.flags.c_contiguous and not strided.mean.flags.c_contiguous
    batch = fit_many(spec, strided, options, seeds[::2])
    assert len(batch) == 10
    assert_rows_fit_alone_alike(spec, strided, options, seeds[::2], batch)


def sign_convention_by_columns(spec, lam, theta, phi):
    """Column by column: flip a column whose sum is negative when every cell it touches is free or zero."""
    lam, theta, phi = lam.copy(), theta.copy(), phi.copy()
    for k in range(spec.q):
        touched = [(spec.loadings[i][k], lam[i, k]) for i in range(spec.p)]
        touched += [(spec.factor_means[k], theta[k])]
        touched += [(spec.factor_cov[k][j], phi[k, j]) for j in range(spec.q) if j != k]
        if lam[:, k].sum() < 0 and all(cell.is_free or value == 0.0 for cell, value in touched):
            lam[:, k], theta[k] = -lam[:, k], -theta[k]
            for j in range(spec.q):
                if j != k:
                    phi[k, j], phi[j, k] = -phi[k, j], -phi[j, k]
    return lam, theta, phi


def test_sign_convention_of_a_stack_flips_each_row_by_its_own_columns():
    # factor 1 has a loading fixed at 1 and never flips; factors 0 and 2 do
    # whenever their loadings sum below zero, together with theta and phi
    loadings = [[free(), fixed(0.0), free()] for _ in range(6)]
    loadings[0][1] = fixed(1.0)
    spec = ModelSpec(
        loadings=tuple(map(tuple, loadings)),
        intercepts=tuple(fixed(0.0) for _ in range(6)),
        factor_means=(free(), free(), fixed(0.0)),
        factor_cov=((free(), free(), fixed(0.0)), (free(), free(), free()), (fixed(0.0), free(), free())),
        unique_variances=tuple(free() for _ in range(6)),
    )
    ws = _workspace(spec)
    mats = ws.index.insert(np.random.default_rng(3).normal(size=(200, ws.t)))
    flipped = _sign_convention(ws, mats)
    assert list(ws.flippable) == [True, False, True]
    for k in range(200):
        want = sign_convention_by_columns(spec, mats.loadings[k], mats.factor_means[k], mats.factor_cov[k])
        got = (flipped.loadings[k], flipped.factor_means[k], flipped.factor_cov[k])
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


def test_estimator_uses_no_einsum():
    # fit_many's rows must get the same bits in any stack; einsum may pick a
    # contraction order by operand shape, so the estimator keeps to matmul
    assert "einsum" not in Path(estimator.__file__).read_text()


def test_fit_many_needs_a_seed_for_every_sample():
    spec, samples, options, seeds = bundled_replications("table1_model1_n900", range(2))
    with pytest.raises(SmmError, match="BAD_INPUT"):
        fit_many(spec, samples, options, seeds[:1])



@pytest.mark.parametrize(
    "field, value",
    [
        ("max_iterations", -5),
        ("max_restarts", -1),
        ("jitter_fraction", -0.1),
        ("jitter_fraction", 1.5),
        ("jitter_fraction", float("nan")),
        ("gradient_tolerance", -1.0),
        ("gradient_tolerance", 0.0),
        ("gradient_tolerance", float("nan")),
        ("gradient_tolerance", float("inf")),
    ],
)
def test_fit_options_reject_values_out_of_range(field, value):
    # max_restarts=-1 used to make no attempt at all, and the others ran
    # every restart before reporting converged=False
    with pytest.raises(SmmError, match="BAD_INPUT") as error:
        FitOptions(**{field: value})
    assert field in error.value.message


def test_fit_options_take_their_bounds():
    FitOptions(jitter_fraction=1.0, gradient_tolerance=1e-300)
    options = FitOptions(max_iterations=0, max_restarts=0, jitter_fraction=0.0)
    result = fit(reference_model_spec(), drawn_sample("model1", 300, 5), options)
    assert (result.iterations, result.retries_used, result.converged) == (0, 0, False)

def test_fit_reports_nonconvergence_instead_of_raising():
    sample = drawn_sample("model2", 150, 81)
    options = FitOptions(max_iterations=1, max_restarts=0, gradient_tolerance=1e-12)
    result = fit(reference_model_spec(), sample, options)
    assert not result.converged
    assert np.isfinite(result.f_min)
    assert result.retries_used == 0


def test_fit_rejects_invalid_spec():
    spec = reference_model_spec()
    bad = ModelSpec(
        loadings=spec.loadings,
        intercepts=tuple(free() for _ in range(5)),
        factor_means=spec.factor_means,
        factor_cov=spec.factor_cov,
        unique_variances=spec.unique_variances,
    )
    sample = population_sample("model1")
    with pytest.raises(InvalidModelError):
        fit(bad, sample)


def test_fit_rejects_wrong_variable_count():
    sample = SampleMoments(n=100, mean=np.zeros(3), cov=np.eye(3))
    with pytest.raises(SmmError, match="DIMENSION_MISMATCH"):
        fit(reference_model_spec(), sample)


def test_fit_rejects_singular_sample_covariance():
    values = draw_sample(reference_population("model1"), 100, Seed(91)).values.copy()
    values[:, 2] = 5.0
    with pytest.warns(UserWarning):
        sample = compute_moments(
            Dataset(values=values, variable_names=("x1", "x2", "x3", "x4", "x5"))
        )
    with pytest.raises(NotPositiveDefiniteError):
        fit(reference_model_spec(), sample)


def test_fully_fixed_spec_fits_without_optimization():
    sample = SampleMoments(n=50, mean=np.array([0.3]), cov=np.array([[1.1]]))
    result = fit(scalar_spec(variance=1.1, mean=0.3), sample)
    assert result.converged
    assert result.iterations == 0
    assert result.f_min == 0.0
    assert result.df == 2


def test_parameter_cell_is_free_flag():
    assert free().is_free
    assert not fixed(1.0).is_free
    assert isinstance(free(), ParameterCell)
