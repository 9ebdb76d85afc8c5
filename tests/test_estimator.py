import numpy as np
import pytest

from smm.errors import SmmError, InvalidModelError, NotPositiveDefiniteError
from smm.estimator import (
    FitOptions,
    fit,
    fit_statistics,
    implied_moments,
    ml_discrepancy,
    numeric_gradient,
    to_raw,
    to_unconstrained,
)
from smm.fixtures import anchored_model_spec, reference_model_spec, reference_population
from smm.model_spec import (
    ModelSpec,
    ParameterCell,
    ParameterIndex,
    fix_intercept_variant,
    fixed,
    free,
    one_factor_spec,
)
from smm.moments import Dataset, SampleMoments, compute_moments
from smm.simulate import Seed, draw_sample, population_moments, structured

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


def test_discrepancy_dimension_mismatch():
    sample = SampleMoments(n=10, mean=np.zeros(2), cov=np.eye(2))
    implied = implied_moments(scalar_spec(), np.empty(0))
    with pytest.raises(SmmError, match="DIMENSION_MISMATCH"):
        ml_discrepancy(sample, implied)


def test_transform_round_trip():
    spec = reference_model_spec()
    values = np.concatenate([LOADINGS, [0.5, 1.0, 1.5, 2.0, 2.5], [10.0]])
    z = to_unconstrained(spec, values)
    # unique variances travel on the log scale
    np.testing.assert_allclose(z[5:10], np.log(values[5:10]))
    np.testing.assert_allclose(z[:5], values[:5])
    np.testing.assert_allclose(to_raw(spec, z), values, rtol=1e-15)


def test_transform_rejects_nonpositive_variance():
    values = np.concatenate([LOADINGS, [1, 1, 0, 1, 1], [10.0]])
    with pytest.raises(SmmError, match="NONPOSITIVE_UNIQUE_VARIANCE"):
        to_unconstrained(reference_model_spec(), values)


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


@pytest.mark.parametrize("case", sorted(GRADIENT_CASES))
def test_gradient_matches_independent_differences(case):
    # the same half-step differences and 1e-4 bound as acceptance item 8
    spec, sample = GRADIENT_CASES[case]()
    generator = np.random.default_rng(99)

    def objective(z):
        return ml_discrepancy(sample, implied_moments(spec, to_raw(spec, z)))

    worst = 0.0
    for _ in range(25):
        raw = random_point(spec, generator)
        analytic = numeric_gradient(spec, raw, sample)
        z = to_unconstrained(spec, raw)
        fd = np.empty_like(z)
        for i in range(z.size):
            step = 1e-5 * max(1.0, abs(z[i]))
            up, down = z.copy(), z.copy()
            up[i] += 0.5 * step
            down[i] -= 0.5 * step
            fd[i] = (objective(up) - objective(down)) / step
        rel = np.max(np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-3))
        worst = max(worst, float(rel))
    assert worst <= 1e-4


def test_numeric_gradient_near_zero_at_truth():
    sample = population_sample("model1")
    truth = np.concatenate([LOADINGS, np.ones(5), [10.0]])
    grad = numeric_gradient(reference_model_spec(), truth, sample)
    assert np.max(np.abs(grad)) < 1e-6


def test_fit_statistics_formula():
    chi2, df = fit_statistics(0.131172, 901, reference_model_spec())
    assert chi2 == pytest.approx(900 * 0.131172)
    assert df == 9


def test_fit_statistics_rejects_tiny_n():
    with pytest.raises(SmmError, match="BAD_INPUT"):
        fit_statistics(0.1, 1, reference_model_spec())


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
    start = to_raw(spec, to_unconstrained(spec, np.concatenate([np.full(5, 0.5), np.full(5, 0.5), [0.0]])))
    f_start = ml_discrepancy(sample, implied_moments(spec, start))
    result = fit(spec, sample, FitOptions(warm_start_factor_means=False))
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
    sample = drawn_sample("model2", 300, 71)
    f_by_anchor = [fit(anchored_model_spec(a), sample).f_min for a in (0, 4)]
    assert f_by_anchor[0] == pytest.approx(f_by_anchor[1], abs=1e-8)


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
