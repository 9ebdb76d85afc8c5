from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smm import estimator, rng, serialize
from smm.errors import SmmError, InvalidModelError, NotPositiveDefiniteError
from smm.estimator import (
    FitOptions,
    ImpliedMoments,
    _start_values,
    _workspace,
    fit,
    fit_many,
    fit_statistics,
    implied_moments,
    ml_discrepancy,
    numeric_gradient,
    to_raw,
    to_unconstrained,
)
from smm.fixtures import (
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


def central_differences(spec, sample, z, relative_step):
    """Half-step central differences of ml_discrepancy in unconstrained coordinates."""

    def objective(z):
        return ml_discrepancy(sample, implied_moments(spec, to_raw(spec, z)))

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
        fd = central_differences(spec, sample, to_unconstrained(spec, raw), 1e-5)
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
        fd = central_differences(spec, sample, to_unconstrained(spec, raw), 1e-7)
        assert np.max(np.abs(analytic - fd)) <= 1e-6 * np.max(np.abs(analytic))


FISHER_CASES = {
    "model1": reference_model_spec,
    "anchored_free_intercepts": lambda: fix_intercept_variant(reference_model_spec(), 2),
    "two_factor_free_phi": two_factor_spec,
}


@pytest.mark.parametrize("case", sorted(FISHER_CASES))
def test_fisher_information_is_the_hessian_at_an_exact_fit(case):
    # at S = Sigma(z), xbar = mu(z) the Hessian of F is the Fisher information;
    # the Hessian here is a central difference of the exact gradient
    spec = FISHER_CASES[case]()
    generator = np.random.default_rng(7)
    for _ in range(3):
        raw = random_point(spec, generator)
        implied = implied_moments(spec, raw)
        sample = SampleMoments(n=500, mean=implied.mu_model, cov=implied.sigma)
        z = to_unconstrained(spec, raw)
        hessian = np.empty((z.size, z.size))
        for i in range(z.size):
            step = 1e-5 * max(1.0, abs(z[i]))
            up, down = z.copy(), z.copy()
            up[i] += step
            down[i] -= step
            hessian[:, i] = (
                numeric_gradient(spec, to_raw(spec, up), sample)
                - numeric_gradient(spec, to_raw(spec, down), sample)
            ) / (2.0 * step)
        fisher = _workspace(spec).fisher_information(raw)
        assert np.max(np.abs(fisher - hessian)) <= 1e-6 * np.max(np.abs(fisher))


@pytest.mark.parametrize("spec_of", [lambda: anchored_model_spec(0), two_factor_spec])
def test_mean_warm_start_reproduces_xbar_on_a_saturated_mean_structure(spec_of):
    spec = spec_of()
    sample = two_factor_sample() if spec.q == 2 else drawn_sample("model2", 300, 23)
    start = _start_values(_workspace(spec), sample)
    mu = implied_moments(spec, start).mu_model
    np.testing.assert_allclose(mu, sample.mean, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "own, value, reproduced", [("theta[F1]", 7.0, [1, 2, 3, 4]), ("nu[x3]", 2.0, [1, 3, 4])]
)
def test_own_mean_start_survives_the_least_squares_start(own, value, reproduced):
    # anchored on x1: the intercepts of x2..x5 and the factor mean are free
    spec = anchored_model_spec(0)
    if own == "theta[F1]":
        spec = replace(spec, factor_means=(free(value),))
    else:
        spec = replace(spec, intercepts=spec.intercepts[:2] + (free(value),) + spec.intercepts[3:])
    sample = drawn_sample("model2", 300, 23)
    ws = _workspace(spec)
    start = _start_values(ws, sample)
    assert start[ws.labels.index(own)] == value
    # the variables whose intercept takes the least-squares start still
    # have their means reproduced
    mu = implied_moments(spec, start).mu_model
    np.testing.assert_allclose(mu[reproduced], sample.mean[reproduced], rtol=0, atol=1e-12)


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


# every free cell of a started_at spec has a start of its own, so the
# least-squares mean start, which differs from the ML means when the mean
# structure is not saturated, leaves them alone
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
    # replication 84 of the bundled table1_model2_n300 study: one trial step
    # overflows exp(log psi2); the trial is rejected and no warning escapes
    config = serialize.study_from_dict(serialize.load_json(study_path("table1_model2_n300")))
    rep_seed = rng.derive_seed(config.seed.master, 0, 84)
    sample = compute_moments(draw_sample(config.population, 300, Seed(rep_seed)))
    assert fit(config.spec, sample).converged


def bundled_replications(name, reps):
    """Spec, samples and per-replication options of a bundled study, as run_study makes them."""
    config = serialize.study_from_dict(serialize.load_json(study_path(name)))
    samples, options = [], []
    for rep in reps:
        rep_seed = rng.derive_seed(config.seed.master, 0, rep)
        data = draw_sample(config.population, config.sample_sizes[0], Seed(rep_seed))
        samples.append(compute_moments(data))
        options.append(replace(config.fit_options, seed=rng.derive_seed(rep_seed, rng.STREAM_JITTER)))
    return config.spec, samples, options


def fingerprint(result):
    return (
        result.f_min,
        result.free_values.tobytes(),
        result.iterations,
        result.retries_used,
        result.converged,
    )


def assert_rows_fit_alone_alike(spec, samples, options, batch):
    for sample, opts, row in zip(samples, options, batch):
        assert fingerprint(row) == fingerprint(fit(spec, sample, opts))


@pytest.mark.parametrize("name", bundled_studies())
def test_fit_many_matches_fit_bit_for_bit(name):
    spec, samples, options = bundled_replications(name, range(40))
    batch = fit_many(spec, samples, options)
    assert len(batch) == 40
    assert_rows_fit_alone_alike(spec, samples, options, batch)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_many_rejects_an_overflowing_row_quietly():
    # replication 84 overflows exp(log psi2) in a trial, so np.linalg raises
    # for the whole stack and that round is evaluated row by row
    spec, samples, options = bundled_replications("table1_model2_n300", range(78, 91))
    batch = fit_many(spec, samples, options)
    assert all(row.converged for row in batch)
    assert_rows_fit_alone_alike(spec, samples, options, batch)


def test_fit_many_returns_the_error_of_a_failing_row():
    spec, samples, options = bundled_replications("table1_model1_n900", range(4))
    values = draw_sample(reference_population("model1"), 100, Seed(91)).values.copy()
    values[:, 2] = 5.0
    with pytest.warns(UserWarning):
        singular = compute_moments(Dataset(values=values, variable_names=("x1", "x2", "x3", "x4", "x5")))
    samples.insert(2, singular)
    options.insert(2, FitOptions())
    batch = fit_many(spec, samples, options)
    assert isinstance(batch[2], NotPositiveDefiniteError)
    del samples[2], options[2], batch[2]
    assert_rows_fit_alone_alike(spec, samples, options, batch)


def test_estimator_uses_no_einsum():
    # fit_many's rows must get the same bits in any stack; einsum may pick a
    # contraction order by operand shape, so the estimator keeps to matmul
    assert "einsum" not in Path(estimator.__file__).read_text()


def test_fit_many_needs_options_for_every_sample():
    spec, samples, options = bundled_replications("table1_model1_n900", range(2))
    with pytest.raises(SmmError, match="BAD_INPUT"):
        fit_many(spec, samples, options[:1])


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
