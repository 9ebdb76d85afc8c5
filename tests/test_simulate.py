import hashlib
import tracemalloc

import numpy as np
import pytest

from smm import rng, simulate
from smm.errors import SmmError, NotPositiveDefiniteError
from smm.fixtures import reference_population
from smm.moments import SampleMoments, compute_moments
from smm.simulate import (
    Seed,
    cholesky,
    draw_moments,
    draw_sample,
    explicit,
    population_moments,
    structured,
)

LOADINGS = np.array([0.3, 0.4, 0.5, 0.6, 0.7])


def one_factor_population(means_up=True):
    key = "model1" if means_up else "model2"
    return reference_population(key)


def test_structured_population_means():
    m, sigma = population_moments(one_factor_population(means_up=True))
    np.testing.assert_allclose(m, [3.0, 4.0, 5.0, 6.0, 7.0])
    np.testing.assert_allclose(np.diag(sigma), 1.0 + LOADINGS**2)
    np.testing.assert_allclose(sigma[0, 1], 0.3 * 0.4)


def test_explicit_population_means_are_reversed():
    m, sigma_explicit = population_moments(one_factor_population(means_up=False))
    np.testing.assert_allclose(m, [7.0, 6.0, 5.0, 4.0, 3.0])
    _, sigma_structured = population_moments(one_factor_population(means_up=True))
    # the two reference populations share one covariance structure
    np.testing.assert_array_equal(sigma_explicit, sigma_structured)


def test_population_covariance_is_exactly_symmetric():
    _, sigma = population_moments(one_factor_population())
    assert np.array_equal(sigma, sigma.T)


def test_population_rejects_nonpositive_unique_variance():
    with pytest.raises(SmmError, match="NONPOSITIVE_UNIQUE_VARIANCE"):
        structured(LOADINGS[:, None], [[1.0]], [1, 1, 0, 1, 1], np.zeros(5), [10.0])


def test_population_rejects_indefinite_factor_cov():
    with pytest.raises(NotPositiveDefiniteError):
        structured(
            np.ones((2, 2)) * 0.5,
            [[1.0, 2.0], [2.0, 1.0]],
            [1.0, 1.0],
            np.zeros(2),
            [0.0, 0.0],
        )


def test_cholesky_hand_case():
    lower = cholesky(np.array([[4.0, 2.0], [2.0, 2.0]]))
    np.testing.assert_allclose(lower, [[2.0, 0.0], [1.0, 1.0]])


def test_cholesky_identity():
    np.testing.assert_array_equal(cholesky(np.eye(3)), np.eye(3))


def test_cholesky_rejects_asymmetric():
    with pytest.raises(SmmError, match="ASYMMETRIC_MATRIX"):
        cholesky(np.array([[1.0, 0.5], [0.2, 1.0]]))


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_cholesky_rejects_near_singular():
    with pytest.raises(NotPositiveDefiniteError, match="singular"):
        cholesky(np.diag([1.0, 1e-13]))


def test_draw_sample_is_deterministic():
    pop = one_factor_population()
    first = draw_sample(pop, 50, Seed(12345))
    second = draw_sample(pop, 50, Seed(12345))
    assert np.array_equal(first.values, second.values)


def test_draw_sample_seed_changes_data():
    pop = one_factor_population()
    a = draw_sample(pop, 50, Seed(1))
    b = draw_sample(pop, 50, Seed(2))
    assert not np.array_equal(a.values, b.values)


def test_draw_sample_prefix_property():
    # a longer draw from the same seed starts with the shorter draw
    pop = one_factor_population()
    short = draw_sample(pop, 10, Seed(7)).values
    long = draw_sample(pop, 25, Seed(7)).values
    assert np.array_equal(long[:10], short)


def test_draw_sample_rejects_zero_rows():
    with pytest.raises(SmmError, match="INVALID_SAMPLE_SIZE"):
        draw_sample(one_factor_population(), 0, Seed(3))


def test_draw_sample_names_follow_population():
    pop = structured(
        [[0.5], [0.5]], [[1.0]], [1.0, 1.0], [0.0, 0.0], [1.0],
        variable_names=("left", "right"),
    )
    data = draw_sample(pop, 3, Seed(5))
    assert data.variable_names == ("left", "right")


def test_large_sample_matches_population_moments():
    pop = one_factor_population(means_up=False)
    m, sigma = population_moments(pop)
    n = 10_000
    data = draw_sample(pop, n, Seed(20260818))
    sample_mean = data.values.mean(axis=0)
    sd = np.sqrt(np.diag(sigma) / n)
    assert np.all(np.abs(sample_mean - m) < 4 * sd)
    sample_var = data.values.var(axis=0, ddof=1)
    var_sd = np.diag(sigma) * np.sqrt(2.0 / n)
    assert np.all(np.abs(sample_var - np.diag(sigma)) < 4 * var_sd)
    # off-diagonal structure: correlation implied by the one-factor model
    sample_cov = np.cov(data.values, rowvar=False)
    assert np.all(np.abs(sample_cov - sigma) < 0.1)


def test_structured_and_explicit_same_moments_same_sample():
    lam = LOADINGS[:, None]
    nu = np.array([1.0, 0.0, -1.0, 2.0, 0.5])
    theta = np.array([4.0])
    pop_s = structured(lam, [[1.0]], np.ones(5), nu, theta)
    pop_e = explicit(lam, [[1.0]], np.ones(5), nu + lam[:, 0] * theta[0])
    m_s, sig_s = population_moments(pop_s)
    m_e, sig_e = population_moments(pop_e)
    assert np.array_equal(m_s, m_e)
    assert np.array_equal(sig_s, sig_e)
    a = draw_sample(pop_s, 20, Seed(99))
    b = draw_sample(pop_e, 20, Seed(99))
    assert np.array_equal(a.values, b.values)


def assert_rows_are_the_samples_alone(block, alone):
    """block is one SampleMoments whose row i has the n and the bits of the sample alone[i]."""
    assert isinstance(block, SampleMoments)
    assert block.mean.shape == (len(alone), alone[0].p)
    assert block.cov.shape == (len(alone), alone[0].p, alone[0].p)
    for mean, cov, want in zip(block.mean, block.cov, alone, strict=True):
        assert block.n == want.n
        assert mean.tobytes() == want.mean.tobytes()
        assert cov.tobytes() == want.cov.tobytes()


def test_draw_moments_factors_the_population_once(monkeypatch):
    pop = one_factor_population(means_up=False)
    seeds = [Seed(rng.derive_seed(5, r)) for r in range(6)]
    alone = [compute_moments(draw_sample(pop, 150, seed)) for seed in seeds]
    factored = []
    monkeypatch.setattr(simulate, "cholesky", lambda sigma: factored.append(1) or cholesky(sigma))
    block = draw_moments(pop, 150, seeds)
    assert len(factored) == 1
    assert_rows_are_the_samples_alone(block, alone)


@pytest.mark.parametrize("key", ["model1", "model2"])
@pytest.mark.parametrize("n", [2, 3, 301, 900])
def test_every_row_of_a_block_is_its_sample_alone(key, n):
    # n = 3 and 301 give an odd n * p, whose last Box-Muller pair is cut
    pop = reference_population(key)
    seeds = [Seed(rng.derive_seed(17, n, r)) for r in range(10)]
    alone = [compute_moments(draw_sample(pop, n, seed)) for seed in seeds]
    assert_rows_are_the_samples_alone(draw_moments(pop, n, seeds), alone)


def test_draw_moments_rejects_zero_rows():
    with pytest.raises(SmmError, match="INVALID_SAMPLE_SIZE"):
        draw_moments(one_factor_population(), 0, [Seed(3)])


def test_draw_moments_of_one_row_has_no_covariance():
    with pytest.raises(SmmError, match="TOO_FEW_ROWS"):
        draw_moments(one_factor_population(), 1, [Seed(3), Seed(4)])


def test_draw_moments_memory_grows_with_the_block_not_the_samples():
    # 400 samples of 900 x 5 would hold 14.4 MB in z alone; a block keeps
    # two (n, p) buffers and O(R p^2) moments
    pop = one_factor_population()
    seeds = [Seed(rng.derive_seed(23, r)) for r in range(400)]
    draw_moments(pop, 900, seeds[:2])
    tracemalloc.start()
    try:
        block = draw_moments(pop, 900, seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block.cov.shape == (400, 5, 5)
    assert peak < 2_000_000


def test_cholesky_of_a_stack_fails_when_one_matrix_fails():
    stack = np.array([np.eye(2), [[1.0, 2.0], [2.0, 1.0]]])
    with pytest.raises(NotPositiveDefiniteError):
        cholesky(stack)
    np.testing.assert_array_equal(cholesky(stack[:1]), stack[:1])


def test_seed_bounds():
    with pytest.raises(ValueError):
        Seed(-1)
    with pytest.raises(ValueError):
        Seed(2**64)
    assert Seed(2**64 - 1).master == 2**64 - 1


# Golden SHA-256 digests of the float64 bytes. Every recorded study seed
# depends on these streams; a change to either invalidates them all.
PINNED_STREAMS = {
    "rng.normals": (
        lambda: rng.normals(99, (400, 5)),
        "9191a8294232201088fa1bc433dd20f26175d0e3c123c9175e2549ea18b091d0",
    ),
    "draw_sample": (
        lambda: draw_sample(one_factor_population(means_up=False), 400, Seed(99)).values,
        "e758e228d3fc50dd6c89093a47de53ed288832fa3ceb3080b2304ba07f007bef",
    ),
}


@pytest.mark.parametrize("stream", sorted(PINNED_STREAMS))
def test_sampling_stream_is_pinned(stream):
    draw, digest = PINNED_STREAMS[stream]
    values = draw()
    assert values.dtype == np.float64 and values.shape == (400, 5)
    assert hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest() == digest


# The same streams at an odd total n * p, where the sine of the last
# Box-Muller pair is dropped.
PINNED_ODD_STREAMS = {
    "rng.normals": (
        lambda: rng.normals(99, (401, 5)),
        "8c78d10d3d5519f0378de8cb3de40f5a73de275512e14a4552c9f4c876748f97",
    ),
    "draw_sample": (
        lambda: draw_sample(one_factor_population(means_up=False), 401, Seed(99)).values,
        "06633ee7612be2d90b4c35ce63870268c56b574bd549b4ea2413282e9441eaa2",
    ),
}


@pytest.mark.parametrize("stream", sorted(PINNED_ODD_STREAMS))
def test_odd_sampling_stream_is_pinned(stream):
    draw, digest = PINNED_ODD_STREAMS[stream]
    values = draw()
    assert values.dtype == np.float64 and values.shape == (401, 5)
    assert hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest() == digest
