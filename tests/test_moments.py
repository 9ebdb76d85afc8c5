import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smm.errors import SmmError
from smm.moments import Dataset, SampleMoments, compute_moments
from smm.simulate import Seed, draw_moments, draw_sample, explicit


def test_single_column_hand_values():
    data = Dataset(values=np.array([[0.0], [2.0]]), variable_names=("x",))
    moments = compute_moments(data)
    assert moments.mean[0] == 1.0
    assert moments.cov[0, 0] == 2.0
    assert moments.n == 2


def test_identical_rows_give_zero_covariance():
    values = np.tile([1.5, -2.0, 3.0], (6, 1))
    with pytest.warns(UserWarning, match="zero sample variance"):
        moments = compute_moments(Dataset(values=values, variable_names=("a", "b", "c")))
    np.testing.assert_array_equal(moments.cov, np.zeros((3, 3)))


def test_covariance_is_exactly_symmetric():
    rng = np.random.default_rng(3)
    values = rng.normal(size=(40, 6)) @ rng.normal(size=(6, 6))
    moments = compute_moments(Dataset(values=values, variable_names=tuple("abcdef")))
    assert np.array_equal(moments.cov, moments.cov.T)


def test_rejects_single_row():
    data = Dataset(values=np.array([[1.0, 2.0]]), variable_names=("a", "b"))
    with pytest.raises(SmmError, match="TOO_FEW_ROWS"):
        compute_moments(data)


def test_rejects_non_finite_values():
    with pytest.raises(SmmError, match="NON_FINITE"):
        Dataset(values=np.array([[1.0], [np.nan]]), variable_names=("a",))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("path", ["compute_moments", "draw_moments"])
def test_an_overflowing_sum_is_non_finite_values_without_a_numpy_warning(path):
    # finite rows near 1e306 whose column sum overflows: the SmmError comes
    # first, not a RuntimeWarning from the mean or the crossproduct
    pop = explicit(np.full((5, 1), 0.5), np.eye(1), np.ones(5), mean_vector=np.array([1e306, 4.0, 5.0, 6.0, 7.0]))
    with pytest.raises(SmmError, match="NON_FINITE_VALUES"):
        if path == "compute_moments":
            compute_moments(draw_sample(pop, 900, Seed(1)))
        else:
            draw_moments(pop, 300, [Seed(1), Seed(2)])


@pytest.mark.parametrize(
    "n, mean, cov, code",
    [
        # a chi-square (n - 1) F needs n >= 2, and an n that is not an
        # integer is no sample size
        (0, [0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], "TOO_FEW_ROWS"),
        (1, [0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], "TOO_FEW_ROWS"),
        (2.5, [0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], "TOO_FEW_ROWS"),
        ("3", [0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], "TOO_FEW_ROWS"),
        (100, [np.nan, 0.0], [[1.0, 0.0], [0.0, 1.0]], "NON_FINITE_VALUES"),
        (100, [0.0, 0.0], [[1.0, np.inf], [np.inf, 1.0]], "NON_FINITE_VALUES"),
        # a block (R, p) and (R, p, p) is checked as a whole
        (100, [[0.0, 0.0], [0.0, np.nan]], [np.eye(2), np.eye(2)], "NON_FINITE_VALUES"),
        (100, np.zeros((2, 2, 2)), np.zeros((2, 2, 2, 2)), "DIMENSION_MISMATCH"),
        (100, np.zeros((3, 2)), [np.eye(2), np.eye(2)], "DIMENSION_MISMATCH"),
        (100, np.zeros((2, 2)), np.eye(2), "DIMENSION_MISMATCH"),
        (100, [0.0, 0.0], [np.eye(2)], "DIMENSION_MISMATCH"),
    ],
    ids=[
        "n=0", "n=1", "n=2.5", "n=str", "nan_mean", "inf_cov", "nan_in_a_block",
        "mean_3d", "block_of_3_covs_of_2", "block_of_one_cov", "one_mean_of_a_block_cov",
    ],
)
def test_sample_moments_rejects_bad_input(n, mean, cov, code):
    with pytest.raises(SmmError, match=code):
        SampleMoments(n=n, mean=np.array(mean), cov=np.array(cov))


def test_sample_moments_holds_one_sample_or_a_block():
    one = SampleMoments(n=50, mean=np.zeros(3), cov=np.eye(3))
    block = SampleMoments(n=50, mean=np.zeros((4, 3)), cov=np.tile(np.eye(3), (4, 1, 1)))
    assert one.p == block.p == 3
    assert block.mean.shape == (4, 3) and block.cov.shape == (4, 3, 3)


def test_sample_moments_takes_numpy_integers_as_ints():
    moments = SampleMoments(n=np.int64(900), mean=np.zeros(2), cov=np.eye(2))
    assert type(moments.n) is int and moments.n == 900


def test_dataset_name_count_must_match():
    with pytest.raises(SmmError):
        Dataset(values=np.zeros((3, 2)), variable_names=("only",))


@settings(deadline=None, max_examples=50)
@given(
    st.integers(min_value=0, max_value=10),
    st.floats(min_value=-50, max_value=50, allow_nan=False),
)
def test_column_shift_moves_mean_not_cov(column_seed, shift):
    rng = np.random.default_rng(column_seed)
    values = rng.normal(size=(25, 3))
    base = compute_moments(Dataset(values=values, variable_names=("a", "b", "c")))
    shifted_values = values.copy()
    shifted_values[:, 1] += shift
    shifted = compute_moments(Dataset(values=shifted_values, variable_names=("a", "b", "c")))
    assert abs(shifted.mean[1] - (base.mean[1] + shift)) < 1e-10
    assert np.max(np.abs(shifted.cov - base.cov)) < 1e-10
