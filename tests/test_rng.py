import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from smm.rng import (
    STREAM_JITTER,
    STREAM_SAMPLE,
    derive_seed,
    normals,
    raw_uint64,
    splitmix64,
    uniform,
    uniform_open01,
)


def test_splitmix64_reference_values():
    # first output of the reference splitmix64 generator for seeds 0 and 1
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(1) == 0x910A2DEC89025CC1


def test_splitmix64_stays_in_64_bits():
    for value in (0, 1, 2**63, 2**64 - 1):
        assert 0 <= splitmix64(value) < 2**64


def test_derive_seed_is_deterministic():
    assert derive_seed(42, 1, 2) == derive_seed(42, 1, 2)


def test_derive_seed_separates_parts():
    seen = {
        derive_seed(42),
        derive_seed(42, 0),
        derive_seed(42, 1),
        derive_seed(42, 0, 0),
        derive_seed(42, 0, 1),
        derive_seed(42, 1, 0),
        derive_seed(43, 0, 0),
        derive_seed(42, STREAM_SAMPLE),
        derive_seed(42, STREAM_JITTER),
    }
    assert len(seen) == 9


def test_derive_seed_takes_numpy_integers_as_ints():
    want = derive_seed(5, 1, STREAM_JITTER)
    assert type(want) is int
    for kind in (np.int64, np.uint64):
        got = derive_seed(kind(5), kind(1), kind(STREAM_JITTER))
        assert (type(got), got) == (int, want)


def test_derive_seed_order_matters():
    assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)


def test_raw_stream_repeats_exactly():
    first = raw_uint64(99, 64)
    second = raw_uint64(99, 64)
    assert np.array_equal(first, second)
    assert first.dtype == np.uint64


def test_uniform_open01_bounds_and_determinism():
    u = uniform_open01(5, 100_000)
    assert np.array_equal(u, uniform_open01(5, 100_000))
    assert u.min() > 0.0
    assert u.max() <= 1.0
    # mean of 100k uniforms should be near 1/2
    assert abs(u.mean() - 0.5) < 0.005


def test_uniform_open01_matches_bit_mapping():
    raw = raw_uint64(11, 8)
    expected = ((raw >> np.uint64(11)) + np.uint64(1)) * 2.0**-53
    assert np.array_equal(uniform_open01(11, 8), expected)


def test_normals_interleaved_layout():
    flat = normals(123, (6,))
    u = uniform_open01(123, 6).reshape(3, 2)
    radius = np.sqrt(-2.0 * np.log(u[:, 0]))
    angle = 2.0 * np.pi * u[:, 1]
    assert np.array_equal(flat[0::2], radius * np.cos(angle))
    assert np.array_equal(flat[1::2], radius * np.sin(angle))


def test_normals_shape_and_c_order_truncation():
    flat = normals(77, (12,))
    grid = normals(77, (3, 4))
    assert grid.shape == (3, 4)
    assert np.array_equal(grid.ravel(), flat)
    odd = normals(77, (5,))
    assert np.array_equal(odd, flat[:5])


def test_normals_moments():
    z = normals(2024, (200_000,))
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    assert np.isfinite(z).all()


def test_normals_distinct_seeds_disagree():
    assert not np.array_equal(normals(1, (16,)), normals(2, (16,)))


def test_uniform_range():
    draws = uniform(31, (10_000,), -0.2, 0.2)
    assert draws.min() > -0.2
    assert draws.max() <= 0.2
    assert abs(draws.mean()) < 0.01


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_derive_seed_output_is_valid_key(master):
    seed = derive_seed(master, STREAM_SAMPLE)
    assert 0 <= seed < 2**64
    # the derived value must be usable directly as a Philox key
    assert raw_uint64(seed, 1).shape == (1,)
