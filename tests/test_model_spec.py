import json

import numpy as np
import pytest

from smm.errors import SmmError
from smm.model_spec import (
    ModelSpec,
    ParameterCell,
    fix_intercept_variant,
    fixed,
    free,
    one_factor_spec,
    parameter_index,
    validate,
)


def table1_spec():
    return one_factor_spec(5)


def test_cell_kinds():
    assert fixed(1.0).is_free is False
    assert free().is_free is True
    assert free(0.3).start(0.5) == 0.3
    assert free().start(0.5) == 0.5


def test_cell_rejects_non_finite():
    with pytest.raises(ValueError):
        fixed(float("nan"))
    with pytest.raises(ValueError):
        free(float("inf"))
    with pytest.raises(ValueError):
        ParameterCell("fixed", None)


def test_spec_shape_errors():
    with pytest.raises(ValueError):
        ModelSpec(
            loadings=((free(),), (free(), free())),
            intercepts=(fixed(0), fixed(0)),
            factor_means=(free(),),
            factor_cov=((fixed(1),),),
            unique_variances=(free(), free()),
        )
    with pytest.raises(ValueError, match="more factors"):
        ModelSpec(
            loadings=((free(), free()),),
            intercepts=(fixed(0),),
            factor_means=(free(), free()),
            factor_cov=((fixed(1), fixed(0)), (fixed(0), fixed(1))),
            unique_variances=(free(),),
        )


def test_spec_requires_symmetric_phi_pattern():
    # a 2-factor pattern with mismatched off-diagonal cells
    with pytest.raises(ValueError, match="symmetric"):
        ModelSpec(
            loadings=((free(), free()), (free(), free())),
            intercepts=(fixed(0), fixed(0)),
            factor_means=(free(), free()),
            factor_cov=((fixed(1), free()), (fixed(0), fixed(1))),
            unique_variances=(free(), free()),
        )


def test_validate_table1_counts():
    report = validate(table1_spec())
    assert report.is_valid
    assert report.t == 11
    assert report.df == 9


def test_validate_underidentified_mean_structure():
    spec = table1_spec()
    loose = ModelSpec(
        loadings=spec.loadings,
        intercepts=tuple(free() for _ in range(5)),
        factor_means=spec.factor_means,
        factor_cov=spec.factor_cov,
        unique_variances=spec.unique_variances,
    )
    report = validate(loose)
    assert not report.is_valid
    assert "MEAN_STRUCTURE_UNDERIDENTIFIED" in report.codes()


def test_validate_negative_fixed_variance():
    spec = table1_spec()
    bad = ModelSpec(
        loadings=spec.loadings,
        intercepts=spec.intercepts,
        factor_means=spec.factor_means,
        factor_cov=spec.factor_cov,
        unique_variances=(fixed(-0.1),) + spec.unique_variances[1:],
    )
    report = validate(bad)
    assert not report.is_valid
    assert "NEGATIVE_FIXED_VARIANCE" in report.codes()


def test_validate_saturated_mean_structure_warns():
    spec = fix_intercept_variant(table1_spec(), 0)
    report = validate(spec)
    assert report.is_valid
    assert "MEAN_STRUCTURE_SATURATED" in report.codes()


def test_validate_too_many_parameters():
    # p=2 gives 5 moments; two loadings + two psi2 + free phi + theta + 2 nu = 7
    spec = ModelSpec(
        loadings=((free(),), (free(),)),
        intercepts=(free(), free()),
        factor_means=(free(),),
        factor_cov=((free(),),),
        unique_variances=(free(), free()),
    )
    report = validate(spec)
    assert "TOO_MANY_PARAMETERS" in report.codes()
    assert report.df == 2 * 5 // 2 - report.t


def test_df_plus_t_is_moment_count():
    for spec in [table1_spec(), fix_intercept_variant(table1_spec(), 2), one_factor_spec(3)]:
        report = validate(spec)
        p = spec.p
        assert report.df + report.t == p * (p + 3) // 2


def test_parameter_index_order_and_labels():
    index = parameter_index(table1_spec())
    assert index.t == 11
    assert index.labels() == (
        "lambda[x1,F1]",
        "lambda[x2,F1]",
        "lambda[x3,F1]",
        "lambda[x4,F1]",
        "lambda[x5,F1]",
        "psi2[x1]",
        "psi2[x2]",
        "psi2[x3]",
        "psi2[x4]",
        "psi2[x5]",
        "theta[F1]",
    )


def test_parameter_index_rejects_invalid_spec():
    spec = table1_spec()
    bad = ModelSpec(
        loadings=spec.loadings,
        intercepts=tuple(free() for _ in range(5)),
        factor_means=spec.factor_means,
        factor_cov=spec.factor_cov,
        unique_variances=spec.unique_variances,
    )
    with pytest.raises(SmmError):
        parameter_index(bad)


def test_index_serialization_is_stable():
    first = json.dumps(parameter_index(table1_spec()).labels())
    second = json.dumps(parameter_index(table1_spec()).labels())
    assert first == second


def test_flatten_unflatten_round_trip():
    index = parameter_index(table1_spec())
    rng = np.random.default_rng(7)
    values = rng.uniform(0.1, 2.0, index.t)
    back = index.extract(index.insert(values))
    np.testing.assert_array_equal(back, values)


def test_fully_fixed_spec_has_empty_index():
    spec = ModelSpec(
        loadings=((fixed(0.5),), (fixed(0.5),)),
        intercepts=(fixed(0.0), fixed(0.0)),
        factor_means=(fixed(0.0),),
        factor_cov=((fixed(1.0),),),
        unique_variances=(fixed(1.0), fixed(1.0)),
    )
    assert parameter_index(spec).t == 0


def test_starting_values_use_defaults_and_overrides():
    spec = one_factor_spec(3, loading_starts=[0.9, None, 0.1])
    index = parameter_index(spec)
    starts = index.starting_values()
    np.testing.assert_allclose(starts[:3], [0.9, 0.5, 0.1])
    np.testing.assert_allclose(starts[3:6], [0.5, 0.5, 0.5])  # psi2 defaults
    assert starts[6] == 0.0  # theta default


def test_insert_places_values_and_mirrors_phi():
    spec = ModelSpec(
        loadings=((free(), fixed(0.0)), (free(), fixed(0.0)), (fixed(0.0), free())),
        intercepts=(fixed(0.0),) * 3,
        factor_means=(fixed(0.0), fixed(0.0)),
        factor_cov=((fixed(1.0), free()), (free(), fixed(1.0))),
        unique_variances=(free(),) * 3,
    )
    index = parameter_index(spec)
    # order: lambda column-major, then phi lower triangle, then psi2
    values = np.array([0.1, 0.2, 0.3, 0.45, 1.0, 2.0, 3.0])
    mats = index.insert(values)
    np.testing.assert_allclose(mats.loadings, [[0.1, 0.0], [0.2, 0.0], [0.0, 0.3]])
    assert mats.factor_cov[0, 1] == mats.factor_cov[1, 0] == 0.45
    np.testing.assert_allclose(mats.unique_variances, [1.0, 2.0, 3.0])


def test_fix_intercept_variant_counts():
    spec = table1_spec()
    for anchor in (0, 4):
        variant = fix_intercept_variant(spec, anchor)
        report = validate(variant)
        assert report.t == 15
        assert report.df == 5
        assert not variant.intercepts[anchor].is_free
        assert sum(c.is_free for c in variant.intercepts) == 4


def test_fix_intercept_variant_errors():
    with pytest.raises(ValueError):
        fix_intercept_variant(table1_spec(), 7)
    two_factor = ModelSpec(
        loadings=((free(), free()), (free(), free())),
        intercepts=(fixed(0.0), fixed(0.0)),
        factor_means=(fixed(0.0), fixed(0.0)),
        factor_cov=((fixed(1.0), fixed(0.0)), (fixed(0.0), fixed(1.0))),
        unique_variances=(fixed(1.0), fixed(1.0)),
    )
    with pytest.raises(NotImplementedError):
        fix_intercept_variant(two_factor, 0)


def layout_spec():
    """Two factors with every kind of cell: a free off-diagonal phi, own
    starts in every block, fixed nonzero and fixed zero cells, free
    intercepts and factor means."""
    return ModelSpec(
        loadings=(
            (fixed(1.0), fixed(0.0)),
            (free(0.8), fixed(0.0)),
            (free(), free(0.3)),
            (fixed(0.0), fixed(1.0)),
            (fixed(0.0), free()),
        ),
        intercepts=(fixed(0.0), free(), free(1.5), fixed(2.0), free()),
        factor_means=(free(), free(-1.0)),
        factor_cov=((free(), free(0.25)), (free(0.25), fixed(1.5))),
        unique_variances=(free(), free(0.4), fixed(0.6), free(), free()),
    )


def test_layout_labels_starts_and_base_matrices():
    index = parameter_index(layout_spec())
    assert index.labels() == (
        "lambda[x2,F1]",
        "lambda[x3,F1]",
        "lambda[x3,F2]",
        "lambda[x5,F2]",
        "phi[F1,F1]",
        "phi[F2,F1]",
        "psi2[x1]",
        "psi2[x2]",
        "psi2[x4]",
        "psi2[x5]",
        "nu[x2]",
        "nu[x3]",
        "nu[x5]",
        "theta[F1]",
        "theta[F2]",
    )
    np.testing.assert_array_equal(
        index.starting_values(),
        [0.8, 0.5, 0.3, 0.5, 1.0, 0.25, 0.5, 0.4, 0.5, 0.5, 0.0, 1.5, 0.0, 0.0, -1.0],
    )
    base = index.base_matrices()
    np.testing.assert_array_equal(
        base.loadings, [[1.0, 0.0], [0.8, 0.0], [0.5, 0.3], [0.0, 1.0], [0.0, 0.5]]
    )
    np.testing.assert_array_equal(base.factor_cov, [[1.0, 0.25], [0.25, 1.5]])
    np.testing.assert_array_equal(base.unique_variances, [0.5, 0.4, 0.6, 0.5, 0.5])
    np.testing.assert_array_equal(base.intercepts, [0.0, 0.0, 1.5, 2.0, 0.0])
    np.testing.assert_array_equal(base.factor_means, [0.0, -1.0])


def test_layout_insert_extract_round_trip():
    index = parameter_index(layout_spec())
    values = np.arange(1.0, 16.0) / 8.0
    mats = index.insert(values)
    np.testing.assert_array_equal(
        mats.loadings, [[1.0, 0.0], [0.125, 0.0], [0.25, 0.375], [0.0, 1.0], [0.0, 0.5]]
    )
    np.testing.assert_array_equal(mats.factor_cov, [[0.625, 0.75], [0.75, 1.5]])
    np.testing.assert_array_equal(mats.unique_variances, [0.875, 1.0, 0.6, 1.125, 1.25])
    np.testing.assert_array_equal(mats.intercepts, [0.0, 1.375, 1.5, 2.0, 1.625])
    np.testing.assert_array_equal(mats.factor_means, [1.75, 1.875])
    np.testing.assert_array_equal(index.extract(mats), values)


def test_layout_stacked_insert_matches_row_by_row():
    index = parameter_index(layout_spec())
    stack = np.random.default_rng(3).normal(size=(2, 4, index.t))
    stacked = index.insert(stack)
    for fields in np.ndindex(stack.shape[:-1]):
        one = index.insert(stack[fields])
        for name in ("loadings", "intercepts", "factor_means", "factor_cov", "unique_variances"):
            got = getattr(stacked, name)[fields]
            assert got.tobytes() == getattr(one, name).tobytes()


def test_insert_rejects_wrong_length():
    index = parameter_index(layout_spec())
    with pytest.raises(SmmError, match="DIMENSION_MISMATCH"):
        index.insert(np.ones(index.t - 1))
    with pytest.raises(SmmError, match="DIMENSION_MISMATCH"):
        index.insert(np.ones((3, index.t + 1)))
