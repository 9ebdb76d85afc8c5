import concurrent.futures
import json
import pickle
from dataclasses import replace

import numpy as np
import pytest

from smm import estimator, montecarlo, serialize
from smm.errors import SmmError
from smm.estimator import FitOptions, FitResult, fit_many
from smm.fixtures import reference_model_spec, reference_population, study_path
from smm.model_spec import ParameterMatrices
from smm.montecarlo import (
    MIN_BLOCK,
    REFERENCE_TABLE,
    ReplicationSummary,
    StudyConfig,
    StudySummary,
    aggregate,
    compare_to_reference,
    run_study,
)
from smm.rng import STREAM_JITTER, derive_seed
from smm.serialize import canonical_json, summary_to_dict
from smm.simulate import Seed, draw_moments


def fake_result(theta, chi, converged=True):
    mats = ParameterMatrices(
        loadings=np.zeros((1, 1)),
        intercepts=np.zeros(1),
        factor_means=np.array([theta]),
        factor_cov=np.eye(1),
        unique_variances=np.ones(1),
    )
    return FitResult(
        estimates=mats,
        f_min=chi / 99,
        chi_square=chi,
        df=9,
        n=100,
        converged=converged,
        iterations=10,
        grad_inf_norm=1e-9,
        retries_used=0,
        free_values=np.array([theta]),
        labels=("theta[F1]",),
    )


def small_config(**overrides):
    settings = dict(
        population=reference_population("model1"),
        spec=reference_model_spec(),
        sample_sizes=(60,),
        replications=4,
        seed=Seed(321),
    )
    settings.update(overrides)
    return StudyConfig(**settings)


def test_aggregate_mean_and_sd():
    summary = aggregate([fake_result(9.0, 5.0), fake_result(11.0, 7.0)])
    mean, sd = summary.parameters["theta[F1]"]
    assert mean == pytest.approx(10.0)
    assert sd == pytest.approx(np.sqrt(2.0))
    assert summary.chi_square_mean == pytest.approx(6.0)
    assert summary.r_effective == 2
    assert summary.convergence_failures == 0


def test_aggregate_single_result_has_zero_sd():
    summary = aggregate([fake_result(10.0, 9.0)])
    assert summary.parameters["theta[F1]"] == (10.0, 0.0)
    assert summary.chi_square_sd == 0.0


def test_aggregate_skips_unconverged():
    summary = aggregate([fake_result(10.0, 9.0), fake_result(99.0, 99.0, converged=False)])
    assert summary.parameters["theta[F1]"][0] == pytest.approx(10.0)
    assert summary.convergence_failures == 1
    assert summary.r_effective == 1


def test_aggregate_counts_hard_failures_via_total():
    summary = aggregate([fake_result(10.0, 9.0)], total_replications=5)
    assert summary.convergence_failures == 4


def test_aggregate_rejects_empty_converged_set():
    with pytest.raises(SmmError, match="EMPTY_CONVERGED_SET"):
        aggregate([fake_result(1.0, 1.0, converged=False)])


def bundled_block(reps=40):
    """The FitResult block of the first reps replications of table1_model1_n900, and its config."""
    config = serialize.study_from_dict(serialize.load_json(study_path("table1_model1_n900")))
    block = montecarlo._replicate_block(
        config.population, config.spec, config.fit_options, config.seed.master, 0,
        config.sample_sizes[0], range(reps),
    )
    return block, config


def test_aggregate_of_a_block_equals_aggregate_of_its_rows():
    block, config = bundled_block()
    n, reps = config.sample_sizes[0], range(40)
    rep_seeds = [derive_seed(config.seed.master, 0, rep) for rep in reps]
    samples = draw_moments(config.population, n, [Seed(s) for s in rep_seeds])
    seeds = [derive_seed(s, STREAM_JITTER) for s in rep_seeds]
    rows = fit_many(config.spec, samples, config.fit_options, seeds)
    assert block.free_values.shape == (40, len(block.labels))
    for i, row in enumerate(rows):
        assert row.f_min == block.f_min[i] and row.converged == block.converged[i]
        np.testing.assert_array_equal(row.free_values, block.free_values[i])
    from_block, from_rows = aggregate([block]), aggregate(rows)
    assert from_block == from_rows
    # the pool's split: blocks in replication order give the summary of the whole
    halves = [montecarlo._replicate_block(
        config.population, config.spec, config.fit_options, config.seed.master, 0, n, half,
    ) for half in (range(0, 17), range(17, 40))]
    assert aggregate(halves) == from_block


def test_a_block_survives_pickling():
    block, _ = bundled_block()
    copy = pickle.loads(pickle.dumps(block))
    for name, value in vars(block).items():
        if name == "estimates":
            for matrix, copied in zip(vars(value).values(), vars(copy.estimates).values()):
                np.testing.assert_array_equal(copied, matrix)
        else:
            np.testing.assert_array_equal(getattr(copy, name), value)


@pytest.mark.parametrize("master", [0, 2**64 - 1, np.uint64(12345)])
def test_a_block_derives_each_replications_seeds_as_derive_seed(monkeypatch, master):
    # the block mixes the shared prefix and the jitter label once
    seen = {}
    monkeypatch.setattr(montecarlo, "_draw_moments", lambda pop, n, masters: seen.update(rep=masters))
    monkeypatch.setattr(montecarlo, "_fit_block", lambda spec, samples, options, seeds: (seen.update(jitter=seeds), []))
    reps = range(3, 9)
    montecarlo._replicate_block(None, None, None, master, 2, 150, reps)
    rep_seeds = [derive_seed(master, 2, rep) for rep in reps]
    assert seen["rep"] == rep_seeds
    assert seen["jitter"] == [derive_seed(rep_seed, STREAM_JITTER) for rep_seed in rep_seeds]
    assert all(type(seed) is int for seed in seen["rep"] + seen["jitter"])


def test_a_raising_row_of_a_block_is_a_convergence_failure():
    spec = reference_model_spec()
    samples = draw_moments(reference_population("model1"), 200, [Seed(k) for k in range(6)])
    cov = samples.cov.copy()
    cov[2] = np.ones((5, 5))  # rank one: simulate.cholesky rejects it
    block, errors = estimator._fit_block(spec, replace(samples, cov=cov), FitOptions(), list(range(6)))
    assert [error is None for error in errors] == [True, True, False, True, True, True]
    assert errors[2].code == "NOT_POSITIVE_DEFINITE"
    assert not block.converged[2]
    assert block.f_min[2] == block.iterations[2] == block.retries_used[2] == 0
    assert not block.free_values[2].any()
    summary = aggregate([block])
    assert (summary.r_effective, summary.convergence_failures) == (5, 1)


def test_aggregate_of_nothing_converged_is_empty():
    block, errors = estimator._fit_block(
        reference_model_spec(),
        replace(draw_moments(reference_population("model1"), 200, [Seed(1)] * 2), cov=np.ones((2, 5, 5))),
        FitOptions(), [0, 1],
    )
    assert all(isinstance(error, SmmError) for error in errors)
    for results in ([], [block], [block, fake_result(1.0, 1.0, converged=False)]):
        with pytest.raises(SmmError, match="EMPTY_CONVERGED_SET"):
            aggregate(results)


def test_run_study_builds_no_fit_of_one_sample(monkeypatch):
    def no_row(block, i):
        raise AssertionError("a one-fit FitResult was built")

    monkeypatch.setattr(estimator, "_fit_row", no_row)
    (_, cond), = run_study(small_config(replications=6)).conditions
    assert cond.r_effective + cond.convergence_failures == 6
    with pytest.raises(AssertionError, match="one-fit"):
        fit_many(reference_model_spec(), draw_moments(reference_population("model1"), 60, [Seed(1)]),
                 FitOptions(), [0])


def test_run_study_produces_sane_summary():
    config = small_config(replications=6)
    summary = run_study(config)
    assert summary.replications == 6
    assert summary.seed == 321
    (n, cond), = summary.conditions
    assert n == 60
    assert cond.r_effective + cond.convergence_failures == 6
    assert cond.df == 9
    mean, sd = cond.parameters["theta[F1]"]
    # six replications at n=60: the mean is within a few SDs of truth
    assert mean == pytest.approx(10.0, abs=3 * sd)
    assert sd > 0


def test_run_study_is_deterministic_across_parallelism():
    base = small_config(replications=2 * MIN_BLOCK)
    serial = run_study(base)
    parallel = run_study(small_config(replications=2 * MIN_BLOCK, max_parallelism=2))
    assert canonical_json(summary_to_dict(serial)) == canonical_json(summary_to_dict(parallel))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_an_error_in_a_pool_worker_reaches_the_caller_as_it_does_inline():
    # a mean of 1e306 overflows the sample means to inf, so every block
    # raises NON_FINITE_VALUES; the sum warns of the overflow first, and a
    # forked worker inherits the warning filters of the test
    doc = serialize.load_json(study_path("table1_model1_n900"))
    doc["population"]["means"] = {"mean_vector": [1e306, 4, 5, 6, 7]}
    doc.update(replications=2 * MIN_BLOCK, reference=None)
    config = serialize.study_from_dict(doc)
    raised = []
    for parallelism in (1, 2):
        with pytest.raises(SmmError) as error:
            run_study(replace(config, max_parallelism=parallelism))
        raised.append((type(error.value), error.value.code, error.value.message))
    assert raised[0] == raised[1]
    assert raised[0][:2] == (SmmError, "NON_FINITE_VALUES")


@pytest.mark.filterwarnings("error")
def test_numpy_integer_seeds_give_the_summary_of_the_int():
    # a numpy master used to overflow in derive_seed or in splitmix64, and
    # an np.uint64 left in the summary made its JSON fail
    docs = {
        canonical_json(summary_to_dict(run_study(small_config(seed=Seed(master)))))
        for master in (7, np.int64(7), np.uint64(7))
    }
    assert len(docs) == 1
    assert json.loads(docs.pop())["seed"] == 7


def test_run_study_gives_each_worker_at_least_min_block_replications(monkeypatch):
    started = []

    def no_pool(max_workers, **kwargs):
        started.append(max_workers)
        raise RuntimeError("pool started")

    # run_study imports the pool class where it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    run_study(small_config(replications=2 * MIN_BLOCK - 1, max_parallelism=8))
    assert started == []
    with pytest.raises(RuntimeError, match="pool started"):
        run_study(small_config(replications=3 * MIN_BLOCK, max_parallelism=8))
    assert started == [3]


def test_run_study_repeats_identically():
    config = small_config()
    first = canonical_json(summary_to_dict(run_study(config)))
    second = canonical_json(summary_to_dict(run_study(config)))
    assert first == second


def test_run_study_seed_changes_results():
    a = run_study(small_config())
    b = run_study(small_config(seed=Seed(322)))
    assert canonical_json(summary_to_dict(a)) != canonical_json(summary_to_dict(b))


def test_run_study_rejects_zero_replications():
    with pytest.raises(SmmError, match="BAD_INPUT"):
        run_study(small_config(replications=0))


def test_run_study_rejects_empty_sample_sizes():
    with pytest.raises(SmmError, match="BAD_INPUT"):
        run_study(small_config(sample_sizes=()))


def test_run_study_rejects_sample_size_below_two():
    with pytest.raises(SmmError, match="BAD_INPUT"):
        run_study(small_config(sample_sizes=(60, 1)))


@pytest.mark.parametrize("parallelism", [0, -1])
def test_run_study_rejects_parallelism_below_one(parallelism):
    with pytest.raises(SmmError, match="BAD_INPUT"):
        run_study(small_config(max_parallelism=parallelism))


@pytest.mark.parametrize(
    "field, value",
    [
        ("replications", 15.0),
        ("replications", True),
        ("sample_sizes", (150.5,)),
        ("sample_sizes", (60, 2.0)),
        ("max_parallelism", 1.5),
        ("max_parallelism", True),
    ],
)
def test_run_study_rejects_counts_that_are_not_integers(field, value):
    # 15.0 and 150.5 raised TypeError inside the run, replications=True ran
    # one replication and max_parallelism=1.5 ran as 1
    with pytest.raises(SmmError, match="BAD_INPUT"):
        run_study(small_config(**{field: value}))


def test_run_study_rejects_population_spec_mismatch():
    from smm.model_spec import one_factor_spec

    with pytest.raises(SmmError, match="DIMENSION_MISMATCH"):
        run_study(small_config(spec=one_factor_spec(3)))


def test_run_study_degenerate_condition():
    crippled = FitOptions(
        max_iterations=1,
        max_restarts=0,
        gradient_tolerance=1e-15,
    )
    with pytest.raises(SmmError, match="CONDITION_DEGENERATE"):
        run_study(small_config(replications=3, fit_options=crippled))


def reference_like_summary(theta_mean=10.05, chi_mean=9.2, df=9):
    parameters = {}
    for i, (mean, sd) in enumerate(REFERENCE_TABLE.blocks["model1"][900].loadings):
        parameters[f"lambda[x{i+1},F1]"] = (mean, sd)
    for i in range(5):
        parameters[f"psi2[x{i+1}]"] = (1.0, 0.05)
    parameters["theta[F1]"] = (theta_mean, 0.43)
    cond = ReplicationSummary(
        parameters=parameters,
        chi_square_mean=chi_mean,
        chi_square_sd=4.3,
        convergence_failures=0,
        r_effective=500,
        df=df,
    )
    return StudySummary(conditions=((900, cond),), replications=500, seed=1, reference="model1")


def test_compare_pass_case_with_expected_z():
    report = compare_to_reference(reference_like_summary(theta_mean=10.05))
    assert report.all_pass
    row = next(r for r in report.rows if r.quantity == "factor mean")
    # paper SD 0.43 over 500 reps: se = 0.01923, z = 0.01/0.01923
    assert row.z == pytest.approx(0.52, abs=0.01)
    assert row.passed


def test_compare_fail_case_with_large_z():
    report = compare_to_reference(reference_like_summary(chi_mean=30.0))
    assert not report.all_pass
    row = next(r for r in report.rows if r.quantity == "chi-square mean")
    assert not row.passed
    assert row.z == pytest.approx(109.4, abs=1.0)


def test_compare_mean_gate_uses_rounding_floor():
    # dev of 0.004 on a tightly estimated loading is within print precision
    summary = reference_like_summary()
    cond = summary.conditions[0][1]
    parameters = dict(cond.parameters)
    parameters["lambda[x1,F1]"] = (0.304, 0.01)
    patched = StudySummary(
        conditions=(
            (
                900,
                ReplicationSummary(
                    parameters=parameters,
                    chi_square_mean=cond.chi_square_mean,
                    chi_square_sd=cond.chi_square_sd,
                    convergence_failures=0,
                    r_effective=500,
                    df=9,
                ),
            ),
        ),
        replications=500,
        seed=1,
        reference="model1",
    )
    report = compare_to_reference(patched)
    row = next(r for r in report.rows if r.quantity == "lambda[x1,F1] mean")
    assert row.tolerance == pytest.approx(0.005)
    assert row.passed


@pytest.mark.parametrize("seed", [127, 305])
def test_compare_passes_small_studies_that_the_printed_sd_failed(seed):
    # lambda[x1] of model1 at n=900 prints its SD as 0.01 but measures 0.0134:
    # gated on 0.01 these 5-replication studies failed at z = 4.01 and 4.09
    config = serialize.study_from_dict(serialize.load_json(study_path("table1_model1_n900")))
    summary = run_study(replace(config, seed=Seed(seed), replications=5))
    report = compare_to_reference(summary)
    assert report.all_pass, [r for r in report.rows if r.passed is False]


def test_compare_fails_a_mean_six_true_ses_off():
    measured_sd, r_eff = 0.0134, 5
    biased = 0.30 + 6.0 * measured_sd / np.sqrt(r_eff)
    summary = reference_like_summary()
    cond = summary.conditions[0][1]
    parameters = dict(cond.parameters, **{"lambda[x1,F1]": (biased, measured_sd)})
    patched = replace(
        summary,
        conditions=((900, replace(cond, parameters=parameters, r_effective=r_eff)),),
        replications=r_eff,
    )
    row = next(r for r in compare_to_reference(patched).rows if r.quantity == "lambda[x1,F1] mean")
    assert not row.passed


def test_compare_sd_rows_are_informational():
    report = compare_to_reference(reference_like_summary())
    sd_rows = [r for r in report.rows if r.quantity.endswith("sd")]
    assert sd_rows
    assert all(r.passed is None for r in sd_rows)
    assert all(r.tolerance is None for r in sd_rows)


def test_compare_df_mismatch_fails():
    report = compare_to_reference(reference_like_summary(df=5))
    row = next(r for r in report.rows if r.quantity == "df")
    assert not row.passed
    assert not report.all_pass


def test_compare_requires_reference_name():
    summary = StudySummary(conditions=(), replications=1, seed=1, reference=None)
    with pytest.raises(SmmError, match="MISSING_REFERENCE_CONDITION"):
        compare_to_reference(summary)


def test_compare_unknown_block():
    summary = StudySummary(conditions=(), replications=1, seed=1, reference="model9")
    with pytest.raises(SmmError, match="MISSING_REFERENCE_CONDITION"):
        compare_to_reference(summary)


def test_compare_unknown_sample_size():
    base = reference_like_summary()
    summary = StudySummary(
        conditions=((123, base.conditions[0][1]),),
        replications=500,
        seed=1,
        reference="model1",
    )
    with pytest.raises(SmmError, match="MISSING_REFERENCE_CONDITION"):
        compare_to_reference(summary)


def test_reference_table_spot_values():
    assert REFERENCE_TABLE.blocks["model1"][900].factor_mean == (10.04, 0.43)
    assert REFERENCE_TABLE.blocks["model2"][150].chi_square == (28.46, 9.99)
    assert REFERENCE_TABLE.blocks["model2"][900].loadings[0] == (0.56, 0.03)
    for block in REFERENCE_TABLE.blocks.values():
        for entry in block.values():
            assert entry.df == 9
            assert len(entry.loadings) == 5
