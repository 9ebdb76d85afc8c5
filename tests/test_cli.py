import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import smm
from smm.cli import main
from smm.estimator import FitResult
from smm.fixtures import reference_model_spec, reference_population
from smm.model_spec import ModelSpec, ParameterMatrices, fixed, free, one_factor_spec
from smm.serialize import (
    canonical_json,
    model_to_dict,
    population_to_dict,
    write_csv,
)
from smm.moments import Dataset
from smm.simulate import Seed, draw_sample, population_moments


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(canonical_json(model_to_dict(reference_model_spec())))
    return str(path)


@pytest.fixture
def scaled_model_file(tmp_path):
    """Reference pattern whose loading starts carry the generating values."""
    spec = one_factor_spec(5, loading_starts=(0.3, 0.4, 0.5, 0.6, 0.7))
    path = tmp_path / "scaled_model.json"
    path.write_text(canonical_json(model_to_dict(spec)))
    return str(path)


@pytest.fixture
def population_files(tmp_path):
    paths = {}
    for key in ("model1", "model2"):
        path = tmp_path / f"{key}.json"
        path.write_text(canonical_json(population_to_dict(reference_population(key))))
        paths[key] = str(path)
    return paths


@pytest.fixture
def data_files(tmp_path):
    paths = {}
    for key, seed in (("model1", 101), ("model2", 102)):
        data = draw_sample(reference_population(key), 500, Seed(seed))
        path = tmp_path / f"{key}.csv"
        write_csv(data, path)
        paths[key] = str(path)
    return paths


@pytest.fixture
def exact_model1_file(tmp_path):
    """Dataset whose sample moments equal the model1 population moments.

    A raw draw is whitened against its own sample moments and recolored
    with the population Cholesky, so the diagnose verdict on this file
    depends only on the estimator, never on sampling noise.
    """
    pop = reference_population("model1")
    mean, sigma = population_moments(pop)
    raw = draw_sample(pop, 200, Seed(7)).values
    centered = raw - raw.mean(axis=0)
    sample_cov = centered.T @ centered / (raw.shape[0] - 1)
    white = centered @ np.linalg.inv(np.linalg.cholesky(sample_cov)).T
    values = white @ np.linalg.cholesky(sigma).T + mean
    path = tmp_path / "exact_model1.csv"
    write_csv(Dataset(values=values, variable_names=pop.variable_names), path)
    return str(path)


def test_fit_command(model_file, data_files, tmp_path, capsys):
    out = tmp_path / "fit.json"
    code = main(["fit", model_file, data_files["model1"], "--json", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "df = 9" in printed
    assert "converged = True" in printed
    doc = json.loads(out.read_text())
    assert doc["converged"] is True
    assert doc["df"] == 9
    assert len(doc["free_parameters"]["values"]) == 11


def test_fit_json_is_canonical(model_file, data_files, tmp_path):
    out = tmp_path / "fit.json"
    main(["fit", model_file, data_files["model1"], "--json", str(out)])
    text = out.read_text()
    assert canonical_json(json.loads(text)) == text


def test_fit_wrong_column_count(model_file, tmp_path, capsys):
    narrow = tmp_path / "narrow.csv"
    narrow.write_text("a,b,c\n1,2,3\n4,5,6\n7,8,9\n")
    code = main(["fit", model_file, str(narrow)])
    assert code == 1
    assert "DIMENSION_MISMATCH" in capsys.readouterr().err


def test_fit_constant_column(model_file, tmp_path, capsys):
    values = draw_sample(reference_population("model1"), 50, Seed(5)).values.copy()
    values[:, 0] = 2.0
    path = tmp_path / "flat.csv"
    from smm.moments import Dataset

    with pytest.warns(UserWarning):
        write_csv(Dataset(values=values, variable_names=("x1", "x2", "x3", "x4", "x5")), path)
        code = main(["fit", model_file, str(path)])
    assert code == 1
    assert "NOT_POSITIVE_DEFINITE" in capsys.readouterr().err


@pytest.mark.parametrize("start", [0.0, -1.0])
def test_fit_rejects_a_nonpositive_variance_start(start, data_files, tmp_path, capsys):
    spec = reference_model_spec()
    spec = replace(spec, unique_variances=(free(start),) + spec.unique_variances[1:])
    path = tmp_path / "model.json"
    path.write_text(canonical_json(model_to_dict(spec)))
    assert main(["fit", str(path), data_files["model1"]]) == 1
    assert "NONPOSITIVE_VARIANCE_START" in capsys.readouterr().err


def test_fit_nonconvergence_exit_code(model_file, data_files, monkeypatch):
    import smm.estimator

    def fake_fit(spec, sample, options=None):
        return FitResult(
            estimates=ParameterMatrices(
                loadings=np.zeros((5, 1)),
                intercepts=np.zeros(5),
                factor_means=np.zeros(1),
                factor_cov=np.eye(1),
                unique_variances=np.ones(5),
            ),
            f_min=0.5,
            chi_square=250.0,
            df=9,
            n=500,
            converged=False,
            iterations=500,
            grad_inf_norm=0.1,
            retries_used=3,
            free_values=np.zeros(11),
            labels=tuple(f"p{i}" for i in range(11)),
        )

    # cmd_fit imports fit from the estimator when it runs
    monkeypatch.setattr(smm.estimator, "fit", fake_fit)
    code = main(["fit", model_file, data_files["model1"]])
    assert code == 2


def test_fit_malformed_model_json(tmp_path, data_files, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "loadings": [\n}\n')
    code = main(["fit", str(bad), data_files["model1"]])
    assert code == 1
    assert "line 3" in capsys.readouterr().err


def test_means_consistent_data(scaled_model_file, data_files, capsys):
    code = main(["means", scaled_model_file, data_files["model1"]])
    assert code == 0
    printed = capsys.readouterr().out
    assert "-> CONSISTENT" in printed
    assert "F1:" in printed


def test_means_inconsistent_data(scaled_model_file, data_files, tmp_path, capsys):
    out = tmp_path / "means.json"
    code = main(["means", scaled_model_file, data_files["model2"], "--json", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "INCONSISTENT" in printed
    doc = json.loads(out.read_text())
    # population least-squares value is 11.5/1.35; n=500 keeps it close
    assert doc["factor_means"]["F1"] == pytest.approx(11.5 / 1.35, abs=0.5)
    assert doc["proportionality"]["verdict"] == "INCONSISTENT"
    assert len(doc["ratios"]) == 5


def test_means_constant_loadings_serialize_cleanly(model_file, data_files, tmp_path):
    # all-equal loading starts leave the rank correlation undefined; the
    # JSON output must hold null rather than NaN
    out = tmp_path / "means.json"
    code = main(["means", model_file, data_files["model1"], "--json", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["proportionality"]["rank_corr"] is None
    # equal loadings w make the estimate sum(m) / (p w)
    assert doc["factor_means"]["F1"] == pytest.approx(25.0 / 2.5, abs=0.5)


def test_means_zero_loading(tmp_path, data_files, capsys):
    spec = reference_model_spec()
    zeroed = ModelSpec(
        loadings=((fixed(0.0),),) + spec.loadings[1:],
        intercepts=spec.intercepts,
        factor_means=spec.factor_means,
        factor_cov=spec.factor_cov,
        unique_variances=spec.unique_variances,
    )
    path = tmp_path / "zeroed.json"
    path.write_text(canonical_json(model_to_dict(zeroed)))
    code = main(["means", str(path), data_files["model1"]])
    assert code == 1
    err = capsys.readouterr().err
    assert "DIVISION_BY_NEAR_ZERO_LOADING" in err
    assert "x1" in err


def test_simulate_deterministic(population_files, tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(["simulate", population_files["model2"], "--n", "25", "--seed", "9", "--out", str(first)]) == 0
    assert main(["simulate", population_files["model2"], "--n", "25", "--seed", "9", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_simulate_seed_changes_output(population_files, tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    main(["simulate", population_files["model1"], "--n", "25", "--seed", "1", "--out", str(first)])
    main(["simulate", population_files["model1"], "--n", "25", "--seed", "2", "--out", str(second)])
    assert first.read_bytes() != second.read_bytes()


def test_simulate_rejects_zero_rows(population_files, tmp_path, capsys):
    out = tmp_path / "none.csv"
    code = main(["simulate", population_files["model1"], "--n", "0", "--out", str(out)])
    assert code == 1
    assert "INVALID_SAMPLE_SIZE" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["replicate", "simulate"])
@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_out_of_range_is_an_input_error_without_a_traceback(command, seed, population_files, tmp_path):
    args = {
        "replicate": ["replicate", "table1_model1_n900", "--reps", "2"],
        "simulate": ["simulate", population_files["model1"], "--n", "5", "--out", str(tmp_path / "x.csv")],
    }[command]
    env = dict(os.environ, PYTHONPATH=str(Path(smm.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "smm", *args, "--seed", seed], capture_output=True, text=True, env=env
    )
    assert done.returncode == 1
    assert "argument --seed: must be an integer in [0, 2**64)" in done.stderr
    assert "Traceback" not in done.stderr + done.stdout


def test_replicate_list(capsys):
    assert main(["replicate", "--list"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert "table1_model1_n900" in printed
    assert len(printed) == 6


def test_replicate_bundled_with_overrides(tmp_path, capsys):
    out = tmp_path / "study.json"
    code = main(
        ["replicate", "table1_model1_n900", "--reps", "4", "--seed", "77", "--json", str(out)]
    )
    assert code == 0
    assert "4 converged" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["summary"]["replications"] == 4
    assert doc["summary"]["seed"] == 77
    assert "comparison" not in doc


def test_replicate_compare_exit_code_matches_report(tmp_path, capsys):
    out = tmp_path / "study.json"
    code = main(
        [
            "replicate",
            "table1_model1_n900",
            "--reps",
            "6",
            "--seed",
            "13",
            "--compare-paper",
            "--json",
            str(out),
        ]
    )
    doc = json.loads(out.read_text())
    assert "comparison" in doc
    assert code == (0 if doc["comparison"]["all_pass"] else 3)
    printed = capsys.readouterr().out
    assert ("overall: PASS" in printed) == doc["comparison"]["all_pass"]


def test_replicate_study_from_path(tmp_path, population_files, model_file, capsys):
    study = {
        "population": json.loads(open(population_files["model1"]).read()),
        "model": json.loads(open(model_file).read()),
        "sample_sizes": [60],
        "replications": 3,
        "seed": 5,
        "max_parallelism": 1,
        "reference": None,
    }
    path = tmp_path / "local_study.json"
    path.write_text(canonical_json(study))
    assert main(["replicate", str(path)]) == 0
    assert "n = 60" in capsys.readouterr().out


def test_replicate_rejects_parallelism_below_one(capsys):
    code = main(["replicate", "table1_model1_n900", "--reps", "2", "--parallelism", "-3"])
    assert code == 1
    assert "BAD_INPUT" in capsys.readouterr().err


def test_replicate_unknown_study(capsys):
    code = main(["replicate", "no_such_study"])
    assert code == 1
    assert "available" in capsys.readouterr().err


def test_replicate_without_study_or_list(capsys):
    code = main(["replicate"])
    assert code == 1
    assert "study file or --list" in capsys.readouterr().err


def test_diagnose_flags_reversed_means(model_file, data_files, tmp_path, capsys):
    out = tmp_path / "diag.json"
    code = main(["diagnose", model_file, data_files["model2"], "--json", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "INCONSISTENT" in printed
    doc = json.loads(out.read_text())
    assert doc["fit"]["converged"] is True
    assert doc["covariance_only"]["converged"] is True
    # covariance-only loadings recover the generating pattern, not the
    # mean-tilted values of the joint fit
    assert doc["covariance_only"]["loadings"] == pytest.approx(
        [0.3, 0.4, 0.5, 0.6, 0.7], abs=0.15
    )
    assert doc["proportionality"]["verdict"] == "INCONSISTENT"
    assert len(doc["proportionality"]["ratios"]) == 5


def test_diagnose_passes_proportional_means(model_file, exact_model1_file, tmp_path, capsys):
    out = tmp_path / "diag.json"
    code = main(["diagnose", model_file, exact_model1_file, "--json", str(out)])
    assert code == 0
    assert "-> CONSISTENT" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    # means are 10x the loadings in the generating model, exactly
    assert doc["proportionality"]["ratios"] == pytest.approx([10.0] * 5, abs=1e-3)
    assert doc["proportionality"]["cv"] < 1e-3


def test_diagnose_requires_one_factor(tmp_path, data_files, capsys):
    two_factor = ModelSpec(
        loadings=(
            (fixed(0.5), fixed(0.0)),
            (fixed(0.5), fixed(0.0)),
            (fixed(0.0), fixed(0.5)),
            (fixed(0.0), fixed(0.5)),
            (fixed(0.0), fixed(0.5)),
        ),
        intercepts=tuple(fixed(0.0) for _ in range(5)),
        factor_means=(fixed(0.0), fixed(0.0)),
        factor_cov=((fixed(1.0), fixed(0.0)), (fixed(0.0), fixed(1.0))),
        unique_variances=tuple(fixed(1.0) for _ in range(5)),
    )
    path = tmp_path / "two_factor.json"
    path.write_text(canonical_json(model_to_dict(two_factor)))
    code = main(["diagnose", str(path), data_files["model1"]])
    assert code == 1
    assert "one-factor" in capsys.readouterr().err


def test_help_exits_zero():
    assert main(["--help"]) == 0


def test_no_arguments_is_input_error():
    assert main([]) == 1


def test_unknown_command_is_input_error():
    assert main(["frobnicate"]) == 1


def test_missing_file_is_input_error(model_file, capsys):
    code = main(["fit", model_file, "/nonexistent/data.csv"])
    assert code == 1
    assert capsys.readouterr().err
