import numpy as np
import pytest

from smm.errors import SmmError
from smm.estimator import fit
from smm.fixtures import (
    bundled_studies,
    reference_model_spec,
    reference_population,
    study_path,
)
from smm.model_spec import fixed, free
from smm.moments import Dataset, compute_moments
from smm.montecarlo import compare_to_reference, run_study
from smm.serialize import (
    canonical_json,
    comparison_to_dict,
    fit_result_to_dict,
    load_json,
    model_from_dict,
    model_to_dict,
    population_from_dict,
    population_to_dict,
    read_csv,
    study_from_dict,
    study_to_dict,
    summary_to_dict,
    write_csv,
)
from smm.simulate import Seed, draw_sample


def test_canonical_json_is_stable():
    doc = {"b": 1, "a": [1.5, None, True]}
    text = canonical_json(doc)
    assert text == canonical_json(doc)
    assert text.startswith('{\n  "a"')
    assert text.endswith("\n")


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


def test_model_round_trip_bytes():
    spec = reference_model_spec()
    doc = model_to_dict(spec)
    text = canonical_json(doc)
    again = canonical_json(model_to_dict(model_from_dict(doc)))
    assert again == text


def test_model_cells_shorthand_and_start():
    doc = model_to_dict(reference_model_spec())
    doc["loadings"][0][0] = "free"
    doc["loadings"][1][0] = {"free": 0.8}
    doc["intercepts"][0] = {"fixed": 2.5}
    spec = model_from_dict(doc)
    assert spec.loadings[0][0].is_free and spec.loadings[0][0].value is None
    assert spec.loadings[1][0].value == 0.8
    assert spec.intercepts[0].value == 2.5


def test_model_rejects_malformed_cell():
    doc = model_to_dict(reference_model_spec())
    doc["loadings"][0][0] = {"pinned": 1.0}
    with pytest.raises(SmmError, match=r"loadings\[0\]\[0\]"):
        model_from_dict(doc)


def test_model_missing_key():
    doc = model_to_dict(reference_model_spec())
    del doc["unique_variances"]
    with pytest.raises(SmmError, match="missing 'unique_variances'"):
        model_from_dict(doc)


def test_population_round_trip_both_kinds():
    for key in ("model1", "model2"):
        pop = reference_population(key)
        doc = population_to_dict(pop)
        again = population_from_dict(doc)
        assert canonical_json(population_to_dict(again)) == canonical_json(doc)
        assert again.means_kind == pop.means_kind


def test_population_missing_means():
    doc = population_to_dict(reference_population("model1"))
    doc["means"] = {}
    with pytest.raises(SmmError, match="missing"):
        population_from_dict(doc)


def test_study_round_trip_bytes():
    for name in bundled_studies():
        doc = load_json(study_path(name))
        config = study_from_dict(doc)
        assert canonical_json(study_to_dict(config)) == canonical_json(doc)


def test_study_missing_seed():
    doc = load_json(study_path("table1_model1_n900"))
    del doc["seed"]
    with pytest.raises(SmmError, match="missing 'seed'"):
        study_from_dict(doc)


@pytest.mark.parametrize(
    "key, value",
    [
        ("seed", 7.5),
        ("seed", True),
        ("replications", 3.9),
        ("replications", "3"),
        ("sample_sizes", [150.7]),
        ("max_parallelism", 1.9),
    ],
)
def test_study_integers_must_be_json_integers(key, value):
    # int() would truncate these to a valid study and run it without a word
    doc = load_json(study_path("table1_model1_n900"))
    doc[key] = value
    with pytest.raises(SmmError, match=f"{key} must be an integer") as caught:
        study_from_dict(doc)
    assert caught.value.code == "BAD_INPUT"


def test_load_json_reports_line_numbers(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{\n  "a": 1,\n  "b": oops\n}\n')
    with pytest.raises(SmmError, match="line 3"):
        load_json(bad)


def test_fit_result_serializes(tmp_path):
    pop = reference_population("model1")
    sample = compute_moments(draw_sample(pop, 200, Seed(17)))
    result = fit(reference_model_spec(), sample)
    doc = fit_result_to_dict(result)
    text = canonical_json(doc)
    assert '"converged": true' in text
    assert doc["df"] == 9
    assert doc["n"] == 200
    assert len(doc["free_parameters"]["labels"]) == 11
    assert doc["estimates"]["loadings"] == result.estimates.loadings.tolist()


def test_summary_and_comparison_serialize():
    import dataclasses

    config = study_from_dict(load_json(study_path("table1_model1_n900")))
    config = dataclasses.replace(config, replications=5, sample_sizes=(900,))
    summary = run_study(config)
    summary_doc = summary_to_dict(summary)
    assert summary_doc["conditions"][0]["n"] == 900
    assert summary_doc["conditions"][0]["parameters"][0]["name"] == "lambda[x1,F1]"
    # five replications will not satisfy the gate; serialization still works
    report = compare_to_reference(summary)
    report_doc = comparison_to_dict(report)
    text = canonical_json(report_doc)
    assert '"quantity"' in text
    assert isinstance(report_doc["all_pass"], bool)


def test_csv_round_trip_exact(tmp_path):
    pop = reference_population("model2")
    data = draw_sample(pop, 40, Seed(23))
    path = tmp_path / "sample.csv"
    write_csv(data, path)
    back = read_csv(path)
    assert back.variable_names == data.variable_names
    # %.17g output parses back to the identical doubles
    assert np.array_equal(back.values, data.values)


def test_csv_header_line(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("a,b\n1.5,2.5\n")
    data = read_csv(path)
    assert data.variable_names == ("a", "b")
    assert data.values.tolist() == [[1.5, 2.5]]


def test_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(SmmError, match="line 1"):
        read_csv(path)


def test_csv_width_mismatch_line_number(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(SmmError, match="line 3"):
        read_csv(path)


def test_csv_non_numeric_line_number(tmp_path):
    path = tmp_path / "words.csv"
    path.write_text("a,b\n1,2\nx,4\n")
    with pytest.raises(SmmError, match="line 3: non-numeric"):
        read_csv(path)


def test_csv_without_data_rows(tmp_path):
    path = tmp_path / "header_only.csv"
    path.write_text("a,b\n")
    with pytest.raises(SmmError, match="no data rows"):
        read_csv(path)


def test_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("a,b\n1,2\n\n3,4\n")
    data = read_csv(path)
    assert data.n == 2


def test_cell_value_types_preserved():
    spec = reference_model_spec()
    doc = model_to_dict(spec)
    # fixed zero intercepts survive as numbers, free cells as shorthand
    assert doc["intercepts"][0] == {"fixed": 0.0}
    assert doc["factor_means"][0] == "free" or "free" in doc["factor_means"][0]


def test_bundled_studies_listing():
    names = bundled_studies()
    assert "table1_model1_n900" in names
    assert list(names) == sorted(names)
    with pytest.raises(FileNotFoundError, match="table1_model1_n900"):
        study_path("no_such_study")
