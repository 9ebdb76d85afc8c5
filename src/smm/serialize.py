"""JSON and CSV input/output.

All JSON emitted by the package goes through canonical_json, which fixes
key order, indentation and float formatting, so that re-serializing a
parsed document reproduces it byte for byte. Model cells are written as
{"fixed": v} or {"free": start}, with the bare string "free" accepted as
shorthand for a free cell using the default start.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import SmmError, BAD_INPUT
from .model_spec import ModelSpec, ParameterCell, fixed, free
from .moments import Dataset
from .simulate import PopulationModel, Seed, explicit, structured

if TYPE_CHECKING:
    # annotations only: reading a model, a population or data loads neither
    from .estimator import FitResult
    from .montecarlo import ComparisonReport, StudyConfig, StudySummary

CSV_FORMAT = "%.17g"


def canonical_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def load_json(path) -> dict:
    """Read a JSON file, reporting parse errors with their line number."""
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise SmmError(BAD_INPUT, f"{path}: line {err.lineno}: {err.msg}") from None


def finite_or_none(value):
    """None for missing or non-finite values, since JSON has no NaN or inf."""
    if value is None:
        return None
    value = float(value)
    return value if math.isfinite(value) else None


# -- model specs ---------------------------------------------------------


def _cell_to_json(cell: ParameterCell):
    if not cell.is_free:
        return {"fixed": cell.value}
    return "free" if cell.value is None else {"free": cell.value}


def _cell_from_json(obj, where: str) -> ParameterCell:
    if obj == "free":
        return free()
    if isinstance(obj, dict):
        if set(obj) == {"fixed"}:
            return fixed(obj["fixed"])
        if set(obj) == {"free"}:
            return free(obj["free"])
    raise SmmError(BAD_INPUT, f'{where}: expected {{"fixed": v}}, {{"free": start}} or "free"')


def model_to_dict(spec: ModelSpec) -> dict:
    return {
        "loadings": [[_cell_to_json(c) for c in row] for row in spec.loadings],
        "intercepts": [_cell_to_json(c) for c in spec.intercepts],
        "factor_means": [_cell_to_json(c) for c in spec.factor_means],
        "factor_cov": [[_cell_to_json(c) for c in row] for row in spec.factor_cov],
        "unique_variances": [_cell_to_json(c) for c in spec.unique_variances],
        "variable_names": list(spec.variable_names),
        "factor_names": list(spec.factor_names),
    }


def model_from_dict(doc: dict) -> ModelSpec:
    try:
        return ModelSpec(
            loadings=tuple(
                tuple(_cell_from_json(c, f"loadings[{i}][{j}]") for j, c in enumerate(row))
                for i, row in enumerate(doc["loadings"])
            ),
            intercepts=tuple(
                _cell_from_json(c, f"intercepts[{i}]") for i, c in enumerate(doc["intercepts"])
            ),
            factor_means=tuple(
                _cell_from_json(c, f"factor_means[{i}]")
                for i, c in enumerate(doc["factor_means"])
            ),
            factor_cov=tuple(
                tuple(_cell_from_json(c, f"factor_cov[{i}][{j}]") for j, c in enumerate(row))
                for i, row in enumerate(doc["factor_cov"])
            ),
            unique_variances=tuple(
                _cell_from_json(c, f"unique_variances[{i}]")
                for i, c in enumerate(doc["unique_variances"])
            ),
            variable_names=tuple(doc.get("variable_names", ())),
            factor_names=tuple(doc.get("factor_names", ())),
        )
    except KeyError as err:
        raise SmmError(BAD_INPUT, f"model file is missing {err.args[0]!r}") from None
    except (ValueError, TypeError) as err:
        raise SmmError(BAD_INPUT, f"model file invalid: {err}") from None


# -- populations ---------------------------------------------------------


def population_to_dict(pop: PopulationModel) -> dict:
    doc = {
        "loadings": pop.loadings.tolist(),
        "factor_cov": pop.factor_cov.tolist(),
        "unique_variances": pop.unique_variances.tolist(),
        "variable_names": list(pop.variable_names),
    }
    if pop.means_kind == "structured":
        doc["means"] = {
            "intercepts": pop.intercepts.tolist(),
            "factor_means": pop.factor_means.tolist(),
        }
    else:
        doc["means"] = {"mean_vector": pop.mean_vector.tolist()}
    return doc


def population_from_dict(doc: dict) -> PopulationModel:
    try:
        means = doc["means"]
        common = dict(
            lam=doc["loadings"],
            phi=doc["factor_cov"],
            psi2=doc["unique_variances"],
            variable_names=tuple(doc.get("variable_names", ())),
        )
        if "mean_vector" in means:
            return explicit(mean_vector=means["mean_vector"], **common)
        return structured(
            nu=means["intercepts"], theta=means["factor_means"], **common
        )
    except KeyError as err:
        raise SmmError(BAD_INPUT, f"population file is missing {err.args[0]!r}") from None
    except (ValueError, TypeError) as err:
        raise SmmError(BAD_INPUT, f"population file invalid: {err}") from None


# -- studies -------------------------------------------------------------


def study_to_dict(config: StudyConfig) -> dict:
    return {
        "population": population_to_dict(config.population),
        "model": model_to_dict(config.spec),
        "sample_sizes": list(config.sample_sizes),
        "replications": config.replications,
        "seed": config.seed.master,
        "max_parallelism": config.max_parallelism,
        "reference": config.reference,
    }


def _json_int(value, field: str) -> int:
    """A JSON integer as it was written: a float, a string or a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SmmError(BAD_INPUT, f"study file: {field} must be an integer, got {value!r}")
    return value


def study_from_dict(doc: dict) -> StudyConfig:
    from .montecarlo import StudyConfig

    try:
        return StudyConfig(
            population=population_from_dict(doc["population"]),
            spec=model_from_dict(doc["model"]),
            sample_sizes=tuple(_json_int(n, "sample_sizes") for n in doc["sample_sizes"]),
            replications=_json_int(doc["replications"], "replications"),
            seed=Seed(_json_int(doc["seed"], "seed")),
            max_parallelism=_json_int(doc.get("max_parallelism", 1), "max_parallelism"),
            reference=doc.get("reference"),
        )
    except KeyError as err:
        raise SmmError(BAD_INPUT, f"study file is missing {err.args[0]!r}") from None
    except (ValueError, TypeError) as err:
        raise SmmError(BAD_INPUT, f"study file invalid: {err}") from None


# -- results -------------------------------------------------------------


def fit_result_to_dict(result: FitResult) -> dict:
    est = result.estimates
    return {
        "estimates": {
            "loadings": est.loadings.tolist(),
            "intercepts": est.intercepts.tolist(),
            "factor_means": est.factor_means.tolist(),
            "factor_cov": est.factor_cov.tolist(),
            "unique_variances": est.unique_variances.tolist(),
        },
        "free_parameters": {
            "labels": list(result.labels),
            "values": [float(v) for v in result.free_values],
        },
        "f_min": result.f_min,
        "chi_square": result.chi_square,
        "df": result.df,
        "n": result.n,
        "converged": result.converged,
        "iterations": result.iterations,
        "grad_inf_norm": result.grad_inf_norm,
        "retries_used": result.retries_used,
    }


def summary_to_dict(summary: StudySummary) -> dict:
    return {
        "replications": summary.replications,
        "seed": summary.seed,
        "reference": summary.reference,
        "conditions": [
            {
                "n": n,
                "df": cond.df,
                "r_effective": cond.r_effective,
                "convergence_failures": cond.convergence_failures,
                "chi_square": {"mean": cond.chi_square_mean, "sd": cond.chi_square_sd},
                "parameters": [
                    {"name": name, "mean": mean, "sd": sd}
                    for name, (mean, sd) in cond.parameters.items()
                ],
            }
            for n, cond in summary.conditions
        ],
    }


def comparison_to_dict(report: ComparisonReport) -> dict:
    return {
        "reference": report.reference,
        "all_pass": report.all_pass,
        "rows": [
            {
                "n": row.n,
                "quantity": row.quantity,
                "artifact": row.artifact,
                "paper": row.paper,
                "deviation": row.deviation,
                "z": finite_or_none(row.z),
                "tolerance": row.tolerance,
                "passed": row.passed,
            }
            for row in report.rows
        ],
    }


# -- CSV -----------------------------------------------------------------


def write_csv(data: Dataset, path) -> None:
    """Write a dataset with a header row and 17-significant-digit values."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(data.variable_names)
        for row in data.values:
            writer.writerow([CSV_FORMAT % v for v in row])


def read_csv(path) -> Dataset:
    """Read a numeric CSV with a required header row.

    Errors carry 1-based line numbers; every data row must match the
    header width and parse as decimal floats.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SmmError(BAD_INPUT, f"{path}: line 1: empty file, expected a header row") from None
        names = tuple(name.strip() for name in header)
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(names):
                raise SmmError(
                    BAD_INPUT,
                    f"{path}: line {line_no}: {len(row)} fields, header has {len(names)}",
                )
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                raise SmmError(
                    BAD_INPUT, f"{path}: line {line_no}: non-numeric value"
                ) from None
    if not rows:
        raise SmmError(BAD_INPUT, f"{path}: no data rows")
    return Dataset(values=np.array(rows), variable_names=names)
