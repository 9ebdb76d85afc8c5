import importlib
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from smm.errors import SmmError
from smm.smm_core import (
    equal_loading_mean,
    factor_means_ls,
    proportionality_report,
    rank_correlation,
)

LOADINGS = np.array([0.3, 0.4, 0.5, 0.6, 0.7])
MEANS_UP = np.array([3.0, 4.0, 5.0, 6.0, 7.0])
MEANS_DOWN = np.array([7.0, 6.0, 5.0, 4.0, 3.0])


def test_factor_means_ls_recovers_generating_mean():
    theta = factor_means_ls(LOADINGS[:, None], MEANS_UP, np.zeros(5))
    np.testing.assert_allclose(theta, [10.0], atol=1e-12)


def test_factor_means_ls_reversed_means():
    # brute-force check: scan a grid for the least-squares minimum
    grid = np.linspace(5, 12, 140001)
    residuals = ((MEANS_DOWN[:, None] - LOADINGS[:, None] * grid[None, :]) ** 2).sum(axis=0)
    brute = grid[np.argmin(residuals)]
    theta = factor_means_ls(LOADINGS[:, None], MEANS_DOWN, np.zeros(5))
    assert abs(theta[0] - brute) < 1e-4
    assert abs(theta[0] - 11.5 / 1.35) < 1e-12


def test_factor_means_ls_zero_column_is_singular():
    lam = np.column_stack([LOADINGS, np.zeros(5)])
    with pytest.raises(SmmError, match="SINGULAR_CROSSPRODUCT"):
        factor_means_ls(lam, MEANS_UP, np.zeros(5))


def test_hadamard_ratio_constant_for_proportional_means():
    np.testing.assert_allclose(proportionality_report(LOADINGS, MEANS_UP).ratios, np.full(5, 10.0))


def test_hadamard_ratio_reversed_means():
    ratios = proportionality_report(LOADINGS, MEANS_DOWN).ratios
    np.testing.assert_allclose(ratios, MEANS_DOWN / LOADINGS)
    assert abs(ratios[0] - 70 / 3) < 1e-12
    assert ratios[2] == 10.0


def test_equal_loading_mean_hand_value():
    assert equal_loading_mean(0.5, MEANS_UP) == pytest.approx(10.0)


def test_equal_loading_mean_halving_w_doubles_theta():
    assert equal_loading_mean(0.25, MEANS_UP) == pytest.approx(20.0)


def test_equal_loading_mean_diverges_at_zero():
    with pytest.raises(SmmError, match="THEOREM1_DIVERGENCE"):
        equal_loading_mean(0.0, MEANS_UP)


def test_equal_loading_mean_matches_average_of_ratios():
    for w in (1.0, 0.4, 0.05):
        direct = equal_loading_mean(w, MEANS_UP)
        averaged = float(np.mean(MEANS_UP / w))
        assert abs(direct - averaged) <= 1e-12 * abs(averaged)


@settings(deadline=None, max_examples=80)
@given(
    w=st.floats(min_value=1e-6, max_value=10.0),
    c=st.floats(min_value=1e-3, max_value=1e3),
)
def test_equal_loading_scaling_law(w, c):
    base = equal_loading_mean(w, MEANS_UP)
    scaled = equal_loading_mean(c * w, MEANS_UP)
    assert abs(scaled * c - base) <= 1e-12 * abs(base)


@settings(deadline=None, max_examples=150)
@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(2, 8), st.integers(1, 3)),
        elements=st.floats(-1.5, 1.5),
    ),
    st.data(),
)
def test_round_trip_recovers_theta(lam, data):
    p, q = lam.shape
    if p < q or np.linalg.matrix_rank(lam, tol=1e-3) < q:
        return
    if min(np.linalg.svd(lam, compute_uv=False)) < 0.05:
        return
    theta = np.array(data.draw(st.lists(st.floats(-20, 20), min_size=q, max_size=q)))
    nu = np.array(data.draw(st.lists(st.floats(-5, 5), min_size=p, max_size=p)))
    mu = nu + lam @ theta
    recovered = factor_means_ls(lam, mu, nu)
    np.testing.assert_allclose(recovered, theta, atol=1e-10)


def test_one_factor_consistency_with_constant_ratios():
    theta = factor_means_ls(LOADINGS[:, None], MEANS_UP, np.zeros(5))
    ratios = proportionality_report(LOADINGS, MEANS_UP).ratios
    assert np.allclose(ratios, ratios[0])
    assert abs(theta[0] - ratios[0]) < 1e-10


def test_proportionality_consistent_case():
    report = proportionality_report(LOADINGS, MEANS_UP)
    assert report.cv == pytest.approx(0.0, abs=1e-12)
    assert report.verdict == "CONSISTENT"
    assert report.mean_ratio == pytest.approx(10.0)
    assert report.rank_corr == pytest.approx(1.0)


def test_proportionality_reversed_case():
    report = proportionality_report(LOADINGS, MEANS_DOWN)
    ratios = MEANS_DOWN / LOADINGS
    # independent route for the coefficient of variation
    expected_cv = statistics.stdev(ratios) / statistics.mean(ratios)
    assert report.cv == pytest.approx(expected_cv)
    assert report.cv == pytest.approx(0.639, abs=0.005)
    assert report.verdict == "INCONSISTENT"
    assert report.rank_corr == pytest.approx(-1.0)


def test_proportionality_two_points():
    report = proportionality_report(np.array([0.2, 0.4]), np.array([1.0, 2.0]))
    assert report.cv == pytest.approx(0.0, abs=1e-12)
    assert report.verdict == "CONSISTENT"


def test_proportionality_excludes_near_zero_loadings():
    lam = np.array([0.3, 0.0, 0.5])
    report = proportionality_report(lam, np.array([3.0, 4.0, 5.0]))
    assert report.excluded == (1,)
    assert np.isnan(report.ratios[1])
    assert len(report.warnings) == 1
    assert report.mean_ratio == pytest.approx(10.0)


def test_proportionality_verdict_compares_cv_with_the_threshold():
    lam = np.array([0.3, 0.4])
    # ratios 10 and 11: cv = 0.067, above CV_THRESHOLD = 0.05
    assert proportionality_report(lam, np.array([3.0, 4.4])).verdict == "INCONSISTENT"
    # ratios 10 and 10.4: cv = 0.028
    assert proportionality_report(lam, np.array([3.0, 4.16])).verdict == "CONSISTENT"


@pytest.mark.parametrize("ties", [False, True])
def test_rank_correlation_matches_scipy_spearman(ties):
    from scipy.stats import spearmanr

    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(2, 12))
        if ties:
            a = rng.integers(0, 4, n).astype(float)
            b = rng.integers(0, 4, n).astype(float)
        else:
            a, b = rng.normal(size=n), rng.normal(size=n)
        if np.all(a == a[0]) or np.all(b == b[0]):
            continue
        assert abs(rank_correlation(a, b) - spearmanr(a, b).statistic) <= 1e-12


def run_python(code):
    """Standard output of a fresh interpreter that runs code with this smm importable."""
    import smm

    src = str(Path(smm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    return out.stdout


def test_import_smm_leaves_scipy_stats_and_optimize_unloaded():
    code = (
        "import sys, smm; "
        "print(sorted(m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules))\n"
        "from smm.fixtures import reference_model_spec, reference_population\n"
        "pop, spec = reference_population('model1'), reference_model_spec()\n"
        "smm.fit(spec, smm.compute_moments(smm.draw_sample(pop, 300, smm.Seed(1))))\n"
        "smm.run_study(smm.StudyConfig(population=pop, spec=spec, sample_sizes=(300,),"
        " replications=2, seed=smm.Seed(2), max_parallelism=1))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    # import smm loads no scipy, and neither do a fit and a study
    assert run_python(code).split() == ["[]", "[]"]


def test_import_smm_leaves_multiprocessing_unloaded():
    # only run_study with a pool of two or more workers needs it
    code = "import sys, smm; print(sorted(m for m in ('multiprocessing', 'socket', 'subprocess') if m in sys.modules))"
    assert run_python(code).split() == ["[]"]


def test_import_smm_loads_no_submodule():
    code = "import sys, smm; print(sorted(m for m in sys.modules if m.startswith('smm.')))"
    assert run_python(code).split() == ["[]"]


@pytest.fixture
def cli_files(tmp_path):
    """The population and model of a bundled study, and a sample of it, as the CLI reads them."""
    from smm.fixtures import study_path
    from smm.serialize import canonical_json, load_json, population_from_dict, write_csv
    from smm.simulate import Seed, draw_sample

    study = load_json(study_path("table1_model1_n900"))
    files = {key: tmp_path / f"{key}.json" for key in ("population", "model")}
    for key, path in files.items():
        path.write_text(canonical_json(study[key]))
    files["data"] = tmp_path / "data.csv"
    write_csv(draw_sample(population_from_dict(study["population"]), 300, Seed(1)), files["data"])
    return {key: str(path) for key, path in files.items()}


@pytest.mark.parametrize(
    "command, unloaded",
    [
        ("simulate", ["smm.estimator", "smm.montecarlo"]),
        ("means", ["smm.estimator", "smm.montecarlo"]),
        ("fit", ["smm.montecarlo"]),
        ("diagnose", ["smm.montecarlo"]),
    ],
)
def test_a_cli_command_loads_only_what_it_calls(command, unloaded, cli_files, tmp_path):
    if command == "simulate":
        argv = ["simulate", cli_files["population"], "--n", "300", "--out", str(tmp_path / "out.csv")]
    else:
        argv = [command, cli_files["model"], cli_files["data"]]
    code = (
        "import sys\n"
        "from smm.cli import main\n"
        f"code = main({argv!r})\n"
        f"print(code, sorted(m for m in {unloaded!r} if m in sys.modules))"
    )
    assert run_python(code).splitlines()[-1].split() == ["0", "[]"]


EXPORTED = [
    "SmmError", "InvalidModelError", "NotPositiveDefiniteError",
    "FitOptions", "FitResult", "ImpliedMoments", "fit", "fit_many", "implied_moments",
    "ml_discrepancy", "numeric_gradient",
    "ModelSpec", "ParameterCell", "ParameterIndex", "ValidationReport", "fix_intercept_variant",
    "fixed", "free", "one_factor_spec", "validate",
    "Dataset", "SampleMoments", "compute_moments",
    "REFERENCE_TABLE", "ComparisonReport", "ReplicationSummary", "StudyConfig", "StudySummary",
    "aggregate", "compare_to_reference", "run_study",
    "PopulationModel", "Seed", "cholesky", "draw_sample", "explicit", "population_moments",
    "structured",
    "ProportionalityReport", "equal_loading_mean", "factor_means_ls",
    "proportionality_report",
]


def test_public_names_resolve_to_their_defining_modules():
    import smm

    assert smm.__all__ == EXPORTED
    for module, names in smm._EXPORTS.items():
        for name in names:
            assert getattr(smm, name) is getattr(importlib.import_module(f"smm.{module}"), name)
    namespace = {}
    exec("from smm import *", namespace)
    assert set(EXPORTED) <= set(namespace)
    assert set(EXPORTED) <= set(dir(smm))
    assert smm.rng is importlib.import_module("smm.rng")
    with pytest.raises(AttributeError, match="no_such_name"):
        smm.no_such_name
