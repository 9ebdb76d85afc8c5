"""End-to-end acceptance checks.

Each test prints exactly one PASS or FAIL line for its acceptance item
(run with ``-s`` to see the lines for passing tests; pytest shows the
captured output whenever a test fails). Items 1 through 4 rerun the four
bundled table studies plus the two anchored variants at their recorded
seeds, 500 replications each, which takes about 1 s on one core of a
2-vCPU x86 VM. The remaining items are fast.
"""

from dataclasses import replace

import numpy as np
import pytest

from smm import serialize
from smm.errors import SmmError
from smm.estimator import (
    FitResult,
    fit,
    implied_moments,
    ml_discrepancy,
    numeric_gradient,
)
from smm.fixtures import (
    MODEL1_FACTOR_MEAN,
    REFERENCE_LOADINGS,
    bundled_studies,
    reference_model_spec,
    reference_population,
    study_path,
)
from smm.moments import SampleMoments, compute_moments
from smm.montecarlo import REFERENCE_TABLE, StudyConfig, compare_to_reference, run_study
from smm.simulate import Seed, draw_sample, explicit, population_moments
from smm.smm_core import equal_loading_mean, factor_means_ls

VARIABLES = ("x1", "x2", "x3", "x4", "x5")


def _report(label, checks):
    """Print one PASS/FAIL line for an acceptance item, then assert it."""
    failures = [text for text, ok in checks if not ok]
    print(f"{label}: {'PASS' if not failures else 'FAIL'}")
    for text in failures:
        print(f"  failed: {text}")
    assert not failures


def _within(name, value, center, tol):
    return (f"{name} = {value:.4f} vs {center} +/- {tol:g}", abs(value - center) <= tol)


@pytest.fixture(scope="module")
def summaries():
    out = {}
    for name in bundled_studies():
        config = serialize.study_from_dict(serialize.load_json(study_path(name)))
        out[name] = run_study(config)
    return out


def _only_condition(summary):
    ((n, rep),) = summary.conditions
    return n, rep


def _loading_means(rep):
    return [rep.parameters[f"lambda[{v},F1]"][0] for v in VARIABLES]


def test_1_model1_n900_recovery(summaries):
    _, rep = _only_condition(summaries["table1_model1_n900"])
    theta_mean, theta_sd = rep.parameters["theta[F1]"]
    checks = [
        _within("mean factor mean", theta_mean, 10.04, 0.06),
        _within("sd of factor mean", theta_sd, 0.43, 0.06),
        _within("mean chi-square", rep.chi_square_mean, 9.15, 0.60),
    ]
    for name, value, target in zip(VARIABLES, _loading_means(rep), REFERENCE_LOADINGS):
        checks.append(_within(f"mean loading {name}", value, target, 0.01))
    _report("acceptance 1 (model 1, N=900, R=500)", checks)


def test_2_model2_n900_pseudo_true_values(summaries):
    _, rep = _only_condition(summaries["table1_model2_n900"])
    theta_mean, _ = rep.parameters["theta[F1]"]
    checks = [_within("mean factor mean", theta_mean, 12.49, 0.15)]
    for name, value, target in zip(
        VARIABLES, _loading_means(rep), (0.56, 0.48, 0.40, 0.32, 0.24)
    ):
        checks.append(_within(f"mean loading {name}", value, target, 0.01))
    chi_tol = max(3.5, 0.01 * 126.82)
    checks.append(_within("mean chi-square", rep.chi_square_mean, 126.82, chi_tol))
    _report("acceptance 2 (model 2, N=900, R=500)", checks)


def test_2_exact_moments_give_the_pseudo_true_values():
    # the fit of the model 2 population's own moments is the pseudo-true
    # point the Monte Carlo means above estimate, without sampling error
    # (measured: loadings 0.5632 ... 0.2427, factor mean 12.4176 and
    # 899 f_min + 9 = 126.92, in 7 iterations)
    mean, sigma = population_moments(reference_population("model2"))
    result = fit(reference_model_spec(), SampleMoments(n=900, mean=mean, cov=sigma))
    values = dict(zip(result.labels, result.free_values))
    table = REFERENCE_TABLE.blocks["model2"][900]
    checks = [("fit converged", result.converged)]
    for name, (center, sd) in zip(VARIABLES, table.loadings):
        checks.append(_within(f"loading {name}", values[f"lambda[{name},F1]"], center, sd))
    checks.append(_within("factor mean", values["theta[F1]"], *table.factor_mean))
    checks.append(_within("899 f_min + df", result.chi_square + table.df, *table.chi_square))
    _report("acceptance 2 (model 2 pseudo-true values from exact moments)", checks)


def test_3_misfit_scaling_with_n(summaries):
    by_n = {}
    for name in ("table1_model2_n900", "table1_model2_n300", "table1_model2_n150"):
        n, rep = _only_condition(summaries[name])
        by_n[n] = rep.chi_square_mean
    checks = [
        _within("mean chi-square at N=300", by_n[300], 48.47, 2.0),
        _within("mean chi-square at N=150", by_n[150], 28.46, 1.5),
    ]
    # (mean chi-square - df) / (N - 1) estimates the same population
    # discrepancy at every N, so the three values should agree closely.
    ratios = [(by_n[n] - 9.0) / (n - 1) for n in (900, 300, 150)]
    spread = max(ratios) / min(ratios) - 1.0
    checks.append(
        (f"discrepancy-per-case spread {spread:.4f} over {ratios}", spread <= 0.15)
    )
    _report("acceptance 3 (misfit scaling across N)", checks)


def test_4_anchor_choice_scales_factor_mean(summaries):
    _, rep_x1 = _only_condition(summaries["anchor_x1_model2_n900"])
    _, rep_x5 = _only_condition(summaries["anchor_x5_model2_n900"])
    _report(
        "acceptance 4 (anchored intercept variants)",
        [
            _within("mean factor mean, x1 anchored", rep_x1.parameters["theta[F1]"][0], 23.82, 0.60),
            _within("mean factor mean, x5 anchored", rep_x5.parameters["theta[F1]"][0], 4.32, 0.06),
        ],
    )


def test_reference_gate_passes_on_every_table1_study(summaries):
    checks = []
    for name, summary in summaries.items():
        if summary.reference is None:
            continue
        report = compare_to_reference(summary)
        failed = [row.quantity for row in report.rows if row.passed is False]
        text = f"{name} against {summary.reference!r}: failed rows {failed}"
        checks.append((text, report.all_pass))
    assert len(checks) == 4
    _report("reference gate", checks)


def test_5_exact_fit_recovery():
    spec = reference_model_spec()
    mean, sigma = population_moments(reference_population("model1"))
    result = fit(spec, SampleMoments(n=900, mean=mean, cov=sigma))
    truth = dict(zip(result.labels, list(REFERENCE_LOADINGS) + [1.0] * 5 + [MODEL1_FACTOR_MEAN]))
    checks = [
        ("fit converged", result.converged),
        (f"f_min = {result.f_min:.3e} < 1e-10", result.f_min < 1e-10),
    ]
    for label, value in zip(result.labels, result.free_values):
        err = abs(value - truth[label])
        checks.append((f"{label} off truth by {err:.2e}", err <= 1e-6))
    _report("acceptance 5 (exact-fit recovery)", checks)


def test_6_equal_loading_divergence():
    m = np.array([3.0, 4.0, 5.0, 6.0, 7.0])
    checks = []
    magnitudes = []
    for w in (1.0, 0.5, 0.1, 0.01, 0.001):
        theta = equal_loading_mean(w, m)
        rel = abs(theta * w - 5.0) / 5.0
        checks.append((f"theta * w at w={w}: relative error {rel:.2e}", rel <= 1e-12))
        magnitudes.append(abs(theta))
    code = None
    try:
        equal_loading_mean(0.0, m)
    except SmmError as err:
        code = err.code
    checks.append((f"w=0 raised {code}", code == "THEOREM1_DIVERGENCE"))
    checks.append(
        (
            "magnitude of theta strictly increases as w decreases",
            all(b > a for a, b in zip(magnitudes, magnitudes[1:])),
        )
    )
    _report("acceptance 6 (equal-loading divergence)", checks)


def _factor_mean_of_population(loadings, means):
    population = explicit(np.asarray(loadings)[:, None], np.eye(1), np.ones(5), means)
    mean, sigma = population_moments(population)
    result = fit(reference_model_spec(), SampleMoments(n=900, mean=mean, cov=sigma))
    return result.converged, dict(zip(result.labels, result.free_values))["theta[F1]"]


def test_6_smaller_loadings_give_larger_factor_means():
    # the paper's second result on full ML fits of exact moments: the same
    # observed means with loadings shrunk by w give a factor mean grown by
    # 1 / w. rtol 1e-6 is what the default gradient_tolerance resolves: at
    # w = 0.1 theta = 100 after one iteration, off by 1.4e-6 absolute
    base = np.array(REFERENCE_LOADINGS)
    checks = []
    for w in (1.0, 0.5, 0.25, 0.1):
        converged, theta = _factor_mean_of_population(w * base, 10.0 * base)
        checks.append((f"converged at w={w}", converged))
        checks.append((f"theta * w = {theta * w:.9f} at w={w}", theta * w == pytest.approx(10.0, rel=1e-6)))
        # equal loadings with means proportional to them: the closed form
        means = np.full(5, 5.0)
        converged, theta = _factor_mean_of_population(np.full(5, 0.5 * w), means)
        closed = equal_loading_mean(0.5 * w, means)
        checks.append((f"converged with equal loadings at w={w}", converged))
        checks.append(
            (f"theta = {theta:.9f} vs closed form {closed} at w={w}", theta == pytest.approx(closed, rel=1e-6))
        )
    _report("acceptance 6 (smaller loadings, larger factor means)", checks)


def test_7_factor_mean_round_trip_batch():
    rng = np.random.default_rng(190)
    worst = 0.0
    for _ in range(1000):
        p = int(rng.integers(1, 9))
        q = int(rng.integers(1, min(p, 3) + 1))
        lam = rng.normal(size=(p, q))
        # redraw near-rank-deficient matrices; the round trip is only
        # defined for full column rank
        while np.linalg.svd(lam, compute_uv=False)[-1] < 0.05:
            lam = rng.normal(size=(p, q))
        theta = rng.uniform(-3.0, 3.0, size=q)
        nu = rng.uniform(-2.0, 2.0, size=p)
        back = factor_means_ls(lam, nu + lam @ theta, nu)
        worst = max(worst, float(np.max(np.abs(back - theta))))
    _report(
        "acceptance 7 (1000 random factor-mean round trips)",
        [(f"max abs error {worst:.2e}", worst <= 1e-10)],
    )


def test_8_gradient_against_independent_differences():
    spec = reference_model_spec()
    sample = compute_moments(draw_sample(reference_population("model1"), 200, Seed(23)))
    rng = np.random.default_rng(77)

    # the five unique variances (entries 5-9) are differenced as logs, as
    # the optimizer sees them
    def objective(z):
        return ml_discrepancy(sample, implied_moments(spec, np.concatenate([z[:5], np.exp(z[5:10]), z[10:]])))

    worst = 0.0
    for _ in range(100):
        lam = rng.uniform(-0.8, 0.8, size=5)
        psi2 = rng.uniform(0.4, 2.5, size=5)
        theta = rng.uniform(5.0, 15.0, size=1)
        raw = np.concatenate([lam, psi2, theta])
        num = numeric_gradient(spec, raw, sample)
        z = np.concatenate([lam, np.log(psi2), theta])
        fd = np.empty_like(z)
        for i in range(z.size):
            step = 1e-5 * max(1.0, abs(z[i]))
            up, down = z.copy(), z.copy()
            up[i] += 0.5 * step
            down[i] -= 0.5 * step
            fd[i] = (objective(up) - objective(down)) / step
        # the 1e-3 floor only matters for components too small for any
        # finite-difference scheme to resolve relatively; every component
        # at these probe points is larger than that
        rel = np.max(np.abs(num - fd) / np.maximum(np.abs(fd), 1e-3))
        worst = max(worst, float(rel))
    _report(
        "acceptance 8 (gradient vs independent half-step differences)",
        [(f"worst relative disagreement {worst:.2e} over 100 points", worst <= 1e-4)],
    )


def test_9_determinism():
    config = StudyConfig(
        population=reference_population("model1"),
        spec=reference_model_spec(),
        sample_sizes=(80,),
        replications=16,
        seed=Seed(424242),
    )
    serial = serialize.canonical_json(serialize.summary_to_dict(run_study(config)))
    parallel = serialize.canonical_json(
        serialize.summary_to_dict(run_study(replace(config, max_parallelism=8)))
    )
    first = draw_sample(reference_population("model2"), 400, Seed(99))
    second = draw_sample(reference_population("model2"), 400, Seed(99))
    _report(
        "acceptance 9 (determinism)",
        [
            ("study summary byte-identical at parallelism 1 and 8", serial == parallel),
            (
                "draw_sample byte-identical across invocations",
                first.values.tobytes() == second.values.tobytes(),
            ),
        ],
    )
