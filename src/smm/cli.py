"""Command-line interface.

Commands:

    smm fit MODEL.json DATA.csv [--json OUT]
    smm means MODEL.json DATA.csv [--json OUT]
    smm simulate POPULATION.json --n N [--seed S] --out DATA.csv
    smm replicate STUDY[.json] [--compare-paper] [--seed S] [--reps R]
                  [--parallelism K] [--json OUT]
    smm diagnose MODEL.json DATA.csv [--json OUT]

Exit codes: 0 success (and all comparisons passed), 1 input error,
2 fit did not converge, 3 reference comparison failed.

`replicate` accepts either a path to a study file or the name of a
bundled study (see `smm replicate --list`).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import fixtures, serialize
from .errors import SmmError, BAD_INPUT, DIVISION_BY_NEAR_ZERO_LOADING
from .model_spec import ParameterIndex, fixed, free
from .moments import compute_moments
from .simulate import Seed, draw_sample

# a handler imports the estimator, the closed-form diagnostics or the Monte
# Carlo harness itself, so each command loads only what it calls

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CONVERGENCE = 2
EXIT_COMPARISON_FAILED = 3


def _write_json(path: str | None, doc: dict) -> None:
    if path:
        Path(path).write_text(serialize.canonical_json(doc))


def _print_fit(result) -> None:
    print(f"n = {result.n}   free parameters = {len(result.labels)}   df = {result.df}")
    print(
        f"converged = {result.converged}   iterations = {result.iterations}   "
        f"restarts = {result.retries_used}   |grad| = {result.grad_inf_norm:.2e}"
    )
    print(f"F = {result.f_min:.6f}   chi-square = {result.chi_square:.3f}")
    print()
    width = max(len(label) for label in result.labels) if result.labels else 0
    print(f"{'parameter':<{width}}  estimate")
    for label, value in zip(result.labels, result.free_values):
        print(f"{label:<{width}}  {value:10.4f}")


def cmd_fit(args) -> int:
    from .estimator import fit

    spec = serialize.model_from_dict(serialize.load_json(args.model))
    data = serialize.read_csv(args.data)
    sample = compute_moments(data)
    result = fit(spec, sample)
    _print_fit(result)
    _write_json(args.json, serialize.fit_result_to_dict(result))
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def cmd_means(args) -> int:
    from .smm_core import LOADING_FLOOR, factor_means_ls, proportionality_report

    spec = serialize.model_from_dict(serialize.load_json(args.model))
    data = serialize.read_csv(args.data)
    sample = compute_moments(data)
    base = ParameterIndex(spec).base_matrices()
    lam, nu = base.loadings, base.intercepts
    theta = factor_means_ls(lam, sample.mean, nu)
    print("least-squares factor means:")
    for name, value in zip(spec.factor_names, theta):
        print(f"  {name}: {value:.4f}")

    doc = {"factor_means": {n: float(v) for n, v in zip(spec.factor_names, theta)}}
    if spec.q == 1:
        column = lam[:, 0]
        small = np.abs(column) < LOADING_FLOOR
        if np.any(small):
            i = int(np.argmax(small))
            raise SmmError(
                DIVISION_BY_NEAR_ZERO_LOADING,
                f"loading for {spec.variable_names[i]} is below {LOADING_FLOOR:g}",
            )
        report = proportionality_report(column, sample.mean)
        print("\nper-variable ratios mean/loading:")
        for name, ratio in zip(spec.variable_names, report.ratios):
            print(f"  {name}: {ratio:.4f}")
        corr = "n/a" if np.isnan(report.rank_corr) else f"{report.rank_corr:.3f}"
        print(f"\nproportionality: cv = {report.cv:.4f}, rank corr = {corr} -> {report.verdict}")
        doc["ratios"] = {n: float(r) for n, r in zip(spec.variable_names, report.ratios)}
        doc["proportionality"] = _proportionality_to_json(report)
    _write_json(args.json, doc)
    return EXIT_OK


def cmd_simulate(args) -> int:
    population = serialize.population_from_dict(serialize.load_json(args.population))
    data = draw_sample(population, args.n, Seed(args.seed))
    serialize.write_csv(data, args.out)
    print(f"wrote {data.n} x {data.p} sample to {args.out}")
    return EXIT_OK


def _print_summary(summary) -> None:
    for n, cond in summary.conditions:
        print(
            f"n = {n}: {cond.r_effective} converged, "
            f"{cond.convergence_failures} failed, df = {cond.df}"
        )
        print(
            f"  chi-square mean (sd) = {cond.chi_square_mean:.2f} ({cond.chi_square_sd:.2f})"
        )
        width = max(len(name) for name in cond.parameters)
        for name, (mean, sd) in cond.parameters.items():
            print(f"  {name:<{width}}  {mean:9.4f}  ({sd:.4f})")


def _print_comparison(report) -> None:
    print(f"\ncomparison against reference block {report.reference!r}:")
    header = f"{'n':>5}  {'quantity':<22} {'artifact':>10} {'paper':>10} {'dev':>9} {'z':>7}  verdict"
    print(header)
    for row in report.rows:
        z = f"{row.z:7.2f}" if row.z is not None else "      -"
        verdict = "-" if row.passed is None else ("PASS" if row.passed else "FAIL")
        print(
            f"{row.n:>5}  {row.quantity:<22} {row.artifact:>10.4f} {row.paper:>10.4f} "
            f"{row.deviation:>9.4f} {z}  {verdict}"
        )
    print(f"overall: {'PASS' if report.all_pass else 'FAIL'}")


def _resolve_study(name: str) -> Path:
    path = Path(name)
    if path.exists():
        return path
    try:
        return fixtures.study_path(name)
    except FileNotFoundError as err:
        raise SmmError(BAD_INPUT, str(err)) from None


def cmd_replicate(args) -> int:
    if args.list:
        for name in fixtures.bundled_studies():
            print(name)
        return EXIT_OK
    from .montecarlo import compare_to_reference, run_study

    config = serialize.study_from_dict(serialize.load_json(_resolve_study(args.study)))
    if args.seed is not None:
        config = replace(config, seed=Seed(args.seed))
    if args.reps is not None:
        config = replace(config, replications=args.reps)
    if args.parallelism is not None:
        config = replace(config, max_parallelism=args.parallelism)
    summary = run_study(config)
    _print_summary(summary)
    doc = {"summary": serialize.summary_to_dict(summary)}
    code = EXIT_OK
    if args.compare_paper:
        report = compare_to_reference(summary)
        _print_comparison(report)
        doc["comparison"] = serialize.comparison_to_dict(report)
        if not report.all_pass:
            code = EXIT_COMPARISON_FAILED
    _write_json(args.json, doc)
    return code


def _covariance_only_variant(spec):
    """Copy of spec with the mean structure saturated.

    Free intercepts and factor means pinned at zero reproduce the observed
    means exactly, so the fitted loadings are determined by the covariance
    alone. Those are the loadings worth comparing against the means: the
    joint fit tilts its loadings toward the means and would vacuously pass
    a proportionality check.
    """
    return replace(
        spec,
        intercepts=tuple(free() for _ in range(spec.p)),
        factor_means=tuple(fixed(0.0) for _ in range(spec.q)),
    )


def _proportionality_to_json(report) -> dict:
    return {
        "ratios": [serialize.finite_or_none(r) for r in report.ratios],
        "cv": serialize.finite_or_none(report.cv),
        "mean_ratio": serialize.finite_or_none(report.mean_ratio),
        "rank_corr": serialize.finite_or_none(report.rank_corr),
        "verdict": report.verdict,
    }


def cmd_diagnose(args) -> int:
    from .estimator import fit
    from .smm_core import proportionality_report

    spec = serialize.model_from_dict(serialize.load_json(args.model))
    if spec.q != 1:
        raise SmmError(BAD_INPUT, "diagnose requires a one-factor model")
    data = serialize.read_csv(args.data)
    sample = compute_moments(data)
    result = fit(spec, sample)
    _print_fit(result)

    cov_result = fit(_covariance_only_variant(spec), sample)
    column = cov_result.estimates.loadings[:, 0]
    report = proportionality_report(column, sample.mean)
    print("\ncovariance-only loadings against observed means:")
    for name, lam_i, ratio in zip(spec.variable_names, column, report.ratios):
        shown = "excluded" if np.isnan(ratio) else f"ratio {ratio:9.4f}"
        print(f"  {name}: loading {lam_i:7.4f}  {shown}")
    corr = "n/a" if np.isnan(report.rank_corr) else f"{report.rank_corr:.3f}"
    print(
        f"cv = {report.cv:.4f}, mean ratio = {report.mean_ratio:.4f}, "
        f"rank corr = {corr} -> {report.verdict}"
    )
    for note in report.warnings:
        print(f"note: {note}")
    if not cov_result.converged:
        print("note: covariance-only fit did not converge; verdict is unreliable")
    _write_json(
        args.json,
        {
            "fit": serialize.fit_result_to_dict(result),
            "covariance_only": {
                "loadings": [float(v) for v in column],
                "converged": cov_result.converged,
            },
            "proportionality": _proportionality_to_json(report),
        },
    )
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def _seed(text: str) -> int:
    """A --seed value: an integer that Seed takes, in [0, 2**64)."""
    try:
        return Seed(int(text)).master
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer in [0, 2**64), got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smm",
        description="Structured means analysis of common factor models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a model to CSV data by maximum likelihood")
    p_fit.add_argument("model")
    p_fit.add_argument("data")
    p_fit.add_argument("--json", metavar="OUT")
    p_fit.set_defaults(handler=cmd_fit)

    p_means = sub.add_parser("means", help="closed-form factor means and ratio diagnostics")
    p_means.add_argument("model")
    p_means.add_argument("data")
    p_means.add_argument("--json", metavar="OUT")
    p_means.set_defaults(handler=cmd_means)

    p_sim = sub.add_parser("simulate", help="draw a sample from a population model")
    p_sim.add_argument("population")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--seed", type=_seed, default=0)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(handler=cmd_simulate)

    p_rep = sub.add_parser("replicate", help="run a Monte Carlo study file")
    p_rep.add_argument("study", nargs="?", default="")
    p_rep.add_argument("--compare-paper", action="store_true", dest="compare_paper")
    p_rep.add_argument("--seed", type=_seed)
    p_rep.add_argument("--reps", type=int)
    p_rep.add_argument("--parallelism", type=int)
    p_rep.add_argument("--json", metavar="OUT")
    p_rep.add_argument("--list", action="store_true", help="list bundled studies")
    p_rep.set_defaults(handler=cmd_replicate)

    p_diag = sub.add_parser("diagnose", help="fit, then check loading/mean proportionality")
    p_diag.add_argument("model")
    p_diag.add_argument("data")
    p_diag.add_argument("--json", metavar="OUT")
    p_diag.set_defaults(handler=cmd_diagnose)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_OK if err.code == 0 else EXIT_INPUT
    if args.command == "replicate" and not args.study and not args.list:
        print("error: provide a study file or --list", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.handler(args)
    except (SmmError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except NotImplementedError as err:
        print(f"error: NOT_IMPLEMENTED: {err}", file=sys.stderr)
        return EXIT_INPUT


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
