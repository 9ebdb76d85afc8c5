"""Replicated simulate-fit studies with reference comparisons.

run_study draws R samples per condition, fits the model to each, and
aggregates the converged fits. Each replication owns a seed derived from
(master, condition_index, replication), so the stream a replication sees
does not depend on scheduling. A condition's replications are drawn in
order from one factorization of the population and reduced to one block
of sample moments, a SampleMoments with a row per replication (the
datasets are not kept, so memory stays O(R p^2)), which
estimator.fit_many takes whole and steps in lockstep. With
max_parallelism > 1 and enough replications (at least MIN_BLOCK per
worker) each worker process takes one contiguous block of replications
and fits it the same way. A replication's result does not
depend on the batch it was fitted in, so summaries are byte-identical
whether the study runs on one process or eight.

The embedded REFERENCE_TABLE holds benchmark Monte Carlo results (two
population models at three sample sizes, 2,000 replications each) that
reproduction runs are compared against. The reference values are rounded
to two decimals, which matters when judging deviations; see
compare_to_reference.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .errors import (
    SmmError,
    BAD_INPUT,
    CONDITION_DEGENERATE,
    DIMENSION_MISMATCH,
    EMPTY_CONVERGED_SET,
    MISSING_REFERENCE_CONDITION,
    InvalidModelError,
)
from .estimator import FitOptions, fit_many
from .model_spec import ModelSpec, validate
from .simulate import PopulationModel, Seed, draw_moments

# Fewest replications a pool worker is given. A lockstep block is cheap,
# so a pool pays only for large blocks. On a 2-vCPU VM, with the pool
# forced on below 2 * MIN_BLOCK to find the crossover (medians of 9
# alternated runs, two sessions), parallelism 2 against 1 ran at:
#   R = 64:  0.48-0.49x on table1_model1_n900, 0.61-0.64x on
#            table1_model2_n150, 0.81-0.86x on anchor_x1
#   R = 128: 0.59-1.00x, 0.73-0.77x, 1.07-1.11x
#   R = 200: 1.17-1.18x, 0.94-1.02x, 1.18-1.30x
#   R = 256: 1.29-1.31x, 0.95-0.99x, 1.29x
#   R = 500: 1.37-1.43x, 0.99-1.16x, 1.35-1.48x
# The n = 900 designs, where sampling is most of a worker's time, still
# cross near R = 200. The n = 150 design, whose samples are cheapest,
# now only breaks even up to R = 500: a larger MIN_BLOCK would give it
# about 5% and take 30% from the n = 900 designs at R = 256-511.
MIN_BLOCK = 128


@dataclass(frozen=True)
class StudyConfig:
    population: PopulationModel
    spec: ModelSpec
    sample_sizes: tuple
    replications: int
    seed: Seed
    max_parallelism: int = 1
    reference: str | None = None
    fit_options: FitOptions = field(default_factory=FitOptions)


@dataclass(frozen=True)
class ReplicationSummary:
    """Across-replication means and SDs for one condition.

    parameters maps each free-parameter label to (mean, sd) over the
    converged replications, in ParameterIndex order. SDs use denominator
    R_effective - 1 and are 0.0 when only one replication converged.
    """

    parameters: dict
    chi_square_mean: float
    chi_square_sd: float
    convergence_failures: int
    r_effective: int
    df: int


@dataclass(frozen=True)
class StudySummary:
    conditions: tuple  # of (n, ReplicationSummary), in sample_sizes order
    replications: int
    seed: int
    reference: str | None


@dataclass(frozen=True)
class ReferenceEntry:
    loadings: tuple  # of (mean, sd) per variable
    factor_mean: tuple
    chi_square: tuple
    df: int


@dataclass(frozen=True)
class ReferenceTable:
    blocks: dict  # key -> {n: ReferenceEntry}


REFERENCE_TABLE = ReferenceTable(
    blocks={
        "model1": {
            900: ReferenceEntry(
                loadings=((0.30, 0.01), (0.40, 0.02), (0.50, 0.02), (0.60, 0.03), (0.70, 0.03)),
                factor_mean=(10.04, 0.43),
                chi_square=(9.15, 4.26),
                df=9,
            ),
            300: ReferenceEntry(
                loadings=((0.30, 0.02), (0.40, 0.03), (0.50, 0.04), (0.60, 0.05), (0.70, 0.05)),
                factor_mean=(10.10, 0.79),
                chi_square=(9.01, 4.28),
                df=9,
            ),
            150: ReferenceEntry(
                loadings=((0.30, 0.03), (0.40, 0.04), (0.49, 0.05), (0.59, 0.06), (0.69, 0.07)),
                factor_mean=(10.25, 1.16),
                chi_square=(9.16, 4.32),
                df=9,
            ),
        },
        "model2": {
            900: ReferenceEntry(
                loadings=((0.56, 0.03), (0.48, 0.03), (0.40, 0.02), (0.32, 0.02), (0.24, 0.01)),
                factor_mean=(12.49, 0.66),
                chi_square=(126.82, 22.88),
                df=9,
            ),
            300: ReferenceEntry(
                loadings=((0.56, 0.05), (0.48, 0.04), (0.40, 0.04), (0.32, 0.03), (0.24, 0.02)),
                factor_mean=(12.59, 1.21),
                chi_square=(48.47, 13.42),
                df=9,
            ),
            150: ReferenceEntry(
                loadings=((0.56, 0.07), (0.48, 0.06), (0.40, 0.05), (0.32, 0.04), (0.24, 0.03)),
                factor_mean=(12.83, 1.89),
                chi_square=(28.46, 9.99),
                df=9,
            ),
        },
    }
)

# Reference means are printed to two decimals; half an ulp of that
# precision is the floor below which a deviation is indistinguishable
# from rounding of the reference itself.
REFERENCE_ROUNDING = 0.005


@dataclass(frozen=True)
class ComparisonRow:
    n: int
    quantity: str
    artifact: float
    paper: float
    deviation: float
    z: float | None
    tolerance: float | None
    passed: bool | None


@dataclass(frozen=True)
class ComparisonReport:
    reference: str
    rows: tuple

    @property
    def all_pass(self) -> bool:
        return all(row.passed for row in self.rows if row.passed is not None)


def _replicate_block(population, spec, fit_options, master, condition_index, n, reps):
    """Replications reps of one condition: derive seeds, draw, fit in lockstep.

    The population is factored once for the block (simulate.draw_moments),
    and each replication's sample is the one its own seed gives alone; the
    block's moments pass to fit_many as one SampleMoments. The fits share
    fit_options, each with the jitter seed its own seed derives.
    Returns a FitResult per replication, or None where the fit raised.
    """
    rep_seeds = [rng.derive_seed(master, condition_index, rep) for rep in reps]
    samples = draw_moments(population, n, [Seed(rep_seed) for rep_seed in rep_seeds])
    seeds = [rng.derive_seed(rep_seed, rng.STREAM_JITTER) for rep_seed in rep_seeds]
    return [
        None if isinstance(result, SmmError) else result
        for result in fit_many(spec, samples, fit_options, seeds)
    ]


def aggregate(results: list, total_replications: int | None = None) -> ReplicationSummary:
    """Means and SDs over the converged results in a list of FitResult.

    total_replications lets the caller account for replications that
    produced no FitResult at all (hard errors); failures are everything
    that did not converge.
    """
    total = len(results) if total_replications is None else total_replications
    converged = [r for r in results if r.converged]
    if not converged:
        raise SmmError(EMPTY_CONVERGED_SET, "no converged replications to aggregate")
    labels = converged[0].labels
    r_eff = len(converged)
    # one contiguous row per free value and the chi-square: a reduction over
    # a contiguous row sums in the order np.mean and np.std take on a lone
    # column, so the summary keeps those bits
    values = np.column_stack([[r.free_values for r in converged], [r.chi_square for r in converged]])
    columns = np.ascontiguousarray(values.T)
    means = columns.mean(axis=1).tolist()
    sds = [0.0] * len(columns) if r_eff == 1 else columns.std(axis=1, ddof=1).tolist()
    return ReplicationSummary(
        parameters=dict(zip(labels, zip(means, sds))),
        chi_square_mean=means[-1],
        chi_square_sd=sds[-1],
        convergence_failures=total - r_eff,
        r_effective=r_eff,
        df=converged[0].df,
    )


def run_study(config: StudyConfig) -> StudySummary:
    """Run all conditions of a study and summarize each.

    Replications are independent given their derived seeds. A condition's
    replications are fitted in lockstep (estimator.fit_many); when
    max_parallelism > 1 they are split into one contiguous block per
    worker of a process pool of min(max_parallelism, R // MIN_BLOCK)
    workers, and no pool runs when that is 1. Results are collected in
    replication order either way, which makes the summary independent of
    scheduling.
    """
    report = validate(config.spec)
    if not report.is_valid:
        raise InvalidModelError(report)
    if config.population.p != config.spec.p:
        raise SmmError(
            DIMENSION_MISMATCH,
            f"population has {config.population.p} variables, model expects {config.spec.p}",
        )
    if config.replications < 1:
        raise SmmError(BAD_INPUT, f"replications must be >= 1, got {config.replications}")
    if not config.sample_sizes:
        raise SmmError(BAD_INPUT, "sample_sizes must be non-empty")
    if any(n < 2 for n in config.sample_sizes):
        raise SmmError(BAD_INPUT, "every sample size must be >= 2")
    if config.max_parallelism < 1:
        raise SmmError(BAD_INPUT, f"max_parallelism must be >= 1, got {config.max_parallelism}")

    master = config.seed.master
    workers = min(int(config.max_parallelism), config.replications // MIN_BLOCK)
    conditions = []
    pool = None
    try:
        if workers > 1:
            # imported here: multiprocessing costs every `import smm` about 20 ms
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(max_workers=workers)
        for condition_index, n in enumerate(config.sample_sizes):
            block = functools.partial(
                _replicate_block, config.population, config.spec, config.fit_options, master,
                condition_index, n,
            )
            if pool is None:
                results = block(range(config.replications))
            else:
                bounds = [config.replications * k // workers for k in range(workers + 1)]
                blocks = pool.map(block, [range(a, b) for a, b in zip(bounds, bounds[1:])])
                results = [r for rows in blocks for r in rows]
            fitted = [r for r in results if r is not None]
            if not any(r.converged for r in fitted):
                raise SmmError(
                    CONDITION_DEGENERATE,
                    f"all {config.replications} replications failed for n={n}",
                )
            conditions.append((n, aggregate(fitted, total_replications=config.replications)))
    finally:
        if pool is not None:
            pool.shutdown()
    return StudySummary(
        conditions=tuple(conditions),
        replications=config.replications,
        seed=master,
        reference=config.reference,
    )


def _mean_row(n, quantity, artifact, paper_mean, paper_sd, r_eff):
    # The printed SD may understate the true one by up to the rounding
    # (lambda[x1] of model1 at n=900 prints as 0.01 and measures 0.0134, so
    # a gate of 4 printed SEs is about 3 true ones), so the SE uses the
    # largest SD that prints as paper_sd.
    se = (paper_sd + REFERENCE_ROUNDING) / np.sqrt(r_eff)
    deviation = artifact - paper_mean
    z = deviation / se
    tolerance = max(4.0 * se, REFERENCE_ROUNDING)
    return ComparisonRow(
        n=n,
        quantity=quantity,
        artifact=artifact,
        paper=paper_mean,
        deviation=deviation,
        z=z,
        tolerance=tolerance,
        passed=bool(abs(deviation) <= tolerance),
    )


def _sd_row(n, quantity, artifact, paper_sd, r_eff):
    # SDs of estimates are reported for context, not gated: the sampling
    # error of an SD (about sd/sqrt(2R)) plus two-decimal rounding of the
    # reference makes a hard threshold unreliable.
    se = paper_sd / np.sqrt(2.0 * r_eff) if paper_sd > 0 else 0.0
    deviation = artifact - paper_sd
    return ComparisonRow(
        n=n,
        quantity=quantity,
        artifact=artifact,
        paper=paper_sd,
        deviation=deviation,
        z=deviation / se if se > 0 else None,
        tolerance=None,
        passed=None,
    )


def compare_to_reference(summary: StudySummary) -> ComparisonReport:
    """Compare a study summary against its reference block in REFERENCE_TABLE.

    Mean quantities are gated: a loading or factor-mean row passes when
    its deviation is within max(4 * (SD + 0.005)/sqrt(R), 0.005), where
    0.005 is half an ulp of the reference's printed precision: SD + 0.005
    is the largest SD that prints as the reference's, and the floor is the
    rounding of the reference mean itself. Its z-score uses the same SE. Chi-square
    means use max(4 * SD/sqrt(R), 1% of the reference value), absorbing
    the n vs n-1 statistic convention. SD rows carry z-scores (scaled by
    SD/sqrt(2R)) but no verdict. df must match exactly.
    """
    if summary.reference is None:
        raise SmmError(MISSING_REFERENCE_CONDITION, "study declares no reference block")
    blocks = REFERENCE_TABLE.blocks.get(summary.reference)
    if blocks is None:
        raise SmmError(
            MISSING_REFERENCE_CONDITION, f"no reference block named {summary.reference!r}"
        )
    rows = []
    for n, cond in summary.conditions:
        entry = blocks.get(n)
        if entry is None:
            raise SmmError(
                MISSING_REFERENCE_CONDITION,
                f"reference block {summary.reference!r} has no n={n} condition",
            )
        labels = list(cond.parameters)
        loading_labels = [lab for lab in labels if lab.startswith("lambda[")]
        theta_labels = [lab for lab in labels if lab.startswith("theta[")]
        if len(loading_labels) != len(entry.loadings) or len(theta_labels) != 1:
            raise SmmError(
                MISSING_REFERENCE_CONDITION,
                "study parameters do not line up with the reference layout "
                f"({len(loading_labels)} loadings, {len(theta_labels)} factor means)",
            )
        r_eff = cond.r_effective
        for lab, (paper_mean, paper_sd) in zip(loading_labels, entry.loadings):
            mean, sd = cond.parameters[lab]
            rows.append(_mean_row(n, f"{lab} mean", mean, paper_mean, paper_sd, r_eff))
            rows.append(_sd_row(n, f"{lab} sd", sd, paper_sd, r_eff))
        fm_mean, fm_sd = cond.parameters[theta_labels[0]]
        rows.append(
            _mean_row(n, "factor mean", fm_mean, entry.factor_mean[0], entry.factor_mean[1], r_eff)
        )
        rows.append(_sd_row(n, "factor mean sd", fm_sd, entry.factor_mean[1], r_eff))

        chi_se = entry.chi_square[1] / np.sqrt(r_eff)
        chi_dev = cond.chi_square_mean - entry.chi_square[0]
        chi_tol = max(4.0 * chi_se, 0.01 * entry.chi_square[0])
        rows.append(
            ComparisonRow(
                n=n,
                quantity="chi-square mean",
                artifact=cond.chi_square_mean,
                paper=entry.chi_square[0],
                deviation=chi_dev,
                z=chi_dev / chi_se if chi_se > 0 else None,
                tolerance=chi_tol,
                passed=bool(abs(chi_dev) <= chi_tol),
            )
        )
        rows.append(_sd_row(n, "chi-square sd", cond.chi_square_sd, entry.chi_square[1], r_eff))
        rows.append(
            ComparisonRow(
                n=n,
                quantity="df",
                artifact=float(cond.df),
                paper=float(entry.df),
                deviation=float(cond.df - entry.df),
                z=None,
                tolerance=0.0,
                passed=bool(cond.df == entry.df),
            )
        )
    return ComparisonReport(reference=summary.reference, rows=tuple(rows))
