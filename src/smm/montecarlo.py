"""Replicated simulate-fit studies with reference comparisons.

run_study draws R samples per condition, fits the model to each, and
aggregates the converged fits. Each replication owns a seed derived from
(master, condition_index, replication), so the stream a replication sees
does not depend on scheduling. A condition's replications are drawn in
order from one factorization of the population and reduced to one block
of sample moments, a SampleMoments with a row per replication (the
datasets are not kept, so memory stays O(R p^2)), which the estimator's
lockstep loop (the one behind fit_many) takes whole. Its outcome stays
one block too: a FitResult with a row per replication, a row whose fit
raised not converged, which aggregate reduces as it is. No per-fit
object is built on the way. With max_parallelism > 1 and enough
replications (at least MIN_BLOCK per worker) each worker process takes
one contiguous block of replications, fits it the same way and sends
its FitResult block back, a few arrays. A replication's result does not
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
    integer,
)
from .estimator import FitOptions, _fit_block, _workspace
from .model_spec import ModelSpec
from .simulate import PopulationModel, Seed, _draw_moments

# Fewest replications a pool worker is given. A lockstep block is cheap,
# so a pool pays only for large blocks: two workers break even near
# R = 200, and a larger MIN_BLOCK would give up the 1.3x that two workers
# reach at R = 256 on the n = 900 designs.
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

    The seeds are derived as rng.derive_seed gives them, with no Seed
    object per replication. The population was factored when it was built
    (simulate.PopulationModel), and each replication's sample is the one
    its own seed gives alone; the block's moments pass to the lockstep fit
    as one SampleMoments. The fits share fit_options, each with the jitter
    seed its own seed derives. Returns the FitResult block, a row per
    replication; a row whose fit raised is not converged.
    """
    # derive_seed(master, condition_index, rep) and derive_seed(rep_seed,
    # STREAM_JITTER), with their shared prefix and label mixed once a block
    prefix, label = rng.derive_seed(master, condition_index), rng.splitmix64(rng.STREAM_JITTER)
    rep_seeds = [rng.splitmix64(prefix ^ rng.splitmix64(rep)) for rep in reps]
    samples = _draw_moments(population, n, rep_seeds)
    seeds = [rng.splitmix64(rng.splitmix64(rep_seed) ^ label) for rep_seed in rep_seeds]
    return _fit_block(spec, samples, fit_options, seeds)[0]


def aggregate(results: list, total_replications: int | None = None) -> ReplicationSummary:
    """Means and SDs over the converged fits in a list of FitResult, each one fit or a block.

    total_replications lets the caller account for replications that
    produced no FitResult at all (hard errors); by default it is the
    number of fits in results. Failures are everything that did not
    converge.
    """
    # every result's fits stacked in order, a single fit as a block of one;
    # a list of single fits takes one array call per field
    single = not any(isinstance(r.converged, np.ndarray) for r in results)
    join, join_rows = (np.array, np.array) if single else (np.hstack, np.vstack)
    converged = join([r.converged for r in results]).astype(bool)
    r_eff = int(np.count_nonzero(converged))
    if not r_eff:
        raise SmmError(EMPTY_CONVERGED_SET, "no converged replications to aggregate")
    total = converged.size if total_replications is None else total_replications
    values = np.column_stack(
        [join_rows([r.free_values for r in results]), join([r.chi_square for r in results])]
    )
    # one contiguous row per free value and the chi-square: a reduction over
    # a contiguous row sums in the order np.mean and np.std take on a lone
    # column, so the summary keeps those bits
    columns = np.ascontiguousarray(values[converged].T)
    means = columns.mean(axis=1).tolist()
    sds = [0.0] * len(columns) if r_eff == 1 else columns.std(axis=1, ddof=1).tolist()
    return ReplicationSummary(
        parameters=dict(zip(results[0].labels, zip(means, sds))),
        chi_square_mean=means[-1],
        chi_square_sd=sds[-1],
        convergence_failures=total - r_eff,
        r_effective=r_eff,
        df=results[0].df,
    )


def run_study(config: StudyConfig) -> StudySummary:
    """Run all conditions of a study and summarize each.

    Replications are independent given their derived seeds. A condition's
    replications are fitted in lockstep (estimator.fit_many); when
    max_parallelism > 1 they are split into one contiguous block per
    worker of a process pool of min(max_parallelism, R // MIN_BLOCK)
    workers, and no pool runs when that is 1. Results are collected in
    replication order either way, which makes the summary independent of
    scheduling. replications, each sample size and max_parallelism must
    be integers that are not bools, at least 1, 2 and 1; anything else
    raises SmmError(BAD_INPUT).
    """
    report = _workspace(config.spec).report  # the validation _fit_block reads too
    if not report.is_valid:
        raise InvalidModelError(report)
    if config.population.p != config.spec.p:
        raise SmmError(
            DIMENSION_MISMATCH,
            f"population has {config.population.p} variables, model expects {config.spec.p}",
        )
    if integer("replications", config.replications) < 1:
        raise SmmError(BAD_INPUT, f"replications must be >= 1, got {config.replications}")
    if not config.sample_sizes:
        raise SmmError(BAD_INPUT, "sample_sizes must be non-empty")
    if any(integer("sample size", n) < 2 for n in config.sample_sizes):
        raise SmmError(BAD_INPUT, "every sample size must be >= 2")
    if integer("max_parallelism", config.max_parallelism) < 1:
        raise SmmError(BAD_INPUT, f"max_parallelism must be >= 1, got {config.max_parallelism}")

    master = config.seed.master
    workers = min(config.max_parallelism, config.replications // MIN_BLOCK)
    conditions = []
    pool = None
    try:
        if workers > 1:
            # imported here, so that `import smm` does not pay for multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(max_workers=workers)
        for condition_index, n in enumerate(config.sample_sizes):
            block = functools.partial(
                _replicate_block, config.population, config.spec, config.fit_options, master,
                condition_index, n,
            )
            if pool is None:
                blocks = [block(range(config.replications))]
            else:
                bounds = [config.replications * k // workers for k in range(workers + 1)]
                blocks = list(pool.map(block, [range(a, b) for a, b in zip(bounds, bounds[1:])]))
            if not any(b.converged.any() for b in blocks):
                raise SmmError(
                    CONDITION_DEGENERATE,
                    f"all {config.replications} replications failed for n={n}",
                )
            conditions.append((n, aggregate(blocks)))
    finally:
        if pool is not None:
            pool.shutdown()
    return StudySummary(
        conditions=tuple(conditions),
        replications=config.replications,
        seed=master,
        reference=config.reference,
    )


def _reference_block(reference: str | None, sample_sizes) -> dict:
    """The REFERENCE_TABLE block a study names, {n: ReferenceEntry}.

    Raises MISSING_REFERENCE_CONDITION when the study names no block, an
    unknown one, or one without an entry for some sample size, so a study
    can be checked before it runs.
    """
    if reference is None:
        raise SmmError(MISSING_REFERENCE_CONDITION, "study declares no reference block")
    block = REFERENCE_TABLE.blocks.get(reference)
    if block is None:
        raise SmmError(MISSING_REFERENCE_CONDITION, f"no reference block named {reference!r}")
    for n in sample_sizes:
        if n not in block:
            raise SmmError(
                MISSING_REFERENCE_CONDITION,
                f"reference block {reference!r} has no n={n} condition",
            )
    return block


def _row(n, quantity, artifact, paper, se, floor=None):
    """One comparison row: the deviation from the paper and its z = deviation / se.

    With a floor the row is gated at |deviation| <= max(4 se, floor); with
    floor None it is reported, not gated. z is None where se is 0.
    """
    deviation = artifact - paper
    tolerance = None if floor is None else max(4.0 * se, floor)
    return ComparisonRow(
        n=n,
        quantity=quantity,
        artifact=artifact,
        paper=paper,
        deviation=deviation,
        z=deviation / se if se > 0 else None,
        tolerance=tolerance,
        passed=None if tolerance is None else bool(abs(deviation) <= tolerance),
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
    block = _reference_block(summary.reference, [n for n, _ in summary.conditions])
    rows = []
    for n, cond in summary.conditions:
        entry = block[n]
        labels = list(cond.parameters)
        loading_labels = [lab for lab in labels if lab.startswith("lambda[")]
        theta_labels = [lab for lab in labels if lab.startswith("theta[")]
        if len(loading_labels) != len(entry.loadings) or len(theta_labels) != 1:
            raise SmmError(
                MISSING_REFERENCE_CONDITION,
                "study parameters do not line up with the reference layout "
                f"({len(loading_labels)} loadings, {len(theta_labels)} factor means)",
            )
        root_r = np.sqrt(cond.r_effective)
        root_2r = np.sqrt(2.0 * cond.r_effective)
        quantities = [
            (f"{lab} mean", f"{lab} sd", cond.parameters[lab], paper)
            for lab, paper in zip(loading_labels, entry.loadings)
        ]
        quantities.append(
            ("factor mean", "factor mean sd", cond.parameters[theta_labels[0]], entry.factor_mean)
        )
        for mean_name, sd_name, (mean, sd), (paper_mean, paper_sd) in quantities:
            # The printed SD may understate the true one by up to the rounding
            # (lambda[x1] of model1 at n=900 prints as 0.01 and measures 0.0134,
            # so a gate of 4 printed SEs is about 3 true ones), so the SE uses
            # the largest SD that prints as paper_sd.
            se = (paper_sd + REFERENCE_ROUNDING) / root_r
            rows.append(_row(n, mean_name, mean, paper_mean, se, REFERENCE_ROUNDING))
            # SDs of estimates are reported for context, not gated: the
            # sampling error of an SD (about sd/sqrt(2R)) plus two-decimal
            # rounding of the reference makes a hard threshold unreliable.
            rows.append(_row(n, sd_name, sd, paper_sd, paper_sd / root_2r))
        chi_mean, chi_sd = entry.chi_square
        chi_se = chi_sd / root_r
        rows.append(
            _row(n, "chi-square mean", cond.chi_square_mean, chi_mean, chi_se, 0.01 * chi_mean)
        )
        rows.append(_row(n, "chi-square sd", cond.chi_square_sd, chi_sd, chi_sd / root_2r))
        rows.append(_row(n, "df", float(cond.df), float(entry.df), 0.0, 0.0))
    return ComparisonReport(reference=summary.reference, rows=tuple(rows))
