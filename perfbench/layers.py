"""The traced run: per-layer figures, timed around calls into smm's public functions.

The benchmark drives the replication loop itself (workloads.replication)
and records a span around each call: name, start, end, parent span and
replication id, kept in memory and written out when the run ends. Each
traced study is then run untraced through run_study at parallelism 1 and 2;
all three summaries must be byte-identical, and the traced and untraced
rates give the tracing overhead. Pool workers cannot be traced from
outside, so the traced loop is single-process.

A public function that a later version removes is reported absent
(value null) instead of stopping the run; no end-to-end metric or check
depends on one.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import statistics
import sys
import time
from dataclasses import replace

import numpy as np

import designs
import smm
from smm import serialize
from workloads import (
    CLI_COMMANDS,
    MC_DESIGNS,
    Context,
    Result,
    child_error,
    cli_argvs,
    cli_inputs,
    fit_doc,
    fit_problems,
    load_mc_study,
    model_doc_of,
    replication,
    run_child,
    smm_command,
    summary_text,
    write_normal_csv,
    write_studies,
)

IMPORTS = {"numpy": "numpy", "scipy_optimize": "scipy.optimize", "scipy_stats": "scipy.stats", "smm": "smm"}


class Tracer:
    """Spans kept in memory: [name, start_ns, end_ns, parent index, replication id]."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name, rid=None):
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter_ns(), None, parent, rid]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._open.pop()

    def durations(self, name) -> list:
        return [(end - start) for n, start, end, _, _ in self.spans if n == name]


class Absent(Exception):
    pass


def lookup(module: str, name: str):
    """A public function of smm looked up at run time; Absent if it is gone."""
    try:
        return getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError):
        raise Absent(f"{module}.{name} not found") from None


class Layers:
    def __init__(self, repeat: int):
        self.repeat = repeat
        self.metrics = {}
        self.absent = {}

    def put(self, name, value, unit):
        self.metrics[name] = (None if value is None else float(value), unit)

    def mark_absent(self, name, unit, err):
        self.absent[name] = str(err)
        self.put(name, None, unit)

    def timed(self, name, unit, target, *args, repeat=None, **kwargs):
        """Median time, in ms or us, of calling target: a function or a (module, name) of smm."""
        try:
            function = lookup(*target) if isinstance(target, tuple) else target
        except Absent as err:
            self.mark_absent(name, unit, err)
            return
        times = []
        for _ in range(repeat or self.repeat):
            start = time.perf_counter_ns()
            function(*args, **kwargs)
            times.append(time.perf_counter_ns() - start)
        self.put(name, statistics.median(times) / {"ms": 1e6, "us": 1e3}[unit], unit)


def import_layers(ctx: Context, layers: Layers) -> None:
    """Cumulative import times of `import smm` in fresh interpreters (-X importtime)."""
    samples = {key: [] for key in IMPORTS}
    for _ in range(ctx.sizes.probe_samples):
        code, _, _ = run_child(ctx, [sys.executable, "-X", "importtime", "-c", "import smm"], ctx.work / "import.out")
        if code != 0:
            raise RuntimeError(f"import smm failed: {child_error(ctx)}")
        cumulative = {}
        for line in (ctx.work / "child.err").read_text().splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        for key, module in IMPORTS.items():
            # a module `import smm` no longer pulls in costs it nothing
            samples[key].append(cumulative.get(module, 0.0))
    for key, values in samples.items():
        layers.put(f"import.{key}_s", statistics.median(values), "s")


def cli_layers(ctx: Context, layers: Layers, time_bounded: bool, result: Result) -> None:
    """Each command as a fresh `python -m smm` process and as cli.main([...]) in-process.

    The in-process call separates command work from interpreter start and
    import. On cli_oneshot the cycles fill the run's length; elsewhere one
    cycle is made.
    """
    main = lookup("smm.cli", "main")
    inputs = cli_inputs(ctx)
    seeds = designs.seed_stream(ctx.seed, "cli-traced")
    times = {(cmd, way): [] for cmd in CLI_COMMANDS for way in ("s", "inproc_ms")}
    start = time.perf_counter()
    k = 0
    while k == 0 or (time_bounded and time.perf_counter() - start < ctx.seconds):
        argvs = cli_argvs(ctx, inputs, k, (next(seeds), next(seeds), next(seeds)))
        for cmd in CLI_COMMANDS:
            code, seconds, _ = run_child(ctx, smm_command(argvs[cmd]), ctx.work / f"{cmd}_{k}.out")
            times[cmd, "s"].append(seconds)
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter_ns()
                code_inproc = main([str(a) for a in argvs[cmd]])
                times[cmd, "inproc_ms"].append((time.perf_counter_ns() - t0) / 1e6)
            for way, exit_code in (("subprocess", code), ("in-process", code_inproc)):
                result.attempted += 1
                if exit_code != 0:
                    result.failed += 1
                    result.problems.append(f"{way} cli {cmd} cycle {k}: exit {exit_code}")
        k += 1
    for (cmd, way), values in times.items():
        layers.put(f"cli.{cmd}_{way}", statistics.median(values), "s" if way == "s" else "ms")


def micro_layers(ctx: Context, layers: Layers, traced: list) -> None:
    """Single calls into serialize, rng, simulate, moments, model_spec, smm_core and montecarlo."""
    pop = next(t for t in traced if t["design"] == "model1_n900")["config"].population
    spec = traced[0]["config"].spec
    seed = next(designs.seed_stream(ctx.seed, "layers"))
    csv_path = ctx.work / "layer_sample.csv"
    write_normal_csv(csv_path, designs.population_doc("model1"), 900, seed)
    data = smm.draw_sample(pop, 900, smm.Seed(seed))
    study = designs.study_doc("model1_n900", 30, seed)
    summary = traced[0]["summaries"][1]

    many = 10 * layers.repeat
    layers.timed("serialize.read_csv_ms", "ms", ("smm.serialize", "read_csv"), csv_path)
    layers.timed("serialize.write_csv_ms", "ms", ("smm.serialize", "write_csv"), data, ctx.work / "layer_out.csv")
    layers.timed("serialize.study_from_dict_ms", "ms", ("smm.serialize", "study_from_dict"), study)
    layers.timed(
        "serialize.summary_json_ms", "ms", lambda: serialize.canonical_json(serialize.summary_to_dict(summary))
    )
    layers.timed("rng.normals_ms", "ms", ("smm.rng", "normals"), seed, (900, 5))
    for n in (150, 900):
        layers.timed(f"simulate.draw_sample_ms.n{n}", "ms", smm.draw_sample, pop, n, smm.Seed(seed))
    layers.timed("moments.compute_moments_ms", "ms", smm.compute_moments, data)
    layers.timed("model_spec.validate_us", "us", ("smm.model_spec", "validate"), spec, repeat=many)

    xbar = data.values.mean(axis=0)
    lam = np.array(designs.LOADINGS)
    layers.timed(
        "smm_core.factor_means_ls_us", "us", ("smm.smm_core", "factor_means_ls"),
        lam[:, None], xbar, np.zeros(lam.shape[0]), repeat=many,
    )
    layers.timed(
        "smm_core.proportionality_report_us", "us", ("smm.smm_core", "proportionality_report"),
        lam, xbar, repeat=many,
    )

    first = traced[0]
    layers.timed(
        "montecarlo.aggregate_ms", "ms", ("smm.montecarlo", "aggregate"),
        [r for r in first["results"] if r is not None], total_replications=len(first["results"]),
    )
    with_reference = next(t for t in traced if t["config"].reference is not None)
    layers.timed(
        "montecarlo.compare_to_reference_ms", "ms", ("smm.montecarlo", "compare_to_reference"),
        with_reference["summaries"][1],
    )


def pool_overhead(ctx: Context, layers: Layers, config) -> None:
    """A 1-replication study at parallelism 2 minus the same study at parallelism 1.

    With one replication both runs fit once, so the gap is the cost of
    starting and stopping the process pool.
    """
    config = replace(config, replications=1)
    gaps = []
    for _ in range(ctx.sizes.probe_samples):
        seconds = {}
        for parallelism in (1, 2):
            t0 = time.perf_counter_ns()
            smm.run_study(replace(config, max_parallelism=parallelism))
            seconds[parallelism] = time.perf_counter_ns() - t0
        gaps.append((seconds[2] - seconds[1]) / 1e6)
    layers.put("montecarlo.pool_overhead_ms", statistics.median(gaps), "ms")


def traced_study(tracer: Tracer, config, study_id: int) -> dict:
    """Replications of one study through public calls, then the untraced runs."""
    n = config.sample_sizes[0]
    results = []
    with tracer.span("study", (study_id,)):
        for rep in range(config.replications):
            data, fitted = replication(tracer, config, 0, n, rep, (study_id, rep))
            results.append(fitted)
            if rep == 0:
                first_data = data
        with tracer.span("montecarlo.aggregate", (study_id,)):
            fitted = [r for r in results if r is not None]
            condition = smm.aggregate(fitted, total_replications=config.replications)
    traced = smm.StudySummary(
        conditions=((n, condition),), replications=config.replications,
        seed=config.seed.master, reference=config.reference,
    )
    seconds, summaries = {}, {"traced": traced}
    for parallelism in (1, 2):
        t0 = time.perf_counter_ns()
        summaries[parallelism] = smm.run_study(replace(config, max_parallelism=parallelism))
        seconds[parallelism] = (time.perf_counter_ns() - t0) / 1e9
    return {"config": config, "results": results, "first_data": first_data,
            "seconds": seconds, "summaries": summaries, "id": study_id}


def estimator_layers(layers: Layers, tracer: Tracer, traced: list) -> None:
    fit_ns = {}
    for name, start, end, _, rid in tracer.spans:
        if name == "estimator.fit":
            fit_ns[rid] = end - start
    for design in designs.DESIGNS:
        studies = [t for t in traced if t["design"] == design]
        fits = [(fit_ns[(t["id"], rep)], r) for t in studies for rep, r in enumerate(t["results"])]
        done = [(ns, r) for ns, r in fits if r is not None]
        ms = np.array([ns / 1e6 for ns, _ in fits])
        iterations = np.array([r.iterations for _, r in done])
        layers.put(f"estimator.reps.{design}", len(fits), "count")
        layers.put(f"estimator.fit_ms.{design}", np.median(ms), "ms")
        layers.put(f"estimator.fit_ms_p95.{design}", np.percentile(ms, 95), "ms")
        layers.put(f"estimator.iterations.{design}", np.median(iterations), "count")
        layers.put(f"estimator.iterations_p95.{design}", np.percentile(iterations, 95), "count")
        layers.put(f"estimator.iterations_max.{design}", np.max(iterations), "count")
        layers.put(
            f"estimator.fit_us_per_iteration.{design}",
            sum(ns for ns, _ in done) / 1e3 / max(1, int(iterations.sum())), "us",
        )
        layers.put(f"estimator.restarts.{design}", sum(r.retries_used for _, r in done), "count")
        layers.put(
            f"estimator.nonconverged.{design}", sum(1 for _, r in fits if r is None or not r.converged), "count"
        )

        config, first = studies[0]["config"], studies[0]
        sample = smm.compute_moments(first["first_data"])
        free_values = first["results"][0].free_values
        name = f"estimator.ml_discrepancy_us.{design}"
        try:
            implied = lookup("smm.estimator", "implied_moments")(config.spec, free_values)
        except Absent as err:
            layers.mark_absent(name, "us", err)
        else:
            layers.timed(name, "us", ("smm.estimator", "ml_discrepancy"), sample, implied, repeat=10 * layers.repeat)
        layers.timed(
            f"estimator.numeric_gradient_us.{design}", "us", ("smm.estimator", "numeric_gradient"),
            config.spec, free_values, sample,
        )


def replication_layers(layers: Layers, tracer: Tracer) -> dict:
    """Mean wall time of a replication and of each phase; returns each phase's share of it in %."""
    wall = statistics.fmean(tracer.durations("replication"))
    layers.put("replication.wall_ms", wall / 1e6, "ms")
    shares = {}
    for phase, span in (("draw", "simulate.draw_sample"), ("moments", "moments.compute_moments"),
                        ("fit", "estimator.fit")):
        phase_ns = statistics.fmean(tracer.durations(span))
        layers.put(f"replication.{phase}_ms", phase_ns / 1e6, "ms")
        shares[phase] = 100.0 * phase_ns / wall
    return shares


def montecarlo_layers(layers: Layers, tracer: Tracer, traced: list) -> None:
    reps = sum(t["config"].replications for t in traced)
    traced_s = sum(tracer.durations("study")) / 1e9
    p1 = sum(t["seconds"][1] for t in traced)
    p2 = sum(t["seconds"][2] for t in traced)
    layers.put("montecarlo.reps_per_s_traced", reps / traced_s, "1/s")
    layers.put("montecarlo.reps_per_s_untraced", reps / p1, "1/s")
    layers.put("montecarlo.reps_per_s_par2", reps / p2, "1/s")
    layers.put("montecarlo.par2_speedup", p1 / p2, "x")
    layers.put("montecarlo.trace_overhead_pct", 100.0 * (traced_s - p1) / p1, "%")


def traced_run(ctx: Context, workload: str) -> Result:
    result = Result()
    layers = Layers(ctx.sizes.micro_repeat)
    tracer = Tracer()
    import_layers(ctx, layers)
    cli_layers(ctx, layers, workload == "cli_oneshot", result)

    own = MC_DESIGNS.get(workload, ())
    paths = write_studies(ctx, designs.DESIGNS)
    configs = {name: load_mc_study(path) for name, path in paths.items()}
    for config in configs.values():
        smm.run_study(config)  # warm-up, as in the untraced run
    seeds = designs.seed_stream(ctx.seed, f"{workload}-traced")
    traced = []

    def run(design, reps):
        config = replace(configs[design], seed=smm.Seed(next(seeds)), replications=reps)
        study = traced_study(tracer, config, len(traced))
        study["design"] = design
        traced.append(study)

    start = time.perf_counter()
    while own and (not traced or time.perf_counter() - start < ctx.seconds):
        for design in own:
            run(design, ctx.sizes.study_reps)
    for design in designs.DESIGNS:
        if design not in own:
            run(design, ctx.sizes.extra_reps)

    for study in traced:
        where = f"traced {study['design']} seed {study['config'].seed.master}"
        texts = {key: summary_text(s) for key, s in study["summaries"].items()}
        if not texts["traced"] == texts[1] == texts[2]:
            result.problems.append(f"{where}: traced, parallelism 1 and parallelism 2 summaries differ")
        for r in study["results"]:
            result.attempted += 1
            result.failed += r is None or not r.converged
        result.problems += fit_problems(
            model_doc_of(study["design"]), study["first_data"].values, fit_doc(study["results"][0]), where
        )

    micro_layers(ctx, layers, traced)
    pool_overhead(ctx, layers, configs["model1_n900"])
    estimator_layers(layers, tracer, traced)
    result.details["phase_shares_pct"] = replication_layers(layers, tracer)
    montecarlo_layers(layers, tracer, traced)
    result.metrics = layers.metrics
    result.details["absent"] = layers.absent
    result.details["spans"] = tracer.spans
    return result
