"""The untraced workloads: Monte Carlo studies and one-shot CLI calls.

Each workload function returns a Result: the end-to-end metrics, the
operation counts, the problems the checks found and per-run details for
the result file. Timed regions contain only calls into the program; every
check runs after them.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import designs
import oracle
import smm
from reference import Reference
from smm import serialize

MC_DESIGNS = {
    "mc_reference": ("model1_n900", "model2_n150", "model2_n300", "model2_n900"),
    "mc_anchored": ("anchor_x1", "anchor_x5"),
}
CLI_COMMANDS = ("simulate", "means", "fit", "diagnose", "replicate")
CLI_DESIGN = "model1_n900"
CLI_N = 900
# BFGS iterations a Monte Carlo fit may take. FitOptions' default of 500 is
# too few for anchor_x1 on about one sample in 7,000 (one needed 603, and its
# three jittered restarts also stopped at 500), which then counts as a
# convergence failure on some seeds and not others. With this cap such a
# straggler is timed to convergence instead. The CLI calls keep the default.
MC_MAX_ITERATIONS = 3000


@dataclass(frozen=True)
class Sizes:
    """Amounts of work that do not scale with the run length."""

    study_reps: int = 15  # replications per Monte Carlo study
    reference_fits: int = 12  # reference fits after each study or CLI call (reference.py)
    setup_samples: int = 3  # fresh-interpreter set-ups per run
    pool_check_reps: int = 6  # replications run at parallelism 1 and 2 for the pool check
    shared_samples: int = 3  # samples fitted under both anchors
    replicate_reps: int = 5  # --reps of the `smm replicate` call
    probe_samples: int = 3  # import-time interpreters and pool start-ups in a traced run
    micro_repeat: int = 30  # calls per layer timing in a traced run
    extra_reps: int = 6  # traced replications of designs outside the workload


QUICK = Sizes(
    study_reps=3,
    reference_fits=2,
    setup_samples=1,
    pool_check_reps=2,
    shared_samples=1,
    replicate_reps=2,
    probe_samples=1,
    micro_repeat=3,
    extra_reps=2,
)


@dataclass
class Context:
    src: Path
    work: Path
    seed: int
    seconds: float
    sizes: Sizes
    child: subprocess.Popen | None = None


@dataclass
class Result:
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    details: dict = field(default_factory=dict)


def run_child(ctx: Context, argv: list, stdout_path: Path) -> tuple[int, float, int]:
    """Run one child process to its end: (exit code, wall seconds, peak RSS in KiB).

    The child is reaped with wait4 so that its own peak RSS is known.
    """
    env = dict(os.environ, PYTHONPATH=str(ctx.src))
    with open(stdout_path, "wb") as out, open(ctx.work / "child.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ctx.work)
        ctx.child = proc
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            ctx.child = None
    return proc.returncode, elapsed, usage.ru_maxrss


def child_error(ctx: Context) -> str:
    lines = (ctx.work / "child.err").read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else "(no stderr)"


def report_at_nominal_speed(result: Result, ops: int, seconds: float, setup_s: float, reference: Reference) -> None:
    """ops_per_s and setup_s at the nominal machine speed; the raw figures and the speed go to the result file."""
    raw_ops_per_s = ops / seconds
    result.metrics["ops_per_s"] = (raw_ops_per_s * reference.slowdown(), "1/s")
    result.metrics["setup_s"] = (setup_s / reference.slowdown(), "s")
    result.details["raw_ops_per_s"] = raw_ops_per_s
    result.details["raw_setup_s"] = setup_s
    result.details["reference_s_per_fit"] = reference.seconds / reference.fits
    result.details["reference_blocks"] = reference.blocks


class StudyRunner:
    """study_runner.py in a child process: the process that runs the Monte Carlo studies.

    The benchmark's own work (reference fits, checks, the oracle) stays in
    this process, so the runner's peak RSS is the program's.
    """

    def __init__(self, ctx: Context):
        self.ctx = ctx
        argv = [sys.executable, str(Path(__file__).with_name("study_runner.py")), str(ctx.src)]
        self.err_path = ctx.work / "runner.err"
        with open(self.err_path, "wb") as err:
            self.proc = subprocess.Popen(
                argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, cwd=ctx.work, text=True
            )
        ctx.child = self.proc

    def run(self, study: Path, seed: int, replications: int, parallelism: int = 1) -> tuple[float, str]:
        """run_study on one study file: (wall seconds inside the runner, canonical summary JSON)."""
        request = {
            "study": str(study), "seed": seed, "replications": replications,
            "max_parallelism": parallelism, "max_iterations": MC_MAX_ITERATIONS,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            lines = self.err_path.read_text(errors="replace").strip().splitlines()
            raise RuntimeError(f"study runner stopped: {lines[-1] if lines else '(no stderr)'}")
        reply = json.loads(line)
        return reply["seconds"], reply["summary"]

    def close(self) -> float:
        """End the runner; the peak RSS in MB of it and of its reaped pool workers."""
        self.proc.stdin.close()
        _, status, usage = os.wait4(self.proc.pid, 0)  # the rusage covers the runner's reaped children
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.ctx.child = None
        if self.proc.returncode != 0:
            raise RuntimeError(f"study runner exited {self.proc.returncode}")
        return usage.ru_maxrss / 1024.0


def measure_setup(ctx: Context, study_paths: list, result: Result) -> float:
    """Median wall seconds of set-up over fresh interpreters (see setup_probe.py)."""
    probe = Path(__file__).with_name("setup_probe.py")
    times = []
    for _ in range(ctx.sizes.setup_samples):
        out = ctx.work / "setup.out"
        code, _, _ = run_child(ctx, [sys.executable, str(probe), str(ctx.src), *map(str, study_paths)], out)
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}: {child_error(ctx)}")
        times.append(float(out.read_text().split()[-1]))
    result.details["raw_setup_samples_s"] = times
    return statistics.median(times)


def write_json(path: Path, doc: dict) -> Path:
    path.write_text(serialize.canonical_json(doc))
    return path


def write_studies(ctx: Context, names) -> dict:
    """One study file per design; seeds and counts are replaced per study."""
    return {
        name: write_json(ctx.work / f"study_{name}.json", designs.study_doc(name, 1, 1))
        for name in names
    }


def load_study(path: Path):
    return serialize.study_from_dict(serialize.load_json(path))


def load_mc_study(path: Path):
    """A study file as the Monte Carlo workloads and the traced run fit it: with MC_MAX_ITERATIONS."""
    config = load_study(path)
    return replace(config, fit_options=replace(config.fit_options, max_iterations=MC_MAX_ITERATIONS))


def summary_text(summary) -> str:
    return serialize.canonical_json(serialize.summary_to_dict(summary))


class NoTrace:
    def span(self, name, rep=None):
        return contextlib.nullcontext()


def replication(tracer, config, condition_index: int, n: int, rep: int, rid=None):
    """One replication through public calls, in the order run_study makes them.

    Returns the data and the FitResult (None on a hard error). Each call
    into the program is wrapped in a span of the tracer.
    """
    span = tracer.span
    with span("replication", rid):
        with span("rng.derive_seed", rid):
            rep_seed = smm.rng.derive_seed(config.seed.master, condition_index, rep)
        with span("simulate.draw_sample", rid):
            data = smm.draw_sample(config.population, n, smm.Seed(rep_seed))
        with span("moments.compute_moments", rid):
            sample = smm.compute_moments(data)
        with span("rng.derive_seed", rid):
            jitter_seed = smm.rng.derive_seed(rep_seed, smm.rng.STREAM_JITTER)
        options = replace(config.fit_options, seed=jitter_seed)
        with span("estimator.fit", rid):
            try:
                result = smm.fit(config.spec, sample, options)
            except smm.SmmError:
                result = None
    return data, result


def fit_problems(model_doc: dict, values: np.ndarray, fit_doc: dict | None, where: str) -> list:
    """Oracle checks of one fit, given as serialize.fit_result_to_dict writes it."""
    if fit_doc is None:
        return [f"{where}: fit raised an error"]
    xbar, cov = oracle.sample_moments(values)
    found = oracle.check_fit(model_doc, cov, xbar, values.shape[0], fit_doc)
    return [f"{where}: {text}" for text in found]


def fit_doc(result) -> dict | None:
    return None if result is None else serialize.fit_result_to_dict(result)


def model_doc_of(design: str) -> dict:
    return designs.model_doc(designs.DESIGNS[design][1])


# -- Monte Carlo workloads -----------------------------------------------


def mc_workload(ctx: Context, workload: str) -> Result:
    names = MC_DESIGNS[workload]
    result = Result()
    paths = write_studies(ctx, names)
    setup_s = measure_setup(ctx, list(paths.values()), result)
    configs = {name: load_mc_study(path) for name, path in paths.items()}
    runner = StudyRunner(ctx)
    for path in paths.values():
        runner.run(path, 1, 1)  # warm-up: the first study in a process runs slower

    reps = ctx.sizes.study_reps
    seeds = designs.seed_stream(ctx.seed, workload)
    reference = Reference()
    studies = []
    start = time.perf_counter()
    while not studies or time.perf_counter() - start < ctx.seconds:
        for name in names:  # whole rounds keep the mix of designs fixed
            seed = next(seeds)
            seconds, text = runner.run(paths[name], seed, reps)
            studies.append((name, seed, seconds, text))
            reference.run(ctx.sizes.reference_fits)
    # The pool path, once per design, on the first replications of its first study.
    pool_texts = {
        name: {runner.run(paths[name], seed, ctx.sizes.pool_check_reps, k)[1] for k in (1, 2)}
        for name, seed, _, _ in studies[: len(names)]
    }
    result.metrics["peak_rss_mb"] = (runner.close(), "MB")

    report_at_nominal_speed(result, reps * len(studies), sum(s[2] for s in studies), setup_s, reference)
    result.details["studies"] = [
        {"design": name, "seed": seed, "seconds": seconds} for name, seed, seconds, _ in studies
    ]

    docs = []
    for name, seed, _, text in studies:
        where = f"{name} seed {seed}"
        doc = json.loads(text)
        docs.append((name, doc))
        for cond in doc["conditions"]:
            result.attempted += reps
            result.failed += cond["convergence_failures"]
            if cond["r_effective"] + cond["convergence_failures"] != reps:
                result.problems.append(f"{where}: r_effective + failures != {reps}")
            if cond["df"] != oracle.degrees_of_freedom(model_doc_of(name)):
                result.problems.append(f"{where}: df {cond['df']} is not p(p+3)/2 - t")
        # the first replication, refitted through public calls, against the oracle
        config = replace(configs[name], seed=smm.Seed(seed), replications=reps)
        data, fitted = replication(NoTrace(), config, 0, config.sample_sizes[0], 0)
        result.problems += fit_problems(model_doc_of(name), data.values, fit_doc(fitted), f"{where} rep 0")
    for name, texts in pool_texts.items():
        if len(texts) != 1:
            result.problems.append(f"{name}: parallelism 1 and 2 summaries differ")

    if workload == "mc_reference":
        result.problems += table1_problems(docs)
    else:
        result.problems += anchor_problems(ctx, configs)
    return result


def table1_problems(docs: list) -> list:
    """Pooled means against Table 1 within 4 combined SEs plus rounding."""
    pooled = {}
    for name, doc in docs:
        for cond in doc["conditions"]:
            entry = pooled.setdefault(name, {"r": 0, "sums": {}})
            r = cond["r_effective"]
            entry["r"] += r
            values = {p["name"]: p["mean"] for p in cond["parameters"]}
            values["chi-square"] = cond["chi_square"]["mean"]
            for key, value in values.items():
                entry["sums"][key] = entry["sums"].get(key, 0.0) + r * value
    problems = []
    for name, entry in pooled.items():
        _, _, n, block = designs.DESIGNS[name]
        table = designs.TABLE1[(block, n)]
        means = {key: total / entry["r"] for key, total in entry["sums"].items()}
        rows = list(zip([f"lambda[{v},F1]" for v in designs.VARIABLES], table["loadings"]))
        rows += [("theta[F1]", table["factor_mean"]), ("chi-square", table["chi_square"])]
        for key, (paper_mean, paper_sd) in rows:
            se = paper_sd * (1.0 / entry["r"] + 1.0 / designs.PAPER_REPLICATIONS) ** 0.5
            tolerance = 4.0 * se + designs.PAPER_ROUNDING
            if not abs(means[key] - paper_mean) <= tolerance:
                problems.append(
                    f"{name}: pooled {key} mean {means[key]:.4f} vs Table 1 {paper_mean} "
                    f"+/- {tolerance:.4f} over {entry['r']} replications"
                )
    return problems


def anchor_problems(ctx: Context, configs: dict) -> list:
    """Both anchors give the same f_min, and their implied means reproduce xbar."""
    problems = []
    x1, x5 = configs["anchor_x1"], configs["anchor_x5"]
    seeds = designs.seed_stream(ctx.seed, "shared")
    for _ in range(ctx.sizes.shared_samples):
        seed = next(seeds)
        data = smm.draw_sample(x1.population, 900, smm.Seed(seed))
        sample = smm.compute_moments(data)
        xbar = oracle.sample_moments(data.values)[0]
        fits = {}
        for name, config in (("anchor_x1", x1), ("anchor_x5", x5)):
            fitted = smm.fit(config.spec, sample, replace(config.fit_options, seed=seed))
            fits[name] = fitted
            where = f"{name} shared sample {seed}"
            doc = fit_doc(fitted)
            problems += fit_problems(model_doc_of(name), data.values, doc, where)
            mu = oracle.implied(doc["estimates"])[1]
            if not np.max(np.abs(mu - xbar)) <= 1e-6:
                problems.append(f"{where}: implied means miss xbar by {np.max(np.abs(mu - xbar)):.2e}")
        gap = abs(fits["anchor_x1"].f_min - fits["anchor_x5"].f_min)
        if not gap <= 1e-10:
            problems.append(f"shared sample {seed}: anchors differ in f_min by {gap:.2e}")
    return problems


# -- one-shot CLI calls --------------------------------------------------


def write_normal_csv(path: Path, pop_doc: dict, n: int, seed: int) -> None:
    """A multivariate normal sample made by the benchmark, not by the program."""
    mu, sigma = oracle.population_moments(pop_doc)
    z = np.random.default_rng(seed).standard_normal((n, mu.shape[0]))
    values = mu + z @ np.linalg.cholesky(sigma).T
    lines = [",".join(designs.VARIABLES)]
    lines += [",".join("%.17g" % v for v in row) for row in values]
    path.write_text("\n".join(lines) + "\n")


def cli_inputs(ctx: Context) -> dict:
    return {
        "population": write_json(ctx.work / "population_model1.json", designs.population_doc("model1")),
        "model_free": write_json(ctx.work / "model_free.json", designs.model_doc()),
        "model_fixed": write_json(ctx.work / "model_fixed.json", designs.model_doc(fixed_loadings=True)),
        "study": write_json(
            ctx.work / "study_replicate.json",
            designs.study_doc(CLI_DESIGN, ctx.sizes.replicate_reps, 1),
        ),
    }


def cli_argvs(ctx: Context, inputs: dict, k: int, seeds: tuple) -> dict:
    """Arguments of each command for cycle k, and the files they read or write."""
    sim_seed, data_seed, rep_seed = seeds
    sim_csv = ctx.work / f"sim_{k}.csv"
    model2_csv = ctx.work / f"model2_{k}.csv"
    write_normal_csv(model2_csv, designs.population_doc("model2"), CLI_N, data_seed)
    out = {cmd: ctx.work / f"{cmd}_{k}.json" for cmd in CLI_COMMANDS}
    return {
        "simulate": ["simulate", inputs["population"], "--n", str(CLI_N), "--seed", str(sim_seed), "--out", sim_csv],
        "means": ["means", inputs["model_fixed"], sim_csv, "--json", out["means"]],
        "fit": ["fit", inputs["model_free"], sim_csv, "--json", out["fit"]],
        "diagnose": ["diagnose", inputs["model_free"], model2_csv, "--json", out["diagnose"]],
        # No --compare-paper: its gate takes the paper's two-decimal SDs, and the
        # 0.01 for lambda[x1] understates the 0.013 measured, so it fails on a few
        # seeds in a thousand and `failed` would vary with the seed.
        "replicate": [
            "replicate", inputs["study"], "--reps", str(ctx.sizes.replicate_reps),
            "--seed", str(rep_seed), "--json", out["replicate"],
        ],
    }


def smm_command(argv: list) -> list:
    return [sys.executable, "-m", "smm", *map(str, argv)]


def cli_workload(ctx: Context) -> Result:
    result = Result()
    inputs = cli_inputs(ctx)
    setup_s = measure_setup(ctx, [inputs["study"]], result)
    seeds = designs.seed_stream(ctx.seed, "cli")
    reference = Reference()
    times = {cmd: [] for cmd in CLI_COMMANDS}
    peak_kib = 0
    cycles = []
    start = time.perf_counter()
    while not cycles or time.perf_counter() - start < ctx.seconds:
        k = len(cycles)
        cycle_seeds = (next(seeds), next(seeds), next(seeds))
        argvs = cli_argvs(ctx, inputs, k, cycle_seeds)
        codes = {}
        for cmd in CLI_COMMANDS:  # round robin, so drift in machine speed hits every command
            code, seconds, rss = run_child(ctx, smm_command(argvs[cmd]), ctx.work / f"{cmd}_{k}.out")
            codes[cmd] = (code, child_error(ctx) if code else "")
            times[cmd].append(seconds)
            peak_kib = max(peak_kib, rss)
            reference.run(ctx.sizes.reference_fits)
        cycles.append((k, cycle_seeds, argvs, codes))

    calls = sum(len(t) for t in times.values())
    report_at_nominal_speed(result, calls, sum(sum(t) for t in times.values()), setup_s, reference)
    result.metrics["peak_rss_mb"] = (peak_kib / 1024.0, "MB")
    result.details["call_seconds"] = times

    config = load_study(inputs["study"])
    for k, cycle_seeds, argvs, codes in cycles:
        for cmd in CLI_COMMANDS:
            result.attempted += 1
            code, error = codes[cmd]
            if code != 0:
                result.failed += 1
                result.problems.append(f"cycle {k} {cmd}: exit {code}: {error}")
        if not any(code for code, _ in codes.values()):
            result.problems += cli_problems(ctx, config, k, cycle_seeds, argvs)
    result.problems += simulate_repeat_problems(ctx, cycles[0])
    return result


def simulate_repeat_problems(ctx: Context, cycle) -> list:
    """`smm simulate` with the same seed again writes the same bytes."""
    k, _, argvs, _ = cycle
    first = Path(argvs["simulate"][-1]).read_bytes()
    again = ctx.work / "sim_again.csv"
    code, _, _ = run_child(ctx, smm_command(argvs["simulate"][:-1] + [again]), ctx.work / "again.out")
    if code != 0 or again.read_bytes() != first:
        return [f"cycle {k} simulate: same seed did not give the same file (exit {code})"]
    return []


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())


def cli_problems(ctx: Context, config, k: int, cycle_seeds: tuple, argvs: dict) -> list:
    """Checks of one cycle's outputs against the oracle and in-process run_study."""
    problems = []
    pop = designs.population_doc("model1")
    mu, sigma = oracle.population_moments(pop)

    values = oracle.read_csv(argvs["simulate"][-1])
    xbar = oracle.sample_moments(values)[0]
    se = np.sqrt(np.diag(sigma) / CLI_N)
    if values.shape != (CLI_N, len(designs.VARIABLES)) or not np.all(np.abs(xbar - mu) <= 5 * se):
        problems.append(f"cycle {k} simulate: sample shape {values.shape} or mean off by > 5 SE")

    means = read_json(argvs["means"][-1])
    lam = np.array(designs.LOADINGS)
    theta = oracle.factor_means_ls(lam[:, None], xbar, np.zeros(lam.shape[0]))[0]
    ratios, _ = oracle.ratios_and_cv(xbar, lam)
    got = np.array([means["ratios"][v] for v in designs.VARIABLES])
    if not (abs(means["factor_means"]["F1"] - theta) <= 1e-10 and np.max(np.abs(got - ratios)) <= 1e-10):
        problems.append(f"cycle {k} means: factor mean or ratios differ from the closed form")

    fitted = read_json(argvs["fit"][-1])
    problems += fit_problems(designs.model_doc(), values, fitted, f"cycle {k} fit")

    diag = read_json(argvs["diagnose"][-1])
    values2 = oracle.read_csv(argvs["diagnose"][2])
    problems += fit_problems(designs.model_doc(), values2, diag["fit"], f"cycle {k} diagnose")
    ratios, cv = oracle.ratios_and_cv(oracle.sample_moments(values2)[0], diag["covariance_only"]["loadings"])
    report = diag["proportionality"]
    if not (np.max(np.abs(np.array(report["ratios"]) - ratios)) <= 1e-10 and abs(report["cv"] - cv) <= 1e-10):
        problems.append(f"cycle {k} diagnose: ratios or cv differ from the covariance-only loadings")
    if report["verdict"] != "INCONSISTENT":
        problems.append(f"cycle {k} diagnose: model 2 data called {report['verdict']}")

    replicated = read_json(argvs["replicate"][-1])
    expected = smm.run_study(
        replace(config, seed=smm.Seed(cycle_seeds[2]), replications=ctx.sizes.replicate_reps)
    )
    if serialize.canonical_json(replicated["summary"]) != summary_text(expected):
        problems.append(f"cycle {k} replicate: summary differs from in-process run_study")
    return problems

