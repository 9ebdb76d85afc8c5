"""smm benchmark: Monte Carlo throughput, one-shot CLI latency, per-layer figures.

    python3 perfbench/run.py --workload mc_reference --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --quick

Run from the root of a checkout; the program is imported from ./src. With
--trace 0 the last line of standard output is a JSON object with the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run.
--quick runs every workload untraced, and one traced, on tiny inputs with
every check, and prints one JSON object per run. Details of each run (machine,
per-study and per-call times, spans of a traced run) go to
.perfbench_out/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys
import time
from pathlib import Path

WORKLOADS = ("mc_reference", "mc_anchored", "cli_oneshot")
# A run must end within 180 s; give up before that.
DEADLINE_S = 170


class Deadline(Exception):
    pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="every workload, tiny inputs, every check")
    args = parser.parse_args(argv)
    if not args.quick and args.workload is None:
        parser.error("--workload is required unless --quick is given")
    return args


def blas_info() -> dict:
    """BLAS name and version from numpy's build; threads of each loaded OpenBLAS."""
    import ctypes

    import numpy

    info = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        pass
    symbols = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads")
    libraries = {line.split()[-1] for line in Path("/proc/self/maps").read_text().splitlines()}
    for path in sorted(p for p in libraries if "openblas" in os.path.basename(p).lower() and ".so" in p):
        lib = ctypes.CDLL(path)
        for symbol in symbols:
            if hasattr(lib, symbol):
                info[f"threads:{os.path.basename(path)}"] = getattr(lib, symbol)()
                break
    return info


def machine_info(loadavg: list) -> dict:
    import numpy
    import scipy

    model = ""
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "loadavg_at_start": loadavg,
    }


def run_one(ctx, workload: str, trace: int):
    import layers
    import workloads

    if trace:
        return layers.traced_run(ctx, workload)
    if workload == "cli_oneshot":
        return workloads.cli_workload(ctx)
    return workloads.mc_workload(ctx, workload)


def report(result, out_dir: Path, label: str, machine: dict, elapsed: float) -> dict:
    spans = result.details.pop("spans", None)
    line = {
        "correct": not result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result.metrics.items()},
    }
    record = dict(line, label=label, machine=machine, elapsed_s=elapsed, problems=result.problems, details=result.details)
    (out_dir / f"{label}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        (out_dir / f"{label}-spans.json").write_text(json.dumps(spans) + "\n")
    for problem in result.problems[:20]:
        print(f"CHECK FAILED: {problem}")
    for name, reason in result.details.get("absent", {}).items():
        print(f"absent: {name} ({reason})")
    return line


def main(argv=None) -> int:
    loadavg = Path("/proc/loadavg").read_text().split()[:3]
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "smm" / "__init__.py").is_file():
        print(f"error: no smm package under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import smm

    if Path(smm.__file__).resolve().parent != (src / "smm").resolve():
        print(f"error: imported smm from {smm.__file__}, not from {src}", file=sys.stderr)
        return 2

    import workloads

    out_dir = root / ".perfbench_out"
    # Quick mode traces one Monte Carlo workload: a traced run covers every layer whatever its workload.
    runs = [(w, 0) for w in WORKLOADS] + [("mc_reference", 1)] if args.quick else [(args.workload, args.trace)]
    sizes = workloads.QUICK if args.quick else workloads.Sizes()
    seconds = 0.0 if args.quick else args.seconds
    machine = machine_info(loadavg)

    def on_deadline(signum, frame):
        raise Deadline(f"run exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, on_deadline)
    lines = []
    for workload, trace in runs:
        label = f"{workload}-seed{args.seed}-trace{trace}" + ("-quick" if args.quick else "")
        ctx = workloads.Context(src=src, work=out_dir / "work" / label, seed=args.seed, seconds=seconds, sizes=sizes)
        ctx.work.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        signal.alarm(DEADLINE_S)
        try:
            result = run_one(ctx, workload, trace)
        except Deadline as err:
            print(f"error: {workload}: {err}", file=sys.stderr)
            return 3
        finally:
            signal.alarm(0)
            if ctx.child is not None and ctx.child.poll() is None:
                ctx.child.kill()
                ctx.child.wait()
        elapsed = time.perf_counter() - start
        line = report(result, out_dir, label, machine, elapsed)
        print(f"{label}: {elapsed:.1f} s, machine {json.dumps(machine)}")
        lines.append(line)
        print(json.dumps(line), flush=True)
    # A finished run reports failed checks through "correct"; --quick, which
    # the benchmark's own test runs, also fails by exit code.
    return 1 if args.quick and not all(line["correct"] for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main())
