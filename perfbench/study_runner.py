"""The program's side of a Monte Carlo run: run_study on request, in a process of its own.

    python3 perfbench/study_runner.py SRC_DIR

Reads one JSON request a line from standard input,
{"study": PATH, "seed": S, "replications": R, "max_parallelism": K,
"max_iterations": M}, runs smm.run_study on that study file with those
replaced (M in its fit options), and writes one line back:
{"seconds": wall seconds of run_study, "summary": the summary as
serialize.canonical_json writes it}. Ends at the end of its input.

It imports smm and nothing of the benchmark, so the peak RSS of this
process and of its pool workers, which the benchmark reads when it reaps
it, is the program's own.
"""

import json
import sys
import time

sys.path.insert(0, sys.argv[1])

from dataclasses import replace  # noqa: E402

import smm  # noqa: E402
from smm import serialize  # noqa: E402

studies = {}
for line in sys.stdin:
    request = json.loads(line)
    path = request["study"]
    if path not in studies:
        studies[path] = serialize.study_from_dict(serialize.load_json(path))
    config = replace(
        studies[path],
        seed=smm.Seed(request["seed"]),
        replications=request["replications"],
        max_parallelism=request["max_parallelism"],
        fit_options=replace(studies[path].fit_options, max_iterations=request["max_iterations"]),
    )
    start = time.perf_counter()
    summary = smm.run_study(config)
    seconds = time.perf_counter() - start
    text = serialize.canonical_json(serialize.summary_to_dict(summary))
    print(json.dumps({"seconds": seconds, "summary": text}), flush=True)
