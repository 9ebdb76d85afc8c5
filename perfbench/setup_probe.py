"""One set-up of the program, timed inside a fresh interpreter.

    python3 perfbench/setup_probe.py SRC_DIR STUDY.json [STUDY.json ...]

Times `import smm`, loading each study file, and one warm-up replication
per study at parallelism 1, then prints the elapsed seconds. Interpreter
start-up before this script runs is not counted.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

from dataclasses import replace  # noqa: E402

import smm  # noqa: E402
from smm import serialize  # noqa: E402

for path in sys.argv[2:]:
    config = serialize.study_from_dict(serialize.load_json(path))
    smm.run_study(replace(config, replications=1, max_parallelism=1))
print(repr(time.perf_counter() - start))
