"""The study designs the benchmark runs, and the paper's Table 1.

Every design is written out here as the study document `smm replicate`
and `serialize.study_from_dict` read, so the benchmark hands the program
only generated inputs and does not depend on the bundled fixture files.
All designs share one population structure: one factor with unit variance,
loadings (.3, .4, .5, .6, .7) and unit unique variances. Model 1 has
structured means (zero intercepts, factor mean 10); model 2 reverses the
mean vector to (7, 6, 5, 4, 3), which no factor mean can produce.
"""

from __future__ import annotations

import random

VARIABLES = ("x1", "x2", "x3", "x4", "x5")
LOADINGS = (0.3, 0.4, 0.5, 0.6, 0.7)
MODEL1_FACTOR_MEAN = 10.0
MODEL2_MEANS = (7.0, 6.0, 5.0, 4.0, 3.0)

# name -> (population, anchored intercept or None, n, Table 1 block)
DESIGNS = {
    "model1_n900": ("model1", None, 900, "model1"),
    "model2_n150": ("model2", None, 150, "model2"),
    "model2_n300": ("model2", None, 300, "model2"),
    "model2_n900": ("model2", None, 900, "model2"),
    "anchor_x1": ("model2", 0, 900, None),
    "anchor_x5": ("model2", 4, 900, None),
}

# Table 1 of the paper, 2,000 replications per condition, printed to two
# decimals: (mean, sd) per loading, of the factor mean and of chi-square.
PAPER_REPLICATIONS = 2000
PAPER_ROUNDING = 0.005
TABLE1 = {
    ("model1", 900): {
        "loadings": ((0.30, 0.01), (0.40, 0.02), (0.50, 0.02), (0.60, 0.03), (0.70, 0.03)),
        "factor_mean": (10.04, 0.43),
        "chi_square": (9.15, 4.26),
    },
    ("model2", 900): {
        "loadings": ((0.56, 0.03), (0.48, 0.03), (0.40, 0.02), (0.32, 0.02), (0.24, 0.01)),
        "factor_mean": (12.49, 0.66),
        "chi_square": (126.82, 22.88),
    },
    ("model2", 300): {
        "loadings": ((0.56, 0.05), (0.48, 0.04), (0.40, 0.04), (0.32, 0.03), (0.24, 0.02)),
        "factor_mean": (12.59, 1.21),
        "chi_square": (48.47, 13.42),
    },
    ("model2", 150): {
        "loadings": ((0.56, 0.07), (0.48, 0.06), (0.40, 0.05), (0.32, 0.04), (0.24, 0.03)),
        "factor_mean": (12.83, 1.89),
        "chi_square": (28.46, 9.99),
    },
}


def population_doc(kind: str) -> dict:
    doc = {
        "loadings": [[v] for v in LOADINGS],
        "factor_cov": [[1.0]],
        "unique_variances": [1.0] * len(LOADINGS),
        "variable_names": list(VARIABLES),
    }
    if kind == "model1":
        doc["means"] = {"intercepts": [0.0] * len(LOADINGS), "factor_means": [MODEL1_FACTOR_MEAN]}
    else:
        doc["means"] = {"mean_vector": list(MODEL2_MEANS)}
    return doc


def model_doc(anchor: int | None = None, fixed_loadings: bool = False) -> dict:
    """The one-factor model fitted in every design.

    Loadings and unique variances free, factor variance fixed at 1,
    factor mean free. Intercepts are fixed at 0, or, with an anchor, free
    except the anchored one. fixed_loadings pins the loadings at the
    population values, which is the model `smm means` reads them from.
    """
    p = len(LOADINGS)
    loadings = [[{"fixed": v}] if fixed_loadings else ["free"] for v in LOADINGS]
    if anchor is None:
        intercepts = [{"fixed": 0.0}] * p
    else:
        intercepts = [{"fixed": 0.0} if i == anchor else "free" for i in range(p)]
    return {
        "loadings": loadings,
        "intercepts": intercepts,
        "factor_means": ["free"],
        "factor_cov": [[{"fixed": 1.0}]],
        "unique_variances": ["free"] * p,
        "variable_names": list(VARIABLES),
        "factor_names": ["F1"],
    }


def study_doc(design: str, replications: int, seed: int) -> dict:
    kind, anchor, n, reference = DESIGNS[design]
    return {
        "population": population_doc(kind),
        "model": model_doc(anchor),
        "sample_sizes": [n],
        "replications": replications,
        "seed": seed,
        "max_parallelism": 1,
        "reference": reference,
    }


def seed_stream(workload_seed: int, label: str):
    """Endless stream of 62-bit seeds drawn from the workload seed and a label."""
    gen = random.Random(f"{label}:{workload_seed}")
    while True:
        yield gen.getrandbits(62)
