"""A fixed computation that measures how fast the machine is running right now.

The benchmark runs on shared machines whose speed swings by up to 2x
within seconds, in wall and CPU time alike. The timed loops therefore
alternate the program's work with this computation, which never changes:
a BFGS fit (scipy, finite-difference gradient) of the ML discrepancy in
oracle.py to one fixed sample, the same kind of small-matrix numpy work
the program does. ops_per_s and setup_s are reported at the speed of a
machine that does one such fit in NOMINAL_FIT_S seconds.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.optimize

import designs
import oracle

# Seconds per reference fit that ops_per_s is scaled to; about what the
# 2-vCPU machine the benchmark was defined on takes.
NOMINAL_FIT_S = 0.05
# Across whole runs the program's times move as this power of the reference's
# seconds per fit: the slope of log raw rate on log reference time, fitted
# over 20 runs of each workload, was 0.71 (mc_reference), 0.76 (mc_anchored)
# and 0.70 (cli_oneshot). Scaling by the full ratio over-corrected: a set of
# runs on a faster machine phase read 6% lower than one on a slower phase.
ELASTICITY = 0.7


class Reference:
    def __init__(self):
        mu, sigma = oracle.population_moments(designs.population_doc("model1"))
        z = np.random.default_rng(0).standard_normal((900, mu.shape[0]))
        self.xbar, self.cov = oracle.sample_moments(mu + z @ np.linalg.cholesky(sigma).T)
        p = mu.shape[0]
        self.start = np.r_[np.full(p, 0.5), np.log(np.full(p, 0.5)), 5.0]
        self.fits = 0
        self.seconds = 0.0
        self.blocks = []  # seconds per fit of each run()

    def _discrepancy(self, z):
        p = self.xbar.shape[0]
        lam = z[:p, None]
        sigma = lam @ lam.T + np.diag(np.exp(z[p:2 * p]))
        return oracle.ml_discrepancy(self.cov, self.xbar, sigma, lam[:, 0] * z[2 * p])

    def run(self, fits: int) -> None:
        """Time `fits` reference fits and add them to the running totals."""
        start = time.perf_counter()
        for _ in range(fits):
            scipy.optimize.minimize(self._discrepancy, self.start, method="BFGS")
        seconds = time.perf_counter() - start
        self.seconds += seconds
        self.fits += fits
        self.blocks.append(seconds / fits)

    def slowdown(self) -> float:
        """How much slower than at nominal speed the program ran: above 1 when the machine runs slow."""
        return (self.seconds / self.fits / NOMINAL_FIT_S) ** ELASTICITY
