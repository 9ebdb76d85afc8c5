"""Independent reference computations for checking the program's outputs.

Nothing here imports smm. Each function is written from the formula, as
plainly as possible, and is used only outside timed regions.
"""

from __future__ import annotations

import csv

import numpy as np

BLOCKS = ("loadings", "intercepts", "factor_means", "factor_cov", "unique_variances")


def population_moments(pop_doc: dict) -> tuple[np.ndarray, np.ndarray]:
    lam = np.array(pop_doc["loadings"], dtype=float)
    phi = np.array(pop_doc["factor_cov"], dtype=float)
    sigma = lam @ phi @ lam.T + np.diag(pop_doc["unique_variances"])
    means = pop_doc["means"]
    if "mean_vector" in means:
        mu = np.array(means["mean_vector"], dtype=float)
    else:
        mu = np.array(means["intercepts"]) + lam @ np.array(means["factor_means"])
    return mu, sigma


def read_csv(path) -> np.ndarray:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return np.array([[float(v) for v in row] for row in rows[1:] if row])


def sample_moments(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean vector and covariance with denominator n - 1."""
    xbar = values.mean(axis=0)
    centered = values - xbar
    return xbar, centered.T @ centered / (values.shape[0] - 1)


def ml_discrepancy(cov, xbar, sigma, mu) -> float:
    """F = ln|Sigma| - ln|S| + tr(S Sigma^-1) - p + (xbar - mu)' Sigma^-1 (xbar - mu)."""
    sign_s, logdet_s = np.linalg.slogdet(cov)
    sign, logdet = np.linalg.slogdet(sigma)
    if sign_s <= 0 or sign <= 0:
        return np.inf
    inv = np.linalg.inv(sigma)
    d = xbar - mu
    return float(logdet - logdet_s + np.trace(cov @ inv) - len(xbar) + d @ inv @ d)


def free_cells(model_doc: dict) -> list:
    """(block, row, col) of every free cell; factor_cov counts its lower triangle."""
    cells = []
    for block in BLOCKS:
        for i, entry in enumerate(model_doc[block]):
            row = entry if isinstance(entry, list) else [entry]
            for j, cell in enumerate(row):
                if block == "factor_cov" and j > i:
                    continue
                if cell == "free" or (isinstance(cell, dict) and "free" in cell):
                    cells.append((block, i, j))
    return cells


def degrees_of_freedom(model_doc: dict) -> int:
    p = len(model_doc["loadings"])
    return p * (p + 3) // 2 - len(free_cells(model_doc))


def implied(est: dict) -> tuple[np.ndarray, np.ndarray]:
    lam = np.array(est["loadings"], dtype=float)
    phi = np.array(est["factor_cov"], dtype=float)
    sigma = lam @ phi @ lam.T + np.diag(est["unique_variances"])
    mu = np.array(est["intercepts"]) + lam @ np.array(est["factor_means"])
    return sigma, mu


def _perturbed(est: dict, cell: tuple, delta: float) -> dict:
    out = {block: np.array(est[block], dtype=float) for block in BLOCKS}
    block, i, j = cell
    target = out[block]
    if target.ndim == 1:
        target[i] += delta
    else:
        target[i, j] += delta
        if block == "factor_cov" and i != j:
            target[j, i] += delta
    return out


def check_fit(model_doc, cov, xbar, n, fit_doc, step=1e-4):
    """Problems found with one fit, as strings; empty when the fit checks out.

    fit_doc is a fit as `smm fit --json` writes it. Checks that the fit
    converged, that the formula's F at the estimates equals f_min, the
    chi-square and df definitions, and that moving any free parameter by
    +-step (relative for |value| > 1) does not lower F.
    """
    est, f_min, chi_square, df = fit_doc["estimates"], fit_doc["f_min"], fit_doc["chi_square"], fit_doc["df"]
    problems = []
    if not fit_doc["converged"]:
        problems.append("fit did not converge")
    sigma, mu = implied(est)
    f_hat = ml_discrepancy(cov, xbar, sigma, mu)
    if not abs(f_hat - f_min) <= 1e-9:
        problems.append(f"oracle F {f_hat!r} != f_min {f_min!r}")
    if not abs(chi_square - (n - 1) * f_min) <= 1e-9 * max(1.0, abs(chi_square)):
        problems.append(f"chi_square {chi_square!r} != (n-1) f_min")
    if df != degrees_of_freedom(model_doc):
        problems.append(f"df {df} != p(p+3)/2 - t = {degrees_of_freedom(model_doc)}")
    for cell in free_cells(model_doc):
        block, i, j = cell
        matrix = np.asarray(est[block], dtype=float)
        value = matrix[i, j] if matrix.ndim == 2 else matrix[i]
        h = step * max(1.0, abs(value))
        for delta in (h, -h):
            f_moved = ml_discrepancy(cov, xbar, *implied(_perturbed(est, cell, delta)))
            if f_moved < f_hat - 1e-12:
                problems.append(f"moving {block}[{i},{j}] by {delta:+.1e} lowers F to {f_moved!r}")
    return problems


def factor_means_ls(lam, xbar, nu) -> np.ndarray:
    """(Lambda' Lambda)^-1 Lambda' (xbar - nu)."""
    lam = np.asarray(lam, dtype=float)
    return np.linalg.solve(lam.T @ lam, lam.T @ (np.asarray(xbar) - np.asarray(nu)))


def ratios_and_cv(xbar, loading_column) -> tuple[np.ndarray, float]:
    """Per-variable mean/loading ratios and their coefficient of variation (ddof 1)."""
    ratios = np.asarray(xbar, dtype=float) / np.asarray(loading_column, dtype=float)
    return ratios, float(np.std(ratios, ddof=1) / abs(np.mean(ratios)))
