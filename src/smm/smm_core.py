"""Closed-form mean-structure arithmetic for common factor models.

The model for the observed mean vector is

    E(x) = nu + Lambda theta

so with known loadings and intercepts the factor means are a linear
least-squares problem, and in the one-factor case each variable gives a
direct ratio estimate. The functions here are small and pure; the heavy
lifting (full ML estimation) lives in the estimator module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    SmmError,
    DIMENSION_MISMATCH,
    DIVISION_BY_NEAR_ZERO_LOADING,
    SINGULAR_CROSSPRODUCT,
    THEOREM_DIVERGENCE,
)

# Loadings smaller than this are treated as structural zeros: dividing by
# them would report divergence, not information.
LOADING_FLOOR = 1e-8

# Floor for the common loading w in the equal-loading formula. Far below
# any plausible loading; crossing it means the caller is in the divergence
# regime where |theta| grows like 1/w without bound.
W_FLOOR = 1e-12

CV_THRESHOLD = 0.05

CONSISTENT = "CONSISTENT"
INCONSISTENT = "INCONSISTENT"


def factor_means_ls(lam: np.ndarray, m: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Least-squares factor means (Lambda' Lambda)^-1 Lambda' (m - nu).

    Solved via QR-based least squares rather than forming the normal
    equations, which keeps the round-trip accuracy comfortably below 1e-10
    even for moderately ill-conditioned loading matrices. Rank deficiency
    is detected from the singular values of Lambda.
    """
    lam = np.atleast_2d(np.asarray(lam, dtype=float))
    m = np.atleast_1d(np.asarray(m, dtype=float))
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    if lam.shape[0] != m.shape[0] or m.shape != nu.shape:
        raise SmmError(
            DIMENSION_MISMATCH,
            f"loadings {lam.shape} incompatible with m {m.shape} / nu {nu.shape}",
        )
    theta, _, rank, _ = np.linalg.lstsq(lam, m - nu, rcond=1e-10)
    if rank < lam.shape[1]:
        raise SmmError(
            SINGULAR_CROSSPRODUCT,
            f"loading matrix has rank {rank} < {lam.shape[1]}; factor means not identified",
        )
    return theta


def equal_loading_mean(w: float, m: np.ndarray) -> float:
    """Factor mean when all loadings share the common value w.

    Equals mean(m) / w. As w approaches zero the estimate diverges like
    1/w, so values of |w| at or below W_FLOOR raise instead of returning a
    number that is all amplification and no signal.
    """
    m = np.atleast_1d(np.asarray(m, dtype=float))
    if abs(w) < W_FLOOR:
        raise SmmError(
            THEOREM_DIVERGENCE,
            f"|w| = {abs(w):.3g} below {W_FLOOR:g}; factor mean diverges as w -> 0",
        )
    p = m.shape[0]
    return float(np.sum(m) / (p * w))


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x, tied values sharing the average of their ranks."""
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    starts_group = np.concatenate([[True], ordered[1:] != ordered[:-1]])
    starts = np.flatnonzero(starts_group)
    sizes = np.diff(np.append(starts, x.size))
    ranks = np.empty(x.size)
    ranks[order] = (starts + (sizes + 1) / 2.0)[np.cumsum(starts_group) - 1]
    return ranks


def rank_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman's rho: the Pearson correlation of the average ranks of a and b."""
    ra = _average_ranks(np.asarray(a, dtype=float))
    rb = _average_ranks(np.asarray(b, dtype=float))
    ra -= ra.mean()
    rb -= rb.mean()
    return float(ra @ rb / np.sqrt((ra @ ra) * (rb @ rb)))


@dataclass(frozen=True)
class ProportionalityReport:
    """Diagnostic for the proportionality implied by a zero-intercept mean structure.

    ratios holds m_i / lambda_i with NaN where the loading sat below the
    floor; such variables are listed in excluded and noted in warnings.
    cv is the sample coefficient of variation of the usable ratios and
    drives the verdict; rank_corr is the Spearman correlation between
    |lambda| and m, a scale-free check of the same pattern.
    """

    ratios: np.ndarray
    mean_ratio: float
    cv: float
    rank_corr: float
    verdict: str
    excluded: tuple = ()
    warnings: tuple = ()


def proportionality_report(lambda_hat: np.ndarray, xbar: np.ndarray) -> ProportionalityReport:
    """Check whether observed means are proportional to loadings.

    A one-factor mean structure with zero intercepts forces E(x) to be
    proportional to the loading vector; ratios that disagree (large cv, or
    a negative ratio among positive ones) indicate the structure cannot
    hold with any single factor mean. Signed loadings are used for the
    ratios on purpose.
    """
    lam = np.atleast_1d(np.asarray(lambda_hat, dtype=float))
    m = np.atleast_1d(np.asarray(xbar, dtype=float))
    if lam.shape != m.shape:
        raise SmmError(DIMENSION_MISMATCH, f"loadings {lam.shape} and means {m.shape} differ")
    p = lam.shape[0]
    if p < 2:
        raise SmmError(DIMENSION_MISMATCH, "need at least 2 variables for a proportionality check")

    usable = np.abs(lam) >= LOADING_FLOOR
    ratios = np.full(p, np.nan)
    ratios[usable] = m[usable] / lam[usable]
    excluded = tuple(int(i) for i in np.flatnonzero(~usable))
    warnings_ = tuple(
        f"variable {i}: |loading| below {LOADING_FLOOR:g}, ratio excluded" for i in excluded
    )

    valid = ratios[usable]
    if valid.size == 0:
        raise SmmError(
            DIVISION_BY_NEAR_ZERO_LOADING,
            "all loadings below floor; no ratio is defined",
        )
    mean_ratio = float(np.mean(valid))
    if valid.size == 1:
        sd = 0.0
    else:
        sd = float(np.std(valid, ddof=1))
    cv = sd / abs(mean_ratio) if mean_ratio != 0.0 else np.inf
    abs_lam = np.abs(lam)
    if np.all(abs_lam == abs_lam[0]) or np.all(m == m[0]):
        # Spearman needs variation on both sides; NaN is the honest value.
        rho = np.nan
        warnings_ = warnings_ + ("rank correlation undefined: constant input",)
    else:
        rho = rank_correlation(abs_lam, m)
    verdict = CONSISTENT if cv <= CV_THRESHOLD else INCONSISTENT
    return ProportionalityReport(
        ratios=ratios,
        mean_ratio=mean_ratio,
        cv=float(cv),
        rank_corr=float(rho),
        verdict=verdict,
        excluded=excluded,
        warnings=warnings_,
    )
