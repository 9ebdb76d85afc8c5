"""Stacked linear algebra that fails per matrix.

np.linalg raises for a whole stack when one of its matrices fails. The
functions here are np.linalg's own gufuncs without the callback that makes
it raise: a matrix that fails (not positive definite, singular) gets NaN in
its own row, and the other rows keep their bits. These gufuncs exist in
numpy 1.24 and 2.x. Outside np.errstate(invalid="ignore") a failure warns.
The fit takes cholesky of Sigma, of I + B and of the seed's Hessian, inv
of the factors of Sigma and of the Hessian, and solve of its small normal
equations. Every stacked operation of the fit (these gufuncs, matmul over
contiguous rows, elementwise ufuncs, sums over trailing axes) gives each
row the same bits as it would alone, so a result does not depend on the
batch it was fitted in.
checked_cholesky is the one check of a Cholesky factor: simulate.cholesky
raises from its codes, and fit_many gives each failing sample its error.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import ASYMMETRIC_MATRIX, DIMENSION_MISMATCH, NotPositiveDefiniteError, SmmError

cholesky = functools.partial(_umath_linalg.cholesky_lo, signature="d->d")  # lower factor
solve = functools.partial(_umath_linalg.solve, signature="dd->d")  # (..., p, p), (..., p, k)
inv = functools.partial(_umath_linalg.inv, signature="d->d")

# Cholesky pivots at or below this are treated as rank deficiency.
PIVOT_FLOOR = 1e-12

# The codes of checked_cholesky; across a stack the smallest failing one is raised.
ASYMMETRIC, INDEFINITE, BELOW_PIVOT_FLOOR = 1, 2, 3


def whitener(a: np.ndarray) -> np.ndarray:
    """U = L^-1 of the Cholesky factor L of each symmetric matrix of a (..., p, p); NaN in a failing row."""
    return inv(cholesky(a))


def checked_cholesky(stack) -> tuple[np.ndarray, np.ndarray]:
    """The lower Cholesky factors of one matrix or a stack (..., p, p), and a code per matrix.

    A code is 0 where the factor holds, ASYMMETRIC where the matrix is not
    symmetric to 1e-8 of its largest entry, INDEFINITE where a pivot of the
    factor is not finite, and BELOW_PIVOT_FLOOR where a pivot is at or below
    PIVOT_FLOOR. A factorization that fails is filled with NaN by numpy, a
    NaN in the lower triangle reaches a pivot without failing it
    ([[1, nan], [nan, 1]] factors to [[1, 0], [nan, nan]]), and an infinite
    pivot does not fail it ([[inf, 0], [0, 1]]): all read as INDEFINITE. A
    NaN or infinity only above the diagonal, which the factor never reads
    ([[1, nan], [0, 1]], [[1, inf], [0, 1]]), reads as ASYMMETRIC: the
    tolerance test misses it, as a NaN compares False and an infinity makes
    the scale infinite. Only input that is not square raises.
    """
    stack = np.atleast_2d(np.asarray(stack, dtype=float))
    if stack.shape[-1] != stack.shape[-2]:
        raise SmmError(DIMENSION_MISMATCH, "matrix must be square")
    with np.errstate(invalid="ignore"):
        scale = np.abs(stack).max(axis=(-2, -1))
        asymmetry = np.abs(stack - stack.swapaxes(-1, -2)).max(axis=(-2, -1))
        lower = cholesky(stack)
    # a matrix that fails in more than one way gets the smallest code
    pivots = lower.diagonal(0, -2, -1)
    indefinite = ~np.isfinite(pivots).all(axis=-1)
    codes = np.where((pivots**2 <= PIVOT_FLOOR).any(axis=-1), BELOW_PIVOT_FLOOR, 0)
    codes[indefinite] = INDEFINITE
    # a non-finite entry that leaves every pivot finite is above the
    # diagonal, where the factor never reads it
    above = ~np.isfinite(stack).all(axis=(-2, -1)) & ~indefinite
    asymmetric = (asymmetry > 1e-8 * np.where(scale == 0.0, 1.0, scale)) | above
    codes[asymmetric] = ASYMMETRIC
    return lower, codes


def failure(code: int) -> SmmError:
    """The error of a matrix whose checked_cholesky code is not 0."""
    if code == ASYMMETRIC:
        return SmmError(ASYMMETRIC_MATRIX, "matrix is not symmetric")
    if code == INDEFINITE:
        return NotPositiveDefiniteError("matrix is not positive definite")
    return NotPositiveDefiniteError(f"matrix is numerically singular (pivot below {PIVOT_FLOOR:g})")
