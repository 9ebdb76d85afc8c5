"""Model specification for a single-group common factor model with means.

A model is described by five parameter blocks:

    loadings           Lambda, p x q
    intercepts         nu, length p
    factor_means       theta, length q
    factor_cov         Phi, q x q (symmetric pattern)
    unique_variances   Psi2 diagonal, length p

Every cell is either fixed at a numeric value or free with an optional
starting value. The flat free-parameter vector used by the estimator is
defined by ParameterIndex, which fixes a deterministic ordering so that
results serialize identically across runs, and which owns the one layout
that maps that vector onto the matrices: insert is its scatter and
extract its gather.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from .errors import SmmError, DIMENSION_MISMATCH, InvalidModelError

# Default starting values for free cells that do not carry their own.
DEFAULT_STARTS = {
    "lambda": 0.5,
    "psi2": 0.5,
    "phi_diag": 1.0,
    "phi_offdiag": 0.0,
    "nu": 0.0,
    "theta": 0.0,
}

FIXED = "fixed"
FREE = "free"


@dataclass(frozen=True)
class ParameterCell:
    """One entry of a parameter matrix.

    kind is "fixed" or "free". For fixed cells ``value`` is the fixed
    numeric value. For free cells ``value`` is the starting value, or None
    to use the per-matrix default.
    """

    kind: str
    value: float | None = None

    def __post_init__(self):
        if self.kind not in (FIXED, FREE):
            raise ValueError(f"unknown cell kind {self.kind!r}")
        if self.kind == FIXED:
            if self.value is None or not np.isfinite(self.value):
                raise ValueError("fixed cells require a finite value")
        elif self.value is not None and not np.isfinite(self.value):
            raise ValueError("free-cell starting values must be finite")

    @property
    def is_free(self) -> bool:
        return self.kind == FREE

    def start(self, default: float) -> float:
        """Starting value for optimization (free cells only)."""
        return default if self.value is None else float(self.value)


def fixed(value: float) -> ParameterCell:
    return ParameterCell(FIXED, float(value))


def free(start: float | None = None) -> ParameterCell:
    return ParameterCell(FREE, None if start is None else float(start))


def _cell_grid(rows, n_rows: int, n_cols: int, name: str):
    grid = tuple(tuple(row) for row in rows)
    if len(grid) != n_rows or any(len(row) != n_cols for row in grid):
        raise ValueError(f"{name} must be {n_rows} x {n_cols}")
    for row in grid:
        for cell in row:
            if not isinstance(cell, ParameterCell):
                raise TypeError(f"{name} entries must be ParameterCell")
    return grid


def _cell_vector(cells, n: int, name: str):
    vec = tuple(cells)
    if len(vec) != n:
        raise ValueError(f"{name} must have length {n}")
    for cell in vec:
        if not isinstance(cell, ParameterCell):
            raise TypeError(f"{name} entries must be ParameterCell")
    return vec


@dataclass(frozen=True)
class ModelSpec:
    """Parameter pattern for one group.

    The factor covariance grid must be symmetric as a pattern: cell (i, j)
    and cell (j, i) must be identical in kind and value. Validation beyond
    shape (identification counts, sign constraints on fixed variances) is
    the job of validate(), which reports issues rather than raising, so
    that a CLI caller can show everything wrong with a file at once.
    """

    loadings: tuple
    intercepts: tuple
    factor_means: tuple
    factor_cov: tuple
    unique_variances: tuple
    variable_names: tuple = ()
    factor_names: tuple = ()

    def __post_init__(self):
        p = len(self.loadings)
        if p < 1:
            raise ValueError("need at least one observed variable")
        q = len(self.loadings[0]) if self.loadings[0] else 0
        if q < 1:
            raise ValueError("need at least one factor")
        if p < q:
            raise ValueError(f"more factors ({q}) than observed variables ({p})")

        object.__setattr__(self, "loadings", _cell_grid(self.loadings, p, q, "loadings"))
        object.__setattr__(self, "intercepts", _cell_vector(self.intercepts, p, "intercepts"))
        object.__setattr__(self, "factor_means", _cell_vector(self.factor_means, q, "factor_means"))
        object.__setattr__(self, "factor_cov", _cell_grid(self.factor_cov, q, q, "factor_cov"))
        object.__setattr__(
            self, "unique_variances", _cell_vector(self.unique_variances, p, "unique_variances")
        )

        for i in range(q):
            for j in range(i):
                if self.factor_cov[i][j] != self.factor_cov[j][i]:
                    raise ValueError(
                        f"factor_cov pattern must be symmetric; cells ({i},{j}) and ({j},{i}) differ"
                    )

        names = tuple(self.variable_names) or tuple(f"x{i + 1}" for i in range(p))
        fnames = tuple(self.factor_names) or tuple(f"F{k + 1}" for k in range(q))
        if len(names) != p:
            raise ValueError("variable_names length must match number of variables")
        if len(fnames) != q:
            raise ValueError("factor_names length must match number of factors")
        object.__setattr__(self, "variable_names", names)
        object.__setattr__(self, "factor_names", fnames)

    @property
    def p(self) -> int:
        return len(self.loadings)

    @property
    def q(self) -> int:
        return len(self.factor_cov)


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    errors: tuple
    warnings: tuple
    t: int
    df: int

    @property
    def is_valid(self) -> bool:
        return not self.errors

    def codes(self) -> tuple:
        return tuple(issue.code for issue in self.errors + self.warnings)


def _free_count(cells) -> int:
    return sum(1 for cell in cells if cell.is_free)


def validate(spec: ModelSpec) -> ValidationReport:
    """Check a model pattern for identification and sign problems.

    The moment space for p observed variables has p(p + 3)/2 entries
    (p means plus p(p + 1)/2 distinct covariance elements); t free
    parameters leave df = p(p + 3)/2 - t. Two hard errors are counting
    based: t exceeding the moment count, and the mean structure using more
    free location parameters (intercepts plus factor means) than there are
    observed means. A mean structure using exactly p is saturated; that is
    legal and common (anchored models), so it is only a warning. A
    variance fixed at, or a unique variance starting at, a value <= 0 is
    an error.
    """
    errors = []
    warnings_ = []
    p, q = spec.p, spec.q

    for i, cell in enumerate(spec.unique_variances):
        if not cell.is_free and cell.value <= 0:
            errors.append(
                ValidationIssue(
                    "NEGATIVE_FIXED_VARIANCE",
                    f"unique variance for {spec.variable_names[i]} fixed at {cell.value}, must be > 0",
                )
            )
        elif cell.value is not None and cell.value <= 0:
            # the estimator optimizes unique variances as logs
            errors.append(
                ValidationIssue(
                    "NONPOSITIVE_VARIANCE_START",
                    f"unique variance for {spec.variable_names[i]} starts at {cell.value}, must be > 0",
                )
            )
    for k in range(q):
        cell = spec.factor_cov[k][k]
        if not cell.is_free and cell.value <= 0:
            errors.append(
                ValidationIssue(
                    "NEGATIVE_FIXED_VARIANCE",
                    f"factor variance for {spec.factor_names[k]} fixed at {cell.value}, must be > 0",
                )
            )

    t = len(ParameterIndex(spec).entries)
    moment_count = p * (p + 3) // 2
    df = moment_count - t
    if t > moment_count:
        errors.append(
            ValidationIssue(
                "TOO_MANY_PARAMETERS",
                f"{t} free parameters exceed the {moment_count} available moments",
            )
        )

    free_means = _free_count(spec.intercepts) + _free_count(spec.factor_means)
    if free_means > p:
        errors.append(
            ValidationIssue(
                "MEAN_STRUCTURE_UNDERIDENTIFIED",
                f"{free_means} free location parameters for {p} observed means",
            )
        )
    elif free_means == p:
        warnings_.append(
            ValidationIssue(
                "MEAN_STRUCTURE_SATURATED",
                f"mean structure uses all {p} observed means; mean fit is exact by construction",
            )
        )

    return ValidationReport(tuple(errors), tuple(warnings_), t, df)


@dataclass(frozen=True)
class IndexEntry:
    matrix: str
    row: int
    col: int


@dataclass(frozen=True)
class ParameterMatrices:
    """Numeric counterpart of a ModelSpec: plain float arrays per block."""

    loadings: np.ndarray
    intercepts: np.ndarray
    factor_means: np.ndarray
    factor_cov: np.ndarray
    unique_variances: np.ndarray


class ParameterIndex:
    """Deterministic mapping between free cells and a flat vector.

    Ordering: loadings in column-major order, then the lower triangle of
    the factor covariance row by row (diagonal included), then unique
    variances, then intercepts, then factor means. The ordering is part of
    the package's serialization contract; changing it would silently
    reorder every saved result.

    The index is one flat layout of every cell of the spec, built in a
    single pass over the cells in that order. The layout (template) holds
    the blocks lambda, phi, psi2, nu and theta in that order (slices),
    matrices row-major, with fixed values and starts in place. A vector of
    free values fills it through one scatter, full[slots] = values[src]; a
    free off-diagonal phi fills both of its cells and is read back from
    the lower one (read). own_start flags the free cells that carry a
    starting value of their own.
    """

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        p, q = spec.p, spec.q
        xs, fs = spec.variable_names, spec.factor_names
        bounds = list(accumulate((0, p * q, q * q, p, p, q)))
        self.slices = tuple(map(slice, bounds[:-1], bounds[1:]))
        lam, phi, psi2, nu, theta = bounds[:-1]
        # every cell in contract order: its entry, the cell, its layout
        # positions, its default start and its label
        cells = [
            (IndexEntry("lambda", i, j), spec.loadings[i][j], [lam + i * q + j], "lambda",
             f"lambda[{xs[i]},{fs[j]}]")
            for j in range(q)
            for i in range(p)
        ]
        # sorted positions put the lower cell of an off-diagonal phi last
        cells += [
            (IndexEntry("phi", i, j), spec.factor_cov[i][j],
             sorted({phi + i * q + j, phi + j * q + i}),
             "phi_diag" if i == j else "phi_offdiag", f"phi[{fs[i]},{fs[j]}]")
            for i in range(q)
            for j in range(i + 1)
        ]
        for block, at, vector, names in (
            ("psi2", psi2, spec.unique_variances, xs),
            ("nu", nu, spec.intercepts, xs),
            ("theta", theta, spec.factor_means, fs),
        ):
            cells += [
                (IndexEntry(block, i, 0), cell, [at + i], block, f"{block}[{names[i]}]")
                for i, cell in enumerate(vector)
            ]

        positions, values = [], []
        entries, labels, starts, own_start, slots, src, read = [], [], [], [], [], [], []
        for entry, cell, where, default, label in cells:
            value = cell.start(DEFAULT_STARTS[default]) if cell.is_free else cell.value
            positions += where
            values += [value] * len(where)
            if cell.is_free:
                src += [len(entries)] * len(where)
                slots += where
                read.append(where[-1])
                entries.append(entry)
                labels.append(label)
                starts.append(value)
                own_start.append(cell.value is not None)
        self.template = np.empty(len(positions))
        self.template[positions] = values
        self.entries = tuple(entries)
        self._labels = tuple(labels)
        self.start = np.array(starts, dtype=float)
        self.own_start = np.array(own_start, dtype=bool)
        self.slots = np.array(slots, dtype=int)
        self.src = np.array(src, dtype=int)
        self.read = np.array(read, dtype=int)
        for array in vars(self).values():
            if isinstance(array, np.ndarray):
                array.flags.writeable = False

    @property
    def t(self) -> int:
        return len(self.entries)

    def labels(self) -> tuple:
        """Human-readable names, aligned with the flat vector."""
        return self._labels

    def starting_values(self) -> np.ndarray:
        """Flat vector of starting values, applying per-matrix defaults."""
        return self.start.copy()

    def base_matrices(self) -> ParameterMatrices:
        """Numeric matrices with fixed values in place and starts elsewhere."""
        return self.insert(self.start)

    def insert(self, values: np.ndarray) -> ParameterMatrices:
        """Full numeric matrices from flat free-parameter vectors (..., t).

        Every matrix keeps the leading axes of values; the matrices are
        views into one new array in layout order.
        """
        values = np.asarray(values, dtype=float)
        if values.shape[-1:] != (self.t,):
            raise SmmError(
                DIMENSION_MISMATCH,
                f"expected {self.t} free values, got shape {values.shape}",
            )
        lead, p, q = values.shape[:-1], self.spec.p, self.spec.q
        full = np.empty(lead + self.template.shape)
        full[...] = self.template
        full[..., self.slots] = values[..., self.src]
        lam, phi, psi2, nu, theta = (full[..., s] for s in self.slices)
        return ParameterMatrices(
            lam.reshape(lead + (p, q)), nu, theta, phi.reshape(lead + (q, q)), psi2
        )

    def extract(self, matrices: ParameterMatrices) -> np.ndarray:
        """Read the free cells back out of full matrices (inverse of insert).

        The matrices may carry the same leading axes, which the result keeps.
        """
        lead = np.shape(matrices.factor_means)[:-1]
        blocks = (
            matrices.loadings,
            matrices.factor_cov,
            matrices.unique_variances,
            matrices.intercepts,
            matrices.factor_means,
        )
        return np.concatenate([np.reshape(b, lead + (-1,)) for b in blocks], axis=-1)[..., self.read]


def parameter_index(spec: ModelSpec) -> ParameterIndex:
    """Build the flat parameter index for a spec that passed validation."""
    report = validate(spec)
    if not report.is_valid:
        raise InvalidModelError(report)
    return ParameterIndex(spec)


def one_factor_spec(
    n_vars: int,
    *,
    loading_starts=None,
    variable_names=None,
    factor_name: str = "F1",
) -> ModelSpec:
    """Standard one-factor pattern used throughout the package.

    Loadings and unique variances free, factor variance fixed at 1 for
    scale identification, intercepts fixed at 0, factor mean free. With the
    intercepts pinned, the observed means identify the factor mean through
    the loadings.
    """
    if loading_starts is None:
        loading_starts = [None] * n_vars
    if len(loading_starts) != n_vars:
        raise ValueError("loading_starts length must match n_vars")
    return ModelSpec(
        loadings=tuple((free(s),) for s in loading_starts),
        intercepts=tuple(fixed(0.0) for _ in range(n_vars)),
        factor_means=(free(),),
        factor_cov=((fixed(1.0),),),
        unique_variances=tuple(free() for _ in range(n_vars)),
        variable_names=tuple(variable_names) if variable_names else (),
        factor_names=(factor_name,),
    )


def fix_intercept_variant(spec: ModelSpec, anchor: int) -> ModelSpec:
    """Re-anchor a one-factor model: free all intercepts except one.

    The returned spec fixes the intercept of variable ``anchor`` at zero,
    frees every other intercept, and frees the factor mean. This makes the
    mean structure saturated (p free location parameters for p means), so
    the covariance fit is untouched while the factor mean is rescaled to
    mean(anchor) / loading(anchor) in population terms.

    Only implemented for single-factor models; with q > 1 the choice of
    anchor per factor is not canonical.
    """
    if spec.q != 1:
        raise NotImplementedError("intercept re-anchoring is only defined for one-factor models")
    if not 0 <= anchor < spec.p:
        raise ValueError(f"anchor index {anchor} out of range for {spec.p} variables")
    intercepts = tuple(
        fixed(0.0) if i == anchor else free() for i in range(spec.p)
    )
    return replace(spec, intercepts=intercepts, factor_means=(free(),))
