"""Error types shared across the package.

Every failure that callers are expected to branch on carries a stable
machine-readable ``code`` string in addition to the human-readable message.
The CLI prints the code so scripted callers can grep for it.
"""

from __future__ import annotations

# Codes raised by more than one module live here so they stay in sync.
NOT_POSITIVE_DEFINITE = "NOT_POSITIVE_DEFINITE"
ASYMMETRIC_MATRIX = "ASYMMETRIC_MATRIX"
SINGULAR_CROSSPRODUCT = "SINGULAR_CROSSPRODUCT"
DIVISION_BY_NEAR_ZERO_LOADING = "DIVISION_BY_NEAR_ZERO_LOADING"
THEOREM_DIVERGENCE = "THEOREM1_DIVERGENCE"
CONDITION_DEGENERATE = "CONDITION_DEGENERATE"
EMPTY_CONVERGED_SET = "EMPTY_CONVERGED_SET"
NONPOSITIVE_UNIQUE_VARIANCE = "NONPOSITIVE_UNIQUE_VARIANCE"
DIMENSION_MISMATCH = "DIMENSION_MISMATCH"
INVALID_MODEL = "INVALID_MODEL"
INVALID_SAMPLE_SIZE = "INVALID_SAMPLE_SIZE"
TOO_FEW_ROWS = "TOO_FEW_ROWS"
NON_FINITE_VALUES = "NON_FINITE_VALUES"
MISSING_REFERENCE_CONDITION = "MISSING_REFERENCE_CONDITION"
BAD_INPUT = "BAD_INPUT"


class SmmError(Exception):
    """Base class for all package errors.

    Args:
        code: stable identifier, one of the module-level constants.
        message: human-readable description.
    """

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message

    def __reduce__(self):
        # unpickled, as in a process pool, without __init__, whose arguments
        # differ by subclass: code, message and report come back in __dict__
        return BaseException.__new__, (type(self), *self.args), self.__dict__


class InvalidModelError(SmmError):
    """A model specification failed validation; carries the full report."""

    def __init__(self, report):
        codes = ", ".join(issue.code for issue in report.errors)
        super().__init__(INVALID_MODEL, f"model specification invalid ({codes})")
        self.report = report


class NotPositiveDefiniteError(SmmError):
    def __init__(self, message: str):
        super().__init__(NOT_POSITIVE_DEFINITE, message)

