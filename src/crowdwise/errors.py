"""Exception hierarchy shared across the package.

Every exception carries an ``exit_code`` used by the command-line layer:
1 for usage problems, 2 for data or validation problems, 3 for numerical
failures.
"""

from __future__ import annotations


class CrowdwiseError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class UsageError(CrowdwiseError):
    """Bad command-line invocation (unknown scheme, conflicting inputs)."""

    exit_code = 1


class ShapeMismatch(CrowdwiseError):
    """Vector or matrix dimensions disagree with the model."""


class SampleTooSmall(CrowdwiseError):
    """Fewer than two trials; sample covariances are undefined."""


class ZeroJudges(CrowdwiseError):
    """A crowd needs at least one judge."""


class ValidationFailed(CrowdwiseError):
    """A model failed its invariant checks.

    ``violations`` holds one human-readable string per failed invariant.
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("model validation failed: " + "; ".join(self.violations))


class UndefinedSkill(CrowdwiseError):
    """Predictive validity is undefined for judges with zero variance."""

    def __init__(self, judge_indices: list[int]):
        self.judge_indices = list(judge_indices)
        super().__init__(
            "skill undefined for zero-variance judges at indices "
            f"{self.judge_indices}"
        )


class ZeroCriterionVariance(CrowdwiseError):
    """Predictive validity is undefined when the criterion has no variance."""


class JointNotPSD(CrowdwiseError):
    """Extending a crowd produced a covariance no joint distribution admits."""

    def __init__(self, eigenvalue: float, message: str):
        self.eigenvalue = float(eigenvalue)
        super().__init__(message)


class NoConvergence(CrowdwiseError):
    """Weight optimization hit its iteration cap, or, when ``stalled``,
    stopped early at a point that no step lowers, where every later
    iteration would repeat.

    ``best`` holds the last iterate, which descent makes the best one, as a
    QPSolution certified and tested for uniqueness at its own weights; its
    ``iterations`` is the cap, or the iteration at which the solver stopped.
    Like every QPSolution, its ``objective`` and ``possibly_nonunique`` are
    computed on first read; the message reads neither.
    """

    exit_code = 3

    def __init__(self, best, stalled: bool = False):
        self.best = best
        cause = (
            f"stopped at iteration {best.iterations}: no step lowers the objective"
            if stalled
            else f"did not converge within {best.iterations} iterations"
        )
        super().__init__(f"optimizer {cause} (residual {best.kkt_residual:.3e})")


class InfeasibleCorrelationRange(CrowdwiseError):
    """No PSD matrix of the requested size has all pairwise correlations in range."""

    exit_code = 3


class NonFiniteReport(CrowdwiseError):
    """Finite inputs produced inf or nan in a report (e.g. by overflow)."""

    exit_code = 3


class MissingCriterionColumn(CrowdwiseError):
    """Input CSV lacks the required ``criterion`` column."""


class NonNumericCell(CrowdwiseError):
    """A CSV cell failed to parse as a decimal number."""

    def __init__(self, row: int, column: str, value: str):
        self.row = row
        self.column = column
        self.value = value
        super().__init__(
            f"non-numeric cell {value!r} at row {row}, column {column!r}"
        )


class DuplicateJudgeLabel(CrowdwiseError):
    """Two CSV columns carry the same header."""


class ParseError(CrowdwiseError):
    """A model file, weights file, or grid file is malformed."""


class SkillDegenerateWarning(UserWarning):
    """All clipped skills were zero; a uniform fallback was substituted."""
