"""Error types shared across the package.

The CLI maps each onto its exit-code contract (2 = invalid scenario, 3 =
equilibrium nonexistence, 4 = runtime stall or divergence).
"""

from __future__ import annotations

from dataclasses import dataclass


class BxsimError(Exception):
    """Base class for all package errors."""


@dataclass(frozen=True)
class Violation:
    """One scenario-validation failure."""

    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


class ScenarioError(BxsimError):
    """Scenario failed validation; carries the complete violation list."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__("; ".join(str(v) for v in violations))


class NegativeRateError(BxsimError):
    """The closed-form equilibrium assigns a negative rate to some node.

    The exponential-timer equilibrium does not exist for the given cost
    heterogeneity.  Rates are never clamped: the solvers return the raw
    closed form, and ``equilibrium.require_nonnegative`` raises this.
    """


class SingularSystemError(BxsimError):
    """The coded game's aggregate-rate system with 3 or more files has no
    unique solution: two of its rows have c = d, or the closed form's
    denominator for the total rate is 0."""


class StallError(BxsimError):
    """No node can win a protocol phase (all relevant rates are zero)."""


class DivergenceError(StallError):
    """The adaptation update diverged: an inverse guess is no longer finite."""


# Violation codes used by scenario loading and validation.
BAD_CONFIG = "BAD_CONFIG"
GROUP_TOO_SMALL = "GROUP_TOO_SMALL"
NONPOSITIVE_COST = "NONPOSITIVE_COST"
NONFINITE_COST = "NONFINITE_COST"
TOO_FEW_FILES = "TOO_FEW_FILES"
BAD_FILE_ID = "BAD_FILE_ID"
