"""Error types shared across the package.

Every error carries a short machine-readable ``code`` so the CLI can map
failures onto its exit-code contract (2 = invalid scenario, 3 = equilibrium
nonexistence, 4 = runtime stall).
"""

from __future__ import annotations

from dataclasses import dataclass


class BxsimError(Exception):
    """Base class for all package errors."""

    code = "ERROR"


def at_row(exc: Exception, row: int) -> Exception:
    """``exc``, marked as the failure of row ``row`` of a batch of seeds."""
    exc.row = row
    return exc


@dataclass(frozen=True)
class Violation:
    """One scenario-validation failure."""

    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


class ScenarioError(BxsimError):
    """Scenario failed validation; carries the complete violation list."""

    code = "INVALID_SCENARIO"

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__("; ".join(str(v) for v in violations))


class NegativeRateError(BxsimError):
    """The closed-form equilibrium assigns a negative rate to some node.

    The exponential-timer equilibrium does not exist for the given cost
    heterogeneity.  Rates are never clamped; callers that only need the
    algebraic identities can request the raw values explicitly.
    """

    code = "NEGATIVE_RATE"


class DegenerateProfileError(BxsimError):
    """An expected-cost evaluation has no competing rate mass (e.g. the sum
    of the other nodes' initiation rates is zero)."""

    code = "DEGENERATE"


class SingularSystemError(BxsimError):
    """The aggregate-rate linear system is rank deficient with 3 or more
    files, which the closed-form construction does not predict."""

    code = "SINGULAR_UNEXPECTED"


class InconsistentSystemError(BxsimError):
    """Linear system has no solution at the working tolerance."""

    code = "INCONSISTENT"


class StallError(BxsimError):
    """No node can win a protocol phase (all relevant rates are zero)."""

    code = "STALL"


class DivergenceError(StallError):
    """The adaptation update diverged: an inverse guess is no longer finite."""

    code = "DIVERGED"


class NonpositiveObservationError(BxsimError):
    """An adaptation update was fed a non-positive observed backoff mean."""

    code = "NONPOSITIVE_OBSERVATION"


# Violation codes used by scenario loading and validation.
BAD_CONFIG = "BAD_CONFIG"
GROUP_TOO_SMALL = "GROUP_TOO_SMALL"
NONPOSITIVE_COST = "NONPOSITIVE_COST"
NONFINITE_COST = "NONFINITE_COST"
TOO_FEW_FILES = "TOO_FEW_FILES"
BAD_FILE_ID = "BAD_FILE_ID"
