"""Error types shared across the package.

One class per way a run fails, each with its own exit code on the command
line: ScenarioError 2 (invalid scenario), NoEquilibriumError 3 (no
nonnegative equilibrium) and StallError 4 (the mechanism cannot go on).
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


class NoEquilibriumError(BxsimError):
    """The game has no nonnegative equilibrium: the closed form assigns a
    negative rate to some node (``equilibrium.require_nonnegative``; rates
    are never clamped), or the coded game's aggregate-rate system with 3 or
    more files has no unique solution (``equilibrium.solve_coded_system``)."""


class StallError(BxsimError):
    """The distributed mechanism cannot go on: no node can win a protocol
    phase, or an adaptation update diverged."""


# Violation codes used by scenario loading and validation.
BAD_CONFIG = "BAD_CONFIG"
GROUP_TOO_SMALL = "GROUP_TOO_SMALL"
NONPOSITIVE_COST = "NONPOSITIVE_COST"
NONFINITE_COST = "NONFINITE_COST"
TOO_FEW_FILES = "TOO_FEW_FILES"
BAD_FILE_ID = "BAD_FILE_ID"
