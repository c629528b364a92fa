"""Shared result records for numerical checks."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["McEstimate", "CheckResult"]


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimate with its standard error."""

    mean: float
    stderr: float
    n: int

    @classmethod
    def from_samples(cls, values: np.ndarray) -> "McEstimate":
        v = np.asarray(values, dtype=float)
        n = v.size
        m = float(np.mean(v))
        se = float(np.std(v, ddof=1) / math.sqrt(n)) if n > 1 else float("inf")
        return cls(m, se, n)

    @classmethod
    def exact(cls, value: float) -> "McEstimate":
        return cls(float(value), 0.0, 0)


@dataclass
class CheckResult:
    """One verified identity: left side, right side, tolerance, verdict.

    ``tol`` is the acceptance band actually used (typically three combined
    standard errors, or a deterministic bound); ``passed`` is
    |lhs - rhs| <= tol.
    """

    check: str
    lhs: float
    rhs: float
    stderr: float
    tol: float
    passed: bool
    detail: dict = field(default_factory=dict)

    @classmethod
    def from_estimates(
        cls,
        check: str,
        lhs: McEstimate,
        rhs: McEstimate,
        stderr_diff: float | None = None,
        detail: dict | None = None,
    ) -> "CheckResult":
        """Three standard errors of the difference, floored at 1e-10."""
        se = (
            stderr_diff
            if stderr_diff is not None
            else math.hypot(lhs.stderr, rhs.stderr)
        )
        tol = max(3.0 * se, 1e-10)
        diff = abs(lhs.mean - rhs.mean)
        return cls(
            check=check,
            lhs=lhs.mean,
            rhs=rhs.mean,
            stderr=se,
            tol=tol,
            passed=bool(diff <= tol),
            detail=detail or {},
        )

    @classmethod
    def deterministic(
        cls, check: str, lhs: float, rhs: float, tol: float, detail: dict | None = None
    ) -> "CheckResult":
        return cls(
            check=check,
            lhs=float(lhs),
            rhs=float(rhs),
            stderr=0.0,
            tol=float(tol),
            passed=bool(abs(lhs - rhs) <= tol),
            detail=detail or {},
        )

    def as_row(self) -> dict:
        return {
            "check": self.check,
            "lhs": float(self.lhs),
            "rhs": float(self.rhs),
            "stderr": float(self.stderr),
            "tol": float(self.tol),
            "pass": bool(self.passed),
        }
