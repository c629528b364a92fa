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


# the comparison of each row kind on (lhs, rhs, tol)
_RULES = {
    "two-sided": lambda lhs, rhs, tol: abs(lhs - rhs) <= tol,
    "deterministic": lambda lhs, rhs, tol: abs(lhs - rhs) <= tol,
    "one-sided": lambda lhs, rhs, tol: lhs - rhs >= -tol,
    "p-value": lambda lhs, rhs, tol: lhs > tol,
}


@dataclass
class CheckResult:
    """One verified identity: left side, right side, tolerance, verdict.

    ``tol`` is the acceptance band actually used (typically three combined
    standard errors, or a deterministic bound). ``judged``, through which
    every row is built, decides ``passed`` by the rule of ``kind`` in
    ``_RULES`` on lhs, rhs and tol.
    """

    check: str
    lhs: float
    rhs: float
    stderr: float
    tol: float
    passed: bool
    detail: dict = field(default_factory=dict)
    kind: str = "two-sided"

    @classmethod
    def judged(
        cls, kind: str, check: str, lhs: float, rhs: float, stderr: float, tol: float,
        detail: dict | None = None,
    ) -> "CheckResult":
        """The row with its verdict: ``_RULES[kind]`` on lhs, rhs and tol, a
        finite tol and, where ``detail`` has it, ``certified``."""
        detail = detail or {}
        passed = (math.isfinite(tol) and _RULES[kind](lhs, rhs, tol)
                  and detail.get("certified", True))
        return cls(check=check, lhs=lhs, rhs=rhs, stderr=stderr, tol=tol,
                   passed=bool(passed), detail=detail, kind=kind)

    @classmethod
    def from_estimates(
        cls,
        check: str,
        lhs: McEstimate,
        rhs: McEstimate,
        stderr_diff: float | None = None,
        detail: dict | None = None,
    ) -> "CheckResult":
        """Two-sided at three standard errors of the difference, floored at 1e-10."""
        se = math.hypot(lhs.stderr, rhs.stderr) if stderr_diff is None else stderr_diff
        return cls.judged("two-sided", check, lhs.mean, rhs.mean, se, max(3.0 * se, 1e-10),
                          detail)

    @classmethod
    def deterministic(
        cls, check: str, lhs: float, rhs: float, tol: float, detail: dict | None = None
    ) -> "CheckResult":
        return cls.judged("deterministic", check, float(lhs), float(rhs), 0.0, float(tol),
                          detail)

    def as_row(self) -> dict:
        return {
            "check": self.check,
            "lhs": float(self.lhs),
            "rhs": float(self.rhs),
            "stderr": float(self.stderr),
            "tol": float(self.tol),
            "pass": bool(self.passed),
        }
