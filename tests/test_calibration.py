"""Calibration sweeps of the Monte Carlo gates, deselected from the default
run:

    PYTHONPATH=src python -m pytest -m slow -s tests/test_calibration.py

* ``semigroup-ou`` and ``generator`` through ``run_experiment`` at
  n_samples = 2000 for seeds 5000-5099. The harness floors keep the decay
  rows at 2,000 paths, chapman at 300 x 300 and invariance at 1,000
  configurations.
* ``laplace``, ``mecke`` and ``ibp`` through ``run_experiment`` at
  n_samples = 70,000 (the benchmark's ``mc-batch`` size) for seeds
  5000-5199. Rows of one experiment on one window read one shared batch,
  so they are dependent, but each row is judged on its own.

Per row a sweep prints the mean and sd of z = 3 (lhs - rhs) / tol, the
row's standard score on its own gate (rows with stderr > 0), and the number
of seeds that fail the gate. A row fails the sweep when that number exceeds
the 0.999 binomial quantile at the row's stated size:

* 3-sigma rows and generator rows: 0.27 %
* ``domination`` (one-sided 3 sigma): 0.135 %
* ``poisson-invariance`` (largest of six z-scores at 3): 1 - 0.9973^6
* ``sphere-uniform`` (chi-squared, p > 0.01): 1 %
* ``frame-bound`` (a deterministic bound on every path): 0
"""

import numpy as np
import pytest
from scipy.stats import binom

from poissonforms import batteries as bat
from poissonforms.harness import resolve_config, run_experiment

pytestmark = pytest.mark.slow

SEEDS = range(5000, 5100)
N_SAMPLES = 2000
MC_SEEDS = range(5000, 5200)
MC_N_SAMPLES = 70_000
THREE_SIGMA = 0.0027

MC_ROWS = (
    [f"laplace-{nm}" for nm, _, _ in bat.laplace_battery()]
    + [f"mecke-m{fn.m}-{fn.name}" for fn in bat.mecke_battery()]
    + ["mecke-phi-quadrature-pi"]
    + [f"ibp-{F1.name}-{F2.name}-{V.name}" for F1, F2, V in bat.ibp_battery()]
)
# CHANGES.md, FOUND: e^{<f, gamma>} is skewed for this bump, so its mean
# sits below the exact value more often than 3 sigma allows (9 of 200
# seeds at n_samples = 1e5); a control variate did not mend it.
SKEWED = "laplace-gauss-centered"


def stated_size(check: str) -> float:
    if check.startswith("frame-bound"):
        return 0.0
    if check.startswith("domination"):
        return THREE_SIGMA / 2
    if check == "poisson-invariance":
        return 1.0 - (1.0 - THREE_SIGMA) ** 6
    if check == "sphere-uniform":
        return 0.01
    return THREE_SIGMA


def _limit(check: str, n: int) -> int:
    return int(binom.ppf(0.999, n, stated_size(check)))


def _sweep(names, seeds, n_samples) -> dict[str, list[dict]]:
    """Every row of the experiments at each seed, keyed by check name, with
    a table of z mean, z sd, fails and the limit printed."""
    rows: dict[str, list[dict]] = {}
    for seed in seeds:
        for name in names:
            cfg = resolve_config(name, overrides={"seed": seed, "n_samples": n_samples})
            for row in run_experiment(cfg).checks:
                rows.setdefault(row["check"], []).append(row)
    lines = [f"{'row':32} {'z mean':>7} {'z sd':>6} {'fails':>5} {'limit':>5}"]
    for check, rs in rows.items():
        z = np.array([3.0 * (r["lhs"] - r["rhs"]) / r["tol"] for r in rs if r["stderr"] > 0])
        zm, zs = (f"{z.mean():+.2f}", f"{z.std(ddof=1):.2f}") if len(z) > 1 else ("-", "-")
        lines.append(f"{check:32} {zm:>7} {zs:>6} {_fails(rs):>5} "
                     f"{_limit(check, len(seeds)):>5}")
    print(f"\n{len(seeds)} seeds from {seeds[0]}, n_samples {n_samples}\n" + "\n".join(lines))
    return rows


def _fails(rows: list[dict]) -> int:
    return sum(not r["pass"] for r in rows)


def test_diffusion_gates_have_their_stated_size():
    rows = _sweep(("semigroup-ou", "generator"), SEEDS, N_SAMPLES)
    over = [c for c, rs in rows.items() if _fails(rs) > _limit(c, len(SEEDS))]
    assert not over, f"more gate failures than the stated size allows: {over}"


@pytest.fixture(scope="module")
def mc_rows():
    return _sweep(("laplace", "mecke", "ibp"), MC_SEEDS, MC_N_SAMPLES)


SKEWED_XFAIL = pytest.mark.xfail(strict=True, raises=AssertionError,
                                 reason="skewed estimator, CHANGES.md FOUND note")


@pytest.mark.parametrize("check", [
    pytest.param(c, marks=SKEWED_XFAIL) if c == SKEWED else c for c in MC_ROWS
])
def test_monte_carlo_gates_have_their_stated_size(mc_rows, check):
    assert len(mc_rows[check]) == len(MC_SEEDS)
    assert _fails(mc_rows[check]) <= _limit(check, len(MC_SEEDS))
