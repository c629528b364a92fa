"""Calibration sweep of the diffusion experiments' Monte Carlo gates,
deselected from the default run:

    PYTHONPATH=src python -m pytest -m slow -s tests/test_calibration.py

Runs ``semigroup-ou`` and ``generator`` through ``run_experiment`` at
n_samples = 2000 for seeds 5000-5099. The harness floors keep the decay
rows at 2,000 paths, chapman at 300 x 300 and invariance at 1,000
configurations. Per row it prints the mean and sd of z = 3 (lhs - rhs) /
tol, the row's standard score on its own gate (rows with stderr > 0), and
the number of seeds that fail the gate. A row fails the sweep when that
number exceeds the 0.999 binomial quantile at the row's stated size:

* 3-sigma rows and generator rows: 0.27 %
* ``domination`` (one-sided 3 sigma): 0.135 %
* ``poisson-invariance`` (largest of six z-scores at 3): 1 - 0.9973^6
* ``sphere-uniform`` (chi-squared, p > 0.01): 1 %
* ``frame-bound`` (a deterministic bound on every path): 0
"""

import numpy as np
import pytest
from scipy.stats import binom

from poissonforms.harness import resolve_config, run_experiment

pytestmark = pytest.mark.slow

SEEDS = range(5000, 5100)
N_SAMPLES = 2000
THREE_SIGMA = 0.0027


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


def test_diffusion_gates_have_their_stated_size():
    rows: dict[str, list[dict]] = {}
    for seed in SEEDS:
        for name in ("semigroup-ou", "generator"):
            cfg = resolve_config(name, overrides={"seed": seed, "n_samples": N_SAMPLES})
            for row in run_experiment(cfg).checks:
                rows.setdefault(row["check"], []).append(row)
    n = len(SEEDS)
    lines = [f"{'row':32} {'z mean':>7} {'z sd':>6} {'fails':>5} {'limit':>5}"]
    over = []
    for check, rs in rows.items():
        z = np.array([3.0 * (r["lhs"] - r["rhs"]) / r["tol"] for r in rs if r["stderr"] > 0])
        fails = sum(not r["pass"] for r in rs)
        limit = int(binom.ppf(0.999, n, stated_size(check)))
        zm, zs = (f"{z.mean():+.2f}", f"{z.std(ddof=1):.2f}") if len(z) > 1 else ("-", "-")
        lines.append(f"{check:32} {zm:>7} {zs:>6} {fails:>5} {limit:>5}")
        if fails > limit:
            over.append(check)
    print(f"\n{n} seeds from {SEEDS[0]}, n_samples {N_SAMPLES}\n" + "\n".join(lines))
    assert not over, f"more gate failures than the stated size allows: {over}"
