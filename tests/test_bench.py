"""Microbenchmarks of the form layers, deselected from the default run:

    PYTHONPATH=src python -m pytest -m bench tests/test_bench.py

L3 (form values) and L4 (lifted operators) on a fixed 30-configuration
dirichlet batch, batched against per-configuration evaluation.
"""

import pytest

from poissonforms import batteries as bat
from poissonforms.forms import BatchEval, eval_form
from poissonforms.operators import lift, lift_batch
from poissonforms.pointprocess import RngStream, sample_batch

pytestmark = pytest.mark.bench

FORMS = [bat.form_pairs()[1][0], *bat.form_pairs()[2]]  # Wa, Wb, Wc
SP, INTEN = bat.default_space(), bat.default_intensity()


@pytest.fixture(scope="module")
def batch():
    # the first dirichlet batch of the harness at seed 42, cut to 30 configs
    rng = RngStream(42).child("dir1", "bochner", 0)
    return sample_batch(SP, INTEN, bat.full_window(), rng, 30)


def test_l3_values_batched(benchmark, batch):
    benchmark(lambda: [BatchEval(batch).form(W) for W in FORMS])


def test_l3_values_per_config(benchmark, batch):
    configs = list(batch)
    benchmark(lambda: [eval_form(W, c) for W in FORMS for c in configs])


@pytest.mark.parametrize("kind", ["bochner", "deRham"])
def test_l4_lift_batched(benchmark, batch, kind):
    benchmark(lambda: [lift_batch(kind, SP, INTEN, W, BatchEval(batch)) for W in FORMS])


@pytest.mark.parametrize("kind", ["bochner", "deRham"])
def test_l4_lift_per_config(benchmark, batch, kind):
    configs = list(batch)
    benchmark(lambda: [lift(kind, SP, INTEN, W, c) for W in FORMS for c in configs])
