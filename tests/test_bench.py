"""Microbenchmarks of the field and form layers, deselected from the default
run:

    PYTHONPATH=src python -m pytest -m bench tests/test_bench.py

L1 (field batch evaluation: the ibp experiment's values, gradients and
lifted-vector values and divergences) on a fixed 20,000-configuration batch
drawn from the ibp experiment's stream at seed 42, through one ``BatchEval``
point table for all five rows (``battery``, the harness's path) or one per
row (``table``), against per-call evaluation; L3 (form values) and L4
(lifted operators) on a fixed 30-configuration dirichlet batch, batched
against per-configuration evaluation; L4 on the sphere (lifts through the
covariant-difference point operators) on a fixed 5-configuration batch,
batched against per-configuration; L6 (the form semigroup's value path:
SDE block, frames, batched values and their pullback) on 500 replicas of
a two-point configuration, for the degree-1 eigenform under the scalar and
the generic potential and for a degree-2 form whose two-point fibre takes
the Kronecker assembly; L1 (sampling: the ibp experiment's 70,000
configurations at seed 42 through ``sample_views`` with the battery's
statistics) with each view's points drawn when it is used (``per-view``,
the checks' path) against the whole batch drawn first and sliced
(``whole``, the rejection sampler's path); L2 (segment sums: the
per-configuration sums of every ibp row through ``sample_views``, which
draws each view when it is used) at 70,000 configurations and seed 42, for
all five rows on the experiment's one batch through one ``BatchEval`` per
view (``battery``, the harness's path) or for each row on a batch of its
own (``per-row``), on views of the default ``_CHUNK_POINTS`` against the
whole batch as one view; L5 (quadrature and series: Chebyshev profiles and
iterated kernels) through ``expect_series`` for each series-vs-mc case at
the harness defaults (quad_n 40, cheb_n 64, k_max 8), and through the
m = 2 Mecke right side of the ``pair-exp`` row, a two-step
``iterated_kernel`` read at the statistic of each of 70,000 configurations
drawn from the mecke experiment's stream at seed 42; L7 (harness and
records) as ``run_experiment`` and ``canonical_json`` of the laplace
experiment at 2,000 samples.
"""

import numpy as np
import pytest

from poissonforms import batteries as bat
from poissonforms.forms import BatchEval, eval_form
from poissonforms import pointprocess
from poissonforms.harness import resolve_config, run_experiment
from poissonforms.operators import _ibp_rows, lift, lift_batch
from poissonforms.pointprocess import (
    Configuration,
    RngStream,
    expect_series,
    iterated_kernel,
    sample_batch,
    sample_views,
    sigma_nodes,
)
from poissonforms.stochastic import SdeConfig, curvature_potential, semigroup_Tn

pytestmark = pytest.mark.bench

FORMS = [bat.form_pairs()[1][0], *bat.form_pairs()[2]]  # Wa, Wb, Wc
SP, INTEN = bat.default_space(), bat.default_intensity()


@pytest.fixture(scope="module")
def batch():
    # the first dirichlet batch of the harness at seed 42, cut to 30 configs
    rng = RngStream(42).child("dir1", "bochner", 0)
    return sample_batch(SP, INTEN, bat.full_window(), rng, 30)


def _ibp_fields():
    """Per ibp row: its distinct scalar fields (the statistics' integrands,
    whose values and gradients the row reads) and its vector fields."""
    out = []
    for F1, F2, V in bat.ibp_battery():
        inners = F1.inners + F2.inners + tuple(
            phi for _, G, _ in V.terms if G is not None for phi in G.inners)
        scalars = list({id(f): f for f in inners}.values())
        out.append((scalars, [v for _, _, v in V.terms]))
    return out


@pytest.mark.parametrize("mode", ["battery", "table", "per-call"])
def test_l1_fields_ibp(benchmark, mode):
    rng = RngStream(42).child("ibp", 0)
    batch = sample_batch(SP, INTEN, bat.full_window(), rng, 20_000)
    P = batch.points
    rows = _ibp_fields()

    def shared(per_row: bool):
        ev = BatchEval(batch, SP.dim)
        for scalars, vectors in rows:
            if per_row:
                ev = BatchEval(batch, SP.dim)
            for f in scalars:
                ev.values(f), ev.grads(f)
            for v in vectors:
                v.value_batch(P, table=ev.table), v.div_batch(P, table=ev.table)

    def per_call():
        for scalars, vectors in rows:
            for f in scalars:
                f.value_batch(P), f.grad_batch(P)
            for v in vectors:
                v.value_batch(P), v.div_batch(P)

    benchmark(per_call if mode == "per-call" else lambda: shared(mode == "table"))


@pytest.mark.parametrize("draw", ["per-view", "whole"])
def test_l1_sample_views(benchmark, monkeypatch, draw):
    # the same points and statistics either way: only when the points are
    # drawn, and how many of them are held at once, differs
    battery = bat.ibp_battery()
    if draw == "whole":
        monkeypatch.setattr(pointprocess, "_per_point_draws", lambda *args: False)
    benchmark(lambda: sample_views(SP, INTEN, bat.full_window(), RngStream(42).child("ibp", 0),
                                   70_000, lambda v: _ibp_rows(SP, INTEN, battery, v)))


@pytest.mark.parametrize("view", ["chunked", "whole"])
@pytest.mark.parametrize("mode", ["battery", "per-row"])
def test_l2_ibp_statistics(benchmark, monkeypatch, mode, view):
    # the per-configuration sums of every ibp row, with their draws, on
    # views of whole configurations of the default size or on the whole
    # batch at once: all rows on the harness's one batch through one
    # BatchEval per view, or each row on a batch from its own stream
    # through its own
    win = bat.full_window()
    battery = bat.ibp_battery()

    def views(i, rows):
        return sample_views(SP, INTEN, win, RngStream(42).child("ibp", i), 70_000,
                            lambda v: _ibp_rows(SP, INTEN, rows, v))

    if mode == "battery":
        run = lambda: views(0, battery)
    else:
        run = lambda: [views(i, [row]) for i, row in enumerate(battery)]
    if view == "whole":
        monkeypatch.setattr(pointprocess, "_CHUNK_POINTS", 1 << 40)
    benchmark(run)


def test_l3_values_batched(benchmark, batch):
    benchmark(lambda: [BatchEval(batch, SP.dim).form(W) for W in FORMS])


def test_l3_values_per_config(benchmark, batch):
    configs = list(batch)
    benchmark(lambda: [eval_form(W, c) for W in FORMS for c in configs])


@pytest.mark.parametrize("kind", ["bochner", "deRham"])
def test_l4_lift_batched(benchmark, batch, kind):
    benchmark(lambda: [lift_batch(kind, SP, INTEN, W, BatchEval(batch, SP.dim)) for W in FORMS])


@pytest.mark.parametrize("kind", ["bochner", "deRham"])
def test_l4_lift_per_config(benchmark, batch, kind):
    configs = list(batch)
    benchmark(lambda: [lift(kind, SP, INTEN, W, c) for W in FORMS for c in configs])


@pytest.mark.parametrize("mode", ["batched", "per-config"])
@pytest.mark.parametrize("kind", ["bochner", "deRham"])
def test_l4_lift_sphere(benchmark, kind, mode):
    sp, inten = bat.sphere_space(), bat.sphere_intensity()
    batch = sample_batch(sp, inten, bat.full_window(), RngStream(42).child("l4-s"), 5)
    configs = list(batch)
    forms = bat.sphere_form_battery()

    def batched():
        return [lift_batch(kind, sp, inten, W, BatchEval(batch, sp.dim)) for W in forms]

    def per_config():
        return [lift(kind, sp, inten, W, c) for W in forms for c in configs]

    benchmark(batched if mode == "batched" else per_config)


@pytest.mark.parametrize("case", ["scalar", "generic", "deg2-scalar-slot"])
def test_l6_form_semigroup(benchmark, case):
    # the scalar potential takes the exact endpoint draw and e^{tJ} frame;
    # the generic one solves a frame per (replica, point) over 10 Euler
    # steps, and for the
    # degree-2 form the two-point fibre's frame is their Kronecker product
    gamma = Configuration(bat.flat_configs()[1])
    W = bat.flat_form_battery()[3] if case == "deg2-scalar-slot" else bat.ou_eigenform()
    J = curvature_potential(SP, INTEN, W.degree, allow_scalar=case == "scalar")
    cfg = SdeConfig(t=0.1, dt=0.01)
    benchmark(lambda: semigroup_Tn(SP, INTEN, W, gamma, 0.1, J, cfg, 500, RngStream(42)))


@pytest.mark.parametrize("case", [c.name for c in bat.series_battery()])
def test_l5_expect_series(benchmark, case):
    c = next(c for c in bat.series_battery() if c.name == case)
    win = bat.series_window()
    benchmark(lambda: expect_series(SP, INTEN, win, c.outer, c.inners, c.envelope,
                                    k_max=8, cheb_n=64, quad_n=40))


def test_l5_mecke_chain(benchmark):
    fn = next(f for f in bat.mecke_battery() if f.name == "pair-exp")
    win = bat.full_window()
    batch = sample_batch(SP, INTEN, win, RngStream(42).child("mecke", "phi-pi"), 70_000)
    s = batch.segment_sum(fn.inner.value_batch(batch.points))[:, None]
    nodes, w = sigma_nodes(SP, INTEN, win, 40)
    phi = [f.value_batch(nodes) for f in fn.slot_fields]
    psi = fn.inner.value_batch(nodes)[:, None]
    bounds = (np.minimum(s.min(axis=0), 0.0), np.maximum(s.max(axis=0), 0.0))
    benchmark(lambda: iterated_kernel(fn.outer, psi, w, phi, bounds, 64)[-1](s))


def test_l7_run_experiment(benchmark):
    cfg = resolve_config("laplace", overrides={"n_samples": 2_000})
    benchmark(lambda: run_experiment(cfg).canonical_json())
