"""``sample_views``: the views of whole configurations it cuts, the points
it draws into them against ``sample_batch`` on the same stream, and the
Monte Carlo checks that evaluate their statistics through it, whose rows
must not depend on the view size, nor hold more than one view at a time."""

import json
import tracemalloc

import numpy as np
import pytest

from poissonforms import batteries as bat
from poissonforms import pointprocess
from poissonforms.forms import Exp, Linear
from poissonforms.geometry import IntensitySpec, Window
from poissonforms.operators import adjointness_check, dirichlet_check, ibp_check
from poissonforms.pointprocess import (
    Configuration,
    RngStream,
    laplace_check,
    mecke_check,
    sample_batch,
    sample_views,
)
from poissonforms.stochastic import SdeConfig, semigroup_property_check

SP, INTEN, WIN = bat.default_space(), bat.default_intensity(), bat.full_window()

# empty configurations at the first and the last index, one larger than
# every view size below but the last
COUNTS = [0, 3, 1, 12, 0, 2, 2, 0]


def _fixed_counts(monkeypatch, counts):
    # the batch's counts, in place of its Poisson draws
    off = np.cumsum([0, *counts]).astype(np.int64)
    monkeypatch.setattr(pointprocess, "_offsets", lambda *args: off.copy())


def _views(monkeypatch, counts, chunk):
    _fixed_counts(monkeypatch, counts)
    monkeypatch.setattr(pointprocess, "_CHUNK_POINTS", chunk)
    views = []

    def fn(view):
        views.append(view)
        return view.counts(), view.segment_sum(view.points[:, 0])

    out = sample_views(SP, INTEN, WIN, RngStream(3), len(counts), fn)
    return views, out, sample_batch(SP, INTEN, WIN, RngStream(3), len(counts))


@pytest.mark.parametrize("chunk", [1, 4, 7, 100])
def test_each_configuration_in_one_view_in_order(monkeypatch, chunk):
    views, (counts, sums), whole = _views(monkeypatch, COUNTS, chunk)
    assert counts.tolist() == COUNTS
    assert np.array_equal(sums, whole.segment_sum(whole.points[:, 0]))
    assert np.array_equal(np.concatenate([v.points for v in views]), whole.points)
    for v in views:
        assert v.n_samples >= 1 and v.offsets[0] == 0
        assert len(v.points) <= chunk or v.n_samples == 1
    # the views are greedy: the next configuration would not have fitted
    for a, b in zip(views, views[1:]):
        assert len(a.points) + b.counts()[0] > chunk
    if chunk < 12:
        assert [12] in [v.counts().tolist() for v in views]


def test_empty_batch_is_one_empty_view(monkeypatch):
    views, (counts, sums), _ = _views(monkeypatch, [], 7)
    assert len(views) == 1 and counts.size == 0 and sums.size == 0


@pytest.mark.parametrize("tuple_out", [False, True])
def test_outputs_equal_the_joined_views(monkeypatch, tuple_out):
    # chunk 4 cuts a view holding only the 12-point configuration
    _fixed_counts(monkeypatch, COUNTS)
    monkeypatch.setattr(pointprocess, "_CHUNK_POINTS", 4)
    views = []

    def fn(view):
        views.append(view)
        sums = view.segment_sum(view.points[:, 0])
        return (view.counts(), np.column_stack([sums, -sums])) if tuple_out else sums

    out = sample_views(SP, INTEN, WIN, RngStream(3), len(COUNTS), fn)
    assert any(v.n_samples == 1 for v in views)
    parts = [fn(v) for v in list(views)]
    want = (tuple(np.concatenate(p) for p in zip(*parts)) if tuple_out
            else (np.concatenate(parts),))
    got = out if tuple_out else (out,)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w)


# the samplers that read a fixed amount of the stream per point
PER_POINT = {
    "gaussian-plane": (SP, INTEN, WIN),
    "uniform-sphere": (bat.sphere_space(), bat.sphere_intensity(), WIN),
    "uniform-box": (SP, IntensitySpec("uniform"), Window("box", ((-2.0, 2.0), (-1.0, 2.0)))),
}


@pytest.mark.parametrize("chunk", [1, 7, pointprocess._CHUNK_POINTS, 10**9])
@pytest.mark.parametrize("case", list(PER_POINT))
def test_views_join_to_the_batch_drawn_whole(monkeypatch, case, chunk):
    # drawn view by view, the points and the stream's state after them are
    # those of one draw of the whole batch, byte for byte
    space, intensity, window = PER_POINT[case]
    monkeypatch.setattr(pointprocess, "_CHUNK_POINTS", chunk)
    views, rng, ref = [], RngStream(11), RngStream(11)
    counts = sample_views(space, intensity, window, rng, 3_000,
                          lambda v: views.append(v) or v.counts())
    whole = sample_batch(space, intensity, window, ref, 3_000)
    assert len(views) > 1 or chunk == 10**9
    assert np.array_equal(counts, whole.counts())
    assert np.concatenate([v.points for v in views]).tobytes() == whole.points.tobytes()
    assert rng.gen.bit_generator.state == ref.gen.bit_generator.state


def test_rejection_sampler_draws_the_batch_once(monkeypatch):
    # the gaussian box's proposals depend on the total: one draw, sliced
    window = bat.series_window()
    monkeypatch.setattr(pointprocess, "_CHUNK_POINTS", 7)
    calls, plain = [], pointprocess._draw_locations

    def counted(*args):
        calls.append(args[-1])
        return plain(*args)

    monkeypatch.setattr(pointprocess, "_draw_locations", counted)
    views = []
    sample_views(SP, INTEN, window, RngStream(11), 500, lambda v: views.append(v) or v.counts())
    whole = sample_batch(SP, INTEN, window, RngStream(11), 500)
    assert calls == [len(whole.points)] * 2 and len(views) > 1
    assert np.concatenate([v.points for v in views]).tobytes() == whole.points.tobytes()


@pytest.mark.parametrize("outer", [Exp([-0.3, -0.2]), Linear([1.0, 0.5, -2.0], 0.5),
                                   Linear(np.linspace(-2.0, 2.5, 9), 0.5)])
def test_outer_row_does_not_depend_on_its_batch(outer):
    # a view may hold one configuration or a few, and a BLAS matrix-vector
    # product rounds a one-row product, and from 8 columns a row by its
    # position, unlike the whole batch
    S = np.random.default_rng(3).normal(size=(501, outer.nargs))
    whole = outer.eval_batch(S)
    assert np.array_equal(np.concatenate([outer.eval_batch(s) for s in S]), whole)
    assert np.array_equal(np.concatenate([outer.eval_batch(s) for s in S.reshape(167, 3, -1)]),
                          whole)


def _rows(n: int):
    rng = RngStream(42)
    battery = bat.laplace_battery()
    checks = laplace_check(SP, INTEN, WIN, [(nm, f) for nm, f, w in battery if w is None],
                           rng.child("laplace", "gauss-centered"), n)
    nm, f, w = battery[-1]
    checks += laplace_check(SP, INTEN, w, [(nm, f)], rng.child("laplace", nm), n)
    checks += mecke_check(SP, INTEN, WIN, bat.mecke_battery(), rng.child("mecke", "phi-pi"), n)
    checks += ibp_check(SP, INTEN, WIN, bat.ibp_battery(), rng.child("ibp", 0), n)
    checks += [
        dirichlet_check(SP, INTEN, WIN, W1, W2, rng.child("dir0", i), "functions", n)
        for i, (W1, W2) in enumerate(bat.function_pairs())
    ]
    # the form levels: one BatchEval per view, every per-configuration
    # quantity computed within its own configuration
    W1, W2 = bat.form_pairs()[0]
    checks += [dirichlet_check(SP, INTEN, WIN, W1, W2, rng.child("dir1", level, 0), level, n)
               for level in ("bochner", "deRham")]
    forms = bat.flat_form_battery()
    checks.append(adjointness_check(SP, INTEN, WIN, forms[1], forms[3],
                                    rng.child("adj", forms[1].name, forms[3].name), n))
    return json.dumps([c.as_row() for c in checks])


# configurations per run at each view size: 3,000 hold about 18,900
# points, three views at the default size and one at 10**9; 600 cut into
# hundreds of 1- and 7-point views, which cost far more per configuration
_N_AT_VIEW_SIZE = {1: 600, 7: 600, 10**9: 3_000}


@pytest.fixture(scope="module")
def default_rows():
    return {n: _rows(n) for n in set(_N_AT_VIEW_SIZE.values())}


@pytest.mark.parametrize("chunk", list(_N_AT_VIEW_SIZE))
def test_rows_do_not_depend_on_the_view_size(monkeypatch, default_rows, chunk):
    n = _N_AT_VIEW_SIZE[chunk]
    monkeypatch.setattr(pointprocess, "_CHUNK_POINTS", chunk)
    assert _rows(n) == default_rows[n]


def _peak(run) -> float:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ibp_peak_memory():
    # per-point temporaries over the whole batch at once peaked at 99 MB
    rng = RngStream(42).child("ibp", 0)
    assert _peak(lambda: ibp_check(SP, INTEN, WIN, bat.ibp_battery(), rng, 70_000)) < 30e6


def test_form_dirichlet_peak_memory():
    # drawn as one batch of 3,030 configurations (the dirichlet experiment's
    # size), the Bochner row peaked at 52.8 MB; one view at a time, at 24.2 MB
    rng = RngStream(42).child("dir1", "bochner", 0)
    W1, W2 = bat.form_pairs()[0]
    assert _peak(lambda: dirichlet_check(SP, INTEN, WIN, W1, W2, rng, "bochner", 3_030)) < 35e6


def test_chapman_peak_memory():
    # at the semigroup-ou experiment's size the second stage's one noise
    # block of 90,000 replicas over 30 steps peaked at 54.0 MB; drawn one
    # chunk of replicas at a time, at 7.9 MB
    gamma = Configuration(bat.flat_configs()[0])
    G, rng = bat.generator_functions()[0], RngStream(42).child("chapman")
    assert _peak(lambda: semigroup_property_check(
        SP, INTEN, G, gamma, 0.1, 0.15, SdeConfig(t=0.1, dt=0.005), 300, 300, rng)) < 15e6


@pytest.mark.parametrize("check", ["laplace", "mecke"])
def test_full_plane_peak_memory(check):
    # with the whole batch's points drawn before its views (7 MB at 70,000
    # configurations) laplace peaked at 12.5 MB and mecke at 12.8 MB; drawn
    # view by view, at 4.3 and 7.0 MB
    rng = RngStream(42)
    run = {
        "laplace": lambda: laplace_check(
            SP, INTEN, WIN, [(nm, f) for nm, f, w in bat.laplace_battery() if w is None],
            rng.child("laplace", "gauss-centered"), 70_000),
        "mecke": lambda: mecke_check(SP, INTEN, WIN, bat.mecke_battery(),
                                     rng.child("mecke", "phi-pi"), 70_000),
    }[check]
    assert _peak(run) < 10e6


@pytest.mark.parametrize("check", ["laplace", "mecke", "ibp"])
def test_battery_rows_equal_one_row_calls(check):
    # a row read from the shared pass equals the row checked alone on the
    # same stream: sharing fields, statistics and lifted vectors across
    # rows changes no value
    run, battery = {
        "laplace": (laplace_check, [(nm, f) for nm, f, w in bat.laplace_battery() if w is None]),
        "mecke": (mecke_check, bat.mecke_battery()),
        "ibp": (ibp_check, bat.ibp_battery()),
    }[check]
    together = run(SP, INTEN, WIN, battery, RngStream(5), 2_000)
    alone = [run(SP, INTEN, WIN, [row], RngStream(5), 2_000)[0] for row in battery]
    assert [r.as_row() for r in together] == [r.as_row() for r in alone]
