"""``SampleBatch.map_configs``: the views of whole configurations it cuts,
and the Monte Carlo checks that evaluate their statistics through it, whose
rows must not depend on the view size."""

import json
import tracemalloc

import numpy as np
import pytest

from poissonforms import batteries as bat
from poissonforms import pointprocess
from poissonforms.forms import Exp, Linear
from poissonforms.operators import dirichlet_check, ibp_check
from poissonforms.pointprocess import RngStream, SampleBatch, laplace_check, mecke_check

SP, INTEN, WIN = bat.default_space(), bat.default_intensity(), bat.full_window()

# empty configurations at the first and the last index, one larger than
# every view size below but the last
COUNTS = [0, 3, 1, 12, 0, 2, 2, 0]


def _batch(counts):
    # each point's coordinates are its configuration's number
    sid = np.repeat(np.arange(len(counts), dtype=float), counts)
    return SampleBatch(np.column_stack([sid, sid]), np.cumsum([0, *counts]))


def _views(monkeypatch, counts, chunk):
    monkeypatch.setattr(pointprocess, "_CHUNK_POINTS", chunk)
    views = []

    def fn(view):
        views.append(view)
        return view.counts(), view.segment_sum(view.points[:, 0])

    return views, _batch(counts).map_configs(fn)


@pytest.mark.parametrize("chunk", [1, 4, 7, 100])
def test_each_configuration_in_one_view_in_order(monkeypatch, chunk):
    views, (counts, labels) = _views(monkeypatch, COUNTS, chunk)
    assert counts.tolist() == COUNTS
    assert labels.tolist() == [i * c for i, c in enumerate(COUNTS)]
    assert np.array_equal(np.concatenate([v.points for v in views]), _batch(COUNTS).points)
    for v in views:
        assert v.n_samples >= 1 and v.offsets[0] == 0
        assert len(v.points) <= chunk or v.n_samples == 1
    # the views are greedy: the next configuration would not have fitted
    for a, b in zip(views, views[1:]):
        assert len(a.points) + b.counts()[0] > chunk
    if chunk < 12:
        assert [12] in [v.counts().tolist() for v in views]


def test_empty_batch_is_one_empty_view(monkeypatch):
    views, (counts, labels) = _views(monkeypatch, [], 7)
    assert len(views) == 1 and counts.size == 0 and labels.size == 0


@pytest.mark.parametrize("outer", [Exp([-0.3, -0.2]), Linear([1.0, 0.5, -2.0], 0.5)])
def test_outer_row_does_not_depend_on_its_batch(outer):
    # a view may hold one configuration, and numpy rounds a one-row
    # product unlike a matrix-vector one
    S = np.random.default_rng(3).normal(size=(500, outer.nargs))
    whole = outer.eval_batch(S)
    assert np.array_equal(np.concatenate([outer.eval_batch(s) for s in S]), whole)


def _rows():
    n = 3_000
    rng = RngStream(42)
    checks = [
        laplace_check(SP, INTEN, w or WIN, f, rng.child("laplace", nm), n, name=nm)
        for nm, f, w in bat.laplace_battery()
    ]
    checks += [
        mecke_check(SP, INTEN, WIN, fn, rng.child("mecke", fn.name), n)
        for fn in bat.mecke_battery()
    ]
    F1, F2, V = bat.ibp_battery()[1]
    assert V.name == "V-mixed"
    checks.append(ibp_check(SP, INTEN, WIN, F1, F2, V, rng.child("ibp", 1), n))
    checks += [
        dirichlet_check(SP, INTEN, WIN, W1, W2, rng.child("dir0", i), "functions", n)
        for i, (W1, W2) in enumerate(bat.function_pairs())
    ]
    return json.dumps([c.as_row() for c in checks])


@pytest.fixture(scope="module")
def default_rows():
    # 3,000 configurations hold about 18,900 points: two views at the
    # default size, one at 10**9
    return _rows()


@pytest.mark.parametrize("chunk", [1, 7, 10**9])
def test_rows_do_not_depend_on_the_view_size(monkeypatch, default_rows, chunk):
    monkeypatch.setattr(pointprocess, "_CHUNK_POINTS", chunk)
    assert _rows() == default_rows


def test_ibp_peak_memory():
    # per-point temporaries over the whole batch at once peaked at 99 MB
    F1, F2, V = bat.ibp_battery()[1]
    tracemalloc.start()
    try:
        ibp_check(SP, INTEN, WIN, F1, F2, V, RngStream(42).child("ibp", 1), 70_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6
