"""The batched form evaluator against the per-configuration functions,
which stay as the reference implementation."""

import itertools

import numpy as np
import pytest

from poissonforms import batteries as bat
from poissonforms.exterior import t_basis
from poissonforms.forms import BatchEval, eval_form
from poissonforms.geometry import Euclidean, IntensitySpec
from poissonforms.operators import (
    d_gamma,
    dstar_batch,
    dstar_gamma,
    lift,
    lift_batch,
    point_gradient_energy,
    point_partial_form,
)
from poissonforms.pointprocess import SampleBatch

SP = Euclidean(2)
GAUSS = IntensitySpec("gaussian", 1.0)
TOL = 1e-12

FLAT = bat.flat_form_battery()
PAIRS = bat.form_pairs()
PLAIN = FLAT + [PAIRS[0][0], PAIRS[0][1], PAIRS[1][1]]
ALL = PLAIN + [d_gamma(SP, GAUSS, W) for W in PLAIN]


def random_batch(seed: int = 0) -> SampleBatch:
    """Every configuration size from 0 to 5 (so n < m occurs for every
    m > 1 term), in shuffled order, with a few repeats."""
    rng = np.random.default_rng(seed)
    sizes = rng.permutation([0, 1, 2, 3, 4, 5, 2, 3, 1, 4])
    points = rng.normal(scale=0.8, size=(int(sizes.sum()), 2))
    return SampleBatch(points, np.concatenate([[0], np.cumsum(sizes)]))


BATCH = random_batch()
CONFIGS = list(BATCH)


def batch_coef(value, i: int, degree: int) -> dict:
    """The point-keyed coefficient table of configuration i, read off a
    BatchValue on the per-configuration layout (local point indices)."""
    start = BATCH.offsets[i]
    out = {}
    for k, block in value.blocks.items():
        first, idx, _ = value.layout.rows(k)
        basis = t_basis(degree, k, 2)
        for r in range(first[i], first[i + 1]):
            for key, c in zip(basis, block[r]):
                if c != 0.0:
                    out[tuple((int(idx[r, s]) - start, a) for s, a in key)] = c
    return out


def assert_same_coef(got: dict, want: dict, label: str):
    for key in set(got) | set(want):
        assert abs(got.get(key, 0.0) - want.get(key, 0.0)) < TOL, (label, key)


@pytest.mark.parametrize("W", ALL, ids=lambda W: W.name)
def test_values_and_norms(W):
    ev = BatchEval(BATCH)
    val = ev.form(W)
    norms = val.norm()
    for i, cfg in enumerate(CONFIGS):
        fv = eval_form(W, cfg)
        assert_same_coef(batch_coef(val, i, W.degree), fv.point_coef(), f"{W.name}@{i}")
        assert abs(norms[i] - fv.norm()) < TOL


def test_inner_products_all_pairs():
    # every pair, plain and masked, including the cross-subset pairings of
    # the scalar-slot form and the pairings of different degrees (zero)
    ev = BatchEval(BATCH)
    vals = {W.name: ev.form(W) for W in ALL}
    per_cfg = [{W.name: eval_form(W, cfg) for W in ALL} for cfg in CONFIGS]
    for a, b in itertools.combinations_with_replacement(ALL, 2):
        got = vals[a.name].inner(vals[b.name])
        for i in range(len(CONFIGS)):
            want = per_cfg[i][a.name].inner(per_cfg[i][b.name])
            assert abs(got[i] - want) < TOL, (a.name, b.name, i)


@pytest.mark.parametrize("W", PLAIN, ids=lambda W: W.name)
def test_dstar(W):
    val = dstar_batch(SP, GAUSS, W, BatchEval(BATCH))
    for i, cfg in enumerate(CONFIGS):
        want = dstar_gamma(SP, GAUSS, W, cfg).point_coef()
        assert_same_coef(batch_coef(val, i, W.degree - 1), want, f"d*{W.name}@{i}")


@pytest.mark.parametrize("kind", ["bochner", "deRham"])
@pytest.mark.parametrize("W", PLAIN, ids=lambda W: W.name)
def test_lifts(kind, W):
    val = lift_batch(kind, SP, GAUSS, W, BatchEval(BATCH))
    for i, cfg in enumerate(CONFIGS):
        want = lift(kind, SP, GAUSS, W, cfg).point_coef()
        assert_same_coef(batch_coef(val, i, W.degree), want, f"{kind}{W.name}@{i}")


@pytest.mark.parametrize("pair", PAIRS + [(FLAT[1], FLAT[1]), (FLAT[2], FLAT[3])],
                         ids=lambda p: f"{p[0].name}-{p[1].name}")
def test_point_gradient_energy(pair):
    W1, W2 = pair
    got = point_gradient_energy(W1, W2, BatchEval(BATCH))
    for i, cfg in enumerate(CONFIGS):
        want = sum(
            point_partial_form(SP, GAUSS, W1, cfg, p, a).inner(
                point_partial_form(SP, GAUSS, W2, cfg, p, a)
            )
            for p in range(cfg.n)
            for a in range(2)
        )
        assert abs(got[i] - want) < TOL, i


def test_scalar_slot_adjoint_pairing():
    # <d W, V> and <W, d* V> for W = deg1-weighted, V = deg2-scalar-slot:
    # the scalar slot files V's keys on single points, where dW's m = 1
    # and d*V's dropped keys meet them
    W, V = FLAT[1], FLAT[3]
    assert (W.name, V.name) == ("deg1-weighted", "deg2-scalar-slot")
    ev = BatchEval(BATCH)
    lhs = ev.form(d_gamma(SP, GAUSS, W)).inner(ev.form(V))
    rhs = ev.form(W).inner(dstar_batch(SP, GAUSS, V, ev))
    for i, cfg in enumerate(CONFIGS):
        dW = eval_form(d_gamma(SP, GAUSS, W), cfg)
        assert abs(lhs[i] - dW.inner(eval_form(V, cfg))) < TOL
        want = eval_form(W, cfg).inner(dstar_gamma(SP, GAUSS, V, cfg))
        assert abs(rhs[i] - want) < TOL
    assert np.any(np.abs(lhs) > 1e-3) and np.any(np.abs(rhs) > 1e-3)


def test_masked_terms_rejected_by_lift():
    with pytest.raises(ValueError):
        lift_batch("bochner", SP, GAUSS, d_gamma(SP, GAUSS, FLAT[1]), BatchEval(BATCH))
