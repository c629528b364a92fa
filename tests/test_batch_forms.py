"""The batched form evaluator against the per-configuration functions,
which stay as the reference implementation, and a guard that the checks
run on the batched path alone."""

import itertools
import math

import numpy as np
import pytest

from poissonforms import batteries as bat
from poissonforms import forms
from poissonforms.exterior import t_basis
from poissonforms.forms import BatchEval, eval_form
from poissonforms.geometry import Euclidean, IntensitySpec, frame_coords
from poissonforms.operators import (
    apply_r_pi_sigma,
    d_gamma,
    dstar_batch,
    dstar_gamma,
    factorization_check,
    lift,
    lift_batch,
    point_gradient_energy,
    point_partial_form,
    r_pi_sigma_batch,
    weitzenbock_check,
)
from poissonforms.pointprocess import Configuration, RngStream, SampleBatch
from poissonforms.stochastic import generator_check_function

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


def sphere_batch(seed: int = 1) -> SampleBatch:
    """Configurations of 0 to 3 points on the unit sphere."""
    rng = np.random.default_rng(seed)
    sizes = rng.permutation([0, 1, 2, 3, 3, 2, 1])
    v = rng.normal(size=(int(sizes.sum()), 3))
    points = v / np.linalg.norm(v, axis=1, keepdims=True)
    return SampleBatch(points, np.concatenate([[0], np.cumsum(sizes)]))


BATCH = random_batch()
CONFIGS = list(BATCH)
SPHERE = bat.sphere_form_battery()
SPHERE_BATCH = sphere_batch()
SS, SI = bat.sphere_space(), bat.sphere_intensity()
# the flat forms on the plane batch, the sphere forms on the sphere batch;
# both spaces have tangent dimension 2
CASES = [pytest.param(W, BATCH, id=W.name) for W in ALL] + [
    pytest.param(W, SPHERE_BATCH, id=f"sphere-{W.name}") for W in SPHERE
]
# the plain (unmasked) forms, which the lifts take
PLAIN_CASES = [pytest.param(W, BATCH, id=W.name) for W in PLAIN] + [
    pytest.param(W, SPHERE_BATCH, id=f"sphere-{W.name}") for W in SPHERE
]


def backend(batch: SampleBatch):
    """The space and intensity a test batch lives on."""
    return (SP, GAUSS) if batch is BATCH else (SS, SI)


def batch_coef(value, i: int, degree: int) -> dict:
    """The point-keyed coefficient table of configuration i, read off a
    BatchValue on the per-configuration layout (local point indices)."""
    start = value.layout.start[i]
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


@pytest.mark.parametrize("W, batch", CASES)
def test_values_and_norms(W, batch):
    ev = BatchEval(batch, 2)
    val = ev.form(W)
    norms = val.norm()
    for i, cfg in enumerate(batch):
        fv = eval_form(W, cfg)
        assert_same_coef(batch_coef(val, i, W.degree), fv.point_coef(), f"{W.name}@{i}")
        assert abs(norms[i] - fv.norm()) < TOL


@pytest.mark.parametrize("W, batch", CASES)
def test_filed_values(W, batch):
    # a configuration evaluated as a batch of one (the layout of the form
    # semigroup's estimates) files every key on the row it occupies in the
    # whole batch, bit for bit
    whole = BatchEval(batch, 2).form(W)
    for i, cfg in enumerate(batch):
        one = BatchEval(SampleBatch(cfg.points, np.array([0, cfg.n])), 2).form(W)
        assert batch_coef(one, 0, W.degree) == batch_coef(whole, i, W.degree), W.name


def test_sphere_one_forms_are_frame_coordinates():
    # the battery's killing and gradient-weighted 1-forms file, on the row
    # of each point x, F(gamma minus x) times the frame coordinates of their
    # vector field at x, bit for bit, in both frame charts
    rng = np.random.default_rng(4)
    v = rng.normal(size=(20, 3))
    poles = [[0.0, 0.0, 1.0], [0.1, 0.2, -0.97467943448089633]]
    P = np.vstack([v / np.linalg.norm(v, axis=1, keepdims=True), poles])
    assert np.sum(np.abs(P[:, 2]) > 0.9) >= 2 and np.sum(np.abs(P[:, 2]) <= 0.9) >= 2
    ev = BatchEval(SampleBatch(P, np.array([0, 1, 4, 9, 15, 22])), 2)
    _, idx, cfg = ev.configs.rows(1)
    for W in SPHERE[:2]:
        (t,) = W.terms
        vecs = {id(st.slots[0].field.vec): st.slots[0].field.vec for st in t.omega.terms}
        assert len(vecs) == 1, W.name
        (vec,) = vecs.values()
        want = frame_coords(SS, P, vec.value_batch(P))[idx[:, 0]]
        f = ev.f_rows(t.F, cfg, idx)
        assert np.array_equal(ev.form(W).blocks[1], f[:, None] * want), W.name


def test_inner_products_all_pairs():
    # every pair, plain and masked, including the cross-subset pairings of
    # the scalar-slot form and the pairings of different degrees (zero)
    for forms, batch in ((ALL, BATCH), (SPHERE, SPHERE_BATCH)):
        ev = BatchEval(batch, 2)
        vals = {W.name: ev.form(W) for W in forms}
        per_cfg = [{W.name: eval_form(W, cfg) for W in forms} for cfg in batch]
        for a, b in itertools.combinations_with_replacement(forms, 2):
            got = vals[a.name].inner(vals[b.name])
            for i in range(batch.n_samples):
                want = per_cfg[i][a.name].inner(per_cfg[i][b.name])
                assert abs(got[i] - want) < TOL, (a.name, b.name, i)


@pytest.mark.parametrize("W", PLAIN, ids=lambda W: W.name)
def test_dstar(W):
    val = dstar_batch(SP, GAUSS, W, BatchEval(BATCH, SP.dim))
    for i, cfg in enumerate(CONFIGS):
        want = dstar_gamma(SP, GAUSS, W, cfg).point_coef()
        assert_same_coef(batch_coef(val, i, W.degree - 1), want, f"d*{W.name}@{i}")


@pytest.mark.parametrize("kind", ["bochner", "deRham"])
@pytest.mark.parametrize("W, batch", PLAIN_CASES)
def test_lifts(kind, W, batch):
    space, intensity = backend(batch)
    val = lift_batch(kind, space, intensity, W, BatchEval(batch, space.dim))
    for i, cfg in enumerate(batch):
        want = lift(kind, space, intensity, W, cfg).point_coef()
        assert_same_coef(batch_coef(val, i, W.degree), want, f"{kind}{W.name}@{i}")


@pytest.mark.parametrize("W, batch", CASES)
def test_curvature_term(W, batch):
    # the Kronecker sum per block against the key-by-key slot action,
    # masked forms and scalar-slot keys included
    space, intensity = backend(batch)
    ev = BatchEval(batch, space.dim)
    val = r_pi_sigma_batch(space, intensity, ev.form(W), ev.points)
    for i, cfg in enumerate(batch):
        fv = apply_r_pi_sigma(space, intensity, eval_form(W, cfg), cfg, W.degree)
        assert_same_coef(batch_coef(val, i, W.degree), fv.point_coef(), f"R{W.name}@{i}")


@pytest.mark.parametrize("pair", PAIRS + bat.function_pairs() + [
    (FLAT[1], FLAT[1]), (FLAT[2], FLAT[3]), (FLAT[3], FLAT[3])],
    ids=lambda p: f"{p[0].name}-{p[1].name}")
def test_point_gradient_energy(pair):
    # the function pairs as 0-forms have no subset terms; the scalar-slot
    # form files the slot derivatives of several subsets holding a point on
    # one row, where they must be added before they are paired
    W1, W2 = pair
    got = point_gradient_energy(W1, W2, BatchEval(BATCH, SP.dim))
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
    ev = BatchEval(BATCH, SP.dim)
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
        lift_batch("bochner", SP, GAUSS, d_gamma(SP, GAUSS, FLAT[1]), BatchEval(BATCH, SP.dim))


def test_row_layout_past_int64_binomials():
    # C(67, 33) > 2^63: only the binomial columns the subset sizes read are
    # built, so configurations of 67 and 100 points work
    points = np.random.default_rng(2).normal(size=(167, 2))
    layout = BatchEval(SampleBatch(points, np.array([0, 67, 167])), 2).configs
    for k in (1, 2):
        first, idx, group = layout.rows(k)
        assert list(np.diff(first)) == [math.comb(67, k), math.comb(100, k)]
        assert np.array_equal(layout.find(group, idx), np.arange(len(idx)))


def test_checks_never_build_an_eval_cache(monkeypatch):
    # eval_form, lift, dstar_gamma and point_partial_form each build an
    # EvalCache, and apply_r_pi_sigma acts on their values: with the
    # constructor refusing, the structural checks and the scalar generator
    # reduction must still run, on the batched path alone
    def refuse(self, config):
        raise AssertionError("a check used the per-configuration form path")

    monkeypatch.setattr(forms.EvalCache, "__init__", refuse)
    win = bat.full_window()
    for space, intensity, W in ((SP, GAUSS, FLAT[3]), (SS, SI, SPHERE[1])):
        res = weitzenbock_check(space, intensity, win, W, RngStream(3), n_configs=2, tol=1e-4)
        assert res.passed, W.name
        for kind in ("bochner", "deRham"):
            res = factorization_check(kind, space, intensity, win, W, RngStream(4), n_trials=2)
            assert res.passed, (kind, W.name)
    gamma = Configuration(bat.flat_configs()[1])
    generator_check_function(
        SP, GAUSS, bat.generator_functions()[0], [gamma], n_samples=50, rng=RngStream(5)
    )
