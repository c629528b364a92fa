"""Batch evaluation of polynomial-Gaussian fields through a ``PointTable``:
against the pointwise path, against a shared table, and against the
per-atom evaluation it replaced, bit for bit."""

import numpy as np
import pytest

from poissonforms import batteries as bat
from poissonforms.fields import (
    Field,
    PointTable,
    RadialBump,
    SphereAxisField,
    SphereFrameCoordinate,
    SphereGradientField,
    SphereKilling,
    VectorField,
    monomial,
    polygauss,
)
from poissonforms.forms import BatchEval
from poissonforms.geometry import Sphere, frame_coords
from poissonforms.pointprocess import SampleBatch


def random_field(d: int, seed: int):
    """A product of two Gaussian atoms with different centres (their sum
    from d = 5 on, where the product expands into thousands of terms), plus
    a third atom and a rate-0 monomial: three distinct exponentials, mixed
    powers, and a constant term."""
    rng = np.random.default_rng(seed)

    def terms(n):
        return {tuple(rng.integers(0, 3, d)): float(rng.normal()) for _ in range(n)}

    a = polygauss(d, terms(3), rate=0.7, center=rng.normal(scale=0.3, size=d))
    b = polygauss(d, terms(2), rate=0.4, center=rng.normal(scale=0.3, size=d))
    c = polygauss(d, {(0,) * d: 0.5, **terms(2)}, rate=1.3)
    ab = a * b if d <= 4 else a + b
    return ab + c + monomial(d, tuple(rng.integers(0, 3, d)), 0.3)


def points(d: int, n: int = 200, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).normal(scale=0.9, size=(n, d))


def per_atom(f, X: np.ndarray) -> np.ndarray:
    """Each atom on its own, with r^2 as numpy's sum over the last axis."""
    out = np.zeros(X.shape[0])
    for atom in f.atoms:
        dX = X - np.asarray(atom.center)
        if atom.rate != 0.0:
            e = np.exp(-0.5 * atom.rate * np.sum(dX**2, axis=-1))
        else:
            e = np.ones(X.shape[0])
        tot = np.zeros(X.shape[0])
        for alpha, c in atom.terms:
            v = np.full(X.shape[0], c)
            for i, ai in enumerate(alpha):
                if ai:
                    v = v * dX[:, i] ** ai
            tot += v
        out += tot * e
    return out


def close(got: np.ndarray, want: np.ndarray) -> bool:
    return bool(np.all(np.abs(got - want) <= 1e-13 * np.maximum(np.abs(want), 1.0)))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_batch_matches_pointwise(d):
    f, X = random_field(d, d), points(d)
    assert close(f.value_batch(X), np.array([f.value_one(x) for x in X]))
    assert close(f.grad_batch(X), np.array([f.grad_one(x) for x in X]))
    fx = f.partial(d - 1)
    assert close(fx.value_batch(X), np.array([fx.value_one(x) for x in X]))
    mono = monomial(d, (2,) + (1,) * (d - 1), -1.5)
    assert close(mono.value_batch(X), np.array([mono.value_one(x) for x in X]))
    assert close(mono.grad_batch(X), np.array([mono.grad_one(x) for x in X]))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 7])
def test_table_is_bit_identical_to_per_atom(d):
    # np.sum adds a row of at most 7 entries left to right, as the table does
    f, X = random_field(d, 10 + d), points(d, seed=d)
    assert np.array_equal(f.value_batch(X), per_atom(f, X))
    grads = f.grad_batch(X)
    for a in range(d):
        assert np.array_equal(grads[:, a], per_atom(f.partial(a), X))


@pytest.mark.parametrize("name", ["no-terms", "rate-0-constant", "one-column", "no-atoms",
                                  "multi-atom"])
def test_lean_atom_path_returns_fresh_arrays(name):
    # the edge cases of starting an atom's sum from its first term; a
    # one-column monomial's only factor is the table's cached column, which
    # must never be handed out
    f = {
        "no-terms": monomial(2, (0, 0)).partial(0),
        "rate-0-constant": monomial(2, (0, 0), -1.5),
        "one-column": monomial(2, (1, 0)),
        "no-atoms": Field([], 2),
        "multi-atom": random_field(2, 4),
    }[name]
    X = points(2, seed=5)
    table = PointTable(X)
    got = f.value_batch(X, table=table)
    assert type(got) is np.ndarray and got.dtype == float and got.shape == (len(X),)
    assert np.array_equal(got, per_atom(f, X))
    want = got.copy()
    got[:] = 7.0
    assert np.array_equal(f.value_batch(X, table=table), want)
    assert np.array_equal(table.power(0, 0.0, 1), X[:, 0])


def test_radial_bump_reads_the_table_bit_for_bit():
    # np.sum's row of squared offsets, with or without a table that gauss
    # fields on the same centre share
    bump, X = RadialBump((0.2, 0.1), 1.2, 0.9), points(2, seed=6)
    s = np.sum((X - bump.center) ** 2, axis=-1) / 1.2**2
    ok = s < 1.0 - 1e-12
    want = np.zeros(len(X))
    want[ok] = 0.9 * np.exp(1.0 - 1.0 / (1.0 - s[ok]))
    assert 0 < ok.sum() < len(X)
    table = PointTable(X)
    polygauss(2, {(1, 1): 1.0}, center=(0.2, 0.1)).value_batch(X, table=table)
    assert np.array_equal(bump.value_batch(X), want)
    assert np.array_equal(bump.value_batch(X, table=table), want)


def sphere_points(n: int = 300, seed: int = 0) -> np.ndarray:
    P = np.random.default_rng(seed).normal(size=(n, 3))
    return P / np.linalg.norm(P, axis=1, keepdims=True)


def sphere_fields():
    """The sphere battery's scalar fields (slot scalars, cylinder statistics
    and the potential of the gradient field) and its slot vector fields."""
    scalars, vectors = {}, {}
    for W in bat.sphere_form_battery():
        for t in W.terms:
            if t.F is not None:
                scalars.update((id(f), f) for f in t.F.inners)
            for slot in (s for st in t.omega.terms for s in st.slots):
                if isinstance(slot.field, SphereFrameCoordinate):
                    vec = slot.field.vec
                    vectors[id(vec)] = vec
                    if isinstance(vec, SphereGradientField):
                        scalars[id(vec.scalar)] = vec.scalar
                else:
                    scalars[id(slot.field)] = slot.field
    return list(scalars.values()), list(vectors.values())


def test_shared_table_matches_standalone():
    # the ibp battery's fields through one BatchEval, in an order that has
    # partials and other fields fill the table first
    X = points(2, 500, seed=3)
    ev = BatchEval(SampleBatch(X, np.array([0, 200, 500])), 2)
    triples = bat.ibp_battery()
    vectors = [v for _, _, V in triples for _, _, v in V.terms]
    scalars = [phi for F1, F2, _ in triples for phi in F1.inners + F2.inners]
    scalars += [v.components[0] for v in vectors]
    for v in vectors:
        assert np.array_equal(v.div_batch(X, table=ev.table), v.div_batch(X))
        assert np.array_equal(v.value_batch(X, table=ev.table), v.value_batch(X))
    for f in scalars:
        assert np.array_equal(ev.grads(f), f.grad_batch(X))
        assert np.array_equal(ev.laps(f), f.laplacian().value_batch(X))
        assert np.array_equal(ev.values(f), f.value_batch(X))
    # the sphere battery's fields on a sphere batch
    P = sphere_points()
    ev = BatchEval(SampleBatch(P, np.array([0, 100, 300])), 2)
    scalars, vectors = sphere_fields()
    assert len(scalars) == 2 and len(vectors) == 2
    for v in vectors:
        assert np.array_equal(ev.values(v), v.value_batch(P))
    for f in scalars:
        assert np.array_equal(ev.grads(f), f.grad_batch(P))
        assert np.array_equal(ev.laps(f), f.lap_batch(P))
        assert np.array_equal(ev.values(f), f.value_batch(P))


def test_sphere_frame_coordinate_reads_frame_coords():
    # both frame charts (|z| <= 0.9 and the pole fallback), bit for bit,
    # batched and one point at a time
    P = sphere_points()
    assert np.sum(np.abs(P[:, 2]) > 0.9) >= 2 and np.sum(np.abs(P[:, 2]) <= 0.9) >= 2
    e1, e3 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])
    for vec in (SphereKilling(e3), SphereGradientField(SphereAxisField(e1, [0.0, 0.5, 0.3]))):
        want = frame_coords(Sphere(), P, vec.value_batch(P))
        for a in (0, 1):
            f = SphereFrameCoordinate(vec, a)
            assert np.array_equal(f.value_batch(P), want[:, a])
            assert np.array_equal([f.value_one(p) for p in P], want[:, a])


def test_sphere_axis_laplacian():
    # zonal harmonics of degree 1 and 2 are eigenfunctions with eigenvalues
    # -l (l + 1)
    P = sphere_points(seed=1)
    u = np.array([0.3, -0.5, 0.8])
    t = P @ (u / np.linalg.norm(u))
    for coeffs, want in (([0.0, 1.0], -2.0 * t), ([-1.0, 0.0, 3.0], -6.0 * (3.0 * t * t - 1.0))):
        f = SphereAxisField(u, coeffs)
        got = f.lap_batch(P)
        assert np.allclose(got, want, rtol=0.0, atol=1e-13)
        # a stacked call gives each row what a call on that row alone gives
        assert np.array_equal(got, [f.lap_batch(p) for p in P])


def test_vector_field_matches_pointwise():
    v = VectorField([random_field(2, 1), random_field(2, 2)])
    X = points(2)
    assert close(v.value_batch(X), np.array([v.value_one(x) for x in X]))
    assert close(v.div_batch(X), np.array([v.div_one(x) for x in X]))


def test_wrong_column_count_raises():
    f2, f1 = random_field(2, 0), random_field(1, 0)
    v = VectorField([f2, f2])
    X3 = points(3)
    for call in (f2.value_batch, f2.grad_batch, v.value_batch, v.div_batch):
        with pytest.raises(ValueError):
            call(X3)
    with pytest.raises(ValueError):
        f1.value_batch(points(2))
    with pytest.raises(ValueError):
        f2.value_batch(points(2), table=PointTable(points(2)))
