import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poissonforms.geometry import (
    Euclidean,
    IntensitySpec,
    Sphere,
    Window,
    beta,
    grad_beta,
    sigma_mass,
)
from poissonforms.quadrature import (
    adaptive_box_integral,
    gauss_hermite_gaussian,
    sphere_rule,
    tensor_rule,
)


def unit(v):
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("inten", [
    IntensitySpec("gaussian", 0.7),
    IntensitySpec("uniform"),
], ids=["gaussian", "uniform"])
def test_grad_beta_stacked_matches_per_point(inten):
    X = np.random.default_rng(8).normal(size=(3, 4, 2)) * 0.5
    got = grad_beta(Euclidean(2), inten, X)
    assert got.shape == (3, 4, 2, 2)
    for idx in np.ndindex(3, 4):
        assert np.array_equal(got[idx], grad_beta(Euclidean(2), inten, X[idx]))


class TestSpaces:
    def test_euclidean_roundtrip(self):
        sp = Euclidean(2)
        p = np.array([0.3, -0.7])
        w = np.array([0.5, 0.2])
        assert np.allclose(sp.exp(p, w), p + w)
        assert np.allclose(sp.transport(p, p + w, w), w)
        assert np.allclose(sp.frame(p), np.eye(2))

    def test_sphere_exp_stays_on_sphere(self):
        sp = Sphere()
        p = unit(np.array([1.0, 0.2, -0.3]))
        w = sp.project_tangent(p, np.array([0.0, 0.4, 0.1]))
        q = sp.exp(p, w)
        assert abs(np.linalg.norm(q) - 1.0) < 1e-12
        # geodesic distance equals the tangent norm
        assert abs(math.acos(np.clip(p @ q, -1, 1)) - np.linalg.norm(w)) < 1e-12

    def test_sphere_frame_orthonormal_tangent(self):
        sp = Sphere()
        p = unit(np.array([0.2, -0.5, 0.8]))
        E = sp.frame(p)
        assert E.shape == (2, 3)
        assert np.allclose(E @ E.T, np.eye(2), atol=1e-12)
        assert np.allclose(E @ p, 0.0, atol=1e-12)

    def test_sphere_frame_second_vector_is_exact_cross_product(self):
        # the second frame vector is p x e1 bit for bit, on both sides of
        # the near-pole switch |p_z| > 0.9
        sp = Sphere()
        gen = np.random.default_rng(7)
        P = gen.normal(size=(2000, 3))
        P[:500, 2] = np.sign(P[:500, 2]) * 10.0  # |p_z| > 0.9 after scaling
        P /= np.linalg.norm(P, axis=1, keepdims=True)
        assert np.sum(np.abs(P[:, 2]) > 0.9) >= 500
        for p in P:
            e1, e2 = sp.frame(p)
            assert np.array_equal(e2, np.cross(p, e1))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_sphere_transport_isometry(self, seed):
        gen = np.random.default_rng(seed)
        sp = Sphere()
        p = unit(gen.normal(size=3))
        q = unit(gen.normal(size=3))
        if abs(p @ q + 1.0) < 1e-6:
            return  # antipodal transport is undefined
        v = sp.project_tangent(p, gen.normal(size=3))
        w = sp.transport(p, q, v)
        assert abs(np.linalg.norm(w) - np.linalg.norm(v)) < 1e-10
        assert abs(w @ q) < 1e-10

    def test_sphere_transport_antipodal_raises(self):
        sp = Sphere()
        p = np.array([0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            sp.transport(p, -p, np.array([1.0, 0.0, 0.0]))

    def test_sphere_rows_match_row_by_row_calls(self):
        # stacked calls return what one call per row returns, bit for bit:
        # rows past both pole fallbacks (|p_z| > 0.9, either sign), zero
        # exp steps, and leading axes of more than one dimension
        sp = Sphere()
        gen = np.random.default_rng(3)
        P = gen.normal(size=(300, 3))
        P[:40, 2] = 10.0
        P[40:80, 2] = -10.0
        P /= np.linalg.norm(P, axis=1, keepdims=True)
        assert np.sum(P[:, 2] > 0.9) >= 40 and np.sum(P[:, 2] < -0.9) >= 40
        Q = gen.normal(size=(300, 3))
        Q /= np.linalg.norm(Q, axis=1, keepdims=True)
        W = sp.project_tangent(P, gen.normal(size=(300, 3)))
        W[::25] = 0.0
        V = gen.normal(size=(300, 3))
        rows = {
            "frame": (sp.frame(P), [sp.frame(p) for p in P]),
            "exp": (sp.exp(P, W), [sp.exp(p, w) for p, w in zip(P, W)]),
            "transport": (
                sp.transport(P, Q, V),
                [sp.transport(p, q, v) for p, q, v in zip(P, Q, V)],
            ),
            "project_tangent": (
                sp.project_tangent(P, V),
                [sp.project_tangent(p, v) for p, v in zip(P, V)],
            ),
        }
        for name, (stacked, one_by_one) in rows.items():
            assert np.array_equal(stacked, np.array(one_by_one)), name
        assert np.array_equal(sp.exp(P[::25], W[::25]), P[::25])
        grid = P.reshape(10, 30, 3)
        assert np.array_equal(sp.frame(grid), sp.frame(P).reshape(10, 30, 2, 3))
        moved = sp.transport(grid[:, :, None, :], Q[None, :1, :], sp.frame(grid))
        assert np.array_equal(
            moved.reshape(300, 2, 3),
            [[sp.transport(p, Q[0], e) for e in sp.frame(p)] for p in P],
        )

    def test_sphere_transport_one_antipodal_row_raises(self):
        sp = Sphere()
        P = np.tile([0.0, 0.6, 0.8], (20, 1))
        Q = P.copy()
        Q[7] = -P[7]
        with pytest.raises(ValueError):
            sp.transport(P, Q, sp.frame(P)[:, 0])

    def test_sectional_curvatures(self):
        assert Euclidean(2).sectional_curvature() == 0.0
        assert Sphere().sectional_curvature() == 1.0


class TestIntensity:
    def test_gaussian_rho(self):
        inten = IntensitySpec("gaussian", 1.0)
        x = np.array([[1.0, 1.0]])
        assert abs(inten.rho(x)[0] - math.exp(-1.0)) < 1e-15

    @pytest.mark.parametrize("d", [1, 2, 3, 7])
    def test_gaussian_rho_sums_a_row_as_np_sum(self, d):
        # the squared coordinates added left to right, bit for bit
        inten = IntensitySpec("gaussian", 0.8)
        X = np.random.default_rng(d).normal(size=(300, d))
        assert np.array_equal(inten.rho(X), np.exp(-0.5 * np.sum(X**2, axis=-1) / 0.8**2))

    def test_beta_is_grad_log_rho(self):
        sp = Euclidean(2)
        inten = IntensitySpec("gaussian", 0.7)
        p = np.array([0.4, -0.2])
        assert np.allclose(beta(sp, inten, p), -p / 0.49)
        assert np.allclose(grad_beta(sp, inten, p), -np.eye(2) / 0.49)

    def test_uniform_beta_zero(self):
        assert np.allclose(
            beta(Sphere(), IntensitySpec("uniform"), unit(np.array([1.0, 1, 1]))), 0.0
        )

    def test_unknown_family_rejected(self):
        # the family is checked once, at construction
        for family in ("weird", "custom"):
            with pytest.raises(ValueError, match="unknown intensity family"):
                IntensitySpec(family)


class TestWindows:
    def test_box_contains(self):
        w = Window("box", ((-1.0, 1.0), (0.0, 2.0)))
        inside = w.contains(np.array([[0.0, 1.0], [0.0, -0.5], [1.5, 1.0]]))
        assert inside.tolist() == [True, False, False]

    def test_all_contains_everything(self):
        w = Window("all")
        assert w.contains(np.array([[1e6, -1e6]])).all()

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            Window("disc")
        with pytest.raises(ValueError):
            Window("box")


def _quadrature_mass(space, inten, window):
    """sigma(window) by a high-order rule of the matching kind."""
    if isinstance(space, Sphere):
        pts, w = sphere_rule(48, 96)
        return float(w @ inten.rho(pts))
    if window.kind == "all":
        return float(np.sum(gauss_hermite_gaussian(space.dim, 24, inten.scale)[1]))
    nodes, w = tensor_rule(window.bounds, 64)
    return float(w @ inten.rho(nodes))


_BOX_65 = Window("box", ((-0.65, 0.65), (-0.65, 0.65)))
_BOX_90 = Window("box", ((-0.9, 0.9), (-0.9, 0.9)))


class TestSigmaMass:
    @pytest.mark.parametrize("space, inten, window", [
        # what the batteries and workloads use
        (Euclidean(2), IntensitySpec("gaussian", 1.0), Window("all")),
        (Euclidean(2), IntensitySpec("gaussian", 1.0), _BOX_65),
        (Euclidean(2), IntensitySpec("gaussian", 1.0), _BOX_90),
        (Sphere(), IntensitySpec("uniform"), Window("all")),
        # beyond it
        (Euclidean(1), IntensitySpec("gaussian", 0.7), Window("all")),
        (Euclidean(3), IntensitySpec("gaussian", 0.7), Window("all")),
        (Sphere(), IntensitySpec("gaussian", 0.5), Window("all")),
        (Euclidean(2), IntensitySpec("uniform"), Window("box", ((-1.0, 2.0), (0.0, 0.5)))),
        (Euclidean(2), IntensitySpec("gaussian", 0.7),
         Window("box", ((1.4, 2.8), (-2.8, -1.4)))),
        # here a difference of erf terms is off by about 1e-8 relative
        (Euclidean(1), IntensitySpec("gaussian", 1.0), Window("box", ((6.0, 8.0),))),
    ], ids=["plane", "series-box", "dd-zero-box", "uniform-sphere", "line-0.7",
            "space3-0.7", "gauss-sphere-0.5", "uniform-box", "one-sided-box",
            "far-box"])
    def test_closed_form_matches_quadrature(self, space, inten, window):
        m = sigma_mass(space, inten, window)
        ref = _quadrature_mass(space, inten, window)
        assert abs(m - ref) <= 1e-12 * ref

    def test_gaussian_full_plane(self):
        # int exp(-|x|^2/2) dx = 2 pi
        m = sigma_mass(Euclidean(2), IntensitySpec("gaussian", 1.0), Window("all"))
        assert abs(m - 2.0 * math.pi) < 1e-8

    def test_gaussian_box_frozen(self):
        # (int_{-0.65}^{0.65} e^{-x^2/2} dx)^2, via scipy's erf:
        # sqrt(2 pi) * (2 Phi(0.65) - 1) = 1.21398961...
        m = sigma_mass(
            Euclidean(2),
            IntensitySpec("gaussian", 1.0),
            Window("box", ((-0.65, 0.65), (-0.65, 0.65))),
        )
        assert abs(m - 1.4737463986396715) < 1e-10

    def test_sphere_uniform_area(self):
        m = sigma_mass(Sphere(), IntensitySpec("uniform"), Window("all"))
        assert abs(m - 4.0 * math.pi) < 1e-8

    def test_unconverged_box_integral_raises(self):
        box = ((-1.0, 1.0),)
        kinked = lambda X: np.abs(X[:, 0] - 0.3)
        with pytest.raises(RuntimeError):
            adaptive_box_integral(kinked, box, max_doublings=0)
        with pytest.raises(RuntimeError):
            adaptive_box_integral(kinked, box, max_doublings=2)
        smooth = adaptive_box_integral(lambda X: np.exp(X[:, 0]), box)
        assert abs(smooth - (math.e - 1.0 / math.e)) < 1e-12

    def test_sphere_box_rejected(self):
        with pytest.raises(ValueError):
            sigma_mass(
                Sphere(), IntensitySpec("uniform"), Window("box", ((0, 1), (0, 1)))
            )

    def test_uniform_full_space_rejected(self):
        with pytest.raises(ValueError):
            sigma_mass(Euclidean(2), IntensitySpec("uniform"), Window("all"))
