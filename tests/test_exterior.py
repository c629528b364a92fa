import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poissonforms.exterior import (
    Multivector,
    block_potential,
    curvature_operator,
    interior,
    leibniz_power,
    t_basis,
    wedge,
)
from poissonforms.geometry import Euclidean, Space, Sphere

vec2 = st.tuples(
    st.floats(-3, 3, allow_nan=False), st.floats(-3, 3, allow_nan=False)
).map(np.array)


def mv(v, slot=0):
    return Multivector.from_vector(np.asarray(v, dtype=float), slot)


class TestWedge:
    @settings(max_examples=50, deadline=None)
    @given(vec2, vec2)
    def test_anticommutes(self, a, b):
        lhs = wedge(mv(a), mv(b))
        rhs = wedge(mv(b), mv(a)) * (-1.0)
        assert (lhs - rhs).norm() < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(vec2)
    def test_nilpotent(self, a):
        assert wedge(mv(a), mv(a)).norm() < 1e-12 * max(1.0, float(a @ a))

    def test_gram_inner(self):
        # <a^b, c^e> = det [[a.c, a.e], [b.c, b.e]]
        a, b = np.array([1.0, 2.0]), np.array([0.0, 1.0])
        c, e = np.array([2.0, -1.0]), np.array([1.0, 1.0])
        lhs = wedge(mv(a), mv(b)).inner(wedge(mv(c), mv(e)))
        det = (a @ c) * (b @ e) - (a @ e) * (b @ c)
        assert abs(lhs - det) < 1e-12

    def test_bilinear_in_sum(self):
        a, b, c = map(np.array, ([1.0, 0.5], [0.2, -1.0], [0.7, 0.3]))
        lhs = wedge(mv(a) + mv(b), mv(c))
        rhs = wedge(mv(a), mv(c)) + wedge(mv(b), mv(c))
        assert (lhs - rhs).norm() < 1e-12


class TestCreateAnnihilate:
    # wedge with e_v creates and iota_v annihilates a factor
    def test_interior_antiderivation(self):
        v = np.array([0.3, -0.8])
        a, b = np.array([1.0, 0.2]), np.array([-0.4, 0.9])
        u = wedge(mv(a), mv(b))
        out = interior(v, u)
        expect = mv(b) * float(v @ a) - mv(a) * float(v @ b)
        assert (out - expect).norm() < 1e-12


class TestTBasis:
    def test_counts(self):
        # n=2, m=2, d=2: each slot holds one axis -> 2*2 keys
        assert len(t_basis(2, 2, 2)) == 4
        # n=2, m=1, d=2: one slot holds both axes -> 1 key
        assert len(t_basis(2, 1, 2)) == 1
        assert len(t_basis(1, 1, 3)) == 3

    def test_empty_when_degree_below_slots(self):
        assert t_basis(1, 2, 2) == []

    def test_keys_sorted_and_full(self):
        for key in t_basis(2, 2, 2):
            slots = [s for s, _ in key]
            assert sorted(slots) == [0, 1]
            assert list(key) == sorted(key)


class TestLeibniz:
    def test_degree_one_is_identity_action(self):
        A = np.array([[1.0, 2.0], [0.5, -1.0]])
        assert np.allclose(leibniz_power(A, 1), A)

    def test_derivation_rule_top_degree(self):
        # on the top form e1^e2 in d=2 the extension acts by trace
        A = np.array([[0.7, 0.1], [-0.3, 1.2]])
        L = leibniz_power(A, 2)
        assert L.shape == (1, 1)
        assert abs(L[0, 0] - np.trace(A)) < 1e-12

    def test_commutes_with_sum(self):
        gen = np.random.default_rng(3)
        A, B = gen.normal(size=(2, 2)), gen.normal(size=(2, 2))
        assert np.allclose(
            leibniz_power(A + B, 2), leibniz_power(A, 2) + leibniz_power(B, 2)
        )


def _leibniz_walk(A: np.ndarray, k: int) -> np.ndarray:
    """The derivation extension key by key: A[b, a] replaces factor a of a
    basis key by b, with the sign of re-sorting."""
    d = A.shape[0]
    basis = list(itertools.combinations(range(d), k))
    index = {I: r for r, I in enumerate(basis)}
    out = np.zeros((len(basis), len(basis)))
    for I in basis:
        for pos in range(k):
            for b in range(d):
                J = I[:pos] + (b,) + I[pos + 1 :]
                if len(set(J)) < k:
                    continue
                inversions = sum(x > y for i, x in enumerate(J) for y in J[i + 1 :])
                out[index[tuple(sorted(J))], index[I]] += (-1.0) ** inversions * A[b, I[pos]]
    return out


class TestLeibnizStacked:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_stacked_matches_per_matrix_and_key_walk(self, d):
        A = np.random.default_rng(d).normal(size=(5, d, d))
        for k in range(d + 1):
            got = leibniz_power(A, k)
            assert got.shape == (5, math.comb(d, k), math.comb(d, k))
            for a, g in zip(A, got):
                assert np.array_equal(g, leibniz_power(a, k))
                assert np.allclose(g, _leibniz_walk(a, k), rtol=0, atol=1e-15)

    def test_degree_zero_is_a_zero(self):
        assert np.array_equal(leibniz_power(np.eye(2), 0), np.zeros((1, 1)))


class _ConstantCurvature(Space):
    """Stub backend: only the dimension and the sectional curvature."""

    def __init__(self, d: int, K: float):
        self.dim = self.ambient_dim = d
        self.name = f"constant{d}"
        self.K = K

    def sectional_curvature(self) -> float:
        return self.K


def _weitzenboeck_sum(d: int, K: float, n: int) -> np.ndarray:
    """sum_{ijkl} R_ijkl e_j ^ iota_i e_k ^ iota_l on Lambda^n, with
    R_ijkl = K (g_ik g_jl - g_il g_jk), written out term by term."""
    e = np.eye(d)
    basis = list(itertools.combinations(range(d), n))
    mat = np.zeros((len(basis), len(basis)))
    for col, I in enumerate(basis):
        u = Multivector.basis(I)
        acc = Multivector()
        for i, j, k, l in itertools.product(range(d), repeat=4):
            R = K * (float(i == k and j == l) - float(i == l and j == k))
            if R == 0.0:
                continue
            w = wedge(mv(e[k]), interior(e[l], u))
            acc = acc + wedge(mv(e[j]), interior(e[i], w)) * R
        for row, J in enumerate(basis):
            mat[row, col] = acc.inner(Multivector.basis(J))
    return mat


class TestCurvatureOperator:
    def test_euclidean_zero(self):
        sp = Euclidean(2)
        for n in (1, 2):
            assert np.allclose(curvature_operator(sp, n), 0.0)

    def test_sphere_degree_one_identity(self):
        sp = Sphere()
        assert np.allclose(curvature_operator(sp, 1), np.eye(2), atol=1e-12)

    def test_sphere_degree_two_zero(self):
        sp = Sphere()
        R2 = curvature_operator(sp, 2)
        assert R2.shape == (1, 1)
        assert abs(R2[0, 0]) < 1e-12

    @pytest.mark.parametrize("K", [0.5, -1.3])
    @pytest.mark.parametrize("d", [3, 4])
    def test_matches_weitzenboeck_sum(self, d, K):
        sp = _ConstantCurvature(d, K)
        for n in range(d + 1):
            expect = _weitzenboeck_sum(d, K, n)
            assert np.allclose(curvature_operator(sp, n), expect, atol=1e-12), n


class TestBlockPotential:
    def test_matches_weitz_on_full_sector(self):
        # gaussian scale 1 in the plane: degree-k block is +k I, so the
        # fully occupied (n=2, m=2) sector gets +2 on the diagonal
        from poissonforms.geometry import IntensitySpec
        from poissonforms.operators import weitz_matrix

        sp, p = Euclidean(2), np.array([0.4, -0.1])
        inten = IntensitySpec("gaussian", 1.0)
        pts = [p, -p]
        B = block_potential(
            lambda k, x: weitz_matrix(sp, inten, x, k), pts, n=2, m=2, d=2
        )
        assert np.allclose(B, 2.0 * np.eye(len(t_basis(2, 2, 2))), atol=1e-12)
