import math

import numpy as np
import pytest

from poissonforms.forms import CylinderFunction, Exp, Linear
from poissonforms.fields import gauss_bump
from poissonforms.geometry import Euclidean, IntensitySpec, Window, sigma_mass
from poissonforms.pointprocess import (
    ChebProfile,
    Configuration,
    MeckeFunctional,
    RngStream,
    _cheb_nodes,
    expect_series,
    iterated_kernel,
    laplace_check,
    m_subsets,
    mecke_check,
    sample,
    sample_batch,
    sigma_nodes,
)

SP = Euclidean(2)
GAUSS = IntensitySpec("gaussian", 1.0)
BOX = Window("box", ((-0.65, 0.65), (-0.65, 0.65)))
ALL = Window("all")

# Frozen oracles for the truncated-series evaluator, computed with an
# independent 120-node Gauss-Legendre rule on the box window via the Laplace
# functional  E prod_x e^{w.phi(x)} = exp int (e^{w.phi} - 1) dsigma
# (and plain linearity of the mean for the linear case).
PHI = gauss_bump(2, 0.5, (0.0, 0.0), 1.0)
PHI2 = gauss_bump(2, 1.0, (0.0, 0.2), 0.7)
ORACLE_EXP_ONE = 0.5764555689042391  # E exp(-0.5 <PHI, gamma>)
ORACLE_LINEAR = 1.5801870307026753  # E [<PHI, gamma> + 0.2]
ORACLE_EXP_TWO = 0.6142207996658571  # E exp(-0.3 <PHI,.> - 0.2 <PHI2,.>)
NEG = gauss_bump(2, 0.8, (0.2, -0.1), -0.6)  # a statistic that is never positive


class TestRngStream:
    def test_same_path_same_draws(self):
        a = RngStream(7).child(3, 1)
        b = RngStream(7).child(3, 1)
        assert np.array_equal(a.gen.normal(size=5), b.gen.normal(size=5))

    def test_child_nesting_matches_flat_path(self):
        a = RngStream(7).child(3).child(1)
        b = RngStream(7).child(3, 1)
        assert a.path == b.path

    def test_string_labels_stable(self):
        a = RngStream(1).child("mecke")
        b = RngStream(1).child("mecke")
        c = RngStream(1).child("laplace")
        assert a.path == b.path
        assert a.path != c.path
        assert np.array_equal(a.gen.normal(size=3), b.gen.normal(size=3))

    def test_siblings_differ(self):
        r = RngStream(11)
        x = r.child(0).gen.normal(size=4)
        y = r.child(1).gen.normal(size=4)
        assert not np.allclose(x, y)


class TestSampling:
    def test_counts_are_poisson_mean_mass(self):
        mass = sigma_mass(SP, GAUSS, BOX)
        batch = sample_batch(SP, GAUSS, BOX, RngStream(5), 40_000)
        counts = batch.counts()
        z = (counts.mean() - mass) / math.sqrt(mass / len(counts))
        assert abs(z) < 4.0
        # Poisson: variance equals the mean
        assert abs(counts.var() / mass - 1.0) < 0.05

    def test_points_inside_window(self):
        batch = sample_batch(SP, GAUSS, BOX, RngStream(2), 500)
        assert BOX.contains(batch.points).all()

    def test_deterministic_replay(self):
        b1 = sample_batch(SP, GAUSS, BOX, RngStream(9, (4,)), 100)
        b2 = sample_batch(SP, GAUSS, BOX, RngStream(9, (4,)), 100)
        assert np.array_equal(b1.points, b2.points)
        assert np.array_equal(b1.offsets, b2.offsets)

    def test_single_sample_matches_batch_layout(self):
        cfg = sample(SP, GAUSS, BOX, RngStream(3))
        assert isinstance(cfg, Configuration)
        assert cfg.points.shape[1] == 2

    def test_segment_sum(self):
        batch = sample_batch(SP, GAUSS, BOX, RngStream(1), 50)
        vals = batch.points[:, 0] ** 2
        sums = batch.segment_sum(vals)
        for i in (0, 17, 49):
            assert abs(sums[i] - batch.config(i).points[:, 0].__pow__(2).sum()) < 1e-12

    def test_m_subsets(self):
        cfg = Configuration(np.zeros((4, 2)))
        assert len(m_subsets(cfg, 2)) == 6
        assert m_subsets(Configuration(np.zeros((1, 2))), 2) == []

    def test_without_union(self):
        cfg = Configuration(np.array([[0.0, 0], [1, 1], [2, 2]]))
        assert cfg.without([1]).points.tolist() == [[0, 0], [2, 2]]
        assert cfg.union(np.array([3.0, 3])).n == 4


class TestQuadrature:
    def test_sigma_nodes_integrate_mass(self):
        nodes, w = sigma_nodes(SP, GAUSS, BOX, 32)
        assert abs(w.sum() - sigma_mass(SP, GAUSS, BOX)) < 1e-10

    def test_sigma_nodes_full_plane(self):
        nodes, w = sigma_nodes(SP, GAUSS, ALL, 48)
        assert abs(w.sum() - 2.0 * math.pi) < 1e-8
        val = w @ PHI.value_batch(nodes)
        # int e^{-|x|^2/4} e^{-|x|^2/2} dx = 2 pi / (3/2) = 4 pi / 3
        assert abs(val - 4.0 * math.pi / 3.0) < 1e-8

    def test_cheb_profile_1d(self):
        nodes = _cheb_nodes(-2.0, 1.0, 24)
        prof = ChebProfile([nodes], np.sin(nodes))
        s = np.linspace(-2.0, 1.0, 101)[:, None]
        assert np.max(np.abs(prof(s) - np.sin(s[:, 0]))) < 1e-12

    def test_cheb_profile_2d(self):
        ax = _cheb_nodes(-1.0, 1.0, 20)
        ay = _cheb_nodes(0.0, 2.0, 20)
        vals = np.exp(-np.add.outer(ax**2, ay))
        prof = ChebProfile([ax, ay], vals)
        gen = np.random.default_rng(0)
        S = np.column_stack(
            [gen.uniform(-1, 1, 200), gen.uniform(0, 2, 200)]
        )
        target = np.exp(-(S[:, 0] ** 2) - S[:, 1])
        assert np.max(np.abs(prof(S) - target)) < 1e-10

    def test_cheb_profile_exact_at_nodes(self):
        nodes = _cheb_nodes(0.0, 1.0, 9)
        prof = ChebProfile([nodes], nodes**3)
        assert np.allclose(prof(nodes[:, None]), nodes**3, atol=1e-14)

    def test_cheb_profile_rejects_extrapolation(self):
        nodes = _cheb_nodes(-2.0, 1.0, 12)
        prof = ChebProfile([nodes], np.sin(nodes))
        prof(np.array([[-2.0], [1.0]]))  # the endpoints themselves are fine
        for s in (1.0 + 1e-6, -2.0 - 1e-6, np.nan):
            with pytest.raises(ValueError):
                prof(np.array([[0.0], [s]]))
        prof2 = ChebProfile([nodes, nodes], np.add.outer(nodes, nodes))
        with pytest.raises(ValueError):
            prof2(np.array([[0.0, 1.01]]))


class TestExpectSeries:
    def test_exp_one_stat(self):
        res = expect_series(
            SP, GAUSS, BOX, Exp([-0.5]), (PHI,),
            envelope=lambda k: 1.0, k_max=8, cheb_n=32, quad_n=24,
        )
        assert res.certified
        assert res.tail_bound < 1e-3
        assert abs(res.value - ORACLE_EXP_ONE) <= res.tail_bound + 1e-6

    def test_linear_one_stat(self):
        res = expect_series(
            SP, GAUSS, BOX, Linear([1.0], 0.2), (PHI,),
            envelope=lambda k: 0.2 + k, k_max=8, cheb_n=32, quad_n=24,
        )
        assert abs(res.value - ORACLE_LINEAR) <= res.tail_bound + 1e-6

    def test_exp_two_stats(self):
        res = expect_series(
            SP, GAUSS, BOX, Exp([-0.3, -0.2]), (PHI, PHI2),
            envelope=lambda k: 1.0, k_max=7, cheb_n=24, quad_n=20,
        )
        assert res.certified
        assert abs(res.value - ORACLE_EXP_TWO) <= res.tail_bound + 1e-5

    def test_tail_shrinks_with_k_max(self):
        kw = dict(envelope=lambda k: 1.0, cheb_n=16, quad_n=16)
        t4 = expect_series(SP, GAUSS, BOX, Exp([-0.5]), (PHI,), k_max=4, **kw)
        t8 = expect_series(SP, GAUSS, BOX, Exp([-0.5]), (PHI,), k_max=8, **kw)
        assert t8.tail_bound < t4.tail_bound

    def test_uncertified_without_envelope(self):
        res = expect_series(
            SP, GAUSS, BOX, Exp([-0.5]), (PHI,), k_max=4, cheb_n=16, quad_n=16
        )
        assert not res.certified

    @pytest.mark.parametrize(
        "outer, inners",
        [
            (Exp([-0.5]), (PHI,)),
            (Linear([1.0], 0.2), (NEG,)),
            (Exp([-0.3, 0.4]), (PHI2, NEG)),
        ],
        ids=["one-stat", "one-negative-stat", "two-stats-mixed-sign"],
    )
    def test_chain_matches_per_k_kernels(self, outer, inners):
        # oracle: one iterated kernel of k steps per term, each built on its
        # own reachable range, against the single chain's h_k(0)
        k_max, cheb_n, quad_n = 6, 20, 12
        res = expect_series(
            SP, GAUSS, BOX, outer, inners, envelope=lambda k: 1.0,
            k_max=k_max, cheb_n=cheb_n, quad_n=quad_n,
        )
        nodes, w = sigma_nodes(SP, GAUSS, BOX, quad_n)
        inner_vals = np.stack([f.value_batch(nodes) for f in inners], axis=-1)
        zero = np.zeros((1, len(inners)))
        assert len(res.terms) == k_max + 1
        for k, term in enumerate(res.terms):
            prof = iterated_kernel(
                outer, inner_vals, w, [np.ones(len(w))] * k,
                (zero[0], zero[0]), cheb_n=cheb_n,
            )
            assert abs(term - prof(zero)[0] / math.factorial(k)) <= 1e-12

    def test_chunked_two_stat_step_matches_unchunked(self, monkeypatch):
        # quad_n = 40 is 1600 nodes, several chunks of the 2-statistic step
        from poissonforms import batteries as bat
        from poissonforms import pointprocess

        case = next(c for c in bat.series_battery() if c.name == "exp-two-stats")

        def terms():
            return expect_series(
                SP, GAUSS, bat.series_window(), case.outer, case.inners,
                case.envelope, k_max=3, quad_n=40,
            ).terms

        chunked = terms()
        monkeypatch.setattr(pointprocess, "_STEP_CHUNK", 40 * 40)
        whole = terms()
        assert len(sigma_nodes(SP, GAUSS, bat.series_window(), 40)[1]) == 1600
        assert np.max(np.abs(np.subtract(chunked, whole))) <= 1e-12

    def test_three_stats_rejected(self):
        with pytest.raises(ValueError):
            expect_series(SP, GAUSS, BOX, Exp([-1, -1, -1]), (PHI, PHI, PHI2))


class TestMecke:
    def test_m1_bare_statistic(self):
        # E sum phi(x) = int phi dsigma = pi for this bump on the full plane
        phi = gauss_bump(2, 1.0, (0.0, 0.0), 1.0)
        res = mecke_check(
            SP, GAUSS, ALL, MeckeFunctional((phi,), name="bare"),
            RngStream(42), n_samples=20_000,
        )
        assert res.passed
        assert abs(res.rhs - math.pi) < 1e-8  # quadrature side is exact

    def test_m2_with_cylinder_factor(self):
        phi = gauss_bump(2, 1.0, (0.0, 0.0), 1.0)
        psi = gauss_bump(2, 0.8, (0.3, -0.2), 0.7)
        fun = MeckeFunctional(
            (phi, psi), outer=Exp([-0.3]), inner=phi, name="pair"
        )
        res = mecke_check(SP, GAUSS, ALL, fun, RngStream(43), n_samples=20_000)
        assert res.passed
        assert res.stderr > 0.0

    def test_m3_rejected(self):
        phi = gauss_bump(2, 1.0, (0.0, 0.0), 1.0)
        with pytest.raises(ValueError):
            mecke_check(
                SP, GAUSS, ALL, MeckeFunctional((phi, phi, phi)),
                RngStream(1), n_samples=10,
            )


class TestLaplace:
    def test_gaussian_bump(self):
        res = laplace_check(
            SP, GAUSS, ALL, gauss_bump(2, 0.5, (0.0, 0.0), -0.6),
            RngStream(7), n_samples=30_000,
        )
        assert res.passed
        assert res.check.startswith("laplace")

    def test_deterministic(self):
        a = laplace_check(SP, GAUSS, BOX, PHI, RngStream(5), n_samples=2000)
        b = laplace_check(SP, GAUSS, BOX, PHI, RngStream(5), n_samples=2000)
        assert a.lhs == b.lhs and a.rhs == b.rhs and a.stderr == b.stderr
