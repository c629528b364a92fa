import math

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval, chebval2d, chebvander

from poissonforms.forms import Exp, Linear
from poissonforms.fields import gauss_bump
from poissonforms.geometry import Euclidean, IntensitySpec, Window, sigma_mass
from poissonforms.pointprocess import (
    ChebProfile,
    Configuration,
    MeckeFunctional,
    RngStream,
    _axes,
    _cheb_nodes,
    _dct1,
    expect_series,
    iterated_kernel,
    laplace_check,
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


def dense_chain_at_zero(outer, inner_vals, w, m, cheb_n):
    """h_0(0), ..., h_m(0) of the two-statistic chain with the dense, unchopped
    coefficient matrix of every profile and the three-operand einsum step."""
    bounds = (np.zeros(2), np.zeros(2), np.minimum(inner_vals.min(0), 0.0),
              np.maximum(inner_vals.max(0), 0.0))
    D = _dct1(cheb_n)

    def T(x, s):  # (degree, point) Chebyshev block on the axis x
        return chebvander((2.0 * s - x[0] - x[-1]) / (x[-1] - x[0]), cheb_n - 1).T

    def at_zero(ax, C):
        return (T(ax[0], np.zeros(1)).T @ C @ T(ax[1], np.zeros(1)))[0, 0]

    ax = _axes(*bounds, m, cheb_n)
    grid = np.stack(np.meshgrid(*ax, indexing="ij"), -1).reshape(-1, 2)
    C = D @ outer(grid).reshape(cheb_n, cheb_n) @ D.T
    out = [at_zero(ax, C)]
    for j in range(m - 1, -1, -1):
        new = _axes(*bounds, j, cheb_n)
        T0, T1 = (T(ax[a], (new[a][None, :] + inner_vals[:, a:a + 1]).ravel())
                  .reshape(cheb_n, -1, cheb_n) for a in (0, 1))
        C, ax = D @ np.einsum("kqi,kl,lqj->ij", T0, C, T1 * w[:, None], optimize=True) @ D.T, new
        out.append(at_zero(ax, C))
    return out


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

    @pytest.mark.parametrize(
        "intensity, window",
        [
            (GAUSS, Window("box", ((-0.65, 0.65), (-0.65, 0.65)))),
            (GAUSS, Window("box", ((-0.9, 0.9), (-0.9, 0.9)))),
        ],
        ids=["series-window", "dd-zero-box"],
    )
    def test_sampled_points_need_no_window_mask(self, intensity, window):
        # laplace_check, mecke_check and the series rows sum field values
        # over the batch unmasked: every sampled point must lie in the window
        batch = sample_batch(SP, intensity, window, RngStream(3), 5_000)
        assert batch.points.shape[0] > 5_000
        assert window.contains(batch.points).all()

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

    def test_sample_ids_built_once(self):
        batch = sample_batch(SP, GAUSS, BOX, RngStream(1), 50)
        ids = batch.sample_ids
        assert batch.sample_ids is ids and not ids.flags.writeable
        ref = np.repeat(np.arange(50), batch.counts())
        assert np.array_equal(ids, ref)
        vals = batch.points[:, 0] ** 2
        want = np.bincount(ref, weights=vals, minlength=50)
        for _ in range(2):
            assert np.array_equal(batch.segment_sum(vals), want)

    def test_without_union(self):
        cfg = Configuration(np.array([[0.0, 0], [1, 1], [2, 2]]))
        assert cfg.without([1]).points.tolist() == [[0, 0], [2, 2]]


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

    @pytest.mark.parametrize("n", [9, 24, 64])
    def test_cheb_coefficients_round_trip_at_nodes(self, n):
        # values -> coefficients (DCT-I per axis) -> values at the grid nodes
        ax = _cheb_nodes(-2.0, 1.0, n)
        ay = _cheb_nodes(0.5, 3.0, n)
        v1 = np.sin(3.0 * ax) + ax**2
        assert np.max(np.abs(ChebProfile([ax], v1)(ax[:, None]) - v1)) <= 1e-13
        v2 = np.exp(-np.add.outer(ax**2, 0.5 * ay)) + np.multiply.outer(ax, ay)
        grid = np.stack([g.ravel() for g in np.meshgrid(ax, ay, indexing="ij")], -1)
        got = ChebProfile([ax, ay], v2)(grid).reshape(n, n)
        assert np.max(np.abs(got - v2)) <= 1e-13

    @pytest.mark.parametrize("n", [9, 24, 64])
    def test_cheb_series_matches_barycentric_interpolant(self, n):
        # the series is the interpolant through the nodes: the barycentric
        # formula (second kind, Chebyshev-Lobatto weights) is the reference
        ax = _cheb_nodes(-2.0, 1.0, n)
        ay = _cheb_nodes(0.5, 3.0, n)
        w = np.ones(n)
        w[1::2] = -1.0
        w[[0, -1]] *= 0.5

        def bary(x, s):
            A = w / (s[:, None] - x[None, :])
            return A / A.sum(axis=1, keepdims=True)

        gen = np.random.default_rng(n)
        s, u = gen.uniform(-2.0, 1.0, 300), gen.uniform(0.5, 3.0, 300)
        v1 = np.cos(2.0 * ax)
        assert np.max(np.abs(ChebProfile([ax], v1)(s[:, None]) - bary(ax, s) @ v1)) <= 1e-13
        v2 = np.cos(np.add.outer(ax, ay))
        want = np.einsum("pi,pj,ij->p", bary(ax, s), bary(ay, u), v2)
        assert np.max(np.abs(ChebProfile([ax, ay], v2)(np.column_stack([s, u])) - want)) <= 1e-13

    def test_cheb_profile_does_not_clamp(self):
        # inside the admitted slack past an endpoint the series is read as
        # it is; a clamp would return 1 where s^3 = 1 + 1.5e-8
        nodes = _cheb_nodes(0.0, 1.0, 9)
        s = nodes[-1] + 0.5e-8
        assert abs(ChebProfile([nodes], nodes**3)(np.array([[s]]))[0] - s**3) <= 1e-12
        prof2 = ChebProfile([nodes, nodes], np.multiply.outer(nodes**3, nodes))
        assert abs(prof2(np.array([[s, s]]))[0] - s**4) <= 1e-12

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

    def test_chop_keeps_every_degree_when_under_resolved(self):
        n = 16
        ax, ay = _cheb_nodes(-1.0, 1.0, n), _cheb_nodes(0.0, 2.0, n)
        prof = ChebProfile([ax], np.sin(20.0 * ax) + np.cos(20.0 * ax))
        assert prof.kept == (n,) and prof.dropped == 0.0 and not prof.resolved
        v2 = np.cos(20.0 * np.add.outer(ax, 1.3 * ay))
        prof2 = ChebProfile([ax, ay], v2)
        assert prof2.kept == (n, n) and not prof2.resolved
        # the function has rank 2 (cos a cos b - sin a sin b): the rank chop
        # keeps both and drops only rounding, singular values of a few eps
        # times sigma_1, each weighted by |u|_1 |v|_1 <= n
        assert 2 <= len(prof2.factors[0]) < n
        full = _dct1(n) @ v2 @ _dct1(n).T
        assert prof2.dropped <= 2 * n * np.finfo(float).eps * np.abs(full).sum()
        # an even function has zero odd coefficients: the last degree is
        # dropped, but one small coefficient is no plateau
        even = ChebProfile([ax], np.cos(20.0 * ax))
        assert even.kept == (n - 1,) and not even.resolved

    def test_chop_changes_the_series_by_at_most_the_dropped_mass(self):
        n = 64
        ax, ay = _cheb_nodes(-2.0, 1.0, n), _cheb_nodes(0.0, 2.0, n)
        gen = np.random.default_rng(3)
        s, u = gen.uniform(-2.0, 1.0, 300), gen.uniform(0.0, 2.0, 300)
        t, r = (2.0 * s + 1.0) / 3.0, u - 1.0  # the points mapped onto [-1, 1]
        v1 = np.sin(ax)
        v2 = np.exp(-np.add.outer(ax, 0.5 * ay))
        v3 = 1.0 / (3.0 + np.add.outer(ax, ay))  # numerical rank 12 of 64
        full1 = _dct1(n) @ v1
        full2, full3 = (_dct1(n) @ v @ _dct1(n).T for v in (v2, v3))
        S2 = np.column_stack([s, u])
        cases = [
            (ChebProfile([ax], v1), s[:, None], chebval(t, full1), full1),
            (ChebProfile([ax, ay], v2), S2, chebval2d(t, r, full2), full2),
            (ChebProfile([ax, ay], v3), S2, chebval2d(t, r, full3), full3),
        ]
        for prof, S, want, full in cases:
            assert prof.resolved and max(prof.kept) < n and prof.dropped > 0.0
            # beyond the dropped mass only the rounding of the two
            # recurrences, a few eps times sum |c|
            rounding = 8.0 * np.finfo(float).eps * np.abs(full).sum()
            assert np.max(np.abs(prof(S) - want)) <= prof.dropped + rounding
        # the rank chop drops mass of its own, beyond the dropped degrees
        prof3 = cases[2][0]
        k0, k1 = prof3.kept
        assert 1 < len(prof3.factors[0]) < min(k0, k1)
        assert prof3.dropped > np.abs(full3).sum() - np.abs(full3[:k0, :k1]).sum()
        # an axis on which the profile is constant keeps degree 0 alone
        flat = ChebProfile([ax, ay], np.multiply.outer(ax**3, np.ones(n)))
        assert flat.kept == (4, 1) and flat.resolved
        assert np.max(np.abs(flat(np.column_stack([s, u])) - s**3)) <= 1e-13


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
            )[-1]
            assert abs(term - prof(zero)[0] / math.factorial(k)) <= 1e-12

    def test_iterated_kernel_chain_covers_the_base_range(self):
        # a strictly positive statistic moves every step's domain away from
        # the base range; the chain still reads at both of its ends
        nodes, w = sigma_nodes(SP, GAUSS, BOX, 12)
        inner_vals = PHI.value_batch(nodes)[:, None]
        assert inner_vals.min() > 0.0
        lo, hi = np.array([0.3]), np.array([1.7])
        chain = iterated_kernel(
            Exp([-0.5]), inner_vals, w, [np.ones(len(w))] * 3, (lo, hi), cheb_n=16
        )
        assert len(chain) == 4
        ends = np.array([lo, hi])
        for prof in chain:
            assert np.all(np.isfinite(prof(ends)))
        assert np.allclose(chain[0](ends), np.exp(-0.5 * ends[:, 0]), rtol=1e-12)

    def test_chunked_two_stat_step_matches_unchunked(self, monkeypatch):
        # quad_n = 40 is 1600 nodes, so a step reads each axis' series at
        # 1600 * 64 shifted points: several blocks of _SERIES_ROWS rows
        from poissonforms import batteries as bat
        from poissonforms import pointprocess

        case = next(c for c in bat.series_battery() if c.name == "exp-two-stats")

        def terms():
            return expect_series(
                SP, GAUSS, bat.series_window(), case.outer, case.inners,
                case.envelope, k_max=3, quad_n=40,
            ).terms

        # a one-statistic profile read at Mecke size, 70,000 statistics
        nodes, w = sigma_nodes(SP, GAUSS, BOX, 40)
        inner = PHI.value_batch(nodes)[:, None]
        prof = iterated_kernel(Exp([-0.5]), inner, w, [inner[:, 0]],
                               (np.zeros(1), np.full(1, 3.0)), 64)[-1]
        s = np.random.default_rng(0).uniform(0.0, 3.0, size=(70_000, 1))

        chunked, chunked_one = terms(), prof(s)
        assert 1600 * 64 > pointprocess._SERIES_ROWS and 70_000 > pointprocess._SERIES_ROWS
        monkeypatch.setattr(pointprocess, "_SERIES_ROWS", 1600 * 64)
        whole, whole_one = terms(), prof(s)
        assert len(sigma_nodes(SP, GAUSS, bat.series_window(), 40)[1]) == 1600
        assert np.max(np.abs(np.subtract(chunked, whole))) <= 1e-12
        assert np.max(np.abs(chunked_one - whole_one)) <= 1e-12 * np.max(np.abs(whole_one))

    def test_battery_values_do_not_depend_on_cheb_n(self, monkeypatch):
        # every profile is chopped at its plateau, so raising cheb_n past the
        # resolved degrees moves the value only by rounding
        from poissonforms import batteries as bat
        from poissonforms import pointprocess

        def run(case, n):
            return expect_series(
                SP, GAUSS, bat.series_window(), case.outer, case.inners,
                case.envelope, cheb_n=n,
            )

        for case in bat.series_battery():
            res = [run(case, n) for n in (24, 32, 64)]
            vals = [r.value for r in res]
            assert np.ptp(vals) <= 1e-13 * abs(vals[-1]), case.name
            assert all(r.certified for r in res)
            # the chain without the chop moves the value by at most chop_bound
            with monkeypatch.context() as m:
                m.setattr(pointprocess, "_CHOP_TOL", 0.0)
                whole = run(case, 24)
            assert whole.chop_bound == 0.0
            assert abs(whole.value - res[0].value) <= res[0].chop_bound, case.name

    def test_two_stat_step_contracts_only_kept_degrees(self, monkeypatch):
        # one and two statistics step through the same per-axis blocks
        from poissonforms import batteries as bat
        from poissonforms import pointprocess

        axis_matrix = ChebProfile._axis_matrix

        def spy(self, axis, s):
            T = axis_matrix(self, axis, s)
            rows.append(T.shape[0])
            return T

        monkeypatch.setattr(pointprocess.ChebProfile, "_axis_matrix", spy)
        for name in ("exp-two-stats", "exp-bump"):
            case = next(c for c in bat.series_battery() if c.name == name)
            rows = []
            res = expect_series(
                SP, GAUSS, bat.series_window(), case.outer, case.inners,
                case.envelope, cheb_n=64, quad_n=16,
            )
            assert res.certified
            assert rows and max(rows) <= 32
            assert len(res.max_degree) == len(case.inners) and max(res.max_degree) < 32

    @pytest.mark.parametrize("case", ["exp-two-stats", "reciprocal"])
    def test_factor_pair_chain_matches_dense_einsum(self, case):
        # the rank-1 traffic outer, and a high-rank one (h_0 keeps rank 15
        # of its (49, 44) degrees), against dense unchopped matrices
        from poissonforms import batteries as bat

        two = next(c for c in bat.series_battery() if c.name == "exp-two-stats")
        outer = two.outer if case == "exp-two-stats" else (
            lambda S: 1.0 / (1.0 + S[:, 0] + S[:, 1]))
        nodes, w = sigma_nodes(SP, GAUSS, bat.series_window(), 16)
        inner_vals = np.stack([f.value_batch(nodes) for f in two.inners], axis=-1)
        zero = np.zeros(2)
        chain = iterated_kernel(outer, inner_vals, w, [np.ones(len(w))] * 8, (zero, zero), 64)
        got = [prof(zero[None])[0] for prof in chain]
        want = dense_chain_at_zero(outer, inner_vals, w, 8, 64)
        assert len(got) == len(want) == 9
        assert np.max(np.abs(np.subtract(got, want)) / np.abs(want)) <= 1e-12

    def test_battery_two_stat_chain_has_rank_one(self):
        # every two-statistic outer the batteries ship is Exp, which is
        # separable: each profile of its chain is one factor pair
        from poissonforms import batteries as bat

        case = next(c for c in bat.series_battery() if c.name == "exp-two-stats")
        nodes, w = sigma_nodes(SP, GAUSS, bat.series_window(), 40)
        inner_vals = np.stack([f.value_batch(nodes) for f in case.inners], axis=-1)
        zero = np.zeros(2)
        chain = iterated_kernel(case.outer, inner_vals, w, [np.ones(len(w))] * 8,
                                (zero, zero), 64)
        assert [len(F) for prof in chain for F in prof.factors] == [1] * 18
        res = expect_series(SP, GAUSS, bat.series_window(), case.outer, case.inners,
                            case.envelope)
        assert res.certified and res.max_degree == (14, 12)

    def test_unresolved_profiles_are_not_certified(self):
        # e^{-20 s} over the reach of 8 points needs far more than 8 nodes:
        # the value is off by ~0.04 while the tail bound is ~2e-5
        from poissonforms import batteries as bat

        bump = bat.series_battery()[0].inners
        kw = dict(envelope=lambda k: 1.0, quad_n=16)
        coarse = expect_series(SP, GAUSS, bat.series_window(), Exp([-20.0]), bump, cheb_n=8, **kw)
        fine = expect_series(SP, GAUSS, bat.series_window(), Exp([-20.0]), bump, cheb_n=64, **kw)
        assert abs(coarse.value - fine.value) > 100.0 * coarse.tail_bound
        assert not coarse.certified
        assert coarse.max_degree == (7,)

    def test_tail_that_cannot_converge_raises(self):
        # sigma-mass 500: the Poisson mode lies beyond k_max + 400, so the
        # tail terms still rise when the 400-term budget runs out (and they
        # are below 1e-18 at first: stopping on size alone would report a
        # tail of ~0 for a series that captures none of the mass)
        uni, big = IntensitySpec("uniform"), Window("box", ((0.0, 25.0), (0.0, 20.0)))
        assert abs(sigma_mass(SP, uni, big) - 500.0) < 1e-6
        with pytest.raises(ValueError, match="did not converge"):
            expect_series(
                SP, uni, big, Exp([-0.5]), (PHI,), envelope=lambda k: 1.0,
                k_max=8, cheb_n=8, quad_n=8,
            )

    def test_three_stats_rejected(self):
        with pytest.raises(ValueError):
            expect_series(SP, GAUSS, BOX, Exp([-1, -1, -1]), (PHI, PHI, PHI2),
                          envelope=lambda k: 1.0)


class TestMecke:
    def test_m1_bare_statistic(self):
        # E sum phi(x) = int phi dsigma = pi for this bump on the full plane
        phi = gauss_bump(2, 1.0, (0.0, 0.0), 1.0)
        (res,) = mecke_check(
            SP, GAUSS, ALL, [MeckeFunctional((phi,), name="bare")],
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
        (res,) = mecke_check(SP, GAUSS, ALL, [fun], RngStream(43), n_samples=20_000)
        assert res.passed
        assert res.stderr > 0.0

    def test_rows_with_a_cylinder_factor_say_whether_their_chain_resolved(self):
        from poissonforms import batteries as bat

        rows = mecke_check(SP, GAUSS, ALL, bat.mecke_battery(), RngStream(42), n_samples=2000)
        assert all(r.passed for r in rows)
        detail = {r.check: r.detail for r in rows}
        assert detail["mecke-m1-phi-pi"] == detail["mecke-m2-pair-plain"] == {"coupled": True}
        for name in ("mecke-m1-phi-exp", "mecke-m2-pair-exp"):
            (degree,) = detail[name].pop("max_degree")  # one statistic
            assert detail[name] == {"coupled": True, "certified": True} and degree < 32
        # e^{-20 s} over the statistic's range needs more than 64 nodes
        phi = gauss_bump(2, 1.0, (0.0, 0.0), 1.0)
        steep = MeckeFunctional((phi,), outer=Exp([-20.0]), inner=phi, name="steep")
        (res,) = mecke_check(SP, GAUSS, ALL, [steep], RngStream(43), n_samples=2000)
        assert res.detail["certified"] is False and res.detail["max_degree"] == [63]

    def test_row_with_an_unresolved_chain_does_not_pass(self):
        # e^{-20 s} over the bump's statistic: the paired difference is within
        # three standard errors, but the profile chain did not resolve
        phi = gauss_bump(2, 1.0, (0.0, 0.0), 1.0)
        steep = MeckeFunctional((phi,), outer=Exp([-20.0]), inner=phi, name="steep")
        (res,) = mecke_check(SP, GAUSS, ALL, [steep], RngStream(43), n_samples=2000)
        assert res.detail["certified"] is False
        assert abs(res.lhs - res.rhs) <= res.tol and not res.passed

    def test_m3_rejected(self):
        phi = gauss_bump(2, 1.0, (0.0, 0.0), 1.0)
        with pytest.raises(ValueError):
            mecke_check(
                SP, GAUSS, ALL, [MeckeFunctional((phi, phi, phi))],
                RngStream(1), n_samples=10,
            )


class TestLaplace:
    def test_gaussian_bump(self):
        (res,) = laplace_check(
            SP, GAUSS, ALL, [("bump", gauss_bump(2, 0.5, (0.0, 0.0), -0.6))],
            RngStream(7), n_samples=30_000,
        )
        assert res.passed
        assert res.check.startswith("laplace")

    def test_deterministic(self):
        (a,) = laplace_check(SP, GAUSS, BOX, [("phi", PHI)], RngStream(5), n_samples=2000)
        (b,) = laplace_check(SP, GAUSS, BOX, [("phi", PHI)], RngStream(5), n_samples=2000)
        assert a.lhs == b.lhs and a.rhs == b.rhs and a.stderr == b.stderr
