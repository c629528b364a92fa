import itertools
import json
import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import chdtrc

from poissonforms import batteries as bat
from poissonforms import pointprocess, stochastic
from poissonforms.exterior import (
    Multivector, apply_slot_linear, block_potential, leibniz_power, t_basis,
)
from poissonforms.forms import (
    BatchEval, CylinderForm, CylinderFunction, Exp, FormTerm, SymmetricFormField,
)
from poissonforms.fields import monomial
from poissonforms.geometry import Euclidean, IntensitySpec, Sphere, Window
from poissonforms.operators import factorization_check
from poissonforms.pointprocess import Configuration, RngStream, SampleBatch
from poissonforms.stochastic import (
    BlockPotential,
    ParticlePath,
    SdeConfig,
    _chi2_sf,
    curvature_potential,
    domination_check,
    eigen_decay_check,
    frame_bound_check,
    generator_check,
    generator_check_function,
    parallel_translate,
    poisson_invariance_check,
    semigroup_T0,
    semigroup_Tn,
    semigroup_property_check,
    simulate_particles,
    sphere_uniform_check,
    zero_potential,
)

SP = Euclidean(2)
GAUSS = IntensitySpec("gaussian", 1.0)


def value_blocks(W, gamma: Configuration) -> dict:
    """The form's value at gamma on the one-group layout of the estimates."""
    start = SampleBatch(gamma.points, np.array([0, gamma.n]))
    return BatchEval(start, 2).form(W).blocks


def distance(est, target: dict) -> tuple[float, float]:
    """Euclidean distance of the estimated mean to the target blocks over
    the union of their components, and its propagated standard error."""
    mean = est.mean.blocks
    diff2 = sum(
        float(np.sum((mean.get(k, 0.0) - target.get(k, 0.0)) ** 2))
        for k in mean.keys() | target.keys()
    )
    var = sum(float(np.sum(s * s)) for s in est.stderr.blocks.values())
    return math.sqrt(diff2), math.sqrt(var)


def ou_discrete_moments(x0: float, t: float, dt_target: float) -> tuple[float, float]:
    """Exact per-coordinate moments of the Euler chain for dX = -X dt + sqrt(2) dB."""
    K = max(1, int(round(t / dt_target)))
    dt = t / K
    a = 1.0 - dt
    mean = x0 * a**K
    var = 2.0 * dt * sum(a ** (2 * j) for j in range(K))
    return mean, var


class TestSdeConfig:
    def test_step_hits_horizon_exactly(self):
        cfg = SdeConfig(t=0.25, dt=0.009)
        assert cfg.n_steps * cfg.step == pytest.approx(0.25, abs=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SdeConfig(t=-1.0)
        with pytest.raises(ValueError):
            SdeConfig(t=0.1, dt=0.2)

    def test_with_horizon_keeps_granularity(self):
        cfg = SdeConfig(t=0.5, dt=0.01)
        assert SdeConfig(t=0.5, dt=0.01).with_horizon(0.25).dt == 0.01


class TestSimulation:
    def test_ou_marginal_moments(self):
        # all particles from one start: marginal is the exact Euler chain,
        # Gaussian with computable mean and variance
        x0 = np.array([1.0, 0.5])
        gamma = Configuration(np.tile(x0, (6000, 1)))
        cfg = SdeConfig(t=0.5, dt=0.01)
        X = simulate_particles(SP, GAUSS, gamma, cfg, RngStream(21)).final()
        m_chain, v_chain = ou_discrete_moments(1.0, 0.5, 0.01)
        for c, x0c in enumerate(x0):
            mean_c = x0c * m_chain  # chain mean scales linearly in x0
            se = math.sqrt(v_chain / X.shape[0])
            assert abs(X[:, c].mean() - mean_c) < 4.0 * se
            v = X[:, c].var(ddof=1)
            assert abs(v / v_chain - 1.0) < 0.1
        # continuous-time targets are close at this step size
        assert abs(m_chain - math.exp(-0.5)) < 3e-3
        assert abs(v_chain - (1.0 - math.exp(-1.0))) < 8e-3

    def test_single_path_deterministic(self):
        gamma = Configuration(np.array([[0.3, -0.2]]))
        p1, p2 = (
            simulate_particles(SP, GAUSS, gamma, SdeConfig(0.2), RngStream(3))
            for _ in range(2)
        )
        assert np.array_equal(p1.paths, p2.paths)
        assert p1.ts[0] == 0.0 and p1.ts[-1] == pytest.approx(0.2)

    def test_sphere_paths_stay_on_sphere(self):
        sp = Sphere()
        gamma = Configuration(
            np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        )
        cfg = SdeConfig(t=0.3, dt=5e-3)
        path = simulate_particles(sp, IntensitySpec("uniform"), gamma, cfg, RngStream(4))
        norms = np.linalg.norm(path.paths, axis=-1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_empty_configuration(self):
        path = simulate_particles(
            SP, GAUSS, Configuration(np.zeros((0, 2))), SdeConfig(0.1), RngStream(5)
        )
        assert path.n_particles == 0


class TestScalarSemigroup:
    def test_t0_gaussian_chain_oracle(self):
        # F = e^{w <x_1>} on a single point: the endpoint is drawn from the
        # exact OU law N(x0 e^{-t}, 1 - e^{-2t}), so E e^{w X_1(t)} =
        # exp(w m + w^2 v / 2) exactly
        w, x0, t = -0.7, 0.9, 0.4
        F = CylinderFunction(Exp([w]), (monomial(2, (1, 0)),))
        gamma = Configuration(np.array([[x0, 0.2]]))
        cfg = SdeConfig(t=t, dt=0.01)
        est = semigroup_T0(SP, GAUSS, F, gamma, t, cfg, 40_000, RngStream(11))
        m, v = x0 * math.exp(-t), -math.expm1(-2.0 * t)
        target = math.exp(w * m + w * w * v / 2.0)
        assert abs(est.mean - target) < 4.0 * est.stderr + 1e-12

    def test_t0_exact_cases(self):
        F = CylinderFunction(Exp([-0.5]), (monomial(2, (1, 0)),))
        gamma = Configuration(np.array([[0.4, -0.1]]))
        cfg = SdeConfig(t=0.2, dt=0.01)
        at0 = semigroup_T0(SP, GAUSS, F, gamma, 0.0, cfg, 10, RngStream(1))
        assert at0.mean == pytest.approx(F.value(gamma.points)) and at0.stderr == 0.0
        empty = semigroup_T0(
            SP, GAUSS, F, Configuration(np.zeros((0, 2))), 0.2, cfg, 10, RngStream(1)
        )
        assert empty.mean == pytest.approx(1.0)

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("n_points", [1, 2, 3])
    def test_t0_is_degree_zero_form_semigroup(self, n_points, antithetic):
        # functions are 0-forms: on the same stream the scalar estimator and
        # the form semigroup of F times the constant 0-form agree exactly
        F = bat.generator_functions()[0]
        W = CylinderForm([FormTerm(SymmetricFormField(0, [(1.0, ())]), F=F)])
        gamma = Configuration(
            np.array([[0.7, -0.4], [0.3, -0.2], [-0.5, 0.4]])[:n_points]
        )
        cfg = SdeConfig(t=0.1, dt=0.02)
        scalar = semigroup_T0(
            SP, GAUSS, F, gamma, 0.1, cfg, 301, RngStream(8), antithetic
        )
        form = semigroup_Tn(
            SP, GAUSS, W, gamma, 0.1, zero_potential(0), cfg, 301, RngStream(8),
            antithetic,
        )
        assert list(form.mean.blocks) == [0]
        assert form.mean.blocks[0].shape == (1, 1)
        assert scalar.mean == form.mean.blocks[0][0, 0]
        assert scalar.stderr == form.stderr.blocks[0][0, 0]

    def test_semigroup_property(self):
        F = bat.generator_functions()[0]
        gamma = Configuration(np.array([[0.3, -0.2], [-0.5, 0.4]]))
        res = semigroup_property_check(
            SP, GAUSS, F, gamma, 0.15, 0.1, SdeConfig(0.25, 0.01),
            n_outer=200, n_inner=200, rng=RngStream(33),
        )
        assert res.passed


class TestFrameTransport:
    def test_constant_scalar_potential_is_exact(self):
        gamma = Configuration(np.array([[0.5, -0.3]]))
        cfg = SdeConfig(t=0.3, dt=0.01)
        path = simulate_particles(SP, GAUSS, gamma, cfg, RngStream(8))
        J = BlockPotential(1, scalar=-0.4)
        fm = parallel_translate(SP, path, J, 1)
        assert abs(fm.norm() - math.exp(-0.12)) < 1e-13
        assert fm.c_sup == pytest.approx(-0.4)
        assert fm.norm() <= math.exp(0.3 * fm.c_sup) * (1.0 + 5.0 * cfg.step)

    def test_empty_fibre_guard(self):
        gamma = Configuration(np.array([[0.5, -0.3], [0.1, 0.2]]))
        path = simulate_particles(SP, GAUSS, gamma, SdeConfig(0.1), RngStream(9))
        fm = parallel_translate(SP, path, zero_potential(1), 1, subset=[0, 1])
        assert fm.P.shape == (0, 0)
        assert fm.norm() == 0.0

    def test_generic_block_matches_scalar_on_gaussian(self):
        # the gaussian curvature potential is scalar; forcing the generic ODE
        # path must approximate the same transport to O(dt)
        gamma = Configuration(np.array([[0.5, -0.3]]))
        cfg = SdeConfig(t=0.2, dt=2e-3)
        path = simulate_particles(SP, GAUSS, gamma, cfg, RngStream(10))
        J_fast = curvature_potential(SP, GAUSS, 1)
        J_slow = curvature_potential(SP, GAUSS, 1, allow_scalar=False)
        assert J_fast.scalar == -1.0 and J_slow.scalar is None
        f1 = parallel_translate(SP, path, J_fast, 1)
        f2 = parallel_translate(SP, path, J_slow, 1)
        assert np.allclose(f1.P, f2.P, atol=1e-12)

    def test_frame_bound_check(self):
        gamma = Configuration(np.array([[0.4, 0.1], [-0.2, 0.3]]))
        res = frame_bound_check(
            SP, GAUSS, gamma, curvature_potential(SP, GAUSS, 1), 1,
            SdeConfig(0.25, 0.01), n_paths=10, rng=RngStream(13),
        )
        assert res.passed


def _skewed_potential(n):
    """J on n-covectors whose degree-q slot at x is the derivation extension
    to Lambda^q of the Hessian of log rho = -|x|^2 / 2 - 0.3 x_0^2 x_1, the
    flat de Rham potential of that density: it changes from point to point."""
    def block_fn(X, q):
        X = np.asarray(X, dtype=float)
        H = np.empty(X.shape[:-1] + (2, 2))
        H[..., 0, 0] = -1.0 - 0.6 * X[..., 1]
        H[..., 0, 1] = H[..., 1, 0] = -0.6 * X[..., 0]
        H[..., 1, 1] = -1.0
        return leibniz_power(H, q)
    return BlockPotential(n, block_fn=block_fn)


def _reference_transport(space, basis, q, p):
    """The per-slot transport on the fibre basis, key by key, with each
    slot's frame-to-frame matrix taken one frame vector at a time."""
    d = space.dim
    maps = []
    for qs, ps in zip(q, p):
        fq, fp = space.frame(qs), space.frame(ps)
        maps.append(np.array([
            [fp[b] @ space.transport(qs, ps, fq[a]) for a in range(d)] for b in range(d)
        ]))
    index = {key: r for r, key in enumerate(basis)}
    T = np.zeros((len(basis), len(basis)))
    for col, key in enumerate(basis):
        mv = Multivector({key: 1.0})
        for s, M in enumerate(maps):
            mv = apply_slot_linear(mv, s, M)
        for image, c in mv.coef.items():
            T[index[image], col] += c
    return T


def _reference_frame(space, J, n, path, subset):
    """The whole-fibre frame solve: J on the fibre at every step (its slot
    blocks at the subset points, assembled key by key, or scalar I), c_sup
    from its eigenvalues, the midpoint exponential on flat space and the
    split step around the transport on the sphere."""
    pts = path.paths[list(subset)]
    K1 = pts.shape[1]
    d = space.dim
    basis = t_basis(n, len(subset), d)
    k = len(basis)
    if k == 0:
        return np.zeros((0, 0)), J.scalar or 0.0
    B = [
        J.scalar * np.eye(k) if J.scalar is not None
        else block_potential(lambda q, x: J.slot(x[None], q, d)[0],
                             list(pts[:, j]), n, len(subset), d)
        for j in range(K1)
    ]
    c_sup = max(float(np.linalg.eigvalsh(b)[-1]) for b in B)
    dt = path.t / (K1 - 1)
    M = np.eye(k)
    for j in range(K1 - 1):
        if isinstance(space, Sphere):
            T = _reference_transport(space, basis, pts[:, j], pts[:, j + 1])
            M = expm(dt / 2 * B[j + 1]) @ T @ expm(dt / 2 * B[j]) @ M
        else:
            M = expm(dt / 2 * (B[j] + B[j + 1])) @ M
    return M, c_sup


class TestKroneckerFrames:
    """Per-point frames assembled by Kronecker products against the solve
    over the whole fibre, on three points whose frames differ."""

    @pytest.mark.parametrize("scalar", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("setting", ["flat", "sphere"])
    def test_matches_fibre_solve(self, setting, n, scalar):
        if setting == "flat":
            sp, inten = Euclidean(2), GAUSS
            start = np.array([[0.5, -0.3], [-0.4, 0.6], [0.2, 0.9]])
        else:
            sp, inten = Sphere(), IntensitySpec("uniform")
            start = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8], [0.0, 0.0, 1.0]])
        path = simulate_particles(
            sp, inten, Configuration(start), SdeConfig(0.2, 0.02), RngStream(12)
        )
        # a scalar J is c I on the whole fibre: each degree-q slot carries
        # c q / n of it
        J = (
            BlockPotential(n, scalar=-0.7) if scalar
            else _skewed_potential(n) if setting == "flat"
            else curvature_potential(sp, inten, n, allow_scalar=False)
        )
        for m in (1, 2, 3):
            for subset in itertools.combinations(range(3), m):
                fm = parallel_translate(sp, path, J, n, list(subset))
                P, c_sup = _reference_frame(sp, J, n, path, subset)
                assert fm.P.shape == P.shape
                assert np.max(np.abs(fm.P - P), initial=0.0) < 1e-13, subset
                assert abs(fm.c_sup - c_sup) < 1e-13, subset


class TestFormSemigroup:
    def setup_method(self):
        self.W = bat.ou_eigenform()
        self.gamma = Configuration(np.array([[0.7, -0.4]]))
        self.cfg = SdeConfig(t=0.25, dt=0.01)

    def test_derham_decay_rate_two(self):
        J = curvature_potential(SP, GAUSS, 1)  # -R twist
        res = eigen_decay_check(
            SP, GAUSS, self.W, self.gamma, 0.25, 2.0, J, self.cfg, 3000, RngStream(42)
        )
        assert res.passed

    def test_bochner_decay_rate_one(self):
        res = eigen_decay_check(
            SP, GAUSS, self.W, self.gamma, 0.25, 1.0, zero_potential(1),
            self.cfg, 3000, RngStream(43),
        )
        assert res.passed

    def test_estimates_deterministic(self):
        J = curvature_potential(SP, GAUSS, 1)
        a = semigroup_Tn(SP, GAUSS, self.W, self.gamma, 0.2, J, self.cfg, 500, RngStream(7))
        b = semigroup_Tn(SP, GAUSS, self.W, self.gamma, 0.2, J, self.cfg, 500, RngStream(7))
        for x, y in ((a.mean, b.mean), (a.stderr, b.stderr)):
            assert set(x.blocks) == set(y.blocks) and x.blocks
            for k in x.blocks:
                assert np.array_equal(x.blocks[k], y.blocks[k])

    def test_mean_form_against_decayed_target(self):
        J = curvature_potential(SP, GAUSS, 1)
        est = semigroup_Tn(
            SP, GAUSS, self.W, self.gamma, 0.25, J, self.cfg, 2000, RngStream(15)
        )
        decay = math.exp(-2.0 * 0.25)
        target = {k: decay * A for k, A in value_blocks(self.W, self.gamma).items()}
        dist, se = distance(est, target)
        assert dist < 4.0 * se + 5e-3  # O(dt) discretization allowance

    def test_domination(self):
        J = curvature_potential(SP, GAUSS, 1)
        res = domination_check(
            SP, GAUSS, self.W, self.gamma, 0.3, J, self.cfg, 400, RngStream(44)
        )
        assert res.passed

    def test_scalar_slot_pullback(self):
        # the scalar slot files its keys on one point, outside the fibre of
        # the m = 2 subset: the generic frame ODE must pull them back too,
        # agreeing with the exact scalar-J path on the same paths
        W = bat.flat_form_battery()[3]
        assert W.name == "deg2-scalar-slot"
        gamma = Configuration(bat.flat_configs()[1])
        cfg = SdeConfig(t=0.1, dt=0.01)
        J = {
            scalar: curvature_potential(SP, GAUSS, 2, allow_scalar=scalar)
            for scalar in (True, False)
        }
        assert J[True].scalar is not None and J[False].scalar is None
        est = {
            s: semigroup_Tn(SP, GAUSS, W, gamma, 0.1, j, cfg, 400, RngStream(16))
            for s, j in J.items()
        }
        target = value_blocks(W, gamma)
        (d_fast, se), (d_slow, _) = (distance(est[s], target) for s in (True, False))
        assert abs(d_slow - d_fast) < 4.0 * se + 5e-3  # O(dt) discretization allowance
        fast, slow = est[True].mean.blocks, est[False].mean.blocks
        assert set(fast) == set(slow)
        dist = math.sqrt(sum(np.sum((fast[k] - slow[k]) ** 2) for k in fast))
        assert dist < 4.0 * se + 5e-3
        dom = {
            s: domination_check(SP, GAUSS, W, gamma, 0.1, j, cfg, 400, RngStream(17))
            for s, j in J.items()
        }
        assert dom[True].lhs == 0.0
        assert abs(dom[False].lhs) < 4.0 * dom[False].stderr + 5e-3

    @pytest.mark.parametrize("allow_scalar", [True, False], ids=["exact", "frames"])
    def test_decay_check_reads_the_semigroup(self, allow_scalar):
        # the eigen-decay row is the mean of the estimator's own per-replica
        # contractions on the same stream
        J = curvature_potential(SP, GAUSS, 1, allow_scalar=allow_scalar)
        res = eigen_decay_check(
            SP, GAUSS, self.W, self.gamma, 0.25, 2.0, J, self.cfg, 300, RngStream(18)
        )
        est = semigroup_Tn(SP, GAUSS, self.W, self.gamma, 0.25, J, self.cfg, 300, RngStream(18))
        base = BatchEval(SampleBatch(self.gamma.points, np.array([0, 1])), 2).form(self.W)
        assert res.lhs == est.contract(base).mean()
        assert res.detail["n"] == est.n_samples == 300

    def test_antithetic_pairs_are_one_sample(self):
        cfg = SdeConfig(t=0.1, dt=0.02)
        J = zero_potential(1)
        for anti, R in ((False, 300), (True, 150)):
            est = semigroup_Tn(SP, GAUSS, self.W, self.gamma, 0.1, J, cfg, 300, RngStream(19), anti)
            assert est.n_samples == R
            assert {k: A.shape for k, A in est.samples.items()} == {1: (R, 1, 2)}
            assert len(est.contract(est.mean)) == R

    @pytest.mark.parametrize("allow_scalar", [True, False], ids=["exact", "frames"])
    def test_contract_mean_is_the_inner_product_of_the_mean(self, allow_scalar):
        # the mixed form files keys on one-point rows and on the pair
        W = bat.flat_form_battery()[2]
        assert W.name == "deg2-mixed"
        gamma = Configuration(bat.flat_configs()[1])
        cfg = SdeConfig(t=0.1, dt=0.02)
        J = curvature_potential(SP, GAUSS, 2, allow_scalar=allow_scalar)
        est = semigroup_Tn(SP, GAUSS, W, gamma, 0.1, J, cfg, 200, RngStream(20))
        target = BatchEval(SampleBatch(gamma.points, np.array([0, gamma.n])), 2).form(W)
        assert {k: A.shape for k, A in est.samples.items()} == {1: (200, 2, 1), 2: (200, 1, 4)}
        z, ref = est.contract(target).mean(), est.mean.inner(target)[0]
        assert abs(z - ref) <= 1e-14 * max(abs(ref), 1.0)

    def test_exact_branch_holds_the_value(self):
        est = semigroup_Tn(
            SP, GAUSS, self.W, self.gamma, 0.0, zero_potential(1), self.cfg, 50, RngStream(21)
        )
        value = value_blocks(self.W, self.gamma)
        assert est.n_samples == 50 and est.stderr.blocks == {}
        assert np.array_equal(est.mean.blocks[1], value[1])
        assert np.array_equal(est.contract(est.mean), np.full(50, np.sum(value[1] ** 2)))


class TestSphereFormSemigroup:
    @pytest.mark.parametrize("kind", ["bochner", "deRham"])
    def test_killing_decay(self, kind):
        # the Killing 1-form is an eigenform with eigenvalue 1 (Bochner) and
        # 2 (de Rham); the frames run through the transport branch
        sp, inten = Sphere(), IntensitySpec("uniform")
        W = bat.sphere_form_battery()[0]
        assert W.name == "killing"
        J, rate, seed = {
            "bochner": (zero_potential(1), 1.0, 70),
            "deRham": (curvature_potential(sp, inten, 1), 2.0, 71),
        }[kind]
        gamma = Configuration(np.array([[1.0, 0.0, 0.0]]))
        res = eigen_decay_check(
            sp, inten, W, gamma, 0.25, rate, J, SdeConfig(0.25, 0.01), 400,
            RngStream(seed),
        )
        assert res.passed

    @pytest.mark.parametrize("family", ["gaussian", "uniform"])
    def test_curvature_potential_scalar_on_1_covectors(self, family):
        # both families are constant on S^2, so grad beta = 0 and the de
        # Rham J on 1-covectors is -Ric = -I; on 2-covectors it stays generic
        sp, inten = Sphere(), IntensitySpec(family)
        J = curvature_potential(sp, inten, 1)
        assert J.scalar == -1.0
        assert curvature_potential(sp, inten, 2).scalar is None
        gamma = Configuration(
            np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8], [0.0, 0.0, 1.0]])
        )
        cfg = SdeConfig(0.2, 0.02)
        paths = np.stack([
            simulate_particles(sp, inten, gamma, cfg, RngStream(seed)).paths
            for seed in range(4)
        ])
        subsets = np.arange(3)[:, None]  # the nonempty 1-covector fibres
        generic = curvature_potential(sp, inten, 1, allow_scalar=False)
        fast = stochastic._frames(sp, J, 1, paths, subsets, cfg.t)
        slow = stochastic._frames(sp, generic, 1, paths, subsets, cfg.t)
        assert fast[0].shape == (4, 3, 2, 2)
        assert np.array_equal(fast[0], slow[0]) and np.array_equal(fast[1], slow[1])


def _octant_loop(n):
    """The loop e1 -> e2 -> e3 -> e1 on S^2, n steps along each great-circle
    arc, as (3 n + 1, 3) points."""
    e = np.eye(3)
    th = np.linspace(0.0, math.pi / 2, n + 1)[:-1, None]
    arcs = [np.cos(th) * e[i] + np.sin(th) * e[(i + 1) % 3] for i in range(3)]
    return np.concatenate(arcs + [e[:1]])


class TestHolonomy:
    """Transport around the geodesic octant triangle rotates the fibre by
    its area pi/2 (Gauss-Bonnet). Every step runs along an arc, where the
    step transport is exact, so the result is exact at every step count."""

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_octant_loop_rotates_by_its_area(self, n):
        loop = _octant_loop(n)
        path = ParticlePath(Sphere(), np.linspace(0.0, 0.3, len(loop)), loop[None])
        P = parallel_translate(Sphere(), path, zero_potential(1), 1).P
        assert np.max(np.abs(P - [[0.0, -1.0], [1.0, 0.0]])) < 1e-12

    def test_semigroup_pulls_back_through_the_transpose(self, monkeypatch):
        # every replica runs the loop, so M^T W(e1) is exact; the Killing
        # form about e3 reads W = (0, -1) in the frame at e1, and W pushed
        # forward by M instead of pulled back would read (1, 0)
        loop = _octant_loop(4)
        monkeypatch.setattr(stochastic, "_evolve", lambda space, intensity, X, *a, **k:
                            np.broadcast_to(loop, (len(X),) + loop.shape).copy())
        W = bat.sphere_form_battery()[0]
        gamma = Configuration(np.array([[1.0, 0.0, 0.0]]))
        est = semigroup_Tn(Sphere(), IntensitySpec("uniform"), W, gamma, 0.3,
                           zero_potential(1), SdeConfig(0.3, 0.025), 4, RngStream(3))
        assert np.array_equal(value_blocks(W, gamma)[1], [[0.0, -1.0]])
        assert np.max(np.abs(est.mean.blocks[1] - [[-1.0, 0.0]])) < 1e-12


class TestGenerator:
    def test_form_generator_derham(self):
        rep = generator_check(
            SP, GAUSS, bat.ou_eigenform(),
            [Configuration(c) for c in bat.flat_configs()][:1],
            "deRham", n_samples=4000, rng=RngStream(50),
        )
        assert rep.passed

    def test_form_generator_rejects_sphere(self):
        # no sphere generator row is calibrated yet, so the check refuses it
        gamma = Configuration(np.array([[1.0, 0.0, 0.0]]))
        with pytest.raises(ValueError, match="flat"):
            generator_check(
                Sphere(), IntensitySpec("uniform"), bat.sphere_form_battery()[0],
                [gamma], "bochner", n_samples=10, rng=RngStream(1),
            )

    def test_function_generator(self):
        F = bat.generator_functions()[0]
        rep = generator_check_function(
            SP, GAUSS, F,
            [Configuration(c) for c in bat.flat_configs()][:1],
            n_samples=4000, rng=RngStream(51),
        )
        assert rep.passed

    @pytest.mark.parametrize("ts", [(0.01,), (0.01, 0.01), (0.01, 0.01, 0.02)])
    def test_richardson_needs_two_distinct_horizons(self, ts):
        gammas = [Configuration(bat.flat_configs()[0])]
        with pytest.raises(ValueError, match="distinct"):
            generator_check_function(SP, GAUSS, bat.generator_functions()[0], gammas,
                                     ts=ts, n_samples=10, rng=RngStream(1))
        with pytest.raises(ValueError, match="distinct"):
            generator_check(SP, GAUSS, bat.ou_eigenform(), gammas, "bochner",
                            ts=ts, n_samples=10, rng=RngStream(1))


class TestLawPreservation:
    def test_poisson_invariance_small(self):
        res = poisson_invariance_check(
            SP, GAUSS, 0.3, SdeConfig(0.3, 0.01), 600, RngStream(60)
        )
        assert res.passed

    def test_poisson_invariance_rejects_uniform(self):
        with pytest.raises(ValueError):
            poisson_invariance_check(
                SP, IntensitySpec("uniform"), 0.3, SdeConfig(0.3, 0.01), 10, RngStream(1)
            )

    def test_poisson_invariance_rejects_other_dimensions(self):
        # the expected band masses are those of the gaussian on the plane
        with pytest.raises(ValueError, match="plane"):
            poisson_invariance_check(
                Euclidean(3), GAUSS, 0.3, SdeConfig(0.3, 0.01), 10, RngStream(1)
            )

    def test_sphere_uniform_small(self):
        res = sphere_uniform_check(0.4, SdeConfig(0.4, 0.01), 4000, RngStream(61))
        assert res.passed

    def test_sphere_uniform_tail_is_the_chi2_tail(self):
        res = sphere_uniform_check(0.4, SdeConfig(0.4, 0.01), 4000, RngStream(61))
        want = chdtrc(res.detail["bands"] - 1, res.detail["chi2"])
        assert res.lhs == pytest.approx(want, rel=1e-12)


class TestChi2Tail:
    # scipy's chdtrc is the reference; the package computes the tail itself
    @pytest.mark.parametrize("k", range(1, 13))
    def test_matches_chdtrc(self, k):
        xs = np.concatenate([np.linspace(0.0, 200.0, 801), [1e-12, 1e-6, 1e-3]])
        got = np.array([_chi2_sf(k, x) for x in xs])
        np.testing.assert_allclose(got, chdtrc(k, xs), rtol=1e-12, atol=0.0)
        assert got[0] == 1.0  # x = 0

    @pytest.mark.parametrize("k", [0, -1, 2.5])
    def test_rejects_bad_degrees_of_freedom(self, k):
        with pytest.raises(ValueError, match="degrees of freedom"):
            _chi2_sf(k, 1.0)


_G2 = Configuration(np.array([[0.4, 0.1], [-0.2, 0.3]]))
_RUN = SdeConfig(0.1, 0.02)
_JG = curvature_potential(SP, GAUSS, 1, allow_scalar=False)
_OU = bat.ou_eigenform()
_G = bat.generator_functions()[0]

# each check at n replicas (paths, outer and inner samples, configurations,
# trials)
REPLICA_CHECKS = {
    "semigroup_T0": lambda n, rng: semigroup_T0(SP, GAUSS, _G, _G2, 0.1, _RUN, n, rng),
    "eigen_decay_check": lambda n, rng: eigen_decay_check(
        SP, GAUSS, _OU, _G2, 0.1, 1.0, zero_potential(1), _RUN, n, rng),
    "domination_check": lambda n, rng: domination_check(
        SP, GAUSS, _OU, _G2, 0.1, _JG, _RUN, n, rng),
    "frame_bound_check": lambda n, rng: frame_bound_check(
        SP, GAUSS, _G2, _JG, 1, _RUN, n, rng),
    "semigroup_property_check": lambda n, rng: semigroup_property_check(
        SP, GAUSS, _G, _G2, 0.04, 0.06, _RUN, n, n, rng),
    "poisson_invariance_check": lambda n, rng: poisson_invariance_check(
        SP, GAUSS, 0.1, _RUN, n, rng),
    "factorization_check": lambda n, rng: factorization_check(
        "bochner", SP, GAUSS, Window("all"), bat.flat_form_battery()[1], rng, n),
}


@pytest.mark.parametrize("n, antithetic", [(0, False), (-1, False), (1, True), (0, True)])
def test_semigroups_need_a_replica(n, antithetic):
    # no replica or antithetic pair: no estimate, where an empty block used
    # to end in numpy's reshape error or in NaN means
    with pytest.raises(ValueError, match="make no estimate"):
        semigroup_T0(SP, GAUSS, _G, _G2, 0.1, _RUN, n, RngStream(71), antithetic)
    with pytest.raises(ValueError, match="make no estimate"):
        semigroup_Tn(SP, GAUSS, _OU, _G2, 0.1, zero_potential(1), _RUN, n, RngStream(71),
                     antithetic)


@pytest.mark.parametrize("check", sorted(REPLICA_CHECKS))
def test_streams_do_not_grow_with_replicas(monkeypatch, check):
    # a check draws each Monte Carlo block from one stream, so the streams
    # it builds do not depend on how many replicas the block holds
    built = []
    init = RngStream.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RngStream, "__init__", counting)
    counts = []
    for n in (10, 40):
        before = len(built)
        REPLICA_CHECKS[check](n, RngStream(70))
        counts.append(len(built) - before)
    assert counts[0] == counts[1], counts


_G1 = Configuration(np.array([[0.3, -0.2]]))

# the checks that move replicas in chunks cut by the view rule, each small
# enough that the default run is one chunk
CHUNKED_CHECKS = {
    "semigroup_T0": lambda rng: semigroup_T0(SP, GAUSS, _G, _G2, 0.1, _RUN, 60, rng),
    # 31 antithetic pairs of one point: chunks of 7 rows hold 3 pairs, and
    # the last chunk 1
    "semigroup_T0-antithetic": lambda rng: semigroup_T0(
        SP, GAUSS, _G, _G1, 0.1, _RUN, 62, rng, antithetic=True),
    "eigen_decay_check-exact": lambda rng: eigen_decay_check(
        SP, GAUSS, _OU, _G2, 0.1, 2.0, curvature_potential(SP, GAUSS, 1), _RUN, 40, rng),
    "eigen_decay_check-frames": lambda rng: eigen_decay_check(
        SP, GAUSS, _OU, _G2, 0.1, 2.0, _JG, _RUN, 40, rng),
    "generator_check": lambda rng: generator_check(
        SP, GAUSS, _OU, [_G1, _G2], "deRham", n_samples=30, rng=rng),
    "domination_check": lambda rng: domination_check(SP, GAUSS, _OU, _G2, 0.1, _JG, _RUN, 40, rng),
    "frame_bound_check": lambda rng: frame_bound_check(SP, GAUSS, _G2, _JG, 1, _RUN, 30, rng),
    "semigroup_property_check": lambda rng: semigroup_property_check(
        SP, GAUSS, _G, _G2, 0.04, 0.06, _RUN, 8, 9, rng),
    "poisson_invariance_check": lambda rng: poisson_invariance_check(
        SP, GAUSS, 0.1, _RUN, 100, rng),
    "sphere_uniform_check": lambda rng: sphere_uniform_check(0.1, _RUN, 100, rng),
}


def _text(out) -> str:
    rows = out.checks if hasattr(out, "checks") else [out]
    return json.dumps([r.as_row() if hasattr(r, "as_row") else vars(r) for r in rows])


@pytest.fixture(scope="module")
def default_texts():
    return {check: _text(run(RngStream(71))) for check, run in CHUNKED_CHECKS.items()}


@pytest.mark.parametrize("chunk", [1, 7, 10**9])
@pytest.mark.parametrize("check", sorted(CHUNKED_CHECKS))
def test_rows_do_not_depend_on_the_chunk_size(monkeypatch, default_texts, check, chunk):
    monkeypatch.setattr(pointprocess, "_CHUNK_POINTS", chunk)
    assert _text(CHUNKED_CHECKS[check](RngStream(71))) == default_texts[check]


# each check's one stream of noise, and the block one draw of it would take:
# (replicas, points, dim) where flat gaussian endpoints are drawn from their
# exact law, (replicas, points, steps, dim) where paths are kept
NOISE_BLOCKS = {
    "semigroup_T0-antithetic": (CHUNKED_CHECKS["semigroup_T0-antithetic"], (31, 1, 2)),
    "domination_check": (CHUNKED_CHECKS["domination_check"], (40, 2, 5, 2)),
    "frame_bound_check": (CHUNKED_CHECKS["frame_bound_check"], (30, 2, 5, 2)),
}


@pytest.mark.parametrize("chunk", [1, 7, 10**9])
@pytest.mark.parametrize("check", sorted(NOISE_BLOCKS))
def test_chunked_noise_uses_the_stream_as_one_draw(monkeypatch, check, chunk):
    monkeypatch.setattr(pointprocess, "_CHUNK_POINTS", chunk)
    run, shape = NOISE_BLOCKS[check]
    rng, ref = RngStream(72), RngStream(72)
    run(rng)
    ref.gen.normal(size=shape)
    assert rng.gen.bit_generator.state == ref.gen.bit_generator.state


def test_exact_endpoints_follow_the_ou_law():
    # flat gaussian endpoints, no path kept: X_t ~ N(e^{-t/s^2} x,
    # s^2 (1 - e^{-2t/s^2}) I) per point, whatever dt is
    s, t, n = 0.7, 0.3, 20_000
    inten = IntensitySpec("gaussian", s)
    x = np.array([[0.9, -0.4], [-0.3, 1.2]])
    ends = stochastic._replica_views(SP, inten, x, SdeConfig(t, 0.1), n, RngStream(73),
                                     lambda ends: ends)
    assert ends.shape == (n, 2, 2)
    mean, var = math.exp(-t / s**2) * x, -s**2 * math.expm1(-2.0 * t / s**2)
    se_mean, se_var = math.sqrt(var / n), var * math.sqrt(2.0 / (n - 1))
    assert np.all(np.abs(ends.mean(axis=0) - mean) < 4.0 * se_mean)
    assert np.all(np.abs(ends.var(axis=0, ddof=1) - var) < 4.0 * se_var)


def test_exact_rows_do_not_depend_on_dt():
    W, J = _OU, curvature_potential(SP, GAUSS, 1)
    rows = [_text(eigen_decay_check(SP, GAUSS, W, _G2, 0.1, 2.0, J, SdeConfig(0.1, dt),
                                    40, RngStream(74)))
            for dt in (0.01, 0.05)]
    assert rows[0] == rows[1]


def test_kept_flat_paths_take_euler_steps():
    # with paths kept the flat gaussian diffusion still takes K Euler steps,
    # its noise one (1, P, K, dim) block
    cfg = SdeConfig(0.1, 0.02)
    rng, ref = RngStream(75), RngStream(75)
    path = simulate_particles(SP, GAUSS, _G2, cfg, rng)
    assert path.paths.shape == (_G2.n, cfg.n_steps + 1, 2)
    ref.gen.normal(size=(1, _G2.n, cfg.n_steps, 2))
    assert rng.gen.bit_generator.state == ref.gen.bit_generator.state
