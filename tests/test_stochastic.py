import itertools
import math

import numpy as np
import pytest
from scipy.linalg import expm

from poissonforms import batteries as bat
from poissonforms.exterior import Multivector, apply_slot_linear, t_basis
from poissonforms.forms import BatchEval, CylinderFunction, Exp, Linear
from poissonforms.fields import monomial
from poissonforms.geometry import Euclidean, IntensitySpec, Sphere, Window
from poissonforms.operators import factorization_check, r_pi_sigma
from poissonforms.pointprocess import Configuration, RngStream, SampleBatch
from poissonforms.stochastic import (
    BlockPotential,
    FrameMatrix,
    SdeConfig,
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
        path = simulate_particles(SP, GAUSS, gamma, cfg, RngStream(21), keep_paths=False)
        X = path.final()
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
        # F = e^{w <x_1>} on a single point: the Euler chain is Gaussian, so
        # E e^{w X_1(t)} = exp(w m + w^2 v / 2) exactly for the chain
        w, x0, t = -0.7, 0.9, 0.4
        F = CylinderFunction(Exp([w]), (monomial(2, (1, 0)),))
        gamma = Configuration(np.array([[x0, 0.2]]))
        cfg = SdeConfig(t=t, dt=0.01)
        est = semigroup_T0(SP, GAUSS, F, gamma, t, cfg, 40_000, RngStream(11))
        m, v = ou_discrete_moments(x0, t, 0.01)
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


def _grad_log_density(X):
    # log rho = -|x|^2 / 2 - 0.3 x_0^2 x_1: its Hessian, and so the
    # curvature potential, changes from point to point
    g = -np.asarray(X, dtype=float)
    g[:, 0] -= 0.6 * X[:, 0] * X[:, 1]
    g[:, 1] -= 0.3 * X[:, 0] ** 2
    return g


SKEWED = IntensitySpec(
    "custom",
    density=lambda X: np.exp(-0.5 * np.sum(X**2, axis=1) - 0.3 * X[:, 0] ** 2 * X[:, 1]),
    grad_log_density=_grad_log_density,
)


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


def _reference_frame(space, intensity, J, n, path, subset):
    """The whole-fibre frame solve: J on the fibre at every step
    (-r_pi_sigma over the subset points, or scalar I), c_sup from its
    eigenvalues, the midpoint exponential on flat space and the split step
    around the transport on the sphere."""
    pts = path.paths[list(subset)]
    K1 = pts.shape[1]
    basis = t_basis(n, len(subset), space.dim)
    k = len(basis)
    if k == 0:
        return np.zeros((0, 0)), J.scalar or 0.0
    B = [
        J.scalar * np.eye(k) if J.scalar is not None
        else -r_pi_sigma(space, intensity, pts[:, j], n)
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
            sp, inten = Euclidean(2), SKEWED
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
            else curvature_potential(sp, inten, n, allow_scalar=False)
        )
        for m in (1, 2, 3):
            for subset in itertools.combinations(range(3), m):
                fm = parallel_translate(sp, path, J, n, list(subset))
                P, c_sup = _reference_frame(sp, inten, J, n, path, subset)
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


class TestGenerator:
    def test_form_generator_derham(self):
        rep = generator_check(
            SP, GAUSS, bat.ou_eigenform(),
            [Configuration(c) for c in bat.flat_configs()][:1],
            "deRham", n_samples=4000, rng=RngStream(50),
        )
        assert rep.passed

    def test_form_generator_rejects_sphere(self):
        # the target is the batched lift, which is for flat backends
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
