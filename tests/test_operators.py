import math
import types

import numpy as np
import pytest

from poissonforms import batteries as bat
from poissonforms import geometry, operators, pointprocess
from poissonforms.exterior import leibniz_power
from poissonforms.fields import (
    SphereAxisField,
    SphereFrameCoordinate,
    SphereGradientField,
    SphereKilling,
)
from poissonforms.forms import (
    BatchEval,
    CylinderForm,
    CylinderFunction,
    Exp,
    FormTerm,
    Linear,
    SlotForm,
    SymmetricFormField,
    eval_form,
)
from poissonforms.geometry import Euclidean, IntensitySpec, Sphere, Window, grad_beta
from poissonforms.harness import resolve_config, run_experiment
from poissonforms.fields import monomial
from poissonforms.operators import (
    OperatorReport,
    _fanout,
    adjointness_check,
    apply_r_pi_sigma,
    beta_fields,
    bochner_rows,
    d_gamma,
    d_rows,
    dd_zero_check,
    dirichlet_check,
    dstar_rows,
    factorization_check,
    h_pi_sigma,
    h_r_rows,
    ibp_check,
    lift,
    weitz_matrix,
    weitzenbock_check,
)
from poissonforms.pointprocess import Configuration, RngStream, SampleBatch, sample_batch

SP = Euclidean(2)
GAUSS = IntensitySpec("gaussian", 1.0)
ALL = Window("all")
CONFIG = Configuration(np.array([[0.7, -0.4], [0.3, 0.2], [-0.5, 0.6]]))


def combination_norm(*terms) -> float:
    """Norm of sum c * v over (c, FormValue) pairs, on the merged
    point-keyed coefficients."""
    out: dict = {}
    for c, v in terms:
        for key, x in v.point_coef().items():
            out[key] = out.get(key, 0.0) + c * x
    return math.sqrt(sum(x * x for x in out.values()))


class TestWeitzMatrix:
    def test_flat_gaussian_blocks(self):
        # grad beta = -I, so the potential is +k on every degree-k block
        p = np.array([0.4, -0.1])
        assert np.allclose(weitz_matrix(SP, GAUSS, p, 1), np.eye(2), atol=1e-14)
        assert np.allclose(weitz_matrix(SP, GAUSS, p, 2), [[2.0]], atol=1e-14)

    def test_flat_scaled_gaussian(self):
        inten = IntensitySpec("gaussian", 0.5)  # grad beta = -4 I
        p = np.array([0.1, 0.2])
        assert np.allclose(weitz_matrix(SP, inten, p, 1), 4.0 * np.eye(2))

    def test_sphere_uniform_blocks(self):
        sp, p = Sphere(), np.array([0.0, 0.0, 1.0])
        inten = IntensitySpec("uniform")
        assert np.allclose(weitz_matrix(sp, inten, p, 1), np.eye(2), atol=1e-12)
        assert np.allclose(weitz_matrix(sp, inten, p, 2), [[0.0]], atol=1e-12)


    @pytest.mark.parametrize("inten", [GAUSS, IntensitySpec("uniform")],
                             ids=["gaussian", "uniform"])
    def test_stacked_matches_per_point(self, inten):
        X = np.random.default_rng(5).normal(size=(6, 2)) * 0.5
        for k in range(3):
            got = weitz_matrix(SP, inten, X, k)
            for x, g in zip(X, got):
                assert np.array_equal(g, weitz_matrix(SP, inten, x, k))

    def test_stacked_on_sphere(self):
        sp, inten = Sphere(), IntensitySpec("uniform")
        X = np.random.default_rng(6).normal(size=(4, 3))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        for k in range(3):
            got = weitz_matrix(sp, inten, X, k)
            for x, g in zip(X, got):
                assert np.array_equal(g, weitz_matrix(sp, inten, x, k))


class TestScalarLevel:
    def test_h_on_first_coordinate_statistic(self):
        # F = <x_1, gamma> is an OU eigenfunction: H F = F
        F = CylinderFunction(Linear([1.0]), (monomial(2, (1, 0)),))
        s = CONFIG.points[:, 0].sum()
        assert abs(h_pi_sigma(SP, GAUSS, F, CONFIG) - s) < 1e-12

    def test_h_exponential_statistic(self):
        # F = e^{s}, s = sum x_1: LF = e^s (n - s), so HF = -e^s (n - s)
        F = CylinderFunction(Exp([1.0]), (monomial(2, (1, 0)),))
        s = CONFIG.points[:, 0].sum()
        expect = -math.exp(s) * (CONFIG.n - s)
        assert abs(h_pi_sigma(SP, GAUSS, F, CONFIG) - expect) < 1e-11

    def test_beta_fields_match_geometry(self):
        from poissonforms.geometry import beta

        fields = beta_fields(SP, GAUSS)
        p = np.array([0.3, -0.8])
        vals = np.array([f.value_one(p) for f in fields])
        assert np.allclose(vals, beta(SP, GAUSS, p), atol=1e-14)


class TestLiftedOperators:
    def test_ou_eigenform_eigenvalues(self):
        # x1 dx1 has Bochner eigenvalue 1 and de Rham eigenvalue 2
        W = bat.ou_eigenform()
        base = eval_form(W, CONFIG)
        fb = lift("bochner", SP, GAUSS, W, CONFIG)
        fr = lift("deRham", SP, GAUSS, W, CONFIG)
        assert combination_norm((1.0, fb), (-1.0, base)) < 1e-12
        assert combination_norm((1.0, fr), (-2.0, base)) < 1e-12

    def test_dd_zero_pointwise_with_cylinder_factor(self):
        # the product rule through the cylinder factor must cancel in d(dW)
        W = bat.flat_form_battery()[1]
        ddW = d_gamma(SP, GAUSS, d_gamma(SP, GAUSS, W))
        assert eval_form(ddW, CONFIG).norm() < 1e-12

    def test_dstar_adjoint_to_d_in_expectation(self):
        # paired-sample version of <dW1, W2> = <W1, d*W2>; W2 has degree one
        # more than W1, or both sides vanish identically
        forms = bat.flat_form_battery()
        W1, W2 = forms[0], forms[2]
        assert W2.degree == W1.degree + 1
        res = adjointness_check(SP, GAUSS, ALL, W1, W2, RngStream(12), n_samples=600)
        assert res.stderr > 0
        assert res.passed

    def test_weitzenbock_pointwise_scalar_slot(self):
        # the potential must act on partially occupied slots too: the
        # difference of the two lifts equals the curvature-potential action
        W = bat.flat_form_battery()[3]
        assert W.name == "deg2-scalar-slot"
        fr = lift("deRham", SP, GAUSS, W, CONFIG)
        fb = lift("bochner", SP, GAUSS, W, CONFIG)
        pot = apply_r_pi_sigma(SP, GAUSS, eval_form(W, CONFIG), CONFIG, W.degree)
        assert combination_norm((1.0, fr), (-1.0, fb), (-1.0, pot)) < 1e-12

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            lift("heat", SP, GAUSS, bat.ou_eigenform(), CONFIG)


def sphere_points(n: int, seed: int) -> np.ndarray:
    v = np.random.default_rng(seed).normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def slot_rows(omega):
    """A one-slot sphere form field as a row function: points -> (N, C(2, k))
    coefficients on the frame basis at each point, each point a one-point
    configuration of ``BatchEval.form``."""
    W = CylinderForm([FormTerm(omega)])
    return lambda Q: BatchEval(SampleBatch(Q, np.arange(len(Q) + 1)), 2).form(W).blocks[1]


def one_slot(*slots):
    return SymmetricFormField(1, [(1.0, (sf,)) for sf in slots])


def frame_one_form(vec):
    """The 1-form dual to a tangent field: its frame coordinates on e_0, e_1."""
    return one_slot(*(SlotForm(SphereFrameCoordinate(vec, a), (a,)) for a in (0, 1)))


class TestSphereFiniteDifferences:
    # covariant differences on a stack of 50 points, both frame charts
    # (|z| <= 0.9 and the pole fallback) included
    def setup_method(self):
        self.sp = Sphere()
        self.inten = IntensitySpec("uniform")
        fixed = [[0.6, -0.3, 0.74161984870956629], [0.1, 0.2, -0.97467943448089633]]
        self.X = np.vstack([sphere_points(48, 11), fixed])
        assert np.sum(np.abs(self.X[:, 2]) > 0.9) >= 2
        e3 = np.array([0.0, 0.0, 1.0])
        height = SphereAxisField(e3, [0.0, 1.0])
        self.killing = slot_rows(frame_one_form(SphereKilling(e3)))
        self.dz = slot_rows(frame_one_form(SphereGradientField(height)))
        self.zvol = slot_rows(one_slot(SlotForm(height, (0, 1))))

    def residual(self, got, want):
        return np.linalg.norm(got - want, axis=1).max()

    def test_killing_is_coclosed(self):
        val = dstar_rows(self.sp, self.inten, self.killing, 1, self.X)
        assert val.shape == (50, 1)
        assert self.residual(val, 0.0) < 1e-6

    def test_gradient_form_is_closed(self):
        val = d_rows(self.sp, self.inten, self.dz, 1, self.X)
        assert val.shape == (50, 1)
        assert self.residual(val, 0.0) < 1e-6

    def test_killing_bochner_eigenvalue_one(self):
        # rotation forms on the unit sphere: Delta_B = 1, Delta_R = 2
        got = bochner_rows(self.sp, self.inten, self.killing, 1, self.X)
        assert self.residual(got, self.killing(self.X)) < 5e-6

    def test_killing_derham_eigenvalue_two(self):
        got = h_r_rows(self.sp, self.inten, self.killing, 1, self.X)
        assert self.residual(got, 2.0 * self.killing(self.X)) < 5e-5

    def test_closed_forms_eigenvalues(self):
        # dz is closed with Delta_B = 1 (Ricci = 1) and Delta_R = 2; z vol is
        # a top form, where both operators give 2
        cases = ((self.dz, 1, 1.0, 2.0), (self.zvol, 2, 2.0, 2.0))
        for om, k, bochner, derham in cases:
            base = om(self.X)
            assert np.abs(base).max() > 0.1
            got = bochner_rows(self.sp, self.inten, om, k, self.X)
            assert self.residual(got, bochner * base) < 5e-6
            got = h_r_rows(self.sp, self.inten, om, k, self.X)
            assert self.residual(got, derham * base) < 5e-5


class TestChecks:
    def test_dd_zero(self):
        W = bat.flat_form_battery()[1]
        res = dd_zero_check(SP, GAUSS, ALL, W, RngStream(3), n_configs=10)
        assert res.passed
        assert res.lhs < 1e-10

    def test_weitzenbock_battery_flat(self):
        for W in bat.flat_form_battery():
            res = weitzenbock_check(
                SP, GAUSS, ALL, W, RngStream(4), n_configs=8, name=W.name
            )
            assert res.passed, W.name
            assert res.lhs < 1e-8

    @pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
    def test_weitzenbock_sphere_gaussian_family(self, scale):
        # a radial weight is constant on the unit sphere, so beta and its
        # covariant derivative vanish there as for the uniform family
        inten = IntensitySpec("gaussian", scale)
        for W in bat.sphere_form_battery():
            res = weitzenbock_check(bat.sphere_space(), inten, ALL, W, RngStream(8),
                                    n_configs=3, tol=1e-4)
            assert res.passed, (W.name, res.lhs)

    def test_factorization_flat(self):
        W = bat.flat_form_battery()[2]
        for kind in ("bochner", "deRham"):
            res = factorization_check(
                kind, SP, GAUSS, ALL, W, RngStream(5), n_trials=8
            )
            assert res.passed, kind

    @pytest.mark.parametrize("check", [
        lambda W, n: dd_zero_check(SP, GAUSS, ALL, W, RngStream(5), n_configs=n),
        lambda W, n: weitzenbock_check(SP, GAUSS, ALL, W, RngStream(5), n_configs=n),
        lambda W, n: factorization_check("deRham", SP, GAUSS, ALL, W, RngStream(5),
                                         n_trials=n),
    ], ids=["dd-zero", "weitzenbock", "factorization"])
    @pytest.mark.parametrize("n", [0, -1])
    def test_no_row_from_an_empty_sample(self, check, n):
        # a residual's maximum over no configuration checks nothing
        with pytest.raises(ValueError, match="check needs at least one"):
            check(bat.flat_form_battery()[2], n)

    def test_ibp_small(self):
        F1, F2, V = bat.ibp_battery()[0]
        (res,) = ibp_check(SP, GAUSS, ALL, [(F1, F2, V)], RngStream(6), n_samples=20_000)
        assert res.passed

    def test_ibp_sums_run_through_segment_sum(self, monkeypatch):
        # SampleBatch.segment_sum is the one per-configuration sum: all five
        # of this row's (the two statistics, the two directional sums and
        # the beta.V + div V sum) must reach it, each over every point
        summed = []
        plain = SampleBatch.segment_sum

        def counted(batch, values):
            summed.append(len(values))
            return plain(batch, values)

        monkeypatch.setattr(SampleBatch, "segment_sum", counted)
        F1, F2, V = bat.ibp_battery()[0]
        ibp_check(SP, GAUSS, ALL, [(F1, F2, V)], RngStream(6), n_samples=2_000)
        n_points = len(sample_batch(SP, GAUSS, ALL, RngStream(6), 2_000).points)
        assert sum(summed) == 5 * n_points

    def test_ibp_rows_compute_each_integrand_once_per_view(self, monkeypatch):
        # one view of the whole battery: 3 sums of beta.V + div V (one per
        # V), 6 sums of <grad phi, V> (one per V and phi its rows read) and 3
        # statistics (bump, bump2 and poly, shared by every F and by G);
        # G(gamma \ x) is evaluated once although two V terms carry it
        sums, removed = [], []
        plain_sum, plain_rows = SampleBatch.segment_sum, BatchEval.f_rows

        def counted_sum(batch, values):
            sums.append(len(values))
            return plain_sum(batch, values)

        def counted_rows(ev, F, cfg=None, excl=None):
            if excl is not None:
                removed.append(F.name)
            return plain_rows(ev, F, cfg, excl)

        monkeypatch.setattr(SampleBatch, "segment_sum", counted_sum)
        monkeypatch.setattr(BatchEval, "f_rows", counted_rows)
        batch = sample_batch(SP, GAUSS, ALL, RngStream(42).child("ibp", 0), 1_300)
        operators._ibp_rows(SP, GAUSS, bat.ibp_battery(), batch)
        assert sums == [len(batch.points)] * 12
        assert removed == ["G"]

    def test_dirichlet_functions_small(self):
        F1, F2 = bat.function_pairs()[0]
        res = dirichlet_check(
            SP, GAUSS, ALL, F1, F2, RngStream(7), level="functions", n_samples=20_000
        )
        assert res.passed

    def test_dirichlet_forms_small(self):
        W1, W2 = bat.form_pairs()[0]
        for level in ("bochner", "deRham"):
            res = dirichlet_check(
                SP, GAUSS, ALL, W1, W2, RngStream(8), level=level, n_samples=800
            )
            assert res.passed, level

    def test_adjointness_small(self):
        forms = bat.flat_form_battery()
        W1, W2 = forms[1], forms[3]
        assert W2.degree == W1.degree + 1
        res = adjointness_check(SP, GAUSS, ALL, W1, W2, RngStream(9), n_samples=800)
        assert res.stderr > 0
        assert res.passed

    def test_report_aggregation(self):
        r = OperatorReport("demo")
        r.checks.append(
            dd_zero_check(SP, GAUSS, ALL, bat.ou_eigenform(), RngStream(1), n_configs=4)
        )
        assert r.passed
        assert set(r.checks[0].as_row()) >= {"check", "lhs", "rhs", "stderr", "tol", "pass"}


def _red_rows(experiment: str) -> list[str]:
    """The failing rows of an experiment at seed 42 and 3,000 samples."""
    cfg = resolve_config(experiment, overrides={"seed": 42, "n_samples": 3000})
    return [row["check"] for row in run_experiment(cfg).checks if not row["pass"]]


class TestPlantedDefects:
    """A defect planted in one operator turns the rows that check it red."""

    def test_dstar_without_partial_fails_adjointness(self, monkeypatch):
        def no_partial(omega, i, betas):
            # slot_dstar with only its beta term: -sum_a beta_a w iota_a e_I
            def expand(sf, cross):
                return [
                    SlotForm(betas[a] * sf.field, sf.axes[:p] + sf.axes[p + 1:],
                             -sf.sign * cross * (-1.0) ** p)
                    for p, a in enumerate(sf.axes)
                ]
            return _fanout(omega, i, expand)

        forms = bat.flat_form_battery()
        run = lambda: adjointness_check(SP, GAUSS, ALL, forms[0], forms[2], RngStream(12), 600)
        assert run().passed
        monkeypatch.setattr(operators, "slot_dstar", no_partial)
        res = run()
        assert not res.passed and abs(res.lhs) > 5 * res.tol

    def test_negated_bochner_fails_sphere_weitzenbock(self, monkeypatch):
        bochner = operators.bochner_rows
        monkeypatch.setattr(operators, "bochner_rows", lambda *a, **k: -bochner(*a, **k))
        for W in bat.sphere_form_battery():
            res = weitzenbock_check(bat.sphere_space(), bat.sphere_intensity(), ALL, W,
                                    RngStream(12), n_configs=2, tol=1e-4)
            assert not res.passed and res.lhs > 1.0, W.name

    def test_reversed_drift_fails_decay_and_invariance(self, monkeypatch):
        # beta and the exact flat endpoint draw both read the gaussian's drift
        # coefficient: the decay rows draw exactly, invariance takes Euler steps
        assert _red_rows("semigroup-ou") == []
        rate = geometry.gaussian_drift_rate
        monkeypatch.setattr(geometry, "gaussian_drift_rate", lambda inten: -rate(inten))
        assert _red_rows("semigroup-ou") == [
            "ou-decay-bochner-t0.25", "ou-decay-deRham-t0.25",
            "ou-decay-bochner-t0.5", "ou-decay-deRham-t0.5", "poisson-invariance",
        ]

    def test_weitz_matrix_without_leibniz_term_fails_flat_weitzenbock(self, monkeypatch):
        # the scalar flat J and the symbolic de Rham lift do not read
        # weitz_matrix, so the generator rows stay green
        assert _red_rows("weitzenbock") == []
        weitz = operators.weitz_matrix
        monkeypatch.setattr(operators, "weitz_matrix", lambda space, inten, p, k: (
            weitz(space, inten, p, k) + leibniz_power(grad_beta(space, inten, p), k)
        ))
        assert _red_rows("weitzenbock") == [f"weitzenbock-{W.name}"
                                            for W in bat.flat_form_battery()]

    def test_series_with_wrong_factorial_fails_series_rows(self, monkeypatch):
        # expect_series weighs the k-point term by 1/(k-1)! instead of 1/k!
        assert _red_rows("series-vs-mc") == []
        shifted = dict(vars(math), factorial=lambda k: math.factorial(max(k - 1, 0)))
        monkeypatch.setattr(pointprocess, "math", types.SimpleNamespace(**shifted))
        assert _red_rows("series-vs-mc") == [f"series-{case.name}"
                                             for case in bat.series_battery()]
