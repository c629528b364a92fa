import math

import numpy as np
import pytest

from poissonforms.exterior import Multivector
from poissonforms.fields import monomial
from poissonforms.forms import (
    CylinderForm,
    CylinderFunction,
    EvalCache,
    Exp,
    FormTerm,
    FormValue,
    Linear,
    SlotForm,
    SymmetricFormField,
    _row_dots,
    eval_form,
)
from poissonforms.pointprocess import Configuration

X1 = monomial(2, (1, 0))  # x -> x_1
X2 = monomial(2, (0, 1))  # x -> x_2
ONE = monomial(2, (0, 0))

CONFIG = Configuration(np.array([[0.7, -0.4], [0.3, 0.2], [-0.5, 0.6]]))


def sum_x1():
    return CylinderFunction(Linear([1.0]), (X1,), name="sum-x1")


class TestCylinderFunction:
    def test_value_frozen(self):
        # F = exp(-0.5 sum x_1): stat = 0.7 + 0.3 - 0.5 = 0.5
        F = CylinderFunction(Exp([-0.5]), (X1,))
        assert abs(F.value(CONFIG.points) - math.exp(-0.25)) < 1e-14

    def test_empty_configuration(self):
        F = CylinderFunction(Exp([-0.5]), (X1,))
        assert abs(F.value(np.zeros((0, 2))) - 1.0) < 1e-15

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CylinderFunction(Exp([-1.0, 2.0]), (X1,))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_row_dots_takes_a_vector_or_a_row_per_row(self, d):
        # sums left to right: one weight vector, or one row of weights per
        # row, give the same bits, and each row rounds as it does alone
        rng = np.random.default_rng(d)
        S, w = rng.normal(size=(50, d)), rng.normal(size=d)
        rows = _row_dots(S, w)
        assert np.array_equal(rows, _row_dots(S, np.tile(w, (50, 1))))
        assert all(_row_dots(S[i], w)[0] == rows[i] for i in range(50))


class TestEvalCache:
    def test_stat_without_matches_direct(self):
        F = CylinderFunction(Exp([-0.3, 0.2]), (X1, X2))
        cache = EvalCache(CONFIG)
        for excl in [(), (0,), (1, 2)]:
            rest = CONFIG.without(excl) if excl else CONFIG
            assert np.allclose(
                cache.stat_without(F, excl), F.stat(rest.points), atol=1e-14
            )
            assert abs(cache.f_without(F, excl) - F.value(rest.points)) < 1e-14

    def test_f_without_none_is_one(self):
        assert EvalCache(CONFIG).f_without(None, (0,)) == 1.0


class TestFormValue:
    def test_inner_same_subset(self):
        a = FormValue({(0,): Multivector({((0, 0),): 2.0})})
        b = FormValue({(0,): Multivector({((0, 0),): 3.0}), (1,): Multivector({((0, 1),): 5.0})})
        assert abs(a.inner(b) - 6.0) < 1e-15

    def test_inner_across_subsets_canonicalizes_points(self):
        # deg-2 value over the pair (0,1) living on point 1's axes must match
        # a deg-2 value over the singleton (1,): both are dx1^dx2 at point 1
        a = FormValue({(0, 1): Multivector({((1, 0), (1, 1)): 2.0})})
        b = FormValue({(1,): Multivector({((0, 0), (0, 1)): 3.0})})
        assert abs(a.inner(b) - 6.0) < 1e-15
        assert abs(a.norm() - 2.0) < 1e-15


class TestEvalForm:
    def test_m1_component_frozen(self):
        # W = F(gamma minus x) * (x_2 dx_1) with F = sum x_1 over the rest:
        # component at point i is F(others) * x2_i * e_{dx1}
        omega = SymmetricFormField(1, [(1.0, (SlotForm(X2, (0,)),))])
        W = CylinderForm([FormTerm(omega, sum_x1())])
        fv = eval_form(W, Configuration(CONFIG.points[:2]))
        v0 = fv.components[(0,)].coef[((0, 0),)]
        v1 = fv.components[(1,)].coef[((0, 0),)]
        assert abs(v0 - 0.3 * (-0.4)) < 1e-14
        assert abs(v1 - 0.7 * 0.2) < 1e-14

    def test_m2_sqrt_factorial_scale(self):
        # constant 2-slot, degree-2 term gets the sqrt(2!) normalization
        omega = SymmetricFormField(
            2, [(1.0, (SlotForm(ONE, (0,)), SlotForm(ONE, (0,))))]
        )
        W = CylinderForm([FormTerm(omega)])
        fv = eval_form(W, Configuration(CONFIG.points[:2]))
        mv = fv.components[(0, 1)]
        assert abs(mv.coef[((0, 0), (1, 0))] - math.sqrt(2.0)) < 1e-14

    def test_masked_term_keeps_slot_point(self):
        # mask=(False,) leaves the slot point visible to the cylinder factor
        omega = SymmetricFormField(1, [(1.0, (SlotForm(X2, (0,)),))])
        Wm = CylinderForm([FormTerm(omega, sum_x1(), mask=(False,))])
        fv = eval_form(Wm, Configuration(CONFIG.points[:2]))
        full = 0.7 + 0.3
        assert abs(fv.components[(0,)].coef[((0, 0),)] - full * (-0.4)) < 1e-14
        assert abs(fv.components[(1,)].coef[((0, 0),)] - full * 0.2) < 1e-14

    def test_mixed_degree_rejected(self):
        o1 = SymmetricFormField(1, [(1.0, (SlotForm(ONE, (0,)),))])
        o2 = SymmetricFormField(1, [(1.0, (SlotForm(ONE, (0, 1)),))])
        with pytest.raises(ValueError):
            CylinderForm([FormTerm(o1), FormTerm(o2)])
