"""Default test batteries: named collections of fields, cylinder functions,
forms, and vector fields that the experiment runner evaluates.

Every entry is built by a constructor function (no module-level mutable
state), so experiments always receive fresh objects.  The default backend is
the plane with the standard gaussian reference intensity (mass 2*pi on the
full window); the sphere batteries back the curved-space checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fields import (
    RadialBump,
    SphereAxisField,
    SphereFrameCoordinate,
    SphereGradientField,
    SphereKilling,
    VectorField,
    gauss_bump,
    monomial,
    polygauss,
)
from .forms import (
    CylinderForm,
    CylinderFunction,
    Exp,
    FormTerm,
    Linear,
    LiftedVector,
    Monomial,
    SlotForm,
    SymmetricFormField,
)
from .geometry import Euclidean, IntensitySpec, Sphere, Window
from .pointprocess import MeckeFunctional

__all__ = [
    "default_space",
    "default_intensity",
    "full_window",
    "series_window",
    "SeriesCase",
    "laplace_battery",
    "series_battery",
    "mecke_battery",
    "ibp_battery",
    "function_pairs",
    "form_pairs",
    "ou_eigenform",
    "flat_form_battery",
    "sphere_space",
    "sphere_intensity",
    "sphere_form_battery",
    "generator_functions",
    "flat_configs",
]


def default_space() -> Euclidean:
    return Euclidean(2)


def default_intensity() -> IntensitySpec:
    """Standard gaussian weight exp(-|x|^2/2); full-window mass 2*pi."""
    return IntensitySpec("gaussian", 1.0)


def full_window() -> Window:
    return Window("all")


def series_window() -> Window:
    """Box with sigma-mass about 1.47 (< 1.5), small enough that the
    fixed-count expansion truncated at k_max = 8 certifies a tight tail."""
    return Window("box", ((-0.65, 0.65), (-0.65, 0.65)))


def sphere_space() -> Sphere:
    return Sphere()


def sphere_intensity() -> IntensitySpec:
    return IntensitySpec("uniform")


# ---------------------------------------------------------------------------
# Laplace functional battery


def laplace_battery() -> list[tuple[str, object, Window | None]]:
    """Five bounded bump fields f; E e^{<f,gamma>} has a quadrature value.

    Each entry may carry its own window (None means the experiment default).
    The mollifier runs on a box strictly inside its support: the bump is
    analytic there, so the quadrature side is spectrally exact, whereas
    full-plane nodes straddle the support edge and converge too slowly to
    stay under the Monte Carlo error bars.
    """
    return [
        ("gauss-centered", gauss_bump(2, 0.5, (0.0, 0.0), 1.0), None),
        ("gauss-offset-neg", gauss_bump(2, 1.0, (0.5, -0.3), -0.8), None),
        ("gauss-wide", gauss_bump(2, 0.25, (-0.4, 0.2), 0.6), None),
        ("two-bumps", gauss_bump(2, 0.8, (0.7, 0.0), 0.5) + gauss_bump(2, 0.8, (-0.7, 0.1), 0.4), None),
        ("mollifier", RadialBump((0.2, 0.1), 1.2, 0.9), series_window()),
    ]


# ---------------------------------------------------------------------------
# fixed-count series battery


@dataclass(frozen=True)
class SeriesCase:
    """A cylinder expectation with a per-count envelope |E[F | k points]| <=
    envelope(k), which drives the rigorous truncation bound."""

    name: str
    outer: object
    inners: tuple
    envelope: Callable[[int], float]


def series_battery() -> list[SeriesCase]:
    bump = gauss_bump(2, 1.0, (0.0, 0.0), 1.0)
    bump2 = gauss_bump(2, 0.6, (0.3, -0.2), 0.8)
    return [
        SeriesCase("exp-bump", Exp([-0.5]), (bump,), lambda k: 1.0),
        SeriesCase("linear-bump", Linear([1.0], 0.2), (bump,), lambda k: 0.2 + k),
        SeriesCase(
            "exp-two-stats", Exp([-0.3, -0.2]), (bump, bump2), lambda k: 1.0
        ),
    ]


# ---------------------------------------------------------------------------
# Mecke battery


def mecke_battery() -> list[MeckeFunctional]:
    """m = 1 and m = 2 functionals; the first one is the bare phi = rho with
    integral pi (the quadrature cross-check in the acceptance suite)."""
    phi = gauss_bump(2, 1.0, (0.0, 0.0), 1.0)
    phi2 = polygauss(2, {(1, 0): 0.5, (0, 0): 1.0}, rate=1.0)
    psi = gauss_bump(2, 0.8, (0.3, -0.2), 0.7)
    return [
        MeckeFunctional((phi,), name="phi-pi"),
        MeckeFunctional((phi2,), outer=Exp([-0.4]), inner=psi, name="phi-exp"),
        MeckeFunctional((phi, phi2), name="pair-plain"),
        MeckeFunctional((phi2, psi), outer=Exp([-0.3]), inner=phi, name="pair-exp"),
    ]


# ---------------------------------------------------------------------------
# integration-by-parts battery


def _vf(*term_dicts) -> VectorField:
    return VectorField([polygauss(2, d, rate=0.5) for d in term_dicts])


def ibp_battery() -> list[tuple[CylinderFunction, CylinderFunction, LiftedVector]]:
    """Five (F1, F2, V) triples mixing plain and cylinder-weighted drifts."""
    bump = gauss_bump(2, 1.0, (0.0, 0.0), 1.0)
    bump2 = gauss_bump(2, 0.6, (0.3, -0.2), 0.8)
    poly = polygauss(2, {(1, 0): 1.0, (0, 1): 0.4}, rate=0.3)
    F_exp = CylinderFunction(Exp([-0.5]), [bump], name="F-exp")
    F_lin = CylinderFunction(Linear([1.0], 0.5), [bump2], name="F-lin")
    F_two = CylinderFunction(Exp([-0.3, -0.2]), [bump, poly], name="F-two")
    F_mono = CylinderFunction(Monomial([2], 0.4), [bump2], name="F-sq")
    G = CylinderFunction(Exp([-0.4]), [bump2], name="G")

    V_plain = LiftedVector(
        [(1.0, None, _vf({(0, 0): 1.0, (1, 0): 0.3}, {(0, 1): 0.5}))], name="V-plain"
    )
    V_mixed = LiftedVector(
        [
            (1.0, None, _vf({(0, 0): 0.7}, {(0, 0): -0.4, (1, 0): 0.2})),
            (0.7, G, _vf({(0, 1): 0.6}, {(0, 0): 0.5})),
        ],
        name="V-mixed",
    )
    V_weighted = LiftedVector(
        [(1.0, G, _vf({(1, 0): 0.8}, {(0, 1): 0.8}))], name="V-weighted"
    )
    return [
        (F_exp, F_lin, V_plain),
        (F_exp, F_two, V_mixed),
        (F_lin, F_mono, V_weighted),
        (F_two, F_mono, V_plain),
        (F_exp, F_exp, V_mixed),
    ]


# ---------------------------------------------------------------------------
# Dirichlet-form batteries


def function_pairs() -> list[tuple[CylinderForm, CylinderForm]]:
    """Cylinder functions as 0-forms, one m = 0 term each."""
    bump = gauss_bump(2, 1.0, (0.0, 0.0), 1.0)
    bump2 = gauss_bump(2, 0.6, (0.3, -0.2), 0.8)
    poly = polygauss(2, {(1, 0): 1.0, (0, 1): 0.4}, rate=0.3)
    F1 = CylinderFunction(Exp([-0.5]), [bump], name="F1")
    F2 = CylinderFunction(Linear([1.0], 0.5), [bump2], name="F2")
    F3 = CylinderFunction(Exp([-0.3, -0.2]), [bump, poly], name="F3")
    one = SymmetricFormField(0, [(1.0, ())])
    W1, W2, W3 = (CylinderForm([FormTerm(one, F=F)], name=F.name) for F in (F1, F2, F3))
    return [(W1, W2), (W1, W3), (W2, W3)]


def _slot(field_terms: dict, axes: tuple, rate: float = 0.5) -> SlotForm:
    return SlotForm(polygauss(2, field_terms, rate=rate), axes)


def form_pairs() -> list[tuple[CylinderForm, CylinderForm]]:
    """Degree-1 form pairs with overlapping covector axes, so the pointwise
    pairings in the Dirichlet identities are not identically zero."""
    G = CylinderFunction(Exp([-0.4]), [gauss_bump(2, 0.6, (0.3, -0.2), 0.8)], name="G")
    om_a = SymmetricFormField(
        1, [(1.0, (_slot({(0, 0): 1.0, (1, 0): 0.3}, (0,)),)),
            (0.6, (_slot({(0, 1): 0.5}, (1,)),))]
    )
    om_b = SymmetricFormField(
        1, [(1.0, (_slot({(0, 0): 0.8}, (1,)),)),
            (0.5, (_slot({(0, 0): 0.4, (0, 1): 0.2}, (0,)),))]
    )
    W_a = CylinderForm([FormTerm(om_a)], name="Wa")
    W_b = CylinderForm([FormTerm(om_b, F=G)], name="Wb")
    W_c = CylinderForm([FormTerm(om_a, F=G), FormTerm(om_b, coef=0.4)], name="Wc")
    return [(W_a, W_b), (W_a, W_c), (W_b, W_c)]


def ou_eigenform() -> CylinderForm:
    """x1 dx1: eigenform of the lifted operators (eigenvalues 1 and 2)."""
    om = SymmetricFormField(1, [(1.0, (SlotForm(monomial(2, (1, 0)), (0,)),))])
    return CylinderForm([FormTerm(om)], name="x1dx1")


# ---------------------------------------------------------------------------
# flat form battery (factorization / Weitzenboeck / complex identities)


def flat_form_battery() -> list[CylinderForm]:
    """Plane forms of degree 1 and 2, subset sizes 1 and 2, with and without
    cylinder factors; includes a scalar-slot term (degree 0 factor inside an
    m = 2 subset), which exercises the cross-subset pairing."""
    G = CylinderFunction(Exp([-0.4]), [gauss_bump(2, 0.6, (0.3, -0.2), 0.8)], name="G")
    om1 = SymmetricFormField(
        1, [(1.0, (_slot({(0, 0): 1.0, (1, 0): 0.3}, (0,)),)),
            (0.6, (_slot({(0, 1): 0.5}, (1,)),))]
    )
    om2_one = SymmetricFormField(
        1, [(1.0, (_slot({(0, 0): 0.7}, (0, 1)),))]
    )
    om2_two = SymmetricFormField(
        2, [(1.0, (_slot({(0, 0): 1.0}, (0,)), _slot({(0, 1): 0.4}, (1,)))),
            (0.5, (_slot({(1, 0): 0.6}, (1,)), _slot({(0, 0): 0.8}, (0,))))]
    )
    om2_scalar = SymmetricFormField(
        2, [(0.8, (_slot({(0, 0): 1.0, (1, 0): 0.5}, ()), _slot({(0, 0): 0.7}, (0, 1))))]
    )
    return [
        CylinderForm([FormTerm(om1)], name="deg1-plain"),
        CylinderForm([FormTerm(om1, F=G)], name="deg1-weighted"),
        CylinderForm([FormTerm(om2_one), FormTerm(om2_two, coef=0.7)], name="deg2-mixed"),
        CylinderForm([FormTerm(om2_scalar, F=G)], name="deg2-scalar-slot"),
    ]


# ---------------------------------------------------------------------------
# sphere battery


def sphere_form_battery() -> list[CylinderForm]:
    """Unit-sphere 1-forms (rotation and gradient types) and an area 2-form,
    with an axis-profile cylinder factor on one of them."""
    e3 = np.array([0.0, 0.0, 1.0])
    e1 = np.array([1.0, 0.0, 0.0])
    height = SphereAxisField(e3, [0.0, 1.0])
    Fax = CylinderFunction(Exp([-0.2]), [height], name="F-height")
    # the 1-form dual to a tangent field: one slot per frame axis, holding the
    # field's coordinate on that axis
    om_kil, om_grad = (
        SymmetricFormField(1, [(1.0, (SlotForm(SphereFrameCoordinate(v, a), (a,)),)) for a in (0, 1)])
        for v in (SphereKilling(e3), SphereGradientField(SphereAxisField(e1, [0.0, 0.5, 0.3])))
    )
    om_area = SymmetricFormField(1, [(1.0, (SlotForm(height, (0, 1)),))])
    return [
        CylinderForm([FormTerm(om_kil)], name="killing"),
        CylinderForm([FormTerm(om_grad, F=Fax)], name="gradient-weighted"),
        CylinderForm([FormTerm(om_area)], name="area-weighted"),
    ]


# ---------------------------------------------------------------------------
# stochastic-side batteries


def generator_functions() -> list[CylinderFunction]:
    bump = gauss_bump(2, 1.0, (0.0, 0.0), 1.0)
    poly = polygauss(2, {(1, 0): 1.0, (0, 1): 0.4}, rate=0.3)
    return [
        CylinderFunction(Exp([-0.5]), [poly], name="G-exp"),
        CylinderFunction(Linear([0.8], 0.3), [bump], name="G-lin"),
    ]


def flat_configs() -> list[np.ndarray]:
    """Fixed evaluation configurations for the generator/semigroup checks."""
    return [
        np.array([[0.7, -0.4]]),
        np.array([[0.3, -0.2], [-0.5, 0.4]]),
    ]
