"""Weighted differential operators on the base space and their lifts to the
Poisson configuration space.

Point level, for a reference measure sigma = rho dvol with logarithmic
gradient beta = grad log rho:

    H f   = -Delta f - <beta, grad f>        (functions)
    d*    = formal adjoint of d in L^2(sigma)
    H^B   = coefficientwise H (flat case) or covariant second differences
    H^R   = d d* + d* d

On flat backends these act exactly on the symbolic slot fields.  On the
sphere they act on one-slot forms at a stack of points (``d_rows``,
``dstar_rows``, ``bochner_rows``, ``h_r_rows``): one call evaluates the form
at the 2d geodesic neighbours exp(x, +-h e_a) of every point, transports the
values back with Lambda^k of the frame-to-frame map, and applies fixed
e_a ^ / iota_a matrices to the central differences; de Rham nests d and d*
with a smaller inner step.

Configuration level: a cylinder form is a sum of product terms
sqrt(m!) c F(gamma \\ xbar) omega(xbar), and the lifted operators act one
point at a time -- subset points feel the slot operators, the remaining
points feel H through the cylinder factor.  The exterior derivative has one
extra piece (a new subset point created from the gradient of the cylinder
factor) and stays inside the product-term class thanks to the visibility
mask on FormTerm; its adjoint returns a point to the cylinder factor and is
provided at value level.

Monte Carlo identity checks return CheckResult rows with three-standard-error
tolerances on paired estimates; structural identities (the Weitzenboeck
decomposition, the factorization through the subset identification, d after
d) are checked as deterministic residuals on sampled configurations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .exterior import (
    Multivector,
    _slot_block_terms,
    _splits,
    _wedge_ops,
    block_potential,
    curvature_operator,
    leibniz_power,
    relabel_slots,
    t_basis,
    wedge_power,
)
from .fields import Field, monomial
from .forms import (
    BatchEval,
    BatchValue,
    CylinderForm,
    CylinderFunction,
    EvalCache,
    FormTerm,
    FormValue,
    LiftedVector,
    RowLayout,
    SlotForm,
    SymmetricFormField,
    _Scatter,
    _row_dots,
)
from .geometry import (
    IntensitySpec,
    Space,
    Sphere,
    Window,
    beta,
    frame_coords,
    frame_maps,
    grad_beta,
)
from .pointprocess import (Configuration, RngStream, SampleBatch, _draw_locations,
                           sample_batch, sample_views)
from .report import CheckResult, McEstimate

__all__ = [
    "OperatorReport",
    "beta_fields",
    "h_pi_sigma",
    "slot_d",
    "slot_dstar",
    "slot_bochner",
    "slot_hr",
    "d_rows",
    "dstar_rows",
    "bochner_rows",
    "h_r_rows",
    "d_gamma",
    "dstar_gamma",
    "lift",
    "lift_batch",
    "dstar_batch",
    "r_pi_sigma_batch",
    "point_gradient_energy",
    "weitz_matrix",
    "r_pi_sigma",
    "apply_r_pi_sigma",
    "ibp_check",
    "dirichlet_check",
    "weitzenbock_check",
    "factorization_check",
    "dd_zero_check",
    "adjointness_check",
]


# Steps of the covariant finite differences on curved backends. Nested
# compositions (the de Rham operator needs d* of a finite-differenced d) use
# the smaller inner step so that the outer difference does not amplify inner
# truncation error past ~1e-5.
_FD_H = 1e-3
_FD_INNER_H = 1e-4


@dataclass
class OperatorReport:
    """A named bundle of identity checks for one operator battery."""

    name: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


# ---------------------------------------------------------------------------
# point level


def beta_fields(space: Space, intensity: IntensitySpec) -> list[Field]:
    """beta = grad log rho as exact coordinate fields (flat backends)."""
    if isinstance(space, Sphere):
        raise ValueError("symbolic beta fields exist only on flat backends")
    d = space.dim
    if intensity.family == "gaussian":
        s2 = intensity.scale**2
        return [
            monomial(d, tuple(1 if b == a else 0 for b in range(d)), -1.0 / s2)
            for a in range(d)
        ]
    return [monomial(d, (0,) * d, 0.0) for _ in range(d)]


def h_pi_sigma(
    space: Space, intensity: IntensitySpec, F: CylinderFunction, config: Configuration
) -> float:
    """The lifted operator on cylinder functions: sum of H over the points."""
    ev = BatchEval(SampleBatch(config.points, np.array([0, config.n])), space.dim)
    return float(_h_rows(space, intensity, F, ev)[0])


# ---------------------------------------------------------------------------
# slot operators (exact, flat backends)


def _fanout(
    omega: SymmetricFormField,
    i: int,
    expand: Callable[[SlotForm, float], list[SlotForm]],
) -> SymmetricFormField:
    """Replace slot i of every term by each expansion of it.

    The expansion receives the antiderivation crossing sign over the slots
    preceding i (wedge factors the new index or the contraction has to pass),
    which depends on the term, not just the slot.
    """
    terms = []
    for t in omega.terms:
        cross = (-1.0) ** sum(t.slots[j].degree for j in range(i))
        for sf in expand(t.slots[i], cross):
            slots = list(t.slots)
            slots[i] = sf
            terms.append((t.coef, tuple(slots)))
    return SymmetricFormField(omega.m, terms)


def slot_d(omega: SymmetricFormField, i: int, dim: int) -> SymmetricFormField:
    """Exterior derivative in slot i: sum_a e_a wedge partial_a, with e_a
    wedged from the left of the whole multi-slot pattern."""

    def expand(sf: SlotForm, cross: float) -> list[SlotForm]:
        return [
            SlotForm(sf.field.partial(a), (a,) + sf.axes, sf.sign * cross)
            for a in range(dim)
            if a not in sf.axes
        ]

    return _fanout(omega, i, expand)


def slot_dstar(
    omega: SymmetricFormField, i: int, betas: Sequence[Field]
) -> SymmetricFormField:
    """Weighted codifferential in slot i:
    d*(w e_I) = -sum_{a in I} (partial_a w + beta_a w) iota_a e_I,
    with iota contracting from the left of the whole pattern."""

    def expand(sf: SlotForm, cross: float) -> list[SlotForm]:
        out = []
        for pos, a in enumerate(sf.axes):
            rest = sf.axes[:pos] + sf.axes[pos + 1 :]
            sg = -sf.sign * cross * ((-1.0) ** pos)
            out.append(SlotForm(sf.field.partial(a), rest, sg))
            out.append(SlotForm(betas[a] * sf.field, rest, sg))
        return out

    return _fanout(omega, i, expand)


def slot_bochner(
    omega: SymmetricFormField, i: int, betas: Sequence[Field]
) -> SymmetricFormField:
    """Coefficientwise weighted Laplacian in slot i (flat Bochner block);
    even order, so no crossing sign."""

    def expand(sf: SlotForm, cross: float) -> list[SlotForm]:
        f = -sf.field.laplacian()
        for a, b in enumerate(betas):
            f = f - b * sf.field.partial(a)
        return [SlotForm(f, sf.axes, sf.sign)]

    return _fanout(omega, i, expand)


def slot_hr(
    omega: SymmetricFormField, i: int, betas: Sequence[Field], dim: int
) -> SymmetricFormField:
    """De Rham operator in slot i: d d* + d* d."""
    parts = (
        slot_d(slot_dstar(omega, i, betas), i, dim),
        slot_dstar(slot_d(omega, i, dim), i, betas),
    )
    terms = [(t.coef, t.slots) for part in parts for t in part.terms]
    return SymmetricFormField(omega.m, terms)


def _slot_op(
    kind: str, omega: SymmetricFormField, i: int, betas: Sequence[Field], dim: int
) -> SymmetricFormField:
    """The Bochner or de Rham block in slot i (flat backends)."""
    if kind == "bochner":
        return slot_bochner(omega, i, betas)
    return slot_hr(omega, i, betas, dim)


# ---------------------------------------------------------------------------
# point operators on rows (covariant differences on curved backends)
#
# A one-slot k-form is a row function: points (N, ambient_dim) -> (N, C(d, k))
# coefficients on the increasing basis of Lambda^k of the frame at each point.


def _neighbour_rows(space: Space, om, k: int, X: np.ndarray, h: float) -> np.ndarray:
    """The k-form ``om`` at the 2d geodesic neighbours exp(x, +-h e_a) of
    every row x of X, transported back to x by Lambda^k of the frame-to-frame
    map: (N, 2, d, C(d, k)), sign (+h, -h) on axis 1, frame axis a on axis 2."""
    P = X[:, None, None, :]
    Q = space.exp(P, np.array([h, -h])[:, None, None] * space.frame(X)[:, None])
    vals = om(Q.reshape(-1, X.shape[1]))
    vals = vals.reshape(Q.shape[:3] + (math.comb(space.dim, k),))
    M = frame_maps(space, Q, P)
    return np.einsum("...ji,...i->...j", wedge_power(M, k), vals)


def d_rows(
    space: Space, intensity: IntensitySpec, om, k: int, X: np.ndarray, h: float = _FD_H
) -> np.ndarray:
    """d of the one-slot k-form ``om`` at the rows of X: sum_a e_a ^ nabla_a,
    by covariant central differences of step h."""
    nb = _neighbour_rows(space, om, k, X, h)
    cov = (nb[:, 0] - nb[:, 1]) * (1.0 / (2.0 * h))
    return np.einsum("aji,nai->nj", _wedge_ops(space.dim, k), cov)


def dstar_rows(
    space: Space, intensity: IntensitySpec, om, k: int, X: np.ndarray, h: float = _FD_H
) -> np.ndarray:
    """d* of the one-slot k-form at the rows of X:
    -sum_a iota_a (nabla_a + beta_a)."""
    nb = _neighbour_rows(space, om, k, X, h)
    cov = (nb[:, 0] - nb[:, 1]) * (1.0 / (2.0 * h))
    bv = frame_coords(space, X, beta(space, intensity, X))
    if np.any(bv):
        cov = cov + bv[:, :, None] * om(X)[:, None, :]
    return -np.einsum("aij,nai->nj", _wedge_ops(space.dim, k - 1), cov)


def bochner_rows(
    space: Space, intensity: IntensitySpec, om, k: int, X: np.ndarray
) -> np.ndarray:
    """Bochner operator at the rows of X: minus the covariant trace Laplacian
    minus the beta-drift, via transported second differences."""
    h = _FD_H
    nb = _neighbour_rows(space, om, k, X, h)
    second = (nb[:, 0] + nb[:, 1] - 2.0 * om(X)[:, None, :]) * (1.0 / h**2)
    bv = frame_coords(space, X, beta(space, intensity, X))[:, :, None]
    drift = bv * (nb[:, 0] - nb[:, 1]) * (1.0 / (2.0 * h))
    return -(second + drift).sum(axis=1)


def h_r_rows(
    space: Space, intensity: IntensitySpec, om, k: int, X: np.ndarray
) -> np.ndarray:
    """De Rham operator d d* + d* d at the rows of X; the inner operator
    takes the smaller step."""

    def inner(op):
        return lambda Q: op(space, intensity, om, k, Q, _FD_INNER_H)

    dstar_d = dstar_rows(space, intensity, inner(d_rows), k + 1, X)
    return dstar_d + d_rows(space, intensity, inner(dstar_rows), k - 1, X)


def _point_ops(
    kind: str,
    space: Space,
    intensity: IntensitySpec,
    omega: SymmetricFormField,
    X: np.ndarray,
) -> np.ndarray:
    """The Bochner or de Rham point operator applied to a one-point form
    field at each row of X (slot 0), as (N, C(d, k)) coefficients on
    ``t_basis(k, 1, d)``: the subset-point action of the lifts on curved
    backends, where the slot operators have no exact form."""
    if omega.m != 1:
        raise NotImplementedError("sphere lifts are implemented for one-point terms")
    d, k = space.dim, omega.degree

    def om(Q: np.ndarray) -> np.ndarray:
        # every row is a one-point configuration of its own
        ev = BatchEval(SampleBatch(Q, np.arange(len(Q) + 1)), d)
        blocks = ev.form(CylinderForm([FormTerm(omega)])).blocks
        return blocks.get(1, np.zeros((len(Q), math.comb(d, k))))

    op = bochner_rows if kind == "bochner" else h_r_rows
    return op(space, intensity, om, k, X)


# ---------------------------------------------------------------------------
# configuration level: exterior derivative (symbolic) and codifferential
# (value level)


def _slot_graft(
    omega: SymmetricFormField, i: int, factor: Field, a: int
) -> SymmetricFormField:
    """Multiply slot i by a scalar field and left-wedge e_a into it (the
    product-rule companion of slot_d when the cylinder factor sees the
    slot point)."""

    def expand(sf: SlotForm, cross: float) -> list[SlotForm]:
        if a in sf.axes:
            return []
        return [SlotForm(factor * sf.field, (a,) + sf.axes, sf.sign * cross)]

    return _fanout(omega, i, expand)


def d_gamma(space: Space, intensity: IntensitySpec, W: CylinderForm) -> CylinderForm:
    """Exterior derivative of a cylinder form, as a cylinder form.

    Per configuration point: subset points get their slot raised (with the
    product rule through the cylinder factor when the mask makes the point
    visible to it), the remaining points contribute a new visible slot built
    from the gradient of the cylinder factor.
    """
    if isinstance(space, Sphere):
        raise NotImplementedError(
            "the symbolic exterior derivative is implemented on flat backends"
        )
    d = space.dim
    out: list[FormTerm] = []
    for t in W.terms:
        m = t.m
        mask = t.mask if t.mask is not None else (True,) * m
        for i in range(m):
            raised = slot_d(t.omega, i, d)
            if raised.terms:
                out.append(FormTerm(raised, t.F, t.coef, t.mask))
            if not mask[i] and t.F is not None:
                for j, phi in enumerate(t.F.inners):
                    Fj = t.F.partial_outer(j)
                    for a in range(d):
                        grafted = _slot_graft(t.omega, i, phi.partial(a), a)
                        if grafted.terms:
                            out.append(FormTerm(grafted, Fj, t.coef, t.mask))
        if t.F is not None:
            for j, phi in enumerate(t.F.inners):
                Fj = t.F.partial_outer(j)
                for a in range(d):
                    g = phi.partial(a)
                    new_omega = SymmetricFormField(
                        m + 1,
                        [
                            (st.coef, (SlotForm(g, (a,)),) + st.slots)
                            for st in t.omega.terms
                        ],
                    )
                    out.append(
                        FormTerm(
                            new_omega,
                            Fj,
                            t.coef * math.sqrt(m + 1),
                            (False,) + mask,
                        )
                    )
    if not out:
        # d of a constant form: zero, represented as an empty form of the
        # right degree
        zero = SymmetricFormField(0, [])
        return CylinderForm([FormTerm(zero, None, 0.0)], name=f"d{W.name}")
    return CylinderForm(out, name=f"d{W.name}")


def dstar_gamma(
    space: Space,
    intensity: IntensitySpec,
    W: CylinderForm,
    config: Configuration,
) -> FormValue:
    """Codifferential of a cylinder form at one configuration (value level).

    Contracting a degree-one slot vacates it, and the value lands on the
    subset without that point -- the piece of d* that returns a point to the
    cylinder factor's argument.  Only plain product terms are supported,
    which is all the identity checks need.
    """
    if isinstance(space, Sphere):
        raise NotImplementedError(
            "the configuration-level codifferential is implemented on flat backends"
        )
    betas = beta_fields(space, intensity)
    cache = EvalCache(config)
    comps: dict[tuple[int, ...], Multivector] = {}
    pts = config.points
    for t in W.terms:
        if t.mask is not None:
            raise ValueError("dstar_gamma expects plain product terms")
        m = t.m
        if m == 0:
            continue
        scale = math.sqrt(math.factorial(m)) * t.coef
        contracted = [slot_dstar(t.omega, i, betas) for i in range(m)]
        for idx in itertools.combinations(range(config.n), m):
            fval = cache.f_without(t.F, idx)
            if fval == 0.0:
                continue
            xbar = pts[list(idx)]
            for i in range(m):
                mv = contracted[i].value(xbar)
                if mv.is_zero():
                    continue
                mv = mv * (scale * fval)
                keep = {k: c for k, c in mv.coef.items() if any(s == i for s, _ in k)}
                drop = {
                    k: c for k, c in mv.coef.items() if not any(s == i for s, _ in k)
                }
                if keep:
                    kmv = Multivector(keep)
                    comps[idx] = comps[idx] + kmv if idx in comps else kmv
                if drop:
                    dmv = relabel_slots(
                        Multivector(drop), {j: j - 1 for j in range(i + 1, m)}
                    )
                    sub = idx[:i] + idx[i + 1 :]
                    comps[sub] = comps[sub] + dmv if sub in comps else dmv
    return FormValue(comps)


def point_partial_form(
    space: Space,
    intensity: IntensitySpec,
    W: CylinderForm,
    config: Configuration,
    i: int,
    a: int,
) -> FormValue:
    """Derivative of all components of W in coordinate a of configuration
    point i (flat backends; the Bochner-level Dirichlet identity pairs these
    gradients)."""
    cache = EvalCache(config)
    comps: dict[tuple[int, ...], Multivector] = {}
    pts = config.points
    for t in W.terms:
        if t.mask is not None:
            raise ValueError("point_partial_form expects plain product terms")
        m = t.m
        scale = math.sqrt(math.factorial(m)) * t.coef
        for idx in itertools.combinations(range(config.n), m):
            fval = cache.f_without(t.F, idx)
            if i in idx:
                if fval == 0.0:
                    continue
                part = _fanout(t.omega, idx.index(i), lambda sf, _: [sf.partial(a)])
                mv = part.value(pts[list(idx)]) * fval
            else:
                F = t.F
                if F is None:
                    continue
                s = cache.stat_without(F, idx)
                coeff = 0.0
                for j, phi in enumerate(F.inners):
                    pj = F.outer.partial(j).eval_one(s)
                    if pj != 0.0:
                        coeff += pj * float(cache.grads(phi)[i, a])
                if coeff == 0.0:
                    continue
                mv = t.omega.value(pts[list(idx)]) * coeff
            if mv.is_zero():
                continue
            mv = mv * scale
            comps[idx] = comps[idx] + mv if idx in comps else mv
    return FormValue(comps)


def lift(
    kind: str,
    space: Space,
    intensity: IntensitySpec,
    W: CylinderForm,
    config: Configuration,
) -> FormValue:
    """The lifted Bochner or de Rham operator applied to W at one
    configuration.

    Points outside the subset act on the cylinder factor through H (the same
    scalar action for both kinds); subset points act on their slot with the
    Bochner block or the de Rham block.
    """
    if kind not in ("bochner", "deRham"):
        raise ValueError("kind must be 'bochner' or 'deRham'")
    sphere = isinstance(space, Sphere)
    if not sphere:
        betas = beta_fields(space, intensity)
    cache = EvalCache(config)
    comps: dict[tuple[int, ...], Multivector] = {}

    def add(idx, mv):
        if not mv.is_zero():
            comps[idx] = comps[idx] + mv if idx in comps else mv

    pts = config.points
    for t in W.terms:
        if t.mask is not None:
            raise ValueError("lift expects plain product terms")
        m = t.m
        scale = math.sqrt(math.factorial(m)) * t.coef
        if m > 0 and sphere:
            keys = t_basis(t.omega.degree, 1, space.dim)
            point_ops = [
                Multivector({key: float(c) for key, c in zip(keys, row) if c != 0.0})
                for row in _point_ops(kind, space, intensity, t.omega, pts)
            ]
        elif m > 0:
            slot_ops = [_slot_op(kind, t.omega, i, betas, space.dim) for i in range(m)]
        for idx in itertools.combinations(range(config.n), m):
            xbar = pts[list(idx)]
            if t.F is not None:
                hs = h_pi_sigma(space, intensity, t.F, config.without(idx))
                if hs != 0.0:
                    add(idx, t.omega.value(xbar) * (scale * hs))
            fval = cache.f_without(t.F, idx)
            if fval == 0.0 or m == 0:
                continue
            if sphere:
                add(idx, point_ops[idx[0]] * (scale * fval))
                continue
            for i in range(m):
                add(idx, slot_ops[i].value(xbar) * (scale * fval))
    return FormValue(comps)


# ---------------------------------------------------------------------------
# curvature potential


def weitz_matrix(
    space: Space, intensity: IntensitySpec, p: np.ndarray, k: int
) -> np.ndarray:
    """Degree-k block of the Weitzenboeck potential at the points p (stacked
    on leading axes): the curvature operator minus the derivation extension
    of the beta Jacobian, shape p.shape[:-1] + (C(d, k), C(d, k))."""
    return curvature_operator(space, k) - leibniz_power(
        grad_beta(space, intensity, p), k
    )


def r_pi_sigma(
    space: Space, intensity: IntensitySpec, points: np.ndarray, n: int
) -> np.ndarray:
    """Matrix of the lifted curvature potential on the fully occupied
    (n, m)-sector over the given subset points, in the t_basis ordering."""
    points = list(np.atleast_2d(points))
    return block_potential(
        lambda k, x: weitz_matrix(space, intensity, x, k),
        points,
        n,
        len(points),
        space.dim,
    )


def apply_r_pi_sigma(
    space: Space,
    intensity: IntensitySpec,
    fv: FormValue,
    config: Configuration,
    n: int,
) -> FormValue:
    """Apply the curvature potential to a form value, slot by slot.

    Works for any slot occupancy (not only the fully occupied sector): the
    potential acts on each occupied slot through its degree-k block, and
    empty slots contribute nothing (the degree-0 block vanishes)."""
    comps = {}
    for idx, mv in fv.components.items():
        pts = config.points[list(idx)]
        acc: dict = {}
        for key, image, val in _slot_block_terms(
            mv.coef, lambda s, k: weitz_matrix(space, intensity, pts[s], k), space.dim
        ):
            acc[image] = acc.get(image, 0.0) + mv.coef[key] * val
        comps[idx] = Multivector({k: v for k, v in acc.items() if v != 0.0})
    return FormValue(comps)


# ---------------------------------------------------------------------------
# batched operators over a whole SampleBatch


def _plain_terms(W: CylinderForm, what: str):
    for t in W.terms:
        if t.mask is not None:
            raise ValueError(f"{what} expects plain product terms")
        yield t, math.sqrt(math.factorial(t.m)) * t.coef


def _h_rest_rows(
    space: Space,
    intensity: IntensitySpec,
    F: CylinderFunction,
    ev: BatchEval,
    cfg: np.ndarray,
    idx: np.ndarray,
) -> np.ndarray:
    """Per row: the sum of H acting through each point of configuration
    cfg[r] outside the subset idx[r] on F(gamma \\ xbar); point sums are
    configuration sums minus the subset points."""

    def rest(per_point: np.ndarray) -> np.ndarray:
        tot = ev.batch.segment_sum(per_point)[cfg]
        for c in range(idx.shape[1]):
            tot = tot - per_point[idx[:, c]]
        return tot

    s = ev.stat_rows(F, cfg, idx)
    bet = beta(space, intensity, ev.points)
    grads = [ev.grads(phi) for phi in F.inners]
    tot = np.zeros(len(cfg))
    for j, phi in enumerate(F.inners):
        gj = F.outer.partial(j)
        for k in range(F.nargs):
            dots = rest(_row_dots(grads[j], grads[k]))
            tot -= gj.partial(k).eval_batch(s) * dots
        drift = rest(_row_dots(bet, grads[j]))
        tot += gj.eval_batch(s) * (-rest(ev.laps(phi)) - drift)
    return tot


def _h_rows(
    space: Space, intensity: IntensitySpec, F: CylinderFunction, ev: BatchEval
) -> np.ndarray:
    """H F at every configuration of the batch: H through every point, no
    subset held out."""
    n = ev.batch.n_samples
    return _h_rest_rows(
        space, intensity, F, ev, np.arange(n), np.empty((n, 0), dtype=np.intp)
    )


def _add_point_ops(
    kind: str, space: Space, intensity: IntensitySpec, out: _Scatter,
    omega: SymmetricFormField, ev: BatchEval, idx: np.ndarray, cfg: np.ndarray,
    w: np.ndarray,
) -> None:
    """Add w times the Bochner or de Rham point operator, summed over the
    slots of omega, on the subset rows (idx, cfg) of ``ev.configs``. On the
    sphere the one-slot operator is taken at every batch point in one call
    and filed on the 1-subset rows, where row r holds batch point r."""
    if not isinstance(space, Sphere):
        betas = beta_fields(space, intensity)
        for i in range(omega.m):
            out.add(_slot_op(kind, omega, i, betas, space.dim), idx, cfg, w)
    elif omega.m:
        out.add_block(1, w[:, None] * _point_ops(kind, space, intensity, omega, ev.points))


def lift_batch(
    kind: str, space: Space, intensity: IntensitySpec, W: CylinderForm, ev: BatchEval
) -> BatchValue:
    """``lift`` at every configuration of the batch."""
    if kind not in ("bochner", "deRham"):
        raise ValueError("kind must be 'bochner' or 'deRham'")
    out = ev.scatter(ev.configs, W.degree)
    for t, scale in _plain_terms(W, "lift"):
        _, idx, cfg = ev.configs.rows(t.m)
        if t.F is not None:
            hs = _h_rest_rows(space, intensity, t.F, ev, cfg, idx)
            out.add(t.omega, idx, cfg, scale * hs)
        w = scale * ev.f_rows(t.F, cfg, idx)
        _add_point_ops(kind, space, intensity, out, t.omega, ev, idx, cfg, w)
    return out.value()


def r_pi_sigma_batch(
    space: Space, intensity: IntensitySpec, value: BatchValue, points: np.ndarray
) -> BatchValue:
    """``apply_r_pi_sigma`` at every group of a batched value whose rows
    index ``points``. On each block k and each split (q_0, ..., q_{k-1}) of
    its ``t_basis`` the potential is the Kronecker sum of the slots'
    degree-q blocks ``weitz_matrix(x_s, q_s)``, slot 0 slowest. This is
    exact per block: a key with an empty slot is filed on the smaller
    subset it occupies, and the degree-0 block vanishes."""
    d = space.dim
    blocks = {}
    for k, A in value.blocks.items():
        idx = value.layout.rows(k)[1]
        out = np.zeros_like(A)
        lo = 0
        for split in _splits(value.degree, k, d):
            dims = tuple(math.comb(d, q) for q in split)
            size = math.prod(dims)
            a = A[:, lo : lo + size].reshape(-1, *dims)
            acc = np.zeros_like(a)
            for s, q in enumerate(split):
                M = weitz_matrix(space, intensity, points[idx[:, s]], q)
                img = np.einsum("rij,r...j->r...i", M, np.moveaxis(a, s + 1, -1))
                acc += np.moveaxis(img, -1, s + 1)
            out[:, lo : lo + size] = acc.reshape(len(A), size)
            lo += size
        blocks[k] = out
    return BatchValue(value.layout, value.degree, value.dim, blocks)


def dstar_batch(
    space: Space, intensity: IntensitySpec, W: CylinderForm, ev: BatchEval
) -> BatchValue:
    """``dstar_gamma`` at every configuration of the batch. A key whose
    contracted slot is left empty lands on the subset without that point
    by the batched value's filing rule."""
    betas = beta_fields(space, intensity)
    out = ev.scatter(ev.configs, W.degree - 1)
    for t, scale in _plain_terms(W, "dstar_batch"):
        _, idx, cfg = ev.configs.rows(t.m)
        w = scale * ev.f_rows(t.F, cfg, idx)
        for i in range(t.m):
            out.add(slot_dstar(t.omega, i, betas), idx, cfg, w)
    return out.value()


def _point_partials(W: CylinderForm, ev: BatchEval, layout: RowLayout, a: int) -> BatchValue:
    """``point_partial_form`` in coordinate a for every group of the layout:
    group g differentiates batch point g."""
    out = ev.scatter(layout, W.degree)
    for t, scale in _plain_terms(W, "point_partial_form"):
        _, idx, group = layout.rows(t.m)
        cfg = layout.cfg[group]
        hit = idx == group[:, None]
        # the point is in the subset: differentiate its slot
        w = scale * ev.f_rows(t.F, cfg, idx)
        for s in range(t.m):
            sel = hit[:, s]
            part = _fanout(t.omega, s, lambda sf, _: [sf.partial(a)])
            out.add(part, idx[sel], group[sel], w[sel])
        if t.F is None:
            continue
        # the point is outside: differentiate the cylinder factor through it
        sel = ~hit.any(axis=1)
        idx, group = idx[sel], group[sel]
        S = ev.stat_rows(t.F, cfg[sel], idx)
        coeff = np.zeros(len(idx))
        for j, phi in enumerate(t.F.inners):
            coeff += t.F.outer.partial(j).eval_batch(S) * ev.grads(phi)[group, a]
        out.add(t.omega, idx, group, scale * coeff)
    return out.value()


def point_gradient_energy(
    W1: CylinderForm, W2: CylinderForm, ev: BatchEval
) -> np.ndarray:
    """Per configuration: the Bochner-level energy, the sum over points and
    coordinates of <partial W1, partial W2> (flat backends). One axis is
    held at a time; the sum runs in (point, axis) order."""
    layout = RowLayout(ev.batch, ev.sid)
    per_axis = [
        _point_partials(W1, ev, layout, a).inner(_point_partials(W2, ev, layout, a))
        for a in range(ev.dim)
    ]
    weights = np.column_stack(per_axis).ravel()
    return np.bincount(np.repeat(ev.sid, ev.dim), weights=weights,
                       minlength=ev.batch.n_samples)


def _ibp_rows(
    space: Space, intensity: IntensitySpec, rows: Sequence[tuple], batch: SampleBatch,
) -> tuple[np.ndarray, ...]:
    """The integration-by-parts sum of each (F1, F2, V) row at every
    configuration of the batch. Each integrand is computed once per view:
    beta at the points, and through the memos of the one ``BatchEval`` the
    rows share, the statistics, each cylinder weight G(gamma \\ x) once per
    G and each sum_x <grad phi, V_x> once per (V, phi). The rows are taken
    V by V, so one V's point values are held at a time, axis-major: one row
    per axis."""
    ev = BatchEval(batch, space.dim)
    P, sid = ev.points, ev.sid
    b = beta(space, intensity, P)
    out = [None] * len(rows)
    for V in dict.fromkeys(V for _, _, V in rows):
        mine = [r for r, row in enumerate(rows) if row[2] is V]
        # V_x(gamma) at every point, one row per axis, and its divergence
        vals, divs = np.zeros((P.shape[1], len(P))), np.zeros(len(P))
        for coef, G, v in V.terms:
            # the cylinder factor sees the configuration without the point
            g_pt = coef if G is None else coef * ev._memo("f-x", G, lambda: ev.f_rows(
                G, sid, np.arange(len(sid))[:, None]))
            for a, col in enumerate(v.value_batch(P, table=ev.table).T):
                vals[a] += g_pt * col
            divs += g_pt * v.div_batch(P, table=ev.table)
        per_cfg = batch.segment_sum(_row_dots(b, vals.T) + divs)
        # sum_x <grad_x F, V_x> per configuration, for each F beside V
        directional = {}
        for F in dict.fromkeys(F for r in mine for F in rows[r][:2]):
            directional[F] = np.zeros(batch.n_samples)
            for j, phi in enumerate(F.inners):
                dots = ev._memo(("dir", V), phi, lambda: batch.segment_sum(
                    _row_dots(ev.grads(phi), vals.T)))
                directional[F] += ev.f_rows(F.partial_outer(j)) * dots
        for r in mine:
            F1, F2, _ = rows[r]
            f1, f2 = ev.f_rows(F1), ev.f_rows(F2)
            out[r] = directional[F1] * f2 + f1 * directional[F2] + f1 * f2 * per_cfg
        del vals, divs, directional  # before the next V's are allocated
    return tuple(out)


# ---------------------------------------------------------------------------
# identity checks


def ibp_check(
    space: Space,
    intensity: IntensitySpec,
    window: Window,
    rows: Sequence[tuple[CylinderFunction, CylinderFunction, LiftedVector]],
    rng: RngStream,
    n_samples: int = 100_000,
) -> list[CheckResult]:
    """Integration by parts on the configuration space, one row
    ``ibp-<F1>-<F2>-<V>`` per (F1, F2, V):

        E[(D_V F1) F2] + E[F1 (D_V F2)] + E[F1 F2 (sum_x <beta, V_x> + div V)] = 0,

    each checked as a paired-sample mean against zero at three standard
    errors. All rows read one batch, so they are dependent; each is still a
    mean over ``n_samples`` independent configurations.
    """
    est = sample_views(space, intensity, window, rng, n_samples,
                       lambda b: _ibp_rows(space, intensity, rows, b))
    return [CheckResult.from_estimates(f"ibp-{F1.name}-{F2.name}-{V.name}",
                                       McEstimate.from_samples(vals), McEstimate.exact(0.0),
                                       detail={"n": n_samples})
            for (F1, F2, V), vals in zip(rows, est)]


def dirichlet_check(
    space: Space,
    intensity: IntensitySpec,
    window: Window,
    W1,
    W2,
    rng: RngStream,
    level: str = "functions",
    n_samples: int = 100_000,
) -> CheckResult:
    """Dirichlet-form identity E[energy(W1, W2)] = E[<H W1, W2>] at the
    requested level: 'functions' (carre du champ of the lifted operator),
    'bochner' (gradient pairing vs the Bochner lift), or 'deRham' (d/d*
    pairing vs the de Rham lift); each vectorized over a view of the batch
    (``sample_views``), the form levels on flat backends.
    """
    if level not in ("functions", "bochner", "deRham"):
        raise ValueError("level must be 'functions', 'bochner' or 'deRham'")
    if level == "deRham":
        dW1, dW2 = d_gamma(space, intensity, W1), d_gamma(space, intensity, W2)

    def rows(batch: SampleBatch) -> np.ndarray:
        ev = BatchEval(batch, space.dim)
        if level == "functions":
            sid = batch.sample_ids
            grads1 = [ev.grads(phi) for phi in W1.inners]
            grads2 = [ev.grads(chi) for chi in W2.inners]
            pd1 = [ev.f_rows(W1.partial_outer(j))[sid] for j in range(W1.nargs)]
            pd2 = [ev.f_rows(W2.partial_outer(k))[sid] for k in range(W2.nargs)]
            lhs_pt = np.zeros(batch.points.shape[0])
            for j in range(W1.nargs):
                for k in range(W2.nargs):
                    lhs_pt += pd1[j] * pd2[k] * _row_dots(grads1[j], grads2[k])
            lhs = batch.segment_sum(lhs_pt)
            return lhs - _h_rows(space, intensity, W1, ev) * ev.f_rows(W2)
        if level == "bochner":
            energy = point_gradient_energy(W1, W2, ev)
        else:
            ds1, ds2 = (dstar_batch(space, intensity, W, ev) for W in (W1, W2))
            energy = ev.form(dW1).inner(ev.form(dW2)) + ds1.inner(ds2)
        return energy - lift_batch(level, space, intensity, W1, ev).inner(ev.form(W2))

    diff = McEstimate.from_samples(
        sample_views(space, intensity, window, rng, n_samples, rows))
    return CheckResult.from_estimates(f"dirichlet-{level}-{W1.name}-{W2.name}", diff,
                                      McEstimate.exact(0.0), detail={"n": n_samples})


def adjointness_check(
    space: Space,
    intensity: IntensitySpec,
    window: Window,
    W: CylinderForm,
    V: CylinderForm,
    rng: RngStream,
    n_samples: int = 20_000,
    name: Optional[str] = None,
) -> CheckResult:
    """E[<dW, V>] = E[<W, d*V>] as a paired Monte Carlo mean."""
    dW = d_gamma(space, intensity, W)

    def rows(batch: SampleBatch) -> np.ndarray:
        ev = BatchEval(batch, space.dim)
        lhs = ev.form(dW).inner(ev.form(V))
        return lhs - ev.form(W).inner(dstar_batch(space, intensity, V, ev))

    diff = McEstimate.from_samples(
        sample_views(space, intensity, window, rng, n_samples, rows))
    label = name or f"adjoint-{W.name}-{V.name}"
    return CheckResult.from_estimates(
        label, diff, McEstimate.exact(0.0), detail={"n": n_samples}
    )


def dd_zero_check(
    space: Space,
    intensity: IntensitySpec,
    window: Window,
    W: CylinderForm,
    rng: RngStream,
    n_configs: int = 20,
    tol: float = 1e-10,
) -> CheckResult:
    """d(dW) = 0, evaluated on sampled configurations: deterministic residual."""
    if n_configs < 1:
        raise ValueError("dd_zero_check needs at least one configuration")
    ddW = d_gamma(space, intensity, d_gamma(space, intensity, W))
    norms = sample_views(space, intensity, window, rng, n_configs,
                         lambda b: BatchEval(b, space.dim).form(ddW).norm())
    worst = float(norms.max(initial=0.0))
    return CheckResult.deterministic(
        f"dd-zero-{W.name}", worst, 0.0, tol, detail={"configs": n_configs}
    )


def weitzenbock_check(
    space: Space,
    intensity: IntensitySpec,
    window: Window,
    W: CylinderForm,
    rng: RngStream,
    n_configs: int = 50,
    tol: float = 1e-8,
    name: Optional[str] = None,
) -> CheckResult:
    """De Rham lift minus Bochner lift equals the curvature potential,
    as a deterministic residual over sampled configurations: the largest
    per-configuration norm of the difference."""
    if n_configs < 1:
        raise ValueError("weitzenbock_check needs at least one configuration")

    def resid(batch: SampleBatch) -> np.ndarray:
        ev = BatchEval(batch, space.dim)
        return (
            lift_batch("deRham", space, intensity, W, ev)
            - lift_batch("bochner", space, intensity, W, ev)
            - r_pi_sigma_batch(space, intensity, ev.form(W), ev.points)
        ).norm()

    worst = float(sample_views(space, intensity, window, rng, n_configs, resid).max(initial=0.0))
    label = name or f"weitzenbock-{W.name}"
    return CheckResult.deterministic(
        label, worst, 0.0, tol, detail={"configs": n_configs}
    )


def _rest_batch(ev: BatchEval, cfg: np.ndarray, idx: np.ndarray) -> SampleBatch:
    """Per row r: configuration cfg[r] of the batch without the points
    idx[r], as a batch of configurations of their own."""
    size = ev.configs.size[cfg]
    row = np.repeat(np.arange(len(cfg)), size)
    local = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
    pt = np.repeat(ev.configs.start[cfg], size) + local
    keep = ~(pt[:, None] == idx[row]).any(axis=1)
    offsets = np.concatenate([[0], np.cumsum(size - idx.shape[1])])
    return SampleBatch(ev.points[pt[keep]], offsets)


def factorization_check(
    kind: str,
    space: Space,
    intensity: IntensitySpec,
    window: Window,
    W: CylinderForm,
    rng: RngStream,
    n_trials: int = 50,
    tol: float = 1e-8,
    name: Optional[str] = None,
) -> CheckResult:
    """The subset identification intertwines the lifted operator with
    H otimes 1 + 1 otimes (point-operator sum): for a configuration eta and
    each m-subset xbar of it, with gamma = eta minus xbar,

        I(lift W)(gamma, xbar) = (H F)(gamma) omega(xbar)
                                 + F(gamma) (sum_i op_i omega)(xbar)

    summed over the product terms of W, as a deterministic residual. Per
    trial and subset size m of W, eta is a sampled configuration plus m
    points drawn from sigma. The left side is ``lift_batch`` at every eta,
    which takes H and F through the points outside each subset; the right
    side takes them from each gamma as a configuration of its own. The
    trials' configurations are one ``sample_batch`` and their added points
    one draw on the same stream, trial by trial and size by size. Every
    subset is compared, since a key with an empty slot is filed on the
    smaller subset it occupies, together with other subsets' keys.

    Both sides apply the same point operators (``_slot_op`` on flat space,
    ``_point_ops`` on the sphere) through the same filing, so the row checks
    the subset identification and the H-through-the-cylinder-factor term,
    not the point operators."""
    if n_trials < 1:
        raise ValueError("factorization_check needs at least one trial")
    sizes = sorted(m for m in W.subset_sizes() if m > 0)
    batch = sample_batch(space, intensity, window, rng, n_trials)
    added = _draw_locations(
        space, intensity, window, rng.gen, n_trials * sum(sizes)
    ).reshape(n_trials, sum(sizes), space.ambient_dim)
    lo = np.cumsum([0, *sizes])
    unions = [
        np.vstack([gamma.points, xbar[a:b]])
        for gamma, xbar in zip(batch, added)
        for a, b in zip(lo[:-1], lo[1:])
    ]
    offsets = np.cumsum([0] + [len(u) for u in unions])
    ev = BatchEval(SampleBatch(np.vstack(unions), offsets), space.dim)
    right = ev.scatter(ev.configs, W.degree)
    for t, scale in _plain_terms(W, "factorization_check"):
        _, idx, cfg = ev.configs.rows(t.m)
        rest = BatchEval(_rest_batch(ev, cfg, idx), space.dim)
        if t.F is not None:
            right.add(t.omega, idx, cfg, scale * _h_rows(space, intensity, t.F, rest))
        f = rest.f_rows(t.F, np.arange(len(cfg)), idx[:, :0])  # no point held out
        _add_point_ops(kind, space, intensity, right, t.omega, ev, idx, cfg, scale * f)
    resid = lift_batch(kind, space, intensity, W, ev) - right.value()
    worst = float(resid.norm().max(initial=0.0))
    label = name or f"factorization-{kind}-{W.name}"
    return CheckResult.deterministic(
        label, worst, 0.0, tol, detail={"trials": n_trials}
    )
