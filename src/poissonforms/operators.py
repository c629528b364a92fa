"""Weighted differential operators on the base space and their lifts to the
Poisson configuration space.

Point level, for a reference measure sigma = rho dvol with logarithmic
gradient beta = grad log rho:

    H f   = -Delta f - <beta, grad f>        (functions)
    d*    = formal adjoint of d in L^2(sigma)
    H^B   = coefficientwise H (flat case) or covariant second differences
    H^R   = d d* + d* d

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
    _wedge_basis,
    block_potential,
    curvature_operator,
    interior,
    leibniz_power,
    mv_to_vec,
    relabel_slots,
    t_basis,
    transport_slot,
    vec_to_mv,
    wedge,
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
    eval_form,
    field_values,
)
from .geometry import (
    IntensitySpec,
    Space,
    Sphere,
    Window,
    beta,
    grad_beta,
)
from .pointprocess import Configuration, RngStream, SampleBatch, sample_batch
from .report import CheckResult, McEstimate

__all__ = [
    "FdScheme",
    "OperatorReport",
    "beta_fields",
    "h_pi_sigma",
    "slot_d",
    "slot_dstar",
    "slot_bochner",
    "slot_hr",
    "d_x_at",
    "dstar_x_at",
    "bochner_x_at",
    "h_r_at",
    "d_gamma",
    "dstar_gamma",
    "lift",
    "lift_batch",
    "dstar_batch",
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


@dataclass(frozen=True)
class FdScheme:
    """Step sizes for the covariant finite differences on curved backends.

    ``h`` is the outer step; nested compositions (the de Rham operator needs
    d* of a finite-differenced d) use the smaller ``inner_h`` so that the
    outer difference does not amplify inner truncation error past ~1e-5.
    """

    h: float = 1e-3
    inner_h: float = 1e-4


@dataclass
class OperatorReport:
    """A named bundle of identity checks for one operator battery."""

    name: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def rows(self) -> list[dict]:
        return [c.as_row() for c in self.checks]


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
    if intensity.family == "uniform":
        return [monomial(d, (0,) * d, 0.0) for _ in range(d)]
    raise ValueError(
        "custom intensities have no exact field representation of beta"
    )


def _cache_beta(space: Space, intensity: IntensitySpec, cache: EvalCache) -> np.ndarray:
    key = ("beta", id(intensity))
    if key not in cache.misc:
        cache.misc[key] = _beta_batch(space, intensity, cache.points)
    return cache.misc[key]


def _h_sigma_rest_sum(
    space: Space,
    intensity: IntensitySpec,
    F: CylinderFunction,
    cache: EvalCache,
    idx: tuple[int, ...],
) -> float:
    """Sum of H acting through each point outside the subset on
    F(gamma \\ xbar); the statistic is the same for every such point, so the
    point sums vectorize."""
    n = cache.points.shape[0]
    rest = [r for r in range(n) if r not in idx]
    if not rest:
        return 0.0
    s = cache.stat_without(F, idx)
    bet = _cache_beta(space, intensity, cache)[rest]
    grads = [cache.grads(phi)[rest] for phi in F.inners]
    tot = 0.0
    for j, phi in enumerate(F.inners):
        gj = F.outer.partial(j)
        for k in range(len(F.inners)):
            pjk = gj.partial(k).eval_one(s)
            if pjk != 0.0:
                tot -= pjk * float(np.einsum("pa,pa->", grads[j], grads[k]))
        pj = gj.eval_one(s)
        if pj != 0.0:
            drift = float(np.einsum("pa,pa->", bet, grads[j]))
            tot += pj * (-float(cache.laps(phi)[rest].sum()) - drift)
    return tot


def h_pi_sigma(
    space: Space,
    intensity: IntensitySpec,
    F: CylinderFunction,
    config: Configuration,
    cache: Optional[EvalCache] = None,
) -> float:
    """The lifted operator on cylinder functions: sum of H over the points."""
    if cache is None:
        cache = EvalCache(config)
    return _h_sigma_rest_sum(space, intensity, F, cache, ())


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


def _sff_add(a: SymmetricFormField, b: SymmetricFormField) -> SymmetricFormField:
    return SymmetricFormField(
        a.m, [(t.coef, t.slots) for t in a.terms] + [(t.coef, t.slots) for t in b.terms]
    )


def slot_hr(
    omega: SymmetricFormField, i: int, betas: Sequence[Field], dim: int
) -> SymmetricFormField:
    """De Rham operator in slot i: d d* + d* d."""
    return _sff_add(
        slot_d(slot_dstar(omega, i, betas), i, dim),
        slot_dstar(slot_d(omega, i, dim), i, betas),
    )


# ---------------------------------------------------------------------------
# per-point operators at a point (value level; covariant differences on the
# sphere, exact slot operators on flat backends)


def _transported(space: Space, om_fn, q: np.ndarray, p: np.ndarray) -> Multivector:
    return transport_slot(space, om_fn(q), 0, q, p)


def _cov_diff(space: Space, om_fn, p: np.ndarray, a: int, h: float) -> Multivector:
    fr = space.frame(p)
    qp = space.exp(p, h * fr[a])
    qm = space.exp(p, -h * fr[a])
    vp = _transported(space, om_fn, qp, p)
    vm = _transported(space, om_fn, qm, p)
    return (vp + vm * -1.0) * (1.0 / (2.0 * h))


def _beta_frame(space: Space, intensity: IntensitySpec, p: np.ndarray) -> np.ndarray:
    b = beta(space, intensity, p)
    return space.frame(p) @ space.project_tangent(p, b)


def d_x_at(
    space: Space,
    intensity: IntensitySpec,
    om_fn,
    p: np.ndarray,
    fd: Optional[FdScheme] = None,
) -> Multivector:
    """d omega at p for a single-point form given as p -> Multivector (slot 0,
    frame coordinates at the evaluation point)."""
    fd = fd or FdScheme()
    out = Multivector()
    for a in range(space.dim):
        cov = _cov_diff(space, om_fn, p, a, fd.h)
        out = out + wedge(Multivector({((0, a),): 1.0}), cov)
    return out


def dstar_x_at(
    space: Space,
    intensity: IntensitySpec,
    om_fn,
    p: np.ndarray,
    fd: Optional[FdScheme] = None,
) -> Multivector:
    """d* omega at p: -sum_a (nabla_a + beta_a) iota_a."""
    fd = fd or FdScheme()
    bv = _beta_frame(space, intensity, p)
    eye = np.eye(space.dim)
    out = Multivector()
    v0 = None
    for a in range(space.dim):
        cov = _cov_diff(space, om_fn, p, a, fd.h)
        out = out + interior(eye[a], cov) * -1.0
        if bv[a] != 0.0:
            if v0 is None:
                v0 = om_fn(p)
            out = out + interior(eye[a], v0) * (-bv[a])
    return out


def bochner_x_at(
    space: Space,
    intensity: IntensitySpec,
    om_fn,
    p: np.ndarray,
    fd: Optional[FdScheme] = None,
) -> Multivector:
    """Bochner operator at p: minus the covariant trace Laplacian minus the
    beta-drift, via transported second differences."""
    fd = fd or FdScheme()
    fr = space.frame(p)
    bv = _beta_frame(space, intensity, p)
    v0 = om_fn(p)
    out = Multivector()
    for a in range(space.dim):
        qp = space.exp(p, fd.h * fr[a])
        qm = space.exp(p, -fd.h * fr[a])
        vp = _transported(space, om_fn, qp, p)
        vm = _transported(space, om_fn, qm, p)
        second = (vp + vm + v0 * -2.0) * (1.0 / fd.h**2)
        out = out + second * -1.0
        if bv[a] != 0.0:
            out = out + (vp + vm * -1.0) * (-bv[a] / (2.0 * fd.h))
    return out


def h_r_at(
    space: Space,
    intensity: IntensitySpec,
    om_fn,
    p: np.ndarray,
    fd: Optional[FdScheme] = None,
) -> Multivector:
    """De Rham operator at p: d d* + d* d with nested differences."""
    fd = fd or FdScheme()
    inner_fd = FdScheme(fd.inner_h, fd.inner_h)

    def d_of(q):
        return d_x_at(space, intensity, om_fn, q, inner_fd)

    def ds_of(q):
        return dstar_x_at(space, intensity, om_fn, q, inner_fd)

    return dstar_x_at(space, intensity, d_of, p, fd) + d_x_at(
        space, intensity, ds_of, p, fd
    )


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
    cache: Optional[EvalCache] = None,
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
    if cache is None:
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
    cache: Optional[EvalCache] = None,
    memo: Optional[dict] = None,
) -> FormValue:
    """Derivative of all components of W in coordinate a of configuration
    point i (flat backends; the Bochner-level Dirichlet identity pairs these
    gradients).  ``memo`` persists the symbolic slot partials across calls."""
    if cache is None:
        cache = EvalCache(config)
    comps: dict[tuple[int, ...], Multivector] = {}
    pts = config.points
    for ti, t in enumerate(W.terms):
        if t.mask is not None:
            raise ValueError("point_partial_form expects plain product terms")
        m = t.m
        scale = math.sqrt(math.factorial(m)) * t.coef
        for idx in itertools.combinations(range(config.n), m):
            fval = cache.f_without(t.F, idx)
            if i in idx:
                if fval == 0.0:
                    continue
                slot = idx.index(i)
                key = (ti, slot, a)
                if memo is None:
                    part = t.omega.slot_partial(slot, a)
                elif key not in memo:
                    part = memo[key] = t.omega.slot_partial(slot, a)
                else:
                    part = memo[key]
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
    fd: Optional[FdScheme] = None,
    cache: Optional[EvalCache] = None,
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
    fd = fd or FdScheme()
    if not sphere:
        betas = beta_fields(space, intensity)
    if cache is None:
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
        slot_ops = None
        if not sphere and m > 0:
            slot_ops = [
                slot_bochner(t.omega, i, betas)
                if kind == "bochner"
                else slot_hr(t.omega, i, betas, space.dim)
                for i in range(m)
            ]
        for idx in itertools.combinations(range(config.n), m):
            xbar = pts[list(idx)]
            if t.F is not None:
                hs = _h_sigma_rest_sum(space, intensity, t.F, cache, idx)
                if hs != 0.0:
                    add(idx, t.omega.value(xbar) * (scale * hs))
            fval = cache.f_without(t.F, idx)
            if fval == 0.0 or m == 0:
                continue
            if not sphere:
                for i in range(m):
                    add(idx, slot_ops[i].value(xbar) * (scale * fval))
            else:
                if m != 1:
                    raise NotImplementedError(
                        "sphere lifts are implemented for one-point terms"
                    )

                def om_fn(q, _t=t):
                    return _t.omega.value(q[None, :])

                op = bochner_x_at if kind == "bochner" else h_r_at
                add(idx, op(space, intensity, om_fn, xbar[0], fd) * (scale * fval))
    return FormValue(comps)


# ---------------------------------------------------------------------------
# curvature potential


def weitz_matrix(
    space: Space, intensity: IntensitySpec, p: np.ndarray, k: int
) -> np.ndarray:
    """Degree-k block of the Weitzenboeck potential at p: the curvature
    operator minus the derivation extension of the beta Jacobian."""
    return curvature_operator(space, p, k) - leibniz_power(
        grad_beta(space, intensity, p), k
    )


def r_pi_sigma(
    space: Space, intensity: IntensitySpec, points: np.ndarray, n: int
) -> np.ndarray:
    """Matrix of the lifted curvature potential on the fully occupied
    (n, m)-sector over the given subset points, in the t_basis ordering."""
    points = np.atleast_2d(points)
    m = points.shape[0]
    return block_potential(
        lambda k, x: weitz_matrix(space, intensity, x, k),
        list(points),
        n,
        m,
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
    d = space.dim
    wedge_bases = {k: _wedge_basis(d, k) for k in range(1, d + 1)}
    comps = {}
    for idx, mv in fv.components.items():
        if len(idx) == 0:
            continue
        pts = config.points[list(idx)]
        mats: dict = {}
        acc: dict = {}
        for key, c in mv.coef.items():
            for slot in sorted({s for s, _ in key}):
                positions = [pos for pos, (s, _) in enumerate(key) if s == slot]
                axes = tuple(key[pos][1] for pos in positions)
                ki = len(axes)
                M = mats.get((slot, ki))
                if M is None:
                    M = weitz_matrix(space, intensity, pts[slot], ki)
                    mats[(slot, ki)] = M
                wb = wedge_bases[ki]
                col = wb.index(axes)
                lo, hi = positions[0], positions[-1] + 1
                for row, val in enumerate(M[:, col]):
                    if val == 0.0:
                        continue
                    nk = key[:lo] + tuple((slot, a) for a in wb[row]) + key[hi:]
                    acc[nk] = acc.get(nk, 0.0) + c * float(val)
        comps[idx] = Multivector({k: v for k, v in acc.items() if v != 0.0})
    return FormValue(comps)


# ---------------------------------------------------------------------------
# batched operators over a whole SampleBatch (flat backends)


def _divfield_batch(v, X: np.ndarray) -> np.ndarray:
    if hasattr(v, "div_batch"):
        return np.asarray(v.div_batch(X), dtype=float)
    return np.array([v.div_one(x) for x in X], dtype=float)


def _beta_batch(space: Space, intensity: IntensitySpec, X: np.ndarray) -> np.ndarray:
    if intensity.family == "gaussian":
        return -X / intensity.scale**2
    if intensity.family == "uniform":
        return np.zeros_like(X)
    return np.array([beta(space, intensity, x) for x in X], dtype=float)


def _outer_rows(fn, S: np.ndarray) -> np.ndarray:
    return np.asarray(fn.eval_batch(S), dtype=float)


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
    cfg[r] outside the subset idx[r] on F(gamma \\ xbar) (the batched
    ``_h_sigma_rest_sum``); point sums are configuration sums minus the
    subset points."""

    def rest(per_point: np.ndarray) -> np.ndarray:
        tot = ev.batch.segment_sum(per_point)[cfg]
        for c in range(idx.shape[1]):
            tot = tot - per_point[idx[:, c]]
        return tot

    s = ev.stat_rows(F, cfg, idx)
    bet = _beta_batch(space, intensity, ev.points)
    grads = [ev.grads(phi) for phi in F.inners]
    tot = np.zeros(len(cfg))
    for j, phi in enumerate(F.inners):
        gj = F.outer.partial(j)
        for k in range(F.nargs):
            dots = np.einsum("pa,pa->p", grads[j], grads[k])
            tot -= _outer_rows(gj.partial(k), s) * rest(dots)
        drift = np.einsum("pa,pa->p", bet, grads[j])
        tot += _outer_rows(gj, s) * (-rest(ev.laps(phi)) - rest(drift))
    return tot


def lift_batch(
    kind: str, space: Space, intensity: IntensitySpec, W: CylinderForm, ev: BatchEval
) -> BatchValue:
    """``lift`` at every configuration of the batch (flat backends)."""
    if kind not in ("bochner", "deRham"):
        raise ValueError("kind must be 'bochner' or 'deRham'")
    betas = beta_fields(space, intensity)
    out = ev.scatter(ev.configs, W.degree)
    for t, scale in _plain_terms(W, "lift"):
        _, idx, cfg = ev.configs.rows(t.m)
        if t.F is not None:
            hs = _h_rest_rows(space, intensity, t.F, ev, cfg, idx)
            out.add(t.omega, idx, cfg, scale * hs)
        w = scale * ev.f_rows(t.F, cfg, idx)
        for i in range(t.m):
            op = (
                slot_bochner(t.omega, i, betas)
                if kind == "bochner"
                else slot_hr(t.omega, i, betas, space.dim)
            )
            out.add(op, idx, cfg, w)
    return out.value()


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


def _point_partials(W: CylinderForm, ev: BatchEval, layout: RowLayout) -> BatchValue:
    """``point_partial_form`` for every (point, axis) group of the layout:
    group g differentiates in coordinate g % d of batch point g // d."""
    d = ev.dim
    out = ev.scatter(layout, W.degree)
    for t, scale in _plain_terms(W, "point_partial_form"):
        _, idx, group = layout.rows(t.m)
        pt, ax = group // d, group % d
        cfg = layout.cfg[group]
        hit = idx == pt[:, None]
        # the point is in the subset: differentiate its slot
        w = scale * ev.f_rows(t.F, cfg, idx)
        for s in range(t.m):
            for a in range(d):
                sel = hit[:, s] & (ax == a)
                out.add(t.omega.slot_partial(s, a), idx[sel], group[sel], w[sel])
        if t.F is None:
            continue
        # the point is outside: differentiate the cylinder factor through it
        sel = ~hit.any(axis=1)
        idx, group, pt, ax = idx[sel], group[sel], pt[sel], ax[sel]
        S = ev.stat_rows(t.F, cfg[sel], idx)
        coeff = np.zeros(len(idx))
        for j, phi in enumerate(t.F.inners):
            coeff += _outer_rows(t.F.outer.partial(j), S) * ev.grads(phi)[pt, ax]
        out.add(t.omega, idx, group, scale * coeff)
    return out.value()


def point_gradient_energy(
    W1: CylinderForm, W2: CylinderForm, ev: BatchEval
) -> np.ndarray:
    """Per configuration: the Bochner-level energy, the sum over points and
    coordinates of <partial W1, partial W2> (flat backends)."""
    layout = RowLayout(ev.batch, np.repeat(ev.sid, ev.dim))
    e = _point_partials(W1, ev, layout).inner(_point_partials(W2, ev, layout))
    return np.bincount(layout.cfg, weights=e, minlength=ev.batch.n_samples)


def _lifted_vector_batch(V: LiftedVector, ev: BatchEval) -> tuple[np.ndarray, np.ndarray]:
    """Per-point values V_x(gamma) (P, dim) and divergences (P,)."""
    P = ev.points
    sid = ev.sid
    vals = np.zeros((P.shape[0], P.shape[1]))
    divs = np.zeros(P.shape[0])
    for coef, G, v in V.terms:
        vv = field_values(v, P)
        dv = _divfield_batch(v, P)
        if G is None:
            g_pt = np.full(P.shape[0], coef)
        else:
            # the cylinder factor sees the configuration without the point
            SG = ev.stats(G)[sid] - ev.inner_values(G)
            g_pt = coef * _outer_rows(G.outer, SG)
        vals += g_pt[:, None] * vv
        divs += g_pt * dv
    return vals, divs


def _directional_batch(
    F: CylinderFunction, ev: BatchEval, vvals: np.ndarray
) -> np.ndarray:
    """Per-sample directional derivative sum_x <grad_x F, V_x>."""
    batch = ev.batch
    out = np.zeros(batch.n_samples)
    for j, phi in enumerate(F.inners):
        pj = _outer_rows(F.outer.partial(j), ev.stats(F))
        dots = np.einsum("pa,pa->p", ev.grads(phi), vvals)
        out += pj * np.bincount(ev.sid, weights=dots, minlength=batch.n_samples)
    return out


# ---------------------------------------------------------------------------
# identity checks


def ibp_check(
    space: Space,
    intensity: IntensitySpec,
    window: Window,
    F1: CylinderFunction,
    F2: CylinderFunction,
    V: LiftedVector,
    rng: RngStream,
    n_samples: int = 100_000,
    name: Optional[str] = None,
) -> CheckResult:
    """Integration by parts on the configuration space:

        E[(D_V F1) F2] + E[F1 (D_V F2)] + E[F1 F2 (sum_x <beta, V_x> + div V)] = 0,

    checked as a paired-sample mean against zero at three standard errors.
    """
    batch = sample_batch(space, intensity, window, rng, n_samples)
    ev = BatchEval(batch)
    f1 = _outer_rows(F1.outer, ev.stats(F1))
    f2 = _outer_rows(F2.outer, ev.stats(F2))
    vvals, divs = _lifted_vector_batch(V, ev)
    d1 = _directional_batch(F1, ev, vvals)
    d2 = _directional_batch(F2, ev, vvals)
    bdot = np.einsum(
        "pa,pa->p", _beta_batch(space, intensity, batch.points), vvals
    )
    per_pt = np.bincount(
        batch.sample_ids, weights=bdot + divs, minlength=batch.n_samples
    )
    est = d1 * f2 + f1 * d2 + f1 * f2 * per_pt
    lhs = McEstimate.from_samples(est)
    label = name or f"ibp-{F1.name}-{F2.name}-{V.name}"
    return CheckResult.from_estimates(
        label,
        lhs,
        McEstimate.exact(0.0),
        detail={"n": n_samples},
    )


def _config_iter(batch: SampleBatch):
    for i in range(batch.n_samples):
        yield batch.config(i)


def dirichlet_check(
    space: Space,
    intensity: IntensitySpec,
    window: Window,
    W1,
    W2,
    rng: RngStream,
    level: str = "functions",
    n_samples: int = 100_000,
    fd: Optional[FdScheme] = None,
    name: Optional[str] = None,
) -> CheckResult:
    """Dirichlet-form identity E[energy(W1, W2)] = E[<H W1, W2>] at the
    requested level: 'functions' (carre du champ of the lifted operator),
    'bochner' (gradient pairing vs the Bochner lift), or 'deRham' (d/d*
    pairing vs the de Rham lift); all vectorized over the sample batch,
    the form levels on flat backends.
    """
    if level == "functions":
        batch = sample_batch(space, intensity, window, rng, n_samples)
        ev = BatchEval(batch)
        S1 = ev.stats(W1)
        S2 = ev.stats(W2)
        sid = batch.sample_ids
        P = batch.points
        grads1 = [ev.grads(phi) for phi in W1.inners]
        grads2 = [ev.grads(chi) for chi in W2.inners]
        pd1 = [_outer_rows(W1.outer.partial(j), S1)[sid] for j in range(W1.nargs)]
        pd2 = [_outer_rows(W2.outer.partial(k), S2)[sid] for k in range(W2.nargs)]
        lhs_pt = np.zeros(P.shape[0])
        for j in range(W1.nargs):
            for k in range(W2.nargs):
                lhs_pt += (
                    pd1[j] * pd2[k] * np.einsum("pa,pa->p", grads1[j], grads2[k])
                )
        lhs = np.bincount(sid, weights=lhs_pt, minlength=batch.n_samples)
        # H W1 per sample, chain rule through the statistic
        bet = _beta_batch(space, intensity, P)
        h_pt = np.zeros(P.shape[0])
        for j, phi in enumerate(W1.inners):
            gj = W1.outer.partial(j)
            for k in range(W1.nargs):
                h_pt -= (
                    _outer_rows(gj.partial(k), S1)[sid]
                    * np.einsum("pa,pa->p", grads1[j], grads1[k])
                )
            h_pt += pd1[j] * (
                -ev.laps(phi) - np.einsum("pa,pa->p", bet, grads1[j])
            )
        rhs = (
            np.bincount(sid, weights=h_pt, minlength=batch.n_samples)
            * _outer_rows(W2.outer, S2)
        )
        diff = McEstimate.from_samples(lhs - rhs)
        label = name or f"dirichlet-functions-{W1.name}-{W2.name}"
        return CheckResult.from_estimates(
            label, diff, McEstimate.exact(0.0), detail={"n": n_samples}
        )

    if level not in ("bochner", "deRham"):
        raise ValueError("level must be 'functions', 'bochner' or 'deRham'")
    batch = sample_batch(space, intensity, window, rng, n_samples)
    ev = BatchEval(batch)
    if level == "bochner":
        energy = point_gradient_energy(W1, W2, ev)
    else:
        dW1 = d_gamma(space, intensity, W1)
        dW2 = d_gamma(space, intensity, W2)
        energy = ev.form(dW1).inner(ev.form(dW2)) + dstar_batch(
            space, intensity, W1, ev
        ).inner(dstar_batch(space, intensity, W2, ev))
    op = lift_batch(level, space, intensity, W1, ev)
    diff = McEstimate.from_samples(energy - op.inner(ev.form(W2)))
    label = name or f"dirichlet-{level}-{W1.name}-{W2.name}"
    return CheckResult.from_estimates(
        label, diff, McEstimate.exact(0.0), detail={"n": n_samples}
    )


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
    batch = sample_batch(space, intensity, window, rng, n_samples)
    ev = BatchEval(batch)
    lhs = ev.form(dW).inner(ev.form(V))
    rhs = ev.form(W).inner(dstar_batch(space, intensity, V, ev))
    diff = McEstimate.from_samples(lhs - rhs)
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
    name: Optional[str] = None,
) -> CheckResult:
    """d(dW) = 0, evaluated on sampled configurations: deterministic residual."""
    ddW = d_gamma(space, intensity, d_gamma(space, intensity, W))
    batch = sample_batch(space, intensity, window, rng, n_configs)
    worst = float(BatchEval(batch).form(ddW).norm().max(initial=0.0))
    label = name or f"dd-zero-{W.name}"
    return CheckResult.deterministic(
        label, worst, 0.0, tol, detail={"configs": n_configs}
    )


def weitzenbock_check(
    space: Space,
    intensity: IntensitySpec,
    window: Window,
    W: CylinderForm,
    rng: RngStream,
    n_configs: int = 50,
    tol: float = 1e-8,
    fd: Optional[FdScheme] = None,
    name: Optional[str] = None,
) -> CheckResult:
    """De Rham lift minus Bochner lift equals the curvature potential,
    as a deterministic residual over sampled configurations."""
    batch = sample_batch(space, intensity, window, rng, n_configs)
    n = W.degree
    worst = 0.0
    for cfg in _config_iter(batch):
        cache = EvalCache(cfg)
        a = lift("deRham", space, intensity, W, cfg, fd, cache)
        b = lift("bochner", space, intensity, W, cfg, fd, cache)
        r = apply_r_pi_sigma(space, intensity, eval_form(W, cfg, cache), cfg, n)
        resid = a + b.scale(-1.0) + r.scale(-1.0)
        worst = max(worst, resid.norm())
    label = name or f"weitzenbock-{W.name}"
    return CheckResult.deterministic(
        label, worst, 0.0, tol, detail={"configs": n_configs}
    )


def factorization_check(
    kind: str,
    space: Space,
    intensity: IntensitySpec,
    window: Window,
    W: CylinderForm,
    rng: RngStream,
    n_trials: int = 50,
    tol: float = 1e-8,
    fd: Optional[FdScheme] = None,
    name: Optional[str] = None,
) -> CheckResult:
    """The subset identification intertwines the lifted operator with
    H otimes 1 + 1 otimes (point-operator sum): for sampled (gamma, xbar),

        I(lift W)(gamma, xbar) = (H F)(gamma) omega(xbar)
                                 + F(gamma) (sum_i op_i omega)(xbar)

    summed over the product terms of W, as a deterministic residual."""
    from .pointprocess import _draw_locations, sample

    if not isinstance(space, Sphere):
        betas = beta_fields(space, intensity)
    worst = 0.0
    sizes = sorted(m for m in W.subset_sizes() if m > 0)
    for trial in range(n_trials):
        sub_rng = rng.child(trial)
        gamma = sample(space, intensity, window, sub_rng)
        for m in sizes:
            xbar = _draw_locations(space, intensity, window, sub_rng.gen, m)
            union = gamma.union(xbar)
            got = lift(kind, space, intensity, W, union, fd)
            idx = tuple(range(gamma.n, gamma.n + m))
            left = got.components.get(idx, Multivector()) * (
                1.0 / math.sqrt(math.factorial(m))
            )
            right = Multivector()
            for t in W.terms:
                if t.m != m:
                    continue
                base = t.omega.value(xbar)
                if t.F is not None:
                    hval = h_pi_sigma(space, intensity, t.F, gamma)
                    right = right + base * (t.coef * hval)
                fval = t.f_value(gamma.points)
                if fval == 0.0:
                    continue
                if not isinstance(space, Sphere):
                    for i in range(m):
                        op_om = (
                            slot_bochner(t.omega, i, betas)
                            if kind == "bochner"
                            else slot_hr(t.omega, i, betas, space.dim)
                        )
                        right = right + op_om.value(xbar) * (t.coef * fval)
                else:

                    def om_fn(q, _t=t):
                        return _t.omega.value(q[None, :])

                    op = bochner_x_at if kind == "bochner" else h_r_at
                    right = right + op(
                        space, intensity, om_fn, xbar[0], fd
                    ) * (t.coef * fval)
            worst = max(worst, (left + right * -1.0).norm())
    label = name or f"factorization-{kind}-{W.name}"
    return CheckResult.deterministic(
        label, worst, 0.0, tol, detail={"trials": n_trials}
    )
