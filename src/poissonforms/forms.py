"""Cylinder functions and differential forms over the configuration space.

A cylinder function is F(gamma) = g(<phi_1, gamma>, ..., <phi_N, gamma>) for
an outer function g with explicit partial derivatives and test functions
phi_j on the base space. An n-form is a finite sum of product terms whose
m-point component is

    W_m(gamma)(xbar) = sqrt(m!) * coef * F(gamma minus xbar) * omega(xbar),

with omega a symmetric m-slot form field taking values in the exterior
sector where every slot is occupied. The identification I_m^n removes the
sqrt(m!) and shifts the configuration argument:

    (I_m^n W)(gamma, xbar) = coef * F(gamma) * omega(xbar),

defined for xbar disjoint from gamma; it is the unitary map the factorization
checks are built on.

``BatchEval`` evaluates flat-backend forms at every configuration of a
``SampleBatch`` at once; ``eval_form`` with ``EvalCache`` is the
single-configuration path and the reference the batched one is tested
against.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .exterior import Multivector, relabel_slots, t_basis, wedge
from .pointprocess import Configuration, SampleBatch

__all__ = [
    "OuterFn",
    "Const",
    "Linear",
    "Exp",
    "Monomial",
    "Scaled",
    "Sum",
    "Product",
    "CylinderFunction",
    "SlotForm",
    "SphereSlotOne",
    "SphereSlotTwo",
    "SymmetricFormField",
    "FormTerm",
    "CylinderForm",
    "LiftedVector",
    "FormValue",
    "EvalCache",
    "eval_function",
    "grad_gamma",
    "eval_form",
    "inner_forms",
    "i_n_apply",
    "i_n_inverse",
    "symmetrize",
    "field_values",
    "field_grads",
    "field_laps",
    "RowLayout",
    "BatchValue",
    "BatchEval",
]


# ---------------------------------------------------------------------------
# outer functions with exact partials


class OuterFn:
    nargs: int

    def eval_batch(self, S: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def partial(self, j: int) -> "OuterFn":
        raise NotImplementedError

    def eval_one(self, s: Sequence[float]) -> float:
        return float(self.eval_batch(np.asarray(s, dtype=float)[None, :])[0])

    def __call__(self, S: np.ndarray) -> np.ndarray:
        return self.eval_batch(S)


class Const(OuterFn):
    def __init__(self, c: float, nargs: int = 1):
        self.c = float(c)
        self.nargs = nargs

    def eval_batch(self, S):
        return np.full(np.atleast_2d(S).shape[0], self.c)

    def partial(self, j):
        return Const(0.0, self.nargs)


class Linear(OuterFn):
    """g(s) = w . s + b"""

    def __init__(self, w: Sequence[float], b: float = 0.0):
        self.w = np.asarray(w, dtype=float)
        self.b = float(b)
        self.nargs = len(self.w)

    def eval_batch(self, S):
        return np.atleast_2d(S) @ self.w + self.b

    def partial(self, j):
        return Const(float(self.w[j]), self.nargs)


class Exp(OuterFn):
    """g(s) = c * exp(w . s)"""

    def __init__(self, w: Sequence[float], c: float = 1.0):
        self.w = np.asarray(w, dtype=float)
        self.c = float(c)
        self.nargs = len(self.w)

    def eval_batch(self, S):
        return self.c * np.exp(np.atleast_2d(S) @ self.w)

    def partial(self, j):
        return Exp(self.w, self.c * float(self.w[j]))


class Monomial(OuterFn):
    """g(s) = c * prod_j s_j^{p_j}"""

    def __init__(self, powers: Sequence[int], c: float = 1.0):
        self.powers = tuple(int(p) for p in powers)
        self.c = float(c)
        self.nargs = len(self.powers)

    def eval_batch(self, S):
        S = np.atleast_2d(S)
        out = np.full(S.shape[0], self.c)
        for j, p in enumerate(self.powers):
            if p:
                out = out * S[:, j] ** p
        return out

    def partial(self, j):
        p = self.powers[j]
        if p == 0:
            return Const(0.0, self.nargs)
        down = list(self.powers)
        down[j] = p - 1
        return Monomial(down, self.c * p)


class Scaled(OuterFn):
    def __init__(self, base: OuterFn, c: float):
        self.base = base
        self.c = float(c)
        self.nargs = base.nargs

    def eval_batch(self, S):
        return self.c * self.base.eval_batch(S)

    def partial(self, j):
        return Scaled(self.base.partial(j), self.c)


class Sum(OuterFn):
    def __init__(self, parts: Sequence[OuterFn]):
        self.parts = tuple(parts)
        self.nargs = parts[0].nargs

    def eval_batch(self, S):
        out = self.parts[0].eval_batch(S)
        for p in self.parts[1:]:
            out = out + p.eval_batch(S)
        return out

    def partial(self, j):
        return Sum([p.partial(j) for p in self.parts])


class Product(OuterFn):
    def __init__(self, a: OuterFn, b: OuterFn):
        self.a = a
        self.b = b
        self.nargs = a.nargs

    def eval_batch(self, S):
        return self.a.eval_batch(S) * self.b.eval_batch(S)

    def partial(self, j):
        return Sum([Product(self.a.partial(j), self.b), Product(self.a, self.b.partial(j))])


# ---------------------------------------------------------------------------
# cylinder functions


class CylinderFunction:
    """F(gamma) = outer(<phi_1, gamma>, ..., <phi_N, gamma>)."""

    def __init__(self, outer: OuterFn, inners: Sequence, name: str = "F"):
        if outer.nargs != len(inners):
            raise ValueError("outer arity does not match inner count")
        self.outer = outer
        self.inners = tuple(inners)
        self.name = name
        self._partials: dict[int, CylinderFunction] = {}

    @property
    def nargs(self) -> int:
        return len(self.inners)

    def stat(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        if points.shape[0] == 0:
            return np.zeros(self.nargs)
        return np.array(
            [float(np.sum(f.value_batch(points))) for f in self.inners]
        )

    def value(self, points: np.ndarray) -> float:
        return float(self.outer.eval_batch(self.stat(points)[None, :])[0])

    def value_batch(self, batch: SampleBatch) -> np.ndarray:
        S = np.stack(
            [
                batch.segment_sum(f.value_batch(batch.points))
                for f in self.inners
            ],
            axis=-1,
        )
        return self.outer.eval_batch(S)

    def partial_outer(self, j: int) -> "CylinderFunction":
        if j not in self._partials:
            self._partials[j] = CylinderFunction(
                self.outer.partial(j), self.inners, f"d{j}:{self.name}"
            )
        return self._partials[j]

    def grad_at(self, points: np.ndarray, i: int) -> np.ndarray:
        """Gradient in the point x_i: sum_j d_j g(s) grad phi_j(x_i)."""
        s = self.stat(points)[None, :]
        x = points[i]
        out = None
        for j, f in enumerate(self.inners):
            c = float(self.outer.partial(j).eval_batch(s)[0])
            if c == 0.0:
                continue
            g = c * f.grad_one(x)
            out = g if out is None else out + g
        if out is None:
            out = np.zeros(points.shape[1])
        return out


# ---------------------------------------------------------------------------
# form fields on m-tuples of base points


class SlotForm:
    """One slot of a separable form term: a scalar coefficient field times a
    fixed frame wedge pattern of degree k (Euclidean backend; exact
    derivatives via the field algebra)."""

    def __init__(self, field, axes: Sequence[int], sign: float = 1.0):
        srt = tuple(sorted(axes))
        if len(set(srt)) != len(axes):
            raise ValueError("repeated frame axis in a wedge pattern")
        # sort the axes, tracking the wedge sign
        perm_sign = 1.0
        ax = list(axes)
        for i in range(1, len(ax)):
            j = i
            while j > 0 and ax[j] < ax[j - 1]:
                ax[j], ax[j - 1] = ax[j - 1], ax[j]
                perm_sign = -perm_sign
                j -= 1
        self.field = field
        self.axes = tuple(ax)
        self.sign = float(sign) * perm_sign

    @property
    def degree(self) -> int:
        return len(self.axes)

    def coeff(self, x) -> float:
        return self.sign * self.field.value_one(x)

    def partial(self, axis: int) -> "SlotForm":
        return SlotForm(self.field.partial(axis), self.axes, self.sign)

    def mv_at(self, p, slot: int) -> Multivector:
        c = self.coeff(p)
        if c == 0.0:
            return Multivector()
        return Multivector({tuple((slot, a) for a in self.axes): c})


class SphereSlotOne:
    """Degree-1 slot on the sphere: a tangent vector field read in the
    orthonormal frame at the evaluation point."""

    degree = 1

    def __init__(self, space, vec_field):
        self.space = space
        self.vec = vec_field

    def mv_at(self, p, slot: int) -> Multivector:
        fr = self.space.frame(p)
        v = self.space.project_tangent(p, self.vec.value_one(p))
        return Multivector(
            {((slot, a),): float(fr[a] @ v) for a in range(self.space.dim) if fr[a] @ v != 0.0}
        )


class SphereSlotTwo:
    """Degree-2 slot on the sphere: scalar times the frame area element."""

    degree = 2

    def __init__(self, space, scalar_field):
        self.space = space
        self.scalar = scalar_field

    def mv_at(self, p, slot: int) -> Multivector:
        c = self.scalar.value_one(p)
        if c == 0.0:
            return Multivector()
        return Multivector({((slot, 0), (slot, 1)): float(c)})


@dataclass(frozen=True)
class _SepTerm:
    coef: float
    slots: tuple  # tuple[SlotForm], one per slot


class SymmetricFormField:
    """Finite sum of separable terms over m slots; values are multivectors in
    the sector with every slot occupied. Use ``symmetrize`` to enforce
    invariance under slot exchange (with the sign of the block reordering).
    """

    def __init__(self, m: int, terms: Iterable[tuple[float, Sequence[SlotForm]]]):
        self.m = m
        self.terms = tuple(
            _SepTerm(float(c), tuple(slots)) for c, slots in terms
        )
        degs = {sum(s.degree for s in t.slots) for t in self.terms}
        if len(degs) > 1:
            raise ValueError("mixed total degree in a form field")
        self.degree = degs.pop() if degs else 0
        # separable Euclidean slots evaluate by key concatenation; sphere
        # slots need the generic wedge path
        self._fast = all(
            isinstance(s, SlotForm) for t in self.terms for s in t.slots
        )

    def value(self, points: np.ndarray) -> Multivector:
        if points.ndim == 1:
            points = points[None, :]
        out: dict = {}
        if self._fast:
            for t in self.terms:
                c = t.coef
                key: list = []
                for i, sf in enumerate(t.slots):
                    c *= sf.coeff(points[i])
                    if c == 0.0:
                        break
                    key.extend((i, a) for a in sf.axes)
                else:
                    if c != 0.0:
                        k = tuple(key)
                        out[k] = out.get(k, 0.0) + c
            return Multivector(out)
        total = Multivector()
        for t in self.terms:
            mv = Multivector({(): t.coef})
            for i, sf in enumerate(t.slots):
                mv = wedge(mv, sf.mv_at(points[i], i))
                if mv.is_zero():
                    break
            else:
                total = total + mv
        return total

    def slot_partial(self, i: int, axis: int) -> "SymmetricFormField":
        return SymmetricFormField(
            self.m,
            [
                (
                    t.coef,
                    tuple(
                        s.partial(axis) if j == i else s
                        for j, s in enumerate(t.slots)
                    ),
                )
                for t in self.terms
            ],
        )


def symmetrize(omega: SymmetricFormField) -> SymmetricFormField:
    """Average over slot permutations under the slot identification (wedge
    reordering signs included): the projection onto symmetric form fields."""
    m = omega.m
    out_terms: list[tuple[float, tuple[SlotForm, ...]]] = []
    perms = list(itertools.permutations(range(m)))
    for t in omega.terms:
        for perm in perms:
            # slot i of the new term holds what slot perm[i] held; the sign is
            # the parity of reordering the concatenated wedge pattern
            pattern = Multivector(
                {tuple((i, a) for i, sf in enumerate(t.slots) for a in sf.axes): 1.0}
            )
            relabeled = relabel_slots(pattern, {i: perm[i] for i in range(m)})
            ((_, sign),) = relabeled.coef.items()
            inv = {perm[i]: i for i in range(m)}
            new_slots = tuple(t.slots[inv[i]] for i in range(m))
            out_terms.append((t.coef * sign / math.factorial(m), new_slots))
    return SymmetricFormField(m, out_terms)


# ---------------------------------------------------------------------------
# configuration-level forms


@dataclass(frozen=True)
class FormTerm:
    """One product term: sqrt(m!) coef F(gamma \\ xbar) omega(xbar).

    ``mask`` widens the class just enough to close it under the exterior
    derivative: mask[i] = True means the i-th slot point is removed from the
    cylinder factor's argument (the standard product term has every slot
    removed, mask = None).  Terms with a mask are evaluated by averaging over
    the assignments of subset points to slots, which is the symmetrization
    the component formula presumes; the derivative routines emit such terms
    because the new slot they create stays visible to the cylinder factor.
    """

    omega: SymmetricFormField
    F: Optional[CylinderFunction] = None
    coef: float = 1.0
    mask: Optional[tuple[bool, ...]] = None

    def __post_init__(self):
        if self.mask is not None and len(self.mask) != self.omega.m:
            raise ValueError("mask length must match the slot count")

    @property
    def m(self) -> int:
        return self.omega.m

    def f_value(self, points: np.ndarray) -> float:
        return 1.0 if self.F is None else self.F.value(points)


class CylinderForm:
    """A finite sum of product terms, possibly with different subset sizes m
    but a common total degree n."""

    def __init__(self, terms: Sequence[FormTerm], name: str = "W"):
        self.terms = tuple(terms)
        degs = {t.omega.degree for t in self.terms}
        if len(degs) != 1:
            raise ValueError("terms must share the total degree")
        self.degree = degs.pop()
        self.name = name

    def subset_sizes(self) -> set[int]:
        return {t.m for t in self.terms}


class FormValue:
    """The value of an n-form at one configuration: multivectors indexed by
    the m-subsets (as sorted index tuples) they sit over.

    The subset indexing is bookkeeping; geometrically all components live in
    the one exterior algebra over the configuration's summed tangent spaces.
    Components whose multivector keys do not mention every subset slot (a
    scalar slot factor, say) coincide with covectors filed under a smaller
    subset, so inner products and norms are taken after relabelling keys to
    point indices and merging.
    """

    def __init__(self, components: dict[tuple[int, ...], Multivector]):
        self.components = {
            k: v for k, v in components.items() if v.coef
        }

    def point_coef(self) -> dict:
        """Merge all components into one point-indexed coefficient table.

        Subset tuples are sorted, multivector keys are sorted by slot, so the
        slot -> idx[slot] substitution is monotone and needs no sign."""
        out: dict = {}
        for idx, mv in self.components.items():
            for key, c in mv.coef.items():
                pk = tuple((idx[s], a) for s, a in key)
                out[pk] = out.get(pk, 0.0) + c
        return out

    def inner(self, other: "FormValue") -> float:
        d1 = self.point_coef()
        d2 = other.point_coef()
        if len(d2) < len(d1):
            d1, d2 = d2, d1
        return sum(c * d2[k] for k, c in d1.items() if k in d2)

    def norm(self) -> float:
        return math.sqrt(sum(c * c for c in self.point_coef().values()))

    def __add__(self, other: "FormValue") -> "FormValue":
        out = dict(self.components)
        for k, v in other.components.items():
            out[k] = out[k] + v if k in out else v
        return FormValue(out)

    def scale(self, c: float) -> "FormValue":
        return FormValue({k: v * c for k, v in self.components.items()})


class EvalCache:
    """Per-configuration memo for form evaluation.

    Caches point values, gradients and Laplacians of the inner fields over
    the configuration, and serves the statistics of cylinder factors with
    excluded points by subtracting rows from the full sum -- the subset
    loops in the operators reuse these instead of re-summing every time.
    """

    def __init__(self, config: Configuration):
        self.config = config
        self.points = config.points
        self.misc: dict = {}
        self._vals: dict[int, np.ndarray] = {}
        self._grads: dict[int, np.ndarray] = {}
        self._laps: dict[int, np.ndarray] = {}
        self._stats: dict[int, np.ndarray] = {}
        self._keep: dict[int, object] = {}

    def values(self, f) -> np.ndarray:
        k = id(f)
        if k not in self._vals:
            self._keep[k] = f
            pts = self.points
            if pts.shape[0] == 0:
                self._vals[k] = np.zeros(0)
            elif hasattr(f, "value_batch"):
                self._vals[k] = np.asarray(f.value_batch(pts), dtype=float)
            else:
                self._vals[k] = np.array([f.value_one(x) for x in pts])
        return self._vals[k]

    def grads(self, f) -> np.ndarray:
        k = id(f)
        if k not in self._grads:
            self._keep[k] = f
            pts = self.points
            if pts.shape[0] == 0:
                self._grads[k] = np.zeros((0, pts.shape[1]))
            elif hasattr(f, "grad_batch"):
                self._grads[k] = np.asarray(f.grad_batch(pts), dtype=float)
            else:
                self._grads[k] = np.array([f.grad_one(x) for x in pts])
        return self._grads[k]

    def laps(self, f) -> np.ndarray:
        k = id(f)
        if k not in self._laps:
            self._keep[k] = f
            pts = self.points
            if pts.shape[0] == 0:
                self._laps[k] = np.zeros(0)
            elif hasattr(f, "laplacian_one"):
                self._laps[k] = np.array([f.laplacian_one(x) for x in pts])
            else:
                self._laps[k] = self.values(f.laplacian())
        return self._laps[k]

    def stat_full(self, F: CylinderFunction) -> np.ndarray:
        k = id(F)
        if k not in self._stats:
            self._keep[k] = F
            self._stats[k] = np.array(
                [self.values(phi).sum() for phi in F.inners]
            )
        return self._stats[k]

    def stat_without(self, F: CylinderFunction, excl: Sequence[int]) -> np.ndarray:
        s = self.stat_full(F)
        if not excl:
            return s
        s = s.copy()
        for j, phi in enumerate(F.inners):
            v = self.values(phi)
            for i in excl:
                s[j] -= v[i]
        return s

    def f_without(self, F: Optional[CylinderFunction], excl: Sequence[int]) -> float:
        if F is None:
            return 1.0
        return F.outer.eval_one(self.stat_without(F, excl))


def eval_function(F: CylinderFunction, config: Configuration) -> float:
    return F.value(config.points)


def grad_gamma(F: CylinderFunction, config: Configuration) -> np.ndarray:
    """Configuration gradient: row i is the gradient of F in the i-th point
    (ambient coordinates, tangential on the sphere)."""
    pts = config.points
    out = np.zeros_like(pts, dtype=float)
    for i in range(config.n):
        out[i] = F.grad_at(pts, i)
    return out


class LiftedVector:
    """Vector field over the configuration: V_x(gamma) = sum of terms
    coef * G(gamma \\ x) * v(x) with G a cylinder function (or None for 1)
    and v a base vector field."""

    def __init__(self, terms: Sequence[tuple[float, Optional[CylinderFunction], object]], name: str = "V"):
        self.terms = tuple(terms)
        self.name = name


def _masked_component(
    t: FormTerm, cache: EvalCache, idx: tuple[int, ...]
) -> Multivector:
    """Assignment-averaged component of a masked term over one subset."""
    m = t.m
    pts = cache.points
    total = Multivector()
    for nu in itertools.permutations(range(m)):
        # slot i takes the point at subset position nu[i]
        order = [idx[nu[i]] for i in range(m)]
        excl = [order[i] for i in range(m) if t.mask[i]]
        fval = cache.f_without(t.F, excl)
        if fval == 0.0:
            continue
        mv = t.omega.value(pts[order])
        if mv.is_zero():
            continue
        total = total + relabel_slots(mv, {i: nu[i] for i in range(m)}) * fval
    return total * (1.0 / math.factorial(m))


def eval_form(
    W: CylinderForm, config: Configuration, cache: Optional[EvalCache] = None
) -> FormValue:
    """All components of W at the configuration."""
    if cache is None:
        cache = EvalCache(config)
    comps: dict[tuple[int, ...], Multivector] = {}
    pts = config.points
    for t in W.terms:
        m = t.m
        scale = math.sqrt(math.factorial(m)) * t.coef
        if scale == 0.0:
            continue
        for idx in itertools.combinations(range(config.n), m):
            if t.mask is None:
                fval = cache.f_without(t.F, idx)
                if fval == 0.0:
                    continue
                mv = t.omega.value(pts[list(idx)]) * (scale * fval)
            else:
                mv = _masked_component(t, cache, idx) * scale
            if not mv.coef:
                continue
            comps[idx] = comps[idx] + mv if idx in comps else mv
    return FormValue(comps)


def inner_forms(
    W1: CylinderForm,
    W2: CylinderForm,
    config: Configuration,
    cache: Optional[EvalCache] = None,
) -> float:
    """Pointwise inner product <W1(gamma), W2(gamma)> summing the Gram
    products of all matching components."""
    if cache is None:
        cache = EvalCache(config)
    return eval_form(W1, config, cache).inner(eval_form(W2, config, cache))


def _check_disjoint(config: Configuration, xbar: np.ndarray):
    if config.n == 0 or xbar.shape[0] == 0:
        return
    d2 = np.sum(
        (config.points[:, None, :] - xbar[None, :, :]) ** 2, axis=-1
    )
    if np.min(d2) < 1e-24:
        raise ValueError(
            "i_n_apply requires the added points to be disjoint from the configuration"
        )


def i_n_apply(W: CylinderForm, config: Configuration, xbar: np.ndarray) -> Multivector:
    """(I_m^n W)(gamma, xbar) = (m!)^{-1/2} W_m(gamma + xbar)(xbar): evaluate
    the m = len(xbar) component with the configuration argument shifted.
    Requires xbar disjoint from gamma."""
    xbar = np.atleast_2d(np.asarray(xbar, dtype=float))
    _check_disjoint(config, xbar)
    m = xbar.shape[0]
    out = Multivector()
    for t in W.terms:
        if t.m != m:
            continue
        if t.mask is None:
            fval = t.f_value(config.points)
            if fval == 0.0:
                continue
            out = out + t.omega.value(xbar) * (t.coef * fval)
        else:
            # the cylinder factor keeps the unmasked slot points
            acc = Multivector()
            for nu in itertools.permutations(range(m)):
                keep = [nu[i] for i in range(m) if not t.mask[i]]
                arg = (
                    np.concatenate([config.points, xbar[keep]], axis=0)
                    if keep
                    else config.points
                )
                fval = t.f_value(arg)
                if fval == 0.0:
                    continue
                mv = t.omega.value(xbar[list(nu)])
                if mv.is_zero():
                    continue
                acc = acc + relabel_slots(mv, {i: nu[i] for i in range(m)}) * fval
            out = out + acc * (t.coef / math.factorial(m))
    return out


def i_n_inverse(
    image: Callable[[Configuration, np.ndarray], Multivector], m: int
) -> Callable[[Configuration, Sequence[int]], Multivector]:
    """Invert the identification: from (gamma, xbar) |-> (I_m^n W)(gamma, xbar)
    recover the m-component of W as a function of (gamma, subset indices):
    W_m(gamma)(xbar) = sqrt(m!) image(gamma \\ xbar, xbar)."""

    def component(config: Configuration, idx: Sequence[int]) -> Multivector:
        idx = tuple(idx)
        xbar = config.points[list(idx)]
        rest = config.without(idx)
        return image(rest, xbar) * math.sqrt(math.factorial(m))

    return component


# ---------------------------------------------------------------------------
# batched evaluation over a whole SampleBatch (flat backends)


def field_values(f, X: np.ndarray) -> np.ndarray:
    """Values of a scalar or vector field at the rows of X."""
    if hasattr(f, "value_batch"):
        return np.asarray(f.value_batch(X), dtype=float)
    return np.array([f.value_one(x) for x in X], dtype=float)


def field_grads(f, X: np.ndarray) -> np.ndarray:
    if hasattr(f, "grad_batch"):
        return np.asarray(f.grad_batch(X), dtype=float)
    return np.array([f.grad_one(x) for x in X], dtype=float)


def field_laps(f, X: np.ndarray) -> np.ndarray:
    if hasattr(f, "laplacian_one"):
        return np.array([f.laplacian_one(x) for x in X], dtype=float)
    return field_values(f.laplacian(), X)


@functools.lru_cache(maxsize=None)
def _colex(n: int, k: int) -> np.ndarray:
    """The k-subsets of range(n) in colexicographic order, so that the
    subset c_0 < ... < c_{k-1} sits at row sum_j C(c_j, j + 1)."""
    out = np.array(
        sorted(itertools.combinations(range(n), k), key=lambda c: c[::-1]),
        dtype=np.intp,
    ).reshape(math.comb(n, k), k)
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=None)
def _basis_index(n: int, k: int, d: int) -> dict:
    return {key: col for col, key in enumerate(t_basis(n, k, d))}


class RowLayout:
    """The rows of a batched form value.

    Each group looks at one configuration of the batch (several groups may
    look at the same one); its k-rows are the k-subsets of that
    configuration's points, as global point indices in colexicographic
    order, so the row of a subset is found by the combinatorial number
    system instead of a search."""

    def __init__(self, batch: SampleBatch, cfg: np.ndarray):
        self.cfg = np.asarray(cfg, dtype=np.intp)
        self.start = batch.offsets[self.cfg]
        self.size = np.diff(batch.offsets)[self.cfg]
        nmax = int(self.size.max(initial=0))
        self._binom = np.array(
            [[math.comb(a, b) for b in range(nmax + 2)] for a in range(nmax + 1)],
            dtype=np.intp,
        )
        self._rows: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    @property
    def n_groups(self) -> int:
        return len(self.cfg)

    def rows(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(first row of each group, (R, k) subsets, group of each row)."""
        if k not in self._rows:
            count = (
                self._binom[self.size, k]
                if k < self._binom.shape[1]
                else np.zeros(self.n_groups, dtype=np.intp)
            )
            first = np.concatenate([[0], np.cumsum(count)])
            idx = np.empty((int(first[-1]), k), dtype=np.intp)
            for n in np.unique(self.size[count > 0]):
                gs = np.flatnonzero(self.size == n)
                combos = _colex(int(n), k)
                rows = first[gs][:, None] + np.arange(len(combos))
                idx[rows] = self.start[gs][:, None, None] + combos
            group = np.repeat(np.arange(self.n_groups), count)
            self._rows[k] = (first, idx, group)
        return self._rows[k]

    def find(self, group: np.ndarray, subsets: np.ndarray) -> np.ndarray:
        """Row numbers of sorted subsets (global point indices) of the given
        groups."""
        first = self.rows(subsets.shape[1])[0]
        local = subsets - self.start[group][:, None]
        rank = sum(self._binom[local[:, j], j + 1] for j in range(subsets.shape[1]))
        return first[group] + rank


class BatchValue:
    """A form value at every group of a layout: for each k a dense
    (k-rows, len(t_basis(degree, k, d))) array.

    A key that leaves some slot of its subset empty (a scalar slot, or a
    slot vacated by d*) is filed on the row of the smaller subset it
    occupies -- the batched ``FormValue.point_coef`` -- so inner products
    and norms are row-wise dots summed per group."""

    def __init__(self, layout: RowLayout, degree: int, blocks: dict[int, np.ndarray]):
        self.layout = layout
        self.degree = degree
        self.blocks = blocks

    def inner(self, other: "BatchValue") -> np.ndarray:
        out = np.zeros(self.layout.n_groups)
        if other.degree != self.degree:
            return out  # forms of different degrees are orthogonal
        for k, A in self.blocks.items():
            B = other.blocks.get(k)
            if B is None:
                continue
            dots = np.einsum("rc,rc->r", A, B)
            out += np.bincount(
                self.layout.rows(k)[2], weights=dots, minlength=len(out)
            )
        return out

    def norm(self) -> np.ndarray:
        return np.sqrt(np.maximum(self.inner(self), 0.0))


class _Scatter:
    """Collects weighted form-field values on subset rows and files each
    basis key on the row of the points it occupies."""

    def __init__(self, ev: "BatchEval", layout: RowLayout, degree: int):
        self.ev = ev
        self.layout = layout
        self.degree = degree
        self.parts: dict[int, tuple[list, list]] = {}

    def add(
        self,
        omega: SymmetricFormField,
        idx: np.ndarray,
        group: np.ndarray,
        weight: np.ndarray,
        nu: Optional[tuple[int, ...]] = None,
    ) -> None:
        """Add weight * omega over the rows, slot s at subset position nu[s]."""
        if not len(idx) or not omega.terms:
            return
        nu = nu or tuple(range(omega.m))
        vals = self.ev.values
        targets: dict = {}
        for st, (pos, col, sign) in zip(omega.terms, self.ev._plan(omega, nu)):
            c = weight * (st.coef * sign)
            for s, sf in enumerate(st.slots):
                c = c * (sf.sign * vals(sf.field)[idx[:, nu[s]]])
            if pos not in targets:
                targets[pos] = self.layout.find(group, idx[:, list(pos)])
            width = len(_basis_index(self.degree, len(pos), self.ev.dim))
            flat, w = self.parts.setdefault(len(pos), ([], []))
            flat.append(targets[pos] * width + col)
            w.append(c)

    def value(self) -> BatchValue:
        blocks = {}
        for k, (flat, w) in self.parts.items():
            R = len(self.layout.rows(k)[1])
            width = len(_basis_index(self.degree, k, self.ev.dim))
            blocks[k] = np.bincount(
                np.concatenate(flat), weights=np.concatenate(w), minlength=R * width
            ).reshape(R, width)
        return BatchValue(self.layout, self.degree, blocks)


class BatchEval:
    """Cylinder forms of the flat backends evaluated over a whole
    ``SampleBatch`` at once; the batched counterpart of ``EvalCache`` and
    ``eval_form``.

    Every field is evaluated once on all points of the batch; an m-subset
    is a row of index arrays built from the batch offsets, a cylinder
    factor F(gamma \\ xbar) is the outer function of the configuration's
    statistics minus the subset points' rows, and a form value is a
    ``BatchValue``."""

    def __init__(self, batch: SampleBatch):
        self.batch = batch
        self.points = batch.points
        self.sid = batch.sample_ids
        self.dim = batch.points.shape[1]
        self.configs = RowLayout(batch, np.arange(batch.n_samples))
        self._cache: dict = {}

    def _memo(self, kind, obj, make):
        key = (kind, id(obj))
        hit = self._cache.get(key)
        if hit is None:
            # the object is kept alive so that its id is not reused
            hit = self._cache[key] = (obj, make())
        return hit[1]

    def values(self, f) -> np.ndarray:
        return self._memo("val", f, lambda: field_values(f, self.points))

    def grads(self, f) -> np.ndarray:
        return self._memo("grad", f, lambda: field_grads(f, self.points))

    def laps(self, f) -> np.ndarray:
        return self._memo("lap", f, lambda: field_laps(f, self.points))

    def stats(self, F: CylinderFunction) -> np.ndarray:
        """(n_samples, nargs) statistics <phi_j, gamma> of every configuration."""
        n = self.batch.n_samples
        return self._memo("stats", F.inners, lambda: np.column_stack(
            [np.bincount(self.sid, weights=self.values(phi), minlength=n)
             for phi in F.inners]
        ).reshape(n, F.nargs))

    def inner_values(self, F: CylinderFunction) -> np.ndarray:
        """(points, nargs) values of the statistics' integrands."""
        return self._memo("inner", F.inners, lambda: np.column_stack(
            [self.values(phi) for phi in F.inners]
        ).reshape(len(self.points), F.nargs))

    def stat_rows(self, F: CylinderFunction, cfg: np.ndarray, excl: np.ndarray) -> np.ndarray:
        """Statistics of F at configuration cfg[r] without the points excl[r]."""
        S = self.stats(F)[cfg]
        U = self.inner_values(F)
        for c in range(excl.shape[1]):
            S = S - U[excl[:, c]]
        return S

    def f_rows(
        self, F: Optional[CylinderFunction], cfg: np.ndarray, excl: np.ndarray
    ) -> np.ndarray:
        """F(gamma_cfg[r] minus the points excl[r]); 1 for F = None."""
        if F is None:
            return np.ones(len(cfg))
        return np.asarray(F.outer.eval_batch(self.stat_rows(F, cfg, excl)), dtype=float)

    def _plan(self, omega: SymmetricFormField, nu: tuple[int, ...]) -> list:
        """Per separable term: the subset positions its key occupies, its
        column among the keys over those positions, and the sign of sorting
        the key after slot s moves to position nu[s]."""

        def make():
            if not omega._fast:
                raise ValueError("batched evaluation needs flat SlotForm slots")
            plan = []
            for st in omega.terms:
                key = tuple((s, a) for s, sf in enumerate(st.slots) for a in sf.axes)
                ((skey, sign),) = relabel_slots(
                    Multivector({key: 1.0}), dict(enumerate(nu))
                ).coef.items()
                pos = tuple(sorted({q for q, _ in skey}))
                comp = tuple((pos.index(q), a) for q, a in skey)
                plan.append((pos, _basis_index(omega.degree, len(pos), self.dim)[comp], sign))
            return plan

        return self._memo(("plan", nu), omega, make)

    def scatter(self, layout: RowLayout, degree: int) -> _Scatter:
        return _Scatter(self, layout, degree)

    def form(self, W: CylinderForm) -> BatchValue:
        """All components of W at every configuration of the batch."""
        out = self.scatter(self.configs, W.degree)
        for t in W.terms:
            m = t.m
            scale = math.sqrt(math.factorial(m)) * t.coef
            if scale == 0.0:
                continue
            _, idx, cfg = self.configs.rows(m)
            if t.mask is None:
                out.add(t.omega, idx, cfg, scale * self.f_rows(t.F, cfg, idx))
                continue
            # average over the assignments of subset points to slots; the
            # cylinder factor misses only the points in masked slots
            for nu in itertools.permutations(range(m)):
                excl = idx[:, [nu[i] for i in range(m) if t.mask[i]]]
                w = (scale / math.factorial(m)) * self.f_rows(t.F, cfg, excl)
                out.add(t.omega, idx, cfg, w, nu)
        return out.value()
