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

``BatchEval`` evaluates forms at every configuration of a ``SampleBatch``
at once; every form-level check runs on it. It does not depend on the
backend: the sphere enters through field classes and the point operators.
It is also the one batched reader of cylinder factors: its ``stats`` and
``f_rows`` read F for the Monte Carlo checks and, at the ends of a chunk of
diffusion replicas, for the scalar and form semigroups alike. Its statistics are
``SampleBatch.segment_sum``s, the one per-configuration sum. It reads
fields through their own batched methods (``value_batch``, ``grad_batch``,
``lap_batch``), on the one ``PointTable`` it keeps over its points.
``eval_form`` with ``EvalCache`` is the single-configuration path, kept as
the reference the batched one is tested against.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .exterior import Multivector, _sort_sign, relabel_slots, t_basis, wedge
from .fields import PointTable
from .pointprocess import Configuration, SampleBatch

__all__ = [
    "OuterFn",
    "Const",
    "Linear",
    "Exp",
    "Monomial",
    "CylinderFunction",
    "SlotForm",
    "SymmetricFormField",
    "FormTerm",
    "CylinderForm",
    "LiftedVector",
    "FormValue",
    "EvalCache",
    "eval_form",
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


def _row_dots(S: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row-wise dot product of S (rows, d) with the weights w[..., j], one
    vector for every row or one row of weights per row, the column products
    summed left to right: a row's value does not depend on the rows
    evaluated beside it, as a BLAS matrix-vector product's may."""
    S = np.atleast_2d(S)
    out = S[:, 0] * w[..., 0]
    for j in range(1, w.shape[-1]):
        out += S[:, j] * w[..., j]
    return out


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
        return _row_dots(S, self.w) + self.b

    def partial(self, j):
        return Const(float(self.w[j]), self.nargs)


class Exp(OuterFn):
    """g(s) = c * exp(w . s)"""

    def __init__(self, w: Sequence[float], c: float = 1.0):
        self.w = np.asarray(w, dtype=float)
        self.c = float(c)
        self.nargs = len(self.w)

    def eval_batch(self, S):
        return self.c * np.exp(_row_dots(S, self.w))

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

    def partial_outer(self, j: int) -> "CylinderFunction":
        if j not in self._partials:
            self._partials[j] = CylinderFunction(
                self.outer.partial(j), self.inners, f"d{j}:{self.name}"
            )
        return self._partials[j]


# ---------------------------------------------------------------------------
# form fields on m-tuples of base points


class SlotForm:
    """One slot of a separable form term: a scalar coefficient field times a
    fixed frame wedge pattern of degree k. On flat space the frame is the
    coordinate basis and ``partial`` differentiates the coefficient exactly
    through the field algebra. On the sphere the frame is the orthonormal one:
    the area slot is a scalar times e_0 ^ e_1, a 1-form slot a frame-coordinate
    field (``fields.SphereFrameCoordinate``) times e_a, and ``partial`` does
    not apply (the frame turns from point to point)."""

    def __init__(self, field, axes: Sequence[int], sign: float = 1.0):
        # sort the axes, tracking the wedge sign
        ax, perm_sign = _sort_sign(axes)
        if perm_sign == 0:
            raise ValueError("repeated frame axis in a wedge pattern")
        self.field = field
        self.axes = ax
        self.sign = float(sign) * perm_sign

    @property
    def degree(self) -> int:
        return len(self.axes)

    def partial(self, axis: int) -> "SlotForm":
        return SlotForm(self.field.partial(axis), self.axes, self.sign)

    def coeffs(self, ev: "BatchEval") -> np.ndarray:
        """The coefficient at every point of the batch."""
        return self.sign * ev.values(self.field)

    def mv_at(self, p, slot: int) -> Multivector:
        c = self.sign * self.field.value_one(p)
        if c == 0.0:
            return Multivector()
        return Multivector({tuple((slot, a) for a in self.axes): c})


@dataclass(frozen=True)
class _SepTerm:
    coef: float
    slots: tuple  # tuple[SlotForm], one per slot


class SymmetricFormField:
    """Finite sum of separable terms over m slots; values are multivectors in
    the sector with every slot occupied."""

    def __init__(self, m: int, terms: Iterable[tuple[float, Sequence[SlotForm]]]):
        self.m = m
        self.terms = tuple(
            _SepTerm(float(c), tuple(slots)) for c, slots in terms
        )
        degs = {sum(s.degree for s in t.slots) for t in self.terms}
        if len(degs) > 1:
            raise ValueError("mixed total degree in a form field")
        self.degree = degs.pop() if degs else 0

    def value(self, points: np.ndarray) -> Multivector:
        if points.ndim == 1:
            points = points[None, :]
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


class EvalCache:
    """Per-configuration memo for form evaluation.

    Caches point values and gradients of the inner fields over
    the configuration, and serves the statistics of cylinder factors with
    excluded points by subtracting rows from the full sum -- the subset
    loops in the operators reuse these instead of re-summing every time.
    """

    def __init__(self, config: Configuration):
        self.config = config
        self.points = config.points
        self._vals: dict[int, np.ndarray] = {}
        self._grads: dict[int, np.ndarray] = {}
        self._stats: dict[int, np.ndarray] = {}
        self._keep: dict[int, object] = {}

    def _memo(self, table: dict, f, evaluate, empty_shape: tuple) -> np.ndarray:
        k = id(f)
        if k not in table:
            self._keep[k] = f
            pts = self.points
            table[k] = evaluate(pts) if pts.shape[0] else np.zeros(empty_shape)
        return table[k]

    def values(self, f) -> np.ndarray:
        return self._memo(self._vals, f, f.value_batch, (0,))

    def grads(self, f) -> np.ndarray:
        return self._memo(self._grads, f, f.grad_batch, (0, self.points.shape[1]))

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


def eval_form(W: CylinderForm, config: Configuration) -> FormValue:
    """All components of W at the configuration."""
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


# ---------------------------------------------------------------------------
# batched evaluation over a whole SampleBatch


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

    Each group is one configuration of the batch; its k-rows are the
    k-subsets of that configuration's points, as global point indices in
    colexicographic order, so the row of a subset is found by the
    combinatorial number system instead of a search."""

    def __init__(self, batch: SampleBatch):
        self.start = batch.offsets[:-1]
        self.size = np.diff(batch.offsets)
        self._binoms: dict[int, np.ndarray] = {}
        self._rows: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def _binom(self, b: int) -> np.ndarray:
        """C(a, b) for a up to the largest group size. Columns are built
        only for the b that ``rows`` and ``find`` read (b <= k): the whole
        table overflows int64 from 67 points on."""
        if b not in self._binoms:
            self._binoms[b] = np.array(
                [math.comb(a, b) for a in range(self.size.max(initial=0) + 1)], dtype=np.intp
            )
        return self._binoms[b]

    def rows(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(first row of each group, (R, k) subsets, group of each row)."""
        if k not in self._rows:
            count = self._binom(k)[self.size]
            first = np.concatenate([[0], np.cumsum(count)])
            idx = np.empty((int(first[-1]), k), dtype=np.intp)
            for n in np.unique(self.size[count > 0]) if k else ():
                gs = np.flatnonzero(self.size == n)
                combos = _colex(int(n), k)
                rows = first[gs][:, None] + np.arange(len(combos))
                idx[rows] = self.start[gs][:, None, None] + combos
            group = np.repeat(np.arange(len(self.size)), count)
            self._rows[k] = (first, idx, group)
        return self._rows[k]

    def find(self, group: np.ndarray, subsets: np.ndarray) -> np.ndarray:
        """Row numbers of sorted subsets (global point indices) of the given
        groups."""
        first = self.rows(subsets.shape[1])[0]
        local = subsets - self.start[group][:, None]
        rank = sum(self._binom(j + 1)[local[:, j]] for j in range(subsets.shape[1]))
        return first[group] + rank


class BatchValue:
    """A form value at every group of a layout: for each k a dense
    (k-rows, len(t_basis(degree, k, dim))) array, dim the tangent dimension.

    A key that leaves some slot of its subset empty (a scalar slot, or a
    slot vacated by d*) is filed on the row of the smaller subset it
    occupies -- the batched ``FormValue.point_coef`` -- so inner products
    and norms are row-wise dots summed per group."""

    def __init__(
        self, layout: RowLayout, degree: int, dim: int, blocks: dict[int, np.ndarray]
    ):
        self.layout = layout
        self.degree = degree
        self.dim = dim
        self.blocks = blocks

    def inner(self, other: "BatchValue") -> np.ndarray:
        out = np.zeros(len(self.layout.size))
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

    def __sub__(self, other: "BatchValue") -> "BatchValue":
        """Blockwise difference of two values on one layout and degree."""
        blocks = {
            k: self.blocks.get(k, 0.0) - other.blocks.get(k, 0.0)
            for k in self.blocks.keys() | other.blocks.keys()
        }
        return BatchValue(self.layout, self.degree, self.dim, blocks)

    def __rmul__(self, c: float) -> "BatchValue":
        """The value times the number c, block by block."""
        blocks = {k: c * A for k, A in self.blocks.items()}
        return BatchValue(self.layout, self.degree, self.dim, blocks)


class _Scatter:
    """Collects weighted form-field values on subset rows and files each
    basis key on the row of the points it occupies."""

    def __init__(self, ev: "BatchEval", degree: int):
        self.ev = ev
        self.degree = degree
        # per k: the filed flat indices (row * width + column), coefficients
        self.parts: dict[int, tuple[list, list]] = {}

    def add(self, omega: SymmetricFormField, idx: np.ndarray, cfg: np.ndarray,
            weight: np.ndarray, nu: Optional[tuple[int, ...]] = None) -> None:
        """Add weight * omega over the rows, slot s at subset position nu[s]."""
        if not len(idx) or not omega.terms:
            return
        nu = nu or tuple(range(omega.m))
        coeffs: dict = {}
        targets: dict = {}
        for st, pos, col, sign in self.ev._plan(omega, nu):
            c = weight * (st.coef * sign)
            for s, sf in enumerate(st.slots):
                if id(sf) not in coeffs:
                    coeffs[id(sf)] = sf.coeffs(self.ev)
                c = c * coeffs[id(sf)][idx[:, nu[s]]]
            if pos not in targets:
                targets[pos] = self.ev.configs.find(cfg, idx[:, list(pos)])
            width = len(_basis_index(self.degree, len(pos), self.ev.dim))
            flat, w = self.parts.setdefault(len(pos), ([], []))
            flat.append(targets[pos] * width + col)
            w.append(c)

    def add_block(self, k: int, block: np.ndarray) -> None:
        """Add a dense (k-rows, basis) block of coefficients."""
        flat, w = self.parts.setdefault(k, ([], []))
        flat.append(np.arange(block.size))
        w.append(block.ravel())

    def value(self) -> BatchValue:
        blocks = {}
        for k, (flat, w) in self.parts.items():
            R = len(self.ev.configs.rows(k)[1])
            width = len(_basis_index(self.degree, k, self.ev.dim))
            blocks[k] = np.bincount(
                np.concatenate(flat), weights=np.concatenate(w), minlength=R * width
            ).reshape(R, width)
        return BatchValue(self.ev.configs, self.degree, self.ev.dim, blocks)


class BatchEval:
    """Cylinder forms evaluated over a whole ``SampleBatch`` at once; the
    batched counterpart of ``EvalCache`` and ``eval_form``. ``dim`` is the
    tangent dimension of the space the batch lives on (2 on the sphere,
    whose points have 3 coordinates). A Monte Carlo check builds one per
    view that ``sample_views`` draws, or per chunk of diffusion replicas.

    Every field is evaluated once per batch through one ``PointTable`` over
    its points: each Gaussian factor exp(-a |x - c|^2 / 2) of a (rate,
    centre) pair is computed once and shared by the values, gradients and
    Laplacians of every field the batch evaluates, and by the lifted
    vectors' values and divergences. The table lives as long as this
    object. An m-subset is a row of index arrays built from the batch
    offsets, a cylinder factor F(gamma \\ xbar) is the outer function of
    the configuration's statistics (``segment_sum``s) minus the subset
    points' rows, read by ``f_rows``, and a form value is a ``BatchValue``.
    Each statistic <phi, gamma> is summed once per phi, and F at every
    configuration is evaluated once per F.
    Every slot is a ``SlotForm``, so nothing here depends on the backend;
    the lifts built on it run on both, d* and the point partials on flat ones."""

    def __init__(self, batch: SampleBatch, dim: int):
        self.batch = batch
        self.points = batch.points
        self.sid = batch.sample_ids
        self.dim = dim
        self.table = PointTable(self.points)
        self.configs = RowLayout(batch)
        self._cache: dict = {}

    def _memo(self, kind, obj, make):
        key = (kind, id(obj))
        hit = self._cache.get(key)
        if hit is None:
            # the object is kept alive so that its id is not reused
            hit = self._cache[key] = (obj, make())
        return hit[1]

    def values(self, f) -> np.ndarray:
        return self._memo("val", f, lambda: f.value_batch(self.points, table=self.table))

    def grads(self, f) -> np.ndarray:
        return self._memo("grad", f, lambda: f.grad_batch(self.points, table=self.table))

    def laps(self, f) -> np.ndarray:
        return self._memo("lap", f, lambda: f.lap_batch(self.points, table=self.table))

    def stats(self, F: CylinderFunction) -> np.ndarray:
        """(n_samples, nargs) statistics <phi_j, gamma> of every configuration."""
        return self._memo("stats", F.inners, lambda: np.column_stack([
            self._memo("stat", phi, lambda: self.batch.segment_sum(self.values(phi)))
            for phi in F.inners]).reshape(self.batch.n_samples, F.nargs))

    def inner_values(self, F: CylinderFunction) -> np.ndarray:
        """(points, nargs) values of the statistics' integrands."""
        return self._memo("inner", F.inners, lambda: np.column_stack(
            [self.values(phi) for phi in F.inners]
        ).reshape(len(self.points), F.nargs))

    def stat_rows(self, F: CylinderFunction, cfg: np.ndarray, excl: np.ndarray) -> np.ndarray:
        """Statistics of F at configuration cfg[r] without the points excl[r]."""
        S = self.stats(F)[cfg]
        for c in range(excl.shape[1]):
            S = S - self.inner_values(F)[excl[:, c]]
        return S

    def f_rows(
        self,
        F: Optional[CylinderFunction],
        cfg: Optional[np.ndarray] = None,
        excl: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """F(gamma_cfg[r] minus the points excl[r]); F at every configuration
        (once per F) without cfg or with no point held out; 1 for F = None."""
        if F is None:
            return np.ones(len(cfg))
        if cfg is None or not excl.shape[1]:
            f = self._memo("f", F, lambda: np.asarray(F.outer.eval_batch(self.stats(F)),
                                                      dtype=float))
            return f if cfg is None else f[cfg]
        return np.asarray(F.outer.eval_batch(self.stat_rows(F, cfg, excl)), dtype=float)

    def _plan(self, omega: SymmetricFormField, nu: tuple[int, ...]) -> list:
        """Per separable term: the subset positions its key occupies, its
        column among the keys over those positions, and the sign of sorting
        the key after slot s moves to position nu[s]."""

        def make():
            plan = []
            for st in omega.terms:
                key = [(nu[s], a) for s, sf in enumerate(st.slots) for a in sf.axes]
                skey, sign = _sort_sign(key)
                pos = tuple(sorted({q for q, _ in skey}))
                comp = tuple((pos.index(q), a) for q, a in skey)
                col = _basis_index(omega.degree, len(pos), self.dim)[comp]
                plan.append((st, pos, col, sign))
            return plan

        return self._memo(("plan", nu), omega, make)

    def form(self, W: CylinderForm) -> BatchValue:
        """All components of W at every configuration of the batch."""
        out = _Scatter(self, W.degree)
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
