"""Test-function families on the base space.

The Euclidean family is spanned by polynomial-times-Gaussian atoms

    f(x) = sum_alpha c_alpha (x - c)^alpha * exp(-a |x - c|^2 / 2),

which is closed under partial derivatives and products, so every derivative
an operator check needs is exact (gradients, Hessians, and anything nested).
Batch evaluation runs on a ``PointTable`` over the points: the coordinate
columns x_i - c_i and one Gaussian factor exp(-a |x - c|^2 / 2) per
(rate, centre), each computed once and shared by every atom that reads it:
a field's value and its partials, the components and divergence of a
vector field, and every field evaluated on one table (``forms.BatchEval``
keeps one over its batch). An atom's sum starts from its first term and
meets its Gaussian once; a one-atom field returns that atom's new array.
Sharing changes no value: each atom multiplies the same arrays in the same
order either way, into new arrays, never into the table's own.

A compactly supported mollifier bump serves the checks that want genuinely
compact support; it gives values only.

On the sphere, fields of the form g(<p, u>) for a polynomial profile g have
closed-form tangential gradients and Laplace-Beltrami images, which is all
the scalar-level checks need; form fields on the sphere are handled by
finite differences in the operators module. A 1-form slot on the sphere is
a ``SphereFrameCoordinate``, a tangent field's coordinate on one frame axis.

Every class reads points through one batched interface, each method taking
the points as rows of X and an optional ``table`` (a ``PointTable`` on X):
``value_batch`` on all of them, ``grad_batch`` and ``lap_batch`` on the
scalar fields the form layer differentiates (``Field``, ``SphereAxisField``)
and ``div_batch`` on ``VectorField``. A class that does not build its values
from a ``PointTable`` accepts ``table`` and ignores it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .geometry import Sphere, frame_coords

__all__ = [
    "PointTable",
    "Field",
    "polygauss",
    "monomial",
    "gauss_bump",
    "RadialBump",
    "SphereAxisField",
    "VectorField",
    "SphereKilling",
    "SphereGradientField",
    "SphereFrameCoordinate",
]


def _shift_poly(terms: dict, old: np.ndarray, new: np.ndarray) -> dict:
    """Re-center a polynomial written in powers of (x - old) to powers of
    (x - new): since (x - old) = (x - new) + (new - old), expand each factor
    binomially in (x - new)."""
    d = len(old)
    out: dict = {}
    for alpha, c in terms.items():
        partial = {tuple([0] * d): c}
        for i in range(d):
            shift = float(new[i] - old[i])
            grown: dict = {}
            ai = alpha[i]
            for beta, cb in partial.items():
                for k in range(ai + 1):
                    coeff = cb * math.comb(ai, k) * shift ** (ai - k)
                    if coeff == 0.0:
                        continue
                    nb = list(beta)
                    nb[i] = beta[i] + k
                    key = tuple(nb)
                    grown[key] = grown.get(key, 0.0) + coeff
            partial = grown
        for beta, cb in partial.items():
            out[beta] = out.get(beta, 0.0) + cb
    return {k: v for k, v in out.items() if v != 0.0}


class PointTable:
    """The pieces polynomial-Gaussian atoms are built from, on one point set
    (a chunk of whole configurations in the Monte Carlo checks), each
    computed on first use and then shared: the columns x_i - c_i, keyed by
    (axis, c_i), and the Gaussian factors exp(-a |x - c|^2 / 2), keyed by
    (a, c). Higher powers of a column are taken where they are used and not
    kept, which bounds the table at one array per column and per Gaussian,
    and on S^2 one frame projection per tangent field. Atoms read these
    arrays and never write into them."""

    def __init__(self, X: np.ndarray):
        self.points = np.atleast_2d(np.asarray(X, dtype=float))
        self._columns: dict = {}
        self._gauss: dict = {}
        self._frames: dict = {}

    def power(self, axis: int, c: float, k: int) -> np.ndarray:
        """(x_axis - c) ** k for k >= 1."""
        col = self._columns.get((axis, c))
        if col is None:
            col = self._columns[axis, c] = self.points[:, axis] - c
        return col if k == 1 else col**k

    def gauss(self, rate: float, center: tuple) -> np.ndarray:
        key = (rate, center)
        hit = self._gauss.get(key)
        if hit is None:
            # the squared columns summed left to right: for d <= 7 the order
            # in which np.sum adds a row, and several times faster on a short row
            r2 = self.power(0, center[0], 2)
            for i in range(1, len(center)):
                r2 += self.power(i, center[i], 2)
            r2 *= -0.5 * rate
            hit = self._gauss[key] = np.exp(r2, out=r2)
        return hit

    def frame_coords(self, vec) -> np.ndarray:
        """(n, 2) coordinates of the tangent field ``vec`` in the orthonormal
        frame at each point of S^2, once per field (kept, so its id is not reused)."""
        if id(vec) not in self._frames:
            self._frames[id(vec)] = (vec, frame_coords(Sphere(), self.points,
                                                       vec.value_batch(self.points)))
        return self._frames[id(vec)][1]


def _table(X: np.ndarray, dim: int, table: PointTable | None) -> PointTable:
    """``table``, or a new one on X, after checking that the points have
    ``dim`` coordinates."""
    if table is None:
        table = PointTable(X)
    elif table.points is not X:
        raise ValueError("the table was built on other points")
    if table.points.shape[1] != dim:
        raise ValueError(
            f"points with {table.points.shape[1]} coordinates for a field on R^{dim}"
        )
    return table


def _columns(fields: Sequence["Field"], table: PointTable) -> np.ndarray:
    """(points, len(fields)) array of the fields' values, one column each,
    held column-major so that each column is written and read contiguously."""
    out = np.empty((len(fields), len(table.points)))
    for j, f in enumerate(fields):
        out[j] = f._values(table)
    return out.T


@dataclass(frozen=True)
class _Atom:
    """One polynomial-times-Gaussian atom. terms maps multi-indices to
    coefficients; rate is the Gaussian decay rate a; center the Gaussian
    center."""

    terms: tuple  # tuple of (alpha, coeff)
    rate: float
    center: tuple

    def value_one(self, x: Sequence[float]) -> float:
        dx = [x[i] - self.center[i] for i in range(len(self.center))]
        if self.rate != 0.0:
            e = math.exp(-0.5 * self.rate * sum(t * t for t in dx))
        else:
            e = 1.0
        tot = 0.0
        for alpha, c in self.terms:
            v = c
            for i, ai in enumerate(alpha):
                if ai:
                    v *= dx[i] ** ai
            tot += v
        return tot * e

    def values(self, table: PointTable) -> np.ndarray:
        """Values at the table's points, in a new array; the terms and their
        factors in the order ``value_one`` takes them, the Gaussian once."""
        tot = 0.0
        for k, (alpha, c) in enumerate(self.terms):
            v = c
            for i, ai in enumerate(alpha):
                if ai:
                    # c times a column is a new array, never the table's own
                    v *= table.power(i, self.center[i], ai)
            tot = v if k == 0 else tot + v
        if self.rate != 0.0:
            tot *= table.gauss(self.rate, self.center)
        return tot if isinstance(tot, np.ndarray) else np.full(len(table.points), tot)

    def partial(self, axis: int) -> "_Atom":
        out: dict = {}
        for alpha, c in self.terms:
            ai = alpha[axis]
            if ai > 0:
                down = list(alpha)
                down[axis] -= 1
                key = tuple(down)
                out[key] = out.get(key, 0.0) + c * ai
            if self.rate != 0.0:
                up = list(alpha)
                up[axis] += 1
                key = tuple(up)
                out[key] = out.get(key, 0.0) - c * self.rate
        return _Atom(tuple(out.items()), self.rate, self.center)

    def mul(self, other: "_Atom") -> "_Atom":
        a1, a2 = self.rate, other.rate
        c1 = np.asarray(self.center)
        c2 = np.asarray(other.center)
        a3 = a1 + a2
        if a3 > 0.0:
            r = (a1 * c1 + a2 * c2) / a3
            logK = -0.5 * (
                a1 * float(c1 @ c1) + a2 * float(c2 @ c2) - a3 * float(r @ r)
            )
            K = math.exp(logK)
        else:
            r = c1
            K = 1.0
        t1 = _shift_poly(dict(self.terms), c1, r)
        t2 = _shift_poly(dict(other.terms), c2, r)
        prod: dict = {}
        for al, ca in t1.items():
            for be, cb in t2.items():
                key = tuple(a + b for a, b in zip(al, be))
                prod[key] = prod.get(key, 0.0) + ca * cb * K
        return _Atom(tuple(prod.items()), a3, tuple(float(v) for v in r))


class Field:
    """Finite sum of polynomial-Gaussian atoms; exact under differentiation
    and multiplication."""

    __slots__ = ("atoms", "dim", "_grad_cache")

    def __init__(self, atoms: Iterable[_Atom], dim: int):
        self.atoms = tuple(atoms)
        self.dim = dim
        self._grad_cache = None

    # -- evaluation -----------------------------------------------------------

    def value_one(self, x) -> float:
        return sum(a.value_one(x) for a in self.atoms)

    def value_batch(self, X: np.ndarray, *, table: PointTable | None = None) -> np.ndarray:
        """Values at the rows of X, read from ``table`` (a ``PointTable`` on
        X) when one is given."""
        return self._values(_table(X, self.dim, table))

    def _values(self, table: PointTable) -> np.ndarray:
        if not self.atoms:
            return np.zeros(len(table.points))
        out = self.atoms[0].values(table)
        for a in self.atoms[1:]:
            out += a.values(table)
        return out

    # -- calculus -------------------------------------------------------------

    def partial(self, axis: int) -> "Field":
        return Field((a.partial(axis) for a in self.atoms), self.dim)

    def _grads(self) -> tuple["Field", ...]:
        if self._grad_cache is None:
            self._grad_cache = tuple(self.partial(a) for a in range(self.dim))
        return self._grad_cache

    def grad_one(self, x) -> np.ndarray:
        return np.array([g.value_one(x) for g in self._grads()])

    def grad_batch(self, X: np.ndarray, *, table: PointTable | None = None) -> np.ndarray:
        return _columns(self._grads(), _table(X, self.dim, table))

    def lap_batch(self, X: np.ndarray, *, table: PointTable | None = None) -> np.ndarray:
        return self.laplacian().value_batch(X, table=table)

    def laplacian(self) -> "Field":
        out = Field([], self.dim)
        for a in range(self.dim):
            out = out + self.partial(a).partial(a)
        return out

    # -- algebra ----------------------------------------------------------------

    def __add__(self, other: "Field") -> "Field":
        return Field(self.atoms + other.atoms, self.dim)

    def __mul__(self, other):
        if isinstance(other, Field):
            return Field(
                [a.mul(b) for a in self.atoms for b in other.atoms], self.dim
            )
        out = []
        for a in self.atoms:
            out.append(_Atom(tuple((al, c * other) for al, c in a.terms), a.rate, a.center))
        return Field(out, self.dim)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other: "Field") -> "Field":
        return self + (other * -1.0)


def polygauss(
    dim: int,
    terms: dict,
    rate: float = 1.0,
    center: Sequence[float] | None = None,
) -> Field:
    """Build a Field from {multi-index: coeff}, decay rate, and center."""
    c = tuple(center) if center is not None else (0.0,) * dim
    clean = {tuple(k): float(v) for k, v in terms.items()}
    return Field([_Atom(tuple(clean.items()), float(rate), c)], dim)


def monomial(dim: int, powers: Sequence[int], coeff: float = 1.0) -> Field:
    return polygauss(dim, {tuple(powers): coeff}, rate=0.0)


def gauss_bump(dim: int, rate: float, center: Sequence[float], amplitude: float = 1.0) -> Field:
    return polygauss(dim, {(0,) * dim: amplitude}, rate=rate, center=center)


class RadialBump:
    """Smooth compactly supported mollifier A exp(1 - 1/(1 - s)), s = |x-c|^2/R^2.

    It is not in the polynomial-Gaussian algebra and gives values only, so
    it joins the batteries that read no derivative of their fields.
    """

    def __init__(self, center: Sequence[float], radius: float, amplitude: float = 1.0):
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        self.amplitude = float(amplitude)
        self.dim = len(self.center)

    def value_batch(self, X: np.ndarray, *, table: PointTable | None = None) -> np.ndarray:
        # the squared columns summed left to right, as np.sum adds a short row
        table = _table(X, self.dim, table)
        s = sum(table.power(i, c, 2) for i, c in enumerate(self.center)) / self.radius**2
        out = np.zeros(len(table.points))
        ok = s < 1.0 - 1e-12
        out[ok] = self.amplitude * np.exp(1.0 - 1.0 / (1.0 - s[ok]))
        return out


class SphereAxisField:
    """g(<p, u>) on S^2 for a polynomial profile g and unit axis u; the
    tangential gradient and Laplace-Beltrami image are closed-form."""

    def __init__(self, axis: Sequence[float], coeffs: Sequence[float]):
        u = np.asarray(axis, dtype=float)
        self.axis = u / np.linalg.norm(u)
        self.g = np.polynomial.Polynomial(list(coeffs))
        self.dg = self.g.deriv()
        self.d2g = self.dg.deriv()

    def value_one(self, p) -> float:
        return float(self.g(float(np.asarray(p) @ self.axis)))

    def value_batch(self, P: np.ndarray, *, table: PointTable | None = None) -> np.ndarray:
        return self.g(np.atleast_2d(P) @ self.axis)

    def grad_batch(self, P: np.ndarray, *, table: PointTable | None = None) -> np.ndarray:
        """Tangential gradients at points stacked on leading axes."""
        P = np.asarray(P, dtype=float)
        t = np.vecdot(P, self.axis)[..., None]
        return self.dg(t) * (self.axis - t * P)

    def lap_batch(self, P: np.ndarray, *, table: PointTable | None = None) -> np.ndarray:
        """Laplace-Beltrami images (1 - t^2) g''(t) - 2 t g'(t), t = <p, u>."""
        t = np.vecdot(np.asarray(P, dtype=float), self.axis)
        return (1.0 - t * t) * self.d2g(t) - 2.0 * t * self.dg(t)


class VectorField:
    """Euclidean vector field with polynomial-Gaussian components."""

    def __init__(self, components: Sequence[Field]):
        self.components = tuple(components)
        self.dim = components[0].dim

    def value_one(self, x) -> np.ndarray:
        return np.array([c.value_one(x) for c in self.components])

    def value_batch(self, X: np.ndarray, *, table: PointTable | None = None) -> np.ndarray:
        return _columns(self.components, _table(X, self.dim, table))

    def div_one(self, x) -> float:
        return sum(
            c._grads()[a].value_one(x) for a, c in enumerate(self.components)
        )

    def div_batch(self, X: np.ndarray, *, table: PointTable | None = None) -> np.ndarray:
        table = _table(X, self.dim, table)
        out = self.components[0]._grads()[0]._values(table)
        for a in range(1, len(self.components)):
            out += self.components[a]._grads()[a]._values(table)
        return out


class SphereKilling:
    """Rotation field p -> u x p; divergence-free, flow preserves the
    uniform measure."""

    def __init__(self, axis: Sequence[float]):
        u = np.asarray(axis, dtype=float)
        self.axis = u / np.linalg.norm(u)

    def value_one(self, p) -> np.ndarray:
        return np.cross(self.axis, np.asarray(p, dtype=float))

    def value_batch(self, P: np.ndarray, *, table: PointTable | None = None) -> np.ndarray:
        return np.cross(self.axis, np.asarray(P, dtype=float))


class SphereGradientField:
    """Gradient field of a SphereAxisField."""

    def __init__(self, scalar: SphereAxisField):
        self.scalar = scalar

    def value_one(self, p) -> np.ndarray:
        return self.scalar.grad_batch(p)

    def value_batch(self, P: np.ndarray, *, table: PointTable | None = None) -> np.ndarray:
        return self.scalar.grad_batch(P)


class SphereFrameCoordinate:
    """Coordinate ``axis`` of the tangent field ``vec`` in the orthonormal
    frame at each point of S^2 (``geometry.frame_coords``): the coefficient
    of the 1-form slot on e_axis."""

    def __init__(self, vec, axis: int):
        self.vec = vec
        self.axis = axis

    def value_one(self, p) -> float:
        return float(self.value_batch(np.asarray(p, dtype=float)[None, :])[0])

    def value_batch(self, P: np.ndarray, *, table: PointTable | None = None) -> np.ndarray:
        """Read from the table's projection of ``vec``, which every axis of
        the field shares."""
        return _table(P, 3, table).frame_coords(self.vec)[:, self.axis]
