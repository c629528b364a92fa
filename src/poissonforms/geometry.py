"""Base spaces, reference measures, and the geometry primitives.

Two backends are provided: the Euclidean plane/line with a Gaussian (or
uniform-on-a-box) intensity, and the unit sphere S^2 in R^3, where both
families are constant. Points and tangent vectors are plain numpy
arrays in ambient coordinates; operators that need coordinates work in the
orthonormal tangent frame returned by ``frame``. The sphere's ``frame``,
``exp``, ``transport`` and ``project_tangent`` take points stacked on leading
axes (an (N, 3) array, say) and act row by row, rounding as one call per row
does.

The logarithmic derivative of the intensity, ``beta = grad log rho``, is the
drift that appears in every integration-by-parts identity and SDE downstream.
The sigma-mass of a window, the Poisson parameter of its point count, is an
elementary closed form for every supported space, family and window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "Space",
    "Euclidean",
    "Sphere",
    "IntensitySpec",
    "Window",
    "beta",
    "gaussian_drift_rate",
    "grad_beta",
    "frame_coords",
    "frame_maps",
    "sigma_mass",
]


class Space:
    """Abstract base: a Riemannian manifold with explicit frames/transport."""

    dim: int
    ambient_dim: int
    name: str

    def frame(self, p: np.ndarray) -> np.ndarray:
        """Orthonormal tangent frame at p, shape (dim, ambient_dim)."""
        raise NotImplementedError

    def exp(self, p: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Exponential map: follow the geodesic from p with initial velocity w
        for unit time."""
        raise NotImplementedError

    def transport(self, p: np.ndarray, q: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Parallel transport of tangent vector v from p to q along the
        connecting geodesic."""
        raise NotImplementedError

    def project_tangent(self, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def sectional_curvature(self) -> float:
        """Constant sectional curvature of the backend."""
        raise NotImplementedError


class Euclidean(Space):
    def __init__(self, d: int = 2):
        self.dim = d
        self.ambient_dim = d
        self.name = f"euclidean{d}"

    def frame(self, p: np.ndarray) -> np.ndarray:
        return np.eye(self.dim)

    def exp(self, p: np.ndarray, w: np.ndarray) -> np.ndarray:
        return np.asarray(p, dtype=float) + np.asarray(w, dtype=float)

    def transport(self, p, q, v):
        return np.asarray(v, dtype=float)

    def project_tangent(self, p, v):
        return np.asarray(v, dtype=float)

    def sectional_curvature(self) -> float:
        return 0.0


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise dot product over the last axis, kept as a length-1 axis.
    ``np.vecdot`` runs the kernel of the 1-d ``u @ v`` on every row, so a
    stacked call rounds as the row-by-row calls do."""
    return np.vecdot(u, v)[..., None]


class Sphere(Space):
    """Unit sphere S^2 embedded in R^3. Points are unit 3-vectors; every
    method takes them stacked on leading axes, the frame at p having shape
    p.shape[:-1] + (2, 3)."""

    def __init__(self):
        self.dim = 2
        self.ambient_dim = 3
        self.name = "sphere2"

    def frame(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        # Gram-Schmidt against the polar axis, falling back to the first
        # axis near the poles; <a, p> is the matching coordinate of p
        polar = np.abs(p[..., 2:]) > 0.9
        a = np.where(polar, [1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        e1 = a - np.where(polar, p[..., :1], p[..., 2:]) * p
        e1 = e1 / np.sqrt(_dot(e1, e1))
        return np.stack([e1, np.cross(p, e1)], axis=-2)

    def exp(self, p: np.ndarray, w: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        w = np.asarray(w, dtype=float)
        r = np.sqrt(_dot(w, w))
        small = r < 1e-300
        q = np.cos(r) * p + np.sin(r) * (w / np.where(small, 1.0, r))
        return np.where(small, p, q)

    def transport(self, p, q, v):
        # Minimal rotation taking p to q; the standard closed form for the
        # Levi-Civita transport along the shorter great-circle arc.
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        v = np.asarray(v, dtype=float)
        c = 1.0 + _dot(p, q)
        if np.any(c < 1e-12):
            raise ValueError("transport undefined for antipodal points")
        s = p + q
        return v - (_dot(v, s) / c) * s + 2.0 * _dot(v, p) * q

    def project_tangent(self, p, v):
        p = np.asarray(p, dtype=float)
        v = np.asarray(v, dtype=float)
        return v - _dot(v, p) * p

    def sectional_curvature(self) -> float:
        return 1.0


@dataclass(frozen=True)
class IntensitySpec:
    """Reference intensity sigma(dx) = rho(x) m(dx).

    family:
      - "gaussian": rho(x) = exp(-|x|^2 / (2 scale^2)) on R^d (a constant
        on the unit sphere)
      - "uniform":  rho = 1 (surface measure on the sphere, Lebesgue on a box)

    Any other family raises ``ValueError`` at construction, so the
    functions below branch on these two alone.
    """

    family: str = "gaussian"
    scale: float = 1.0

    def __post_init__(self):
        if self.family not in ("gaussian", "uniform"):
            raise ValueError(f"unknown intensity family {self.family!r}")

    def rho(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.family == "gaussian":
            # the squared columns summed left to right, as np.sum adds a short row
            return np.exp(-0.5 * sum(X[..., i]**2 for i in range(X.shape[-1])) / self.scale**2)
        return np.ones(X.shape[0])


@dataclass(frozen=True)
class Window:
    """Observation window: the full space, or an axis-aligned box."""

    kind: str = "all"  # "all" | "box"
    bounds: Optional[tuple[tuple[float, float], ...]] = None

    def __post_init__(self):
        if self.kind not in ("all", "box"):
            raise ValueError(f"unknown window kind {self.kind!r}")
        if self.kind == "box" and not self.bounds:
            raise ValueError("box window requires bounds")
        if self.bounds is not None:
            # tuples, so that equal windows hash alike (the laplace battery
            # groups its rows by window)
            object.__setattr__(self, "bounds", tuple(map(tuple, self.bounds)))

    def contains(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.kind == "all":
            return np.ones(X.shape[0], dtype=bool)
        mask = np.ones(X.shape[0], dtype=bool)
        for i, (lo, hi) in enumerate(self.bounds):
            mask &= (X[:, i] >= lo) & (X[:, i] <= hi)
        return mask


# ---------------------------------------------------------------------------
# geometry operations


def beta(space: Space, intensity: IntensitySpec, p: np.ndarray) -> np.ndarray:
    """Logarithmic gradient of the intensity at the points p (stacked on
    leading axes), as ambient tangent vectors: beta = grad log rho."""
    p = np.asarray(p, dtype=float)
    if intensity.family == "gaussian" and not isinstance(space, Sphere):
        return gaussian_drift_rate(intensity) * p
    # a radial weight is constant on the unit sphere
    return np.zeros_like(p)


def gaussian_drift_rate(intensity: IntensitySpec) -> float:
    """The linear coefficient b of the gaussian's drift on R^d, beta(x) = b x
    with b = -1/scale^2: the one place ``beta`` and the exact draw of the
    flat diffusion's endpoints read it."""
    return -1.0 / intensity.scale**2


def grad_beta(space: Space, intensity: IntensitySpec, p: np.ndarray) -> np.ndarray:
    """Covariant derivative of beta at the points p (stacked on leading
    axes), as (dim x dim) matrices in the orthonormal frame: entry (a, b) =
    <nabla_{E_b} beta, E_a>. Shape p.shape[:-1] + (dim, dim)."""
    p = np.asarray(p, dtype=float)
    d = space.dim
    if intensity.family == "gaussian" and not isinstance(space, Sphere):
        return np.broadcast_to(-np.eye(d) / intensity.scale**2, p.shape[:-1] + (d, d))
    return np.zeros(p.shape[:-1] + (d, d))


def frame_coords(space: Space, X: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Coordinates in the orthonormal frame at the rows of X (N, ambient_dim)
    of the vectors v (N, ambient_dim), each first projected to the tangent
    space at its row: an (N, dim) array, entry (n, a) = <F_a(X_n), v_n>."""
    v = space.project_tangent(X, v)
    return np.vecdot(space.frame(X), v[:, None, :])


def frame_maps(space: Space, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Matrices of the parallel transport from the points q to the points p
    (stacked on leading axes, broadcast together) in the orthonormal frames:
    M[..., b, a] = <F_b(p), transport of F_a(q) to p>. ``Lambda^k`` of M
    (``exterior.wedge_power``) moves the degree-k coordinates."""
    q, p = np.asarray(q, dtype=float), np.asarray(p, dtype=float)
    moved = space.transport(q[..., None, :], p[..., None, :], space.frame(q))
    return space.frame(p) @ np.swapaxes(moved, -1, -2)


def sigma_mass(space: Space, intensity: IntensitySpec, window: Window) -> float:
    """Total sigma-mass of the window, in closed form: 4 pi rho on the unit
    sphere, (2 pi scale^2)^(d/2) for the gaussian on R^d, and on a box the
    product over its axes of the widths (uniform) or of the gaussian
    integrals ``_gauss_integral``."""
    if isinstance(space, Sphere):
        if window.kind != "all":
            raise ValueError("sphere backend supports the full-sphere window only")
        return 4.0 * math.pi * float(intensity.rho(np.array([0.0, 0.0, 1.0]))[0])
    s = intensity.scale
    if window.kind == "box":
        if intensity.family == "uniform":
            return math.prod(hi - lo for lo, hi in window.bounds)
        return math.prod(_gauss_integral(lo, hi, s) for lo, hi in window.bounds)
    # full space: finite mass requires the Gaussian family
    if intensity.family != "gaussian":
        raise ValueError("full-space window needs the gaussian intensity")
    return (2.0 * math.pi * s * s) ** (space.dim / 2)


def _gauss_integral(lo: float, hi: float, s: float) -> float:
    """int_lo^hi exp(-x^2 / (2 s^2)) dx by the error function (Abramowitz
    and Stegun 7.1.1). The integrand is even, so the interval is turned to
    the positive side; an interval on one side of the origin takes the
    difference of erfc terms, which keeps the digits of a window far out."""
    if lo + hi < 0.0:
        lo, hi = -hi, -lo
    r = s * math.sqrt(2.0)
    c = s * math.sqrt(math.pi / 2.0)
    if lo >= 0.0:
        return c * (math.erfc(lo / r) - math.erfc(hi / r))
    return c * (math.erf(hi / r) - math.erf(lo / r))
