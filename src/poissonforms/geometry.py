"""Base spaces, reference measures, and the geometry primitives.

Two backends are provided: the Euclidean plane/line with a Gaussian (or
uniform-on-a-box, or user-supplied) intensity, and the unit sphere S^2 in
R^3 with the uniform intensity. Points and tangent vectors are plain numpy
arrays in ambient coordinates; operators that need coordinates work in the
orthonormal tangent frame returned by ``frame``. The sphere's ``frame``,
``exp``, ``transport`` and ``project_tangent`` take points stacked on leading
axes (an (N, 3) array, say) and act row by row, rounding as one call per row
does.

The logarithmic derivative of the intensity, ``beta = grad log rho``, is the
drift that appears in every integration-by-parts identity and SDE downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .quadrature import (
    adaptive_box_integral,
    converge_by_doubling,
    gauss_hermite_gaussian,
    sphere_rule,
)

__all__ = [
    "Space",
    "Euclidean",
    "Sphere",
    "IntensitySpec",
    "Window",
    "beta",
    "grad_beta",
    "frame_maps",
    "sigma_mass",
]

_FD_H = 1e-5


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
      - "gaussian": rho(x) = exp(-|x|^2 / (2 scale^2)) on R^d
      - "uniform":  rho = 1 (surface measure on the sphere, Lebesgue on a box)
      - "custom":   user-supplied density handle (box windows only); an
        optional ``grad_log_density`` maps rows (N, d) to (N, d)
    """

    family: str = "gaussian"
    scale: float = 1.0
    density: Optional[Callable[[np.ndarray], np.ndarray]] = None
    grad_log_density: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def rho(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.family == "gaussian":
            return np.exp(-0.5 * np.sum(X**2, axis=-1) / self.scale**2)
        if self.family == "uniform":
            return np.ones(X.shape[0])
        if self.family == "custom":
            if self.density is None:
                raise ValueError("custom intensity requires a density handle")
            return np.asarray(self.density(X), dtype=float)
        raise ValueError(f"unknown intensity family {self.family!r}")


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
            # tuples, so that a window can key the sigma-mass memo
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
    leading axes), as ambient tangent vectors: beta = grad log rho. A custom
    ``grad_log_density`` takes rows (N, d) and returns (N, d)."""
    p = np.asarray(p, dtype=float)
    if intensity.family == "gaussian":
        return -p / intensity.scale**2
    if intensity.family == "uniform":
        return np.zeros_like(p)
    if intensity.family != "custom":
        raise ValueError(f"unknown intensity family {intensity.family!r}")
    X = p.reshape(-1, space.ambient_dim)
    if intensity.grad_log_density is not None:
        out = np.asarray(intensity.grad_log_density(X), dtype=float)
    else:
        # central differences on log rho
        out = np.empty_like(X)
        for a, e in enumerate(_FD_H * np.eye(space.ambient_dim)):
            lo, hi = np.log(intensity.rho(X - e)), np.log(intensity.rho(X + e))
            out[:, a] = (hi - lo) / (2 * _FD_H)
        out = space.project_tangent(X, out)
    return out.reshape(p.shape)


def grad_beta(space: Space, intensity: IntensitySpec, p: np.ndarray) -> np.ndarray:
    """Covariant derivative of beta at the points p (stacked on leading
    axes), as (dim x dim) matrices in the orthonormal frame: entry (a, b) =
    <nabla_{E_b} beta, E_a>. Shape p.shape[:-1] + (dim, dim)."""
    p = np.asarray(p, dtype=float)
    d = space.dim
    if intensity.family == "gaussian":
        return np.broadcast_to(-np.eye(d) / intensity.scale**2, p.shape[:-1] + (d, d))
    if intensity.family == "uniform":
        return np.zeros(p.shape[:-1] + (d, d))
    # central differences along the geodesics exp(p, +-h E_b), transported
    fr = np.broadcast_to(space.frame(p), p.shape[:-1] + (d, space.ambient_dim))
    h = _FD_H
    P = p[..., None, None, :]
    Q = space.exp(P, np.array([h, -h])[:, None, None] * fr[..., None, :, :])
    B = beta(space, intensity, Q)
    moved = space.transport(Q, P, B)
    diff = (moved[..., 0, :, :] - moved[..., 1, :, :]) / (2 * h)
    G = fr @ np.swapaxes(diff, -1, -2)
    # beta is a gradient, so its covariant derivative (the Hessian of log
    # rho) is symmetric. The difference quotient is symmetric only up to
    # rounding amplified by 1/h, and the frame solve's eigh would silently
    # drop that part
    return 0.5 * (G + np.swapaxes(G, -1, -2))


def frame_maps(space: Space, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Matrices of the parallel transport from the points q to the points p
    (stacked on leading axes, broadcast together) in the orthonormal frames:
    M[..., b, a] = <F_b(p), transport of F_a(q) to p>. ``Lambda^k`` of M
    (``exterior.wedge_power``) moves the degree-k coordinates."""
    q, p = np.asarray(q, dtype=float), np.asarray(p, dtype=float)
    moved = space.transport(q[..., None, :], p[..., None, :], space.frame(q))
    return space.frame(p) @ np.swapaxes(moved, -1, -2)


_MASSES: dict = {}


def sigma_mass(
    space: Space,
    intensity: IntensitySpec,
    window: Window,
    rtol: float = 1e-8,
) -> float:
    """Total sigma-mass of the window, by deterministic quadrature with node
    doubling until the relative change is below ``rtol`` (``RuntimeError``
    if the doublings run out first). The result is kept for the process,
    keyed by the space's type and dimension (spaces have no value
    equality), the intensity, the window and ``rtol``."""
    key = (type(space), space.dim, intensity, window, rtol)
    if key not in _MASSES:
        _MASSES[key] = _sigma_mass(space, intensity, window, rtol)
    return _MASSES[key]


def _sigma_mass(
    space: Space, intensity: IntensitySpec, window: Window, rtol: float
) -> float:
    if isinstance(space, Sphere):
        if window.kind != "all":
            raise ValueError("sphere backend supports the full-sphere window only")

        def sphere_value(n: int) -> float:
            pts, w = sphere_rule(n, 2 * n)
            return float(w @ intensity.rho(pts))

        return converge_by_doubling(sphere_value, 24, 4, rtol)

    if window.kind == "box":
        return adaptive_box_integral(
            lambda X: intensity.rho(X), window.bounds, rtol=rtol
        )

    # full space: finite mass requires the Gaussian family
    if intensity.family != "gaussian":
        raise ValueError("full-space window needs the gaussian intensity")
    d = space.dim
    return converge_by_doubling(
        lambda n: float(np.sum(gauss_hermite_gaussian(d, n, intensity.scale)[1])),
        32, 3, rtol,
    )
