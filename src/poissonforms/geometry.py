"""Base spaces, reference measures, and the geometry primitives.

Two backends are provided: the Euclidean plane/line with a Gaussian (or
uniform-on-a-box, or user-supplied) intensity, and the unit sphere S^2 in
R^3 with the uniform intensity. Points and tangent vectors are plain numpy
arrays in ambient coordinates; operators that need coordinates work in the
orthonormal tangent frame returned by ``frame``.

The logarithmic derivative of the intensity, ``beta = grad log rho``, is the
drift that appears in every integration-by-parts identity and SDE downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

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
    "metric",
    "curvature",
    "beta",
    "grad_beta",
    "geodesic_step",
    "transport_step",
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


class Sphere(Space):
    """Unit sphere S^2 embedded in R^3. Points are unit 3-vectors."""

    def __init__(self):
        self.dim = 2
        self.ambient_dim = 3
        self.name = "sphere2"

    def frame(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        # Gram-Schmidt against the polar axis, falling back near the poles.
        a = np.array([0.0, 0.0, 1.0])
        if abs(p @ a) > 0.9:
            a = np.array([1.0, 0.0, 0.0])
        e1 = a - (a @ p) * p
        e1 /= np.linalg.norm(e1)
        # e2 = p x e1, written out: np.cross costs more than the rest of
        # the frame on a single 3-vector
        p0, p1, p2 = p.tolist()
        u0, u1, u2 = e1.tolist()
        e2 = np.array([p1 * u2 - p2 * u1, p2 * u0 - p0 * u2, p0 * u1 - p1 * u0])
        return np.stack([e1, e2])

    def exp(self, p: np.ndarray, w: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        w = np.asarray(w, dtype=float)
        r = np.linalg.norm(w)
        if r < 1e-300:
            return p.copy()
        return np.cos(r) * p + np.sin(r) * (w / r)

    def transport(self, p, q, v):
        # Minimal rotation taking p to q; the standard closed form for the
        # Levi-Civita transport along the shorter great-circle arc.
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        v = np.asarray(v, dtype=float)
        c = 1.0 + p @ q
        if c < 1e-12:
            raise ValueError("transport undefined for antipodal points")
        s = p + q
        return v - ((v @ s) / c) * s + 2.0 * (v @ p) * q

    def project_tangent(self, p, v):
        p = np.asarray(p, dtype=float)
        v = np.asarray(v, dtype=float)
        return v - (v @ p) * p

    def sectional_curvature(self) -> float:
        return 1.0


@dataclass(frozen=True)
class IntensitySpec:
    """Reference intensity sigma(dx) = rho(x) m(dx).

    family:
      - "gaussian": rho(x) = exp(-|x|^2 / (2 scale^2)) on R^d
      - "uniform":  rho = 1 (surface measure on the sphere, Lebesgue on a box)
      - "custom":   user-supplied density handle (box windows only)
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


def metric(space: Space, p: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """Riemannian inner product of two tangent vectors at p (the induced
    ambient dot product on both backends)."""
    return float(np.asarray(u, dtype=float) @ np.asarray(v, dtype=float))


def curvature(space: Space, p: np.ndarray, i: int, j: int, k: int, l: int) -> float:
    """Component R_{ijkl} of the curvature 4-tensor in the orthonormal frame
    at p, with the sign fixed so that R_{1212} = +1 on the unit sphere:
    R_{ijkl} = K (g_ik g_jl - g_il g_jk) for constant curvature K.
    """
    K = space.sectional_curvature()
    return K * ((i == k) * (j == l) - (i == l) * (j == k))


def beta(space: Space, intensity: IntensitySpec, p: np.ndarray) -> np.ndarray:
    """Logarithmic gradient of the intensity at p, as an ambient tangent
    vector: beta = grad log rho."""
    p = np.asarray(p, dtype=float)
    if intensity.family == "gaussian":
        return -p / intensity.scale**2
    if intensity.family == "uniform":
        return np.zeros(space.ambient_dim)
    if intensity.family == "custom":
        if intensity.grad_log_density is not None:
            return np.asarray(intensity.grad_log_density(p), dtype=float)
        # central differences on log rho
        out = np.zeros(space.ambient_dim)
        for a in range(space.ambient_dim):
            e = np.zeros(space.ambient_dim)
            e[a] = _FD_H
            lo = float(np.log(intensity.rho(p - e)[0]))
            hi = float(np.log(intensity.rho(p + e)[0]))
            out[a] = (hi - lo) / (2 * _FD_H)
        return space.project_tangent(p, out)
    raise ValueError(f"unknown intensity family {intensity.family!r}")


def grad_beta(space: Space, intensity: IntensitySpec, p: np.ndarray) -> np.ndarray:
    """Covariant derivative of beta at p, as a (dim x dim) matrix in the
    orthonormal frame: entry (a, b) = <nabla_{E_b} beta, E_a>."""
    d = space.dim
    if intensity.family == "gaussian":
        return -np.eye(d) / intensity.scale**2
    if intensity.family == "uniform":
        return np.zeros((d, d))
    fr = space.frame(p)
    out = np.zeros((d, d))
    h = _FD_H
    for b in range(d):
        qp = space.exp(p, h * fr[b])
        qm = space.exp(p, -h * fr[b])
        bp = space.transport(qp, p, beta(space, intensity, qp))
        bm = space.transport(qm, p, beta(space, intensity, qm))
        diff = (bp - bm) / (2 * h)
        out[:, b] = fr @ diff
    return out


def geodesic_step(space: Space, p: np.ndarray, v: np.ndarray, h: float) -> np.ndarray:
    """One geodesic step: exp_p(h v)."""
    return space.exp(p, h * np.asarray(v, dtype=float))


def transport_step(space: Space, p: np.ndarray, q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Parallel transport of v from p to q along the connecting geodesic."""
    return space.transport(p, q, v)


def sigma_mass(
    space: Space,
    intensity: IntensitySpec,
    window: Window,
    rtol: float = 1e-8,
) -> float:
    """Total sigma-mass of the window, by deterministic quadrature with node
    doubling until the relative change is below ``rtol`` (``RuntimeError``
    if the doublings run out first)."""
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
