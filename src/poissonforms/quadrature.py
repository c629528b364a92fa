"""Deterministic quadrature rules used by the intensity-measure integrals.

Everything here is standard numerical infrastructure: tensor-product
Gauss-Legendre on boxes (with node doubling until a relative tolerance is
met), Gauss-Hermite for Gaussian-weighted integrals over the full space, and
a spectrally accurate product rule on the unit sphere.
"""

from __future__ import annotations

import functools
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "gauss_legendre",
    "tensor_rule",
    "gauss_hermite_gaussian",
    "sphere_rule",
    "converge_by_doubling",
    "adaptive_box_integral",
]


@functools.lru_cache(maxsize=None)
def _gauss_rule(solve: Callable, n: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's n-point ``leggauss`` or ``hermegauss`` rule, cached read-only."""
    x, w = solve(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights rescaled from [-1, 1] to [a, b]."""
    x, w = _gauss_rule(np.polynomial.legendre.leggauss, n)
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * x, half * w


def _tensor_product(
    rules: Sequence[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Tensor product of 1-d rules (nodes, weights), one per axis: nodes of
    shape (N, d) with the last axis varying fastest, weights of shape (N,)."""
    grids = np.meshgrid(*[x for x, _ in rules], indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)
    w = rules[0][1]
    for _, wi in rules[1:]:
        w = np.multiply.outer(w, wi)
    return nodes, w.ravel()


def tensor_rule(
    bounds: Sequence[tuple[float, float]], n_per_axis: int
) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product Gauss-Legendre rule on an axis-aligned box.

    Returns nodes of shape (N, d) and weights of shape (N,).
    """
    return _tensor_product([gauss_legendre(a, b, n_per_axis) for (a, b) in bounds])


def gauss_hermite_gaussian(
    dim: int, n_per_axis: int, scale: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights integrating f against exp(-|x|^2 / (2 scale^2)) on R^dim.

    Built from the probabilists' Hermite rule (weight e^{-u^2/2}), rescaled so
    that sum_i w_i f(x_i) ~ int f(x) exp(-|x|^2/(2 scale^2)) dx.
    """
    u, w = _gauss_rule(np.polynomial.hermite_e.hermegauss, n_per_axis)
    return _tensor_product([(scale * u, scale * w)] * dim)


def sphere_rule(n_cos: int = 48, n_phi: int = 96) -> tuple[np.ndarray, np.ndarray]:
    """Product rule on the unit sphere: Gauss-Legendre in cos(theta) times a
    periodic trapezoid rule in the azimuth. Weights sum to 4*pi.
    """
    phi = np.arange(n_phi) * (2.0 * np.pi / n_phi)
    nodes, w = _tensor_product(
        [gauss_legendre(-1.0, 1.0, n_cos), (phi, np.full(n_phi, 2.0 * np.pi / n_phi))]
    )
    t, p = nodes.T
    st = np.sqrt(np.clip(1.0 - t**2, 0.0, None))
    return np.stack([st * np.cos(p), st * np.sin(p), t], axis=-1), w


def converge_by_doubling(
    value_at: Callable[[int], float], n_start: int, max_doublings: int, rtol: float
) -> float:
    """Evaluate a rule at orders n_start, 2 n_start, ... until two successive
    values agree to ``rtol`` relative; raise ``RuntimeError`` when
    ``max_doublings`` doublings do not get there, rather than return an
    unconverged value.
    """
    n = n_start
    val = value_at(n)
    for _ in range(max_doublings):
        n *= 2
        new = value_at(n)
        if abs(new - val) <= rtol * max(abs(new), 1e-300):
            return new
        val = new
    raise RuntimeError(
        f"quadrature not converged to rtol={rtol:g} within {max_doublings} "
        f"doublings of order {n_start} (last value {val!r} at order {n})"
    )


def adaptive_box_integral(
    f: Callable[[np.ndarray], np.ndarray],
    bounds: Sequence[tuple[float, float]],
    rtol: float = 1e-8,
    n_start: int = 64,
    max_doublings: int = 5,
) -> float:
    """Integrate a vectorized integrand over a box, doubling the per-axis
    Gauss-Legendre order until the relative change drops below ``rtol``
    (``RuntimeError`` if ``max_doublings`` doublings do not get there).
    """

    def value_at(n: int) -> float:
        nodes, w = tensor_rule(bounds, n)
        return float(w @ np.asarray(f(nodes), dtype=float))

    return converge_by_doubling(value_at, n_start, max_doublings, rtol)
