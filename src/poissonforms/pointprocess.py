"""Poisson point processes: sampling, correlation identities, and the
expansion of expectations into fixed-point-count integrals.

The law is the Poisson process with intensity sigma(dx) = rho(x) m(dx) on the
chosen window. Expectations of cylinder observables can be computed three
independent ways, and the checks here cross those routes:

  * Monte Carlo over sampled configurations;
  * the fixed-count expansion  E F = e^{-sigma(L)} sum_k (1/k!) int F d sigma^k,
    evaluated by an iterated-kernel profile with a certified truncation tail;
  * the multivariate Mecke identity, which trades the sum over m-subsets of
    the configuration for an m-fold sigma-integral with the configuration
    augmented by the integration points.
"""

from __future__ import annotations

import itertools
import math
import zlib
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .geometry import (
    Euclidean,
    IntensitySpec,
    Space,
    Sphere,
    Window,
    sigma_mass,
)
from .quadrature import gauss_hermite_gaussian, sphere_rule, tensor_rule
from .report import CheckResult, McEstimate

__all__ = [
    "RngStream",
    "Configuration",
    "SampleBatch",
    "Window",
    "McEstimate",
    "sample",
    "sample_batch",
    "m_subsets",
    "sigma_nodes",
    "ChebProfile",
    "iterated_kernel",
    "SeriesResult",
    "expect_series",
    "MeckeFunctional",
    "mecke_check",
    "laplace_check",
]


class RngStream:
    """Hierarchically seeded random stream.

    Streams are identified by a root seed plus an integer path; children are
    derived with ``child(label)``, where a label is an integer or a task name
    (hashed with crc32, so the mapping is stable across processes). Identical
    (seed, path) pairs always produce identical draws, independent of creation
    order, so every sampling task in the harness owns a stable stream.
    """

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.path = tuple(int(p) for p in path)
        self.gen = np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        )

    def child(self, *labels) -> "RngStream":
        coded = tuple(
            zlib.crc32(p.encode()) if isinstance(p, str) else int(p)
            for p in labels
        )
        return RngStream(self.seed, self.path + coded)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, path={self.path})"


@dataclass(frozen=True)
class Configuration:
    """A finite configuration: an array of points, one row per point."""

    points: np.ndarray  # (n, ambient_dim)

    @property
    def n(self) -> int:
        return int(self.points.shape[0])

    def without(self, indices: Sequence[int]) -> "Configuration":
        mask = np.ones(self.n, dtype=bool)
        mask[list(indices)] = False
        return Configuration(self.points[mask])

    def union(self, extra: np.ndarray) -> "Configuration":
        extra = np.atleast_2d(np.asarray(extra, dtype=float))
        if self.n == 0:
            return Configuration(extra.copy())
        return Configuration(np.vstack([self.points, extra]))


def m_subsets(config: Configuration, m: int) -> list[tuple[int, ...]]:
    """Index tuples of the m-point subsets of a configuration."""
    return list(itertools.combinations(range(config.n), m))


@dataclass(frozen=True)
class SampleBatch:
    """A batch of configurations stored flat for vectorized reductions."""

    points: np.ndarray  # (total, ambient)
    offsets: np.ndarray  # (n_samples + 1,)

    @property
    def n_samples(self) -> int:
        return len(self.offsets) - 1

    @property
    def sample_ids(self) -> np.ndarray:
        return np.repeat(
            np.arange(self.n_samples), np.diff(self.offsets)
        )

    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    def config(self, i: int) -> Configuration:
        return Configuration(self.points[self.offsets[i] : self.offsets[i + 1]])

    def segment_sum(self, values: np.ndarray) -> np.ndarray:
        """Per-configuration sums of a per-point array."""
        return np.bincount(
            self.sample_ids, weights=values, minlength=self.n_samples
        )

    def __iter__(self):
        for i in range(self.n_samples):
            yield self.config(i)


# ---------------------------------------------------------------------------
# sampling


def _draw_locations(
    space: Space,
    intensity: IntensitySpec,
    window: Window,
    rng: np.random.Generator,
    n: int,
) -> np.ndarray:
    """n iid draws from sigma / sigma(window)."""
    if n == 0:
        return np.zeros((0, space.ambient_dim))
    if isinstance(space, Sphere):
        v = rng.normal(size=(n, 3))
        return v / np.linalg.norm(v, axis=1, keepdims=True)
    if window.kind == "all":
        if intensity.family != "gaussian":
            raise ValueError("full-space sampling needs the gaussian intensity")
        return rng.normal(scale=intensity.scale, size=(n, space.dim))
    # box window: uniform is direct; otherwise rejection against sup rho
    lo = np.array([b[0] for b in window.bounds])
    hi = np.array([b[1] for b in window.bounds])
    if intensity.family == "uniform":
        return lo + (hi - lo) * rng.uniform(size=(n, space.dim))
    # sup of rho over the box: for the gaussian it is attained at the point
    # closest to the origin; for custom densities, probe a grid and pad.
    if intensity.family == "gaussian":
        closest = np.clip(np.zeros(space.dim), lo, hi)
        rho_max = float(intensity.rho(closest[None, :])[0])
    else:
        grids = np.meshgrid(
            *[np.linspace(a, b, 41) for a, b in window.bounds], indexing="ij"
        )
        probe = np.stack([g.ravel() for g in grids], axis=-1)
        rho_max = 1.2 * float(np.max(intensity.rho(probe))) + 1e-12
    out = np.zeros((n, space.dim))
    filled = 0
    while filled < n:
        want = max(n - filled, 64)
        prop = lo + (hi - lo) * rng.uniform(size=(want, space.dim))
        acc = rng.uniform(size=want) * rho_max <= intensity.rho(prop)
        take = prop[acc][: n - filled]
        out[filled : filled + take.shape[0]] = take
        filled += take.shape[0]
    return out


def sample(
    space: Space,
    intensity: IntensitySpec,
    window: Window,
    rng: RngStream,
    mass: Optional[float] = None,
) -> Configuration:
    """One Poisson configuration on the window."""
    if mass is None:
        mass = sigma_mass(space, intensity, window)
    n = int(rng.gen.poisson(mass))
    return Configuration(_draw_locations(space, intensity, window, rng.gen, n))


def sample_batch(
    space: Space,
    intensity: IntensitySpec,
    window: Window,
    rng: RngStream,
    n_samples: int,
    mass: Optional[float] = None,
) -> SampleBatch:
    """A batch of independent configurations, stored flat."""
    if mass is None:
        mass = sigma_mass(space, intensity, window)
    counts = rng.gen.poisson(mass, size=n_samples)
    offsets = np.zeros(n_samples + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    pts = _draw_locations(space, intensity, window, rng.gen, int(offsets[-1]))
    return SampleBatch(pts, offsets)


# ---------------------------------------------------------------------------
# sigma-quadrature and iterated-kernel profiles


def sigma_nodes(
    space: Space,
    intensity: IntensitySpec,
    window: Window,
    n_per_axis: int = 48,
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights such that sum w_q f(x_q) ~ int_window f d sigma."""
    if isinstance(space, Sphere):
        pts, w = sphere_rule(n_per_axis, 2 * n_per_axis)
        return pts, w * intensity.rho(pts)
    if window.kind == "all":
        if intensity.family != "gaussian":
            raise ValueError("full-space quadrature needs the gaussian intensity")
        return gauss_hermite_gaussian(space.dim, n_per_axis, intensity.scale)
    nodes, w = tensor_rule(window.bounds, n_per_axis)
    return nodes, w * intensity.rho(nodes)


def _cheb_nodes(lo: float, hi: float, n: int) -> np.ndarray:
    i = np.arange(n)
    x = np.cos(np.pi * i / (n - 1))
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * x[::-1]


def _cheb_weights(n: int) -> np.ndarray:
    w = np.ones(n)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


class ChebProfile:
    """Barycentric Chebyshev interpolant of a function of 1 or 2 statistics."""

    def __init__(self, axes: Sequence[np.ndarray], values: np.ndarray):
        self.axes = [np.asarray(a, dtype=float) for a in axes]
        self.values = np.asarray(values, dtype=float)
        self.weights = [_cheb_weights(len(a)) for a in self.axes]

    def _axis_matrix(self, axis: int, s: np.ndarray) -> np.ndarray:
        x = self.axes[axis]
        w = self.weights[axis]
        # refuse to extrapolate (or read NaN); the tolerance admits only the
        # rounding with which a kernel step's shifted grid meets the endpoints
        tol = 1e-8 * max(abs(x[0]), abs(x[-1]))
        if s.size and not (s.min() >= x[0] - tol and s.max() <= x[-1] + tol):
            raise ValueError(f"profile axis {axis} spans [{x[0]:.6g}, {x[-1]:.6g}], "
                             f"asked for [{s.min():.6g}, {s.max():.6g}]")
        # the matrices run to millions of entries: build A in place
        A = s[:, None] - x[None, :]
        exact = np.abs(A) <= 1e-14
        hit = exact.any(axis=1)
        A[exact] = 1.0
        np.divide(w, A, out=A)
        A /= np.sum(A, axis=1, keepdims=True)
        A[hit] = exact[hit]
        return A

    def __call__(self, S: np.ndarray) -> np.ndarray:
        S = np.atleast_2d(np.asarray(S, dtype=float))
        if S.shape[1] != len(self.axes):
            raise ValueError("statistic dimension mismatch")
        # evaluate in chunks: the barycentric matrices are (rows, cheb_n) and
        # the callers feed millions of rows
        out = np.empty(S.shape[0])
        step = 1 << 16
        for a in range(0, S.shape[0], step):
            chunk = S[a:a + step]
            A0 = self._axis_matrix(0, chunk[:, 0])
            if len(self.axes) == 1:
                out[a:a + step] = A0 @ self.values
            else:
                A1 = self._axis_matrix(1, chunk[:, 1])
                out[a:a + step] = np.einsum("pi,pj,ij->p", A0, A1, self.values)
        return out


def _axes(lo, hi, phi_lo, phi_hi, j: int, cheb_n: int) -> list[np.ndarray]:
    """Axes of a profile with j statistic-additions still ahead of it: [lo, hi]
    widened by j increments in [phi_lo, phi_hi], padded for safety."""
    pad = 1e-9 + 1e-12 * (np.abs(phi_lo) + np.abs(phi_hi))
    lo, hi = lo + j * phi_lo - pad, hi + j * phi_hi + pad
    return [_cheb_nodes(a, b, cheb_n) for a, b in zip(lo, hi)]


def _sample_profile(outer, axes: list[np.ndarray]) -> ChebProfile:
    grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    return ChebProfile(axes, np.reshape(outer(grid), [len(axes[0])] * len(axes)))


# Quadrature nodes per barycentric contraction in the 2-statistic kernel
# step: two (chunk, cheb_n, cheb_n) tensors, 2 x 8.4 MB at cheb_n = 64. A
# 16 x 16 tensor rule is a single chunk.
_STEP_CHUNK = 256


def _kernel_step(
    profile: ChebProfile, axes: list, inner_values: np.ndarray, w: np.ndarray
) -> ChebProfile:
    """One sigma-integration, s -> sum_q w_q profile(s + phi(x_q)), on ``axes``."""
    Q, N = inner_values.shape
    cheb_n = len(axes[0])
    if N == 1:
        # evaluate previous profile at s + phi(x_q), integrate over q
        shifted = axes[0][:, None] + inner_values[None, :, 0]
        prev = profile(shifted.reshape(-1, 1)).reshape(cheb_n, Q)
        vals = prev @ w
    else:
        # the grid is a tensor product, so the shifted interpolation
        # factorizes into per-axis barycentric matrices (one per node),
        # contracted a chunk of nodes at a time to bound the memory
        for lo in range(0, Q, _STEP_CHUNK):
            q = slice(lo, lo + _STEP_CHUNK)
            A0 = profile._axis_matrix(
                0, (axes[0][None, :] + inner_values[q, :1]).ravel()
            ).reshape(-1, cheb_n, cheb_n)
            A1 = profile._axis_matrix(
                1, (axes[1][None, :] + inner_values[q, 1:2]).ravel()
            ).reshape(-1, cheb_n, cheb_n)
            part = np.einsum(
                "q,qik,kl,qjl->ij", w[q], A0, profile.values, A1, optimize=True
            )
            vals = part if lo == 0 else vals + part
    return ChebProfile(axes, vals.reshape([cheb_n] * N))


def iterated_kernel(
    outer: Callable[[np.ndarray], np.ndarray],
    inner_values: np.ndarray,
    quad_weights: np.ndarray,
    step_weights: Sequence[np.ndarray],
    base_range: tuple[np.ndarray, np.ndarray],
    cheb_n: int = 64,
) -> ChebProfile:
    """Collapse an m-fold sigma-integral of outer(s + sum_i phi(x_i)) into a
    profile of the free statistic s.

    ``inner_values``: (Q, N) values of the N statistics' integrands at the
    quadrature nodes; ``step_weights``: per-integration-step extra scalar
    weights at the nodes (length m); ``base_range``: (lo, hi) arrays, the
    range of s the final profile must cover.

    Returns the profile h with
    h(s) = int ... int outer(s + sum phi(x_i)) prod w_i(x_i) sigma(dx_m)...
    """
    m = len(step_weights)
    lo, hi = (np.asarray(b, dtype=float) for b in base_range)
    bounds = (lo, hi, inner_values.min(axis=0), inner_values.max(axis=0))
    # innermost: evaluate outer itself on the widest domain
    profile = _sample_profile(outer, _axes(*bounds, m, cheb_n))
    for step, sw in enumerate(step_weights):
        axes = _axes(*bounds, m - step - 1, cheb_n)
        profile = _kernel_step(profile, axes, inner_values, quad_weights * sw)
    return profile


# ---------------------------------------------------------------------------
# series expansion of expectations


@dataclass(frozen=True)
class SeriesResult:
    value: float
    tail_bound: float
    terms: tuple[float, ...]
    certified: bool


def expect_series(
    space: Space,
    intensity: IntensitySpec,
    window: Window,
    outer: Callable[[np.ndarray], np.ndarray],
    inners: Sequence,
    envelope: Optional[Callable[[int], float]] = None,
    k_max: int = 8,
    cheb_n: int = 64,
    quad_n: int = 40,
) -> SeriesResult:
    """Expectation of F(gamma) = outer(<phi_1, gamma>, ..., <phi_N, gamma>)
    under the Poisson law, via the fixed-count expansion

        E F = e^{-sigma(L)} sum_{k >= 0} sigma(L)^k / k! * E[F | k points],

    truncated at ``k_max`` with an explicit tail bound. Each conditional
    expectation is an iterated 1-point integral (profile method): the chain
    h_0 = outer, h_k(s) = int h_{k-1}(s + phi(x)) sigma(dx) has h_k(0) = the
    k-fold integral, so all terms cost k_max quadrature passes rather than a
    2k-dimensional rule. Each h_k is read at 0, so its domain is the hull of
    {0} and (k_max - k)[phi_lo, phi_hi]; for positive phi the latter alone
    misses 0.

    ``envelope(k)`` must bound sup |F| over k-point configurations in the
    window; when omitted, a probe bound is used and the result is flagged
    uncertified.
    """
    N = len(inners)
    if N not in (1, 2):
        raise ValueError("series evaluator supports 1 or 2 inner statistics")
    mass = sigma_mass(space, intensity, window)
    nodes, w = sigma_nodes(space, intensity, window, quad_n)
    inner_vals = np.stack(
        [np.asarray(f.value_batch(nodes), dtype=float) for f in inners], axis=-1
    )
    zero = np.zeros((1, N))
    phi_lo, phi_hi = inner_vals.min(axis=0), inner_vals.max(axis=0)
    bounds = (zero[0], zero[0], np.minimum(phi_lo, 0.0), np.maximum(phi_hi, 0.0))
    profile = _sample_profile(outer, _axes(*bounds, k_max, cheb_n))
    terms = [float(np.asarray(outer(zero))[0])]  # k = 0: empty configuration
    for k in range(1, k_max + 1):
        profile = _kernel_step(profile, _axes(*bounds, k_max - k, cheb_n), inner_vals, w)
        # profile(0) is the k-fold sigma-integral of F over Lambda^k; the
        # expansion wants it with the 1/k! in front
        terms.append(float(profile(zero)[0]) / math.factorial(k))
    value = math.exp(-mass) * sum(terms[k] for k in range(k_max + 1))

    certified = envelope is not None
    if envelope is None:

        def envelope(k: int) -> float:  # probe bound, not certified
            corners = np.array(
                list(
                    itertools.product(
                        *[(k * phi_lo[i], k * phi_hi[i], 0.0) for i in range(N)]
                    )
                )
            )
            return float(np.max(np.abs(outer(corners))))

    tail = 0.0
    log_mass = math.log(mass) if mass > 0 else -math.inf
    for k in range(k_max + 1, k_max + 400):
        log_term = -mass + k * log_mass - math.lgamma(k + 1)
        t = math.exp(log_term) * float(envelope(k))
        tail += t
        if t < 1e-18 * max(abs(value), 1.0) and k > k_max + 5:
            break
    return SeriesResult(value, tail, tuple(terms), certified)


# ---------------------------------------------------------------------------
# Mecke identity check


@dataclass(frozen=True)
class MeckeFunctional:
    """f(gamma, xbar) = [sum over orderings prod_i phi_i(x_{order(i)})] * g(<psi, gamma>).

    ``slot_fields``: the per-slot factors phi_i (length m). ``outer``/``inner``
    give the optional cylinder factor (None means the constant 1).
    """

    slot_fields: tuple
    outer: Optional[Callable[[np.ndarray], np.ndarray]] = None
    inner: Optional[object] = None
    name: str = "mecke-functional"

    @property
    def m(self) -> int:
        return len(self.slot_fields)


def mecke_check(
    space: Space,
    intensity: IntensitySpec,
    window: Window,
    functional: MeckeFunctional,
    rng: RngStream,
    n_samples: int = 100_000,
    cheb_n: int = 64,
    quad_n: int = 40,
) -> CheckResult:
    """Verify the multivariate Mecke identity for the given functional:

        E sum_{xbar subset gamma, |xbar| = m} f(gamma, xbar)
            = (1/m!) int E f(gamma + xbar, xbar) sigma^m(dxbar).

    Both sides are evaluated on the same sampled configurations (the right
    side is Rao-Blackwellized: the sigma^m integral is collapsed into a
    profile of the cylinder statistic, then averaged over the samples), so the
    verdict is based on the paired difference and its standard error.
    """
    m = functional.m
    batch = sample_batch(space, intensity, window, rng, n_samples)
    inside = window.contains(batch.points)

    # per-point values of the slot factors, zeroed outside the window
    slot_vals = [
        np.where(inside, f.value_batch(batch.points), 0.0)
        for f in functional.slot_fields
    ]

    if functional.inner is not None:
        psi_vals = np.where(
            inside, functional.inner.value_batch(batch.points), 0.0
        )
        s_stat = batch.segment_sum(psi_vals)
        g_of_s = np.asarray(functional.outer(s_stat[:, None]), dtype=float)
    else:
        s_stat = np.zeros(batch.n_samples)
        g_of_s = np.ones(batch.n_samples)

    # left side: ordered-distinct sums over the configuration
    if m == 1:
        sums = batch.segment_sum(slot_vals[0])
        lhs_vals = sums * g_of_s
    elif m == 2:
        s1 = batch.segment_sum(slot_vals[0])
        s2 = batch.segment_sum(slot_vals[1])
        cross = batch.segment_sum(slot_vals[0] * slot_vals[1])
        lhs_vals = (s1 * s2 - cross) * g_of_s
    else:
        raise ValueError("mecke_check supports m in {1, 2}")

    # right side profile: h(s) = int..int prod phi_i * g(s + sum psi(x_i))
    nodes, w = sigma_nodes(space, intensity, window, quad_n)
    phi_node_vals = [
        np.asarray(f.value_batch(nodes), dtype=float) for f in functional.slot_fields
    ]
    if functional.inner is not None:
        psi_nodes = np.asarray(functional.inner.value_batch(nodes), dtype=float)
        inner_vals = psi_nodes[:, None]
        lo = np.array([min(float(np.min(s_stat)), 0.0)])
        hi = np.array([max(float(np.max(s_stat)), 0.0)])
        prof = iterated_kernel(
            functional.outer, inner_vals, w, phi_node_vals, (lo, hi), cheb_n
        )
        rhs_vals = prof(s_stat[:, None])
    else:
        const = 1.0
        for pv in phi_node_vals:
            const *= float(w @ pv)
        rhs_vals = np.full(batch.n_samples, const)

    diff = lhs_vals - rhs_vals
    se = float(np.std(diff, ddof=1) / math.sqrt(batch.n_samples))
    return CheckResult.from_estimates(
        check=f"mecke-m{m}-{functional.name}",
        lhs=McEstimate.from_samples(lhs_vals),
        rhs=McEstimate.from_samples(rhs_vals),
        stderr_diff=se,
        detail={"coupled": True},
    )


def laplace_check(
    space: Space,
    intensity: IntensitySpec,
    window: Window,
    f_field,
    rng: RngStream,
    n_samples: int = 100_000,
    quad_n: int = 64,
    name: str = "laplace",
) -> CheckResult:
    """Laplace functional: E exp<f, gamma> = exp int (e^f - 1) d sigma."""
    batch = sample_batch(space, intensity, window, rng, n_samples)
    inside = window.contains(batch.points)
    fv = np.where(inside, f_field.value_batch(batch.points), 0.0)
    lhs_vals = np.exp(batch.segment_sum(fv))
    nodes, w = sigma_nodes(space, intensity, window, quad_n)
    rhs = math.exp(float(w @ (np.exp(f_field.value_batch(nodes)) - 1.0)))
    return CheckResult.from_estimates(
        check=f"laplace-{name}",
        lhs=McEstimate.from_samples(lhs_vals),
        rhs=McEstimate.exact(rhs),
    )
