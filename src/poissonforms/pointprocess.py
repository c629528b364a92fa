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

import functools
import math
import zlib
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .geometry import (
    IntensitySpec,
    Space,
    Sphere,
    Window,
    sigma_mass,
)
from .fields import PointTable
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
    "sample_views",
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


# Rows per view of ``_map_views``: the points of a view of ``sample_views``
# (about 1,300 configurations at sigma-mass 2 pi), or the particles of a
# chunk of diffusion replicas with the noise they are stepped through. The
# dozens of 64 kB per-row temporaries that one statistic builds then stay
# in cache instead of streaming through memory, and stay under glibc's
# initial 128 kB mmap threshold, so a fresh process takes them from its
# heap instead of mapping and faulting each afresh.
_CHUNK_POINTS = 1 << 13


@dataclass(frozen=True)
class SampleBatch:
    """A batch of configurations stored flat for vectorized reductions. The
    Monte Carlo checks run them on views of whole configurations that
    ``sample_views`` draws when they are used."""

    points: np.ndarray  # (total, ambient)
    offsets: np.ndarray  # (n_samples + 1,)

    @property
    def n_samples(self) -> int:
        return len(self.offsets) - 1

    @functools.cached_property
    def sample_ids(self) -> np.ndarray:
        """The configuration of each point; built once, read-only."""
        out = np.repeat(np.arange(self.n_samples), np.diff(self.offsets))
        out.setflags(write=False)
        return out

    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    def config(self, i: int) -> Configuration:
        return Configuration(self.points[self.offsets[i] : self.offsets[i + 1]])

    def segment_sum(self, values: np.ndarray) -> np.ndarray:
        """Per-configuration sums of a per-point array: the one sum over
        sample ids that the batched statistics and checks use. Always
        float, also over no points, where ``np.bincount`` returns ints."""
        return np.bincount(
            self.sample_ids, weights=values, minlength=self.n_samples
        ).astype(float, copy=False)

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
        # both families are constant on the sphere: uniform directions
        v = rng.normal(size=(n, 3))
        return v / np.linalg.norm(v, axis=1, keepdims=True)
    if window.kind == "all":
        if intensity.family != "gaussian":
            raise ValueError("full-space sampling needs the gaussian intensity")
        return rng.normal(scale=intensity.scale, size=(n, space.dim))
    # box window: uniform is direct; the gaussian by rejection against its
    # exact sup over the box, attained at the point closest to the origin
    lo = np.array([b[0] for b in window.bounds])
    hi = np.array([b[1] for b in window.bounds])
    if intensity.family == "uniform":
        return lo + (hi - lo) * rng.uniform(size=(n, space.dim))
    closest = np.clip(np.zeros(space.dim), lo, hi)
    rho_max = float(intensity.rho(closest[None, :])[0])
    out = np.zeros((n, space.dim))
    filled = 0
    while filled < n:
        want = max(n - filled, 64)
        prop = lo + (hi - lo) * rng.uniform(size=(want, space.dim))
        rho = intensity.rho(prop)
        acc = rng.uniform(size=want) * rho_max <= rho
        take = prop[acc][: n - filled]
        out[filled : filled + take.shape[0]] = take
        filled += take.shape[0]
    return out


def sample(
    space: Space,
    intensity: IntensitySpec,
    window: Window,
    rng: RngStream,
) -> Configuration:
    """One Poisson configuration on the window."""
    n = int(rng.gen.poisson(sigma_mass(space, intensity, window)))
    return Configuration(_draw_locations(space, intensity, window, rng.gen, n))


def sample_batch(
    space: Space,
    intensity: IntensitySpec,
    window: Window,
    rng: RngStream,
    n_samples: int,
) -> SampleBatch:
    """A batch of independent configurations, stored flat."""
    offsets = _offsets(space, intensity, window, rng, n_samples)
    pts = _draw_locations(space, intensity, window, rng.gen, int(offsets[-1]))
    return SampleBatch(pts, offsets)


def _offsets(space, intensity, window, rng: RngStream, n_samples: int) -> np.ndarray:
    """The Poisson counts of a batch, as offsets into its flat points."""
    counts = rng.gen.poisson(sigma_mass(space, intensity, window), size=n_samples)
    offsets = np.zeros(n_samples + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def _per_point_draws(space, intensity, window) -> bool:
    """Whether ``_draw_locations`` reads a fixed amount of the stream per
    point, so that draws in consecutive pieces equal one draw."""
    return isinstance(space, Sphere) or window.kind == "all" or intensity.family == "uniform"


def _map_views(off: np.ndarray, fn: Callable):
    """The view loop of every Monte Carlo check: ``fn(a, b)`` on consecutive
    runs a..b-1 of whole configurations (or replicas) with row offsets
    ``off``, at most ``_CHUNK_POINTS`` rows each unless one configuration is
    larger; its per-configuration outputs (an array or a tuple of arrays)
    written in order into whole arrays of the first run's dtypes and shapes."""
    n, cuts = len(off) - 1, [0]
    while len(cuts) == 1 or cuts[-1] < n:
        hi = np.searchsorted(off, off[cuts[-1]] + _CHUNK_POINTS, side="right") - 1
        cuts.append(min(max(int(hi), cuts[-1] + 1), n))
    out = None
    for a, b in zip(cuts, cuts[1:]):
        part = fn(a, b)
        parts = part if isinstance(part, tuple) else (part,)
        if out is None:
            out = tuple(np.empty((n, *p.shape[1:]), p.dtype) for p in parts)
        for o, p in zip(out, parts):
            o[a:b] = p
    return out if isinstance(part, tuple) else out[0]


def sample_views(
    space: Space,
    intensity: IntensitySpec,
    window: Window,
    rng: RngStream,
    n_samples: int,
    fn: Callable,
):
    """``fn`` on consecutive views (``SampleBatch``es) of whole
    configurations of a batch, cut and joined by ``_map_views``. A view
    keeps its configurations' points in order, so point-wise work and
    segment sums equal those on the whole batch.

    The counts are drawn first and each view's points when it is used; the
    points and the stream's use equal ``sample_batch``'s. Rejection
    sampling draws the batch once and is sliced. ``fn`` must not draw from
    ``rng``: that would move every later view's points."""
    off = _offsets(space, intensity, window, rng, n_samples)
    whole = None if _per_point_draws(space, intensity, window) else _draw_locations(
        space, intensity, window, rng.gen, int(off[-1]))

    def view(a: int, b: int):
        pts = (_draw_locations(space, intensity, window, rng.gen, int(off[b] - off[a]))
               if whole is None else whole[off[a] : off[b]])
        return fn(SampleBatch(pts, off[a : b + 1] - off[a]))

    return _map_views(off, view)


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


@functools.lru_cache(maxsize=None)
def _dct1(n: int) -> np.ndarray:
    """The DCT-I: values at the n ascending ``_cheb_nodes`` to the
    coefficients c of their interpolant sum_k c_k T_k. The nodes run up from
    -1, so T_k at node j is (-1)^k cos(pi j k / (n - 1)). Cached per n and
    read-only."""
    j = np.arange(n)
    # reduce jk exactly before the cosine: pi jk / (n - 1) reaches ~200 rad
    M = np.cos(np.pi * (np.outer(j, j) % (2 * (n - 1))) / (n - 1)) * (2.0 / (n - 1))
    M[:, [0, -1]] *= 0.5
    M[[0, -1], :] *= 0.5
    M[1::2] *= -1.0
    M.setflags(write=False)
    return M


# Chop threshold relative to max|c|: trailing degrees below it are rounding
# noise of the DCT-I (about 1e-16 relative), not resolved content.
_CHOP_TOL = 1e-15

# Points per (kept, points) Chebyshev block of ``ChebProfile._series``: at
# most 8.4 MB at cheb_n = 64, freed once the factor rows take it to rank rows.
_SERIES_ROWS = 1 << 14


class ChebProfile:
    """Chebyshev series of a function of 1 or 2 statistics: the interpolant
    of its values on a tensor grid of ``_cheb_nodes``, held as coefficients
    (one DCT-I per axis) and evaluated by three-term recurrences.

    The series is chopped at its rounding plateau: on each axis the trailing
    degrees whose coefficients all lie below ``_CHOP_TOL`` * max|c| are
    dropped, and a two-statistic series is then held as a chopped SVD of the
    kept coefficient matrix, C ~ F0^T F1, keeping the ranks whose singular
    values lie above ``_CHOP_TOL`` * sigma_1. ``factors`` holds one
    (rank, kept degrees) factor per axis (one statistic: the single row of
    kept coefficients), so every recurrence runs over the kept degrees alone
    and every contraction over the kept rank. ``dropped`` is the absolute
    mass of the dropped coefficients plus sum sigma_r |u_r|_1 |v_r|_1 over
    the dropped ranks; since |T_k| <= 1 it bounds the change of the profile
    anywhere on its domain. ``resolved`` says that each axis dropped at
    least two degrees: one small trailing coefficient can be a parity zero
    of an even or odd function, not a plateau."""

    def __init__(self, axes: Sequence[np.ndarray], values: np.ndarray):
        self.axes = [np.asarray(a, dtype=float) for a in axes]
        c = _dct1(len(self.axes[0])) @ np.asarray(values, dtype=float)
        if len(self.axes) == 2:
            c = c @ _dct1(len(self.axes[1])).T
        big = np.abs(c) > _CHOP_TOL * np.max(np.abs(c))
        # per axis, keep through the last degree with a coefficient above the
        # threshold (at least degree 0)
        kept = [1 + int(i.max(initial=0)) for i in np.nonzero(big)]
        keep = tuple(slice(0, k) for k in kept)
        rest = np.abs(c)
        rest[keep] = 0.0
        self.dropped = float(rest.sum())
        self.resolved = all(n - k >= 2 for n, k in zip(c.shape, kept))
        if len(kept) == 1:
            self.factors = [c[None, keep[0]]]
            return
        U, sv, Vt = np.linalg.svd(c[keep], full_matrices=False)
        r = max(1, int(np.count_nonzero(sv > _CHOP_TOL * sv[0])))
        self.dropped += float(sv[r:] @ (np.abs(U[:, r:]).sum(axis=0)
                                        * np.abs(Vt[r:]).sum(axis=1)))
        self.factors = [U[:, :r].T * sv[:r, None], Vt[:r]]

    @property
    def kept(self) -> tuple[int, ...]:
        """The number of kept degrees per axis."""
        return tuple(F.shape[1] for F in self.factors)

    def _two_t(self, axis: int, s: np.ndarray) -> np.ndarray:
        """2t, with t the points s mapped onto [-1, 1] by the axis."""
        x = self.axes[axis]
        # refuse to extrapolate (or read NaN); the tolerance admits only the
        # rounding with which a kernel step's shifted grid meets the endpoints
        tol = 1e-8 * max(abs(x[0]), abs(x[-1]))
        if s.size and not (s.min() >= x[0] - tol and s.max() <= x[-1] + tol):
            raise ValueError(f"profile axis {axis} spans [{x[0]:.6g}, {x[-1]:.6g}], "
                             f"asked for [{s.min():.6g}, {s.max():.6g}]")
        # no clamp: inside the slack t leaves [-1, 1] by ~1e-8, where the
        # recurrences are still accurate and a clamp would move the value
        t2 = s - 0.5 * (x[0] + x[-1])
        t2 *= 4.0 / (x[-1] - x[0])
        return t2

    def _axis_matrix(self, axis: int, s: np.ndarray) -> np.ndarray:
        """T_k at the mapped points for each kept degree k: (kept, rows)."""
        t2 = self._two_t(axis, s)
        T = np.empty((self.factors[axis].shape[1], s.size))
        T[0] = 1.0
        if len(T) > 1:
            np.multiply(t2, 0.5, out=T[1])
        for k in range(2, T.shape[0]):
            np.multiply(t2, T[k - 1], out=T[k])
            T[k] -= T[k - 2]
        return T

    def _series(self, axis: int, s: np.ndarray) -> np.ndarray:
        """The axis' factor rows times its Chebyshev block at the points s:
        (rank, rows), the block built ``_SERIES_ROWS`` points at a time."""
        F = self.factors[axis]
        out = np.empty((len(F), s.size))
        for lo in range(0, s.size, _SERIES_ROWS):
            part = slice(lo, lo + _SERIES_ROWS)
            out[:, part] = F @ self._axis_matrix(axis, s[part])
        return out

    def __call__(self, S: np.ndarray) -> np.ndarray:
        S = np.atleast_2d(np.asarray(S, dtype=float))
        if S.shape[1] != len(self.axes):
            raise ValueError("statistic dimension mismatch")
        # the series is a sum over its rank of products of per-axis series
        A = self._series(0, S[:, 0])
        for axis in range(1, len(self.axes)):
            A *= self._series(axis, S[:, axis])
        return A.sum(axis=0)


def _axes(lo, hi, phi_lo, phi_hi, j: int, cheb_n: int) -> list[np.ndarray]:
    """Axes of a profile with j statistic-additions still ahead of it: [lo, hi]
    widened by j increments in [phi_lo, phi_hi], padded for safety."""
    pad = 1e-9 + 1e-12 * (np.abs(phi_lo) + np.abs(phi_hi))
    lo, hi = lo + j * phi_lo - pad, hi + j * phi_hi + pad
    return [_cheb_nodes(a, b, cheb_n) for a, b in zip(lo, hi)]


def _sample_profile(outer, axes: list[np.ndarray]) -> ChebProfile:
    grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    return ChebProfile(axes, np.reshape(outer(grid), [len(axes[0])] * len(axes)))


def _kernel_step(
    profile: ChebProfile, axes: list, inner_values: np.ndarray, w: np.ndarray
) -> ChebProfile:
    """One sigma-integration, s -> sum_q w_q profile(s + phi(x_q)), on ``axes``:
    each axis' ``_series`` at s_i + phi(x_q) is a (rank * q, i) block, and the
    step sums the first block over (rank, q) against the weights, times the
    second block for two statistics: one GEMV or one GEMM."""
    Q, N = inner_values.shape
    cheb_n = len(axes[0])
    A, *B = (profile._series(i, (axes[i][None, :] + inner_values[:, i:i + 1]).ravel())
             .reshape(-1, cheb_n) for i in range(N))
    wq = np.tile(w, len(A) // Q)[:, None]
    vals = A.T @ (B[0] * wq if B else wq)
    return ChebProfile(axes, vals.reshape([cheb_n] * N))


def iterated_kernel(
    outer: Callable[[np.ndarray], np.ndarray],
    inner_values: np.ndarray,
    quad_weights: np.ndarray,
    step_weights: Sequence[np.ndarray],
    base_range: tuple[np.ndarray, np.ndarray],
    cheb_n: int = 64,
) -> list[ChebProfile]:
    """Collapse an m-fold sigma-integral of outer(s + sum_i phi(x_i)) into a
    profile of the free statistic s, keeping every profile on the way.

    ``inner_values``: (Q, N) values of the N statistics' integrands at the
    quadrature nodes; ``step_weights``: per-integration-step extra scalar
    weights at the nodes (length m); ``base_range``: (lo, hi) arrays, the
    range of s every profile covers.

    Returns the chain h_0 = outer, ..., h_m with h_j(s) = int h_{j-1}(s +
    phi(x)) w_j(x) sigma(dx), so h_m(s) = int ... int outer(s + sum phi(x_i))
    prod w_i(x_i) sigma(dx_m)...; h_j is sampled on base_range widened by the
    m - j steps still ahead of it, each in the hull of {0} and [phi_lo,
    phi_hi], so that it covers base_range.
    """
    m = len(step_weights)
    lo, hi = (np.asarray(b, dtype=float) for b in base_range)
    bounds = (lo, hi, np.minimum(inner_values.min(axis=0), 0.0),
              np.maximum(inner_values.max(axis=0), 0.0))
    # innermost: evaluate outer itself on the widest domain
    chain = [_sample_profile(outer, _axes(*bounds, m, cheb_n))]
    for step, sw in enumerate(step_weights):
        axes = _axes(*bounds, m - step - 1, cheb_n)
        chain.append(_kernel_step(chain[-1], axes, inner_values, quad_weights * sw))
    return chain


def _chain_status(chain: Sequence[ChebProfile]) -> tuple[bool, tuple[int, ...]]:
    """Whether every profile of a chain resolved, and its largest kept
    degree per axis."""
    return (all(p.resolved for p in chain),
            tuple(int(d) - 1 for d in np.max([p.kept for p in chain], axis=0)))


# ---------------------------------------------------------------------------
# series expansion of expectations


@dataclass(frozen=True)
class SeriesResult:
    """``chop_bound`` bounds the change of ``value`` made by the chops;
    ``max_degree`` is the largest kept degree per axis over the chain;
    ``certified`` says every profile reached its rounding plateau."""

    value: float
    tail_bound: float
    terms: tuple[float, ...]
    certified: bool
    chop_bound: float
    max_degree: tuple[int, ...]


def expect_series(
    space: Space,
    intensity: IntensitySpec,
    window: Window,
    outer: Callable[[np.ndarray], np.ndarray],
    inners: Sequence,
    envelope: Callable[[int], float],
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
    2k-dimensional rule: it is the ``iterated_kernel`` chain of k_max unit
    step weights on the base range {0}. Each h_k is a ``ChebProfile``
    sampled on ``cheb_n`` nodes per axis, chopped at its rounding plateau
    and held as one row of kept coefficients (one statistic) or a factor
    pair chopped at its rank (two). Each axis' factor rows take its
    Chebyshev block, built ``_SERIES_ROWS`` points at a time, to rank rows,
    and a step over Q quadrature nodes sums their products over (rank, q)
    in one matrix product.

    A chop (of degrees or of ranks) changes h_k by at most its dropped mass,
    and a step passes an earlier change on at most sum_q |w_q| times the
    Lebesgue constant of the nodes per axis; ``chop_bound`` sums these changes through the chain
    into a bound on the change of the value. ``certified`` says every
    profile resolved: it is false when some profile kept (almost) every
    degree on an axis, so that ``cheb_n`` is too small for that profile and
    its interpolation error is not bounded.

    ``envelope(k)`` must bound sup |F| over k-point configurations in the
    window; the tail bound sums it over the terms beyond ``k_max``. Raises
    ``ValueError`` if the tail sum has not converged after 400 terms (a
    sigma-mass far beyond ``k_max``).
    """
    N = len(inners)
    if N not in (1, 2):
        raise ValueError("series evaluator supports 1 or 2 inner statistics")
    mass = sigma_mass(space, intensity, window)
    nodes, w = sigma_nodes(space, intensity, window, quad_n)
    inner_vals = np.stack([f.value_batch(nodes) for f in inners], axis=-1)
    zero = np.zeros((1, N))
    chain = iterated_kernel(outer, inner_vals, w, [np.ones(len(w))] * k_max,
                            (zero[0], zero[0]), cheb_n)
    terms = [float(np.asarray(outer(zero))[0])]  # k = 0: empty configuration
    # a step maps a sup-norm change of h_{k-1} to at most `grow` times it in
    # h_k: the sigma-integral by sum |w|, the interpolation by the Lebesgue
    # constant of Chebyshev points, <= 2/pi log(cheb_n) + 1 per axis
    grow = float(np.abs(w).sum()) * (2.0 / math.pi * math.log(cheb_n) + 1.0) ** N
    err, chop_bound = chain[0].dropped, 0.0
    for k, profile in enumerate(chain[1:], start=1):
        # profile(0) is the k-fold sigma-integral of F over Lambda^k; the
        # expansion wants it with the 1/k! in front
        terms.append(float(profile(zero)[0]) / math.factorial(k))
        err = profile.dropped + grow * err  # sup change of h_k from every chop
        chop_bound += err / math.factorial(k)
    value = math.exp(-mass) * sum(terms[k] for k in range(k_max + 1))
    certified, max_degree = _chain_status(chain)
    tail = 0.0
    log_mass = math.log(mass) if mass > 0 else -math.inf
    for k in range(k_max + 1, k_max + 400):
        log_term = -mass + k * log_mass - math.lgamma(k + 1)
        t = math.exp(log_term) * float(envelope(k))
        tail += t
        # below the Poisson mode the terms still rise, however small they are
        if t < 1e-18 * max(abs(value), 1.0) and k > max(k_max + 5, mass):
            break
    else:
        raise ValueError(f"series tail did not converge within {k_max + 399} terms "
                         f"(sigma-mass {mass:.6g}); the tail bound would be truncated")
    return SeriesResult(value, tail, tuple(terms), certified,
                        math.exp(-mass) * chop_bound, max_degree)


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
    functionals: Sequence[MeckeFunctional],
    rng: RngStream,
    n_samples: int = 100_000,
) -> list[CheckResult]:
    """Verify the multivariate Mecke identity for each functional:

        E sum_{xbar subset gamma, |xbar| = m} f(gamma, xbar)
            = (1/m!) int E f(gamma + xbar, xbar) sigma^m(dxbar).

    Both sides are evaluated on the same sampled configurations (the right
    side is Rao-Blackwellized: the sigma^m integral is collapsed into a
    profile of the cylinder statistic, then averaged over the samples), so
    each verdict is based on the paired difference and its standard error;
    a cylinder factor's profile chain must also be ``certified`` to pass.
    All functionals read one batch, so their rows are dependent; each row
    is still a mean over ``n_samples`` independent configurations.
    """
    if any(fn.m not in (1, 2) for fn in functionals):
        raise ValueError("mecke_check supports m in {1, 2}")
    fields = {id(f): f for fn in functionals for f in (*fn.slot_fields, fn.inner)
              if f is not None}

    def left_and_stat(b: SampleBatch) -> tuple[np.ndarray, ...]:
        # every field's values and per-configuration sums, once per view
        table = PointTable(b.points)
        vals = {k: f.value_batch(b.points, table=table) for k, f in fields.items()}
        sums = {k: b.segment_sum(v) for k, v in vals.items()}
        out = []
        for fn in functionals:
            # ordered-distinct sums over the configuration
            i = [id(f) for f in fn.slot_fields]
            left = sums[i[0]] if fn.m == 1 else (
                sums[i[0]] * sums[i[1]] - b.segment_sum(vals[i[0]] * vals[i[1]]))
            if fn.inner is None:
                out.append(left)
            else:
                s_stat = sums[id(fn.inner)]
                out += [left * np.asarray(fn.outer(s_stat[:, None]), dtype=float), s_stat]
        return tuple(out)

    # every point is drawn inside the window: no mask is needed
    cols = list(sample_views(space, intensity, window, rng, n_samples, left_and_stat))[::-1]
    nodes, w = sigma_nodes(space, intensity, window, 40)

    def right_and_row(fn: MeckeFunctional) -> CheckResult:
        # the row's arrays are dropped when it returns
        lhs_vals = cols.pop()
        # right side profile: h(s) = int..int prod phi_i * g(s + sum psi(x_i))
        phi_node_vals = [f.value_batch(nodes) for f in fn.slot_fields]
        if fn.inner is not None:
            s_stat = cols.pop()
            inner_vals = fn.inner.value_batch(nodes)[:, None]
            span = (np.array([min(s_stat.min(), 0.0)]), np.array([max(s_stat.max(), 0.0)]))
            chain = iterated_kernel(fn.outer, inner_vals, w, phi_node_vals, span, 64)
            rhs_vals = chain[-1](s_stat[:, None])
            certified, max_degree = _chain_status(chain)
            detail = {"coupled": True, "certified": certified, "max_degree": list(max_degree)}
        else:
            rhs_vals = np.full(n_samples, math.prod(float(w @ pv) for pv in phi_node_vals))
            detail = {"coupled": True}
        se = float(np.std(lhs_vals - rhs_vals, ddof=1) / math.sqrt(n_samples))
        return CheckResult.from_estimates(
            f"mecke-m{fn.m}-{fn.name}", McEstimate.from_samples(lhs_vals),
            McEstimate.from_samples(rhs_vals), stderr_diff=se, detail=detail)

    return [right_and_row(fn) for fn in functionals]


def laplace_check(
    space: Space,
    intensity: IntensitySpec,
    window: Window,
    fields: Sequence[tuple[str, object]],
    rng: RngStream,
    n_samples: int = 100_000,
) -> list[CheckResult]:
    """Laplace functional E exp<f, gamma> = exp int (e^f - 1) d sigma, one
    row ``laplace-<name>`` per (name, f). All fields read one batch, so
    their rows are dependent; each row is still a mean over ``n_samples``
    independent configurations."""

    def left(b: SampleBatch) -> tuple[np.ndarray, ...]:
        table = PointTable(b.points)
        return tuple(np.exp(b.segment_sum(f.value_batch(b.points, table=table)))
                     for _, f in fields)

    lhs = sample_views(space, intensity, window, rng, n_samples, left)
    nodes, w = sigma_nodes(space, intensity, window, 64)
    return [CheckResult.from_estimates(
        f"laplace-{name}", McEstimate.from_samples(vals),
        McEstimate.exact(math.exp(float(w @ (np.exp(f.value_batch(nodes)) - 1.0)))))
        for (name, f), vals in zip(fields, lhs)]
