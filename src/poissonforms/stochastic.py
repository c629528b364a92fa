"""Diffusion paths, particle clouds, and Monte Carlo form semigroups.

The base diffusion solves

    d xi = beta(xi) dt + sqrt(2) dB

(Euler--Maruyama in R^d, geodesic steps on the sphere), so its generator is
Delta + <beta, grad> and the scalar semigroup E[F(xi_gamma(t))] estimates
e^{-tH} F for H = -Delta - <beta, grad>.  The diffusion coefficient sqrt(2)
is fixed: it is the unique normalization for which the generator matches H
without a factor 1/2.  Under the gaussian intensity on R^d the diffusion is
an Ornstein--Uhlenbeck process, and where no path is kept its endpoints are
drawn exactly, N(e^{bt} x, ((e^{2bt} - 1) / b) I) with b = -1/scale^2, in
one draw instead of t/dt Euler steps.

A configuration evolves as independent particles sharing one clock.  Form
semigroups additionally carry a frame matrix along the paths: per m-subset
of the starting configuration the frame solves

    M' = J(xi(s)) M,        M(0) = I,

for a symmetric block potential J (with discrete parallel transport
interleaved on the sphere), and the estimator averages the pulled-back
components M^T W(xi_gamma(t)).  With J = 0 this represents the Bochner
semigroup e^{-t H^B}; with J = -(curvature potential) it represents the
de Rham semigroup e^{-t H^R}.  The frame ODE is discretized multiplicatively
with the symmetric order-2 splitting

    M <- expm((dt/2) J_{k+1}) T_k expm((dt/2) J_k) M,

where T_k is the transport step (identity in R^d). On flat space every J
takes the midpoint rule expm((dt/2)(J_k + J_{k+1})) instead, which equals
the split product only when J_k and J_{k+1} commute, as for the gaussian's
constant J; otherwise it is another order-2 step.

J and T_k act on each point's slot separately, and expm(A (+) B) =
expm(A) (x) expm(B): on the fibre's block of per-slot degrees (q_1, ...,
q_m) the frame is the Kronecker product of its points' degree-q_s frames.
So the ODE is solved once per (path, point, slot degree) on stacked rows.
c_sup, the constant of the norm bound, is the largest sum of the points'
top slot eigenvalues over the steps and blocks.

The Monte Carlo checks move their replicas in the chunks that the view loop
of ``pointprocess.sample_views`` cuts (``_replica_views``). Each chunk's
noise is drawn just before it is stepped (an antithetic chunk with its
negative), and F or W is read at the chunk's ends through one ``BatchEval``
over its replicas, so the scalar semigroup is the degree-0 case of the form
semigroup and sums per configuration with ``SampleBatch.segment_sum``.
``semigroup_Tn`` keeps each replica's pulled-back value in its
``FormEstimate``; the eigen-decay and generator checks contract those
samples with their target (``FormEstimate.contract``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import geometry
from .exterior import _splits, wedge_power
from .forms import BatchEval, BatchValue, CylinderForm, CylinderFunction
from .geometry import (
    Euclidean,
    IntensitySpec,
    Space,
    Sphere,
    Window,
    beta,
    frame_maps,
)
from .operators import h_pi_sigma, lift_batch, weitz_matrix, OperatorReport
from .pointprocess import (Configuration, RngStream, SampleBatch, _draw_locations,
                           _map_views, sample_views)
from .report import CheckResult, McEstimate

__all__ = [
    "BlowUpError",
    "SdeConfig",
    "ParticlePath",
    "FrameMatrix",
    "BlockPotential",
    "zero_potential",
    "curvature_potential",
    "simulate_particles",
    "parallel_translate",
    "semigroup_T0",
    "FormEstimate",
    "semigroup_Tn",
    "eigen_decay_check",
    "domination_check",
    "frame_bound_check",
    "generator_check",
    "generator_check_function",
    "semigroup_property_check",
    "poisson_invariance_check",
    "sphere_uniform_check",
]


class BlowUpError(RuntimeError):
    """A path left the finite domain; reported rather than dropped."""

    def __init__(self, step: int, time: float):
        super().__init__(f"non-finite state at step {step} (t = {time:.6g})")
        self.step = step
        self.time = time


@dataclass(frozen=True)
class SdeConfig:
    """Time horizon and step for the drifted diffusion.

    ``dt`` is a target granularity: the integrator uses t / round(t/dt)
    steps so the horizon is hit exactly.  It does not act where flat
    gaussian endpoints are drawn from their exact law (no path kept; see
    ``_replica_views``).
    """

    t: float
    dt: float = 1e-2

    def __post_init__(self):
        if self.t <= 0.0 or self.dt <= 0.0:
            raise ValueError("t and dt must be positive")
        if self.dt > self.t * (1.0 + 1e-12):
            raise ValueError("dt must not exceed the horizon t")

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.t / self.dt)))

    @property
    def step(self) -> float:
        return self.t / self.n_steps

    def with_horizon(self, t: float) -> "SdeConfig":
        """Same granularity (steps scaled proportionally), new horizon."""
        return SdeConfig(t=t, dt=min(self.dt, t))


def _step_rows(
    space: Space,
    intensity: IntensitySpec,
    X: np.ndarray,
    eps: np.ndarray,
    dt: float,
    step_index: int,
) -> np.ndarray:
    """One Euler--Maruyama step on every row; geodesic version on the sphere."""
    w = beta(space, intensity, X) * dt + math.sqrt(2.0 * dt) * eps
    # follow the geodesic along the tangent part of the ambient increment;
    # the projected 3d white noise is white in the sphere's frame
    Xn = space.exp(X, space.project_tangent(X, w))
    if isinstance(space, Sphere):
        Xn /= np.linalg.norm(Xn, axis=1, keepdims=True)
    if not np.all(np.isfinite(Xn)):
        raise BlowUpError(step_index, (step_index + 1) * dt)
    return Xn


def _evolve(
    space: Space,
    intensity: IntensitySpec,
    X: np.ndarray,
    eps: np.ndarray,
    dt: float,
    keep_paths: bool = False,
) -> np.ndarray:
    """Step every row of X through the noise eps (rows, steps, dim): the
    final rows, or with ``keep_paths`` every state (rows, steps + 1, dim)."""
    K = eps.shape[1]
    if keep_paths:
        paths = np.empty((X.shape[0], K + 1, X.shape[1]))
        paths[:, 0, :] = X
    for k in range(K):
        X = _step_rows(space, intensity, X, eps[:, k, :], dt, k)
        if keep_paths:
            paths[:, k + 1, :] = X
    return paths if keep_paths else X


@dataclass
class ParticlePath:
    """Independent particle paths over a shared clock: ``paths`` has shape
    (n_particles, len(ts), ambient_dim), every state from the start to
    ``final()``."""

    space: Space
    ts: np.ndarray
    paths: np.ndarray

    @property
    def n_particles(self) -> int:
        return self.paths.shape[0]

    @property
    def t(self) -> float:
        return float(self.ts[-1]) if len(self.ts) else 0.0

    def final(self) -> np.ndarray:
        return self.paths[:, -1, :]


def simulate_particles(
    space: Space,
    intensity: IntensitySpec,
    gamma: Configuration,
    cfg: SdeConfig,
    rng: RngStream,
) -> ParticlePath:
    """Evolve every point of gamma independently, keeping the whole path:
    one replica of ``_replica_views``, its noise drawn from rng."""
    paths = _replica_views(space, intensity, gamma.points, cfg, 1, rng, lambda p: p,
                           keep_paths=True)
    return ParticlePath(space, np.linspace(0.0, cfg.t, cfg.n_steps + 1), paths[0])


# ---------------------------------------------------------------------------
# block potentials and the frame ODE


class BlockPotential:
    """Symmetric potential on the n-covector fibre over an m-point tuple,
    acting on each point's slot separately: ``block_fn(X, q)`` gives the
    degree-q slot matrices at the stacked points X, (N, C(d, q), C(d, q)).

    ``scalar`` marks the case J = c * Identity on the whole fibre, which
    admits exact exponentials and needs no path storage on flat space; a
    degree-q slot carries c q / n of it.
    """

    def __init__(
        self,
        n: int,
        block_fn: Optional[Callable[[np.ndarray, int], np.ndarray]] = None,
        scalar: Optional[float] = None,
        name: str = "J",
    ):
        if block_fn is None and scalar is None:
            raise ValueError("provide a block function or a scalar")
        self.n = n
        self._fn = block_fn
        self.scalar = scalar
        self.name = name

    def slot(self, X: np.ndarray, q: int, d: int) -> np.ndarray:
        """Degree-q slot matrices at the points X (N, ambient), with d the
        tangent dimension: shape (N, C(d, q), C(d, q))."""
        if self.scalar is not None:
            block = (self.scalar * q / self.n) * np.eye(math.comb(d, q))
            return np.broadcast_to(block, (len(X),) + block.shape)
        return np.asarray(self._fn(X, q), dtype=float)


def zero_potential(n: int) -> BlockPotential:
    return BlockPotential(n, scalar=0.0, name="0")


def curvature_potential(
    space: Space,
    intensity: IntensitySpec,
    n: int,
    allow_scalar: bool = True,
) -> BlockPotential:
    """Minus the lifted curvature potential on n-covectors, the de Rham
    choice: with M' = J M the pulled-back estimator represents e^{-t H^R} =
    e^{-t(H^B + R)}.  Its degree-q slot matrix at x is -``weitz_matrix``(x,
    q).  It is -(n / scale^2) I for the gaussian intensity on R^d and -I on
    1-covectors of the sphere, where both families are constant: exact fast
    paths unless ``allow_scalar`` is off (useful to exercise the generic
    ODE)."""
    scalar = None
    if allow_scalar and not isinstance(space, Sphere):
        scalar = n / intensity.scale**2 if intensity.family == "gaussian" else 0.0
    elif allow_scalar and n == 1:
        scalar = 1.0
    if scalar is not None:
        return BlockPotential(n, scalar=-scalar, name="-1*R")
    return BlockPotential(
        n,
        block_fn=lambda X, q: -weitz_matrix(space, intensity, X, q),
        name="-1*R",
    )


@dataclass
class FrameMatrix:
    """Frame solution at time t, mapping the starting fibre to the fibre at
    the path endpoints, together with the largest J-eigenvalue met on the
    path (the constant in the norm bound)."""

    t: float
    P: np.ndarray
    c_sup: float

    def norm(self) -> float:
        # empty fibre (m-subset with m > n has no fully occupied sector)
        return float(np.linalg.norm(self.P, 2)) if self.P.size else 0.0


def _expm_sym(A: np.ndarray) -> np.ndarray:
    lam, V = np.linalg.eigh(A)
    return (V * np.exp(lam)[..., None, :]) @ np.swapaxes(V, -1, -2)


def _kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker products of stacked square matrices, A's index slowest."""
    out = A[..., :, None, :, None] * B[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], *np.multiply(A.shape[-2:], B.shape[-2:]))


def _frames(
    space: Space,
    J: BlockPotential,
    n: int,
    paths: np.ndarray,
    subsets: np.ndarray,
    t: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Frames (R, S, k, k), on the ``t_basis`` of each fibre, and c_sup
    (R, S) of the n-covector fibres over the point subsets (S, m) of every
    replica of the paths (R, P, K + 1, ambient) on the horizon t. An empty
    fibre or a path without steps gets I and c_sup = ``J.scalar or 0.0``."""
    R, P, K1, da = paths.shape
    S, m = subsets.shape
    d = space.dim
    splits = _splits(n, m, d)
    sizes = [math.prod(math.comb(d, q) for q in split) for split in splits]
    k = sum(sizes)
    if k == 0 or K1 < 2:
        return np.broadcast_to(np.eye(k), (R, S, k, k)), np.full((R, S), J.scalar or 0.0)
    X = paths.reshape(R * P, K1, da)
    dt = t / (K1 - 1)
    frames, tops = {}, {}
    for q in sorted(set().union(*splits)):
        # per (replica, point) the degree-q slot frame: one eigvalsh and one
        # eigh over every row and step, the product over the steps a loop
        c = math.comb(d, q)
        B = J.slot(X.reshape(-1, da), q, d).reshape(R * P, K1, c, c)
        tops[q] = np.linalg.eigvalsh(B)[..., -1].reshape(R, P, K1)
        if isinstance(space, Sphere):
            half = _expm_sym((dt / 2.0) * B)
            T = wedge_power(frame_maps(space, X[:, :-1], X[:, 1:]), q)
            steps = [half[:, j + 1] @ T[:, j] @ half[:, j] for j in range(K1 - 1)]
        else:
            mid = _expm_sym((dt / 2.0) * (B[:, :-1] + B[:, 1:]))
            steps = [mid[:, j] for j in range(K1 - 1)]
        M = np.broadcast_to(np.eye(c), (R * P, c, c))
        for E in steps:
            M = E @ M
        frames[q] = M.reshape(R, P, c, c)
    out = np.zeros((R, S, k, k))
    c_sup = np.full((R, S), -math.inf)
    lo = 0
    for split, size in zip(splits, sizes):
        slots = [(q, subsets[:, s]) for s, q in enumerate(split)]
        out[:, :, lo : lo + size, lo : lo + size] = functools.reduce(
            _kron, [frames[q][:, pts] for q, pts in slots]
        )
        top = functools.reduce(np.add, [tops[q][:, pts] for q, pts in slots])
        c_sup = np.maximum(c_sup, top.max(axis=-1))
        lo += size
    return out, c_sup


def parallel_translate(
    space: Space,
    path: ParticlePath,
    J: BlockPotential,
    n: int,
    subset: Optional[Sequence[int]] = None,
) -> FrameMatrix:
    """Solve M' = J(xi(s)) M along the stored path (transport interleaved on
    the sphere) for the fibre over the chosen particles (default: all)."""
    parts = list(range(path.n_particles)) if subset is None else list(subset)
    subsets = np.array(parts, dtype=np.intp).reshape(1, len(parts))
    P, c_sup = _frames(space, J, n, path.paths[None], subsets, path.t)
    return FrameMatrix(path.t, P[0, 0], float(c_sup[0, 0]))


# ---------------------------------------------------------------------------
# scalar semigroup


def _replica_views(space: Space, intensity: IntensitySpec, X0: np.ndarray, run: SdeConfig,
                   n: int, rng: RngStream, fn: Callable, antithetic: bool = False,
                   keep_paths: bool = False):
    """``fn`` on the endpoints (R, P, da), or with ``keep_paths`` the paths
    (R, P, K + 1, da), of the chunks that ``_map_views`` cuts from the n
    replicas moving the points X0 ((P, da), or (n, P, da) per replica) over
    run, outputs joined. A chunk's noise (R, P, K, da) is drawn from rng just
    before it is stepped, replicas outermost, so the draws equal one draw of
    the whole block. An ``antithetic`` chunk of R is stepped together with
    its negative, replica i paired with R + i: fn sees both, returns R rows.
    Fewer than one replica (or pair) raises ValueError.

    On flat space with the gaussian family and no path kept, the endpoints
    are drawn from their exact Ornstein--Uhlenbeck law in one step: the
    chunk's noise is an (R, P, da) block Z and X_t = e^{bt} x +
    sqrt((e^{2bt} - 1) / b) Z, with b = ``gaussian_drift_rate``, so
    ``run.dt`` does not act."""
    if n < 1:
        raise ValueError(f"{n} replicas make no estimate: at least one is needed")
    P, da = X0.shape[-2:]
    exact = not keep_paths and not isinstance(space, Sphere) and intensity.family == "gaussian"
    noise = (P, da) if exact else (P, run.n_steps, da)
    if exact:
        rate = geometry.gaussian_drift_rate(intensity)
        decay, spread = math.exp(rate * run.t), math.sqrt(math.expm1(2.0 * rate * run.t) / rate)

    def chunk(a: int, b: int):
        eps = rng.gen.normal(size=(b - a, *noise))
        if antithetic:
            eps = np.concatenate([eps, -eps])
        R = len(eps)
        X = np.broadcast_to(X0 if X0.ndim == 2 else X0[a:b], (R, P, da))
        if exact:
            return fn(decay * X + spread * eps)
        out = _evolve(space, intensity, X.reshape(R * P, da),
                      eps.reshape(R * P, run.n_steps, da), run.step, keep_paths)
        return fn(out.reshape(R, P, *out.shape[1:]))

    return _map_views(np.arange(n + 1) * (P * (2 if antithetic else 1)), chunk)


def _replicas(ends: np.ndarray, dim: int) -> BatchEval:
    """A (R, P, da) block of endpoints as a batch of R configurations."""
    R, P, da = ends.shape
    return BatchEval(SampleBatch(ends.reshape(R * P, da), np.arange(R + 1) * P), dim)


def semigroup_T0(
    space: Space,
    intensity: IntensitySpec,
    F: CylinderFunction,
    gamma: Configuration,
    t: float,
    cfg: SdeConfig,
    n_samples: int,
    rng: RngStream,
    antithetic: bool = False,
) -> McEstimate:
    """Monte Carlo estimate of E[F(xi_gamma(t))], F read at the replicas'
    ends (the antithetic pair averaged)."""
    if t == 0.0 or gamma.n == 0:
        return McEstimate.exact(float(F.value(gamma.points)))
    pairs = 2 if antithetic else 1
    return McEstimate.from_samples(_replica_views(
        space, intensity, gamma.points, cfg.with_horizon(t), n_samples // pairs, rng,
        lambda ends: _replicas(ends, space.dim).f_rows(F).reshape(pairs, -1).mean(axis=0),
        antithetic))


# ---------------------------------------------------------------------------
# form semigroup


class FormEstimate:
    """Componentwise Monte Carlo estimate of a form value at the starting
    configuration, held as ``start``, the batch of one it was built on.
    ``samples`` holds each replica's pulled-back value, per block of the
    start's layout an (R, rows, width) array, the antithetic pair averaged;
    ``n_samples`` is R. ``mean`` and ``stderr`` are ``BatchValue``s on that
    layout, one entry per (subset, covector key), computed when first read:
    the checks read ``contract``."""

    def __init__(self, start: BatchEval, degree: int, samples: dict, n_samples: int):
        self.start, self.degree = start, degree
        self.samples, self.n_samples = samples, n_samples

    def _value(self, blocks: dict) -> BatchValue:
        return BatchValue(self.start.configs, self.degree, self.start.dim, blocks)

    @functools.cached_property
    def mean(self) -> BatchValue:
        return self._value({k: A.mean(axis=0) for k, A in self.samples.items()})

    @functools.cached_property
    def stderr(self) -> BatchValue:
        R = self.n_samples
        return self._value({k: A.std(axis=0, ddof=1) / math.sqrt(R)
                            for k, A in self.samples.items()})

    def contract(self, target: BatchValue) -> np.ndarray:
        """Per replica the inner product of its value with a value at the
        starting configuration."""
        z = np.zeros(self.n_samples)
        for k, T in target.blocks.items():
            if k in self.samples:
                z += np.einsum("rcw,cw->r", self.samples[k], T)
        return z


def _moved_values(space: Space, intensity: IntensitySpec, W: CylinderForm,
                  gamma: Configuration, J: BlockPotential, run: SdeConfig, n: int,
                  rng: RngStream, fn: Callable, antithetic: bool = False):
    """``fn(val, pulled, c_sup)`` on each chunk of the n replicas moving
    gamma over run (``_replica_views``), outputs joined: W where the chunk's
    replicas end, one batch group each; its pullback M^T W through the frame
    of each (replica, subset) row, e^{tJ} W on flat space with scalar J,
    where the frame is exact and no path is kept; and per replica the
    largest J-eigenvalue its frames met."""
    fast = not isinstance(space, Sphere) and J.scalar is not None

    def chunk(block: np.ndarray):
        ends = block if fast else block[:, :, -1, :]
        val = _replicas(ends, space.dim).form(W)
        if fast:
            return fn(val, math.exp(run.t * J.scalar) * val, np.full(len(block), J.scalar))
        pulled, c_sup = {}, np.full(len(block), -math.inf)
        for k, A in val.blocks.items():
            first, idx, _ = val.layout.rows(k)
            # every replica moves the same P points, so the subsets of group 0
            # (global indices from 0) are the subsets of each replica
            P, c = _frames(space, J, W.degree, block, idx[: first[1]], run.t)
            Mt = P.reshape(-1, *P.shape[2:]).transpose(0, 2, 1)
            pulled[k] = np.matmul(Mt, A[:, :, None])[:, :, 0]
            c_sup = np.maximum(c_sup, c.max(axis=1))
        return fn(val, BatchValue(val.layout, W.degree, space.dim, pulled), c_sup)

    return _replica_views(space, intensity, gamma.points, run, n, rng, chunk,
                          antithetic, keep_paths=not fast)


def semigroup_Tn(
    space: Space,
    intensity: IntensitySpec,
    W: CylinderForm,
    gamma: Configuration,
    t: float,
    J: BlockPotential,
    cfg: SdeConfig,
    n_samples: int,
    rng: RngStream,
    antithetic: bool = False,
) -> FormEstimate:
    """Monte Carlo estimate of the J-twisted form semigroup at gamma: per
    replica the pulled-back M^T W(xi_gamma(t)), the antithetic pair
    averaged, and their componentwise mean.  At t = 0 or on the empty
    configuration every replica holds W(gamma) itself."""
    start = _replicas(gamma.points[None], space.dim)
    if gamma.n == 0 or t == 0.0:
        val = start.form(W)
        samples = {
            k: np.broadcast_to(A, (n_samples, *A.shape)) for k, A in val.blocks.items()
        }
        est = FormEstimate(start, W.degree, samples, n_samples)
        # the mean of the copies is the value itself, with no error
        est.mean, est.stderr = val, est._value({})
        return est
    pairs, keys = (2 if antithetic else 1), []
    R = n_samples // pairs

    def chunk(val, pulled, c_sup):
        keys[:] = pulled.blocks  # the same keys in every chunk: each replica moves gamma
        return tuple(A.reshape(pairs, len(c_sup) // pairs, -1, A.shape[1]).mean(axis=0)
                     for A in pulled.blocks.values())

    samples = _moved_values(space, intensity, W, gamma, J, cfg.with_horizon(t), R, rng,
                            chunk, antithetic)
    return FormEstimate(start, W.degree, dict(zip(keys, samples)), R)


def eigen_decay_check(
    space: Space,
    intensity: IntensitySpec,
    W: CylinderForm,
    gamma: Configuration,
    t: float,
    rate: float,
    J: BlockPotential,
    cfg: SdeConfig,
    n_samples: int,
    rng: RngStream,
    name: Optional[str] = None,
) -> CheckResult:
    """For an eigenform, <T(t) W, W>(gamma) = e^{-rate t} |W(gamma)|^2."""
    est = semigroup_Tn(space, intensity, W, gamma, t, J, cfg, n_samples, rng)
    base = est.start.form(W)
    z = est.contract(base)
    target = math.exp(-rate * t) * float(base.inner(base)[0])
    label = name or f"decay-{W.name}-t{t:g}"
    return CheckResult.from_estimates(
        label,
        McEstimate.from_samples(z),
        McEstimate.exact(target),
        detail={"rate": rate, "n": len(z)},
    )


def domination_check(
    space: Space,
    intensity: IntensitySpec,
    W: CylinderForm,
    gamma: Configuration,
    t: float,
    J: BlockPotential,
    cfg: SdeConfig,
    n_samples: int,
    rng: RngStream,
) -> CheckResult:
    """Pathwise domination, a one-sided row: the mean of e^{tC} |W(xi(t))| -
    |M^T W(xi(t))| (C the largest J-eigenvalue met on the paths) is at least
    -3 standard errors. A scalar J on flat space has the exact frame e^{tJ},
    so each difference is 0 up to rounding."""

    def chunk(val, pulled, c_sup):
        return pulled.norm() - np.exp(t * c_sup) * val.norm(), c_sup

    diffs, c_sup = _moved_values(space, intensity, W, gamma, J, cfg.with_horizon(t),
                                 n_samples, rng, chunk)
    est = McEstimate.from_samples(-diffs)  # mean of e^{tC}|W| - |pulled|
    return CheckResult.judged(
        "one-sided", f"domination-{W.name}-t{t:g}", est.mean, 0.0, est.stderr,
        3.0 * est.stderr, detail={"C": float(c_sup.max(initial=-math.inf)), "n": n_samples},
    )


def frame_bound_check(
    space: Space,
    intensity: IntensitySpec,
    gamma: Configuration,
    J: BlockPotential,
    n: int,
    cfg: SdeConfig,
    n_paths: int,
    rng: RngStream,
) -> CheckResult:
    """norm(M(t)) <= e^{t c_sup} (1 + 5 dt) on every sampled path, for the
    full block and each singleton block."""

    def slack(paths: np.ndarray) -> np.ndarray:
        # per path, the largest slack over the full block and the singletons
        out = np.full(len(paths), -math.inf)
        for subsets in (np.arange(gamma.n)[None], np.arange(gamma.n)[:, None]):
            P, c_sup = _frames(space, J, n, paths, subsets, cfg.t)
            norm = np.linalg.norm(P, 2, axis=(-2, -1)) if P.size else np.zeros(c_sup.shape)
            slack = norm / np.exp(cfg.t * c_sup) - 1.0
            out = np.maximum(out, slack.max(axis=1, initial=-math.inf))
        return out

    worst = float(_replica_views(space, intensity, gamma.points, cfg, n_paths, rng, slack,
                                 keep_paths=True).max(initial=-math.inf))
    return CheckResult.deterministic(
        f"frame-bound-{J.name}", worst, 0.0, 5.0 * cfg.step, detail={"paths": n_paths}
    )


# ---------------------------------------------------------------------------
# generator checks


# step of the short-time runs, as a fraction of their horizon
_GENERATOR_DT_RATIO = 0.1


def _richardson(ts: Sequence[float], slopes: Sequence[float], ses: Sequence[float]):
    """Extrapolate slope(t) = s0 + a t to t = 0 from the two smallest t."""
    order = np.argsort(ts)
    if len(ts) < 2 or ts[order[0]] == ts[order[1]]:
        raise ValueError("the two smallest horizons must be distinct")
    t1, t2 = ts[order[1]], ts[order[0]]  # t2 < t1
    s1, s2 = slopes[order[1]], slopes[order[0]]
    w = t1 / (t1 - t2)
    s0 = w * s2 - (w - 1.0) * s1
    se = math.hypot(w * ses[order[0]], (w - 1.0) * ses[order[1]])
    return s0, se


def _generator_row(
    check: str, base: float, target: float, scale: float, ts: Sequence[float],
    n_samples: int, estimate: Callable[[int, SdeConfig], McEstimate],
) -> CheckResult:
    """Slopes (base - estimate(ti, cfg).mean) / t over ts, extrapolated to
    t = 0, against target: a two-sided row of tol max(3 stderr, 5e-3 scale)."""
    slopes, ses = [], []
    for ti, t in enumerate(ts):
        est = estimate(ti, SdeConfig(t=t, dt=t * _GENERATOR_DT_RATIO))
        slopes.append((base - est.mean) / t)
        ses.append(est.stderr / t)
    s0, se = _richardson(np.asarray(ts), slopes, ses)
    return CheckResult.judged("two-sided", check, s0, target, se,
                              max(3.0 * se / scale, 5e-3) * scale,
                              detail={"ts": list(ts), "n": n_samples})


def generator_check(
    space: Space,
    intensity: IntensitySpec,
    W: CylinderForm,
    gammas: Sequence[Configuration],
    kind: str,
    ts: Sequence[float] = (0.02, 0.01, 0.005),
    n_samples: int = 20_000,
    *,
    rng: RngStream,
) -> OperatorReport:
    """Short-time slopes (W - T(t)W)/t, contracted against the analytic
    H W and Richardson-extrapolated to t = 0; one row per configuration.

    kind 'bochner' runs with J = 0, kind 'deRham' with J = -R; the target is
    the corresponding ``lift_batch``.  The space must be flat: ``lift_batch``
    takes the sphere, but no sphere row has its step bias and band calibrated
    across seeds.  Pass when |extrapolated - target| is below max(3 stderr,
    5e-3) relative to the target scale. Configuration gi at horizon ts[ti] draws its paths from
    ``rng.child(gi, ti)``.
    """
    if kind not in ("bochner", "deRham"):
        raise ValueError("kind must be 'bochner' or 'deRham'")
    if isinstance(space, Sphere):
        raise ValueError("generator_check needs a flat backend")
    J = (
        zero_potential(W.degree)
        if kind == "bochner"
        else curvature_potential(space, intensity, W.degree)
    )
    checks = []
    for gi, gamma in enumerate(gammas):
        start = _replicas(gamma.points[None], space.dim)
        target = lift_batch(kind, space, intensity, W, start)
        scale = max(float(target.norm()[0]), 1.0)
        unit = BatchValue(
            start.configs, W.degree, space.dim,
            {k: A / scale for k, A in target.blocks.items()},
        )

        def estimate(ti: int, cfg: SdeConfig) -> McEstimate:
            est = semigroup_Tn(
                space, intensity, W, gamma, cfg.t, J, cfg, n_samples,
                rng.child(gi, ti), antithetic=True,
            )
            return McEstimate.from_samples(est.contract(unit))

        checks.append(_generator_row(
            f"generator-{kind}-{W.name}-g{gi}", float(start.form(W).inner(unit)[0]),
            float(target.inner(unit)[0]), scale, ts, n_samples, estimate,
        ))
    return OperatorReport(f"generator-{kind}-{W.name}", checks)


def generator_check_function(
    space: Space,
    intensity: IntensitySpec,
    F: CylinderFunction,
    gammas: Sequence[Configuration],
    ts: Sequence[float] = (0.02, 0.01, 0.005),
    n_samples: int = 20_000,
    *,
    rng: RngStream,
) -> OperatorReport:
    """Degree-0 reduction: (F - T_0(t)F)/t extrapolates to H F, with the
    streams of ``generator_check``."""
    checks = []
    for gi, gamma in enumerate(gammas):
        target = h_pi_sigma(space, intensity, F, gamma)

        def estimate(ti: int, cfg: SdeConfig) -> McEstimate:
            return semigroup_T0(
                space, intensity, F, gamma, cfg.t, cfg, n_samples,
                rng.child(gi, ti), antithetic=True,
            )

        checks.append(_generator_row(
            f"generator-scalar-{F.name}-g{gi}", float(F.value(gamma.points)),
            target, max(abs(target), 1.0), ts, n_samples, estimate,
        ))
    return OperatorReport(f"generator-scalar-{F.name}", checks)


def semigroup_property_check(
    space: Space,
    intensity: IntensitySpec,
    F: CylinderFunction,
    gamma: Configuration,
    t: float,
    s: float,
    cfg: SdeConfig,
    n_outer: int,
    n_inner: int,
    rng: RngStream,
) -> CheckResult:
    """T_0(t+s) F = T_0(t) T_0(s) F, nested Monte Carlo: n_outer midpoints
    at time t, each moved on by n_inner paths of length s, one stream per
    stage."""
    direct = semigroup_T0(space, intensity, F, gamma, t + s, cfg, n_outer * 4, rng.child(0))
    mids = _replica_views(space, intensity, gamma.points, cfg.with_horizon(t), n_outer,
                          rng.child(1), lambda ends: ends)
    ys = _replica_views(
        space, intensity, np.repeat(mids, n_inner, axis=0), cfg.with_horizon(s),
        n_outer * n_inner, rng.child(2), lambda ends: _replicas(ends, space.dim).f_rows(F),
    ).reshape(n_outer, n_inner).mean(axis=1)
    nested = McEstimate.from_samples(ys)
    return CheckResult.from_estimates(
        f"semigroup-{F.name}", nested, direct, detail={"outer": n_outer, "inner": n_inner}
    )


# ---------------------------------------------------------------------------
# law-preservation checks


def poisson_invariance_check(
    space: Space,
    intensity: IntensitySpec,
    t: float,
    cfg: SdeConfig,
    n_samples: int,
    rng: RngStream,
) -> CheckResult:
    """Evolving a gaussian-intensity point process by its matching drifted
    diffusion preserves the law: the counts in the radial bands with edges
    0, 0.5, 1, 1.5, 2 and infinity keep their Poisson means (and the total
    count keeps variance = mean), all within 3 stderr. The band masses
    2 pi s^2 (e^{-r0^2/2s^2} - e^{-r1^2/2s^2}) are those of the plane. Each
    view of configurations (``sample_views``) is stepped through noise from
    ``rng.child(1)``. It takes Euler steps (``_evolve``), not the exact
    endpoint law of ``_replica_views``: under that law the Poisson measure
    is invariant by construction, so the row would no longer test the
    stepper."""
    if intensity.family != "gaussian":
        raise ValueError("invariance check is for the gaussian family")
    if not (isinstance(space, Euclidean) and space.dim == 2):
        raise ValueError("invariance check is for the Euclidean plane")
    window = Window("all")
    edges = [0.0, 0.5, 1.0, 1.5, 2.0, math.inf]
    s2 = intensity.scale**2
    expected = [
        2.0 * math.pi * s2 * (
            math.exp(-edges[i] ** 2 / (2 * s2))
            - (0.0 if math.isinf(edges[i + 1]) else math.exp(-edges[i + 1] ** 2 / (2 * s2)))
        )
        for i in range(len(edges) - 1)
    ]
    run, noise, nb = cfg.with_horizon(t), rng.child(1), len(expected)

    def band_counts(view: SampleBatch):
        eps = noise.gen.normal(size=(len(view.points), run.n_steps, space.dim))
        pts = _evolve(space, intensity, view.points, eps, run.step)
        band = np.searchsorted(edges, np.linalg.norm(pts, axis=1), side="right") - 1
        counts = np.bincount(view.sample_ids * nb + band, minlength=view.n_samples * nb)
        return counts.reshape(view.n_samples, nb), view.counts()

    counts, totals = sample_views(space, intensity, window, rng, n_samples, band_counts)
    zmax = 0.0
    for b, mu in enumerate(expected):
        est = McEstimate.from_samples(counts[:, b])
        zmax = max(zmax, abs(est.mean - mu) / max(est.stderr, 1e-300))
    # Poisson law: variance of the total equals its mean
    var = float(np.var(totals, ddof=1))
    mean = float(np.mean(totals))
    se_var = math.sqrt(2.0 / (n_samples - 1)) * var  # normal-ish approximation
    zmax = max(zmax, abs(var - mean) / max(se_var, 1e-300))
    return CheckResult.judged("two-sided", "poisson-invariance", zmax, 0.0, 1.0, 3.0,
                              detail={"bands": len(expected), "n": n_samples})


def _chi2_sf(k: int, x: float) -> float:
    """P(chi2_k > x) for integer k >= 1, in closed form (Abramowitz and
    Stegun 26.4.4-5). With h = x/2, even k gives e^{-h} sum_{j<k/2} h^j/j!,
    odd k gives erfc(sqrt h) + e^{-h} sum_{j=1}^{(k-1)/2} h^{j-1/2}/Gamma(j+1/2)."""
    if k < 1 or k != int(k):
        raise ValueError(f"degrees of freedom must be an integer >= 1, got {k}")
    h = x / 2.0
    if k % 2 == 0:
        term = total = 1.0
        for j in range(1, k // 2):
            term *= h / j
            total += term
        return math.exp(-h) * total
    term, total = 2.0 * math.sqrt(h / math.pi), 0.0  # h^{1/2} / Gamma(3/2)
    for j in range(1, (k + 1) // 2):
        total += term
        term *= h / (j + 0.5)
    return math.erfc(math.sqrt(h)) + math.exp(-h) * total


def sphere_uniform_check(
    t: float,
    cfg: SdeConfig,
    n_samples: int,
    rng: RngStream,
) -> CheckResult:
    """Driftless sphere diffusion preserves the uniform law: chi-squared on
    8 equal-area latitude bands, pass when p > 0.01. The chi-squared tail p is
    computed in closed form (``_chi2_sf``)."""
    space = Sphere()
    intensity = IntensitySpec("uniform", 1.0)
    starts = _draw_locations(space, intensity, Window("all"), rng.gen, n_samples)
    z = _replica_views(space, intensity, starts[:, None], cfg.with_horizon(t), n_samples,
                       rng.child(0), lambda ends: ends[:, 0, 2])
    # z uniform on [-1, 1] under the uniform law: equal-probability bands
    n_bands = 8
    bins = np.linspace(-1.0, 1.0, n_bands + 1)
    obs = np.histogram(z, bins=bins)[0].astype(float)
    expected = obs.mean()
    chi2 = float(np.sum((obs - expected) ** 2 / expected))
    p = _chi2_sf(n_bands - 1, chi2)
    return CheckResult.judged("p-value", "sphere-uniform", float(p), 1.0, 0.0, 0.01,
                              detail={"chi2": float(chi2), "bands": n_bands, "n": n_samples})
