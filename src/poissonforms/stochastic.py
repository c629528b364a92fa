"""Diffusion paths, particle clouds, and Monte Carlo form semigroups.

The base diffusion solves

    d xi = beta(xi) dt + sqrt(2) dB

(Euler--Maruyama in R^d, geodesic steps on the sphere), so its generator is
Delta + <beta, grad> and the scalar semigroup E[F(xi_gamma(t))] estimates
e^{-tH} F for H = -Delta - <beta, grad>.  The diffusion coefficient sqrt(2)
is fixed: it is the unique normalization for which the generator matches H
without a factor 1/2.

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

where T_k is the transport step (identity in R^d); for path-independent J
both halves merge into the midpoint rule expm((dt/2)(J_k + J_{k+1})).

J and T_k act on each point's slot separately, and expm(A (+) B) =
expm(A) (x) expm(B): on the fibre's block of per-slot degrees (q_1, ...,
q_m) the frame is the Kronecker product of its points' degree-q_s frames.
So the ODE is solved once per (path, point, slot degree) on stacked rows.
c_sup, the constant of the norm bound, is the largest sum of the points'
top slot eigenvalues over the steps and blocks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

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
from .operators import _outer_rows, h_pi_sigma, lift_batch, weitz_matrix, OperatorReport
from .pointprocess import Configuration, RngStream, SampleBatch, sample_batch
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
    steps so the horizon is hit exactly.
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
    """Independent particle paths over a shared clock.

    ``paths`` has shape (n_particles, len(ts), ambient_dim); when simulated
    with ``keep_paths=False`` only the first and last frames are stored.
    """

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
    keep_paths: bool = True,
) -> ParticlePath:
    """Evolve every point of gamma independently, through one (points,
    steps, dim) noise block drawn from rng."""
    P = gamma.n
    K = cfg.n_steps
    dt = cfg.step
    da = gamma.points.shape[1] if P else space.ambient_dim
    ts = np.linspace(0.0, cfg.t, K + 1)
    if P == 0:
        frames = K + 1 if keep_paths else 2
        return ParticlePath(space, ts if keep_paths else ts[[0, -1]], np.empty((0, frames, da)))
    eps = rng.gen.normal(size=(P, K, da))
    X = _evolve(space, intensity, gamma.points, eps, dt, keep_paths)
    if keep_paths:
        return ParticlePath(space, ts, X)
    return ParticlePath(space, ts[[0, -1]], np.stack([gamma.points, X], axis=1))


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
    1-covectors of the uniform sphere: exact-exponential fast paths unless
    ``allow_scalar`` is off (useful to exercise the generic ODE)."""
    scalar = None
    if allow_scalar and not isinstance(space, Sphere):
        if intensity.family == "gaussian":
            scalar = n / intensity.scale**2
        elif intensity.family == "uniform":
            scalar = 0.0
    if allow_scalar and isinstance(space, Sphere) and n == 1:
        if intensity.family == "uniform":
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
    fibre or a path without steps gets I and c_sup = ``J.scalar or 0.0``;
    a scalar J on flat space the exact e^{tJ}."""
    R, P, K1, da = paths.shape
    S, m = subsets.shape
    d = space.dim
    splits = _splits(n, m, d)
    sizes = [math.prod(math.comb(d, q) for q in split) for split in splits]
    k = sum(sizes)
    if k == 0 or K1 < 2:
        return np.broadcast_to(np.eye(k), (R, S, k, k)), np.full((R, S), J.scalar or 0.0)
    if J.scalar is not None and not isinstance(space, Sphere):
        fac = math.exp(t * J.scalar)
        return np.broadcast_to(fac * np.eye(k), (R, S, k, k)), np.full((R, S), J.scalar)
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


def _evolve_block(
    space: Space,
    intensity: IntensitySpec,
    X0: np.ndarray,
    eps: np.ndarray,
    dt: float,
    keep_paths: bool = False,
) -> np.ndarray:
    """Evolve (R, P) particles from X0, (P, da) shared by the replicas or
    (R, P, da), through eps (R, P, K, da): endpoints (R, P, da), or with
    ``keep_paths`` paths (R, P, K + 1, da)."""
    R, P, K, da = eps.shape
    X = np.broadcast_to(X0, (R, P, da)).reshape(R * P, da)
    out = _evolve(space, intensity, X, eps.reshape(R * P, K, da), dt, keep_paths)
    return out.reshape(R, P, *out.shape[1:])


def _f_rows(F: CylinderFunction, pts: np.ndarray) -> np.ndarray:
    """F at each replica of a (R, P, da) block of configurations."""
    R, P, da = pts.shape
    flat = pts.reshape(R * P, da)
    stats = np.stack(
        [phi.value_batch(flat).reshape(R, P).sum(axis=1) for phi in F.inners],
        axis=1,
    ) if P else np.zeros((R, len(F.inners)))
    return _outer_rows(F.outer, stats)


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
    """Monte Carlo estimate of E[F(xi_gamma(t))]."""
    if t == 0.0 or gamma.n == 0:
        return McEstimate.exact(float(F.value(gamma.points)))
    run = cfg.with_horizon(t)
    K, dt = run.n_steps, run.step
    da = gamma.points.shape[1]
    R = n_samples // 2 if antithetic else n_samples
    eps = rng.gen.normal(size=(R, gamma.n, K, da))
    vals = _f_rows(F, _evolve_block(space, intensity, gamma.points, eps, dt))
    if antithetic:
        vals_m = _f_rows(F, _evolve_block(space, intensity, gamma.points, -eps, dt))
        vals = 0.5 * (vals + vals_m)
    return McEstimate.from_samples(vals)


# ---------------------------------------------------------------------------
# form semigroup


class FormEstimate:
    """Componentwise Monte Carlo estimate of a form value at the starting
    configuration: ``mean`` and ``stderr`` are ``BatchValue``s on its
    one-group layout, one entry per (subset, covector key)."""

    def __init__(self, mean: BatchValue, stderr: BatchValue, n_samples: int):
        self.mean = mean
        self.stderr = stderr
        self.n_samples = n_samples


def _start(gamma: Configuration, dim: int) -> BatchEval:
    """The starting configuration as a batch of one."""
    return BatchEval(SampleBatch(gamma.points, np.array([0, gamma.n])), dim)


def _moved_values(
    space: Space,
    intensity: IntensitySpec,
    W: CylinderForm,
    gamma: Configuration,
    J: BlockPotential,
    run: SdeConfig,
    eps: np.ndarray,
):
    """W at the configurations the replicas of the noise block eps move
    gamma to, one batch group per replica, from one ``BatchEval.form``
    call; its pullback M^T W through the frame of each (replica, subset)
    row, or None on flat space with scalar J, where M is e^{tJ}; and per
    replica the largest J-eigenvalue its frames met."""
    R, P = eps.shape[:2]
    fast = not isinstance(space, Sphere) and J.scalar is not None
    block = _evolve_block(space, intensity, gamma.points, eps, run.step, not fast)
    ends = block if fast else block[:, :, -1, :]
    batch = SampleBatch(ends.reshape(R * P, -1), np.arange(R + 1) * P)
    val = BatchEval(batch, space.dim).form(W)
    if fast:
        return val, None, np.full(R, J.scalar)
    pulled, c_sup = {}, np.full(R, -math.inf)
    for k, A in val.blocks.items():
        first, idx, _ = val.layout.rows(k)
        # every replica moves the same P points, so the subsets of group 0
        # (global indices from 0) are the subsets of each replica
        P, c = _frames(space, J, W.degree, block, idx[: first[1]], run.t)
        Mt = P.reshape(-1, *P.shape[2:]).transpose(0, 2, 1)
        pulled[k] = np.matmul(Mt, A[:, :, None])[:, :, 0]
        c_sup = np.maximum(c_sup, c.max(axis=1))
    return val, BatchValue(val.layout, W.degree, space.dim, pulled), c_sup


def _pulled(
    space: Space,
    intensity: IntensitySpec,
    W: CylinderForm,
    gamma: Configuration,
    t: float,
    J: BlockPotential,
    cfg: SdeConfig,
    n_samples: int,
    rng: RngStream,
    antithetic: bool,
) -> tuple[dict, int]:
    """Per replica the pulled-back value M^T W(xi_gamma(t)), averaged over
    the antithetic pair (blocks of R groups of rows), and R."""
    run = cfg.with_horizon(t)
    R = n_samples // 2 if antithetic else n_samples
    eps = rng.gen.normal(size=(R, gamma.n, run.n_steps, gamma.points.shape[1]))
    signs = (1.0, -1.0) if antithetic else (1.0,)
    val, pulled, _ = _moved_values(
        space, intensity, W, gamma, J, run, np.concatenate([s * eps for s in signs])
    )
    if pulled is None:
        fac = math.exp(t * J.scalar)
        blocks = {k: fac * A for k, A in val.blocks.items()}
    else:
        blocks = pulled.blocks
    return {
        k: A.reshape(len(signs), -1, A.shape[1]).mean(axis=0)
        for k, A in blocks.items()
    }, R


def _contract(blocks: dict, target: BatchValue, R: int) -> np.ndarray:
    """Per replica the inner product of its rows with a value at the
    starting configuration."""
    z = np.zeros(R)
    for k, T in target.blocks.items():
        if k in blocks:
            z += np.einsum("rcw,cw->r", blocks[k].reshape(R, *T.shape), T)
    return z


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
    """Monte Carlo estimate of the J-twisted form semigroup at gamma:
    componentwise mean of the pulled-back M^T W(xi_gamma(t))."""
    start = _start(gamma, space.dim)
    layout = start.configs
    if gamma.n == 0 or t == 0.0:
        exact = BatchValue(layout, W.degree, space.dim, {})
        return FormEstimate(start.form(W), exact, n_samples)
    blocks, R = _pulled(
        space, intensity, W, gamma, t, J, cfg, n_samples, rng, antithetic
    )
    samples = {k: A.reshape(R, -1, A.shape[1]) for k, A in blocks.items()}
    mean = {k: A.mean(axis=0) for k, A in samples.items()}
    se = {k: A.std(axis=0, ddof=1) / math.sqrt(R) for k, A in samples.items()}
    return FormEstimate(
        BatchValue(layout, W.degree, space.dim, mean),
        BatchValue(layout, W.degree, space.dim, se),
        R,
    )


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
    base = _start(gamma, space.dim).form(W)
    blocks, R = _pulled(
        space, intensity, W, gamma, t, J, cfg, n_samples, rng, False
    )
    z = _contract(blocks, base, R)
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
    name: Optional[str] = None,
) -> CheckResult:
    """Pathwise domination: e^{tC} |W(xi(t))| - |M^T W(xi(t))| >= 0 up to
    3 standard errors (C from the J-eigenvalues met on the paths)."""
    run = cfg.with_horizon(t)
    eps = rng.gen.normal(size=(n_samples, gamma.n, run.n_steps, gamma.points.shape[1]))
    val, pulled, c_sup = _moved_values(space, intensity, W, gamma, J, run, eps)
    raw = val.norm()
    growth = np.exp(t * c_sup)
    # with M = e^{tJ} the pulled norm is e^{tJ} |W| and the difference 0
    diffs = (growth * raw if pulled is None else pulled.norm()) - growth * raw
    est = McEstimate.from_samples(-diffs)  # mean of e^{tC}|W| - |pulled|
    label = name or f"domination-{W.name}-t{t:g}"
    passed = est.mean >= -3.0 * max(est.stderr, 1e-300)
    return CheckResult(
        check=label,
        lhs=est.mean,
        rhs=0.0,
        stderr=est.stderr,
        tol=3.0 * est.stderr,
        passed=bool(passed),
        detail={"C": float(c_sup.max(initial=-math.inf)), "n": n_samples},
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
    name: Optional[str] = None,
) -> CheckResult:
    """norm(M(t)) <= e^{t c_sup} (1 + 5 dt) on every sampled path, for the
    full block and each singleton block."""
    eps = rng.gen.normal(size=(n_paths, gamma.n, cfg.n_steps, gamma.points.shape[1]))
    paths = _evolve_block(space, intensity, gamma.points, eps, cfg.step, keep_paths=True)
    worst = -math.inf
    for subsets in (np.arange(gamma.n)[None], np.arange(gamma.n)[:, None]):
        P, c_sup = _frames(space, J, n, paths, subsets, cfg.t)
        norm = np.linalg.norm(P, 2, axis=(-2, -1)) if P.size else np.zeros(c_sup.shape)
        slack = norm / np.exp(cfg.t * c_sup) - 1.0
        worst = max(worst, float(slack.max(initial=-math.inf)))
    label = name or f"frame-bound-{J.name}"
    return CheckResult.deterministic(
        label, worst, 0.0, 5.0 * cfg.step, detail={"paths": n_paths}
    )


# ---------------------------------------------------------------------------
# generator checks


# step of the short-time runs, as a fraction of their horizon
_GENERATOR_DT_RATIO = 0.1


def _richardson(ts: Sequence[float], slopes: Sequence[float], ses: Sequence[float]):
    """Extrapolate slope(t) = s0 + a t to t = 0 from the two smallest t."""
    order = np.argsort(ts)
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
    t = 0; pass when |s0 - target| / scale <= max(3 stderr / scale, 5e-3)."""
    slopes, ses = [], []
    for ti, t in enumerate(ts):
        est = estimate(ti, SdeConfig(t=t, dt=t * _GENERATOR_DT_RATIO))
        slopes.append((base - est.mean) / t)
        ses.append(est.stderr / t)
    s0, se = _richardson(np.asarray(ts), slopes, ses)
    tol = max(3.0 * se / scale, 5e-3)
    return CheckResult(
        check=check, lhs=s0, rhs=target, stderr=se, tol=tol * scale,
        passed=bool(abs(s0 - target) / scale <= tol),
        detail={"ts": list(ts), "n": n_samples},
    )


def generator_check(
    space: Space,
    intensity: IntensitySpec,
    W: CylinderForm,
    gammas: Sequence[Configuration],
    kind: str,
    ts: Sequence[float] = (0.02, 0.01, 0.005),
    n_samples: int = 20_000,
    rng: Optional[RngStream] = None,
    name: Optional[str] = None,
) -> OperatorReport:
    """Short-time slopes (W - T(t)W)/t, contracted against the analytic
    H W and Richardson-extrapolated to t = 0; one row per configuration.

    kind 'bochner' runs with J = 0, kind 'deRham' with J = -R; the target is
    the corresponding ``lift_batch``, so the space must be flat.  Pass when
    |extrapolated - target| is below max(3 stderr, 5e-3) relative to the
    target scale.
    """
    if kind not in ("bochner", "deRham"):
        raise ValueError("kind must be 'bochner' or 'deRham'")
    if isinstance(space, Sphere):
        raise ValueError("generator_check needs a flat backend")
    if rng is None:
        rng = RngStream(0)
    J = (
        zero_potential(W.degree)
        if kind == "bochner"
        else curvature_potential(space, intensity, W.degree)
    )
    checks = []
    for gi, gamma in enumerate(gammas):
        start = _start(gamma, space.dim)
        target = lift_batch(kind, space, intensity, W, start)
        scale = max(float(target.norm()[0]), 1.0)
        unit = BatchValue(
            start.configs, W.degree, space.dim,
            {k: A / scale for k, A in target.blocks.items()},
        )

        def estimate(ti: int, cfg: SdeConfig) -> McEstimate:
            blocks, R = _pulled(
                space, intensity, W, gamma, cfg.t, J, cfg, n_samples,
                rng.child(gi, ti), True,
            )
            return McEstimate.from_samples(_contract(blocks, unit, R))

        checks.append(_generator_row(
            f"generator-{kind}-{W.name}-g{gi}", float(start.form(W).inner(unit)[0]),
            float(target.inner(unit)[0]), scale, ts, n_samples, estimate,
        ))
    return OperatorReport(name or f"generator-{kind}-{W.name}", checks)


def generator_check_function(
    space: Space,
    intensity: IntensitySpec,
    F: CylinderFunction,
    gammas: Sequence[Configuration],
    ts: Sequence[float] = (0.02, 0.01, 0.005),
    n_samples: int = 20_000,
    rng: Optional[RngStream] = None,
    name: Optional[str] = None,
) -> OperatorReport:
    """Degree-0 reduction: (F - T_0(t)F)/t extrapolates to H F."""
    if rng is None:
        rng = RngStream(0)
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
    return OperatorReport(name or f"generator-scalar-{F.name}", checks)


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
    name: Optional[str] = None,
) -> CheckResult:
    """T_0(t+s) F = T_0(t) T_0(s) F, nested Monte Carlo: n_outer midpoints
    at time t, each moved on by n_inner paths of length s, one noise block
    per stage."""
    direct = semigroup_T0(
        space, intensity, F, gamma, t + s, cfg, n_outer * 4, rng.child(0)
    )
    P, da = gamma.points.shape
    run, rest = cfg.with_horizon(t), cfg.with_horizon(s)
    eps = rng.child(1).gen.normal(size=(n_outer, P, run.n_steps, da))
    mids = _evolve_block(space, intensity, gamma.points, eps, run.step)
    eps = rng.child(2).gen.normal(size=(n_outer * n_inner, P, rest.n_steps, da))
    ends = _evolve_block(
        space, intensity, np.repeat(mids, n_inner, axis=0), eps, rest.step
    )
    ys = _f_rows(F, ends).reshape(n_outer, n_inner).mean(axis=1)
    nested = McEstimate.from_samples(ys)
    label = name or f"semigroup-{F.name}"
    return CheckResult.from_estimates(
        label, nested, direct, detail={"outer": n_outer, "inner": n_inner}
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
    edges: Sequence[float] = (0.0, 0.5, 1.0, 1.5, 2.0),
    name: Optional[str] = None,
) -> CheckResult:
    """Evolving a gaussian-intensity point process by its matching drifted
    diffusion preserves the law: radial band counts keep their Poisson means
    (and the total count keeps variance = mean), all within 3 stderr.
    The band masses 2 pi s^2 (e^{-r0^2/2s^2} - e^{-r1^2/2s^2}) are those of
    the plane."""
    if intensity.family != "gaussian":
        raise ValueError("invariance check is for the gaussian family")
    if not (isinstance(space, Euclidean) and space.dim == 2):
        raise ValueError("invariance check is for the Euclidean plane")
    window = Window("all")
    edges = list(edges) + [math.inf]
    s2 = intensity.scale**2
    expected = [
        2.0 * math.pi * s2 * (
            math.exp(-edges[i] ** 2 / (2 * s2))
            - (0.0 if math.isinf(edges[i + 1]) else math.exp(-edges[i + 1] ** 2 / (2 * s2)))
        )
        for i in range(len(edges) - 1)
    ]
    batch = sample_batch(space, intensity, window, rng, n_samples)
    run = cfg.with_horizon(t)
    eps = rng.child(1).gen.normal(size=(len(batch.points), run.n_steps, space.dim))
    pts = _evolve(space, intensity, batch.points, eps, run.step)
    nb = len(expected)
    band = np.searchsorted(edges, np.linalg.norm(pts, axis=1), side="right") - 1
    counts = np.bincount(
        batch.sample_ids * nb + band, minlength=n_samples * nb
    ).reshape(n_samples, nb)
    totals = batch.counts()
    zmax = 0.0
    for b, mu in enumerate(expected):
        est = McEstimate.from_samples(counts[:, b])
        zmax = max(zmax, abs(est.mean - mu) / max(est.stderr, 1e-300))
    # Poisson law: variance of the total equals its mean
    var = float(np.var(totals, ddof=1))
    mean = float(np.mean(totals))
    se_var = math.sqrt(2.0 / (n_samples - 1)) * var  # normal-ish approximation
    zmax = max(zmax, abs(var - mean) / max(se_var, 1e-300))
    label = name or "poisson-invariance"
    return CheckResult(
        check=label,
        lhs=zmax,
        rhs=0.0,
        stderr=1.0,
        tol=3.0,
        passed=bool(zmax <= 3.0),
        detail={"bands": len(expected), "n": n_samples},
    )


def sphere_uniform_check(
    t: float,
    cfg: SdeConfig,
    n_samples: int,
    rng: RngStream,
    n_bands: int = 8,
    name: Optional[str] = None,
) -> CheckResult:
    """Driftless sphere diffusion preserves the uniform law: chi-squared on
    equal-area latitude bands, pass when p > 0.01."""
    from scipy.special import chdtrc

    space = Sphere()
    intensity = IntensitySpec("uniform", 1.0)
    gen = rng.gen
    v = gen.normal(size=(n_samples, 3))
    X = v / np.linalg.norm(v, axis=1, keepdims=True)
    run = cfg.with_horizon(t)
    eps = rng.child(0).gen.normal(size=(n_samples, run.n_steps, 3))
    X = _evolve(space, intensity, X, eps, run.step)
    # z uniform on [-1, 1] under the uniform law: equal-probability bands
    bins = np.linspace(-1.0, 1.0, n_bands + 1)
    obs = np.histogram(X[:, 2], bins=bins)[0].astype(float)
    expected = obs.mean()
    chi2 = float(np.sum((obs - expected) ** 2 / expected))
    p = chdtrc(n_bands - 1, chi2)
    label = name or "sphere-uniform"
    return CheckResult(
        check=label,
        lhs=float(p),
        rhs=1.0,
        stderr=0.0,
        tol=0.01,
        passed=bool(p > 0.01),
        detail={"chi2": float(chi2), "bands": n_bands, "n": n_samples},
    )
