"""Exterior algebra over tuples of tangent spaces.

A multivector is stored as a sparse table mapping basis keys to coefficients.
A basis key is a strictly increasing tuple of global indices ``(slot, axis)``
where ``slot`` identifies which base point the factor lives at and ``axis``
indexes the orthonormal tangent frame there. With orthonormal frames the
Gram-determinant inner product <u1^...^un, v1^...^vn> = det[<ui, vj>] makes
these keys an orthonormal basis, so inner products reduce to sparse dot
products and all sign bookkeeping happens in the key merges.

The block decomposition by per-slot degrees (k_1, ..., k_m) is derived from
the keys; ``t_basis`` enumerates the sector with every slot occupied
(k_i >= 1, sum k_i = n), the fibre the n-form fields downstream take values
in.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

import numpy as np

from .geometry import Space

__all__ = [
    "Multivector",
    "wedge",
    "antisymmetrize",
    "wedge_to_tensor",
    "create",
    "annihilate",
    "curvature_operator",
    "block_potential",
    "leibniz_power",
    "t_basis",
    "apply_slot_linear",
    "relabel_slots",
    "transport_slot",
]

Key = tuple  # tuple of (slot, axis) pairs, strictly increasing


def _merge_sign(a: Key, b: Key) -> tuple[Key, int]:
    """Merge two increasing index tuples, counting inversions.

    Returns (merged_key, sign); sign 0 when an index repeats (the wedge
    vanishes).
    """
    out = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return (), 0
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            # b[j] jumps over the remaining entries of a
            if (len(a) - i) % 2 == 1:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out), sign


def _sort_sign(seq: Sequence) -> tuple[Key, int]:
    """Sort an index sequence, returning the permutation parity (0 on repeats)."""
    seq = list(seq)
    sign = 1
    # insertion sort; the tuples involved are tiny
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j] < seq[j - 1]:
            seq[j], seq[j - 1] = seq[j - 1], seq[j]
            sign = -sign
            j -= 1
        if j > 0 and seq[j] == seq[j - 1]:
            return (), 0
    return tuple(seq), sign


class Multivector:
    """Sparse multivector; supports mixed degrees."""

    __slots__ = ("coef",)

    def __init__(self, coef: dict | None = None):
        self.coef = dict(coef) if coef else {}

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_vector(cls, v: np.ndarray, slot: int = 0) -> "Multivector":
        return cls({((slot, a),): float(c) for a, c in enumerate(v) if c != 0.0})

    @classmethod
    def basis(cls, axes: Sequence[int], slot: int = 0) -> "Multivector":
        key, sign = _sort_sign([(slot, a) for a in axes])
        if sign == 0:
            return cls()
        return cls({key: float(sign)})

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "Multivector") -> "Multivector":
        out = dict(self.coef)
        for k, c in other.coef.items():
            out[k] = out.get(k, 0.0) + c
            if out[k] == 0.0:
                del out[k]
        return Multivector(out)

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self + other * (-1.0)

    def __mul__(self, s: float) -> "Multivector":
        if s == 0.0:
            return Multivector()
        return Multivector({k: c * s for k, c in self.coef.items()})

    __rmul__ = __mul__

    def __neg__(self) -> "Multivector":
        return self * (-1.0)

    # -- metric --------------------------------------------------------------

    def inner(self, other: "Multivector") -> float:
        if len(other.coef) < len(self.coef):
            self, other = other, self
        return sum(c * other.coef.get(k, 0.0) for k, c in self.coef.items())

    def norm(self) -> float:
        return math.sqrt(max(self.inner(self), 0.0))

    # -- structure -----------------------------------------------------------

    def degrees(self) -> set[int]:
        return {len(k) for k in self.coef}

    def component(self, n: int) -> "Multivector":
        return Multivector({k: c for k, c in self.coef.items() if len(k) == n})

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(abs(c) <= tol for c in self.coef.values())

    def __repr__(self) -> str:
        if not self.coef:
            return "Multivector(0)"
        parts = [f"{c:+.6g}*e{list(k)}" for k, c in sorted(self.coef.items())]
        return "Multivector(" + " ".join(parts) + ")"


def wedge(u: Multivector, v: Multivector) -> Multivector:
    out: dict = {}
    for ka, ca in u.coef.items():
        for kb, cb in v.coef.items():
            key, sign = _merge_sign(ka, kb)
            if sign == 0:
                continue
            c = ca * cb * sign
            out[key] = out.get(key, 0.0) + c
            if out[key] == 0.0:
                del out[key]
    return Multivector(out)


def interior(v: np.ndarray, u: Multivector, slot: int = 0) -> Multivector:
    """Interior product (first-slot contraction) against a tangent vector."""
    out: dict = {}
    for key, c in u.coef.items():
        for pos, (s, a) in enumerate(key):
            if s != slot:
                continue
            va = v[a] if a < len(v) else 0.0
            if va == 0.0:
                continue
            sign = -1.0 if pos % 2 else 1.0
            k2 = key[:pos] + key[pos + 1 :]
            out[k2] = out.get(k2, 0.0) + sign * va * c
            if out[k2] == 0.0:
                del out[k2]
    return Multivector(out)


def create(v: np.ndarray, u: Multivector, slot: int = 0) -> Multivector:
    """Creation operator a*(v): sqrt(n+1) v ^ u on the degree-n part."""
    vmv = Multivector.from_vector(np.asarray(v, dtype=float), slot)
    out = Multivector()
    for n in u.degrees():
        out = out + math.sqrt(n + 1) * wedge(vmv, u.component(n))
    return out


def annihilate(v: np.ndarray, u: Multivector, slot: int = 0) -> Multivector:
    """Annihilation operator a(v): sqrt(n) iota_v on the degree-n part.

    Adjoint of ``create`` under the Gram inner product.
    """
    v = np.asarray(v, dtype=float)
    out = Multivector()
    for n in u.degrees():
        if n == 0:
            continue
        out = out + math.sqrt(n) * interior(v, u.component(n), slot)
    return out


def antisymmetrize(T: np.ndarray, n: int) -> Multivector:
    """Project an n-tensor (shape (d,)*n, single tangent space) onto its
    antisymmetric part and read off wedge coordinates on increasing tuples.

    The normalization is the projector one: the coefficient of e_I is
    (1/n!) sum_perm sgn(perm) T[I o perm].
    """
    T = np.asarray(T, dtype=float)
    if n == 0:
        return Multivector({(): float(T)})
    d = T.shape[0]
    out: dict = {}
    fact = math.factorial(n)
    for I in itertools.combinations(range(d), n):
        c = 0.0
        for perm in itertools.permutations(range(n)):
            sgn = _perm_sign(perm)
            c += sgn * float(T[tuple(I[p] for p in perm)])
        c /= fact
        if c != 0.0:
            out[tuple((0, a) for a in I)] = c
    return Multivector(out)


def wedge_to_tensor(u: Multivector, n: int, d: int) -> np.ndarray:
    """Realize a degree-n single-slot multivector inside the n-fold tensor
    power by alternation without normalization, so that
    antisymmetrize(wedge_to_tensor(u)) == u."""
    T = np.zeros((d,) * n)
    for key, c in u.coef.items():
        if len(key) != n:
            raise ValueError("mixed degree multivector")
        I = tuple(a for _, a in key)
        for perm in itertools.permutations(range(n)):
            T[tuple(I[p] for p in perm)] += _perm_sign(perm) * c
    return T


def _perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


# ---------------------------------------------------------------------------
# single-point operator blocks


def _wedge_basis(d: int, k: int) -> list[tuple[int, ...]]:
    return list(itertools.combinations(range(d), k))


def curvature_operator(space: Space, p: np.ndarray, n: int) -> np.ndarray:
    """Matrix of the curvature operator on Lambda^n(T_p X) in the increasing
    frame basis, built from the quadruple creation/annihilation sum

        R_n = sum_{ijkl} R_{ijkl} a*_j a_i a*_k a_l,

    with the index pairing fixed so that the degree-1 block is the Ricci
    transform (R_1 = +(d-1) K on a constant-curvature backend).
    """
    from .geometry import curvature as curv

    d = space.dim
    basis = _wedge_basis(d, n)
    frame_vectors = np.eye(d)
    mat = np.zeros((len(basis), len(basis)))
    for col, I in enumerate(basis):
        u = Multivector.basis(I)
        acc = Multivector()
        for i, j, k, l in itertools.product(range(d), repeat=4):
            c = curv(space, p, i, j, k, l)
            if c == 0.0:
                continue
            w = annihilate(frame_vectors[l], u)
            w = create(frame_vectors[k], w)
            w = annihilate(frame_vectors[i], w)
            w = create(frame_vectors[j], w)
            acc = acc + c * w
        for row, J in enumerate(basis):
            mat[row, col] = acc.inner(Multivector.basis(J))
    return mat


def leibniz_power(A: np.ndarray, k: int) -> np.ndarray:
    """Derivation extension of a (d x d) frame matrix A to Lambda^k:
    A acts on one wedge factor at a time (sum over factors)."""
    A = np.asarray(A, dtype=float)
    d = A.shape[0]
    basis = _wedge_basis(d, k)
    index = {I: r for r, I in enumerate(basis)}
    mat = np.zeros((len(basis), len(basis)))
    for col, I in enumerate(basis):
        for pos in range(k):
            for b in range(d):
                if A[b, I[pos]] == 0.0:
                    continue
                cand = list(I)
                cand[pos] = b
                key, sign = _sort_sign(cand)
                if sign == 0:
                    continue
                mat[index[key], col] += sign * A[b, I[pos]]
    return mat


def t_basis(n: int, m: int, d: int) -> list[Key]:
    """Basis keys of the exterior sector over m slots with every slot
    occupied: per-slot degrees k_i >= 1, sum k_i = n, k_i <= d."""
    keys: list[Key] = []
    for block in itertools.product(range(1, d + 1), repeat=m):
        if sum(block) != n:
            continue
        per_slot = [
            [tuple((i, a) for a in I) for I in _wedge_basis(d, k)]
            for i, k in enumerate(block)
        ]
        for combo in itertools.product(*per_slot):
            keys.append(tuple(itertools.chain.from_iterable(combo)))
    return keys


def apply_slot_linear(u: Multivector, slot: int, M: np.ndarray) -> Multivector:
    """Apply a frame matrix M to the factors of one slot multiplicatively
    (Lambda^k M, the transport/pullback extension)."""
    M = np.asarray(M, dtype=float)
    d = M.shape[0]
    out: dict = {}
    for key, c in u.coef.items():
        positions = [pos for pos, (s, _) in enumerate(key) if s == slot]
        if not positions:
            out[key] = out.get(key, 0.0) + c
            continue
        axes = tuple(key[pos][1] for pos in positions)
        k = len(axes)
        # keys are slot-major sorted, so the slot's indices form a contiguous
        # segment; a same-degree replacement is an in-place substitution with
        # no crossing sign.
        lo, hi = positions[0], positions[-1] + 1
        prefix, suffix = key[:lo], key[hi:]
        for J in itertools.combinations(range(d), k):
            minor = M[np.ix_(J, axes)]
            det = float(np.linalg.det(minor)) if k > 1 else float(minor[0, 0])
            if det == 0.0:
                continue
            skey = prefix + tuple((slot, b) for b in J) + suffix
            out[skey] = out.get(skey, 0.0) + det * c
            if out[skey] == 0.0:
                del out[skey]
    return Multivector(out)


def relabel_slots(u: Multivector, perm: dict[int, int]) -> Multivector:
    """Rename slots according to ``perm`` and re-sort keys, tracking signs.

    This is the slot identification used when symmetrizing multi-point form
    fields: swapping two slots of degrees k_i, k_j picks up (-1)^(k_i k_j).
    """
    out: dict = {}
    for key, c in u.coef.items():
        mapped = [(perm.get(s, s), a) for s, a in key]
        skey, sign = _sort_sign(mapped)
        if sign == 0:
            raise ValueError("slot relabeling produced a repeated index")
        out[skey] = out.get(skey, 0.0) + sign * c
    return Multivector(out)


def transport_slot(
    space: Space,
    u: Multivector,
    slot: int,
    q: np.ndarray,
    p: np.ndarray,
    frame_q: np.ndarray | None = None,
    frame_p: np.ndarray | None = None,
) -> Multivector:
    """Parallel-transport the slot-``slot`` factors of ``u`` from q to p,
    rewriting frame coordinates from frame(q) to frame(p)."""
    if frame_q is None:
        frame_q = space.frame(q)
    if frame_p is None:
        frame_p = space.frame(p)
    d = space.dim
    M = np.empty((d, d))
    for a in range(d):
        tv = space.transport(q, p, frame_q[a])
        for b in range(d):
            M[b, a] = float(frame_p[b] @ tv)
    return apply_slot_linear(u, slot, M)


def block_potential(
    J: Callable[[int, np.ndarray], np.ndarray],
    points: Sequence[np.ndarray],
    n: int,
    m: int,
    d: int,
) -> np.ndarray:
    """Matrix (in the ``t_basis`` ordering) of the block potential

        (J_{n,m} u)|_block = sum_i J^{(k_i)}(x_i) acting on slot i,

    where J(k, x) returns the degree-k frame matrix at x (size C(d,k)).
    Block-diagonal across block indices by construction.
    """
    basis = t_basis(n, m, d)
    index = {k: r for r, k in enumerate(basis)}
    mat = np.zeros((len(basis), len(basis)))
    wedge_bases = {k: _wedge_basis(d, k) for k in range(1, d + 1)}
    for col, key in enumerate(basis):
        for i in range(m):
            axes = tuple(a for s, a in key if s == i)
            ki = len(axes)
            Ji = np.asarray(J(ki, points[i]), dtype=float)
            wb = wedge_bases[ki]
            col_idx = wb.index(axes)
            positions = [pos for pos, (s, _) in enumerate(key) if s == i]
            lo, hi = positions[0], positions[-1] + 1
            prefix, suffix = key[:lo], key[hi:]
            for row_idx, Jval in enumerate(Ji[:, col_idx]):
                if Jval == 0.0:
                    continue
                skey = prefix + tuple((i, a) for a in wb[row_idx]) + suffix
                mat[index[skey], col] += Jval
    return mat
