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

import functools
import itertools
import math
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .geometry import Space, frame_maps

__all__ = [
    "Multivector",
    "wedge",
    "curvature_operator",
    "block_potential",
    "leibniz_power",
    "t_basis",
    "wedge_power",
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

    def is_zero(self) -> bool:
        return all(c == 0.0 for c in self.coef.values())

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


# ---------------------------------------------------------------------------
# single-point operator blocks


@functools.lru_cache(maxsize=None)
def _wedge_basis(d: int, k: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.combinations(range(d), k))


def _slot_block_terms(
    keys: Iterable[Key], block: Callable[[int, int], np.ndarray], d: int
) -> Iterator[tuple[Key, Key, float]]:
    """The per-slot block action on basis keys, term by term: for every
    occupied slot s of each key, the degree-k block of that slot,
    ``block(s, k)`` (fetched once per (slot, k)), acts on the slot's segment
    of the key. Yields (key, image key, coefficient) for each nonzero entry.

    Keys are slot-major sorted, so a slot's indices form a contiguous
    segment and a same-degree replacement carries no crossing sign.
    """
    mats: dict = {}
    for key in keys:
        for slot in sorted({s for s, _ in key}):
            positions = [pos for pos, (s, _) in enumerate(key) if s == slot]
            axes = tuple(key[pos][1] for pos in positions)
            k = len(axes)
            if (slot, k) not in mats:
                mats[slot, k] = np.asarray(block(slot, k), dtype=float)
            wb = _wedge_basis(d, k)
            lo, hi = positions[0], positions[-1] + 1
            for row, val in enumerate(mats[slot, k][:, wb.index(axes)]):
                if val != 0.0:
                    image = key[:lo] + tuple((slot, a) for a in wb[row]) + key[hi:]
                    yield key, image, float(val)


def curvature_operator(space: Space, n: int) -> np.ndarray:
    """Matrix of the curvature operator on Lambda^n in the increasing frame
    basis.

    Every backend has constant sectional curvature K
    (``Space.sectional_curvature``), so R_{ijkl} = K (g_ik g_jl - g_il g_jk)
    and the Weitzenboeck sum

        R_n = sum_{ijkl} R_{ijkl} e_j ^ iota_i e_k ^ iota_l

    collapses to n (d - n) K times the identity at every point; the
    degree-1 block is the Ricci transform (d - 1) K. A backend of
    non-constant curvature would need the sum itself.
    """
    d = space.dim
    return n * (d - n) * space.sectional_curvature() * np.eye(math.comb(d, n))


@functools.lru_cache(maxsize=None)
def _wedge_ops(d: int, k: int) -> np.ndarray:
    """e_a ^ from degree k to k + 1, a < d, as (d, C(d, k + 1), C(d, k))
    matrices on the increasing frame bases; on orthonormal frames iota_a
    from degree k + 1 to k is the transpose."""
    up = {key: r for r, key in enumerate(_wedge_basis(d, k + 1))}
    out = np.zeros((d, len(up), math.comb(d, k)))
    for c, key in enumerate(_wedge_basis(d, k)):
        for a in sorted(set(range(d)) - set(key)):
            pos = sum(b < a for b in key)  # the factors e_a moves past
            out[a, up[key[:pos] + (a,) + key[pos:]], c] = (-1.0) ** pos
    return out


def leibniz_power(A: np.ndarray, k: int) -> np.ndarray:
    """Derivation extension of (d x d) frame matrices A, stacked on leading
    axes, to Lambda^k: sum_{a,b} A[b, a] e_b ^ iota_a, so A acts on one
    wedge factor at a time. Shape A.shape[:-2] + (C(d, k), C(d, k)); the
    degree-0 block is a 1 x 1 zero."""
    A = np.asarray(A, dtype=float)
    if k == 0:
        return np.zeros(A.shape[:-2] + (1, 1))
    up = _wedge_ops(A.shape[-1], k - 1)  # iota_a is the transpose of e_a ^
    return np.einsum("...ba,bip,ajp->...ij", A, up, up)


@functools.lru_cache(maxsize=None)
def _splits(n: int, m: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Per-slot degrees (k_1, ..., k_m) of the fully occupied sector,
    k_i >= 1, sum k_i = n, k_i <= d, in the ``t_basis`` block order."""
    return tuple(
        block for block in itertools.product(range(1, d + 1), repeat=m)
        if sum(block) == n
    )


def t_basis(n: int, m: int, d: int) -> list[Key]:
    """Basis keys of the exterior sector over m slots with every slot
    occupied, block by block (``_splits``); within a block, slot 0's keys
    vary slowest."""
    keys: list[Key] = []
    for block in _splits(n, m, d):
        per_slot = [
            [tuple((i, a) for a in I) for I in _wedge_basis(d, k)]
            for i, k in enumerate(block)
        ]
        for combo in itertools.product(*per_slot):
            keys.append(tuple(itertools.chain.from_iterable(combo)))
    return keys


def wedge_power(M: np.ndarray, k: int) -> np.ndarray:
    """Lambda^k of a stack of (d x d) frame matrices: the (..., C(d, k),
    C(d, k)) matrices of k x k minors, entry (J, I) = det M[J, I] over the
    increasing frame basis (the transport/pullback extension)."""
    M = np.asarray(M, dtype=float)
    if k == 1:
        return M
    basis = _wedge_basis(M.shape[-1], k)
    wb = np.array(basis, dtype=np.intp).reshape(len(basis), k)
    return np.linalg.det(M[..., wb[:, None, :, None], wb[None, :, None, :]])


def apply_slot_linear(u: Multivector, slot: int, M: np.ndarray) -> Multivector:
    """Apply a frame matrix M to the factors of one slot multiplicatively:
    its degree-k block is ``wedge_power(M, k)``."""
    M = np.asarray(M, dtype=float)
    d = M.shape[0]

    def minors(s: int, k: int) -> np.ndarray:
        if s != slot:
            return np.zeros((math.comb(d, k),) * 2)  # other slots stay put
        return wedge_power(M, k)

    out = {key: c for key, c in u.coef.items() if all(s != slot for s, _ in key)}
    for key, image, det in _slot_block_terms(u.coef, minors, d):
        out[image] = out.get(image, 0.0) + det * u.coef[key]
        if out[image] == 0.0:
            del out[image]
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
    space: Space, u: Multivector, slot: int, q: np.ndarray, p: np.ndarray
) -> Multivector:
    """Parallel-transport the slot-``slot`` factors of ``u`` from q to p,
    rewriting frame coordinates from frame(q) to frame(p)."""
    return apply_slot_linear(u, slot, frame_maps(space, q, p))


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
    index = {key: r for r, key in enumerate(basis)}
    mat = np.zeros((len(basis), len(basis)))
    for key, image, c in _slot_block_terms(basis, lambda s, k: J(k, points[s]), d):
        mat[index[image], index[key]] += c
    return mat
