"""Dense complex linear-algebra primitives with tolerance-controlled rank,
support, and positivity operations.

Operators are plain complex ``numpy.ndarray`` values; structural properties
(Hermitian, projector, density matrix) are enforced by check helpers rather
than by wrapper types. Every function here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import isqrt
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared across the package: two knobs, each read
    on its own object's scale.

    rank_tol      relative singular-value / eigenvalue cutoff for rank decisions,
                  scaled by the operators' scale s in stage 1 and by the
                  input's largest singular value or eigenvalue elsewhere;
                  rank_tol · s bounds a channel's trace defect, and
                  rank_tol · λ_max is a state's noise (``psd_project``,
                  ``support_projector``)
    residual_tol  acceptance threshold for linear identities, each on its
                  own object's scale (100 · residual_tol · ‖H‖_F for H)
    """

    rank_tol: float = 1e-9
    residual_tol: float = 1e-8

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, (bool, np.bool_)):
                raise ValueError(f"{f.name} must be a number, not a bool")
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{f.name} must be strictly positive and finite")
            object.__setattr__(self, f.name, float(value))  # 1 is written as 1.0
        if self.rank_tol >= 1:
            raise ValueError("rank_tol must be < 1")


DEFAULT_TOL = Tolerances()


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex array, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def require_square(m: np.ndarray) -> np.ndarray:
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    return np.asarray(a).conj().T


def frob(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product tr(a† b)."""
    return complex(np.vdot(a, b))


def hermitian_part(a: np.ndarray) -> np.ndarray:
    return (a + dagger(a)) / 2


def hermiticity_defect(a: np.ndarray) -> float:
    """Frobenius norm of a - a†."""
    return frob(a - dagger(a))


def projector_defect(p: np.ndarray) -> float:
    """max(‖P² − P‖_F, ‖P − P†‖_F); zero for an orthogonal projector."""
    p = require_square(p)
    return max(frob(p @ p - p), hermiticity_defect(p))


def check_projector(p: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> int:
    """Validate an orthogonal projector and return its rank (rounded trace)."""
    defect = projector_defect(p)
    if defect > 100 * tol.residual_tol:
        raise ValueError(f"not a projector: idempotency/Hermiticity defect {defect:.3e}")
    tr = np.trace(p).real
    rank = int(round(tr))
    if abs(tr - rank) > 100 * tol.residual_tol:
        raise ValueError(f"projector trace {tr} is not near an integer")
    return rank


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` of a Hermitian matrix split on its exact zeros: each
    component of ``_sector_roots`` is factored on its own, one batched eigh
    per component size (none for a diagonal a), so every eigenvector is zero
    outside one component. Eigenvalues come ascending, ties in component order."""
    diagonal = a.diagonal().real
    if np.count_nonzero(a) == np.count_nonzero(diagonal):  # every coordinate alone
        ascending = np.argsort(diagonal, kind="stable")
        return diagonal[ascending], np.eye(len(a), dtype=a.dtype)[:, ascending]
    roots = _sector_roots(a)
    if not roots.any():  # one component, rooted at coordinate 0
        return np.linalg.eigh(a)
    sizes = np.bincount(roots, minlength=len(a))[roots]  # each coordinate's component size
    w, v, at = np.empty(len(a)), np.zeros_like(a), 0
    for size in sorted(set(sizes.tolist())):
        members = np.flatnonzero(sizes == size)  # a row per component of this size
        idx = members[np.argsort(roots[members], kind="stable")].reshape(-1, size)
        cols = at + np.arange(idx.size).reshape(idx.shape)
        blocks = a[idx[:, :, None], idx[:, None]]
        w[cols], v[idx[:, :, None], cols[:, None]] = np.linalg.eigh(blocks)
        at += idx.size
    ascending = np.argsort(w, kind="stable")
    return w[ascending], v[:, ascending]


def _range_projector(v: np.ndarray) -> np.ndarray:
    """v v† for orthonormal columns v, or exactly the coordinate projector
    when v is nonzero on only as many rows as it has columns, which span it."""
    rows = v.any(axis=1)
    if np.count_nonzero(rows) == v.shape[1]:
        return np.diag(rows).astype(v.dtype)
    return v @ dagger(v)


def support_projector(a: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projector onto the numerical range of a PSD Hermitian matrix.

    Keeps the eigenvectors with eigenvalue > rank_tol · λ_max: the
    eigenvalues at most that are the state's noise, the ones ``psd_project``
    zeroes. λ_max <= 0 gives the zero projector, since no eigenvalue is
    kept; otherwise an eigenvalue below −10 · rank_tol · λ_max is an error.
    The input must be Hermitian within 100 · residual_tol · ‖a‖_F. Its exact
    zeros split it (``_eigh``); a coordinate range is exact (``_range_projector``).
    """
    a = require_square(a)
    if hermiticity_defect(a) > 100 * tol.residual_tol * frob(a):
        raise ValueError("support_projector requires a Hermitian input")
    w, u = _eigh(hermitian_part(a))
    lam_max = float(w[-1]) if w.size else 0.0
    if lam_max <= 0:
        return np.zeros_like(a)
    if float(w[0]) < -10 * tol.rank_tol * lam_max:
        raise ValueError(f"input is not positive semidefinite: min eigenvalue {w[0]:.3e}")
    return _range_projector(u[:, w > tol.rank_tol * lam_max])


# Hermitian matrices form a real vector space; the unitary T below maps real
# coordinate vectors isometrically (for the HS inner product) onto them, so
# that real SVD can orthonormalize without leaving the Hermitian cone.

def _hermitian_pairs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column-stacked vec indices of the diagonal (i, i) and of the entries
    (i, j), (j, i) for i < j, whose real coordinates (diagonal, √2 Re, √2 Im)
    ``_real_to_vec_herm`` maps back."""
    iu = np.triu_indices(n, k=1)
    return np.arange(n) * (n + 1), iu[0] + n * iu[1], iu[1] + n * iu[0]


def _real_to_vec_herm(x: np.ndarray, n: int) -> np.ndarray:
    """Columns T x: vec of the Hermitian matrices with real coordinates x."""
    diag, p, q = _hermitian_pairs(n)
    k = p.size
    out = np.empty((n * n, x.shape[1]), dtype=complex)
    out[diag] = x[:n]
    out[p] = (x[n:n + k] + 1j * x[n + k:]) / np.sqrt(2.0)
    out[q] = out[p].conj()
    return out


def _numerical_rank(s: np.ndarray, tol: Tolerances) -> int:
    """Rank from singular values: those above rank_tol · max(sigma_max, 1)
    count, so a unit-scale matrix that is zero up to rounding noise has a
    full kernel."""
    return int(np.count_nonzero(s > tol.rank_tol * s.max(initial=1.0)))


# Gaussian probes per certificate, and the factor of Halko, Martinsson & Tropp
# (SIAM Rev. 53, 2011, Lemma 4.1): ‖A‖ <= 10·√(2/π)·maxᵢ ‖A ωᵢ‖ for r
# standard normal ωᵢ, with probability at least 1 − 10⁻ʳ.
_PROBES = 10
_PROBE_FACTOR = 10 * np.sqrt(2 / np.pi)


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve`` over a stack of square matrices; a matrix whose LU
    meets an exact zero pivot gets NaN, which no certificate accepts."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.full(b.shape, np.nan)
        return np.concatenate([_solve(a[i : i + 1], b[i : i + 1]) for i in range(len(a))])


def _sigma_min_bound(a: np.ndarray, rng: np.random.Generator, width: int) -> tuple:
    """A lower bound on σ_min of each matrix in a stack, 1 / (10·√(2/π)·maxᵢ
    ‖A⁻¹ωᵢ‖), and A⁻¹[E, Ω] for E the last ``width`` unit vectors: one LU each.
    A zero pivot's NaN fails the bound and reads 0 in the solves."""
    count, size, _ = a.shape
    rhs = np.zeros((count, size, width + _PROBES))
    rhs[:, size - width :, :width] = np.eye(width)
    rhs[..., width:] = rng.standard_normal((count, size, _PROBES))
    sol = _solve(a, rhs)
    bound = 1 / (_PROBE_FACTOR * np.linalg.norm(sol[..., width:], axis=1).max(axis=1))
    return bound, np.where(np.isfinite(sol), sol, 0)


def _bordered_kernels(
    s: np.ndarray, sectors: np.ndarray, border: np.ndarray, cut: float,
    rng: np.random.Generator, left_known: bool,
) -> tuple:
    """Certify that each real square matrix S = s[k], k in ``sectors``, has
    the d-dimensional kernel the SVD's rule ``σ <= cut`` gives, by one LU of
    B = [[S, X̂], [X̂ᵀ, 0]] (X̂: d orthonormal ``border`` columns) and one of
    Bᵀ unless X̂ is a known left kernel, stacked and solved against
    [0; I_d | Ω]. They give X with S X = −X̂Λ and Y with
    Sᵀ Y = −X̂Γ, X̂ᵀX = X̂ᵀY = I_d, and X_o, Y_o orthonormal bases of them;
    with a known left kernel d = 1, Y_o = X̂ and X_o = x/‖x‖, so X̂ᵀX_o > 0
    (a kernel vector bordered by the trace functional has positive trace).
    d is certified when ‖S X_o‖₂ (and ‖Sᵀ Y_o‖₂) <= cut, so σ_{N−d+1}(S) <=
    cut, and cut < the probe bound on σ_min(B): for unit z ⊥ X̂,
    ‖B (z, 0)‖ = ‖S z‖, so σ_min(B) <= σ_{N−d}(S) by Courant–Fischer. B is
    singular unless ker S ∩ ran S = 0. Returns (certified, bound, X_o, Y_o),
    with the smaller of B's and Bᵀ's bounds. B is s's ``gather_real`` buffer,
    X̂ in its spare row and column, when a known left X̂ borders all of s.
    """
    count, size, d = border.shape
    sides = 1 if left_known else 2
    pair = s.base if left_known and count == len(s) and s.base is not None else s
    if pair.shape != (count, size + 1, size + 1):  # not gather_real's buffer: copy S into B
        pair = np.zeros((sides, count, size + d, size + d))  # B, then Bᵀ if any: one border
        for to, sector in enumerate(sectors):
            pair[0, to, :size, :size], pair[1:, to, :size, :size] = s[sector], s[sector].T
    pair[..., :size, size:], pair[..., size:, :size] = border, border.transpose(0, 2, 1)
    pair = pair.reshape(sides * count, size + d, size + d)
    bound, sol = _sigma_min_bound(pair, rng, d)
    sol = sol[:, :size, :d]
    if left_known:
        basis = sol / np.maximum(np.linalg.norm(sol, axis=1, keepdims=True), np.finfo(float).tiny)
    else:
        basis = np.linalg.qr(sol)[0]
    ok = (np.linalg.norm(pair[:, :size, :size] @ basis, 2, axis=(1, 2)) <= cut) & (bound > cut)
    ok, bound = ok.reshape(sides, count).all(axis=0), bound.reshape(sides, count).min(axis=0)
    basis = basis.reshape(sides, count, size, d)
    return ok, bound, basis[0], border if left_known else basis[1]


def _sector_roots(m: np.ndarray) -> np.ndarray:
    """For each coordinate of a square matrix, or of each matrix in a stack,
    the smallest coordinate of its sector: its connected component in the
    symmetric nonzero pattern (m != 0) | (m != 0)ᵀ. Only exact zeros
    separate coordinates.

    When coordinate 0 touches every other coordinate (row 0 or column 0 is
    nonzero there) in every matrix, the pattern is connected and every label
    is 0, read from that row and column alone. Otherwise every coordinate
    starts with its own label and repeatedly takes the smallest label among
    its neighbours, then its label's label (pointer jumping); at the fixed
    point each component carries its smallest coordinate.
    """
    size = m.shape[-1]
    if size and ((m[..., 0, 1:] != 0) | (m[..., 1:, 0] != 0)).all():  # a hub: one sector
        return np.zeros(m.shape[:-1], dtype=int)
    pattern = m != 0
    pattern |= pattern.swapaxes(-1, -2)
    labels = np.broadcast_to(np.arange(size), m.shape[:-1])
    while True:
        # row r's smallest neighbour label, read through a broadcast view of
        # the labels: no size × size temporary
        near = np.broadcast_to(labels[..., None, :], pattern.shape)
        nearest = np.minimum(labels, near.min(axis=-1, where=pattern, initial=size))
        nearest = np.take_along_axis(nearest, nearest, axis=-1)
        if np.array_equal(nearest, labels):
            return nearest
        labels = nearest


# Bytes of complex entries that the stage-1 fold and gather handle at a
# time: the p and q rows of one block of nodes or pairs, sized to stay in cache.
_GATHER_BYTES = 1 << 18
_FOLD_NODES = 16  # the fold's least block: a large n takes no Python step per node


def _pair_roots(m: np.ndarray, n: int) -> np.ndarray:
    """Stage 1's coarse sectors: m's nonzero pattern folded onto Hermitian
    pairs, labelled by ``_sector_roots``. The nodes are the diagonal i (node
    i) and the pairs {i, k}, i < k (node n + j for the j-th pair of
    ``_hermitian_pairs``), node rows and columns the OR of the pattern's at
    the node's vec indices (i, k) and (k, i), ORed a block of nodes at a
    time. A coordinate of M = T† m T is read from its node's vec indices
    alone, so M has no nonzero between two components. Node 0, vec index 0
    alone, touches every node where m's row 0 or column 0 is nonzero at the
    node's vec indices; when that is every other node, every label is 0 and
    nothing is folded."""
    diag, p, q = _hermitian_pairs(n)
    at_p, at_q = np.concatenate([diag, p]), np.concatenate([diag, q])
    hub = (m[0] != 0) | (m[:, 0] != 0)
    if (hub[at_p] | hub[at_q])[1:].all():
        return np.zeros(at_p.size, dtype=int)
    folded = np.empty((at_p.size, at_p.size), dtype=bool)
    step = max(_FOLD_NODES, _GATHER_BYTES // (32 * m.shape[1]))
    for lo in range(0, at_p.size, step):
        # m != 0 in half the time: an entry is nonzero where its real or its
        # imaginary half is, and the two halves' bools read as one uint16
        nodes = slice(lo, lo + step)
        rows = [(m[at[nodes]].view(float) != 0).view(np.uint16) != 0 for at in (at_p, at_q)]
        rows[0] |= rows[1]
        np.logical_or(rows[0][:, at_p], rows[0][:, at_q], out=folded[nodes])
    return _sector_roots(folded)


def _gather_rows(m: np.ndarray, rows: np.ndarray, perm: np.ndarray, n: int, out: list) -> None:
    """Write rows of the real blocks T_c† m T_c of a stack of sectors c.

    rows · T_c takes the entries of m at rows[:, c] and the columns
    perm[c] = (diag, p, q), n of them diagonal, into the column blocks
    m[:, diag], (m[:, p] + m[:, q]) r and i (m[:, p] − m[:, q]) r,
    r = 1/√2. Diagonal rows (``rows`` of shape (1, count, h)) write their
    real part to out[0]; the p and q rows of h pairs (shape (2, count, h))
    write the sym rows (Re p + Re q) r to out[0] and the anti rows
    (Im p − Im q) r to out[1]. A sector of every coordinate takes whole rows
    of m, then its columns; smaller ones take their entries by flat index.
    Every column block is contiguous, which keeps numpy's ufuncs off their
    buffered loops, and none outlives the call.
    """
    k, r = (perm.shape[1] - n) // 2, np.sqrt(0.5)
    parts = (slice(n), slice(n, n + k), slice(n + k, None))
    if perm.shape[1] == m.shape[1]:
        whole = m[rows[:, 0]]
        diag, at_p, at_q = (whole.take(perm[0, part], axis=-1)[:, None] for part in parts)
    else:
        at = rows[..., None] * m.shape[1]
        diag, at_p, at_q = (m.take(at + perm[:, None, part]) for part in parts)
    diff = at_q - at_p
    at_p += at_q
    at_p *= r
    diff *= -1j * r
    for part, cols in zip(parts, (diag, at_p, diff)):
        if len(rows) == 1:
            out[0][..., part] = cols[0].real
            continue
        sym = cols[0].real + cols[1].real
        sym *= r
        out[0][..., part] = sym
        anti = cols[0].imag - cols[1].imag
        anti *= r
        out[1][..., part] = anti


def gather_real(m: np.ndarray, diags: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """The real blocks T_c† m T_c of a Hermiticity-preserving superoperator m
    on a stack of sectors c of one shape.

    m acts on column-stacked n × n operators, and T is the unitary whose
    columns are vec of the orthonormal Hermitian basis of ``_real_to_vec_herm``
    (diagonal units, (E_ij + E_ji)/√2, i(E_ij − E_ji)/√2); T_c keeps the
    columns of sector c's coordinates, ascending: the diagonal ``diags[c]``,
    then the two coordinates of each pair ``pairs[c]`` (indices into
    ``_hermitian_pairs``). A sector of every coordinate gives the whole
    M = T† m T. The blocks are gathered in row blocks of ``_GATHER_BYTES``:
    the diagonal rows, then the p and q rows of each block of pairs, each
    times T_c, combined and scaled into rows of the blocks while in cache
    (``_gather_rows``). Only these row blocks and the blocks are allocated,
    and no entry depends on the row-block size or on the stack. The blocks
    are the w × w corner of a zeroed (count, w + 1, w + 1) buffer, with
    room for a bordered LU's border (``_bordered_kernels``). The
    imaginary part of T_c† m T_c is dropped unread: every generator has
    L(X)† = L(X†), so it is roundoff.
    """
    diag, p, q = _hermitian_pairs(isqrt(m.shape[0]))
    count, a = diags.shape
    b = pairs.shape[1]
    perm = np.concatenate([diag[diags], p[pairs], q[pairs]], axis=1)
    step = max(1, _GATHER_BYTES // (32 * count * perm.shape[1]))
    real = np.zeros((count, perm.shape[1] + 1, perm.shape[1] + 1))[:, :-1, :-1]
    for lo in range(0, a, step):
        hi = min(lo + step, a)
        _gather_rows(m, diag[diags[None, :, lo:hi]], perm, a, [real[:, lo:hi]])
    for lo in range(0, b, step):
        hi = min(lo + step, b)
        rows = np.stack([p[pairs[:, lo:hi]], q[pairs[:, lo:hi]]])
        _gather_rows(m, rows, perm, a, [real[:, a + lo : a + hi], real[:, a + b + lo : a + b + hi]])
    return real


def gather_sectors(m: np.ndarray) -> list:
    """The real blocks of M = T† m T on its coarse sectors (``_pair_roots``),
    one ``gather_real`` stack per shape, shapes by block width, then by
    diagonal count: (coordinates, blocks) with one row of ascending
    coordinates of M and one block per sector, sectors by smallest
    coordinate. M has no nonzero outside these blocks, and a model
    that does not split gathers M itself as its one block, with room for
    B's border (``gather_real``). m's entries are
    not checked again: ``Superoperator`` rejects non-finite ones."""
    m = np.ascontiguousarray(m, dtype=complex)
    n = isqrt(m.shape[0])
    if m.shape != (n * n, n * n):
        raise ValueError(f"{m.shape} is not the shape of a superoperator")
    k = n * (n - 1) // 2
    nodes = _pair_roots(m, n)
    order = np.argsort(nodes, kind="stable")
    _, starts, sizes = np.unique(nodes[order], return_index=True, return_counts=True)
    diagonal = np.add.reduceat((order < n).astype(int), starts)
    widths = 2 * sizes - diagonal  # a diagonal node holds one coordinate, a pair two
    stacks = []
    for w, a in sorted(set(zip(widths.tolist(), diagonal.tolist()))):
        b = (w - a) // 2
        idx = order[starts[(diagonal == a) & (widths == w)][:, None] + np.arange(a + b)]
        diags, pairs = idx[:, :a], idx[:, a:] - n
        coords = np.concatenate([diags, n + pairs, n + k + pairs], axis=1)
        stacks.append((coords, gather_real(m, diags, pairs)))
    return stacks


def real_null_spaces(
    stacks: list, scale: float, tol: Tolerances = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases (as columns) of the null spaces of a
    Hermiticity-preserving superoperator m and of m†, factored in real
    arithmetic sector by sector from the coarse blocks of M = T† m T that
    ``gather_sectors`` takes from m: M has the singular values of m.

    M maps each of its sectors (``_sector_roots`` of M) to itself, so its
    singular values are the union of the sectors' and its kernels are
    direct sums of the sectors' kernels. M has no nonzero outside the
    coarse blocks, so each stack's sectors are found (one batched
    ``_sector_roots`` of its blocks) and decided in it, stacks in
    ``gather_sectors`` order; a stack whose blocks do not split is decided
    as it is, and M itself exists only when the model does not split. The
    rank rule keeps singular values above rank_tol · ``scale``, a scale the
    caller takes before any factorization (stage 1: the operators' scale s,
    which L → cL multiplies by c), and at least the smallest normal float,
    so the zero map's cut is positive. Per stack, the sectors of one size
    are stacked, sizes ascending, roots ascending. Per stack and size, in
    this order: the bordered certificate ``_bordered_kernels`` of each
    sector S that holds a diagonal coordinate and has ‖Sᵀy‖ <= cut, with
    the normalized restriction y of y₀ = T† vec(1) (1 on the diagonal
    coordinates) as its known left border, since a trace-preserving map has
    m†(1) = 0 (in the gathered buffer when they are all of an undivided
    stack); one LU with Gaussian probes Ω (``_sigma_min_bound``) of every
    sector still open, kernel-free when that bound on σ_min exceeds the
    cut, whatever its kind. The probe solves S⁻¹Ω of the others are their
    sketches: the 0 < d < 10 directions that grew past 1/cut (from a QR
    and an SVD of its 10 × 10 factor) border S and Sᵀ in the same
    certificate, one call per d. The probes come from a generator fixed
    here. The other sectors (a value near the cut, an exact zero pivot,
    ten kernel directions, a Jordan block at 0) are factored by one
    batched real SVD, whose trailing singular vectors span their kernels.
    Kernel vectors are embedded at their sector's coordinates; columns
    come ordered by sector (smallest coordinate first), and mapped back
    through T every basis vector is vec of a Hermitian matrix.
    """
    n = isqrt(sum(coords.size for coords, _ in stacks))
    cut = max(tol.rank_tol * scale, np.finfo(float).tiny)
    rng = np.random.default_rng(0)
    owners, right, left = [np.zeros(0, int)], [np.zeros((n * n, 0))], [np.zeros((n * n, 0))]
    for coords, blocks in stacks:
        roots = np.take_along_axis(coords, _sector_roots(blocks), axis=1).ravel()
        order = np.argsort(roots, kind="stable")
        _, starts, sizes = np.unique(roots[order], return_index=True, return_counts=True)
        for size in sorted(set(sizes.tolist())):
            # (sectors of this size) x size positions in the stack, one row per sector
            pos = order[starts[sizes == size][:, None] + np.arange(size)]
            idx, (member, local) = coords.take(pos), np.divmod(pos, coords.shape[1])
            sub = (member[:, :1, None], local[:, :, None], local[:, None, :])
            block = blocks if pos.shape == coords.shape else blocks[sub]  # no block splits
            diagonal = idx < n
            y = diagonal / np.sqrt(np.maximum(diagonal.sum(axis=1, keepdims=True), 1))
            dim = np.full(len(idx), -1)
            found = []  # (sector rows of idx, right and left kernel vectors), one vector a row

            def certify(sectors, border, left_known):
                ok, _, x_o, y_o = _bordered_kernels(block, sectors, border, cut, rng, left_known)
                dim[sectors[ok]] = d = border.shape[2]
                vecs = (v[ok].transpose(0, 2, 1).reshape(-1, size) for v in (x_o, y_o))
                found.append((np.repeat(sectors[ok], d), *vecs))

            with np.errstate(all="ignore"):
                # y is zero past each sector's diagonal coordinates, which come first
                lead = slice(diagonal.sum(axis=1).max())
                residual = np.linalg.norm(np.einsum("cji,cj->ci", block[:, lead], y[:, lead]), axis=1)
                rest = np.flatnonzero(diagonal.any(axis=1) & (residual <= cut))
                if rest.size:
                    certify(rest, y[rest, :, None], True)
                probe = np.flatnonzero(dim < 0)
                if probe.size:
                    bound, sketch = _sigma_min_bound(block[probe], rng, 0)
                    dim[probe[bound > cut]] = 0
                undecided = np.flatnonzero(dim < 0)
                if undecided.size:  # the probed sectors still open: their solves are the sketch
                    q, r = np.linalg.qr(sketch[dim[probe] < 0])
                    u, sigma, _ = np.linalg.svd(r)
                    width = np.count_nonzero(sigma > 1 / cut, axis=1)
                    # sorted(set(...)): np.unique without indices imports numpy.ma on numpy 2.
                    for d in sorted(set(width[(width > 0) & (width < _PROBES)].tolist())):
                        at = np.flatnonzero(width == d)
                        certify(undecided[at], q[at] @ u[at, :, :d], False)
            undecided = np.flatnonzero(dim < 0)
            if undecided.size:
                u, s, vt = np.linalg.svd(block[undecided])
                sector, j = np.nonzero(s <= cut)
                found.append((undecided[sector], vt[sector, j], u[sector, :, j]))
            for rows, r_vecs, l_vecs in found:
                at = (idx[rows], np.arange(rows.size)[:, None])
                owners.append(idx[rows, 0])
                for out, vecs in ((right, r_vecs), (left, l_vecs)):
                    out.append(np.zeros((n * n, rows.size)))
                    out[-1][at] = vecs
    by_sector = np.argsort(np.concatenate(owners), kind="stable")
    return tuple(_real_to_vec_herm(np.hstack(vecs)[:, by_sector], n) for vecs in (right, left))


def kernel_basis(m: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormal basis of the numerical null space of any matrix.

    Rank rule ``_numerical_rank``, for an m already on unit scale (every
    caller weighs or normalizes it). A tall or square m needs only the thin
    SVD; a wide one needs all right singular vectors.
    """
    m = as_matrix(m)
    rows, cols = m.shape
    _, s, vh = np.linalg.svd(m, full_matrices=rows < cols)
    return list(vh[_numerical_rank(s, tol):].conj())


def orthonormal_hermitian_span(
    candidates: Sequence[np.ndarray], tol: Tolerances = DEFAULT_TOL
) -> list[np.ndarray]:
    """HS-orthonormal Hermitian basis of the real span of Hermitian matrices,
    from the real SVD of their coordinates T† vec(x), mapped back by T."""
    if not candidates:
        return []
    n = candidates[0].shape[0]
    diag, p, _ = _hermitian_pairs(n)
    vecs = np.array([hermitian_part(x).reshape(-1, order="F") for x in candidates])
    pairs = vecs[:, p]
    rows = np.hstack([vecs[:, diag].real, np.sqrt(2.0) * pairs.real, np.sqrt(2.0) * pairs.imag])
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return []
    keep = s > tol.rank_tol * s[0]
    return list(_real_to_vec_herm(vh[keep].T, n).T.reshape(-1, n, n).transpose(0, 2, 1))


def hermitian_basis(
    span: Sequence[np.ndarray], tol: Tolerances = DEFAULT_TOL
) -> list[np.ndarray]:
    """HS-orthonormal Hermitian basis of a †-closed matrix span.

    The input span must be closed under the adjoint: each X† must lie in it
    within residual_tol · ‖X‖_F (checked). The output is
    built from the Hermitian and anti-Hermitian parts of the inputs followed
    by re-orthonormalization, and spans the same space over the complex field.
    """
    mats = [require_square(x) for x in span]
    if not mats:
        return []
    n = mats[0].shape[0]
    for x in mats:
        if x.shape != (n, n):
            raise ValueError("all matrices in the span must share one shape")

    stacked = np.array([x.ravel() for x in mats])
    _, s, vh = np.linalg.svd(stacked, full_matrices=False)
    keep = s > tol.rank_tol * s[0] if s.size and s[0] > 0 else np.zeros(s.shape, bool)
    basis = vh[keep]
    for x in mats:
        target = dagger(x).ravel()
        residual = float(np.linalg.norm(target - basis.T @ (basis.conj() @ target)))
        if residual > tol.residual_tol * frob(x):
            raise ValueError(
                f"span is not closed under the adjoint: projection residual {residual:.3e}"
            )

    candidates: list[np.ndarray] = []
    for x in mats:
        candidates.append((x + dagger(x)) / 2)
        candidates.append((x - dagger(x)) / 2j)
    result = orthonormal_hermitian_span(candidates, tol)
    if len(result) != int(np.count_nonzero(keep)):
        raise ValueError("Hermitian re-orthonormalization changed the span dimension")
    return result


def matrix_exponential(m: np.ndarray) -> np.ndarray:
    """exp(m) for a square complex matrix (scaling-and-squaring Pade).

    No command calls it; ``perfbench/spans.py`` wraps it by name. scipy is
    imported here, its only use, so the CLI starts without it."""
    import scipy.linalg

    return scipy.linalg.expm(require_square(m))


def psd_project(a: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Clip spectral noise and renormalize a near-state to unit trace.

    The eigenvalues at most rank_tol · λ_max are noise and are zeroed, so
    the result's support is ``support_projector``'s. An error is raised when
    the trace is <= 0 or when the clipped mass exceeds 1% of the trace, which
    signals the input was not close to a density matrix. The input must be
    Hermitian within 100 · residual_tol · ‖a‖_F. The eigendecomposition
    splits on a's exact zeros (``_eigh``), so the result keeps them.
    """
    a = require_square(a)
    if hermiticity_defect(a) > 100 * tol.residual_tol * frob(a):
        raise ValueError("psd_project requires a Hermitian input")
    w, u = _eigh(hermitian_part(a))
    trace = float(w.sum())
    if trace <= 0:
        raise ValueError(f"trace {trace:.3e} too small to normalize")
    noise = w <= tol.rank_tol * w[-1]
    clipped_mass = float(np.abs(w[noise]).sum())
    if clipped_mass > 0.01 * trace:
        raise ValueError(
            f"clipped eigenvalue mass {clipped_mass:.3e} exceeds 1% of trace {trace:.3e}"
        )
    w = np.where(noise, 0.0, w)
    rho = (u * w) @ dagger(u)
    return hermitian_part(rho / w.sum())


def cluster_sorted_values(values: np.ndarray, width: float) -> list[slice]:
    """Group an ascending 1-d array into clusters split at gaps > width."""
    if values.size == 0:
        return []
    edges = [0, *(np.flatnonzero(np.diff(values) > width) + 1).tolist(), values.size]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


# Decimals that lex_key and fix_phase round to before they compare.
_KEY_DECIMALS = 12


def lex_key(m: np.ndarray) -> tuple:
    """Deterministic ordering key: rounded row-major (re, im) interleaving."""
    flat = np.asarray(m, dtype=complex).ravel()
    rounded = np.round(np.column_stack([flat.real, flat.imag]), _KEY_DECIMALS)
    return tuple(rounded.ravel().tolist())


def fix_phase(q: np.ndarray) -> np.ndarray:
    """Rotate a global phase so the largest-magnitude entry is real positive."""
    flat = np.asarray(q).ravel()
    mags = np.round(np.abs(flat), _KEY_DECIMALS)
    idx = int(np.argmax(mags))
    pivot = flat[idx]
    if abs(pivot) == 0.0:
        return np.array(q, copy=True)
    return np.asarray(q) * (pivot.conjugate() / abs(pivot))
