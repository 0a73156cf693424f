"""Dense complex linear-algebra primitives with tolerance-controlled rank,
support, and positivity operations.

Operators are plain complex ``numpy.ndarray`` values; structural properties
(Hermitian, projector, density matrix) are enforced by check helpers rather
than by wrapper types. Every function here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared across the package.

    rank_tol         relative singular-value / eigenvalue cutoff for rank decisions,
                     scaled by the operators' scale s in stage 1 and by the
                     input's largest singular value or eigenvalue elsewhere;
                     rank_tol · s bounds a channel's trace defect, too
    eig_cluster_tol  absolute width used to group near-degenerate eigenvalues
    residual_tol     acceptance threshold for linear identities, each on its
                     own object's scale (100 · residual_tol · ‖H‖_F for H)
    psd_tol          magnitude below which negative eigenvalues count as noise
    """

    rank_tol: float = 1e-9
    eig_cluster_tol: float = 1e-7
    residual_tol: float = 1e-8
    psd_tol: float = 1e-10

    def __post_init__(self):
        for name in ("rank_tol", "eig_cluster_tol", "residual_tol", "psd_tol"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be strictly positive and finite")
        if self.rank_tol >= 1:
            raise ValueError("rank_tol must be < 1")

    def replace(self, **kwargs) -> "Tolerances":
        import dataclasses

        return dataclasses.replace(self, **kwargs)


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


def support_projector(a: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projector onto the numerical range of a PSD Hermitian matrix.

    Keeps eigenvectors with eigenvalue > rank_tol * lambda_max; the zero
    matrix maps to the zero projector. The input must be Hermitian within
    100 · residual_tol · ‖a‖_F.
    """
    a = require_square(a)
    if hermiticity_defect(a) > 100 * tol.residual_tol * frob(a):
        raise ValueError("support_projector requires a Hermitian input")
    w, u = np.linalg.eigh(hermitian_part(a))
    lam_max = float(w[-1]) if w.size else 0.0
    if w.size and float(w[0]) < -10 * max(tol.psd_tol, tol.rank_tol * abs(lam_max)):
        raise ValueError(f"input is not positive semidefinite: min eigenvalue {w[0]:.3e}")
    if lam_max <= tol.psd_tol:
        return np.zeros_like(a)
    keep = w > tol.rank_tol * lam_max
    v = u[:, keep]
    return v @ dagger(v)


# Hermitian matrices form a real vector space; the maps below embed them
# isometrically (for the HS inner product) into real coordinate vectors so
# that real SVD can orthonormalize without leaving the Hermitian cone.

def _herm_to_real(x: np.ndarray) -> np.ndarray:
    n = x.shape[0]
    iu = np.triu_indices(n, k=1)
    return np.concatenate([
        np.diag(x).real,
        np.sqrt(2.0) * x[iu].real,
        np.sqrt(2.0) * x[iu].imag,
    ])


def _hermitian_pairs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column-stacked vec indices of the diagonal (i, i) and of the entries
    (i, j), (j, i) for i < j, in the order ``_herm_to_real`` uses."""
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


def _real_to_herm(v: np.ndarray, n: int) -> np.ndarray:
    return _real_to_vec_herm(v[:, None], n).reshape((n, n), order="F")


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


def _sigma_min_bound(a: np.ndarray, rng: np.random.Generator, width: int = 1) -> tuple:
    """A lower bound on σ_min of each matrix in a stack, 1 / (10·√(2/π)·maxᵢ
    ‖A⁻¹ωᵢ‖), and A⁻¹[E, Ω] for E the last ``width`` unit vectors: one LU each."""
    count, size, _ = a.shape
    rhs = np.zeros((count, size, width + _PROBES))
    rhs[:, size - width :, :width] = np.eye(width)
    rhs[..., width:] = rng.standard_normal((count, size, _PROBES))
    sol = _solve(a, rhs)
    return 1 / (_PROBE_FACTOR * np.linalg.norm(sol[..., width:], axis=1).max(axis=1)), sol


def _certified_kernels(
    s: np.ndarray, y: np.ndarray, cut: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Kernel dimension of each real square matrix in a stack, certified by
    at most one LU each to be the one the SVD's rule ``σ <= cut`` gives: 0,
    or 1 with kernel vectors x of s and y of sᵀ, or −1 where the certificate
    cannot decide. Also the certified lower bound on the smallest singular
    value kept (σ_N or σ_{N−1}; NaN where undecided), and the sketch s⁻¹Ω of
    each undecided matrix: from its kernel-free LU, else from one more LU.

    Each row of y is the unit restriction of y₀ (1 on the diagonal
    coordinates, 0 elsewhere) to its matrix's coordinates, or zero for a
    coherence sector, which has no diagonal coordinate. A coherence sector
    has dimension 0 when the probe bound on σ_min(s) exceeds the cut. A
    trace-preserving map has sᵀy = 0; where ‖sᵀy‖ <= cut, the bordered
    B = [[s, y], [yᵀ, 0]] is factored once, and its solve against e_{N+1}
    gives x with s x = −μ y and yᵀx = 1, so x has positive trace. Dimension
    1, with kernel vectors x̂ and y, when ‖s x̂‖ <= cut, so σ_N <= cut, and
    the probe bound on σ_min(B) exceeds the cut: for unit z ⊥ y,
    ‖B (z, 0)‖ = ‖s z‖, so σ_min(B) <= σ_{N−1}(s) by Courant–Fischer.
    """
    count, size, _ = s.shape
    dim, bound = np.full(count, -1), np.full(count, np.nan)
    sketch = np.zeros((count, size, _PROBES))
    traced = y.any(axis=1)
    with np.errstate(all="ignore"):
        free = np.flatnonzero(~traced)
        if free.size:
            kept, sol = _sigma_min_bound(s[free], rng)
            sketch[free] = sol[..., 1:]
            free, kept = free[kept > cut], kept[kept > cut]
            dim[free], bound[free] = 0, kept
        residual = np.linalg.norm(np.einsum("cji,cj->ci", s, y), axis=1)
        rest = np.flatnonzero(traced & (residual <= cut))
        y, x = y[rest], np.empty((0, size))
        if rest.size:
            bordered = np.zeros((rest.size, size + 1, size + 1))
            inner = bordered[:, :size, :size]
            # Each of these sectors holds a diagonal coordinate: at most n.
            for to, sector in enumerate(rest):
                inner[to] = s[sector]
            bordered[:, :size, size] = bordered[:, size, :size] = y
            kept, x = _sigma_min_bound(bordered, rng)
            x = x[:, :size, 0] / np.linalg.norm(x[:, :size, 0], axis=1, keepdims=True)
            one = (np.linalg.norm(inner @ x[..., None], axis=(1, 2)) <= cut) & (kept > cut)
            dim[rest[one]], bound[rest[one]] = 1, kept[one]
            x, y = x[one], y[one]
        again = np.flatnonzero(traced & (dim < 0))
        if again.size:
            sketch[again] = _solve(s[again], rng.standard_normal((again.size, size, _PROBES)))
    return dim, bound, x, y, sketch


def _sketched_kernels(
    s: np.ndarray, sectors: np.ndarray, w: np.ndarray, cut: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, list]:
    """Kernel dimension d of each real square matrix S = s[k], k in
    ``sectors`` (how many directions X̂ of its sketch W = S⁻¹Ω grew past
    1/cut; 0 if W is not finite), whether d is certified, and (index into
    ``sectors``, X_o, Y_o) groups, one vector a row. For 0 < d < 10, one
    stacked solve of B = [[S, X̂], [X̂ᵀ, 0]] and Bᵀ, filled in place from s,
    against [0; I_d] gives X and Y; X_o, Y_o are orthonormal bases of them.
    d is the SVD's when ‖S X_o‖₂, ‖Sᵀ Y_o‖₂ <= cut < the probe bound on
    σ_min(B) <= σ_{N−d}(S). B is singular unless ker S ∩ ran S = 0.
    """
    size = s.shape[1]
    q, r = np.linalg.qr(np.where(np.isfinite(w), w, 0))
    u, sigma, _ = np.linalg.svd(r)
    dim = np.count_nonzero(sigma > 1 / cut, axis=1)
    certified, found = np.zeros(len(sectors), bool), []
    # sorted(set(...)): np.unique without indices imports numpy.ma on numpy 2.
    for d in sorted(set(dim[(dim > 0) & (dim < _PROBES)].tolist())):
        at = np.flatnonzero(dim == d)
        xh = q[at] @ u[at, :, :d]
        pair = np.zeros((2, at.size, size + d, size + d))  # B, then Bᵀ: one border
        for to, sector in enumerate(sectors[at]):
            pair[0, to, :size, :size] = s[sector]
            pair[1, to, :size, :size] = s[sector].T
        pair[..., :size, size:], pair[..., size:, :size] = xh, xh.transpose(0, 2, 1)
        pair = pair.reshape(2 * at.size, size + d, size + d)
        kept, sol = _sigma_min_bound(pair, rng, d)
        basis = np.linalg.qr(np.where(np.isfinite(sol), sol, 0)[:, :-d, :d])[0]
        ok = (np.linalg.norm(pair[:, :-d, :-d] @ basis, 2, axis=(1, 2)) <= cut) & (kept > cut)
        certified[at] = ok = ok.reshape(2, -1).all(axis=0)
        vecs = basis.reshape(2, at.size, -1, d)[:, ok].transpose(0, 1, 3, 2)
        found.append((np.repeat(at[ok], d), *vecs.reshape(2, -1, vecs.shape[-1])))
    return dim, certified, found


def _sector_roots(m: np.ndarray) -> np.ndarray:
    """For each coordinate of a square matrix, the smallest coordinate of its
    sector: its connected component in the symmetric nonzero pattern
    (m != 0) | (m != 0)ᵀ. Only exact zeros separate coordinates.

    Every coordinate starts with its own label and repeatedly takes the
    smallest label among its neighbours, then its label's label (pointer
    jumping); at the fixed point each component carries its smallest
    coordinate.
    """
    size = m.shape[0]
    pattern = m != 0
    pattern |= pattern.T
    labels = np.arange(size)
    while True:
        nearest = np.minimum(labels, np.where(pattern, labels, size).min(axis=1))
        nearest = nearest[nearest]
        if np.array_equal(nearest, labels):
            return labels
        labels = nearest


# Bytes of complex rows that the stage-1 gather handles at a time: the p and q
# rows of one block of pairs, sized to stay in cache.
_GATHER_BYTES = 1 << 18


def _times_t(rows: np.ndarray, perm: np.ndarray, n: int) -> np.ndarray:
    """rows · T for rows of a superoperator m: column blocks m[:, diag],
    (m[:, p] + m[:, q]) r and i (m[:, p] − m[:, q]) r, with perm the column
    order (diag, p, q) and r = 1/√2."""
    k, r = (perm.size - n) // 2, np.sqrt(0.5)
    sym, anti = slice(n, n + k), slice(n + k, None)
    cols = rows.take(perm, axis=1)
    diff = cols[:, anti] - cols[:, sym]
    cols[:, sym] += cols[:, anti]
    cols[:, sym] *= r
    np.multiply(diff, -1j * r, out=cols[:, anti])
    return cols


def _sum_sq(x: np.ndarray) -> float:
    """The sum of the squared entries, as one dot product."""
    flat = x.ravel()
    return float(flat @ flat)


def gather_real(m: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """The real matrix M = T† m T of a Hermiticity-preserving superoperator m.

    m acts on column-stacked n × n operators, and T is the unitary whose
    columns are vec of the orthonormal Hermitian basis of ``_herm_to_real``
    (diagonal units, (E_ij + E_ji)/√2, i(E_ij − E_ji)/√2). M is gathered in
    row blocks of ``_GATHER_BYTES``: the diagonal rows of m, then the p and
    q rows of each block of pairs, each times T (``_times_t``), combined and
    scaled into rows of M while in cache. Only these blocks and M are
    allocated, and no entry of M depends on the block size. The imaginary
    part of T† m T must vanish within residual_tol · ‖M‖_F, on the scale of
    m itself (the zero map passes), else ValueError.
    """
    m = require_square(m)
    n = isqrt(m.shape[0])
    if n * n != m.shape[0]:
        raise ValueError(f"{m.shape} is not the shape of a superoperator")
    diag, p, q = _hermitian_pairs(n)
    k, r = p.size, np.sqrt(0.5)
    perm = np.concatenate([diag, p, q])
    step = max(1, _GATHER_BYTES // (32 * n * n))
    real = np.empty(m.shape)
    imag_sq = 0.0
    for lo in range(0, n, step):
        cols = _times_t(m[diag[lo : lo + step]], perm, n)
        real[lo : lo + len(cols)] = cols.real
        imag_sq += _sum_sq(cols.imag)
    for lo in range(0, k, step):
        hi = min(lo + step, k)
        cols = _times_t(m[np.concatenate([p[lo:hi], q[lo:hi]])], perm, n)
        at_p, at_q = cols[: hi - lo], cols[hi - lo :]
        sym, anti = real[n + lo : n + hi], real[n + k + lo : n + k + hi]
        np.add(at_p.real, at_q.real, out=sym)
        sym *= r
        np.subtract(at_p.imag, at_q.imag, out=anti)
        anti *= r
        imag_sq += 0.5 * _sum_sq(at_p.imag + at_q.imag) + 0.5 * _sum_sq(at_p.real - at_q.real)
    if np.sqrt(imag_sq) > tol.residual_tol * frob(real):
        raise ValueError("superoperator does not preserve Hermiticity")
    return real


def real_null_spaces(
    real: np.ndarray, scale: float, tol: Tolerances = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases (as columns) of the null spaces of m and m†, from
    the real M = T† m T of ``gather_real``; M has the singular values of m.

    M maps each of its sectors (``_sector_roots``) to itself, so its singular
    values are the union of the sectors' and its kernels are direct sums of
    the sectors' kernels. The rank rule keeps singular values above
    rank_tol · ``scale``, a scale the caller takes before any factorization
    (stage 1: the operators' scale s, which L → cL multiplies by c), and at
    least the smallest normal float, so the zero map's cut is positive. The
    sectors of one size are stacked, and M itself is used when one sector
    spans every coordinate.
    A trace-preserving map has m†(1) = 0, so on every sector that holds a
    diagonal coordinate the restriction of y₀ = T† vec(1) (1 on the diagonal
    coordinates) is a left kernel vector. One LU per sector with Gaussian
    probes (``_certified_kernels``) certifies a coherence sector kernel-free,
    or a diagonal-bearing one, through its matrix bordered by y₀, to have a
    one-dimensional kernel, with the SVD's decision; the left kernel vector
    is then the normalized restriction of y₀ itself. An undecided sector gets
    d kernel directions from its probe solves, and one LU of its matrix
    bordered by them and one of the transpose certify a d-dimensional kernel
    (``_sketched_kernels``). The probes come from a generator fixed here.
    The other sectors (a value near the cut, an exact zero pivot, ten kernel
    directions, a Jordan block at 0) are factored by one batched real SVD,
    whose trailing singular vectors span their kernels. Kernel vectors are
    embedded at their sector's coordinates; columns come ordered by sector
    (smallest coordinate first), and mapped back through T every basis
    vector is vec of a Hermitian matrix.
    """
    n = isqrt(real.shape[0])
    cut = max(tol.rank_tol * scale, np.finfo(float).tiny)
    rng = np.random.default_rng(0)
    roots = _sector_roots(real)
    order = np.argsort(roots, kind="stable")
    _, starts, sizes = np.unique(roots[order], return_index=True, return_counts=True)
    owners, right, left = [], [], []
    for size in sorted(set(sizes.tolist())):
        # (sectors of this size) x size coordinates, one row per sector
        idx = order[starts[sizes == size][:, None] + np.arange(size)]
        block = real[None] if size == n * n else real[idx[:, :, None], idx[:, None, :]]
        diagonal = idx < n
        y = diagonal / np.sqrt(np.maximum(diagonal.sum(axis=1, keepdims=True), 1))
        dim, _, x, y, sketch = _certified_kernels(block, y, cut, rng)
        # (sector rows of idx, right and left kernel vectors), one vector a row
        found = [(np.flatnonzero(dim == 1), x, y)]
        undecided = np.flatnonzero(dim < 0)
        if undecided.size:
            _, certified, groups = _sketched_kernels(block, undecided, sketch[undecided], cut, rng)
            found += [(undecided[rows], x, y) for rows, x, y in groups]
            undecided = undecided[~certified]
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
    return (
        _real_to_vec_herm(np.hstack(right)[:, by_sector], n),
        _real_to_vec_herm(np.hstack(left)[:, by_sector], n),
    )


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
    """HS-orthonormal Hermitian basis of the real span of Hermitian matrices."""
    if not candidates:
        return []
    n = candidates[0].shape[0]
    rows = np.array([_herm_to_real(hermitian_part(x)) for x in candidates])
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return []
    keep = s > tol.rank_tol * s[0]
    return [_real_to_herm(vh[i], n) for i in range(len(s)) if keep[i]]


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

    Eigenvalues below psd_tol are zeroed; an error is raised when the clipped
    mass exceeds 1% of the trace, which signals the input was not close to a
    density matrix, or when the trace is too small to normalize. The input
    must be Hermitian within 100 · residual_tol · ‖a‖_F.
    """
    a = require_square(a)
    if hermiticity_defect(a) > 100 * tol.residual_tol * frob(a):
        raise ValueError("psd_project requires a Hermitian input")
    w, u = np.linalg.eigh(hermitian_part(a))
    trace = float(w.sum())
    if trace <= tol.psd_tol:
        raise ValueError(f"trace {trace:.3e} too small to normalize")
    clipped_mass = float(np.abs(w[w < tol.psd_tol]).sum())
    if clipped_mass > 0.01 * trace:
        raise ValueError(
            f"clipped eigenvalue mass {clipped_mass:.3e} exceeds 1% of trace {trace:.3e}"
        )
    w = np.where(w < tol.psd_tol, 0.0, w)
    rho = (u * w) @ dagger(u)
    return hermitian_part(rho / w.sum())


def cluster_sorted_values(values: np.ndarray, width: float) -> list[slice]:
    """Group an ascending 1-d array into clusters split at gaps > width."""
    if values.size == 0:
        return []
    edges = [0, *(np.flatnonzero(np.diff(values) > width) + 1).tolist(), values.size]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def lex_key(m: np.ndarray, decimals: int = 12) -> tuple:
    """Deterministic ordering key: rounded row-major (re, im) interleaving."""
    flat = np.asarray(m, dtype=complex).ravel()
    rounded = np.round(np.column_stack([flat.real, flat.imag]), decimals)
    return tuple(rounded.ravel().tolist())


def fix_phase(q: np.ndarray, decimals: int = 12) -> np.ndarray:
    """Rotate a global phase so the largest-magnitude entry is real positive."""
    flat = np.asarray(q).ravel()
    mags = np.round(np.abs(flat), decimals)
    idx = int(np.argmax(mags))
    pivot = flat[idx]
    if abs(pivot) == 0.0:
        return np.array(q, copy=True)
    return np.asarray(q) * (pivot.conjugate() / abs(pivot))
