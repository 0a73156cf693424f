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


def support_projector(a: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projector onto the numerical range of a PSD Hermitian matrix.

    Keeps the eigenvectors with eigenvalue > rank_tol · λ_max: the
    eigenvalues at most that are the state's noise, the ones ``psd_project``
    zeroes. λ_max <= 0 gives the zero projector, since no eigenvalue is
    kept; otherwise an eigenvalue below −10 · rank_tol · λ_max is an error.
    The input must be Hermitian within 100 · residual_tol · ‖a‖_F.
    """
    a = require_square(a)
    if hermiticity_defect(a) > 100 * tol.residual_tol * frob(a):
        raise ValueError("support_projector requires a Hermitian input")
    w, u = np.linalg.eigh(hermitian_part(a))
    lam_max = float(w[-1]) if w.size else 0.0
    if lam_max <= 0:
        return np.zeros_like(a)
    if float(w[0]) < -10 * tol.rank_tol * lam_max:
        raise ValueError(f"input is not positive semidefinite: min eigenvalue {w[0]:.3e}")
    v = u[:, w > tol.rank_tol * lam_max]
    return v @ dagger(v)


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
    ‖A⁻¹ωᵢ‖), and A⁻¹[E, Ω] for E the last ``width`` unit vectors: one LU each."""
    count, size, _ = a.shape
    rhs = np.zeros((count, size, width + _PROBES))
    rhs[:, size - width :, :width] = np.eye(width)
    rhs[..., width:] = rng.standard_normal((count, size, _PROBES))
    sol = _solve(a, rhs)
    return 1 / (_PROBE_FACTOR * np.linalg.norm(sol[..., width:], axis=1).max(axis=1)), sol


def _bordered_kernels(
    s: np.ndarray, sectors: np.ndarray, border: np.ndarray, cut: float,
    rng: np.random.Generator, left_known: bool,
) -> tuple:
    """Certify that each real square matrix S = s[k], k in ``sectors``, has
    the d-dimensional kernel the SVD's rule ``σ <= cut`` gives, by one LU of
    B = [[S, X̂], [X̂ᵀ, 0]] (X̂: d orthonormal ``border`` columns) and one of
    Bᵀ unless X̂ is a known left kernel, stacked, filled in place from s and
    solved against [0; I_d | Ω]. They give X with S X = −X̂Λ and Y with
    Sᵀ Y = −X̂Γ, X̂ᵀX = X̂ᵀY = I_d, and X_o, Y_o orthonormal bases of them;
    with a known left kernel d = 1, Y_o = X̂ and X_o = x/‖x‖, so X̂ᵀX_o > 0
    (a kernel vector bordered by the trace functional has positive trace).
    d is certified when ‖S X_o‖₂ (and ‖Sᵀ Y_o‖₂) <= cut, so σ_{N−d+1}(S) <=
    cut, and cut < the probe bound on σ_min(B): for unit z ⊥ X̂,
    ‖B (z, 0)‖ = ‖S z‖, so σ_min(B) <= σ_{N−d}(S) by Courant–Fischer. B is
    singular unless ker S ∩ ran S = 0. Returns (certified, bound, X_o, Y_o),
    with the smaller of B's and Bᵀ's bounds.
    """
    count, size, d = border.shape
    sides = 1 if left_known else 2
    pair = np.zeros((sides, count, size + d, size + d))  # B, then Bᵀ if any: one border
    for to, sector in enumerate(sectors):
        pair[0, to, :size, :size], pair[1:, to, :size, :size] = s[sector], s[sector].T
    pair[..., :size, size:], pair[..., size:, :size] = border, border.transpose(0, 2, 1)
    pair = pair.reshape(sides * count, size + d, size + d)
    bound, sol = _sigma_min_bound(pair, rng, d)
    sol = np.where(np.isfinite(sol), sol, 0)[:, :size, :d]  # a zero pivot's NaN fails the bound
    if left_known:
        basis = sol / np.maximum(np.linalg.norm(sol, axis=1, keepdims=True), np.finfo(float).tiny)
    else:
        basis = np.linalg.qr(sol)[0]
    ok = (np.linalg.norm(pair[:, :size, :size] @ basis, 2, axis=(1, 2)) <= cut) & (bound > cut)
    ok, bound = ok.reshape(sides, count).all(axis=0), bound.reshape(sides, count).min(axis=0)
    basis = basis.reshape(sides, count, size, d)
    return ok, bound, basis[0], border if left_known else basis[1]


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


def gather_real(m: np.ndarray) -> np.ndarray:
    """The real matrix M = T† m T of a Hermiticity-preserving superoperator m.

    m acts on column-stacked n × n operators, and T is the unitary whose
    columns are vec of the orthonormal Hermitian basis of ``_real_to_vec_herm``
    (diagonal units, (E_ij + E_ji)/√2, i(E_ij − E_ji)/√2). M is gathered in
    row blocks of ``_GATHER_BYTES``: the diagonal rows of m, then the p and
    q rows of each block of pairs, each times T (``_times_t``), combined and
    scaled into rows of M while in cache. Only these blocks and M are
    allocated, and no entry of M depends on the block size. The imaginary
    part of T† m T is dropped unread: every generator has L(X)† = L(X†), so
    it is roundoff.
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
    for lo in range(0, n, step):
        cols = _times_t(m[diag[lo : lo + step]], perm, n)
        real[lo : lo + len(cols)] = cols.real
    for lo in range(0, k, step):
        hi = min(lo + step, k)
        cols = _times_t(m[np.concatenate([p[lo:hi], q[lo:hi]])], perm, n)
        at_p, at_q = cols[: hi - lo], cols[hi - lo :]
        sym, anti = real[n + lo : n + hi], real[n + k + lo : n + k + hi]
        np.add(at_p.real, at_q.real, out=sym)
        sym *= r
        np.subtract(at_p.imag, at_q.imag, out=anti)
        anti *= r
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
    Per size, in this order: one LU with Gaussian probes Ω
    (``_sigma_min_bound``) of each coherence sector (no diagonal
    coordinate), kernel-free when that bound on σ_min exceeds the cut; the
    bordered certificate ``_bordered_kernels`` of each sector S that holds a
    diagonal coordinate and has ‖Sᵀy‖ <= cut, with the normalized
    restriction y of y₀ = T† vec(1) (1 on the diagonal coordinates) as its
    known left border, since a trace-preserving map has m†(1) = 0; one probe
    LU of each such sector the border left open. The probe solves S⁻¹Ω of an
    undecided sector are its sketch: the 0 < d < 10 of its directions that
    grew past 1/cut (from a QR and an SVD of its 10 × 10 factor) border S
    and Sᵀ in the same certificate, one call per d. The probes come from a
    generator fixed here. The other sectors (a value near the cut, an exact
    zero pivot, ten kernel directions, a Jordan block at 0) are factored by
    one batched real SVD, whose trailing singular vectors span their
    kernels. Kernel vectors are embedded at their sector's coordinates;
    columns come ordered by sector (smallest coordinate first), and mapped
    back through T every basis vector is vec of a Hermitian matrix.
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
        traced = diagonal.any(axis=1)
        y = diagonal / np.sqrt(np.maximum(diagonal.sum(axis=1, keepdims=True), 1))
        dim, sketch = np.full(len(idx), -1), np.zeros((len(idx), size, _PROBES))
        found = []  # (sector rows of idx, right and left kernel vectors), one vector a row

        def certify(sectors, border, left_known):
            ok, _, x_o, y_o = _bordered_kernels(block, sectors, border, cut, rng, left_known)
            dim[sectors[ok]] = d = border.shape[2]
            vecs = (v[ok].transpose(0, 2, 1).reshape(-1, size) for v in (x_o, y_o))
            found.append((np.repeat(sectors[ok], d), *vecs))

        with np.errstate(all="ignore"):
            free = np.flatnonzero(~traced)
            if free.size:
                bound, sketch[free] = _sigma_min_bound(block[free], rng, 0)
                dim[free[bound > cut]] = 0
            residual = np.linalg.norm(np.einsum("cji,cj->ci", block, y), axis=1)
            rest = np.flatnonzero(traced & (residual <= cut))
            if rest.size:
                certify(rest, y[rest, :, None], True)
            again = np.flatnonzero(traced & (dim < 0))
            if again.size:
                sketch[again] = _sigma_min_bound(block[again], rng, 0)[1]
            undecided = np.flatnonzero(dim < 0)
            if undecided.size:
                q, r = np.linalg.qr(np.where(np.isfinite(sketch[undecided]), sketch[undecided], 0))
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
    Hermitian within 100 · residual_tol · ‖a‖_F.
    """
    a = require_square(a)
    if hermiticity_defect(a) > 100 * tol.residual_tol * frob(a):
        raise ValueError("psd_project requires a Hermitian input")
    w, u = np.linalg.eigh(hermitian_part(a))
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
