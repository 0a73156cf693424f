"""Shared builders for seeded random models used across the test modules."""

import numpy as np
import scipy.linalg

from enclosure_atlas.decomposition import recurrent_projector
from enclosure_atlas.linalg import (
    DEFAULT_TOL,
    _hermitian_pairs,
    gather_sectors,
    hermitian_part,
    real_null_spaces,
)
from enclosure_atlas.io import ModelFileError, _echo
from enclosure_atlas.fixtures import (
    faithful_2d,
    rotation_channel,
    two_enclosures_2d,
    unfaithful_2d,
    zero_generator_2d,
)
from enclosure_atlas.oqrw import RateMatrix, minimal_oqrw
from enclosure_atlas.semigroup import (
    KrausChannel,
    LindbladModel,
    build_generator,
    unvec,
    vec,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitian_part(g)


def random_unitary(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def null_spaces(m, tol=DEFAULT_TOL):
    """Orthonormal bases (as columns) of the null spaces of a
    Hermiticity-preserving superoperator m and of m†: stage 1's
    ``real_null_spaces`` of ``gather_sectors``, from an n² × n² matrix. A
    raw matrix has no model to take the operators' scale from, so the cut
    is rank_tol · max(‖M‖_F, 1)."""
    stacks = gather_sectors(m)
    return real_null_spaces(stacks, max(np.linalg.norm(assembled(stacks)), 1.0), tol)


def assembled(stacks):
    """M = T† m T from its coarse blocks (``gather_sectors``), zero outside them."""
    n2 = sum(at.size for at, _ in stacks)
    real = np.zeros((n2, n2))
    for at, blocks in stacks:
        real[at[:, :, None], at[:, None, :]] = blocks
    return real


def apply(s, a):
    """A superoperator's n² × n² matrix applied to an operator, unvec(S vec(a))."""
    return unvec(s.matrix @ vec(np.asarray(a)))


def expm(m):
    """exp(m) by scipy's scaling-and-squaring Padé: the oracle for the flow
    exp(tL) of a generator's n² × n² matrix."""
    return scipy.linalg.expm(m)


def evolve(model, t, rho):
    """exp(tL)(rho) for a model, through ``expm`` of its generator."""
    return unvec(expm(t * build_generator(model).matrix) @ vec(rho))


def flow_channel(model, t=1.0):
    """exp(tL) as a Kraus channel, from the eigendecomposition of its Choi
    matrix sum_k vec(V_k) vec(V_k)†: its entry [(k, l), (i, j)] (vec indices
    k + n l and i + n j) is entry [(i, k), (j, l)] of the superoperator. Each
    eigenvalue w above 1e-12 of the largest, eigenvector u, gives
    V = √w unvec(u); smaller ones are roundoff of zeros, and their square
    roots would be operators of size 1e-8 in arbitrary directions."""
    n = model.dim
    phi = expm(t * build_generator(model).matrix).reshape(n, n, n, n)
    choi = phi.transpose(3, 1, 2, 0).reshape(n * n, n * n)
    w, u = np.linalg.eigh((choi + choi.conj().T) / 2)
    keep = w > 1e-12 * w[-1]
    return KrausChannel.create([np.sqrt(x) * unvec(v) for x, v in zip(w[keep], u[:, keep].T)])


def unit(i, j, n=2):
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


def fixed_points(obj):
    """Orthonormal Hermitian basis of ker L (ker(Phi - Id) for a channel)."""
    return [unvec(v) for v in recurrent_projector(obj).kernel.T]


def unblocked_gather(m):
    """(M, ‖Im T† m T‖_F): the stage-1 gather of a superoperator in one pass
    over whole arrays, through the complex n² × n² product m T. The
    reference for ``gather_real``, whose sector blocks must be the blocks of
    this M bit for bit."""
    n = int(round(np.sqrt(m.shape[0])))
    diag, p, q = _hermitian_pairs(n)
    k, r = p.size, np.sqrt(0.5)
    sym, anti = slice(n, n + k), slice(n + k, None)
    cols = np.empty_like(m)
    cols[:, :n] = m[:, diag]
    cols[:, sym] = m[:, p]
    cols[:, anti] = m[:, q]
    cols[:, anti] -= cols[:, sym]
    cols[:, anti] *= -1j * r
    cols[:, sym] += m[:, q]
    cols[:, sym] *= r
    re, im = cols.real, cols.imag
    real = np.empty(m.shape)
    real[:n] = re[diag]
    np.add(re[p], re[q], out=real[sym])
    np.subtract(im[p], im[q], out=real[anti])
    real[n:] *= r
    imag_sq = (
        np.sum(im[diag] ** 2)
        + 0.5 * np.sum((im[p] + im[q]) ** 2)
        + 0.5 * np.sum((re[p] - re[q]) ** 2)
    )
    return real, float(np.sqrt(imag_sq))


def search_sector_roots(m):
    """Each coordinate's smallest connected coordinate in the symmetric
    nonzero pattern of a square matrix, or of each matrix in a stack, by
    breadth-first search from each coordinate not yet reached, ascending:
    the reference for ``_sector_roots``."""
    pattern = (m != 0) | (m != 0).swapaxes(-1, -2)
    roots = np.full(pattern.shape[:-1], -1)
    for at in np.ndindex(pattern.shape[:-2]):
        adjacent, labels = pattern[at], roots[at]  # labels: a view of roots
        for start in range(labels.size):
            if labels[start] >= 0:
                continue
            labels[start], queue = start, [start]
            for i in queue:  # grows as the search reaches new coordinates
                new = np.flatnonzero(adjacent[i] & (labels < 0))
                labels[new] = start
                queue.extend(new.tolist())
    return roots


def choi_matrix(channel):
    """Choi matrix sum_j vec(V_j) vec(V_j)† in the column-stacking convention:
    the dense oracle for ``choi_min_eigenvalue``."""
    cols = [vec(v)[:, None] for v in channel.kraus]
    return sum(c @ c.conj().T for c in cols)


def random_density(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_model(rng, n, num_jumps):
    """Dense generic model; typically irreducible with a faithful steady state."""
    jumps = [
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for _ in range(num_jumps)
    ]
    return LindbladModel.create(random_hermitian(rng, n), jumps)


def block_diag_model(rng, dims, num_jumps):
    """Direct sum of independent dense blocks: one enclosure per block."""
    n = sum(dims)
    h = np.zeros((n, n), dtype=complex)
    offset = 0
    blocks = []
    for d in dims:
        h[offset : offset + d, offset : offset + d] = random_hermitian(rng, d)
        blocks.append((offset, d))
        offset += d
    jumps = []
    for _ in range(num_jumps):
        op = np.zeros((n, n), dtype=complex)
        for offset, d in blocks:
            op[offset : offset + d, offset : offset + d] = rng.standard_normal(
                (d, d)
            ) + 1j * rng.standard_normal((d, d))
        jumps.append(op)
    return LindbladModel.create(h, jumps)


def leaky_model(rng, n, num_jumps):
    """Generic model plus a drain from the last level: nonzero transient part."""
    base = random_model(rng, n - 1, num_jumps)
    h = np.zeros((n, n), dtype=complex)
    h[: n - 1, : n - 1] = base.hamiltonian
    jumps = []
    for op in base.jumps:
        big = np.zeros((n, n), dtype=complex)
        big[: n - 1, : n - 1] = op
        jumps.append(big)
    drain = np.zeros((n, n), dtype=complex)
    drain[0, n - 1] = 1.0
    jumps.append(drain)
    return LindbladModel.create(h, jumps)


def weak_drain(amplitude):
    """leaky-5 with its drain jump scaled by ``amplitude``: drain rate amplitude²."""
    base = leaky_model(np.random.default_rng(1), 5, 2)
    return LindbladModel.create(base.hamiltonian, [*base.jumps[:-1], amplitude * base.jumps[-1]])


def conjugated_pair_model(rng, d, num_jumps):
    """Direct sum of a dense block and its conjugation by a random unitary.

    Forces a degenerate family of two equivalent d-dimensional enclosures
    whenever the base block is irreducible.
    """
    h0 = random_hermitian(rng, d)
    ops = [
        rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for _ in range(num_jumps)
    ]
    w = random_unitary(rng, d)
    zero = np.zeros((d, d))
    h = np.block([[h0, zero], [zero, w @ h0 @ w.conj().T]])
    jumps = [np.block([[op, zero], [zero, w @ op @ w.conj().T]]) for op in ops]
    return LindbladModel.create(h, jumps), w


def random_rate_matrix(rng, n, density=0.5):
    """Seeded rate matrix with at most one fully inactive state."""
    mask = rng.random((n, n)) < density
    q = np.where(mask, rng.uniform(0.2, 1.2, (n, n)), 0.0)
    np.fill_diagonal(q, 0.0)
    zero_rows = [i for i in range(n) if q[i].sum() == 0.0]
    for i in zero_rows[1:]:
        q[i, (i + 1) % n] = 0.5
    np.fill_diagonal(q, -q.sum(axis=1))
    return RateMatrix.create(q)


def random_channel(rng, n, num_kraus):
    """Dense generic Kraus channel: the blocks of a random isometry."""
    g = rng.standard_normal((num_kraus * n, n)) + 1j * rng.standard_normal((num_kraus * n, n))
    q, _ = np.linalg.qr(g)
    return KrausChannel.create([q[k * n : (k + 1) * n] for k in range(num_kraus)])


def conjugated_pair_channel(rng, d, num_kraus):
    """Kraus channel on a dense block plus its conjugation by a random unitary:
    a degenerate family of two equivalent d-dimensional enclosures."""
    g = rng.standard_normal((num_kraus * d, d)) + 1j * rng.standard_normal((num_kraus * d, d))
    q, _ = np.linalg.qr(g)
    w = random_unitary(rng, d)
    zero = np.zeros((d, d))
    kraus = [q[k * d : (k + 1) * d] for k in range(num_kraus)]
    return KrausChannel.create([np.block([[v, zero], [zero, w @ v @ w.conj().T]]) for v in kraus])


def renewal_pair_channel():
    """n = 24 channel whose two unique enclosures agree on every outcome word
    of length <= 7.

    V_0 steps a chain X of 7 levels, a chain Y of 9 levels and a cycle Z of 8
    levels forward; V_1 maps X_end -> (X_0 + Y_0)/√2, Y_end -> (X_0 - Y_0)/√2
    and Z_end -> Z_0. The enclosures X ⊕ Y (dimension 16) and Z (dimension 8)
    are renewal processes with gaps {7, 9} and {8}, first told apart by 0^8.
    """
    x, y, z = range(0, 7), range(7, 16), range(16, 24)
    v0, v1 = np.zeros((24, 24)), np.zeros((24, 24))
    for chain in (x, y, z):
        for a, b in zip(chain, chain[1:]):
            v0[b, a] = 1.0
    r = np.sqrt(0.5)
    v1[x[0], x[-1]] = v1[y[0], x[-1]] = v1[x[0], y[-1]] = r
    v1[y[0], y[-1]] = -r
    v1[z[0], z[-1]] = 1.0
    return KrausChannel.create([v0, v1])


def tilted_hamiltonian_model(eps):
    """(model, hermitian_model): an n = 4 model whose Hamiltonian is
    h + eps·‖h‖_F·a/‖a‖_F with a real antisymmetric (anti-Hermitian) a, and
    the same model with h. ``LindbladModel.create`` accepts the first for
    eps up to about 1e-6."""
    rng = np.random.default_rng(1)
    n = 4
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = rng.standard_normal((n, n))
    a = a - a.T
    jump = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (g + g.conj().T) / 2
    tilted = h + eps * np.linalg.norm(h) * a / np.linalg.norm(a)
    return LindbladModel.create(tilted, [jump]), LindbladModel.create(h, [jump])


def gather_models():
    """The models whose stage-1 gather the tests compare with ``unblocked_gather``."""
    rng = np.random.default_rng(83)
    for n in (1, 2, 3, 7, 24):
        yield random_model(rng, n, 2)
        yield random_channel(rng, n, 2)
    yield from (faithful_2d(), unfaithful_2d(), two_enclosures_2d(), zero_generator_2d())
    yield rotation_channel()
    yield leaky_model(rng, 5, 2)
    yield block_diag_model(rng, (2, 3, 1), 2)
    yield conjugated_pair_model(rng, 3, 2)[0]
    yield conjugated_pair_channel(rng, 3, 2)
    yield renewal_pair_channel()
    yield minimal_oqrw(random_rate_matrix(rng, 7, density=0.9))


def read_rows(data, field, pairs):
    """The reference for ``io._parse_rows``: a nested array read entry by
    entry in row order. It raises at the first malformed row or entry,
    naming it as ``field[i][j]``, and otherwise builds the float (complex if
    ``pairs``) array from ``float`` or ``complex`` of each entry. A number
    is exactly an int or a float, never a bool."""
    what = "[re, im] pairs" if pairs else "numbers"
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise ModelFileError(f"field {field}: expected a nested array of {what}")
    number = lambda v: type(v) in (int, float)  # noqa: E731
    width, rows = len(data[0]), []
    for i, row in enumerate(data):
        if len(row) != width:
            raise ModelFileError(f"field {field}: row {i} has length {len(row)}, expected {width}")
        rows.append([])
        for j, v in enumerate(row):
            name = f"{field}[{i}][{j}]"
            if pairs and not (isinstance(v, (list, tuple)) and len(v) == 2 and all(map(number, v))):
                raise ModelFileError(f"field {name}: expected a [re, im] pair, got {_echo.repr(v)}")
            if not pairs and not number(v):
                raise ModelFileError(f"field {name}: expected a number, got {_echo.repr(v)}")
            try:
                rows[-1].append(complex(v[0], v[1]) if pairs else float(v))
            except OverflowError:
                raise ModelFileError(f"field {name}: number out of float range") from None
    return np.array(rows, dtype=complex if pairs else float)


def _spin(v, ops, tol):
    """Orthonormal columns spanning the smallest subspace that holds v and is
    invariant under ops: a block Krylov closure, each new direction kept
    when its part off the basis exceeds tol (the ops have spectral norm at
    most 1)."""
    basis = v[:, None] / np.linalg.norm(v)
    at = 0
    while at < basis.shape[1]:
        q = basis[:, at]
        at += 1
        for a in ops:
            r = a @ q
            for _ in range(2):
                r = r - basis @ (basis.conj().T @ r)
            if np.linalg.norm(r) > tol:
                basis = np.column_stack([basis, r / np.linalg.norm(r)])
    return basis


def _minimal_subspace(u, ops, rng, tol):
    """A minimal invariant subspace inside the invariant subspace ran u
    (orthonormal columns), by Norton's irreducibility test (the MeatAxe:
    Holt & Rees 1994). On the compressed ops, take the most isolated
    eigenvalue of one random element Y. Its eigenvector spins to a proper
    invariant subspace, or its left eigenvector spins under the adjoints to
    a proper subspace whose orthogonal complement is invariant; either is
    recursed into. When both spins are the whole space, ran u is minimal."""
    d = u.shape[1]
    if d == 1:
        return u
    compressed = [u.conj().T @ a @ u for a in ops]
    y = sum(rng.standard_normal(2) @ [1, 1j] * b for b in compressed)
    values, vectors = np.linalg.eig(y)
    gaps = np.abs(values[:, None] - values[None, :]) + np.diag(np.full(d, np.inf))
    lone = np.argmax(gaps.min(axis=1))
    spun = _spin(vectors[:, lone], compressed, tol)
    if spun.shape[1] < d:
        return _minimal_subspace(u @ spun, ops, rng, tol)
    left_values, left_vectors = np.linalg.eig(y.conj().T)
    w = left_vectors[:, np.argmin(np.abs(left_values - values[lone].conjugate()))]
    dual = _spin(w, [b.conj().T for b in compressed], tol)
    if dual.shape[1] < d:
        complement = np.linalg.qr(dual, mode="complete")[0][:, dual.shape[1]:]
        return _minimal_subspace(u @ complement, ops, rng, tol)
    return u


def _isomorphic(u, v, ops, tol):
    """Whether the ops restricted to ran u and to ran v are isomorphic: some
    Q ≠ 0 has Q A_u = A_v Q for every op, a null vector of the stacked
    Kronecker system (Schur: such a Q is invertible)."""
    if u.shape[1] != v.shape[1]:
        return False
    d = u.shape[1]
    eye = np.eye(d)
    system = np.vstack([
        np.kron((u.conj().T @ a @ u).T, eye) - np.kron(eye, v.conj().T @ a @ v) for a in ops
    ])
    return np.linalg.svd(system, compute_uv=False)[-1] <= tol


def spin_shape(obj, seed=0, tol=DEFAULT_TOL):
    """The decomposition's shape read off the operators: (transient
    dimension, unique enclosure dimensions, family (m, d) pairs), each list
    in decreasing order.

    A subspace is an enclosure exactly when K and every L_j (for a channel,
    every V_i) map it into itself, so the minimal enclosures are the minimal
    common invariant subspaces of the operators, R is their sum, and two
    minimal enclosures belong to one family exactly when the operators
    restricted to them are intertwined by some Q ≠ 0. Each nonzero operator
    is scaled to unit Frobenius norm and 1 joins them, which moves no
    invariant subspace and no intertwiner: a weak operator counts as much as
    a strong one, and the shape is the one every ε > 0 in it gives.

    Each minimal enclosure holds an eigenvector of a generic element X of
    the operators' span: the eigenvectors of one seeded random X off the
    enclosures found so far are spun, and each spin is cut down to a
    minimal subspace (``_minimal_subspace``). Spans are cut at rank_tol and
    intertwiners at residual_tol."""
    n, rng = obj.dim, np.random.default_rng(seed)
    ops = list(obj.kraus) if isinstance(obj, KrausChannel) else [obj._drift, *obj.jumps]
    ops = [np.eye(n), *(a / np.linalg.norm(a) for a in ops if np.linalg.norm(a) > 0)]
    x = sum(rng.standard_normal(2) @ [1, 1j] * a for a in ops)
    found, socle = [], np.zeros((n, 0))
    for v in np.linalg.eig(x)[1].T:
        if np.linalg.norm(v - socle @ (socle.conj().T @ v)) <= tol.rank_tol:
            continue
        m = _minimal_subspace(_spin(v, ops, tol.rank_tol), ops, rng, tol.rank_tol)
        rest = m - socle @ (socle.conj().T @ m)
        if np.linalg.svd(rest, compute_uv=False)[-1] > tol.rank_tol:
            found.append(m)
            socle = np.linalg.qr(np.column_stack([socle, m]))[0]
    classes = []
    for m in found:
        match = next((c for c in classes if _isomorphic(c[0], m, ops, tol.residual_tol)), None)
        if match is None:
            classes.append([m])
        else:
            match.append(m)
    unique = sorted((c[0].shape[1] for c in classes if len(c) == 1), reverse=True)
    families = sorted(((len(c), c[0].shape[1]) for c in classes if len(c) > 1), reverse=True)
    return n - socle.shape[1], unique, families
